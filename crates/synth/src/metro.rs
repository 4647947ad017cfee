//! Metro-scale world generation: dozens of high schools sharing one
//! city, built at millions of users per second.
//!
//! The single-school scenarios ([`crate::generator`]) are calibrated to
//! the paper's three schools and spend their per-user budget on fidelity
//! (lying-model calibration, households, interactions, circles). The
//! metro generator answers a different question — *what does the attack
//! cost at city scale?* — so it trades per-user richness for volume:
//!
//! - tens of schools, each with four current classes, an alumni block
//!   and parent accounts, all sharing one city;
//! - a community pool (the bulk of the million-plus users) whose random
//!   ties bridge every school into one connected metro graph;
//! - closed-form user-id layout (school blocks, then the pool), so edge
//!   phases reference endpoints without any lookups;
//! - pre-interned name pools ([`crate::names::name_sym_pools`]) — the
//!   per-user hot path never allocates or touches the interner lock;
//! - edges go straight into a frozen CSR adjacency via
//!   [`FriendGraph::from_edge_list`] — per-user edge `Vec`s never exist.
//!
//! Generation uses the same sharded chunk-stream machinery as the
//! calibrated generator: every phase draws from per-chunk RNG streams,
//! so a world is bit-identical at any thread count (pinned by the
//! `fingerprint_is_thread_invariant` test and the builder-vs-sealed
//! property tests).

use crate::generator::sharded_chunks;
use crate::names::{name_sym_pools, NameSymPools};
use hsp_graph::{
    ContactInfo, Date, EducationEntry, FriendGraph, Gender, Network, PrivacySettings,
    ProfileContent, Registration, Role, School, SchoolId, SchoolKind, User, UserId,
};
use rand::{Rng, RngCore};

/// Phase ids for the metro streams (disjoint from the calibrated
/// generator's 1..=13 so a shared seed never correlates draws).
mod phase {
    pub const STUDENTS: u64 = 20;
    pub const ALUMNI: u64 = 21;
    pub const PARENTS: u64 = 22;
    pub const POOL: u64 = 23;
    pub const EDGES_STUDENTS: u64 = 24;
    pub const EDGES_ALUMNI: u64 = 25;
    pub const EDGES_POOL: u64 = 26;
}

/// Shape of a metro world. All counts are exact (no adoption coins):
/// the id layout is closed-form, which is what lets edge generation run
/// without a single lookup.
#[derive(Clone, Debug)]
pub struct MetroConfig {
    pub seed: u64,
    /// Simulated crawl date.
    pub today: Date,
    /// Number of high schools sharing the city.
    pub schools: u32,
    /// Current students per school (split over four classes).
    pub students_per_school: u32,
    /// Alumni accounts per school (recent cohorts, mostly listing it).
    pub alumni_per_school: u32,
    /// Parent accounts per school, each friended to one student.
    pub parents_per_school: u32,
    /// City-wide community pool bridging the schools.
    pub pool_users: u32,
    /// Mean within-school friendships initiated per student.
    pub student_degree_mean: u32,
}

impl MetroConfig {
    /// The full metro benchmark world: ~1.15 M users, 40 schools.
    pub fn city() -> Self {
        MetroConfig {
            seed: 0x3e7_2012,
            today: Date::ymd(2012, 3, 15),
            schools: 40,
            students_per_school: 1_200,
            alumni_per_school: 600,
            parents_per_school: 400,
            pool_users: 1_062_000,
            student_degree_mean: 12,
        }
    }

    /// A small world with the same structure, for smoke tests and the
    /// `metro` experiment: 4 schools, ~5 k users.
    pub fn tiny() -> Self {
        MetroConfig {
            seed: 0x3e7_2012,
            today: Date::ymd(2012, 3, 15),
            schools: 4,
            students_per_school: 160,
            alumni_per_school: 80,
            parents_per_school: 40,
            pool_users: 4_000,
            student_degree_mean: 12,
        }
    }

    /// Users in one school block (students + alumni + parents).
    pub fn block(&self) -> usize {
        (self.students_per_school + self.alumni_per_school + self.parents_per_school) as usize
    }

    /// Total users this config commits.
    pub fn total_users(&self) -> usize {
        self.schools as usize * self.block() + self.pool_users as usize
    }
}

/// A generated metro world.
#[derive(Clone, Debug)]
pub struct MetroWorld {
    pub config: MetroConfig,
    pub network: Network,
    pub city: hsp_graph::CityId,
    pub schools: Vec<SchoolId>,
}

impl MetroWorld {
    /// Ground-truth roster + per-student grad years for one school
    /// (served by the sealed SoA columns).
    pub fn school_truth(&self, school: SchoolId) -> (Vec<UserId>, Vec<(UserId, i32)>) {
        let roster = self.network.roster(school);
        let years = roster
            .iter()
            .filter_map(|&u| self.network.student_grad_year(u).map(|g| (u, g)))
            .collect();
        (roster, years)
    }
}

/// Generate a metro world on all available cores.
pub fn metro(cfg: &MetroConfig) -> MetroWorld {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    metro_sharded(cfg, threads)
}

/// Generate a metro world with exactly `threads` spec threads. The
/// network is bit-identical for every `threads` value.
pub fn metro_sharded(cfg: &MetroConfig, threads: usize) -> MetroWorld {
    let threads = threads.max(1);
    let seed = cfg.seed;
    let schools_n = cfg.schools as usize;
    let st = cfg.students_per_school as usize;
    let al = cfg.alumni_per_school as usize;
    let pa = cfg.parents_per_school as usize;
    let block = cfg.block();
    let pool_n = cfg.pool_users as usize;
    let total = cfg.total_users();
    let pool_base = schools_n * block;
    let senior = 2012;

    // Build the name pools before the parallel phases: after this the
    // hot path reads plain `Vec<Sym>` tables, no locks.
    let pools = name_sym_pools();

    // Phase timing to stderr when METRO_TIMING is set.
    let timing = std::env::var_os("METRO_TIMING").is_some();
    let mut mark = std::time::Instant::now();
    let mut lap = |label: &str| {
        if timing {
            eprintln!("[metro] {label}: {:.3}s", mark.elapsed().as_secs_f64());
        }
        mark = std::time::Instant::now();
    };

    let mut net = Network::with_capacity(cfg.today, total);
    let city = net.add_city("Metro City", "NY");
    let schools: Vec<SchoolId> = (0..cfg.schools)
        .map(|s| {
            net.add_school(School {
                id: SchoolId(0),
                name: format!("Metro High School {:02}", s + 1).into(),
                city,
                kind: SchoolKind::HighSchool,
                public_enrollment_estimate: cfg.students_per_school,
            })
        })
        .collect();

    // ---- user spec phases (parallel, thread-invariant) ---------------

    let today = cfg.today;
    let students = sharded_chunks(seed, phase::STUDENTS, threads, schools_n * st, |rng, i| {
        let s = i / st;
        let k = i % st;
        // Four classes, seniors (2012) through freshmen (2015).
        let grad_year = senior + (k as i32 & 3);
        let birth = birth_date(rng, grad_year - 18, 1);
        // Registered-adult (lying) minors at roughly the paper's rate.
        let lies = rng.gen_bool(0.45);
        let registered_birth =
            if lies { Date::ymd(birth.year() - 3, birth.month(), birth.day()) } else { birth };
        let mut profile = fast_profile(rng, pools);
        if rng.gen_bool(0.78) {
            profile.education.push(EducationEntry::high_school(schools[s], grad_year));
        }
        if rng.gen_bool(0.05) {
            profile.networks.push(schools[s]);
        }
        User {
            id: UserId(0),
            true_birth_date: birth,
            registration: Registration {
                registered_birth_date: registered_birth,
                registration_date: Date::ymd(2010, 6, 15),
            },
            profile,
            privacy: fast_privacy(rng, lies || !is_minor(registered_birth, today)),
            role: Role::CurrentStudent { school: schools[s], grad_year },
        }
    });

    let alumni = sharded_chunks(seed, phase::ALUMNI, threads, schools_n * al, |rng, i| {
        let s = i / al;
        let k = i % al;
        // Recent cohorts, 2004..=2011.
        let grad_year = senior - 1 - (k as i32 & 7);
        let birth = birth_date(rng, grad_year - 18, 1);
        let mut profile = fast_profile(rng, pools);
        if rng.gen_bool(0.85) {
            profile.education.push(EducationEntry::high_school(schools[s], grad_year));
        }
        User {
            id: UserId(0),
            true_birth_date: birth,
            registration: Registration {
                registered_birth_date: birth,
                registration_date: Date::ymd(2009, 9, 1),
            },
            profile,
            privacy: fast_privacy(rng, true),
            role: Role::Alumnus { school: schools[s], grad_year },
        }
    });

    // Parents pick their child in the spec phase so the role's ground
    // truth and the friendship edge agree.
    let parents = sharded_chunks(seed, phase::PARENTS, threads, schools_n * pa, |rng, i| {
        let s = i / pa;
        let child = UserId::from_index(s * block + pick(rng, st));
        let birth = birth_date(rng, 1954, 20);
        let user = User {
            id: UserId(0),
            true_birth_date: birth,
            registration: Registration {
                registered_birth_date: birth,
                registration_date: Date::ymd(2011, 2, 1),
            },
            profile: fast_profile(rng, pools),
            privacy: fast_privacy(rng, true),
            role: Role::Parent { children: vec![child] },
        };
        (user, child)
    });

    let pool = sharded_chunks(seed, phase::POOL, threads, pool_n, |rng, _| {
        let birth = birth_date(rng, 1955, 35);
        User {
            id: UserId(0),
            true_birth_date: birth,
            registration: Registration {
                registered_birth_date: birth,
                registration_date: Date::ymd(2010, 1, 1),
            },
            profile: fast_profile(rng, pools),
            privacy: fast_privacy(rng, true),
            role: Role::OtherResident,
        }
    });

    lap("spec phases");

    // ---- commit (serial, id order == block layout) -------------------

    let mut st_it = students.into_iter().flatten();
    let mut al_it = alumni.into_iter().flatten();
    let mut pa_it = parents.into_iter().flatten();
    let mut parent_edges: Vec<(UserId, UserId)> = Vec::with_capacity(schools_n * pa);
    for _ in 0..schools_n {
        for _ in 0..st {
            net.add_user(st_it.next().expect("student spec"));
        }
        for _ in 0..al {
            net.add_user(al_it.next().expect("alumni spec"));
        }
        for _ in 0..pa {
            let (user, child) = pa_it.next().expect("parent spec");
            let id = net.add_user(user);
            parent_edges.push((id, child));
        }
    }
    for user in pool.into_iter().flatten() {
        net.add_user(user);
    }
    debug_assert_eq!(net.user_count(), total);
    lap("commit");

    // ---- edge phases (closed-form endpoints, no lookups) -------------

    let deg = cfg.student_degree_mean as usize;
    let student_edges =
        sharded_chunks(seed, phase::EDGES_STUDENTS, threads, schools_n * st, |rng, i| {
            let s = i / st;
            let k = i % st;
            let u = UserId::from_index(s * block + k);
            let n = deg / 2 + pick(rng, deg + 1);
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let v = UserId::from_index(s * block + pick(rng, st));
                out.push((u, v)); // self-loops dropped by from_edge_list
            }
            out
        });

    // Each alumnus bridges back: two students of their school plus one
    // fellow alumnus.
    let alumni_edges =
        sharded_chunks(seed, phase::EDGES_ALUMNI, threads, schools_n * al, |rng, i| {
            let s = i / al;
            let k = i % al;
            let u = UserId::from_index(s * block + st + k);
            [
                (u, UserId::from_index(s * block + pick(rng, st))),
                (u, UserId::from_index(s * block + pick(rng, st))),
                (u, UserId::from_index(s * block + st + pick(rng, al))),
            ]
        });

    // Pool ties bridge the whole city: mostly pool-to-pool, with a
    // steady trickle into the school blocks (students' non-school
    // friends). Fixed-size output (self-loop = "no edge") keeps this
    // phase allocation-free.
    let pool_edges = sharded_chunks(seed, phase::EDGES_POOL, threads, pool_n, |rng, j| {
        let u = UserId::from_index(pool_base + j);
        let tie = |rng: &mut rand::rngs::StdRng| {
            if rng.gen_bool(0.15) {
                UserId::from_index(pick(rng, pool_base))
            } else {
                UserId::from_index(pool_base + pick(rng, pool_n))
            }
        };
        let a = if rng.gen_bool(0.85) { tie(rng) } else { u };
        let b = if rng.gen_bool(0.35) { tie(rng) } else { u };
        [(u, a), (u, b)]
    });

    lap("edge phases");
    let mut edges: Vec<(UserId, UserId)> = Vec::with_capacity(
        schools_n * st * (deg + deg / 2) + schools_n * al * 3 + pool_n * 2 + parent_edges.len(),
    );
    edges.extend(student_edges.into_iter().flatten().flatten());
    edges.extend(alumni_edges.into_iter().flatten().flatten());
    edges.extend(parent_edges);
    edges.extend(pool_edges.into_iter().flatten().flatten());

    lap("edge collect");
    net.set_friend_graph(FriendGraph::from_edge_list(total, &edges));
    drop(edges);
    lap("csr build");
    net.seal();
    lap("seal");

    MetroWorld { config: cfg.clone(), network: net, city, schools }
}

fn is_minor(registered_birth: Date, today: Date) -> bool {
    Date::age_on(registered_birth, today) < 18
}

/// Uniform index in `0..n` from one `next_u64` via multiply-shift — the
/// stub `gen_range` reduces through a u128 modulo, which is the single
/// hottest instruction at a million-plus draws per build.
#[inline]
fn pick(rng: &mut impl RngCore, n: usize) -> usize {
    (((rng.next_u64() as u128) * (n as u128)) >> 64) as usize
}

/// A birth date from one draw: year uniform in `base..base+span`,
/// month/day from independent bit lanes of the same word.
#[inline]
fn birth_date(rng: &mut impl RngCore, base: i32, span: u32) -> Date {
    let v = rng.next_u64();
    Date::ymd(
        base + (v as u32 % span) as i32,
        1 + ((v >> 32) as u32 % 12) as u8,
        1 + ((v >> 40) as u32 % 28) as u8,
    )
}

/// A profile from the pre-interned pools: no allocation besides the
/// (empty) networks/education vecs, and the scalar fields all come from
/// bit lanes of a single draw.
fn fast_profile(rng: &mut impl Rng, pools: &NameSymPools) -> ProfileContent {
    let v = rng.next_u64();
    let gender = if v & 1 == 0 { Gender::Female } else { Gender::Male };
    ProfileContent {
        first_name: pools.first(rng, gender),
        last_name: pools.last(rng),
        gender,
        has_profile_photo: !(v >> 1).is_multiple_of(10),
        networks: Vec::new(),
        education: Vec::new(),
        hometown: None,
        current_city: None,
        relationship: None,
        interested_in: None,
        photos_shared: ((v >> 8) % 40) as u32,
        wall_posts: ((v >> 16) % 60) as u32,
        contact: ContactInfo::default(),
    }
}

/// Privacy tier by a single draw. `open_pool` selects the adult-like
/// mix (registered adults are what the search portal returns).
fn fast_privacy(rng: &mut impl Rng, open_pool: bool) -> PrivacySettings {
    let r = (rng.next_u64() % 100) as u32;
    if open_pool {
        match r {
            0..=29 => PrivacySettings::maximum_sharing(),
            30..=84 => PrivacySettings::facebook_adult_default(),
            _ => PrivacySettings::locked_down(),
        }
    } else {
        match r {
            0..=14 => PrivacySettings::facebook_adult_default(),
            15..=79 => PrivacySettings::facebook_minor_default(),
            _ => PrivacySettings::locked_down(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_metro_builds_with_expected_shape() {
        let cfg = MetroConfig::tiny();
        let world = metro_sharded(&cfg, 2);
        let net = &world.network;
        assert_eq!(net.user_count(), cfg.total_users());
        assert_eq!(world.schools.len(), 4);
        assert!(net.is_sealed());
        assert!(net.friend_graph().is_sealed());
        // Every school has a full roster with four classes.
        for &s in &world.schools {
            let roster = net.roster(s);
            assert_eq!(roster.len(), cfg.students_per_school as usize);
            let years: std::collections::HashSet<i32> =
                roster.iter().filter_map(|&u| net.student_grad_year(u)).collect();
            assert_eq!(years, (2012..=2015).collect());
            // Lister index covers at least the listing students + alumni.
            let listers = net.school_listers(s).expect("sealed");
            assert!(listers.len() > cfg.students_per_school as usize / 2);
        }
        // The graph is genuinely city-wide: pool edges exist.
        assert!(net.friend_graph().edge_count() > cfg.total_users());
    }

    /// The full city is metro scale without building it.
    #[test]
    fn city_has_at_least_a_million_users() {
        let users = MetroConfig::city().total_users();
        assert!(users >= 1_000_000, "the city must have >=1M users, got {users}");
    }

    #[test]
    fn fingerprint_is_thread_invariant() {
        let cfg = MetroConfig {
            schools: 3,
            students_per_school: 48,
            alumni_per_school: 24,
            parents_per_school: 12,
            pool_users: 600,
            ..MetroConfig::tiny()
        };
        let f1 = metro_sharded(&cfg, 1).network.fingerprint();
        let f2 = metro_sharded(&cfg, 2).network.fingerprint();
        let f5 = metro_sharded(&cfg, 5).network.fingerprint();
        assert_eq!(f1, f2);
        assert_eq!(f1, f5);
    }

    #[test]
    fn parent_edges_agree_with_ground_truth() {
        let world = metro_sharded(&MetroConfig::tiny(), 2);
        let net = &world.network;
        let mut checked = 0;
        for u in net.users() {
            if let Role::Parent { children } = &u.role {
                for &c in children {
                    assert!(net.are_friends(u.id, c), "parent {:?} not friends with child", u.id);
                    assert!(matches!(net.user(c).role, Role::CurrentStudent { .. }));
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn seeds_differ_between_schools() {
        let world = metro_sharded(&MetroConfig::tiny(), 2);
        let a = world.network.roster(world.schools[0]);
        let b = world.network.roster(world.schools[1]);
        assert!(a.iter().all(|u| !b.contains(u)));
    }
}
