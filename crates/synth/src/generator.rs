//! Builds a complete synthetic world from a [`ScenarioConfig`].
//!
//! Population groups (see DESIGN.md §2 "hsp-synth"):
//!
//! - **Current students** of the target school, split over four classes,
//!   with the age-lying model deciding their registered birth dates and
//!   Table 5-calibrated openness for those registered as adults.
//! - **Former students** (churn): transferred out but often still
//!   listing the school with a current/future grad year — the paper's
//!   main false-positive source.
//! - **Alumni** of recent cohorts: adults who publicly list the school;
//!   they dominate the search portal's results, exactly as in §3.1.
//! - **Parents** friended to their children.
//! - A **community pool** of unrelated adults providing the bulk of the
//!   students' non-school friends (and hence of the candidate set).
//!
//! # Sharded generation
//!
//! Generation is split into *phases* (students, former, alumni, …,
//! circles), and each phase into fixed-size chunks of [`CHUNK`] items.
//! Every chunk draws from its own `SplitMix64`-derived RNG stream keyed
//! by `(scenario seed, phase id, chunk index)`, so the random draws a
//! chunk makes never depend on which thread ran it or on how many
//! threads exist. Chunks are *specced* in parallel and *committed*
//! strictly in chunk order on the calling thread — user ids, household
//! ids and every downstream structure come out identical at any thread
//! count ([`generate_sharded`] with 1 thread ≡ with N threads, bit for
//! bit).

use crate::config::ScenarioConfig;
use crate::lying::{add_years, geometric_with_mean, normal, sample_registration};
use crate::names::{sample_address, sample_first_name, sample_gender, sample_last_name};
use crate::privacy_assign::{sample_account_calibrated, ProfileExtras};
use crate::scenario::Scenario;
use hsp_graph::{
    Date, EducationEntry, Network, ProfileContent, Registration, Role, School, SchoolId,
    SchoolKind, User, UserId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Items per RNG stream. Fixed (never derived from the thread count) so
/// the chunk boundaries — and therefore every draw — are identical no
/// matter how many threads run the build.
pub const CHUNK: usize = 64;

/// Phase ids salting the per-chunk RNG streams. Two phases may process
/// the same item range; distinct ids keep their streams uncorrelated.
mod phase {
    pub const STUDENTS: u64 = 1;
    pub const FORMER: u64 = 2;
    pub const ALUMNI: u64 = 3;
    pub const PARENTS: u64 = 4;
    pub const POOL: u64 = 5;
    pub const SOCIABILITY: u64 = 6;
    pub const EDGES_CLASSMATES: u64 = 7;
    pub const EDGES_COMMUNITY: u64 = 8;
    pub const EDGES_FORMER: u64 = 9;
    pub const EDGES_ALUMNI: u64 = 10;
    pub const INTERACTIONS: u64 = 11;
    pub const CIRCLES_KEEP: u64 = 12;
    pub const CIRCLES_FOLLOW: u64 = 13;
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The independent RNG stream for one chunk of one phase.
pub(crate) fn stream_rng(seed: u64, phase: u64, chunk: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        seed ^ splitmix64(phase.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ splitmix64(chunk)),
    ))
}

/// Run `f(chunk_index)` for every chunk, on up to `threads` worker
/// threads, and return the results in chunk order. Work is handed out
/// by an atomic cursor (chunks are cheap and uniform enough that
/// claiming whole chunks is all the balancing needed); the output slot
/// per chunk keeps the collection order deterministic regardless of
/// completion order.
pub(crate) fn run_chunks<T: Send>(
    threads: usize,
    n_chunks: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if threads <= 1 || n_chunks <= 1 {
        return (0..n_chunks).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_chunks) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                *slots[c].lock().unwrap() = Some(f(c));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("chunk computed")).collect()
}

/// Spec one phase: run `per_item(rng, item_index)` for items
/// `0..n_items` in [`CHUNK`]-sized chunks, each chunk on its own RNG
/// stream, and return the per-item outputs in item order.
pub(crate) fn sharded<T: Send>(
    seed: u64,
    phase: u64,
    threads: usize,
    n_items: usize,
    per_item: impl Fn(&mut StdRng, usize) -> T + Sync,
) -> Vec<T> {
    sharded_chunks(seed, phase, threads, n_items, per_item).into_iter().flatten().collect()
}

/// [`sharded`] without the final flatten: the per-chunk vectors are
/// returned as produced (still in item order). Metro-scale callers
/// consume them through a lazy `flatten()` iterator, which skips one
/// full copy of every generated item — at a million ~300-byte users
/// that copy is a measurable slice of the build.
pub(crate) fn sharded_chunks<T: Send>(
    seed: u64,
    phase: u64,
    threads: usize,
    n_items: usize,
    per_item: impl Fn(&mut StdRng, usize) -> T + Sync,
) -> Vec<Vec<T>> {
    let n_chunks = n_items.div_ceil(CHUNK);
    run_chunks(threads, n_chunks, |c| {
        let mut rng = stream_rng(seed, phase, c as u64);
        let lo = c * CHUNK;
        let hi = (lo + CHUNK).min(n_items);
        (lo..hi).map(|i| per_item(&mut rng, i)).collect::<Vec<T>>()
    })
}

/// Generate the world for one scenario, parallelising the per-phase
/// spec work over the machine's cores. Output depends only on `cfg`.
pub fn generate(cfg: &ScenarioConfig) -> Scenario {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    generate_sharded(cfg, threads)
}

/// Generate the world for one scenario using exactly `threads` spec
/// threads. The network is bit-identical for every `threads` value —
/// the chunk streams, not the thread schedule, carry all the
/// randomness.
pub fn generate_sharded(cfg: &ScenarioConfig, threads: usize) -> Scenario {
    generate_with(cfg, threads, |_| {})
}

/// [`generate_sharded`], handing `circle_pairs` the circle pairs `(a, b)`
/// ("`a` has `b` in her circles") in draw order before they are built
/// into the circles' tables.
fn generate_with(
    cfg: &ScenarioConfig,
    threads: usize,
    circle_pairs: impl FnOnce(&mut dyn Iterator<Item = (UserId, UserId)>),
) -> Scenario {
    let threads = threads.max(1);
    let seed = cfg.seed;
    let mut net = Network::with_capacity(cfg.today, cfg.expected_users());

    // ---- geography & schools ----------------------------------------
    let home_city = net.add_city(format!("{} City", cfg.name), "NY");
    let other_city = net.add_city("Farvale", "PA");
    let third_city = net.add_city("Westbrook", "OH");
    let school = net.add_school(School {
        id: SchoolId(0),
        name: format!("{} High School", cfg.name).into(),
        city: home_city,
        kind: SchoolKind::HighSchool,
        public_enrollment_estimate: cfg.public_enrollment_estimate,
    });
    let other_school = net.add_school(School {
        id: SchoolId(0),
        name: "Farvale High School".into(),
        city: other_city,
        kind: SchoolKind::HighSchool,
        public_enrollment_estimate: 900,
    });
    let college = net.add_school(School {
        id: SchoolId(0),
        name: "State College".into(),
        city: third_city,
        kind: SchoolKind::College,
        public_enrollment_estimate: 20_000,
    });
    let grad_school = net.add_school(School {
        id: SchoolId(0),
        name: "State Graduate School".into(),
        city: third_city,
        kind: SchoolKind::GraduateSchool,
        public_enrollment_estimate: 4_000,
    });

    let classes = cfg.enrolled_classes();
    let grade_size = cfg.school_size / 4;

    // ---- current students --------------------------------------------
    // One slot per real child of the school; the adoption coin inside
    // the slot decides whether they exist on the OSN.
    let mut slots: Vec<(usize, i32)> = Vec::with_capacity(cfg.school_size as usize);
    for (ci, &grad_year) in classes.iter().enumerate() {
        let extra = if ci == 0 { cfg.school_size % 4 } else { 0 };
        for _ in 0..(grade_size + extra) {
            slots.push((ci, grad_year));
        }
    }
    let student_specs = sharded(seed, phase::STUDENTS, threads, slots.len(), |rng, i| {
        let (ci, grad_year) = slots[i];
        if !rng.gen_bool(cfg.adoption_rate) {
            return None; // exists in the real school, but not on the OSN
        }
        let true_birth = student_birth_date(rng, grad_year);
        let registration = sample_registration(rng, &cfg.lying, true_birth, cfg.today);
        let registered_adult = !registration.is_registered_minor(cfg.today);
        let openness = if registered_adult {
            &cfg.lying_student_openness
        } else {
            &cfg.truthful_student_openness
        };
        let (privacy, extras) = sample_account_calibrated(rng, openness);
        let mut profile = base_profile(rng, &extras);
        if extras.lists_school {
            profile.education.push(EducationEntry::high_school(school, grad_year));
        }
        if extras.lists_city {
            profile.current_city = Some(home_city);
        }
        if extras.lists_hometown {
            profile.hometown = Some(home_city);
        }
        if rng.gen_bool(0.06) {
            profile.networks.push(school);
        }
        let address = sample_address(rng);
        let user = User {
            id: UserId(0),
            true_birth_date: true_birth,
            registration,
            profile,
            privacy,
            role: Role::CurrentStudent { school, grad_year },
        };
        Some((user, address, ci))
    });
    let mut students: Vec<UserId> = Vec::new();
    let mut by_class: [Vec<UserId>; 4] = Default::default();
    for (user, address, ci) in student_specs.into_iter().flatten() {
        let id = net.add_user(user);
        net.households_mut().add(address, home_city, vec![id]);
        students.push(id);
        by_class[ci].push(id);
    }

    // ---- former students (churn) --------------------------------------
    let former_specs =
        sharded(seed, phase::FORMER, threads, cfg.former_students as usize, |rng, _| {
            let ci = rng.gen_range(0..4usize);
            let grad_year = classes[ci];
            let true_birth = student_birth_date(rng, grad_year);
            let registration = sample_registration(rng, &cfg.lying, true_birth, cfg.today);
            let registered_adult = !registration.is_registered_minor(cfg.today);
            let openness = if registered_adult {
                &cfg.lying_student_openness
            } else {
                &cfg.truthful_student_openness
            };
            let (privacy, extras) = sample_account_calibrated(rng, openness);
            let mut profile = base_profile(rng, &extras);
            // The stale-profile trap: some transfers still list the target
            // school with their (future) grad year and never update it.
            if rng.gen_bool(0.18) {
                profile.education.push(EducationEntry::high_school(school, grad_year));
            }
            let moved_away = rng.gen_bool(0.6);
            if rng.gen_bool(0.35) {
                // Updated profile: lists the new school (filter rule fodder).
                profile.education.push(EducationEntry::high_school(other_school, grad_year));
            }
            if extras.lists_city {
                profile.current_city = Some(if moved_away { other_city } else { home_city });
            }
            let user = User {
                id: UserId(0),
                true_birth_date: true_birth,
                registration,
                profile,
                privacy,
                role: Role::FormerStudent { school, grad_year },
            };
            (user, grad_year)
        });
    let mut former: Vec<(UserId, i32)> = Vec::new();
    for (user, grad_year) in former_specs {
        let id = net.add_user(user);
        former.push((id, grad_year));
    }

    // ---- alumni cohorts ------------------------------------------------
    let senior_year = classes[3];
    let mut alumni_slots: Vec<(i32, i32)> = Vec::new(); // (grad_year, years back)
    for back in 1..=cfg.alumni_cohorts as i32 {
        let cohort_n = (grade_size as f64 * cfg.alumni_visibility) as u32;
        for _ in 0..cohort_n {
            alumni_slots.push((senior_year - back, back));
        }
    }
    let alumni_specs = sharded(seed, phase::ALUMNI, threads, alumni_slots.len(), |rng, i| {
        let (grad_year, back) = alumni_slots[i];
        let true_birth = student_birth_date(rng, grad_year);
        // Alumni are adults; assume truthful (or by now irrelevant)
        // registration.
        let join = add_years(true_birth, 14 + rng.gen_range(0..4)).max(Date::ymd(2006, 9, 26)); // the OSN's public opening
        let registration = Registration {
            registered_birth_date: true_birth,
            registration_date: join.min(cfg.today),
        };
        let (privacy, extras) = sample_account_calibrated(rng, &cfg.adult_openness);
        let mut profile = base_profile(rng, &extras);
        profile.education.push(EducationEntry::high_school(school, grad_year));
        if rng.gen_bool(0.5) {
            profile.education.push(EducationEntry::college(college, Some(grad_year + 4)));
        }
        if back >= 4 && rng.gen_bool(0.15) {
            profile.education.push(EducationEntry::graduate_school(grad_school));
        }
        if extras.lists_city {
            let city = if rng.gen_bool(0.5) { home_city } else { third_city };
            profile.current_city = Some(city);
        }
        let user = User {
            id: UserId(0),
            true_birth_date: true_birth,
            registration,
            profile,
            privacy,
            role: Role::Alumnus { school, grad_year },
        };
        (user, grad_year)
    });
    let mut alumni: Vec<(UserId, i32)> = Vec::new();
    for (user, grad_year) in alumni_specs {
        let id = net.add_user(user);
        alumni.push((id, grad_year));
    }

    // ---- parents ---------------------------------------------------------
    let parent_specs = sharded(seed, phase::PARENTS, threads, students.len(), |rng, i| {
        let s = students[i];
        if !rng.gen_bool(cfg.parent_prob) {
            return None;
        }
        let child = net.user(s);
        let child_last = child.profile.last_name;
        let child_birth_year = child.true_birth_date.year();
        let gender = sample_gender(rng);
        let (privacy, extras) = sample_account_calibrated(rng, &cfg.adult_openness);
        let mut profile = base_profile(rng, &extras);
        profile.last_name = child_last;
        profile.first_name = sample_first_name(rng, gender).into();
        profile.gender = gender;
        profile.current_city = Some(home_city);
        let birth = Date::ymd(
            child_birth_year - rng.gen_range(24..38),
            rng.gen_range(1..=12),
            rng.gen_range(1..=28),
        );
        let user = User {
            id: UserId(0),
            true_birth_date: birth,
            registration: Registration {
                registered_birth_date: birth,
                registration_date: Date::ymd(2008, 1, 1).add_days(rng.gen_range(0..1200)),
            },
            profile,
            privacy,
            role: Role::Parent { children: vec![s] },
        };
        Some((user, s))
    });
    let mut parent_edges: Vec<(UserId, UserId)> = Vec::new();
    for (user, s) in parent_specs.into_iter().flatten() {
        let id = net.add_user(user);
        if let Some(h) = net.households().of(s).map(|h| h.id) {
            net.households_mut().join(h, id);
        }
        parent_edges.push((id, s));
    }

    // ---- community pool ---------------------------------------------------
    let pool_specs =
        sharded(seed, phase::POOL, threads, cfg.community_pool_size as usize, |rng, _| {
            let (privacy, extras) = sample_account_calibrated(rng, &cfg.adult_openness);
            let mut profile = base_profile(rng, &extras);
            let local = rng.gen_bool(0.55);
            if extras.lists_city {
                profile.current_city = Some(if local {
                    home_city
                } else if rng.gen_bool(0.5) {
                    other_city
                } else {
                    third_city
                });
            }
            let birth = Date::ymd(
                cfg.today.year() - rng.gen_range(14..55),
                rng.gen_range(1..=12),
                rng.gen_range(1..=28),
            );
            // Adults without a listed city still live somewhere: their
            // household defaults to the target city.
            let household = rng
                .gen_bool(0.85)
                .then(|| (sample_address(rng), profile.current_city.unwrap_or(home_city)));
            let user = User {
                id: UserId(0),
                true_birth_date: birth,
                registration: Registration {
                    registered_birth_date: birth,
                    registration_date: Date::ymd(2007, 6, 1).add_days(rng.gen_range(0..1500)),
                },
                profile,
                privacy,
                role: if local { Role::OtherResident } else { Role::NonResident },
            };
            (user, household)
        });
    let mut pool: Vec<UserId> = Vec::with_capacity(cfg.community_pool_size as usize);
    for (user, household) in pool_specs {
        let id = net.add_user(user);
        if let Some((address, city)) = household {
            net.households_mut().add(address, city, vec![id]);
        }
        pool.push(id);
    }

    // ---- friendships -------------------------------------------------------

    // Per-student sociability: real students range from social hubs to
    // near-loners, which is what makes the paper's coverage keep
    // climbing between t = 300 and t = 500 (weakly-connected students
    // accumulate core links slowly and rank below some false positives).
    // Openness correlates with sociability: the lying/open students who
    // become the attacker's core users are also the best-connected ones
    // (which is why 18 cores suffice to cover most of HS1 in the paper).
    let soc_values = sharded(seed, phase::SOCIABILITY, threads, students.len(), |rng, i| {
        let open = net.user(students[i]).privacy.friend_list.visible_to_stranger();
        let mu = if open { 0.45 } else { 0.0 };
        (normal(rng, mu, 0.5)).exp().clamp(0.15, 3.0)
    });
    // Students are the first users committed, so their ids are dense
    // from zero and the table is index-addressed by `UserId::index` —
    // no hashing inside the hottest edge-generation loops.
    debug_assert!(students.iter().enumerate().all(|(k, s)| s.index() == k));
    let sociability: Vec<f64> = soc_values;

    // Student <-> student, Chung-Lu-style: edge probability scales with
    // both endpoints' sociability, with a base rate by grade distance.
    // One work item per row: a student of the pair's first class,
    // deciding coins against every partner in the second.
    let f = &cfg.friendship;
    let mut bases = [[0.0f64; 4]; 4];
    let mut ss_rows: Vec<(usize, usize, usize)> = Vec::new();
    for (ci, row) in bases.iter_mut().enumerate() {
        for (cj, slot) in row.iter_mut().enumerate().skip(ci) {
            let base = if ci == cj {
                f.within_grade_p
            } else {
                f.cross_grade_p / (1 << (cj - ci - 1)) as f64
            };
            *slot = base;
            if base <= 0.0 {
                continue;
            }
            for i in 0..by_class[ci].len() {
                ss_rows.push((ci, cj, i));
            }
        }
    }
    let ss_edges = sharded(seed, phase::EDGES_CLASSMATES, threads, ss_rows.len(), |rng, r| {
        let (ci, cj, i) = ss_rows[r];
        let u = by_class[ci][i];
        let fu = sociability[u.index()];
        let base = bases[ci][cj];
        let j0 = if ci == cj { i + 1 } else { 0 };
        let mut out: Vec<(UserId, UserId)> = Vec::new();
        for &v in &by_class[cj][j0..] {
            let p = (base * fu * sociability[v.index()]).min(0.97);
            if rng.gen_bool(p) {
                out.push((u, v));
            }
        }
        out
    });

    // Student <-> community pool: the paper's Table 5 shows open
    // (public-friend-list) users have substantially more friends; the
    // sociability factor carries over to off-school friendships too.
    let sp_edges = sharded(seed, phase::EDGES_COMMUNITY, threads, students.len(), |rng, i| {
        let s = students[i];
        let open = net.user(s).privacy.friend_list.visible_to_stranger();
        let boost = if open { f.open_degree_boost } else { 1.0 };
        let mean = f.nonschool_friends_mean * boost * sociability[s.index()].sqrt();
        let k = normal(rng, mean, mean * 0.25).max(0.0) as usize;
        (0..k).map(|_| (s, pool[rng.gen_range(0..pool.len())])).collect::<Vec<_>>()
    });

    // Former students keep some in-school ties, mostly in their class.
    let former_edges = sharded(seed, phase::EDGES_FORMER, threads, former.len(), |rng, i| {
        let (fs, grad_year) = former[i];
        let ci = classes.iter().position(|&c| c == grad_year).unwrap_or(3);
        let k =
            normal(rng, f.former_to_student_mean, f.former_to_student_mean * 0.3).max(0.0) as usize;
        let mut out: Vec<(UserId, UserId)> = Vec::new();
        for _ in 0..k {
            let same_class = rng.gen_bool(0.8);
            let class =
                if same_class { &by_class[ci] } else { &by_class[rng.gen_range(0..4usize)] };
            if class.is_empty() {
                continue;
            }
            out.push((fs, class[rng.gen_range(0..class.len())]));
        }
        // ...and some community friends.
        for _ in 0..geometric_with_mean(rng, f.nonschool_friends_mean * 0.5) as usize {
            out.push((fs, pool[rng.gen_range(0..pool.len())]));
        }
        out
    });

    // Alumni <-> current students, decaying with years-since-overlap.
    let alumni_edges = sharded(seed, phase::EDGES_ALUMNI, threads, alumni.len(), |rng, i| {
        let (a, grad_year) = alumni[i];
        let mut out: Vec<(UserId, UserId)> = Vec::new();
        for (ci, &class_year) in classes.iter().enumerate() {
            let overlap = (grad_year - class_year + 4).max(0) as f64 / 3.0;
            let mean = if overlap > 0.0 {
                f.alumni_to_student_mean * overlap
            } else {
                // Small residual: siblings, neighbourhood.
                f.alumni_to_student_mean * f.alumni_decay * 0.1
            };
            let k = geometric_with_mean(rng, mean) as usize;
            let class = &by_class[ci];
            if class.is_empty() {
                continue;
            }
            for _ in 0..k {
                out.push((a, class[rng.gen_range(0..class.len())]));
            }
        }
        // Alumni also have plenty of non-school friends.
        for _ in 0..geometric_with_mean(rng, f.nonschool_friends_mean * 0.7) as usize {
            out.push((a, pool[rng.gen_range(0..pool.len())]));
        }
        out
    });

    // Commit order across edge groups is irrelevant: bulk insertion
    // sorts and dedups every adjacency list it touches.
    let mut edges = parent_edges;
    edges.extend(ss_edges.into_iter().flatten());
    edges.extend(sp_edges.into_iter().flatten());
    edges.extend(former_edges.into_iter().flatten());
    edges.extend(alumni_edges.into_iter().flatten());
    net.add_friendships_bulk(edges);

    // ---- interactions (wall posts between friends) -----------------------
    // Classmates interact far more than incidental contacts; the wall a
    // stranger can sometimes see is the attacker's window onto this.
    let all_users: Vec<UserId> = net.user_ids().collect();
    {
        let student_set: HashSet<UserId> = students.iter().copied().collect();
        let pair_rows = sharded(seed, phase::INTERACTIONS, threads, all_users.len(), |rng, i| {
            let u = all_users[i];
            let mut out: Vec<(UserId, UserId, u32)> = Vec::new();
            for &v in net.friends(u) {
                if v <= u {
                    continue; // one direction per pair
                }
                let both_students = student_set.contains(&u) && student_set.contains(&v);
                let mean = if both_students { 5.0 } else { 0.5 };
                let n = geometric_with_mean(rng, mean);
                if n > 0 {
                    out.push((u, v, n));
                }
            }
            out
        });
        net.interactions_mut().bulk_insert(pair_rows.into_iter().flatten());
    }

    // ---- Google+-style circles (paper Appendix A) -----------------------
    // Start from reciprocal circling of every friendship, drop a fraction
    // of the reciprocal directions (not everyone circles back), and add
    // one-way follows from students to older users they know of.
    {
        // Each row holds only whom its user circles (row `i` is
        // `all_users[i]`'s, or `students[i]`'s follows), at its final
        // size: the rows are alive while the tables are built.
        let keep_rows = sharded(seed, phase::CIRCLES_KEEP, threads, all_users.len(), |rng, i| {
            let friends = net.friends(all_users[i]);
            let mut kept = Vec::with_capacity(friends.len());
            // Keep the u->v direction with high probability.
            kept.extend(friends.iter().copied().filter(|_| rng.gen_bool(0.92)));
            kept
        });
        let follow_rows =
            sharded(seed, phase::CIRCLES_FOLLOW, threads, students.len(), |rng, _| {
                let follows = geometric_with_mean(rng, 6.0) as usize;
                let mut out: Vec<UserId> = Vec::with_capacity(follows);
                for _ in 0..follows {
                    let target = if rng.gen_bool(0.5) && !alumni.is_empty() {
                        alumni[rng.gen_range(0..alumni.len())].0
                    } else {
                        pool[rng.gen_range(0..pool.len())]
                    };
                    out.push(target);
                }
                out
            });
        let pairs = owned_pairs(&keep_rows, &all_users).chain(owned_pairs(&follow_rows, &students));
        circle_pairs(&mut pairs.clone());
        net.set_circles(hsp_graph::Circles::from_pairs(net.user_count(), pairs));
    }

    // Freeze for attack-time reads: CSR adjacency, SoA columns and
    // school-lister indexes. Pure layout change — the fingerprint is
    // pinned identical across sealing by the graph crate's tests.
    net.seal();

    Scenario { config: cfg.clone(), school, other_school, home_city, other_city, network: net }
}

/// `(owners[i], b)` for every `b` in `rows[i]`.
fn owned_pairs<'a>(
    rows: &'a [Vec<UserId>],
    owners: &'a [UserId],
) -> impl Iterator<Item = (UserId, UserId)> + Clone + 'a {
    rows.iter().zip(owners).flat_map(|(row, &a)| row.iter().map(move |&b| (a, b)))
}

/// Birth date for the class of `grad_year`: US cutoff, born between
/// September of `grad_year - 19` and August of `grad_year - 18`.
fn student_birth_date(rng: &mut impl Rng, grad_year: i32) -> Date {
    let offset_months = rng.gen_range(0..12); // 0 = September
    let month0 = 9 + offset_months;
    let (year, month) =
        if month0 <= 12 { (grad_year - 19, month0) } else { (grad_year - 18, month0 - 12) };
    Date::ymd(year, month as u8, rng.gen_range(1..=28))
}

fn base_profile(rng: &mut impl Rng, extras: &ProfileExtras) -> ProfileContent {
    let gender = sample_gender(rng);
    let mut profile =
        ProfileContent::bare(sample_first_name(rng, gender), sample_last_name(rng), gender);
    profile.photos_shared = extras.photos_shared;
    profile.wall_posts = extras.wall_posts;
    profile.relationship = extras.relationship;
    profile.interested_in = extras.interested_in;
    if extras.has_contact_info {
        profile.contact.email = Some(format!(
            "{}.{}@example.net",
            profile.first_name.as_str().to_ascii_lowercase(),
            profile.last_name.as_str().to_ascii_lowercase()
        ));
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;

    #[test]
    fn tiny_scenario_generates_consistently() {
        let cfg = ScenarioConfig::tiny();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.network.user_count(), b.network.user_count());
        assert_eq!(a.roster().len(), b.roster().len());
        // Determinism down to the names.
        let ua = a.network.user(UserId(0));
        let ub = b.network.user(UserId(0));
        assert_eq!(ua.profile.full_name(), ub.profile.full_name());
    }

    #[test]
    fn thread_count_never_changes_the_network() {
        let cfg = ScenarioConfig::tiny();
        let one = generate_sharded(&cfg, 1);
        let many = generate_sharded(&cfg, 8);
        assert_eq!(one.network.fingerprint(), many.network.fingerprint());
        // And `generate` (auto thread count) lands on the same world.
        assert_eq!(generate(&cfg).network.fingerprint(), one.network.fingerprint());
    }

    #[test]
    fn world_fingerprints_are_pinned() {
        assert_eq!(generate(&ScenarioConfig::tiny()).network.fingerprint(), 0xc774_574d_8fa7_415d);
        assert_eq!(generate(&ScenarioConfig::hs1()).network.fingerprint(), 0x2a75_6ba2_0090_2094);
    }

    /// The bulk-built circles equal circles grown pair by pair with the
    /// insert rule they replaced: one sorted list per user and direction,
    /// a pair inserted unless present, self-links ignored, and `b`'s
    /// incoming list gaining `a` only when `a`'s outgoing list gained `b`.
    #[test]
    fn bulk_circles_equal_the_pair_by_pair_insert_rule() {
        fn insert_sorted(list: &mut Vec<UserId>, v: UserId) -> bool {
            match list.binary_search(&v) {
                Ok(_) => false,
                Err(at) => {
                    list.insert(at, v);
                    true
                }
            }
        }
        let (mut out, mut inc) = (Vec::<Vec<UserId>>::new(), Vec::<Vec<UserId>>::new());
        let mut drawn = 0;
        let s = generate_with(&ScenarioConfig::tiny(), 2, |pairs| {
            for (a, b) in pairs {
                drawn += 1;
                if a == b {
                    continue;
                }
                let users = a.index().max(b.index()) + 1;
                if out.len() < users {
                    out.resize(users, Vec::new());
                    inc.resize(users, Vec::new());
                }
                if insert_sorted(&mut out[a.index()], b) {
                    insert_sorted(&mut inc[b.index()], a);
                }
            }
        });
        let net = &s.network;
        let circles = net.circles();
        assert!(drawn > 10_000, "only {drawn} circle pairs drawn");
        let empty = Vec::new();
        for u in net.user_ids() {
            assert_eq!(circles.in_circles_of(u), out.get(u.index()).unwrap_or(&empty), "out {u}");
            assert_eq!(circles.have_in_circles(u), inc.get(u.index()).unwrap_or(&empty), "inc {u}");
        }
    }

    #[test]
    fn roster_size_tracks_adoption() {
        let cfg = ScenarioConfig::tiny();
        let s = generate(&cfg);
        let roster = s.roster();
        let expected = cfg.school_size as f64 * cfg.adoption_rate;
        assert!(
            (roster.len() as f64 - expected).abs() < expected * 0.3,
            "roster {} vs expected {expected}",
            roster.len()
        );
        // Four classes all populated.
        for class in s.config.enrolled_classes() {
            assert!(!s.network.roster_for_class(s.school, class).is_empty());
        }
    }

    #[test]
    fn students_have_school_friends() {
        let s = generate(&ScenarioConfig::tiny());
        let roster = s.roster();
        let with_friends = roster
            .iter()
            .filter(|&&u| s.network.friends(u).iter().any(|f| roster.binary_search(f).is_ok()))
            .count();
        assert!(with_friends as f64 > roster.len() as f64 * 0.9);
    }

    #[test]
    fn some_students_are_minors_registered_as_adults() {
        let s = generate(&ScenarioConfig::tiny());
        let lying = s.lying_minor_students();
        let roster = s.roster();
        let frac = lying.len() as f64 / roster.len() as f64;
        assert!(
            (0.15..0.70).contains(&frac),
            "lying fraction {frac} ({} of {})",
            lying.len(),
            roster.len()
        );
    }

    #[test]
    fn coppaless_world_has_almost_no_lying_minors() {
        let s = generate(&ScenarioConfig::tiny().without_coppa());
        let lying = s.lying_minor_students();
        let roster = s.roster();
        assert!(
            lying.len() as f64 <= roster.len() as f64 * 0.08,
            "{} lying of {}",
            lying.len(),
            roster.len()
        );
    }

    #[test]
    fn alumni_list_past_grad_years() {
        let s = generate(&ScenarioConfig::tiny());
        let senior = s.config.enrolled_classes()[3];
        let mut alumni_seen = 0;
        for u in s.network.users() {
            if let Role::Alumnus { grad_year, .. } = u.role {
                assert!(grad_year < senior);
                alumni_seen += 1;
            }
        }
        assert!(alumni_seen > 0);
    }
}
