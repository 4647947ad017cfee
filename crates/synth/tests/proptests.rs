//! Property tests for the population generator: structural invariants
//! that must hold for every generated world, across random small
//! configurations.

use hsp_graph::{
    Date, EducationEntry, Gender, Network, PrivacySettings, ProfileContent, Registration, Role,
    SchoolId, User, UserId,
};
use hsp_synth::{generate, generate_sharded, ScenarioConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = ScenarioConfig> {
    (any::<u64>(), 40u32..120, 0.5f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0u32..30).prop_map(
        |(seed, size, adoption, p_lie, p_adult, formers)| {
            let mut cfg = ScenarioConfig::tiny();
            cfg.seed = seed;
            cfg.school_size = size;
            cfg.public_enrollment_estimate = size;
            cfg.adoption_rate = adoption;
            cfg.lying.p_lie_when_underage = p_lie;
            cfg.lying.p_lie_to_adult = p_adult;
            cfg.former_students = formers;
            cfg.community_pool_size = 300;
            cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated worlds satisfy the ground-truth structural invariants
    /// the attack and its evaluation rely on.
    #[test]
    fn generated_world_invariants(cfg in arb_config()) {
        let s = generate(&cfg);
        let net = &s.network;
        let today = net.today;
        let roster = s.roster();

        // Roster size tracks adoption (generously bounded: binomial tails).
        let expected = cfg.school_size as f64 * cfg.adoption_rate;
        prop_assert!(
            (roster.len() as f64) < expected + 30.0 && (roster.len() as f64) > expected - 30.0,
            "roster {} vs expected {expected}", roster.len()
        );

        for u in net.users() {
            // Nobody registered in the future; nobody registered before
            // the OSN existed.
            prop_assert!(u.registration.registration_date <= today);
            prop_assert!(u.registration.registration_date.year() >= 2006);
            // Lying only ever inflates age (registered older than true).
            prop_assert!(
                u.registration.registered_birth_date <= u.true_birth_date,
                "registered younger than true for {}", u.id
            );
            // Students' true ages are 13..19 and consistent with class.
            if let Role::CurrentStudent { grad_year, .. } = u.role {
                let age = u.true_age(today);
                prop_assert!((13..=19).contains(&age), "student age {age}");
                prop_assert!((grad_year - 19..=grad_year - 17).contains(&(u.true_birth_date.year())));
                // Every student has a household in the home city.
                let hh = net.households().of(u.id).expect("student household");
                prop_assert_eq!(hh.city, s.home_city);
            }
            // Alumni truly graduated (class year before current seniors).
            if let Role::Alumnus { grad_year, .. } = u.role {
                prop_assert!(grad_year < net.senior_class_year());
            }
        }

        // Friendship symmetry (sampled).
        for &u in roster.iter().take(20) {
            for &v in net.friends(u) {
                prop_assert!(net.are_friends(v, u));
            }
        }

        // The lying-minor count is bounded by the lying parameters: zero
        // lying probability ⇒ (almost) no lying minors.
        if cfg.lying.p_lie_when_underage == 0.0 {
            prop_assert_eq!(s.lying_minor_students().len(), 0);
        }
    }

    /// Sharded generation is thread-count invariant: building the world
    /// on one thread or many yields byte-identical networks, for any
    /// config. (Each fixed-size chunk owns an independent RNG stream
    /// keyed by chunk index, so the schedule can't leak into the draws.)
    #[test]
    fn sharding_is_thread_invariant((cfg, threads) in (arb_config(), 2usize..9)) {
        let one = generate_sharded(&cfg, 1);
        let many = generate_sharded(&cfg, threads);
        prop_assert_eq!(one.network.fingerprint(), many.network.fingerprint());
    }

    /// Same config ⇒ bit-identical world (the determinism contract the
    /// experiment tables depend on).
    #[test]
    fn generation_is_deterministic(cfg in arb_config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.network.user_count(), b.network.user_count());
        prop_assert_eq!(a.roster(), b.roster());
        for u in a.network.user_ids().take(50) {
            prop_assert_eq!(a.network.friends(u), b.network.friends(u));
            prop_assert_eq!(
                &a.network.user(u).profile.full_name(),
                &b.network.user(u).profile.full_name()
            );
            prop_assert_eq!(
                a.network.user(u).registration.registered_birth_date,
                b.network.user(u).registration.registered_birth_date
            );
        }
    }
}

/// One live-world-style edit, from raw draws: `(kind, x, y)`.
type Edit = (u8, u64, u64);

/// Apply `edits` through the methods that keep a sealed network sealed:
/// sign up a user (listing school 0 when `y` is odd), add a friendship,
/// remove the `y`-th friend of a user, flip a user's privacy, or move a
/// user's role between current student and alumnus.
fn apply_edits(net: &mut Network, edits: &[Edit]) {
    for &(kind, x, y) in edits {
        let n = net.user_count() as u64;
        let u = UserId::from_index((x % n) as usize);
        match kind {
            0 => {
                let mut profile = ProfileContent::bare("New", format!("User{x}"), Gender::Female);
                if y % 2 == 1 {
                    profile.education.push(EducationEntry::high_school(SchoolId(0), 2013));
                }
                let born = Date::ymd(1990, 1, 1);
                net.add_user(User {
                    id: UserId(0),
                    true_birth_date: born,
                    registration: Registration {
                        registered_birth_date: born,
                        registration_date: net.today,
                    },
                    profile,
                    privacy: PrivacySettings::facebook_adult_default(),
                    role: Role::OtherResident,
                });
            }
            1 => {
                net.add_friendship(u, UserId::from_index((y % n) as usize));
            }
            2 => {
                let friends = net.friends(u);
                if !friends.is_empty() {
                    let v = friends[(y % friends.len() as u64) as usize];
                    net.remove_friendship(u, v);
                }
            }
            3 => net.update_user(u, |user| {
                user.privacy = if y % 2 == 0 {
                    PrivacySettings::locked_down()
                } else {
                    PrivacySettings::maximum_sharing()
                };
            }),
            _ => net.update_user(u, |user| {
                user.role = match user.role {
                    Role::CurrentStudent { school, grad_year } => {
                        Role::Alumnus { school, grad_year }
                    }
                    _ => Role::CurrentStudent {
                        school: SchoolId(0),
                        grad_year: 2012 + (y % 4) as i32,
                    },
                };
            }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sealed CSR view is an exact image of the builder adjacency.
    /// Serde round-trip always lands in builder (Vec-of-Vec) form — the
    /// seal index never serializes — so a generated (sealed) world and
    /// its round-tripped copy are the two representations of the same
    /// network: fingerprints must match, every friends list must come
    /// back in the same order, and re-sealing must change nothing
    /// observable. The same holds after an arbitrary edit sequence, which
    /// the sealed copy absorbs into its patches without unsealing, while
    /// a clone taken before the edits keeps its own world.
    #[test]
    fn builder_and_sealed_views_agree(
        (cfg, edits) in (arb_config(), prop::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 0..40))
    ) {
        use serde::{Deserialize, Serialize};

        let mut sealed = generate(&cfg).network;
        prop_assert!(sealed.is_sealed());

        let mut builder =
            hsp_graph::Network::from_json_value(&sealed.to_json_value()).expect("round-trip");
        prop_assert!(!builder.is_sealed());

        // Fingerprint is representation-independent.
        prop_assert_eq!(builder.fingerprint(), sealed.fingerprint());

        // Friends ordering survives the CSR migration bit-for-bit.
        for u in sealed.user_ids() {
            prop_assert_eq!(builder.friends(u), sealed.friends(u));
        }

        // Both layouts answer alike after the same edits.
        let before = sealed.clone();
        let before_fingerprint = sealed.fingerprint();
        apply_edits(&mut sealed, &edits);
        apply_edits(&mut builder, &edits);
        prop_assert!(sealed.is_sealed(), "edits must keep the seal");
        prop_assert_eq!(before.fingerprint(), before_fingerprint, "a clone saw the edits");
        prop_assert_eq!(builder.fingerprint(), sealed.fingerprint());
        for u in sealed.user_ids() {
            prop_assert_eq!(builder.friends(u), sealed.friends(u));
            prop_assert_eq!(builder.student_grad_year(u), sealed.student_grad_year(u));
        }
        let senior = sealed.senior_class_year();
        for school in sealed.schools().iter().map(|s| s.id) {
            prop_assert_eq!(builder.roster(school), sealed.roster(school));
            for year in senior - 8..=senior + 4 {
                prop_assert_eq!(
                    builder.roster_for_class(school, year),
                    sealed.roster_for_class(school, year)
                );
                prop_assert_eq!(
                    builder.alumni_of_class(school, year),
                    sealed.alumni_of_class(school, year)
                );
            }
        }
        // The patched seal index equals one built from scratch.
        let mut fresh = builder.clone();
        fresh.seal();
        prop_assert_eq!(sealed.sealed_columns(), fresh.sealed_columns());
        for school in sealed.schools().iter().map(|s| s.id) {
            prop_assert_eq!(sealed.school_listers(school), fresh.school_listers(school));
        }

        // Re-sealing the builder copy is observationally a no-op.
        builder.seal();
        prop_assert_eq!(builder.fingerprint(), sealed.fingerprint());
        for u in sealed.user_ids() {
            prop_assert_eq!(builder.friends(u), sealed.friends(u));
        }

        // A second round-trip — now from a freshly sealed network — is
        // byte-stable too.
        let again =
            hsp_graph::Network::from_json_value(&builder.to_json_value()).expect("round-trip 2");
        prop_assert_eq!(again.fingerprint(), sealed.fingerprint());
    }
}
