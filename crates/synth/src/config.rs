//! Scenario configuration, with defaults calibrated to the paper's
//! published aggregates (Tables 2–5 and the §5/§6 prose).
//!
//! The real study crawled three US high schools in March/June 2012. Each
//! [`ScenarioConfig`] describes the *generative* counterpart: school
//! size, who is on the OSN, how children lied about their age at
//! registration, how open each group's privacy settings are, and how the
//! friendship graph is wired. The constructors [`ScenarioConfig::hs1`],
//! [`hs2`](ScenarioConfig::hs2) and [`hs3`](ScenarioConfig::hs3) encode
//! the per-school calibration targets listed in DESIGN.md §4.

// Seeds group as 0x<school>_<year>_<month> on purpose (crawl identity).
#![allow(clippy::unusual_byte_groupings)]

use hsp_graph::Date;
use serde::{Deserialize, Serialize};

/// Privacy/profile-openness distribution for one group of accounts.
///
/// Probabilities are per-account independent coin flips; the Table 5
/// columns are the calibration sources for the student groups.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpennessProfile {
    /// P(friend list audience = Public).
    pub friend_list_public: f64,
    /// P(account appears in public search).
    pub public_search: f64,
    /// P(Message button exposed to strangers).
    pub message_public: f64,
    /// P(education entries are stranger-visible) — *given* the user
    /// listed their school at all.
    pub education_public: f64,
    /// P(the user lists their current high school + grad year on the
    /// profile at all).
    pub lists_school: f64,
    /// P(current city is filled in and public).
    pub lists_city: f64,
    /// P(relationship status shown publicly).
    pub relationship_public: f64,
    /// P("interested in" shown publicly).
    pub interested_in_public: f64,
    /// P(full birthday public).
    pub birthday_public: f64,
    /// Mean of the (geometric-ish) shared-photo count distribution.
    pub photos_mean: f64,
    /// P(hometown public).
    pub hometown_public: f64,
}

impl OpennessProfile {
    /// A locked-down baseline (registered minors mostly keep defaults;
    /// the platform hard-caps them anyway on Facebook).
    pub fn reserved() -> Self {
        OpennessProfile {
            friend_list_public: 0.05,
            public_search: 0.30,
            message_public: 0.20,
            education_public: 0.50,
            lists_school: 0.15,
            lists_city: 0.30,
            relationship_public: 0.10,
            interested_in_public: 0.08,
            birthday_public: 0.03,
            photos_mean: 8.0,
            hometown_public: 0.20,
        }
    }
}

/// How children handled the under-13 registration ban (paper §1
/// observations 1–2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LyingModel {
    /// Mean age at which students joined the OSN.
    pub join_age_mean: f64,
    /// Standard deviation of the join age.
    pub join_age_std: f64,
    /// Among those who wanted to join before 13: probability they lied
    /// (the rest waited until 13 and registered truthfully).
    pub p_lie_when_underage: f64,
    /// Among liars: probability of claiming to be 18+ immediately
    /// (versus claiming to be just 13).
    pub p_lie_to_adult: f64,
    /// Among "claim 13" liars: extra years added beyond the minimum
    /// needed, sampled uniformly from `0..=extra_years_max`.
    pub extra_years_max: i32,
}

impl Default for LyingModel {
    fn default() -> Self {
        LyingModel {
            join_age_mean: 11.8,
            join_age_std: 1.6,
            p_lie_when_underage: 0.82,
            p_lie_to_adult: 0.24,
            extra_years_max: 2,
        }
    }
}

/// A COPPA-less world: everyone registers truthfully (a tiny joke-lie
/// residual remains, per §7's discussion).
impl LyingModel {
    pub fn coppaless() -> Self {
        LyingModel { p_lie_when_underage: 0.02, p_lie_to_adult: 0.5, ..Self::default() }
    }
}

/// Friendship-formation parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FriendshipModel {
    /// P(edge) between two students in the same graduating class.
    pub within_grade_p: f64,
    /// P(edge) between students one grade apart; halves per extra year.
    pub cross_grade_p: f64,
    /// Mean number of non-school friends per student (community pool,
    /// alumni, relatives). Public-friend-list users tend to be more
    /// active; their count is scaled by `open_degree_boost`.
    pub nonschool_friends_mean: f64,
    /// Multiplier on friend counts for users with public friend lists
    /// (openness correlates with activity; needed to hit Table 5's
    /// "avg # friends for users who make friend list public").
    pub open_degree_boost: f64,
    /// Mean number of current-student friends per recent alumnus,
    /// decaying by `alumni_decay` per year since graduation.
    pub alumni_to_student_mean: f64,
    pub alumni_decay: f64,
    /// Mean number of current-student friends a former (transferred)
    /// student retains.
    pub former_to_student_mean: f64,
}

impl Default for FriendshipModel {
    fn default() -> Self {
        FriendshipModel {
            within_grade_p: 0.55,
            cross_grade_p: 0.08,
            nonschool_friends_mean: 280.0,
            open_degree_boost: 1.35,
            alumni_to_student_mean: 14.0,
            alumni_decay: 0.5,
            former_to_student_mean: 35.0,
        }
    }
}

/// Full description of one target-school world.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Label, e.g. "HS1".
    pub name: String,
    /// RNG seed — every table regenerates bit-identically from it.
    pub seed: u64,
    /// Simulated crawl date.
    pub today: Date,
    /// True enrolment (the paper's attacker reads a public estimate off
    /// Wikipedia; we expose the same rounded figure to the attack).
    pub school_size: u32,
    pub public_enrollment_estimate: u32,
    /// Fraction of students with OSN accounts (~90 %: the paper failed
    /// to find IDs for about 10 % of HS1).
    pub adoption_rate: f64,
    /// Recent graduated classes that exist in the population.
    pub alumni_cohorts: u32,
    /// Fraction of each alumni cohort on the OSN *and* publicly listing
    /// the school (these dominate the paper's seed sets).
    pub alumni_visibility: f64,
    /// Community members (city adults, relatives, other-school contacts)
    /// forming the non-school friend pool.
    pub community_pool_size: u32,
    /// Former students who transferred out (the churn the paper blames
    /// for half its false positives at HS1).
    pub former_students: u32,
    /// P(a student has a parent account friended to them).
    pub parent_prob: f64,
    pub lying: LyingModel,
    pub friendship: FriendshipModel,
    /// Openness of minors *registered as adults* (Table 5 calibration).
    pub lying_student_openness: OpennessProfile,
    /// Openness of truthfully-registered students.
    pub truthful_student_openness: OpennessProfile,
    /// Openness of alumni / community adults.
    pub adult_openness: OpennessProfile,
}

impl ScenarioConfig {
    /// Upper-bound estimate of the users this scenario commits, used to
    /// pre-size `Network::with_capacity` so generation never re-grows
    /// the user or adjacency tables mid-build.
    pub fn expected_users(&self) -> usize {
        let students = self.school_size as usize;
        // One alumni cohort is roughly a graduating class (a quarter of
        // the school), and at most one parent account exists per student.
        let alumni = self.alumni_cohorts as usize * (students / 4 + 1);
        students
            + students // parents
            + alumni
            + self.former_students as usize
            + self.community_pool_size as usize
    }

    /// HS1: the small private urban school (362 students, ~325 on the
    /// OSN, crawled March 2012, high churn, relatively reserved student
    /// body — Table 5 column 1).
    pub fn hs1() -> Self {
        ScenarioConfig {
            name: "HS1".into(),
            seed: 0x51_2012_03,
            today: Date::ymd(2012, 3, 15),
            school_size: 362,
            public_enrollment_estimate: 360,
            adoption_rate: 0.90,
            alumni_cohorts: 8,
            alumni_visibility: 0.60,
            community_pool_size: 40_000,
            former_students: 150,
            parent_prob: 0.5,
            lying: LyingModel {
                // HS1's private-school population lied less: the paper
                // found 112/325 (34 %) minors registered as adults.
                join_age_mean: 12.3,
                p_lie_when_underage: 0.75,
                p_lie_to_adult: 0.22,
                ..LyingModel::default()
            },
            friendship: FriendshipModel {
                within_grade_p: 0.62,
                cross_grade_p: 0.10,
                nonschool_friends_mean: 290.0,
                ..FriendshipModel::default()
            },
            lying_student_openness: OpennessProfile {
                friend_list_public: 0.73,
                public_search: 0.71,
                message_public: 0.89,
                education_public: 0.85,
                lists_school: 0.12,
                lists_city: 0.45,
                relationship_public: 0.15,
                interested_in_public: 0.13,
                birthday_public: 0.09,
                photos_mean: 19.0,
                hometown_public: 0.35,
            },
            truthful_student_openness: OpennessProfile::reserved(),
            adult_openness: OpennessProfile {
                friend_list_public: 0.70,
                public_search: 0.85,
                message_public: 0.80,
                education_public: 0.80,
                lists_school: 0.55,
                lists_city: 0.60,
                relationship_public: 0.30,
                interested_in_public: 0.20,
                birthday_public: 0.10,
                photos_mean: 40.0,
                hometown_public: 0.40,
            },
        }
    }

    /// HS2: large public suburban East-Coast school (~1,500 students,
    /// crawled June 2012, more open student body — Table 5 column 2).
    pub fn hs2() -> Self {
        ScenarioConfig {
            name: "HS2".into(),
            seed: 0x52_2012_06,
            today: Date::ymd(2012, 6, 10),
            school_size: 1500,
            public_enrollment_estimate: 1500,
            adoption_rate: 0.90,
            alumni_cohorts: 16,
            alumni_visibility: 0.62,
            community_pool_size: 14_000,
            former_students: 320,
            parent_prob: 0.5,
            lying: LyingModel {
                // More early joiners / bolder lying than HS1: Table 5
                // shows ~47 % of HS2 minors registered as adults.
                join_age_mean: 11.4,
                p_lie_when_underage: 0.88,
                p_lie_to_adult: 0.30,
                ..LyingModel::default()
            },
            friendship: FriendshipModel {
                within_grade_p: 0.52,
                cross_grade_p: 0.07,
                nonschool_friends_mean: 520.0,
                ..FriendshipModel::default()
            },
            lying_student_openness: OpennessProfile {
                friend_list_public: 0.77,
                public_search: 0.80,
                message_public: 0.86,
                education_public: 0.85,
                lists_school: 0.19,
                lists_city: 0.55,
                relationship_public: 0.26,
                interested_in_public: 0.20,
                birthday_public: 0.04,
                photos_mean: 51.0,
                hometown_public: 0.40,
            },
            truthful_student_openness: OpennessProfile::reserved(),
            adult_openness: ScenarioConfig::hs1().adult_openness,
        }
    }

    /// HS3: large public Midwest school (~1,500 students, crawled June
    /// 2012, the most open student body — Table 5 column 3).
    pub fn hs3() -> Self {
        let mut cfg = Self::hs2();
        cfg.name = "HS3".into();
        cfg.seed = 0x53_2012_06;
        cfg.community_pool_size = 12_000;
        cfg.former_students = 280;
        cfg.lying.p_lie_when_underage = 0.93;
        cfg.lying.p_lie_to_adult = 0.38;
        cfg.lying.join_age_mean = 11.2;
        cfg.friendship.nonschool_friends_mean = 480.0;
        cfg.lying_student_openness = OpennessProfile {
            friend_list_public: 0.87,
            public_search: 0.86,
            message_public: 0.91,
            education_public: 0.85,
            lists_school: 0.13,
            lists_city: 0.55,
            relationship_public: 0.34,
            interested_in_public: 0.33,
            birthday_public: 0.06,
            photos_mean: 57.0,
            hometown_public: 0.40,
        };
        cfg
    }

    /// A deliberately small scenario for fast unit/integration tests:
    /// the same structure as HS1 at 1/6 scale.
    pub fn tiny() -> Self {
        let mut cfg = Self::hs1();
        cfg.name = "TINY".into();
        cfg.seed = 0x7e59;
        cfg.school_size = 128;
        cfg.public_enrollment_estimate = 128;
        cfg.alumni_cohorts = 4;
        cfg.community_pool_size = 1200;
        cfg.former_students = 20;
        cfg.friendship.nonschool_friends_mean = 30.0;
        cfg.friendship.within_grade_p = 0.7;
        // Keep group proportions sane at 1/6 scale: a transfer's
        // residual ties must stay below the class size, and the small
        // core needs a slightly higher listing rate to be stable.
        cfg.friendship.former_to_student_mean = 6.0;
        cfg.friendship.alumni_to_student_mean = 5.0;
        cfg.lying_student_openness.lists_school = 0.35;
        cfg
    }

    /// The same scenario regenerated in a world without COPPA's age
    /// restriction: children register truthfully (§7's assumption).
    pub fn without_coppa(&self) -> Self {
        let mut cfg = self.clone();
        cfg.name = format!("{}-noCOPPA", self.name);
        cfg.lying = LyingModel::coppaless();
        cfg
    }

    /// The four graduating classes enrolled on the crawl date.
    pub fn enrolled_classes(&self) -> [i32; 4] {
        hsp_graph::SchoolCalendar::default().enrolled_classes(self.today)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_constructors_are_distinct() {
        assert_eq!(ScenarioConfig::hs1().school_size, 362);
        assert_eq!(ScenarioConfig::hs2().school_size, 1500);
        assert_ne!(ScenarioConfig::hs2().seed, ScenarioConfig::hs3().seed);
        assert!(ScenarioConfig::hs3().lying_student_openness.friend_list_public > 0.8);
    }

    #[test]
    fn coppaless_variant_clears_lying() {
        let c = ScenarioConfig::hs1().without_coppa();
        assert!(c.lying.p_lie_when_underage < 0.05);
        assert_eq!(c.school_size, 362);
        assert!(c.name.contains("noCOPPA"));
    }

    #[test]
    fn enrolled_classes_for_march_2012() {
        assert_eq!(ScenarioConfig::hs1().enrolled_classes(), [2015, 2014, 2013, 2012]);
    }

    #[test]
    fn hs2_crawled_in_june_keeps_2012_seniors() {
        // June 2012 is before the July rollover: seniors are class of 2012.
        assert_eq!(ScenarioConfig::hs2().enrolled_classes(), [2015, 2014, 2013, 2012]);
    }
}
