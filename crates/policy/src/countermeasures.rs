//! Countermeasure policy variants beyond §8's reverse-lookup switch.
//!
//! The paper closes by noting that "designing and evaluating all
//! combinations of possible laws and measures is a major research
//! problem on its own" and evaluates one measure. These wrappers let the
//! experiments sweep a small design space:
//!
//! - [`AgeConsistencySearchPolicy`]: don't return users in school search
//!   whose *own public claims* imply they are under 18 (a registered
//!   adult publicly listing a current high-school class is claiming to
//!   be a teenager — the platform can notice the contradiction).
//! - [`YoungAdultFriendListPolicy`]: extend the minor friend-list
//!   protection to registered users under a configurable age, shielding
//!   the 18–20 "registered age" band where lying minors live.

use crate::policy::Policy;
use crate::view::PublicView;
use hsp_graph::{Network, SchoolId, UserId};
use std::sync::Arc;

/// Search screening on self-contradictory ages.
///
/// A user whose public profile lists the target school with a current
/// or future graduation year is, by their own claim, a current student
/// — and therefore (almost certainly) a minor. This policy removes such
/// users from school-search results, cutting off the attacker's core
/// set at its source while leaving genuine alumni searchable.
pub struct AgeConsistencySearchPolicy {
    base: Arc<dyn Policy>,
}

impl AgeConsistencySearchPolicy {
    pub fn new(base: Arc<dyn Policy>) -> Self {
        AgeConsistencySearchPolicy { base }
    }
}

impl Policy for AgeConsistencySearchPolicy {
    fn name(&self) -> &'static str {
        "age-consistency-search"
    }

    fn stranger_view(&self, net: &Network, target: UserId) -> PublicView {
        self.base.stranger_view(net, target)
    }

    fn searchable_by_school(&self, net: &Network, user: UserId, school: SchoolId) -> bool {
        if !self.base.searchable_by_school(net, user, school) {
            return false;
        }
        let senior = net.senior_class_year();
        let view = self.base.stranger_view(net, user);
        // Publicly claims current attendance at ANY high school =>
        // self-identified minor => screened from search.
        let claims_current = view.education.iter().any(|e| {
            e.kind == hsp_graph::EducationKind::HighSchool
                && e.grad_year.is_some_and(|g| g >= senior)
        });
        !claims_current
    }

    fn friend_list_stranger_visible(&self, net: &Network, user: UserId) -> bool {
        self.base.friend_list_stranger_visible(net, user)
    }

    fn reverse_lookup_enabled(&self) -> bool {
        self.base.reverse_lookup_enabled()
    }
}

/// Friend-list protection for young registered adults.
///
/// Hides the friend list from strangers for any user whose *registered*
/// age is below `min_age` — because most lying minors register as
/// 18–20, a threshold of 21 shields nearly all of them without touching
/// the adult population at large.
pub struct YoungAdultFriendListPolicy {
    base: Arc<dyn Policy>,
    pub min_age: i32,
}

impl YoungAdultFriendListPolicy {
    pub fn new(base: Arc<dyn Policy>, min_age: i32) -> Self {
        YoungAdultFriendListPolicy { base, min_age }
    }

    fn shielded(&self, net: &Network, user: UserId) -> bool {
        net.user(user).registered_age(net.today) < self.min_age
    }
}

impl Policy for YoungAdultFriendListPolicy {
    fn name(&self) -> &'static str {
        "young-adult-friendlist-cap"
    }

    fn stranger_view(&self, net: &Network, target: UserId) -> PublicView {
        let mut view = self.base.stranger_view(net, target);
        if self.shielded(net, target) {
            view.friend_list_visible = false;
        }
        view
    }

    fn searchable_by_school(&self, net: &Network, user: UserId, school: SchoolId) -> bool {
        self.base.searchable_by_school(net, user, school)
    }

    fn friend_list_stranger_visible(&self, net: &Network, user: UserId) -> bool {
        !self.shielded(net, user) && self.base.friend_list_stranger_visible(net, user)
    }

    fn reverse_lookup_enabled(&self) -> bool {
        self.base.reverse_lookup_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FacebookPolicy;
    use hsp_graph::{
        Audience, Date, EducationEntry, Gender, PrivacySettings, ProfileContent, Registration,
        Role, School, SchoolKind, User,
    };

    fn world() -> (Network, SchoolId, UserId, UserId) {
        let mut net = Network::new(Date::ymd(2012, 3, 15));
        let city = net.add_city("X", "NY");
        let school = net.add_school(School {
            id: SchoolId(0),
            name: "HS".into(),
            city,
            kind: SchoolKind::HighSchool,
            public_enrollment_estimate: 400,
        });
        let mk = |net: &mut Network, grad_year: i32, registered_birth: Date| {
            let mut profile = ProfileContent::bare("A", "B", Gender::Male);
            profile.education.push(EducationEntry::high_school(school, grad_year));
            net.add_user(User {
                id: UserId(0),
                true_birth_date: Date::ymd(1996, 1, 1),
                registration: Registration {
                    registered_birth_date: registered_birth,
                    registration_date: Date::ymd(2009, 1, 1),
                },
                profile,
                privacy: PrivacySettings::facebook_adult_default(),
                role: Role::OtherResident,
            })
        };
        // A lying minor claiming class of 2014 (registered 19).
        let lying = mk(&mut net, 2014, Date::ymd(1993, 1, 1));
        // A genuine alumnus, class of 2008 (registered 22).
        let alumnus = mk(&mut net, 2008, Date::ymd(1990, 1, 1));
        (net, school, lying, alumnus)
    }

    #[test]
    fn age_consistency_screens_current_claimers_only() {
        let (net, school, lying, alumnus) = world();
        let base: Arc<dyn Policy> = Arc::new(FacebookPolicy::new());
        assert!(base.searchable_by_school(&net, lying, school));
        let screened = AgeConsistencySearchPolicy::new(base);
        assert!(!screened.searchable_by_school(&net, lying, school));
        assert!(screened.searchable_by_school(&net, alumnus, school));
        // Profile views are untouched.
        assert!(!screened.stranger_view(&net, lying).is_minimal());
    }

    #[test]
    fn young_adult_cap_hides_friend_lists_under_threshold() {
        let (net, _school, lying, alumnus) = world();
        let base: Arc<dyn Policy> = Arc::new(FacebookPolicy::new());
        assert!(base.friend_list_stranger_visible(&net, lying));
        let capped = YoungAdultFriendListPolicy::new(base, 21);
        // Registered 19: shielded.
        assert!(!capped.friend_list_stranger_visible(&net, lying));
        assert!(!capped.stranger_view(&net, lying).friend_list_visible);
        assert!(capped.visible_friend_list(&net, lying).is_none());
        // Registered 22: untouched.
        assert!(capped.friend_list_stranger_visible(&net, alumnus));
        // Other fields still leak (this cap is narrower than the §8 one).
        assert!(!capped.stranger_view(&net, lying).is_minimal());
    }

    #[test]
    fn young_adult_cap_respects_existing_privacy() {
        let (mut net, _school, _lying, alumnus) = world();
        net.update_user(alumnus, |u| u.privacy.friend_list = Audience::Friends);
        let capped = YoungAdultFriendListPolicy::new(Arc::new(FacebookPolicy::new()), 21);
        assert!(!capped.friend_list_stranger_visible(&net, alumnus));
    }
}
