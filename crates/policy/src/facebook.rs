//! Facebook's 2012-era privacy policy for strangers, per paper §3.1.
//!
//! Two mechanisms are modelled exactly as the paper describes:
//!
//! 1. **Registered-minor hard cap**: "when a stranger visits a registered
//!    minor's profile page, only a limited amount of information is
//!    available ... at most the user's name, profile photo, networks
//!    joined, and gender ... the Message button will never be visible"
//!    — regardless of the minor's own settings.
//! 2. **Search exclusion**: "Facebook does not return any registered
//!    minors when a stranger searches with the Find Friends Portal \[or\]
//!    Graph Search".
//!
//! Registered adults get whatever their per-field audiences allow.

use crate::policy::Policy;
use crate::view::PublicView;
use hsp_graph::{Audience, Network, SchoolId, UserId};

/// The Facebook policy engine.
#[derive(Clone, Debug)]
pub struct FacebookPolicy {
    /// The §8 countermeasure switch: when `false`, users whose friend
    /// list is hidden from strangers are also omitted from *other*
    /// users' stranger-visible friend lists (no reverse lookup).
    pub reverse_lookup: bool,
}

impl Default for FacebookPolicy {
    fn default() -> Self {
        FacebookPolicy { reverse_lookup: true }
    }
}

impl FacebookPolicy {
    pub fn new() -> Self {
        Self::default()
    }

    /// Facebook with the reverse-lookup countermeasure deployed (§8).
    pub fn without_reverse_lookup() -> Self {
        FacebookPolicy { reverse_lookup: false }
    }
}

impl Policy for FacebookPolicy {
    fn name(&self) -> &'static str {
        "facebook"
    }

    fn stranger_view(&self, net: &Network, target: UserId) -> PublicView {
        let user = net.user(target);
        let p = &user.profile;
        // Row 1 of Table 1 is available for everyone.
        let mut view = PublicView::minimal(
            target,
            p.full_name(),
            Some(p.gender),
            p.has_profile_photo,
            p.networks.clone(),
        );
        if user.is_registered_minor(net.today) {
            // Hard cap: nothing else, no matter the settings.
            return view;
        }
        let s = &user.privacy;
        if s.education.visible_to_stranger() {
            view.education = p.education.clone();
        }
        if s.hometown.visible_to_stranger() {
            view.hometown = p.hometown;
        }
        if s.current_city.visible_to_stranger() {
            view.current_city = p.current_city;
        }
        if s.relationship.visible_to_stranger() {
            view.relationship = p.relationship;
        }
        if s.interested_in.visible_to_stranger() {
            view.interested_in = p.interested_in;
        }
        if s.birthday.visible_to_stranger() {
            view.birthday = Some(user.registration.registered_birth_date);
        }
        view.friend_list_visible = s.friend_list.visible_to_stranger();
        if s.photos.visible_to_stranger() {
            view.photos_shared = Some(p.photos_shared);
        }
        if s.wall.visible_to_stranger() {
            view.wall_posts = Some(p.wall_posts);
            view.wall_posters = net.interactions().top_partners(target, 10);
        }
        if s.contact_info.visible_to_stranger() && !p.contact.is_empty() {
            view.contact = Some(p.contact.clone());
        }
        // A true stranger is not a friend-of-friend, so only a public
        // audience exposes the Message button.
        view.message_button = s.message_button == Audience::Public;
        view
    }

    fn searchable_by_school(&self, net: &Network, user: UserId, school: SchoolId) -> bool {
        let u = net.user(user);
        // Registered minors are never returned.
        if u.is_registered_minor(net.today) {
            return false;
        }
        // The account must be discoverable at all.
        if !u.privacy.public_search {
            return false;
        }
        // Association with the school must be stranger-visible: either a
        // public education entry naming it, or a joined school network.
        let lists_it = u.privacy.education.visible_to_stranger()
            && u.profile.education.iter().any(|e| e.school == school);
        let networked = u.profile.networks.contains(&school);
        lists_it || networked
    }

    fn friend_list_stranger_visible(&self, net: &Network, user: UserId) -> bool {
        self.stranger_view(net, user).friend_list_visible
    }

    fn reverse_lookup_enabled(&self) -> bool {
        self.reverse_lookup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_graph::{
        Date, EducationEntry, Gender, PrivacySettings, ProfileContent, Registration, Role, School,
        SchoolKind, User,
    };

    fn network_with(privacy: PrivacySettings, registered_birth: Date) -> (Network, UserId) {
        let mut net = Network::new(Date::ymd(2012, 3, 15));
        let city = net.add_city("Springfield", "NY");
        let school = net.add_school(School {
            id: SchoolId(0),
            name: "HS1".into(),
            city,
            kind: SchoolKind::HighSchool,
            public_enrollment_estimate: 360,
        });
        let mut profile = ProfileContent::bare("Pat", "Doe", Gender::Female);
        profile.education.push(EducationEntry::high_school(school, 2014));
        profile.current_city = Some(city);
        profile.photos_shared = 12;
        let id = net.add_user(User {
            id: UserId(0),
            true_birth_date: Date::ymd(1996, 5, 1),
            registration: Registration {
                registered_birth_date: registered_birth,
                registration_date: Date::ymd(2009, 1, 1),
            },
            profile,
            privacy,
            role: Role::CurrentStudent { school, grad_year: 2014 },
        });
        (net, id)
    }

    #[test]
    fn registered_minor_is_hard_capped_even_at_max_sharing() {
        let (net, id) = network_with(PrivacySettings::maximum_sharing(), Date::ymd(1996, 5, 1));
        let view = FacebookPolicy::new().stranger_view(&net, id);
        assert!(view.is_minimal(), "minor view leaked: {view:?}");
        assert!(!view.message_button);
        assert!(view.education.is_empty());
    }

    #[test]
    fn registered_adult_with_defaults_shows_education_not_birthday() {
        let (net, id) = network_with(
            PrivacySettings::facebook_adult_default(),
            Date::ymd(1992, 5, 1), // registered 19 — a lying minor
        );
        let view = FacebookPolicy::new().stranger_view(&net, id);
        assert!(!view.is_minimal());
        assert_eq!(view.education.len(), 1);
        assert!(view.friend_list_visible);
        assert!(view.birthday.is_none());
        assert!(view.contact.is_none());
        assert_eq!(view.photos_shared, Some(12));
        assert!(view.message_button);
    }

    #[test]
    fn registered_adult_locked_down_is_minimal() {
        let (net, id) = network_with(PrivacySettings::locked_down(), Date::ymd(1992, 5, 1));
        let view = FacebookPolicy::new().stranger_view(&net, id);
        assert!(view.is_minimal());
    }

    #[test]
    fn search_excludes_registered_minors() {
        let policy = FacebookPolicy::new();
        // Truthful minor: listed school is public by settings, but the
        // account is a registered minor -> never searchable.
        let (net, id) = network_with(PrivacySettings::maximum_sharing(), Date::ymd(1996, 5, 1));
        assert!(!policy.searchable_by_school(&net, id, SchoolId(0)));
        // Lying minor (registered adult): searchable.
        let (net, id) =
            network_with(PrivacySettings::facebook_adult_default(), Date::ymd(1992, 5, 1));
        assert!(policy.searchable_by_school(&net, id, SchoolId(0)));
        // Registered adult who opted out of public search: not searchable.
        let mut settings = PrivacySettings::facebook_adult_default();
        settings.public_search = false;
        let (net, id) = network_with(settings, Date::ymd(1992, 5, 1));
        assert!(!policy.searchable_by_school(&net, id, SchoolId(0)));
        // Registered adult with private education and no network: not searchable.
        let mut settings = PrivacySettings::facebook_adult_default();
        settings.education = Audience::Friends;
        let (net, id) = network_with(settings, Date::ymd(1992, 5, 1));
        assert!(!policy.searchable_by_school(&net, id, SchoolId(0)));
    }

    #[test]
    fn search_requires_matching_school() {
        let (mut net, id) =
            network_with(PrivacySettings::facebook_adult_default(), Date::ymd(1992, 5, 1));
        let other = net.add_school(School {
            id: SchoolId(0),
            name: "HS2".into(),
            city: hsp_graph::CityId(0),
            kind: SchoolKind::HighSchool,
            public_enrollment_estimate: 1500,
        });
        assert!(!FacebookPolicy::new().searchable_by_school(&net, id, other));
    }

    #[test]
    fn network_membership_makes_account_searchable() {
        let mut settings = PrivacySettings::facebook_adult_default();
        settings.education = Audience::Friends; // education hidden
        let (mut net, id) = network_with(settings, Date::ymd(1992, 5, 1));
        net.update_user(id, |u| u.profile.networks.push(SchoolId(0)));
        assert!(FacebookPolicy::new().searchable_by_school(&net, id, SchoolId(0)));
    }

    #[test]
    fn reverse_lookup_switch() {
        assert!(FacebookPolicy::new().reverse_lookup_enabled());
        assert!(!FacebookPolicy::without_reverse_lookup().reverse_lookup_enabled());
    }
}
