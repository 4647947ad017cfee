//! # hsp-graph — social-graph substrate
//!
//! The foundational data model for the IMC'13 "Profiling High-School
//! Students with Facebook" reproduction: calendar dates and school-year
//! arithmetic, strongly-typed ids, user accounts (with the crucial split
//! between *registered* and *true* birth dates), user-chosen privacy
//! settings, profile content, schools/cities, and friendship storage
//! (symmetric Facebook-style adjacency plus asymmetric Google+-style
//! circles).
//!
//! Ground truth (who is really a student where, and their real age) lives
//! alongside the OSN-visible state but is only ever read by evaluation
//! code — the simulated platform never serves it, exactly as the paper's
//! confidential rosters were used only to score the attack.

mod chunked;
pub mod date;
pub mod friendship;
pub mod household;
pub mod ids;
pub mod interactions;
pub mod network;
pub mod privacy;
pub mod profile;
pub mod school;
pub mod strings;
pub mod user;

pub use date::{Date, InvalidDate, SchoolCalendar};
pub use friendship::{jaccard_index, sorted_intersection_len, Circles, FriendGraph};
pub use household::{Household, Households};
pub use ids::{CityId, HouseholdId, SchoolId, UserId};
pub use interactions::Interactions;
pub use network::{Network, UserColumns};
pub use privacy::{Audience, PrivacySettings};
pub use profile::{
    ContactInfo, EducationEntry, EducationKind, Gender, InterestedIn, ProfileContent, Registration,
    RelationshipStatus,
};
pub use school::{City, School, SchoolKind};
pub use strings::Sym;
pub use user::{Role, User};
