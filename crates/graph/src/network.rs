//! The assembled social network: users, friendships, schools, cities and
//! the simulated "today".

use crate::chunked::Chunked;
use crate::date::{Date, SchoolCalendar};
use crate::friendship::{Circles, FriendGraph};
use crate::household::Households;
use crate::ids::{CityId, SchoolId, UserId};
use crate::interactions::Interactions;
use crate::school::{City, School};
use crate::strings::Sym;
use crate::user::{Role, User};
use serde::value::{Map, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The complete simulated OSN state plus generator-side ground truth.
///
/// The platform crate serves *views* of this structure filtered through
/// the privacy-policy engine; evaluation code reads the ground-truth
/// accessors directly (playing the role of the paper's confidential
/// school rosters).
///
/// # Sealing
///
/// A freshly built network is mutable ("building" layout). Calling
/// [`Network::seal`] freezes it for attack-time reads: the friendship
/// adjacency compacts into CSR form, hot per-user fields (role tag,
/// school, graduation year, privacy tier) are mirrored into
/// struct-of-arrays columns, and per-school "lister" indexes replace
/// the full-population scans behind school search. Sealing never
/// changes observable behaviour — every accessor answers identically
/// and [`Network::fingerprint`] is bit-identical.
///
/// The seal survives the edits a live world makes: [`Network::add_user`],
/// [`Network::update_user`], [`Network::add_friendship`] and
/// [`Network::remove_friendship`] patch the CSR, the columns and the
/// listers for exactly the users they touch. Only a wholesale adjacency
/// install and a bulk edge insert drop the seal.
///
/// # Sharing
///
/// Cloning is cheap and copies on write. Users and seal columns live in
/// fixed-size shared chunks, the sealed adjacency and the per-school
/// listers are shared, and the parts no live-world event touches
/// (schools, cities, households, circles, interactions) sit behind one
/// `Arc` each that only their `*_mut` accessors unshare (circles have
/// none: [`Network::set_circles`] replaces them whole). A clone costs
/// a reference count per chunk plus the patched friend lists; an edit
/// then copies only the chunks and lists it lands in.
#[derive(Clone, Debug)]
pub struct Network {
    /// The simulated current date (the paper's crawls: March/June 2012).
    pub today: Date,
    pub calendar: SchoolCalendar,
    users: Chunked<User>,
    friends: FriendGraph,
    schools: Arc<Vec<School>>,
    cities: Arc<Vec<City>>,
    households: Arc<Households>,
    /// Asymmetric circle membership (Google+ mode; empty under
    /// Facebook-style symmetric friendship).
    circles: Arc<Circles>,
    /// Pairwise interaction intensity (wall posts between friends).
    interactions: Arc<Interactions>,
    /// Seal-time read indexes. Never serialized — rebuilt by re-sealing
    /// after a round-trip.
    seal: Option<SealIndex>,
}

/// Struct-of-arrays mirror of the per-user fields that attack-time
/// scans touch, so a roster or searchability pass walks a few flat
/// byte/int columns instead of dragging every `User`'s cold `String`
/// and `Vec` cache lines through the core.
#[derive(Clone, Debug, PartialEq)]
pub struct UserColumns {
    /// Role discriminant (`UserColumns::CURRENT_STUDENT`, ...).
    role_tag: Chunked<u8>,
    /// Role school index, `u32::MAX` when the role has none.
    role_school: Chunked<u32>,
    /// Role graduation year, `0` when the role has none.
    grad_year: Chunked<i32>,
    /// Packed privacy tier (`PUBLIC_SEARCH` | `EDUCATION_VISIBLE` | ...).
    privacy: Chunked<u8>,
}

/// One user's [`UserColumns`] entries: role tag, school, year, privacy.
type ColumnRow = (u8, u32, i32, u8);

impl UserColumns {
    pub const CURRENT_STUDENT: u8 = 1;
    pub const FORMER_STUDENT: u8 = 2;
    pub const ALUMNUS: u8 = 3;
    pub const PARENT: u8 = 4;
    pub const OTHER_RESIDENT: u8 = 5;
    pub const NON_RESIDENT: u8 = 6;

    pub const PUBLIC_SEARCH: u8 = 1 << 0;
    pub const EDUCATION_VISIBLE: u8 = 1 << 1;
    pub const FRIEND_LIST_VISIBLE: u8 = 1 << 2;
    pub const WALL_VISIBLE: u8 = 1 << 3;

    fn row(u: &User) -> ColumnRow {
        let (tag, school, year) = match u.role {
            Role::CurrentStudent { school, grad_year } => {
                (Self::CURRENT_STUDENT, school.index() as u32, grad_year)
            }
            Role::FormerStudent { school, grad_year } => {
                (Self::FORMER_STUDENT, school.index() as u32, grad_year)
            }
            Role::Alumnus { school, grad_year } => {
                (Self::ALUMNUS, school.index() as u32, grad_year)
            }
            Role::Parent { .. } => (Self::PARENT, u32::MAX, 0),
            Role::OtherResident => (Self::OTHER_RESIDENT, u32::MAX, 0),
            Role::NonResident => (Self::NON_RESIDENT, u32::MAX, 0),
        };
        let mut p = 0u8;
        if u.privacy.public_search {
            p |= Self::PUBLIC_SEARCH;
        }
        if u.privacy.education.visible_to_stranger() {
            p |= Self::EDUCATION_VISIBLE;
        }
        if u.privacy.friend_list.visible_to_stranger() {
            p |= Self::FRIEND_LIST_VISIBLE;
        }
        if u.privacy.wall.visible_to_stranger() {
            p |= Self::WALL_VISIBLE;
        }
        (tag, school, year, p)
    }

    fn push(&mut self, (tag, school, year, privacy): ColumnRow) {
        self.role_tag.push(tag);
        self.role_school.push(school);
        self.grad_year.push(year);
        self.privacy.push(privacy);
    }

    fn set(&mut self, u: UserId, (tag, school, year, privacy): ColumnRow) {
        let i = u.index();
        *self.role_tag.make_mut(i) = tag;
        *self.role_school.make_mut(i) = school;
        *self.grad_year.make_mut(i) = year;
        *self.privacy.make_mut(i) = privacy;
    }

    /// Users whose role has `tag` at `school`, in the class of `year`
    /// when given, in id order.
    fn select(&self, tag: u8, school: SchoolId, year: Option<i32>) -> Vec<UserId> {
        let school = school.index() as u32;
        let mut out = Vec::new();
        let rows =
            self.role_tag.chunks().zip(self.role_school.chunks()).zip(self.grad_year.chunks());
        for (c, ((tags, schools), years)) in rows.enumerate() {
            let base = c * crate::chunked::CHUNK;
            for (i, ((&t, &s), &y)) in tags.iter().zip(schools).zip(years).enumerate() {
                if t == tag && s == school && year.is_none_or(|year| y == year) {
                    out.push(UserId::from_index(base + i));
                }
            }
        }
        out
    }

    pub fn len(&self) -> usize {
        self.role_tag.len()
    }

    pub fn is_empty(&self) -> bool {
        self.role_tag.len() == 0
    }

    pub fn role_tag(&self, u: UserId) -> u8 {
        self.role_tag[u.index()]
    }

    /// The school the role is tied to, if any.
    pub fn role_school(&self, u: UserId) -> Option<SchoolId> {
        match self.role_school[u.index()] {
            u32::MAX => None,
            s => Some(SchoolId(s)),
        }
    }

    /// The role's graduation year (current/former/alumni roles only).
    pub fn role_grad_year(&self, u: UserId) -> Option<i32> {
        match self.role_tag[u.index()] {
            Self::CURRENT_STUDENT | Self::FORMER_STUDENT | Self::ALUMNUS => {
                Some(self.grad_year[u.index()])
            }
            _ => None,
        }
    }

    /// Packed privacy-tier bits for `u`.
    pub fn privacy_bits(&self, u: UserId) -> u8 {
        self.privacy[u.index()]
    }

    pub fn public_search(&self, u: UserId) -> bool {
        self.privacy[u.index()] & Self::PUBLIC_SEARCH != 0
    }
}

/// Everything [`Network::seal`] precomputes.
#[derive(Clone, Debug)]
struct SealIndex {
    columns: UserColumns,
    /// Per school: users whose *profile* ties them to the school
    /// (an education entry or a joined network), in id order. This is
    /// a superset of any policy's searchable pool — both the Facebook
    /// and Google+ search rules require a profile school listing — so
    /// search indexing filters these few thousand candidates instead
    /// of scanning the whole population per school.
    listers: Vec<Arc<Vec<UserId>>>,
}

impl SealIndex {
    fn build(users: &Chunked<User>, schools: usize) -> SealIndex {
        let mut columns = UserColumns {
            role_tag: Chunked::default(),
            role_school: Chunked::default(),
            grad_year: Chunked::default(),
            privacy: Chunked::default(),
        };
        let mut listers = vec![Vec::new(); schools];
        for u in users.iter() {
            columns.push(UserColumns::row(u));
            // Collect each user at most once per distinct school.
            let mut push = |s: SchoolId| {
                if let Some(list) = listers.get_mut(s.index()) {
                    if list.last() != Some(&u.id) {
                        list.push(u.id);
                    }
                }
            };
            for e in &u.profile.education {
                push(e.school);
            }
            for &n in &u.profile.networks {
                push(n);
            }
        }
        // `push` dedups only consecutive repeats within one profile;
        // a school listed in both education and networks needs a real
        // dedup pass. Users arrive in id order, so lists stay sorted.
        for list in &mut listers {
            list.dedup();
        }
        SealIndex { columns, listers: listers.into_iter().map(Arc::new).collect() }
    }

    /// Re-derive `u`'s columns and lister entries; `listed_before` is
    /// what [`listed_schools`] said before the edit (empty for a user
    /// the index has not seen).
    fn update(&mut self, u: &User, listed_before: &[SchoolId]) {
        if u.id.index() == self.columns.len() {
            self.columns.push(UserColumns::row(u));
        } else {
            self.columns.set(u.id, UserColumns::row(u));
        }
        let listed_after = listed_schools(u);
        for s in listed_before.iter().filter(|s| !listed_after.contains(s)) {
            if let Some(list) = self.listers.get_mut(s.index()) {
                let list = Arc::make_mut(list);
                if let Ok(pos) = list.binary_search(&u.id) {
                    list.remove(pos);
                }
            }
        }
        for s in listed_after.iter().filter(|s| !listed_before.contains(s)) {
            if let Some(list) = self.listers.get_mut(s.index()) {
                let list = Arc::make_mut(list);
                if let Err(pos) = list.binary_search(&u.id) {
                    list.insert(pos, u.id);
                }
            }
        }
    }
}

/// The distinct schools `u`'s profile ties them to (the lister index key).
fn listed_schools(u: &User) -> Vec<SchoolId> {
    let mut schools: Vec<SchoolId> = u.profile.education.iter().map(|e| e.school).collect();
    schools.extend_from_slice(&u.profile.networks);
    schools.sort_unstable();
    schools.dedup();
    schools
}

impl Network {
    pub fn new(today: Date) -> Self {
        Self::with_capacity(today, 0)
    }

    /// [`Network::new`] with room for `users` accounts, so metro-scale
    /// builds don't re-grow the adjacency table on every insert. (Users
    /// fill fixed-size chunks and never re-grow.)
    pub fn with_capacity(today: Date, users: usize) -> Self {
        let mut friends = FriendGraph::default();
        friends.reserve(users);
        Network {
            today,
            calendar: SchoolCalendar::default(),
            users: Chunked::default(),
            friends,
            schools: Arc::default(),
            cities: Arc::default(),
            households: Arc::default(),
            circles: Arc::default(),
            interactions: Arc::default(),
            seal: None,
        }
    }

    /// Reserve room for `additional` more users.
    pub fn reserve(&mut self, additional: usize) {
        self.friends.reserve(self.users.len() + additional);
    }

    // ----- sealing ---------------------------------------------------------

    /// Freeze the network for attack-time reads: compact the adjacency
    /// into CSR form and build the SoA columns + per-school lister
    /// indexes. Idempotent. See the type-level docs for the contract.
    pub fn seal(&mut self) {
        self.friends.seal();
        if self.seal.is_none() {
            self.seal = Some(SealIndex::build(&self.users, self.schools.len()));
        }
    }

    pub fn is_sealed(&self) -> bool {
        self.seal.is_some()
    }

    /// Seal-time SoA columns, if sealed.
    pub fn sealed_columns(&self) -> Option<&UserColumns> {
        self.seal.as_ref().map(|s| &s.columns)
    }

    /// Seal-time school-lister index: every user whose profile ties
    /// them to `school`, in id order. `None` when unsealed (callers
    /// fall back to a full scan).
    pub fn school_listers(&self, school: SchoolId) -> Option<&[UserId]> {
        self.seal
            .as_ref()
            .map(|s| s.listers.get(school.index()).map(|l| l.as_slice()).unwrap_or(&[]))
    }

    // ----- construction ---------------------------------------------------

    /// Register a city, returning its id.
    pub fn add_city(&mut self, name: impl Into<Sym>, state: impl Into<Sym>) -> CityId {
        let cities = Arc::make_mut(&mut self.cities);
        let id = CityId::from_index(cities.len());
        cities.push(City { id, name: name.into(), state: state.into() });
        id
    }

    /// Register a school, returning its id.
    pub fn add_school(&mut self, school: School) -> SchoolId {
        let schools = Arc::make_mut(&mut self.schools);
        let id = SchoolId::from_index(schools.len());
        let mut school = school;
        school.id = id;
        schools.push(school);
        if let Some(seal) = &mut self.seal {
            seal.listers.push(Arc::default());
        }
        id
    }

    /// Add a user; the `id` field is overwritten with the assigned id.
    /// A sealed network stays sealed.
    pub fn add_user(&mut self, mut user: User) -> UserId {
        let id = UserId::from_index(self.users.len());
        user.id = id;
        if let Some(seal) = &mut self.seal {
            seal.update(&user, &[]);
        }
        self.users.push(user);
        self.friends.ensure_users(self.users.len());
        id
    }

    /// Edit user `id` in place (their `id` field is kept) and re-derive
    /// their seal-index entries, so a sealed network stays sealed.
    pub fn update_user(&mut self, id: UserId, edit: impl FnOnce(&mut User)) {
        let user = self.users.make_mut(id.index());
        let listed_before = self.seal.as_ref().map(|_| listed_schools(user));
        edit(user);
        user.id = id;
        if let (Some(seal), Some(before)) = (&mut self.seal, listed_before) {
            seal.update(user, &before);
        }
    }

    /// Add a symmetric friendship.
    pub fn add_friendship(&mut self, a: UserId, b: UserId) -> bool {
        debug_assert!(a.index() < self.users.len() && b.index() < self.users.len());
        self.friends.add_friendship(a, b)
    }

    /// Bulk-insert friendships (see [`FriendGraph::bulk_insert`]).
    /// Thaws the adjacency, so the network unseals.
    pub fn add_friendships_bulk(&mut self, edges: impl IntoIterator<Item = (UserId, UserId)>) {
        self.seal = None;
        self.friends.bulk_insert(edges);
        self.friends.ensure_users(self.users.len());
    }

    /// Install a pre-built (typically CSR, via
    /// [`FriendGraph::from_edge_list`]) adjacency wholesale — the
    /// metro-scale path that never materializes per-user edge `Vec`s.
    /// The graph is grown to cover every user; the network unseals.
    pub fn set_friend_graph(&mut self, mut friends: FriendGraph) {
        self.seal = None;
        friends.ensure_users(self.users.len());
        self.friends = friends;
    }

    /// Remove a symmetric friendship (live-world defriending). Returns
    /// `true` if the edge existed.
    pub fn remove_friendship(&mut self, a: UserId, b: UserId) -> bool {
        self.friends.remove_friendship(a, b)
    }

    /// Content hash of the entire network (FNV-1a over the canonical
    /// serialized form). Two networks fingerprint equal iff every user,
    /// edge, household, circle and interaction matches — the cheap
    /// bit-identity check behind the sharded generator's 1-thread ≡
    /// N-thread guarantee.
    ///
    /// Streams the serialized form through the hash instead of
    /// materializing it: a metro-scale world's JSON runs to gigabytes,
    /// so building the full `Value` tree (as `serde_json::to_vec`
    /// would) would dwarf the network's own memory footprint. The
    /// byte stream is pinned identical to `serde_json::to_vec(self)`
    /// by `streamed_fingerprint_matches_rendered`.
    pub fn fingerprint(&self) -> u64 {
        let mut s = FnvStream::new();
        s.raw("{\"calendar\":");
        s.value(&self.calendar.to_json_value());
        s.raw(",\"circles\":{\"inc\":");
        let (circles, n) = (&*self.circles, self.circles.len());
        s.uid_lists((0..n).map(|i| circles.have_in_circles(UserId::from_index(i))), n);
        s.raw(",\"out\":");
        s.uid_lists((0..n).map(|i| circles.in_circles_of(UserId::from_index(i))), n);
        s.raw("},\"cities\":");
        s.value(&self.cities.to_json_value());
        s.raw(",\"friends\":{\"adj\":");
        s.uid_lists(self.friends.iter_lists(), self.friends.len());
        s.raw("},\"households\":{\"households\":");
        let (households, of_user) = self.households.fingerprint_parts();
        s.values(households.iter().map(|h| h.to_json_value()), households.len());
        s.raw(",\"of_user\":");
        s.values(of_user.iter().map(|h| h.to_json_value()), of_user.len());
        s.raw("},\"interactions\":{\"per_user\":");
        let per_user = self.interactions.fingerprint_parts();
        if per_user.is_empty() {
            s.raw("[]");
        } else {
            s.raw("[");
            for (i, partners) in per_user.iter().enumerate() {
                if i > 0 {
                    s.raw(",");
                }
                s.pair_list(partners);
            }
            s.raw("]");
        }
        s.raw("},\"schools\":");
        s.value(&self.schools.to_json_value());
        s.raw(",\"today\":");
        s.value(&self.today.to_json_value());
        s.raw(",\"users\":");
        s.values(self.users.iter().map(|u| u.to_json_value()), self.users.len());
        s.raw("}");
        s.finish()
    }

    // ----- accessors -------------------------------------------------------

    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    pub fn user(&self, id: UserId) -> &User {
        &self.users[id.index()]
    }

    pub fn try_user(&self, id: UserId) -> Option<&User> {
        self.users.get(id.index())
    }

    pub fn users(&self) -> impl Iterator<Item = &User> {
        self.users.iter()
    }

    pub fn user_ids(&self) -> impl Iterator<Item = UserId> {
        (0..self.users.len()).map(UserId::from_index)
    }

    pub fn school(&self, id: SchoolId) -> &School {
        &self.schools[id.index()]
    }

    pub fn schools(&self) -> &[School] {
        &self.schools
    }

    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    pub fn friend_graph(&self) -> &FriendGraph {
        &self.friends
    }

    /// Asymmetric circles (Google+, paper Appendix A).
    pub fn circles(&self) -> &Circles {
        &self.circles
    }

    /// Install the circles, built whole by [`Circles::from_pairs`].
    pub fn set_circles(&mut self, circles: Circles) {
        self.circles = Arc::new(circles);
    }

    /// Pairwise interactions (wall-post counts between friends).
    pub fn interactions(&self) -> &Interactions {
        &self.interactions
    }

    pub fn interactions_mut(&mut self) -> &mut Interactions {
        Arc::make_mut(&mut self.interactions)
    }

    /// Ground-truth households (the substrate behind public records).
    pub fn households(&self) -> &Households {
        &self.households
    }

    pub fn households_mut(&mut self) -> &mut Households {
        Arc::make_mut(&mut self.households)
    }

    /// Sorted friend list of `u` (ground truth; the platform decides who
    /// may *see* it).
    pub fn friends(&self, u: UserId) -> &[UserId] {
        self.friends.friends(u)
    }

    pub fn are_friends(&self, a: UserId, b: UserId) -> bool {
        self.friends.are_friends(a, b)
    }

    // ----- paper definitions ----------------------------------------------

    /// The paper's stranger test (§3): `viewer` is a stranger to `target`
    /// iff they are not friends, share no mutual friend, and share no
    /// school/work network.
    pub fn is_stranger(&self, viewer: UserId, target: UserId) -> bool {
        if viewer == target || self.are_friends(viewer, target) {
            return false;
        }
        if self.friends.mutual_friend_count(viewer, target) > 0 {
            return false;
        }
        let vn = &self.user(viewer).profile.networks;
        let tn = &self.user(target).profile.networks;
        !vn.iter().any(|n| tn.contains(n))
    }

    /// Whether the OSN currently considers `u` a minor.
    pub fn is_registered_minor(&self, u: UserId) -> bool {
        self.user(u).is_registered_minor(self.today)
    }

    /// Whether `u` is actually a minor today (ground truth).
    pub fn is_true_minor(&self, u: UserId) -> bool {
        self.user(u).is_true_minor(self.today)
    }

    /// The graduation year of the current senior class.
    pub fn senior_class_year(&self) -> i32 {
        self.calendar.senior_class_year(self.today)
    }

    // ----- ground-truth rosters (the "confidential channel") ---------------

    /// Ground-truth set `M`: user ids of all *actual* current students of
    /// `school` with accounts, sorted by id.
    pub fn roster(&self, school: SchoolId) -> Vec<UserId> {
        if let Some(s) = &self.seal {
            return s.columns.select(UserColumns::CURRENT_STUDENT, school, None);
        }
        self.users.iter().filter(|u| u.role.is_current_student_at(school)).map(|u| u.id).collect()
    }

    /// Ground-truth roster restricted to the class of `grad_year`.
    pub fn roster_for_class(&self, school: SchoolId, grad_year: i32) -> Vec<UserId> {
        if let Some(s) = &self.seal {
            return s.columns.select(UserColumns::CURRENT_STUDENT, school, Some(grad_year));
        }
        self.users
            .iter()
            .filter(|u| {
                matches!(u.role, Role::CurrentStudent { school: s, grad_year: g }
                    if s == school && g == grad_year)
            })
            .map(|u| u.id)
            .collect()
    }

    /// Ground-truth alumni of `school` who graduated in `grad_year`.
    pub fn alumni_of_class(&self, school: SchoolId, grad_year: i32) -> Vec<UserId> {
        if let Some(s) = &self.seal {
            return s.columns.select(UserColumns::ALUMNUS, school, Some(grad_year));
        }
        self.users
            .iter()
            .filter(|u| {
                matches!(u.role, Role::Alumnus { school: s, grad_year: g }
                    if s == school && g == grad_year)
            })
            .map(|u| u.id)
            .collect()
    }

    /// The ground-truth graduation year of a current student, if any.
    pub fn student_grad_year(&self, u: UserId) -> Option<i32> {
        if let Some(s) = &self.seal {
            let c = &s.columns;
            return (c.role_tag(u) == UserColumns::CURRENT_STUDENT).then(|| c.grad_year[u.index()]);
        }
        match self.user(u).role {
            Role::CurrentStudent { grad_year, .. } => Some(grad_year),
            _ => None,
        }
    }
}

// Hand-written serde over exactly the nine legacy fields: the `seal`
// index must never serialize (it is derived state, and including it
// would shift every pre-existing fingerprint), and the shared chunks
// and `Arc`s are invisible. Key order is irrelevant to the byte stream
// — the `Value` object is a BTreeMap.
impl Serialize for Network {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("today".to_string(), self.today.to_json_value());
        m.insert("calendar".to_string(), self.calendar.to_json_value());
        m.insert(
            "users".to_string(),
            Value::Array(self.users.iter().map(|u| u.to_json_value()).collect()),
        );
        m.insert("friends".to_string(), self.friends.to_json_value());
        m.insert("schools".to_string(), self.schools.to_json_value());
        m.insert("cities".to_string(), self.cities.to_json_value());
        m.insert("households".to_string(), self.households.to_json_value());
        m.insert("circles".to_string(), self.circles.to_json_value());
        m.insert("interactions".to_string(), self.interactions.to_json_value());
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for Network {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
            v.get(name).ok_or_else(|| format!("missing field `{name}`"))
        }
        Ok(Network {
            today: Date::from_json_value(field(v, "today")?)?,
            calendar: SchoolCalendar::from_json_value(field(v, "calendar")?)?,
            users: Vec::<User>::from_json_value(field(v, "users")?)?.into_iter().collect(),
            friends: FriendGraph::from_json_value(field(v, "friends")?)?,
            schools: Arc::new(Vec::<School>::from_json_value(field(v, "schools")?)?),
            cities: Arc::new(Vec::<City>::from_json_value(field(v, "cities")?)?),
            households: Arc::new(Households::from_json_value(field(v, "households")?)?),
            circles: Arc::new(Circles::from_json_value(field(v, "circles")?)?),
            interactions: Arc::new(Interactions::from_json_value(field(v, "interactions")?)?),
            seal: None,
        })
    }
}

/// FNV-1a over a JSON byte stream, produced piecewise: small pieces are
/// rendered through the ordinary `Value` path, large arrays (users,
/// adjacency, circles, interactions, households) are streamed
/// element-by-element so the whole document never exists in memory.
struct FnvStream {
    h: u64,
    buf: String,
}

impl FnvStream {
    fn new() -> Self {
        FnvStream { h: 0xcbf2_9ce4_8422_2325, buf: String::new() }
    }

    fn raw(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Hash one value's compact rendering.
    fn value(&mut self, v: &Value) {
        let rendered = v.render_compact();
        self.raw(&rendered);
    }

    /// Hash an array of values, streamed one element at a time.
    fn values(&mut self, items: impl Iterator<Item = Value>, len: usize) {
        if len == 0 {
            self.raw("[]");
            return;
        }
        self.raw("[");
        for (i, v) in items.enumerate() {
            if i > 0 {
                self.raw(",");
            }
            self.value(&v);
        }
        self.raw("]");
    }

    /// Hash an array of `UserId` lists without building `Value`s.
    fn uid_lists<'a>(&mut self, lists: impl Iterator<Item = &'a [UserId]>, len: usize) {
        use std::fmt::Write;
        if len == 0 {
            self.raw("[]");
            return;
        }
        self.raw("[");
        let mut first = true;
        for list in lists {
            if !first {
                self.raw(",");
            }
            first = false;
            self.buf.clear();
            self.buf.push('[');
            for (i, u) in list.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                let _ = write!(self.buf, "{}", u.0);
            }
            self.buf.push(']');
            let piece = std::mem::take(&mut self.buf);
            self.raw(&piece);
            self.buf = piece;
        }
        self.raw("]");
    }

    /// Hash one `[(id, count), ...]` interaction list as `[[id,count],...]`.
    fn pair_list(&mut self, pairs: &[(UserId, u32)]) {
        use std::fmt::Write;
        if pairs.is_empty() {
            self.raw("[]");
            return;
        }
        self.buf.clear();
        self.buf.push('[');
        for (i, (u, n)) in pairs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "[{},{}]", u.0, n);
        }
        self.buf.push(']');
        let piece = std::mem::take(&mut self.buf);
        self.raw(&piece);
        self.buf = piece;
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::PrivacySettings;
    use crate::profile::{EducationEntry, Gender, ProfileContent, Registration};
    use crate::school::SchoolKind;

    fn mk_user(net: &mut Network, role: Role) -> UserId {
        net.add_user(User {
            id: UserId(0),
            true_birth_date: Date::ymd(1996, 5, 1),
            registration: Registration {
                registered_birth_date: Date::ymd(1996, 5, 1),
                registration_date: Date::ymd(2010, 1, 1),
            },
            profile: ProfileContent::bare("T", "U", Gender::Female),
            privacy: PrivacySettings::facebook_adult_default(),
            role,
        })
    }

    fn base_network() -> (Network, SchoolId) {
        let mut net = Network::new(Date::ymd(2012, 3, 15));
        let city = net.add_city("Springfield", "NY");
        let school = net.add_school(School {
            id: SchoolId(0),
            name: "HS1".into(),
            city,
            kind: SchoolKind::HighSchool,
            public_enrollment_estimate: 360,
        });
        (net, school)
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let (mut net, school) = base_network();
        let a = mk_user(&mut net, Role::CurrentStudent { school, grad_year: 2014 });
        let b = mk_user(&mut net, Role::OtherResident);
        assert_eq!(a, UserId(0));
        assert_eq!(b, UserId(1));
        assert_eq!(net.user(a).id, a);
    }

    #[test]
    fn roster_matches_roles() {
        let (mut net, school) = base_network();
        let s1 = mk_user(&mut net, Role::CurrentStudent { school, grad_year: 2014 });
        let s2 = mk_user(&mut net, Role::CurrentStudent { school, grad_year: 2012 });
        let _al = mk_user(&mut net, Role::Alumnus { school, grad_year: 2010 });
        let _other = mk_user(&mut net, Role::OtherResident);
        assert_eq!(net.roster(school), vec![s1, s2]);
        assert_eq!(net.roster_for_class(school, 2014), vec![s1]);
        assert_eq!(net.roster_for_class(school, 2012), vec![s2]);
        assert!(net.alumni_of_class(school, 2010).len() == 1);
        assert_eq!(net.student_grad_year(s1), Some(2014));
        assert_eq!(net.student_grad_year(_other), None);
    }

    #[test]
    fn stranger_test_friend_and_mutual() {
        let (mut net, _school) = base_network();
        let a = mk_user(&mut net, Role::OtherResident);
        let b = mk_user(&mut net, Role::OtherResident);
        let c = mk_user(&mut net, Role::OtherResident);
        assert!(net.is_stranger(a, b));
        // Mutual friend breaks strangerhood.
        net.add_friendship(a, c);
        net.add_friendship(b, c);
        assert!(!net.is_stranger(a, b));
        // Direct friendship too.
        net.add_friendship(a, b);
        assert!(!net.is_stranger(a, b));
        // Never a stranger to yourself.
        assert!(!net.is_stranger(a, a));
    }

    #[test]
    fn stranger_test_shared_network() {
        let (mut net, school) = base_network();
        let a = mk_user(&mut net, Role::OtherResident);
        let b = mk_user(&mut net, Role::OtherResident);
        net.update_user(a, |u| u.profile.networks.push(school));
        net.update_user(b, |u| u.profile.networks.push(school));
        assert!(!net.is_stranger(a, b));
    }

    #[test]
    fn senior_class_in_march_2012() {
        let (net, _) = base_network();
        assert_eq!(net.senior_class_year(), 2012);
    }

    /// A small but fully-populated network exercising every serialized
    /// field: friendships, circles, interactions, households, an extra
    /// city/school, and varied profiles.
    fn populated_network() -> Network {
        let (mut net, school) = base_network();
        let other_city = net.add_city("Farvale", "PA");
        let college = net.add_school(School {
            id: SchoolId(0),
            name: "State College".into(),
            city: other_city,
            kind: SchoolKind::College,
            public_enrollment_estimate: 12_000,
        });
        let s1 = mk_user(&mut net, Role::CurrentStudent { school, grad_year: 2014 });
        let s2 = mk_user(&mut net, Role::CurrentStudent { school, grad_year: 2013 });
        let al = mk_user(&mut net, Role::Alumnus { school, grad_year: 2008 });
        let pa = mk_user(&mut net, Role::Parent { children: vec![s1] });
        net.update_user(s1, |u| {
            u.profile.education.push(EducationEntry::high_school(school, 2014))
        });
        net.update_user(s2, |u| u.profile.networks.push(school));
        net.update_user(al, |u| {
            u.profile.education.push(EducationEntry::high_school(school, 2008));
            u.profile.education.push(EducationEntry::college(college, None));
        });
        net.add_friendship(s1, s2);
        net.add_friendship(s1, al);
        net.add_friendship(pa, s1);
        net.set_circles(Circles::from_pairs(net.user_count(), [(s2, al)].into_iter()));
        net.interactions_mut().bulk_insert([(s1, s2, 4), (s1, al, 1)]);
        let h = net.households_mut().add("12 Oak St".into(), CityId(0), vec![pa]);
        net.households_mut().join(h, s1);
        net
    }

    #[test]
    fn streamed_fingerprint_matches_rendered() {
        let net = populated_network();
        let rendered = serde_json::to_vec(&net).expect("network serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &rendered {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(net.fingerprint(), h, "streamed fingerprint drifted from rendered JSON");
        // And the empty network agrees too.
        let empty = Network::new(Date::ymd(2012, 3, 15));
        let rendered = serde_json::to_vec(&empty).unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &rendered {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(empty.fingerprint(), h);
    }

    #[test]
    fn sealing_preserves_fingerprint_and_answers() {
        let mut net = populated_network();
        let before = net.fingerprint();
        let school = net.schools()[0].id;
        let roster = net.roster(school);
        let class = net.roster_for_class(school, 2014);
        let alumni = net.alumni_of_class(school, 2008);
        net.seal();
        assert!(net.is_sealed());
        assert!(net.friend_graph().is_sealed());
        assert_eq!(net.fingerprint(), before, "sealing must not change the fingerprint");
        assert_eq!(net.roster(school), roster);
        assert_eq!(net.roster_for_class(school, 2014), class);
        assert_eq!(net.alumni_of_class(school, 2008), alumni);
        for u in net.user_ids() {
            assert_eq!(
                net.student_grad_year(u),
                match net.user(u).role {
                    Role::CurrentStudent { grad_year, .. } => Some(grad_year),
                    _ => None,
                }
            );
        }
    }

    #[test]
    fn sealed_listers_cover_profile_school_ties() {
        let mut net = populated_network();
        assert!(net.school_listers(SchoolId(0)).is_none(), "unsealed network has no listers");
        net.seal();
        let school = net.schools()[0].id;
        let listers = net.school_listers(school).unwrap().to_vec();
        // Exactly the users with an education entry or network for HS1.
        let expect: Vec<UserId> = net
            .user_ids()
            .filter(|&u| {
                let p = &net.user(u).profile;
                p.education.iter().any(|e| e.school == school) || p.networks.contains(&school)
            })
            .collect();
        assert_eq!(listers, expect);
        assert!(!listers.is_empty());
        // Unknown school index answers empty, not a panic.
        assert_eq!(net.school_listers(SchoolId(99)).unwrap(), &[] as &[UserId]);
    }

    #[test]
    fn live_edits_keep_the_seal() {
        let mut net = populated_network();
        net.seal();
        net.add_friendship(UserId(0), UserId(3));
        assert!(net.is_sealed(), "edge edits patch the sealed adjacency");
        assert!(net.friend_graph().is_sealed());
        assert!(net.are_friends(UserId(0), UserId(3)));
        assert!(net.remove_friendship(UserId(0), UserId(3)));
        assert!(!net.are_friends(UserId(3), UserId(0)));
        // A user edit re-derives the columns and the listers.
        let school = net.schools()[0].id;
        net.update_user(UserId(3), |user| {
            user.privacy.public_search = false;
            user.profile.networks.push(school);
        });
        assert!(net.is_sealed());
        assert!(!net.sealed_columns().unwrap().public_search(UserId(3)));
        assert!(net.school_listers(school).unwrap().contains(&UserId(3)));
    }

    #[test]
    fn serde_round_trip_ignores_seal_state() {
        let mut net = populated_network();
        let before = net.fingerprint();
        net.seal();
        let bytes = serde_json::to_vec(&net).unwrap();
        let back: Network = serde_json::from_slice(&bytes).unwrap();
        assert!(!back.is_sealed(), "round-trip lands in the building layout");
        assert_eq!(back.fingerprint(), before);
    }

    #[test]
    fn with_capacity_matches_incremental_build() {
        let mut a = Network::with_capacity(Date::ymd(2012, 3, 15), 64);
        let mut b = Network::new(Date::ymd(2012, 3, 15));
        for net in [&mut a, &mut b] {
            net.add_city("Springfield", "NY");
            let school = net.add_school(School {
                id: SchoolId(0),
                name: "HS1".into(),
                city: CityId(0),
                kind: SchoolKind::HighSchool,
                public_enrollment_estimate: 360,
            });
            let s1 = mk_user(net, Role::CurrentStudent { school, grad_year: 2014 });
            let s2 = mk_user(net, Role::OtherResident);
            net.add_friendship(s1, s2);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
