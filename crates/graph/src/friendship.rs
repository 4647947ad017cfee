//! Friendship storage: symmetric adjacency (Facebook-style friendships)
//! and asymmetric circles (Google+-style, paper Appendix A).

use crate::ids::UserId;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Symmetric friendship adjacency, one sorted neighbour list per user.
///
/// Sorted lists give `O(log n)` membership queries and cheap sorted-merge
/// mutual-friend counting, which the stranger test and the Jaccard
/// inference (paper §6.1) lean on heavily.
///
/// Two physical layouts share this one logical type:
///
/// - **Building** — one `Vec<UserId>` per user. Cheap to mutate; three
///   pointers of header plus a separate allocation per user.
/// - **Sealed** — frozen CSR (compressed sparse row) behind an `Arc`:
///   one offsets array and one flat edge array, so neighbour lists are
///   contiguous slices with no per-user allocation, and a metro-scale
///   world drops from ~50 B to ~8 B of overhead per edge endpoint. Lists
///   rewritten since sealing live in a per-user patch that shadows
///   their CSR rows.
///
/// Sealing ([`FriendGraph::seal`], usually via `Network::seal`) is a
/// pure layout change: every accessor answers identically and the serde
/// form is the legacy `{"adj": [[...]]}` either way. A sealed graph
/// stays sealed under `add_friendship`, `remove_friendship` and
/// `ensure_users`: each edit rewrites only the two lists it touches into
/// the patch, and a clone shares the CSR, so a copy-and-edit costs the
/// patch, not the graph. Only `bulk_insert` thaws back to Building.
#[derive(Clone, Debug)]
pub struct FriendGraph {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    Building(Vec<Vec<UserId>>),
    Sealed(Sealed),
}

/// Frozen compressed-sparse-row lists: `edges[offsets[u] as usize
/// .. offsets[u + 1] as usize]` is the sorted list of user `u` (their
/// friends in a [`FriendGraph`], one direction of [`Circles`]).
#[derive(Debug, PartialEq)]
struct Csr {
    offsets: Vec<u64>,
    edges: Vec<UserId>,
}

impl Default for Csr {
    fn default() -> Self {
        Csr { offsets: vec![0], edges: Vec::new() }
    }
}

impl Csr {
    /// Directed rows from `(row, member)` pairs: count, prefix sum,
    /// scatter, then sort and dedup each row. Self-links are dropped.
    fn from_pairs(users: usize, pairs: impl Iterator<Item = (UserId, UserId)> + Clone) -> Csr {
        let links = pairs.filter(|(a, b)| a != b);
        let mut degree = vec![0u64; users];
        for (a, _) in links.clone() {
            degree[a.index()] += 1;
        }
        let offsets = prefix_sum(&degree);
        let mut flat = vec![UserId(0); offsets[users] as usize];
        let mut cursor: Vec<u64> = offsets[..users].to_vec();
        for (a, b) in links {
            flat[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
        }
        Csr::sort_rows(&offsets, flat)
    }

    /// Sort each scattered row of `flat` (row `u` spans
    /// `offsets[u]..offsets[u + 1]`), then compact duplicates in place.
    /// The write cursor never passes the read cursor, so this is safe.
    fn sort_rows(offsets: &[u64], mut flat: Vec<UserId>) -> Csr {
        let users = offsets.len() - 1;
        let mut write = 0usize;
        let mut compacted = Vec::with_capacity(users + 1);
        compacted.push(0u64);
        for u in 0..users {
            let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
            flat[start..end].sort_unstable();
            let mut prev = None;
            for read in start..end {
                let v = flat[read];
                if prev != Some(v) {
                    flat[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            compacted.push(write as u64);
        }
        flat.truncate(write);
        Csr { offsets: compacted, edges: flat }
    }

    fn users(&self) -> usize {
        self.offsets.len() - 1
    }

    fn list(&self, i: usize) -> &[UserId] {
        if i < self.users() {
            &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
        } else {
            &[]
        }
    }
}

/// The sealed layout: a shared CSR plus the lists edited since.
#[derive(Clone, Debug)]
struct Sealed {
    csr: Arc<Csr>,
    /// Users whose list changed after sealing, with their whole new
    /// list; an entry shadows the user's CSR row. Only looked up by key.
    patch: HashMap<UserId, Arc<[UserId]>>,
    /// Users tracked, at least `csr.users()`; later ones are signups.
    users: usize,
}

impl Sealed {
    fn new(csr: Csr) -> Sealed {
        Sealed { users: csr.users(), csr: Arc::new(csr), patch: HashMap::new() }
    }

    fn list(&self, u: UserId) -> &[UserId] {
        match self.patch.get(&u) {
            Some(list) => list,
            None => self.csr.list(u.index()),
        }
    }
}

impl Default for FriendGraph {
    fn default() -> Self {
        FriendGraph { repr: Repr::Building(Vec::new()) }
    }
}

impl FriendGraph {
    pub fn with_capacity(users: usize) -> Self {
        FriendGraph { repr: Repr::Building(vec![Vec::new(); users]) }
    }

    /// Reserve outer-table capacity for `users` users (no-op when
    /// sealed — the CSR layout is already exactly sized).
    pub fn reserve(&mut self, users: usize) {
        if let Repr::Building(adj) = &mut self.repr {
            if users > adj.len() {
                adj.reserve(users - adj.len());
            }
        }
    }

    /// Number of users the graph currently tracks.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Building(adj) => adj.len(),
            Repr::Sealed(s) => s.users,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the graph is in the frozen CSR layout.
    pub fn is_sealed(&self) -> bool {
        matches!(self.repr, Repr::Sealed(_))
    }

    /// Freeze into the CSR layout. Idempotent; a no-op on an already
    /// sealed graph. Neighbour lists are already sorted, so this is one
    /// prefix sum plus one flat copy.
    pub fn seal(&mut self) {
        if let Repr::Building(adj) = &self.repr {
            let mut offsets = Vec::with_capacity(adj.len() + 1);
            let mut total = 0u64;
            offsets.push(0);
            for list in adj {
                total += list.len() as u64;
                offsets.push(total);
            }
            let mut edges = Vec::with_capacity(total as usize);
            for list in adj {
                edges.extend_from_slice(list);
            }
            self.repr = Repr::Sealed(Sealed::new(Csr { offsets, edges }));
        }
    }

    /// Build a sealed graph directly from an undirected edge list —
    /// the metro-scale fast path: degree count, prefix sum, scatter,
    /// then per-row sort + in-place dedup. Never materializes per-user
    /// `Vec`s. Self-loops and duplicate edges are dropped.
    pub fn from_edge_list(users: usize, edges: &[(UserId, UserId)]) -> FriendGraph {
        let mut degree = vec![0u64; users];
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let offsets = prefix_sum(&degree);
        let mut flat = vec![UserId(0); offsets[users] as usize];
        let mut cursor: Vec<u64> = offsets[..users].to_vec();
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            flat[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            flat[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        FriendGraph { repr: Repr::Sealed(Sealed::new(Csr::sort_rows(&offsets, flat))) }
    }

    /// Mutable Building-layout view, thawing a sealed graph first.
    fn building(&mut self) -> &mut Vec<Vec<UserId>> {
        if let Repr::Sealed(_) = &self.repr {
            let adj = self.iter_lists().map(<[UserId]>::to_vec).collect();
            self.repr = Repr::Building(adj);
        }
        match &mut self.repr {
            Repr::Building(adj) => adj,
            Repr::Sealed(_) => unreachable!("just thawed"),
        }
    }

    /// Apply `edit` to `u`'s list in either layout; a sealed graph
    /// writes the edited copy to its patch when `edit` reports a change.
    fn edit(&mut self, u: UserId, edit: impl FnOnce(&mut Vec<UserId>) -> bool) -> bool {
        match &mut self.repr {
            Repr::Building(adj) => edit(&mut adj[u.index()]),
            Repr::Sealed(s) => {
                let mut list = s.list(u).to_vec();
                let changed = edit(&mut list);
                if changed {
                    s.patch.insert(u, list.into());
                }
                changed
            }
        }
    }

    /// Grow the user table to at least `users` entries.
    pub fn ensure_users(&mut self, users: usize) {
        match &mut self.repr {
            Repr::Building(adj) if adj.len() < users => adj.resize(users, Vec::new()),
            Repr::Building(_) => {}
            Repr::Sealed(s) => s.users = s.users.max(users),
        }
    }

    /// Insert a symmetric friendship. Self-links are ignored; duplicate
    /// insertions are idempotent. Returns `true` if the edge was new.
    pub fn add_friendship(&mut self, a: UserId, b: UserId) -> bool {
        if a == b {
            return false;
        }
        self.ensure_users(a.index().max(b.index()) + 1);
        let inserted = self.edit(a, |list| Self::insert_sorted(list, b));
        if inserted {
            self.edit(b, |list| Self::insert_sorted(list, a));
        }
        inserted
    }

    fn insert_sorted(list: &mut Vec<UserId>, v: UserId) -> bool {
        match list.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, v);
                true
            }
        }
    }

    /// Remove a symmetric friendship. Returns `true` if the edge
    /// existed (removal happens on both sides); removing a missing or
    /// self edge is a no-op.
    pub fn remove_friendship(&mut self, a: UserId, b: UserId) -> bool {
        if a == b || a.index() >= self.len() || b.index() >= self.len() {
            return false;
        }
        let removed = self.edit(a, |list| Self::remove_sorted(list, b));
        if removed {
            self.edit(b, |list| Self::remove_sorted(list, a));
        }
        removed
    }

    fn remove_sorted(list: &mut Vec<UserId>, v: UserId) -> bool {
        match list.binary_search(&v) {
            Ok(pos) => {
                list.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The sorted friend list of `u` (empty if out of range). In the
    /// sealed layout this is a slice of the flat CSR edge array, or of
    /// the user's patched list once an edit touched them.
    pub fn friends(&self, u: UserId) -> &[UserId] {
        match &self.repr {
            Repr::Building(adj) => adj.get(u.index()).map(Vec::as_slice).unwrap_or(&[]),
            Repr::Sealed(s) => s.list(u),
        }
    }

    /// Iterate every user's friend list in id order (both layouts).
    pub fn iter_lists(&self) -> impl Iterator<Item = &[UserId]> + '_ {
        (0..self.len()).map(move |i| self.friends(UserId::from_index(i)))
    }

    /// Degree of `u`.
    pub fn degree(&self, u: UserId) -> usize {
        self.friends(u).len()
    }

    /// Whether `a` and `b` are friends (binary search: `O(log d)`).
    pub fn are_friends(&self, a: UserId, b: UserId) -> bool {
        self.friends(a).binary_search(&b).is_ok()
    }

    /// Number of mutual friends of `a` and `b` (sorted-merge intersection).
    pub fn mutual_friend_count(&self, a: UserId, b: UserId) -> usize {
        sorted_intersection_len(self.friends(a), self.friends(b))
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        match &self.repr {
            Repr::Building(adj) => adj.iter().map(Vec::len).sum::<usize>() / 2,
            Repr::Sealed(s) => {
                let patched: usize = s.patch.values().map(|l| l.len()).sum();
                let shadowed: usize = s.patch.keys().map(|&u| s.csr.list(u.index()).len()).sum();
                (s.csr.edges.len() + patched - shadowed) / 2
            }
        }
    }

    /// Insert many edges at once: appends then sorts/dedups each
    /// adjacency list, which is `O(E log d)` instead of the `O(E · d)`
    /// of repeated sorted insertion. Self-loops and duplicates are
    /// dropped. Intended for the population generator.
    pub fn bulk_insert(&mut self, edges: impl IntoIterator<Item = (UserId, UserId)>) {
        let mut touched = Vec::new();
        {
            // Pre-grow outside the loop borrow, then fill.
            let mut max = self.len();
            let edges: Vec<(UserId, UserId)> = edges.into_iter().filter(|(a, b)| a != b).collect();
            for &(a, b) in &edges {
                max = max.max(a.index().max(b.index()) + 1);
            }
            self.ensure_users(max);
            let adj = self.building();
            for (a, b) in edges {
                adj[a.index()].push(b);
                adj[b.index()].push(a);
                touched.push(a);
                touched.push(b);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let adj = self.building();
        for u in touched {
            let list = &mut adj[u.index()];
            list.sort_unstable();
            list.dedup();
        }
    }
}

// Hand-written serde: both layouts round-trip through the legacy
// `{"adj": [[...]]}` form, so `Network::fingerprint` is layout-blind
// and sealed worlds deserialize back into the mutable Building state.
impl Serialize for FriendGraph {
    fn to_json_value(&self) -> Value {
        let adj: Vec<Value> = self
            .iter_lists()
            .map(|list| Value::Array(list.iter().map(|u| u.to_json_value()).collect()))
            .collect();
        let mut m = serde::value::Map::new();
        m.insert("adj".to_string(), Value::Array(adj));
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for FriendGraph {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        let adj = v.get("adj").ok_or_else(|| "missing field `adj`".to_string())?;
        Ok(FriendGraph { repr: Repr::Building(Vec::<Vec<UserId>>::from_json_value(adj)?) })
    }
}

/// Row offsets from per-row counts: `0` followed by their running sum.
fn prefix_sum(counts: &[u64]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut total = 0u64;
    offsets.push(0);
    for &d in counts {
        total += d;
        offsets.push(total);
    }
    offsets
}

/// Length of the intersection of two sorted, deduplicated slices.
pub fn sorted_intersection_len(a: &[UserId], b: &[UserId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard index of two sorted friend lists, per the paper's hidden-link
/// inference (§6.1): `|A ∩ B| / |A ∪ B|`. Returns 0 for two empty lists.
pub fn jaccard_index(a: &[UserId], b: &[UserId]) -> f64 {
    let inter = sorted_intersection_len(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Asymmetric circle membership, Google+-style: `a` may have `b` in her
/// circles without `b` reciprocating (paper Appendix A).
///
/// Two CSR tables, `out` (whom each user has in her circles) and `inc`
/// (who has each user in theirs), built in one bulk pass by
/// [`Circles::from_pairs`]; no live-world event edits them. The serde
/// form is `{"inc": [[...]], "out": [[...]]}`, one sorted list per user.
#[derive(Debug, Default, PartialEq)]
pub struct Circles {
    out: Csr,
    inc: Csr,
}

impl Circles {
    /// Circles over at least `users` users (more if a pair names a
    /// higher id) from `(a, b)` pairs, "`a` has `b` in her circles":
    /// each list sorted, repeats collapsed, self-links dropped.
    pub fn from_pairs(users: usize, pairs: impl Iterator<Item = (UserId, UserId)> + Clone) -> Self {
        let users = pairs
            .clone()
            .filter(|(a, b)| a != b)
            .fold(users, |n, (a, b)| n.max(a.index().max(b.index()) + 1));
        let out = Csr::from_pairs(users, pairs.clone());
        let inc = Csr::from_pairs(users, pairs.map(|(a, b)| (b, a)));
        Circles { out, inc }
    }

    /// Number of users with a (possibly empty) list in each direction.
    pub(crate) fn len(&self) -> usize {
        self.out.users()
    }

    /// Users in `u`'s circles.
    pub fn in_circles_of(&self, u: UserId) -> &[UserId] {
        self.out.list(u.index())
    }

    /// Users who have `u` in their circles.
    pub fn have_in_circles(&self, u: UserId) -> &[UserId] {
        self.inc.list(u.index())
    }
}

impl Serialize for Circles {
    fn to_json_value(&self) -> Value {
        let lists = |csr: &Csr| {
            let rows = (0..csr.users()).map(|u| csr.list(u));
            Value::Array(
                rows.map(|l| Value::Array(l.iter().map(|u| u.to_json_value()).collect())).collect(),
            )
        };
        let mut m = serde::value::Map::new();
        m.insert("inc".to_string(), lists(&self.inc));
        m.insert("out".to_string(), lists(&self.out));
        Value::Object(m)
    }
}

// Built from `out` alone; `inc` must be its transpose.
impl<'de> Deserialize<'de> for Circles {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        let lists = |name: &str| {
            let field = v.get(name).ok_or_else(|| format!("missing field `{name}`"))?;
            Vec::<Vec<UserId>>::from_json_value(field)
        };
        let (out, inc) = (lists("out")?, lists("inc")?);
        let pairs = out
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |&b| (UserId::from_index(a), b)));
        let circles = Circles::from_pairs(out.len(), pairs);
        let transposed = circles.len() == inc.len()
            && inc
                .iter()
                .enumerate()
                .all(|(b, row)| circles.have_in_circles(UserId::from_index(b)) == row);
        if !transposed {
            return Err("circles: `inc` is not the transpose of `out`".to_string());
        }
        Ok(circles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId(i)
    }

    #[test]
    fn friendship_is_symmetric_and_idempotent() {
        let mut g = FriendGraph::default();
        assert!(g.add_friendship(u(1), u(2)));
        assert!(!g.add_friendship(u(2), u(1)));
        assert!(g.are_friends(u(1), u(2)));
        assert!(g.are_friends(u(2), u(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_friendship_is_symmetric() {
        let mut g = FriendGraph::default();
        g.add_friendship(u(1), u(2));
        g.add_friendship(u(1), u(3));
        assert!(g.remove_friendship(u(2), u(1)));
        assert!(!g.are_friends(u(1), u(2)));
        assert!(!g.are_friends(u(2), u(1)));
        assert!(g.are_friends(u(1), u(3)), "unrelated edges survive");
        assert!(!g.remove_friendship(u(1), u(2)), "double-remove is a no-op");
        assert!(!g.remove_friendship(u(7), u(8)), "out-of-range is a no-op");
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_friendship_rejected() {
        let mut g = FriendGraph::default();
        assert!(!g.add_friendship(u(3), u(3)));
        assert_eq!(g.degree(u(3)), 0);
    }

    #[test]
    fn friend_lists_stay_sorted() {
        let mut g = FriendGraph::default();
        for i in [5u64, 1, 9, 3, 7] {
            g.add_friendship(u(0), u(i));
        }
        let f = g.friends(u(0));
        assert!(f.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn mutual_friends_counted() {
        let mut g = FriendGraph::default();
        // 1 and 2 share friends 3 and 4; 5 is only 1's friend.
        g.add_friendship(u(1), u(3));
        g.add_friendship(u(1), u(4));
        g.add_friendship(u(1), u(5));
        g.add_friendship(u(2), u(3));
        g.add_friendship(u(2), u(4));
        assert_eq!(g.mutual_friend_count(u(1), u(2)), 2);
        assert_eq!(g.mutual_friend_count(u(1), u(5)), 0);
    }

    #[test]
    fn bulk_insert_matches_incremental() {
        let edges = [(1u64, 2), (2, 3), (1, 2), (4, 4), (0, 5), (5, 0), (3, 1)];
        let mut bulk = FriendGraph::default();
        bulk.bulk_insert(edges.iter().map(|&(a, b)| (u(a), u(b))));
        let mut inc = FriendGraph::default();
        for &(a, b) in &edges {
            inc.add_friendship(u(a), u(b));
        }
        for i in 0..6 {
            assert_eq!(bulk.friends(u(i)), inc.friends(u(i)), "user {i}");
        }
        assert_eq!(bulk.edge_count(), inc.edge_count());
    }

    #[test]
    fn sealed_edits_patch_without_thawing() {
        let mut building = FriendGraph::default();
        for (a, b) in [(0u64, 1), (1, 2), (2, 3), (0, 3)] {
            building.add_friendship(u(a), u(b));
        }
        let mut sealed = building.clone();
        sealed.seal();
        let before = sealed.clone();
        for g in [&mut building, &mut sealed] {
            assert!(g.add_friendship(u(1), u(5)), "a new user past the CSR");
            assert!(g.remove_friendship(u(2), u(1)));
            assert!(!g.remove_friendship(u(2), u(1)));
            assert!(!g.add_friendship(u(0), u(1)));
        }
        assert!(sealed.is_sealed(), "edits must not thaw the CSR");
        assert_eq!(sealed.len(), building.len());
        assert!(sealed.iter_lists().eq(building.iter_lists()));
        assert_eq!(sealed.edge_count(), building.edge_count());
        // The clone taken before the edits still sees the old graph.
        assert!(before.are_friends(u(1), u(2)));
        assert_eq!((before.len(), before.edge_count()), (4, 4));
    }

    #[test]
    fn out_of_range_queries_are_empty() {
        let g = FriendGraph::default();
        assert_eq!(g.friends(u(99)), &[] as &[UserId]);
        assert!(!g.are_friends(u(1), u(2)));
    }

    #[test]
    fn jaccard_basics() {
        let a: Vec<UserId> = [1u64, 2, 3, 4].iter().map(|&i| u(i)).collect();
        let b: Vec<UserId> = [3u64, 4, 5, 6].iter().map(|&i| u(i)).collect();
        let j = jaccard_index(&a, &b);
        assert!((j - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(jaccard_index(&[], &[]), 0.0);
        assert_eq!(jaccard_index(&a, &a), 1.0);
    }

    #[test]
    fn circles_round_trip_through_json() {
        let pairs = [(3u64, 1), (1, 3), (3, 0), (3, 1), (2, 2), (0, 3)];
        let c = Circles::from_pairs(6, pairs.iter().map(|&(a, b)| (u(a), u(b))));
        assert_eq!(
            (c.len(), c.in_circles_of(u(3)), c.have_in_circles(u(3))),
            (6, &[u(0), u(1)][..], &[u(0), u(1)][..])
        );
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#"{"inc":[[3],[3],[],[0,1],[],[]],"out":[[3],[3],[],[0,1],[],[]]}"#);
        let back: Circles = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        let bad = r#"{"inc":[[],[]],"out":[[1],[]]}"#;
        assert!(serde_json::from_str::<Circles>(bad).is_err(), "inc must be the transpose of out");
    }

    #[test]
    fn circles_are_asymmetric() {
        let c = Circles::from_pairs(0, [(u(1), u(2))].into_iter());
        assert_eq!(c.in_circles_of(u(1)), &[u(2)]);
        assert_eq!(c.have_in_circles(u(2)), &[u(1)]);
        // The reverse direction was NOT created.
        assert_eq!(c.in_circles_of(u(2)), &[] as &[UserId]);
        assert_eq!(c.have_in_circles(u(1)), &[] as &[UserId]);
    }
}
