//! The Find-Friends portal and graph-search endpoints.
//!
//! Search is the attacker's entry point. Faithful to §3.1:
//!
//! - results never include registered minors (the policy decides);
//! - one account only ever sees a capped, account-specific sample of the
//!   associated users ("The stranger can also attempt to obtain
//!   additional users by creating additional fake accounts");
//! - results arrive in AJAX pages.

use crate::config::PlatformConfig;
use hsp_graph::{Network, SchoolId, UserId};
use hsp_obs::trace::splitmix64;
use hsp_policy::Policy;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Caches the searchable pool per school and serves per-account pages.
pub struct SearchIndex {
    pools: Mutex<HashMap<SchoolId, Vec<UserId>>>,
}

impl SearchIndex {
    pub fn new() -> Self {
        SearchIndex { pools: Mutex::new(HashMap::new()) }
    }

    /// All users the policy lets a stranger find for `school`, in id
    /// order (cached).
    ///
    /// On a sealed network the candidate set shrinks from the whole
    /// population to the per-school lister index (every policy's search
    /// rule requires a stranger-visible profile tie to the school), with
    /// the seal-time public-search bit as a first cheap cut — the
    /// difference between a metro-scale city (dozens of schools over a
    /// million users) and a single-school world is a few thousand
    /// candidates per school either way.
    fn pool(&self, net: &Network, policy: &dyn Policy, school: SchoolId) -> Vec<UserId> {
        let mut pools = self.pools.lock();
        pools
            .entry(school)
            .or_insert_with(|| match (net.school_listers(school), net.sealed_columns()) {
                (Some(listers), cols) => listers
                    .iter()
                    .copied()
                    .filter(|&u| cols.is_none_or(|c| c.public_search(u)))
                    .filter(|&u| policy.searchable_by_school(net, u, school))
                    .collect(),
                (None, _) => net
                    .user_ids()
                    .filter(|&u| policy.searchable_by_school(net, u, school))
                    .collect(),
            })
            .clone()
    }

    /// The account-specific result list.
    ///
    /// Modelled on what the paper's attacker observed: each fake account
    /// sees a *different, capped, largely non-overlapping* slice of the
    /// users associated with the school (their HS2 crawl collected 1,559
    /// distinct seeds from 4×400-capped result sets — nearly disjoint).
    /// We model the portal as serving shards of a globally (per-school)
    /// shuffled result space: account `i` receives shard `i mod G`,
    /// where `G = max(1, pool/cap)`, ordered by an account-keyed
    /// shuffle. Small pools (G = 1) are served whole to every account,
    /// which is what the paper saw at the small HS1.
    pub fn results_for_account(
        &self,
        net: &Network,
        policy: &dyn Policy,
        config: &PlatformConfig,
        school: SchoolId,
        account_index: usize,
    ) -> Vec<UserId> {
        let mut pool = self.pool(net, policy, school);
        // Global, account-independent shard layout.
        deterministic_shuffle(&mut pool, hash2(0x61_0b_a1, school.0 as u64));
        let cap = config.search_cap_per_account;
        let shards = (pool.len() / cap).max(1);
        let shard = account_index % shards;
        let start = shard * cap;
        let end = (start + cap).min(pool.len());
        let mut slice = pool[start.min(pool.len())..end].to_vec();
        // Present each account its shard in its own order.
        deterministic_shuffle(&mut slice, hash2(account_index as u64, school.0 as u64));
        slice
    }

    /// One page of results. Returns the entries and whether more pages
    /// remain.
    pub fn page(
        &self,
        net: &Network,
        policy: &dyn Policy,
        config: &PlatformConfig,
        school: SchoolId,
        account_index: usize,
        page: usize,
    ) -> (Vec<UserId>, bool) {
        let results = self.results_for_account(net, policy, config, school, account_index);
        let start = page.saturating_mul(config.search_page_size).min(results.len());
        let end = (start + config.search_page_size).min(results.len());
        let has_more = end < results.len();
        (results[start..end].to_vec(), has_more)
    }

    /// Graph-search refinement ("current students at HS1 who live in
    /// city1", §3.1): the same pool filtered by extra predicates, still
    /// excluding registered minors by construction.
    #[allow(clippy::too_many_arguments)]
    pub fn graph_search(
        &self,
        net: &Network,
        policy: &dyn Policy,
        config: &PlatformConfig,
        school: SchoolId,
        account_index: usize,
        current_only: bool,
        city: Option<hsp_graph::CityId>,
    ) -> Vec<UserId> {
        let senior = net.senior_class_year();
        self.results_for_account(net, policy, config, school, account_index)
            .into_iter()
            .filter(|&u| {
                let view = policy.stranger_view(net, u);
                if current_only
                    && !view
                        .education
                        .iter()
                        .any(|e| e.school == school && e.grad_year.is_some_and(|g| g >= senior))
                {
                    return false;
                }
                if let Some(city) = city {
                    if view.current_city != Some(city) {
                        return false;
                    }
                }
                true
            })
            .collect()
    }
}

impl Default for SearchIndex {
    fn default() -> Self {
        Self::new()
    }
}

fn hash2(a: u64, b: u64) -> u64 {
    splitmix64(a.wrapping_mul(0x517c_c1b7_2722_0a95) ^ b)
}

/// Fisher–Yates with a splitmix stream — deterministic, independent of
/// the `rand` crate's version-specific streams.
fn deterministic_shuffle(items: &mut [UserId], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_deterministic_and_a_permutation() {
        let base: Vec<UserId> = (0..50).map(UserId).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        deterministic_shuffle(&mut a, 42);
        deterministic_shuffle(&mut b, 42);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, base);
        let mut c = base.clone();
        deterministic_shuffle(&mut c, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn hash2_varies_in_both_arguments() {
        assert_ne!(hash2(1, 2), hash2(2, 1));
        assert_ne!(hash2(1, 2), hash2(1, 3));
    }
}
