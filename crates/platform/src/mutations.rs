//! Deterministic virtual-time mutation engine — the "live world".
//!
//! Every experiment before this module crawled a frozen graph. The
//! paper's real threat is continuous monitoring of a population that
//! keeps moving (§2, §8): users sign up, friend and defriend, flip
//! privacy settings, deactivate, and graduate out of the school at the
//! year boundary. A [`MutationPlan`] declares per-mille probabilities
//! per virtual-time tick for each mutation class; a [`MutationEngine`]
//! expands the plan into an immutable event schedule at construction
//! using the same SplitMix64 keying discipline as `FaultEngine`
//! (`splitmix64(seed ⊕ key-mix ⊕ tick-mix)`), so the schedule is a pure
//! function of `(seed, plan, base network)` — never of request arrival
//! order or thread interleaving.
//!
//! Serving is *as-of-time*: a request carries its seat clock in
//! `x-virtual-now-ms` (falling back to the platform clock), the engine
//! resolves it to a **generation** (the number of scheduled events at or
//! before that instant) and serves a memoized snapshot of the world at
//! that generation. Because each crawler account's request stream and
//! per-seat clock are deterministic, the page any request sees — and the
//! engine's [`state digest`](MutationEngine::state_digest) — replay
//! bit-identically at any worker count.
//!
//! Generations share structure. The base network is generation 0, held
//! outside the engine's lock; every later generation is a clone of its
//! nearest cached ancestor plus the missing events, and a `Network`
//! clone shares every chunk, list and table an event does not write, so
//! a generation costs what its events touch. Events edit only through
//! the methods that keep the network sealed, so every generation keeps
//! the seal-time indexes that search fills read.
//!
//! A plan with no enabled rates (or `enabled: false`) produces an empty
//! schedule: [`MutationEngine::is_live`] is `false`, the platform serves
//! every request from generation 0 without reading its clock, taking the
//! engine's lock or tallying a serve, and a mutation-rate-zero run is
//! byte-identical to the frozen-world baseline.

use crate::search::SearchIndex;
use hsp_graph::{
    Date, Gender, Network, PrivacySettings, ProfileContent, Registration, Role, User, UserId,
};
use hsp_obs::trace::{fnv1a_chain, splitmix64, SpanRecord, FNV_OFFSET, SLOT_MUTATION};
use hsp_obs::{Registry, TraceCtx, TRACE_SEED};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Trace lane reserved for world mutations (no account ever hashes to
/// it: account lanes are FNV-1a of a username). `TraceCtx::derive`
/// mixes lanes with wrapping arithmetic, so the all-ones lane is safe.
pub const WORLD_LANE: u64 = u64::MAX;

/// Maximum memoized world snapshots, generation 0 included (it is
/// always retained).
/// Eviction only trades CPU for memory: a world is a pure function of
/// its generation, so rebuilding an evicted one changes nothing.
const MAX_CACHED_WORLDS: usize = 16;

/// Declarative churn schedule. Probabilities are per-mille (0–1000) per
/// `tick_ms` of virtual time; `0` disables that mutation class. The
/// all-zero [`Default`] plan schedules nothing, so ordinary experiments
/// are untouched.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutationPlan {
    /// Master switch; `false` short-circuits schedule expansion.
    pub enabled: bool,
    /// Seed of the mutation RNG streams.
    pub seed: u64,
    /// Width of one scheduling tick, in virtual milliseconds.
    pub tick_ms: u64,
    /// How far into virtual time the schedule extends. Requests beyond
    /// the horizon see the final generation.
    pub horizon_ms: u64,
    /// A new (adult, unaffiliated) account signs up.
    pub signup_per_mille: u32,
    /// Two existing users friend each other.
    pub friend_per_mille: u32,
    /// An existing user drops one friend.
    pub defriend_per_mille: u32,
    /// A user flips their privacy settings (locked ↔ wide open).
    pub privacy_flip_per_mille: u32,
    /// A user deactivates: profile tombstoned, settings locked,
    /// withdrawn from search.
    pub deactivate_per_mille: u32,
    /// School-year boundaries, in virtual ms: at each instant every
    /// current senior graduates to `Alumnus` and their profile is
    /// tombstoned ("moved away" from the attacker's viewpoint).
    pub rollover_at_ms: Vec<u64>,
}

impl Default for MutationPlan {
    fn default() -> MutationPlan {
        MutationPlan {
            enabled: false,
            seed: 0x11FE_2013,
            tick_ms: 2_000,
            horizon_ms: 0,
            signup_per_mille: 0,
            friend_per_mille: 0,
            defriend_per_mille: 0,
            privacy_flip_per_mille: 0,
            deactivate_per_mille: 0,
            rollover_at_ms: Vec::new(),
        }
    }
}

impl MutationPlan {
    /// The explicit frozen-world plan (same as [`Default`]).
    pub fn none() -> MutationPlan {
        MutationPlan::default()
    }
}

/// One scheduled world change. User-valued payloads are raw draws,
/// resolved against the world *at application time* (`draw % user_count`
/// etc.) — application order is fixed, so resolution is deterministic
/// even though signups grow the id space mid-schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MutationEvent {
    /// A brand-new adult resident account (the `n`-th signup).
    Signup { n: u64 },
    /// Friend `a % count` with `b % count` (no-op on self/duplicate).
    Friend { a: u64, b: u64 },
    /// Remove friend `k % degree` of user `u % count` (no-op if lonely).
    Defriend { u: u64, k: u64 },
    /// Re-set user `u % count`'s privacy: locked down or wide open.
    PrivacyFlip { u: u64, lock: bool },
    /// Tombstone user `u % count` and withdraw them from search.
    Deactivate { u: u64 },
    /// Graduate every current senior to `Alumnus` + tombstone.
    Rollover,
}

impl MutationEvent {
    /// Metric/span label for this event class.
    pub fn kind(&self) -> &'static str {
        match self {
            MutationEvent::Signup { .. } => "signup",
            MutationEvent::Friend { .. } => "friend",
            MutationEvent::Defriend { .. } => "defriend",
            MutationEvent::PrivacyFlip { .. } => "privacy_flip",
            MutationEvent::Deactivate { .. } => "deactivate",
            MutationEvent::Rollover => "rollover",
        }
    }
}

/// An immutable snapshot of the world after the first `generation`
/// scheduled events. Each snapshot owns its own [`SearchIndex`], so
/// search pools always reflect this generation's graph and privacy;
/// generation 0's is the frozen platform's.
pub struct WorldGen {
    pub generation: usize,
    pub network: Arc<Network>,
    pub search: SearchIndex,
    tombstones: BTreeSet<UserId>,
    /// Per-user mutation-touch counts — the `data-gen` staleness stamp
    /// the platform renders and the crawler cross-checks.
    user_gen: HashMap<UserId, u64>,
}

impl WorldGen {
    /// Whether `u` is deactivated or graduated away in this world.
    pub fn tombstoned(&self, u: UserId) -> bool {
        self.tombstones.contains(&u)
    }

    /// The staleness stamp for `u`: how many events have touched them.
    pub fn user_generation(&self, u: UserId) -> u64 {
        self.user_gen.get(&u).copied().unwrap_or(0)
    }

    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }
}

/// Mutable engine bookkeeping, all behind one lock: memoized worlds
/// after generation 0, the first-application watermark (events below it
/// have been counted, digested and span-recorded exactly once), and
/// per-generation serve tallies.
struct EngineState {
    worlds: BTreeMap<usize, Arc<WorldGen>>,
    applied_watermark: usize,
    events_digest: u64,
    serves: BTreeMap<usize, u64>,
}

/// Expands a [`MutationPlan`] into a fixed schedule and serves memoized
/// per-generation world snapshots. See the module docs for the
/// determinism argument.
pub struct MutationEngine {
    plan: MutationPlan,
    schedule: Vec<(u64, MutationEvent)>,
    /// Generation 0: the base network, as the platform mounted it.
    base: Arc<WorldGen>,
    state: Mutex<EngineState>,
    obs: Arc<Registry>,
}

/// The `n`-th draw of the `key`-keyed stream — identical shape to
/// `FaultEngine::draw`, but counter-free: the tick index *is* the
/// counter, which is what makes the whole schedule precomputable.
fn stream_draw(seed: u64, key: u64, n: u64) -> u64 {
    splitmix64(seed ^ splitmix64(key) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

const KEY_SIGNUP: u64 = 1;
const KEY_FRIEND: u64 = 2;
const KEY_DEFRIEND: u64 = 3;
const KEY_PRIVACY: u64 = 4;
const KEY_DEACTIVATE: u64 = 5;

/// Expand the plan into a time-sorted event list. Events within one
/// tick land in fixed class order (signup, friend, defriend, flip,
/// deactivate); rollovers merge in by time, after same-instant ticks.
fn build_schedule(plan: &MutationPlan) -> Vec<(u64, MutationEvent)> {
    let mut events: Vec<(u64, MutationEvent)> = Vec::new();
    if !plan.enabled {
        return events;
    }
    if let Some(ticks) = plan.horizon_ms.checked_div(plan.tick_ms) {
        let mut signups = 0u64;
        for n in 0..ticks {
            let t = (n + 1) * plan.tick_ms;
            let roll =
                |key: u64, pm: u32| pm > 0 && (stream_draw(plan.seed, key, n) % 1_000) < pm as u64;
            if roll(KEY_SIGNUP, plan.signup_per_mille) {
                events.push((t, MutationEvent::Signup { n: signups }));
                signups += 1;
            }
            if roll(KEY_FRIEND, plan.friend_per_mille) {
                let h = stream_draw(plan.seed, KEY_FRIEND, n);
                events.push((
                    t,
                    MutationEvent::Friend { a: splitmix64(h ^ 1), b: splitmix64(h ^ 2) },
                ));
            }
            if roll(KEY_DEFRIEND, plan.defriend_per_mille) {
                let h = stream_draw(plan.seed, KEY_DEFRIEND, n);
                events.push((
                    t,
                    MutationEvent::Defriend { u: splitmix64(h ^ 1), k: splitmix64(h ^ 2) },
                ));
            }
            if roll(KEY_PRIVACY, plan.privacy_flip_per_mille) {
                let h = stream_draw(plan.seed, KEY_PRIVACY, n);
                events.push((
                    t,
                    MutationEvent::PrivacyFlip {
                        u: splitmix64(h ^ 1),
                        lock: splitmix64(h ^ 2) & 1 == 0,
                    },
                ));
            }
            if roll(KEY_DEACTIVATE, plan.deactivate_per_mille) {
                let h = stream_draw(plan.seed, KEY_DEACTIVATE, n);
                events.push((t, MutationEvent::Deactivate { u: splitmix64(h ^ 1) }));
            }
        }
    }
    for &at in &plan.rollover_at_ms {
        events.push((at, MutationEvent::Rollover));
    }
    // Stable by time: same-tick class order and rollover placement are
    // preserved, so the schedule is canonical.
    events.sort_by_key(|&(t, _)| t);
    events
}

/// Apply one event to a working world through the edits that keep it
/// sealed. Returns a canonical resolution line (folded into the state
/// digest) and the users it touched (whose `data-gen` stamps bump).
fn apply_event(
    net: &mut Network,
    tombstones: &mut BTreeSet<UserId>,
    ev: &MutationEvent,
) -> (String, Vec<UserId>) {
    let count = net.user_count() as u64;
    match ev {
        MutationEvent::Signup { n } => {
            let bd = Date::ymd(1988, (1 + n % 12) as u8, (1 + n % 28) as u8);
            let today = net.today;
            let id = net.add_user(User {
                id: UserId(0),
                true_birth_date: bd,
                registration: Registration { registered_birth_date: bd, registration_date: today },
                profile: ProfileContent::bare("Riley", format!("Arrival{n}"), Gender::Unspecified),
                privacy: PrivacySettings::facebook_adult_default(),
                role: Role::OtherResident,
            });
            (format!("signup:{id}"), vec![id])
        }
        MutationEvent::Friend { a, b } => {
            let a = UserId::from_index((a % count) as usize);
            let b = UserId::from_index((b % count) as usize);
            if a != b && net.add_friendship(a, b) {
                (format!("friend:{a}:{b}"), vec![a, b])
            } else {
                (format!("friend:{a}:{b}:noop"), Vec::new())
            }
        }
        MutationEvent::Defriend { u, k } => {
            let u = UserId::from_index((u % count) as usize);
            let friends = net.friends(u);
            if friends.is_empty() {
                (format!("defriend:{u}:noop"), Vec::new())
            } else {
                let b = friends[(k % friends.len() as u64) as usize];
                net.remove_friendship(u, b);
                (format!("defriend:{u}:{b}"), vec![u, b])
            }
        }
        MutationEvent::PrivacyFlip { u, lock } => {
            let u = UserId::from_index((u % count) as usize);
            net.update_user(u, |user| {
                user.privacy = if *lock {
                    PrivacySettings::locked_down()
                } else {
                    PrivacySettings::maximum_sharing()
                }
            });
            (format!("privacy_flip:{u}:{}", if *lock { "lock" } else { "open" }), vec![u])
        }
        MutationEvent::Deactivate { u } => {
            let u = UserId::from_index((u % count) as usize);
            if tombstones.insert(u) {
                net.update_user(u, |user| user.privacy = PrivacySettings::locked_down());
                (format!("deactivate:{u}"), vec![u])
            } else {
                (format!("deactivate:{u}:noop"), Vec::new())
            }
        }
        MutationEvent::Rollover => {
            let senior = net.senior_class_year();
            let grads: Vec<UserId> = net
                .users()
                .filter_map(|u| match u.role {
                    Role::CurrentStudent { grad_year, .. } if grad_year == senior => Some(u.id),
                    _ => None,
                })
                .collect();
            for &g in &grads {
                net.update_user(g, |user| {
                    if let Role::CurrentStudent { school, grad_year } = user.role {
                        user.role = Role::Alumnus { school, grad_year };
                    }
                });
                tombstones.insert(g);
            }
            (format!("rollover:{senior}:{}", grads.len()), grads)
        }
    }
}

impl MutationEngine {
    pub fn new(plan: MutationPlan, base: Arc<Network>, obs: Arc<Registry>) -> Arc<MutationEngine> {
        let schedule = build_schedule(&plan);
        let base = Arc::new(WorldGen {
            generation: 0,
            network: base,
            search: SearchIndex::new(),
            tombstones: BTreeSet::new(),
            user_gen: HashMap::new(),
        });
        Arc::new(MutationEngine {
            plan,
            schedule,
            base,
            state: Mutex::new(EngineState {
                worlds: BTreeMap::new(),
                applied_watermark: 0,
                events_digest: FNV_OFFSET,
                serves: BTreeMap::new(),
            }),
            obs,
        })
    }

    pub fn plan(&self) -> &MutationPlan {
        &self.plan
    }

    /// Whether the world actually moves. `false` means handlers serve
    /// [`MutationEngine::base`] untallied — the strict-no-op guarantee.
    pub fn is_live(&self) -> bool {
        self.plan.enabled && !self.schedule.is_empty()
    }

    /// Generation 0, the frozen world, read without the engine's lock.
    pub fn base(&self) -> &Arc<WorldGen> {
        &self.base
    }

    /// Total scheduled events over the plan's horizon.
    pub fn event_count(&self) -> usize {
        self.schedule.len()
    }

    /// Events applied so far (the first-application watermark).
    pub fn applied_count(&self) -> usize {
        self.state.lock().applied_watermark
    }

    /// The generation in force at `now_ms`: how many scheduled events
    /// happen at or before that instant.
    pub fn generation_at(&self, now_ms: u64) -> usize {
        self.schedule.partition_point(|&(t, _)| t <= now_ms)
    }

    /// The world snapshot a request timestamped `now_ms` must be served
    /// from. Also tallies the serve for the state digest.
    pub fn world_at(&self, now_ms: u64) -> Arc<WorldGen> {
        let generation = self.generation_at(now_ms);
        let mut st = self.state.lock();
        *st.serves.entry(generation).or_insert(0) += 1;
        if generation == 0 {
            return Arc::clone(&self.base);
        }
        if let Some(w) = st.worlds.get(&generation) {
            return Arc::clone(w);
        }
        let world = self.build_world(&mut st, generation);
        st.worlds.insert(generation, Arc::clone(&world));
        // Bounded memoization: drop the oldest snapshots. A world is a
        // pure function of its generation, so eviction can never change
        // what any request observes.
        while st.worlds.len() >= MAX_CACHED_WORLDS {
            let Some((&oldest, _)) = st.worlds.iter().next() else { break };
            if oldest == generation {
                break;
            }
            st.worlds.remove(&oldest);
        }
        world
    }

    /// Build generation `generation` from the nearest cached ancestor,
    /// applying (and, first time only, accounting) the missing events.
    /// The clone shares the ancestor's structure; the events copy only
    /// what they write.
    fn build_world(&self, st: &mut EngineState, generation: usize) -> Arc<WorldGen> {
        let ancestor = match st.worlds.range(..generation).next_back() {
            Some((_, w)) => Arc::clone(w),
            None => Arc::clone(&self.base),
        };
        let from = ancestor.generation;
        let mut net = (*ancestor.network).clone();
        let mut tombstones = ancestor.tombstones.clone();
        let mut user_gen = ancestor.user_gen.clone();
        for idx in from..generation {
            let (at_ms, ev) = &self.schedule[idx];
            let (line, touched) = apply_event(&mut net, &mut tombstones, ev);
            for &u in &touched {
                *user_gen.entry(u).or_insert(0) += 1;
            }
            if idx >= st.applied_watermark {
                // First application ever: count, digest and trace it.
                self.obs.counter_with("platform_mutations_total", &[("kind", ev.kind())]).inc();
                st.events_digest =
                    fnv1a_chain(st.events_digest, format!("{idx}|{at_ms}|{line}\n").as_bytes());
                let tracer = self.obs.tracer();
                if tracer.is_enabled() {
                    let tc = TraceCtx::derive(TRACE_SEED, WORLD_LANE, idx as u64);
                    tracer.record(SpanRecord {
                        trace_id: tc.trace_id,
                        span_id: tc.span(SLOT_MUTATION),
                        parent_id: 0,
                        lane: WORLD_LANE,
                        ordinal: idx as u64,
                        name: format!("mutation:{}", ev.kind()),
                        begin_ms: *at_ms,
                        end_ms: *at_ms,
                        status: 0,
                        outcome: "apply".to_string(),
                        provenance: String::new(),
                        captcha_ms: 0,
                    });
                }
            }
        }
        st.applied_watermark = st.applied_watermark.max(generation);
        Arc::new(WorldGen {
            generation,
            network: Arc::new(net),
            search: SearchIndex::new(),
            tombstones,
            user_gen,
        })
    }

    /// Canonical digest of everything the engine has done: the resolved
    /// form of every applied event (in schedule order) plus the
    /// per-generation serve tallies. Worker-count invariant because both
    /// ingredients are pure functions of the per-account request
    /// streams.
    pub fn state_digest(&self) -> u64 {
        let st = self.state.lock();
        let mut h = st.events_digest;
        for (g, c) in &st.serves {
            h = fnv1a_chain(h, format!("serve|{g}|{c}\n").as_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_synth::{generate, metro, MetroConfig, ScenarioConfig};

    fn base() -> Arc<Network> {
        Arc::new(generate(&ScenarioConfig::tiny()).network.clone())
    }

    /// Both sealed layouts a base can arrive in: the scenario
    /// generator's sealed builder adjacency, and the metro generator's
    /// CSR built straight from an edge list.
    fn bases() -> [Arc<Network>; 2] {
        [base(), Arc::new(metro(&MetroConfig::tiny()).network)]
    }

    fn live_plan() -> MutationPlan {
        MutationPlan {
            enabled: true,
            horizon_ms: 120_000,
            tick_ms: 1_000,
            signup_per_mille: 80,
            friend_per_mille: 300,
            defriend_per_mille: 200,
            privacy_flip_per_mille: 150,
            deactivate_per_mille: 60,
            rollover_at_ms: vec![60_000],
            ..MutationPlan::default()
        }
    }

    #[test]
    fn zero_rate_plan_is_not_live() {
        let eng = MutationEngine::new(MutationPlan::none(), base(), Registry::shared());
        assert!(!eng.is_live());
        assert_eq!(eng.event_count(), 0);
        // Even explicit enablement without rates schedules nothing.
        let eng = MutationEngine::new(
            MutationPlan { enabled: true, horizon_ms: 600_000, ..MutationPlan::none() },
            base(),
            Registry::shared(),
        );
        assert!(!eng.is_live());
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = build_schedule(&live_plan());
        let b = build_schedule(&live_plan());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "live plan scheduled nothing");
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "schedule out of order");
        let c = build_schedule(&MutationPlan { seed: 7, ..live_plan() });
        assert_ne!(a, c, "different seeds should differ");
        let kinds: BTreeSet<&str> = a.iter().map(|(_, e)| e.kind()).collect();
        for kind in ["signup", "friend", "defriend", "privacy_flip", "deactivate", "rollover"] {
            assert!(kinds.contains(kind), "no {kind} in schedule");
        }
    }

    #[test]
    fn worlds_are_pure_functions_of_generation() {
        for net in bases() {
            let in_order = MutationEngine::new(live_plan(), Arc::clone(&net), Registry::shared());
            let out_of_order = MutationEngine::new(live_plan(), net, Registry::shared());
            // One engine walks forward; the other jumps to the end first,
            // then revisits earlier instants (as racing seats would).
            let far = in_order.world_at(120_000);
            let mid = in_order.world_at(45_000);
            let b_far = out_of_order.world_at(120_000);
            let b_mid = out_of_order.world_at(45_000);
            assert_eq!(far.generation, b_far.generation);
            assert_eq!(far.network.fingerprint(), b_far.network.fingerprint());
            assert_eq!(mid.network.fingerprint(), b_mid.network.fingerprint());
            assert!(far.generation > mid.generation);
            // Same serve pattern → same digest.
            assert_eq!(in_order.state_digest(), out_of_order.state_digest());
        }
    }

    #[test]
    fn eviction_preserves_world_identity() {
        for net in bases() {
            let eng = MutationEngine::new(live_plan(), Arc::clone(&net), Registry::shared());
            // Touch many distinct generations to force eviction...
            for t in (0..=120).map(|s| s * 1_000) {
                eng.world_at(t);
            }
            // ...then revisit an early instant and compare against a
            // fresh engine that never evicted.
            let revisited = eng.world_at(10_000);
            let fresh = MutationEngine::new(live_plan(), net, Registry::shared());
            let reference = fresh.world_at(10_000);
            assert_eq!(revisited.generation, reference.generation);
            assert_eq!(revisited.network.fingerprint(), reference.network.fingerprint());
        }
    }

    /// Every generation keeps the seal, and equals the same events
    /// applied to an unsealed builder copy of the base, so the sealed
    /// patches and shared chunks change nothing a fingerprint sees.
    #[test]
    fn generations_stay_sealed_and_match_a_builder_replay() {
        for net in bases() {
            assert!(net.is_sealed());
            let eng = MutationEngine::new(live_plan(), Arc::clone(&net), Registry::shared());
            let mut builder = Network::from_json_value(&net.to_json_value()).expect("round-trip");
            assert!(!builder.is_sealed());
            let mut tombstones = BTreeSet::new();
            let mut applied = 0;
            let mut instants: Vec<u64> = eng.schedule.iter().map(|&(t, _)| t).collect();
            instants.dedup();
            for (i, &t) in instants.iter().enumerate() {
                let world = eng.world_at(t);
                assert!(world.network.is_sealed(), "generation {} unsealed", world.generation);
                for (_, ev) in &eng.schedule[applied..world.generation] {
                    apply_event(&mut builder, &mut tombstones, ev);
                }
                applied = world.generation;
                assert_eq!(world.tombstones, tombstones);
                let (sealed, built) = (world.network.friend_graph(), builder.friend_graph());
                assert!(sealed.iter_lists().eq(built.iter_lists()), "generation {applied}");
                // An unoptimized fingerprint of the metro base takes
                // ~0.4 s, so the whole world is compared at every 16th
                // instant and the last.
                if i % 16 == 0 || i + 1 == instants.len() {
                    assert_eq!(
                        world.network.fingerprint(),
                        builder.fingerprint(),
                        "generation {applied}"
                    );
                }
            }
            assert_eq!(applied, eng.event_count());
            // Generation 0 is the base itself, untouched by the rest.
            assert!(Arc::ptr_eq(&eng.world_at(0).network, &net));
            assert_eq!(net.fingerprint(), eng.base().network.fingerprint());
        }
    }

    #[test]
    fn deactivation_tombstones_and_locks() {
        let net = base();
        let eng = MutationEngine::new(live_plan(), net, Registry::shared());
        let last = eng.world_at(u64::MAX);
        assert!(last.tombstone_count() > 0, "no tombstones after full schedule");
        for &u in &last.tombstones {
            // Deactivated users are withdrawn from search; graduated
            // seniors become alumni (whose policy exposure shrinks).
            let user = last.network.user(u);
            let deactivated = !user.privacy.public_search;
            let graduated = matches!(user.role, Role::Alumnus { .. });
            assert!(deactivated || graduated, "tombstoned {u} neither deactivated nor graduated");
            assert!(last.user_generation(u) > 0, "tombstoned {u} has no gen stamp");
        }
    }

    #[test]
    fn rollover_graduates_the_senior_class() {
        let net = base();
        let school = net.schools()[0].id;
        let senior = net.senior_class_year();
        let seniors = net.roster_for_class(school, senior);
        assert!(!seniors.is_empty(), "tiny scenario has no seniors");
        let plan =
            MutationPlan { enabled: true, rollover_at_ms: vec![1_000], ..MutationPlan::none() };
        let eng = MutationEngine::new(plan, Arc::clone(&net), Registry::shared());
        assert!(eng.is_live());
        let before = eng.world_at(999);
        assert_eq!(before.generation, 0);
        assert!(!before.tombstoned(seniors[0]));
        let after = eng.world_at(1_000);
        assert_eq!(after.generation, 1);
        for &s in &seniors {
            assert!(after.tombstoned(s), "senior {s} not tombstoned");
            assert!(matches!(after.network.user(s).role, Role::Alumnus { .. }));
        }
        // Juniors are untouched.
        assert_eq!(
            after.network.roster_for_class(school, senior + 1).len(),
            net.roster_for_class(school, senior + 1).len()
        );
    }

    #[test]
    fn signups_grow_the_user_table() {
        let net = base();
        let count = net.user_count();
        let plan = MutationPlan {
            enabled: true,
            tick_ms: 1_000,
            horizon_ms: 30_000,
            signup_per_mille: 1_000,
            ..MutationPlan::none()
        };
        let eng = MutationEngine::new(plan, net, Registry::shared());
        let world = eng.world_at(30_000);
        assert_eq!(world.network.user_count(), count + 30);
        let newcomer = UserId::from_index(count);
        assert!(!world.network.user(newcomer).is_registered_minor(world.network.today));
        assert_eq!(world.user_generation(newcomer), 1);
    }

    #[test]
    fn events_are_counted_once() {
        let net = base();
        let obs = Registry::shared();
        let eng = MutationEngine::new(live_plan(), net, Arc::clone(&obs));
        eng.world_at(120_000);
        eng.world_at(120_000);
        eng.world_at(30_000);
        let snap = obs.snapshot();
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("platform_mutations_total"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(total, eng.event_count() as u64);
        assert_eq!(eng.applied_count(), eng.event_count());
    }
}
