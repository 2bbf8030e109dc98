//! Estimation caches shared across the candidate plans of one
//! optimization run.
//!
//! The paper stresses that "fast evaluation times are a requirement due
//! to the computational intensity of query optimization" (§2.4). During
//! join enumeration the optimizer prices hundreds of candidate plans that
//! share almost all of their structure: every candidate re-uses the same
//! per-table access subtrees, and a dynamic-programming frontier extends
//! one memoized prefix by one table at a time. Two caches exploit that:
//!
//! * a **subplan cost memo** — keyed by a canonical fingerprint of the
//!   logical subtree plus its wrapper execution context, it returns the
//!   previously computed [`NodeCost`] without re-walking the subtree.
//!   Estimates are deterministic and independent of the cost limit in
//!   effect, so memoized values are exact, not approximations;
//! * a **rule-resolution cache** — keyed by the *shallow* signature of a
//!   node (operator kind, per-child base collections, node payload,
//!   subtree collection set and context), it returns the matched rule
//!   list with bindings, skipping the repeated `match_head` unification
//!   that dominates per-node association cost. Two distinct subtrees with
//!   the same node signature (e.g. the same join predicate over different
//!   inputs) share one resolution.
//!
//! The cache is internally synchronized (`Mutex`-guarded maps, atomic
//! hit counters) so a read-only [`crate::Estimator`] can be shared by
//! value across scoped threads costing independent candidates in
//! parallel. Values are deterministic, so concurrent duplicate inserts
//! are benign.
//!
//! A cache that outlives one run (the serving layer shares one across
//! queries) is bounded: a map that reaches [`MAX_ENTRIES`] starts over
//! empty. Entries are only ever recomputed, never wrong, so forgetting
//! them costs work and cannot change an estimate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cost::NodeCost;
use crate::pattern::Bindings;

/// Entries either map may hold before it starts a fresh generation.
/// A 6-table join shape leaves ~250 entries behind, and an entry of
/// that size retains ~10 KB (subtree fingerprints grow with the
/// subtree; rule resolutions carry their bindings): measured on the
/// `plan_cold` profile workload, this cap holds the process's peak RSS
/// near 70 MB where the unbounded cache took it past 500 MB in twelve
/// seconds, at the same plan latency.
pub const MAX_ENTRIES: usize = 4_096;

/// Insert into a bounded memo map, starting over when it is full.
fn put_bounded<V>(map: &Mutex<HashMap<String, V>>, key: String, value: V) {
    let mut map = map.lock().expect("cache poisoned");
    if map.len() >= MAX_ENTRIES {
        // A new map, not `clear()`: the old table's capacity goes too.
        *map = HashMap::new();
    }
    map.insert(key, value);
}

/// Caches shared by every estimation of one optimization run.
#[derive(Debug, Default)]
pub struct EstimatorCache {
    cost: Mutex<HashMap<String, NodeCost>>,
    rules: Mutex<HashMap<String, Vec<(usize, Bindings)>>>,
    cost_hits: AtomicUsize,
    rule_hits: AtomicUsize,
    cost_lookups: AtomicUsize,
    rule_lookups: AtomicUsize,
}

impl EstimatorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subplan cost memo hits so far.
    pub fn cost_hits(&self) -> usize {
        self.cost_hits.load(Ordering::Relaxed)
    }

    /// Rule-resolution cache hits so far.
    pub fn rule_hits(&self) -> usize {
        self.rule_hits.load(Ordering::Relaxed)
    }

    /// Subplan cost memo lookups so far (hits + misses).
    pub fn cost_lookups(&self) -> usize {
        self.cost_lookups.load(Ordering::Relaxed)
    }

    /// Rule-resolution cache lookups so far (hits + misses).
    pub fn rule_lookups(&self) -> usize {
        self.rule_lookups.load(Ordering::Relaxed)
    }

    /// Number of distinct subtrees memoized.
    pub fn cost_entries(&self) -> usize {
        self.cost.lock().expect("cache poisoned").len()
    }

    /// Fold this run's lookup/hit totals into the global metrics
    /// registry ([`disco_obs::names::CACHE_LOOKUPS`] / `CACHE_HITS`
    /// counters, `CACHE_HIT_RATIO` gauges, labelled `cache="cost"` and
    /// `cache="rules"`). Call once, when the optimization run owning the
    /// cache finishes — the counters are cumulative across runs, the
    /// gauges show the latest run.
    pub fn publish_metrics(&self) {
        if !disco_obs::enabled() {
            return;
        }
        use disco_obs::names;
        let publish = |kind: &str, lookups: usize, hits: usize| {
            let labels = [("cache", kind)];
            disco_obs::counter(names::CACHE_LOOKUPS, &labels).add(lookups as u64);
            disco_obs::counter(names::CACHE_HITS, &labels).add(hits as u64);
            if lookups > 0 {
                disco_obs::gauge(names::CACHE_HIT_RATIO, &labels).set(hits as f64 / lookups as f64);
            }
        };
        publish("cost", self.cost_lookups(), self.cost_hits());
        publish("rules", self.rule_lookups(), self.rule_hits());
    }

    pub(crate) fn cost_get(&self, key: &str) -> Option<NodeCost> {
        self.cost_lookups.fetch_add(1, Ordering::Relaxed);
        let got = self.cost.lock().expect("cache poisoned").get(key).copied();
        if got.is_some() {
            self.cost_hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    pub(crate) fn cost_put(&self, key: String, cost: NodeCost) {
        put_bounded(&self.cost, key, cost);
    }

    pub(crate) fn rules_get(&self, key: &str) -> Option<Vec<(usize, Bindings)>> {
        self.rule_lookups.fetch_add(1, Ordering::Relaxed);
        let got = self.rules.lock().expect("cache poisoned").get(key).cloned();
        if got.is_some() {
            self.rule_hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    pub(crate) fn rules_put(&self, key: String, resolved: Vec<(usize, Bindings)>) {
        put_bounded(&self.rules, key, resolved);
    }
}
