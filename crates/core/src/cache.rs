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
//! One run, one thread: a cache is built by the optimization run that
//! uses it, on the thread that runs it, and is dropped when the run
//! returns. It is interior-mutable through `RefCell`/`Cell` (so it cannot
//! cross threads), it never sees a second registry, catalog, health
//! state or override set, and it is unbounded because it dies with the
//! run — a 6-table join shape leaves ~250 entries behind.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use crate::cost::NodeCost;
use crate::pattern::Bindings;

/// Caches shared by every estimation of one optimization run.
#[derive(Debug, Default)]
pub struct EstimatorCache {
    cost: RefCell<HashMap<String, NodeCost>>,
    rules: RefCell<HashMap<String, Vec<(usize, Bindings)>>>,
    cost_hits: Cell<usize>,
    rule_hits: Cell<usize>,
    cost_lookups: Cell<usize>,
    rule_lookups: Cell<usize>,
}

fn bump(counter: &Cell<usize>) {
    counter.set(counter.get() + 1);
}

impl EstimatorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subplan cost memo hits so far.
    pub fn cost_hits(&self) -> usize {
        self.cost_hits.get()
    }

    /// Rule-resolution cache hits so far.
    pub fn rule_hits(&self) -> usize {
        self.rule_hits.get()
    }

    /// Subplan cost memo lookups so far (hits + misses).
    pub fn cost_lookups(&self) -> usize {
        self.cost_lookups.get()
    }

    /// Rule-resolution cache lookups so far (hits + misses).
    pub fn rule_lookups(&self) -> usize {
        self.rule_lookups.get()
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
        bump(&self.cost_lookups);
        let got = self.cost.borrow().get(key).copied();
        if got.is_some() {
            bump(&self.cost_hits);
        }
        got
    }

    pub(crate) fn cost_put(&self, key: String, cost: NodeCost) {
        self.cost.borrow_mut().insert(key, cost);
    }

    pub(crate) fn rules_get(&self, key: &str) -> Option<Vec<(usize, Bindings)>> {
        bump(&self.rule_lookups);
        let got = self.rules.borrow().get(key).cloned();
        if got.is_some() {
            bump(&self.rule_hits);
        }
        got
    }

    pub(crate) fn rules_put(&self, key: String, resolved: Vec<(usize, Bindings)>) {
        self.rules.borrow_mut().insert(key, resolved);
    }
}
