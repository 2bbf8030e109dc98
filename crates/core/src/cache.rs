//! Estimation caches shared across the candidate plans of one
//! optimization run.
//!
//! The paper stresses that "fast evaluation times are a requirement due
//! to the computational intensity of query optimization" (§2.4). During
//! join enumeration the optimizer prices hundreds of candidate plans that
//! share almost all of their structure: every candidate re-uses the same
//! per-table access subtrees, and a dynamic-programming frontier extends
//! one memoized prefix by one table at a time. Two caches exploit that,
//! both keyed by the run's hash-consing tables (`intern.rs`), which each
//! estimate fills once, bottom-up, for the plan it prices:
//!
//! * a **subplan cost memo** — indexed by subtree id (wrapper context,
//!   the node's own fields and its children's ids; equal ids are equal
//!   subtrees), it returns the previously computed [`NodeCost`] without
//!   re-walking the subtree. Estimates are deterministic and independent
//!   of the cost limit in effect, so memoized values are exact, not
//!   approximations;
//! * a **rule-resolution cache** — indexed by signature id (operator
//!   kind, node payload, per-child base collections, subtree collection
//!   set and context: everything `match_head` observes), it returns the
//!   matched rule list with bindings, shared rather than copied, skipping
//!   the repeated unification that dominates per-node association cost.
//!   Two distinct subtrees with the same signature (e.g. the same join
//!   predicate over different inputs) share one resolution.
//!
//! A fingerprint only picks a bucket; ids are confirmed by comparing
//! keys, doubles bit for bit, so the caches tell apart exactly the
//! subplans that differ.
//!
//! Callers that build candidates themselves never hand the estimator a
//! tree: [`EstimatorCache::intern`] enters a plan once, and
//! [`EstimatorCache::intern_node`] stacks one node over interned
//! [`SubtreeId`]s, which [`crate::Estimator::estimate_subtree`] then
//! prices, reading every memoized input instead of walking it.
//!
//! One run, one thread: a cache is built by the optimization run that
//! uses it, on the thread that runs it, and is dropped when the run
//! returns. It is interior-mutable through `RefCell`/`Cell` (so it cannot
//! cross threads), it never sees a second registry, catalog, health
//! state or override set, and it is unbounded because it dies with the
//! run — a 6-table join shape leaves a few hundred subtrees behind.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, Ref, RefCell};
use std::rc::Rc;

use disco_algebra::LogicalPlan;

use crate::cost::NodeCost;
use crate::estimator::{infer_wrapper_context, CardinalityOverrides, EstimateOptions};
use crate::intern::{Interner, Payload, SubtreeId, INITIAL_CAPACITY};
use crate::pattern::Bindings;

/// The rules whose heads matched one signature, by registry id, with
/// their bindings.
pub(crate) type Resolution = Rc<[(usize, Bindings)]>;

/// Caches shared by every estimation of one optimization run.
#[derive(Debug)]
pub struct EstimatorCache {
    interner: RefCell<Interner>,
    /// Indexed by subtree id.
    costs: RefCell<Vec<Option<NodeCost>>>,
    /// Indexed by signature id.
    rules: RefCell<Vec<Option<Resolution>>>,
    /// The run's observed submit sites: each site's input, interned under
    /// its wrapper, with the observed `(rows, bytes)`.
    sites: OnceCell<Vec<(SubtreeId, f64, f64)>>,
    cost_hits: Cell<usize>,
    rule_hits: Cell<usize>,
    cost_lookups: Cell<usize>,
    rule_lookups: Cell<usize>,
}

fn bump(counter: &Cell<usize>) {
    counter.set(counter.get() + 1);
}

/// `slots[id]`, growing the vector to hold it.
fn slot_mut<T: Default>(slots: &mut Vec<T>, id: u32) -> &mut T {
    let i = id as usize;
    if slots.len() <= i {
        slots.resize_with(i + 1, T::default);
    }
    &mut slots[i]
}

impl Default for EstimatorCache {
    fn default() -> Self {
        EstimatorCache {
            interner: RefCell::default(),
            costs: RefCell::new(Vec::with_capacity(INITIAL_CAPACITY)),
            rules: RefCell::new(Vec::with_capacity(INITIAL_CAPACITY)),
            sites: OnceCell::new(),
            cost_hits: Cell::default(),
            rule_hits: Cell::default(),
            cost_lookups: Cell::default(),
            rule_lookups: Cell::default(),
        }
    }
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

    /// Intern `plan` into this run's tables, under the wrapper context
    /// [`crate::Estimator::estimate_report`] would price it in (`opts`'s
    /// wrapper, or the one inferred from the plan).
    pub fn intern(&self, plan: &LogicalPlan, opts: &EstimateOptions) -> SubtreeId {
        let inferred;
        let ctx = match &opts.wrapper {
            Some(w) => Some(w.as_str()),
            None => {
                inferred = infer_wrapper_context(plan);
                inferred.as_deref()
            }
        };
        self.interner.borrow_mut().intern_plan(plan, ctx)
    }

    /// Intern one node executing under `ctx` over already interned
    /// `inputs`, which execute under the context the node gives them (a
    /// submit's wrapper, `ctx` otherwise).
    pub fn intern_node(
        &self,
        ctx: Option<&str>,
        payload: Payload<'_>,
        inputs: &[SubtreeId],
    ) -> SubtreeId {
        self.interner.borrow_mut().intern_node(ctx, payload, inputs)
    }

    /// Intern `Submit(wrapper, input)` executing under no context, as a
    /// mediator-level submit is priced.
    pub fn intern_submit(&self, wrapper: &str, input: &LogicalPlan) -> SubtreeId {
        let mut interner = self.interner.borrow_mut();
        let input = interner.intern_plan(input, Some(wrapper));
        interner.intern_node(None, Payload::Submit(Cow::Borrowed(wrapper)), &[input])
    }

    pub(crate) fn interner(&self) -> Ref<'_, Interner> {
        self.interner.borrow()
    }

    /// The observed submit sites of `overrides`, interned on first use:
    /// one cache only ever sees one override set.
    pub(crate) fn sites(
        &self,
        overrides: Option<&CardinalityOverrides>,
    ) -> &[(SubtreeId, f64, f64)] {
        self.sites.get_or_init(|| {
            let mut interner = self.interner.borrow_mut();
            overrides
                .into_iter()
                .flat_map(|ov| ov.sites())
                .map(|(wrapper, input, rows, bytes)| {
                    (interner.intern_plan(input, Some(wrapper)), rows, bytes)
                })
                .collect()
        })
    }

    pub(crate) fn cost_get(&self, subtree: u32) -> Option<NodeCost> {
        bump(&self.cost_lookups);
        let got = self.costs.borrow().get(subtree as usize).copied().flatten();
        if got.is_some() {
            bump(&self.cost_hits);
        }
        got
    }

    pub(crate) fn cost_put(&self, subtree: u32, cost: NodeCost) {
        *slot_mut(&mut self.costs.borrow_mut(), subtree) = Some(cost);
    }

    pub(crate) fn rules_get(&self, signature: u32) -> Option<Resolution> {
        bump(&self.rule_lookups);
        let got = self
            .rules
            .borrow()
            .get(signature as usize)
            .cloned()
            .flatten();
        if got.is_some() {
            bump(&self.rule_hits);
        }
        got
    }

    pub(crate) fn rules_put(&self, signature: u32, resolved: Resolution) {
        *slot_mut(&mut self.rules.borrow_mut(), signature) = Some(resolved);
    }

    /// Distinct subtrees interned so far.
    #[cfg(test)]
    pub(crate) fn subtrees(&self) -> usize {
        self.interner.borrow().subtrees()
    }
}
