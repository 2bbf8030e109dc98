//! Mid-query adaptive re-optimization.
//!
//! The paper's §4.3 feedback loop corrects cost estimates *between*
//! queries and its §4.3.2 branch-and-bound abandons plans *during
//! optimization*; this module generalizes both into **runtime plan
//! abandonment**. As subanswers materialize (whole, or chunk by chunk
//! under pipelined execution), the executor compares measured
//! cardinalities against the optimizer's per-site predictions.
//! When the relative error crosses [`AdaptivePolicy::error_threshold`]
//! (outside the [`AdaptivePolicy::min_rows`] dead zone), the
//! [`Replanner`] runs the optimizer's own join-order search (the subset
//! DP of the `join_graph` module) over the combine plan, with the
//! *measured* cardinalities substituted at the submit leaves
//! ([`disco_core::CardinalityOverrides`]), and switches only when the
//! predicted win exceeds [`AdaptivePolicy::switch_margin`]. Already
//! fetched subanswers are never re-fetched: the executor re-drives the
//! combine from the materialized batches.
//!
//! Re-planning is pure mediator-side arithmetic over the memoized
//! estimator — BENCH_optimizer.json shows the search is microseconds at
//! combine-plan sizes — so the cost of *considering* a switch is noise
//! next to one mis-ordered join.

use disco_algebra::{JoinPredicate, LogicalPlan, PhysicalPlan};
use disco_catalog::Catalog;
use disco_common::{HealthTracker, Schema};
use disco_core::{CardinalityOverrides, Estimator, EstimatorCache, RuleRegistry};

use crate::join_graph::{JoinGraph, Post, Pricer, Search};
use crate::optimizer::{to_logical, Objective};

/// Knobs for mid-query re-optimization, carried on
/// [`MediatorOptions`](crate::mediator::MediatorOptions).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    /// Master switch; off by default (static plans, zero overhead).
    pub enabled: bool,
    /// Trigger when `max(observed/predicted, predicted/observed)` for
    /// some subanswer reaches this factor (a *ratio*, so 4.0 means 4×
    /// off in either direction).
    pub error_threshold: f64,
    /// Dead zone: ignore misestimates whose absolute row difference is
    /// below this — tiny subanswers are cheap to combine in any order,
    /// and re-planning them would only add noise.
    pub min_rows: f64,
    /// Switch plans only when the re-estimated combine cost beats the
    /// corrected cost of the current plan by this fraction (0.1 = the
    /// candidate must be ≥10% cheaper), so estimate jitter cannot cause
    /// plan thrashing.
    pub switch_margin: f64,
    /// At most this many re-plans per query (abandoning a combine and
    /// re-driving it is cheap but not free).
    pub max_replans: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            enabled: false,
            error_threshold: 4.0,
            min_rows: 256.0,
            switch_margin: 0.1,
            max_replans: 1,
        }
    }
}

impl AdaptivePolicy {
    /// An enabled policy with the default thresholds.
    pub fn enabled() -> Self {
        AdaptivePolicy {
            enabled: true,
            ..Default::default()
        }
    }

    /// True when `observed` vs `predicted` rows crosses the trigger
    /// (threshold ratio outside the dead zone).
    pub fn triggers(&self, predicted: f64, observed: f64) -> bool {
        if (observed - predicted).abs() < self.min_rows {
            return false;
        }
        let p = predicted.max(1.0);
        let o = observed.max(1.0);
        (o / p).max(p / o) >= self.error_threshold
    }
}

/// One submit site's measured outcome, aligned with the plan's submit
/// (fetch) order.
#[derive(Debug, Clone)]
pub struct SiteObservation {
    pub wrapper: String,
    /// The logical subplan shipped to the wrapper (the override key).
    pub plan: LogicalPlan,
    /// The optimizer's predicted result cardinality, when it priced this
    /// site.
    pub predicted_rows: Option<f64>,
    pub observed_rows: f64,
    pub observed_bytes: f64,
    /// The site failed or was truncated: its measurement is a lower
    /// bound, not a cardinality — it still corrects the override (the
    /// materialized input really is that small) but never *triggers* a
    /// re-plan.
    pub failed: bool,
}

/// A recorded re-plan decision, threaded into the execution trace and
/// rendered by EXPLAIN ANALYZE.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanEvent {
    /// The wrapper whose misestimate triggered the check (worst error).
    pub wrapper: String,
    pub predicted_rows: f64,
    pub observed_rows: f64,
    /// Corrected estimate of the *current* combine plan (ms), with the
    /// already-spent fetch costs excluded as sunk.
    pub old_cost_ms: f64,
    /// Corrected estimate of the best candidate order (ms), same basis.
    pub new_cost_ms: f64,
    /// Whether the win cleared the switch margin and the plan was
    /// actually abandoned.
    pub switched: bool,
}

impl ReplanEvent {
    /// One-line rendering, e.g.
    /// `re-optimized: predicted 1k rows, observed 800k at `s` — switched
    /// join order (est. 1234.0ms -> 56.0ms)`.
    pub fn render(&self) -> String {
        let verdict = if self.switched {
            format!(
                "switched join order (est. {:.1}ms -> {:.1}ms)",
                self.old_cost_ms, self.new_cost_ms
            )
        } else {
            format!(
                "kept plan (best candidate {:.1}ms vs {:.1}ms, within margin)",
                self.new_cost_ms, self.old_cost_ms
            )
        };
        format!(
            "re-optimized: predicted {} rows, observed {} at `{}` — {}",
            fmt_rows(self.predicted_rows),
            fmt_rows(self.observed_rows),
            self.wrapper,
            verdict
        )
    }
}

fn fmt_rows(n: f64) -> String {
    if n >= 10_000.0 {
        format!("{:.0}k", n / 1000.0)
    } else {
        format!("{n:.0}")
    }
}

/// Outcome of one [`Replanner::consider`] call that crossed the trigger.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    pub event: ReplanEvent,
    /// The replacement plan when the event switched.
    pub new_plan: Option<PhysicalPlan>,
}

/// Re-planning over an executed combine plan: decompose the join tree
/// into opaque leaves (each an already-fetched submit subtree, possibly
/// fused or filtered), search left-deep orders with measured
/// cardinalities substituted at the submit nodes, and propose a switch
/// when one clears the margin.
pub struct Replanner<'a> {
    registry: &'a RuleRegistry,
    catalog: &'a Catalog,
    health: Option<&'a HealthTracker>,
    policy: AdaptivePolicy,
}

impl<'a> Replanner<'a> {
    /// Build a replanner over the mediator's catalog/registry/health.
    pub fn new(
        registry: &'a RuleRegistry,
        catalog: &'a Catalog,
        health: Option<&'a HealthTracker>,
        policy: AdaptivePolicy,
    ) -> Self {
        Replanner {
            registry,
            catalog,
            health,
            policy,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &AdaptivePolicy {
        &self.policy
    }

    /// Compare observations against predictions; when the worst error
    /// crosses the trigger, search the combine plan's join orders again
    /// with corrected cardinalities. `None` = nothing crossed the trigger
    /// (the dead zone and threshold held). `Some` always carries a
    /// [`ReplanEvent`] for the trace; the plan inside is `Some` only when
    /// the plan has a reorderable join tree and the win cleared the
    /// margin.
    pub fn consider(
        &self,
        plan: &PhysicalPlan,
        observations: &[SiteObservation],
    ) -> Option<ReplanOutcome> {
        self.consider_with(plan, observations, false)
    }

    /// The equivalence oracle: [`Self::consider`] with the join order
    /// found by sweeping every connected left-deep order of the same
    /// leaves, under the same overrides and bound. For tests.
    pub fn consider_by_permutation(
        &self,
        plan: &PhysicalPlan,
        observations: &[SiteObservation],
    ) -> Option<ReplanOutcome> {
        self.consider_with(plan, observations, true)
    }

    fn consider_with(
        &self,
        plan: &PhysicalPlan,
        observations: &[SiteObservation],
        oracle: bool,
    ) -> Option<ReplanOutcome> {
        if !self.policy.enabled {
            return None;
        }
        // Worst misestimate among trustworthy (fully measured) sites.
        let worst = observations
            .iter()
            .filter(|o| !o.failed)
            .filter_map(|o| {
                let p = o.predicted_rows?;
                self.policy
                    .triggers(p, o.observed_rows)
                    .then(|| (o, (o.observed_rows.max(1.0) / p.max(1.0)).ln().abs()))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))?
            .0;

        if disco_obs::enabled() {
            disco_obs::counter(disco_obs::names::REPLAN_CONSIDERED, &[]).inc();
        }

        let mut event = ReplanEvent {
            wrapper: worst.wrapper.clone(),
            predicted_rows: worst.predicted_rows.unwrap_or(0.0),
            observed_rows: worst.observed_rows,
            old_cost_ms: 0.0,
            new_cost_ms: 0.0,
            switched: false,
        };
        let keep = |event| {
            Some(ReplanOutcome {
                event,
                new_plan: None,
            })
        };

        // Every observation (failed ones included) corrects its submit
        // leaf: the materialized input *is* that size now.
        let mut overrides = CardinalityOverrides::new();
        for o in observations {
            overrides.insert(&o.wrapper, &o.plan, o.observed_rows, o.observed_bytes);
        }
        // Overrides bake into memoized costs, so the cache must be fresh
        // for this override set (see `CardinalityOverrides`).
        let cache = EstimatorCache::new();
        let estimator = Estimator::new(self.registry, self.catalog)
            .with_health(self.health)
            .with_overrides(Some(&overrides));
        let mut pricer = Pricer::new(estimator, Some(&cache));

        let (suffix, tree) = split_suffix(plan);
        // Nothing reorderable (single site, undecomposable tree): record
        // that the trigger fired but the plan stands.
        let Some(graph) = decompose(tree, &mut pricer) else {
            return keep(event);
        };
        let Ok(Some(current)) = pricer.price(tree, None) else {
            return keep(event);
        };
        let current = current.total_time;
        // The fetches are sunk: every candidate order consumes the same
        // already-materialized subanswers, so the margin is judged on the
        // combine-side cost alone — leaving the identical submit terms in
        // would dilute any join-order win below the margin.
        let sunk: f64 = graph.leaves().map(|l| l.cost.total_time).sum();
        event.old_cost_ms = (current - sunk).max(0.0);
        event.new_cost_ms = event.old_cost_ms;

        // The running plan's corrected cost bounds the search (§4.3.2):
        // only an order at least as cheap can complete.
        let mut search = Search {
            pricer,
            finish: &[],
            objective: Objective::TotalTime,
            prune: true,
        };
        let best = if oracle {
            graph.permutations(&mut search, Some(current))
        } else {
            graph.search(&mut search, Some(current))
        };
        // A search that errs or abandons every order keeps the plan.
        let Ok(Some((best, cost))) = best else {
            return keep(event);
        };
        event.new_cost_ms = (cost.total_time - sunk).max(0.0);

        if event.new_cost_ms < event.old_cost_ms * (1.0 - self.policy.switch_margin) {
            event.switched = true;
            if disco_obs::enabled() {
                disco_obs::counter(disco_obs::names::REPLAN_EXECUTED, &[]).inc();
                disco_obs::histogram(disco_obs::names::REPLAN_WIN_MS, &[])
                    .observe(event.old_cost_ms - event.new_cost_ms);
            }
            return Some(ReplanOutcome {
                event,
                new_plan: Some(apply_suffix(&suffix, best)),
            });
        }
        keep(event)
    }
}

/// Strip mediator-side unary operators off the top of the plan until the
/// join tree (or whatever else) is exposed, outermost first. They are
/// reapplied verbatim over the re-ordered tree.
fn split_suffix(plan: &PhysicalPlan) -> (Vec<Post>, &PhysicalPlan) {
    let mut suffix = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            PhysicalPlan::Filter { input, predicate } => {
                suffix.push(Post::Filter(predicate.clone()));
                cur = input;
            }
            PhysicalPlan::Project { input, columns } => {
                suffix.push(Post::Project(columns.clone()));
                cur = input;
            }
            PhysicalPlan::Sort { input, keys } => {
                suffix.push(Post::Sort(keys.clone()));
                cur = input;
            }
            PhysicalPlan::Dedup { input } => {
                suffix.push(Post::Dedup);
                cur = input;
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                suffix.push(Post::Aggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                });
                cur = input;
            }
            _ => return (suffix, cur),
        }
    }
}

/// Reapply stripped operators (innermost last in `suffix`, so rebuild in
/// reverse).
fn apply_suffix(suffix: &[Post], tree: PhysicalPlan) -> PhysicalPlan {
    suffix.iter().rev().fold(tree, |tree, op| op.over(tree))
}

/// Flatten the join tree into the join graph: non-`Join` subtrees are
/// opaque leaves (a submit, a fused multi-table submit, a filtered
/// submit, even a union), each priced once under the overrides, and join
/// predicates become edges between the leaves owning their attributes.
/// `None` when the tree is not a cleanly decomposable inner-equi/theta
/// join tree (an attribute resolving to zero or several leaves, a leaf
/// the estimator cannot price, …) — in that case the plan is left alone,
/// which is always safe.
fn decompose(tree: &PhysicalPlan, pricer: &mut Pricer<'_>) -> Option<JoinGraph> {
    let mut leaf_plans: Vec<&PhysicalPlan> = Vec::new();
    let mut preds: Vec<&JoinPredicate> = Vec::new();
    collect(tree, &mut leaf_plans, &mut preds);
    if leaf_plans.len() < 2 || preds.len() != leaf_plans.len() - 1 {
        return None;
    }

    let mut schemas = Vec::with_capacity(leaf_plans.len());
    let mut leaves = Vec::with_capacity(leaf_plans.len());
    for lp in leaf_plans {
        schemas.push(to_logical(lp).output_schema().ok()?);
        // One price per leaf: its cost in the search, and its share of
        // the sunk fetch cost.
        leaves.push(pricer.leaf(lp.clone()).ok()?);
    }

    let mut graph = JoinGraph::new(leaves);
    for p in preds {
        let a = owner(&schemas, &p.left_attr)?;
        let b = owner(&schemas, &p.right_attr)?;
        if a == b {
            return None;
        }
        graph.connect(a, b, p.clone());
    }
    Some(graph)
}

/// Collect join-tree leaves and predicates depth-first, left before
/// right (matching submit/fetch order).
fn collect<'p>(
    plan: &'p PhysicalPlan,
    leaves: &mut Vec<&'p PhysicalPlan>,
    preds: &mut Vec<&'p JoinPredicate>,
) {
    match plan {
        PhysicalPlan::Join {
            left,
            right,
            predicate,
            ..
        } => {
            preds.push(predicate);
            collect(left, leaves, preds);
            collect(right, leaves, preds);
        }
        other => leaves.push(other),
    }
}

/// The unique leaf whose output schema contains `attr` (attributes are
/// alias-qualified, so ambiguity means the tree is not safely
/// decomposable).
fn owner(schemas: &[Schema], attr: &str) -> Option<usize> {
    let mut found = None;
    for (i, schema) in schemas.iter().enumerate() {
        if schema.index_of(attr).is_some() {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_dead_zone_and_threshold() {
        let p = AdaptivePolicy {
            enabled: true,
            error_threshold: 4.0,
            min_rows: 100.0,
            ..Default::default()
        };
        // Inside the dead zone: 10 vs 90 rows is 9x off but only 80 rows.
        assert!(!p.triggers(10.0, 90.0));
        // Outside the dead zone and over the threshold, both directions.
        assert!(p.triggers(100.0, 5000.0));
        assert!(p.triggers(5000.0, 100.0));
        // Outside the dead zone but under the threshold.
        assert!(!p.triggers(1000.0, 2000.0));
    }

    #[test]
    fn event_renders_the_roadmap_line() {
        let e = ReplanEvent {
            wrapper: "s".into(),
            predicted_rows: 1000.0,
            observed_rows: 800_000.0,
            old_cost_ms: 1234.0,
            new_cost_ms: 56.0,
            switched: true,
        };
        let line = e.render();
        assert!(line.starts_with("re-optimized: predicted 1000 rows, observed 800k"));
        assert!(line.contains("switched join order"));
    }

    /// E18 through the audited search: the re-planner's DP candidates,
    /// priced by id under the measured cardinalities, equal their
    /// materialized trees priced by the uncached tree entry point.
    #[test]
    fn e18_replan_candidates_equal_their_trees() {
        use disco_common::{AttributeDef, DataType, Value};
        use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
        use disco_wrapper::SourceWrapper;

        use crate::join_graph::audit;
        use crate::Mediator;

        let long = |attrs: &[&str]| {
            Schema::new(
                attrs
                    .iter()
                    .map(|a| AttributeDef::new(*a, DataType::Long))
                    .collect(),
            )
        };
        // `crates/bench/src/bin/adaptive_skew.rs`'s chain
        // `A(x,p) ⋈ B(x,y) ⋈ S(y,k)`, `S` skewed.
        let mut a = PagedStore::new("a", CostProfile::relational());
        a.add_collection(
            "A",
            CollectionBuilder::new(long(&["x", "p"]))
                .rows((0..4_000i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)]))
                .index("p"),
        )
        .unwrap();
        let mut b = PagedStore::new("b", CostProfile::relational());
        b.add_collection(
            "B",
            CollectionBuilder::new(long(&["x", "y"])).rows((0..2_000i64).map(|i| {
                if i < 1_000 {
                    vec![Value::Long(100_000 + i), Value::Long(0)]
                } else {
                    let x = i - 1_000;
                    let y = if x == 7 { 0 } else { 4 + (x % 96) };
                    vec![Value::Long(x), Value::Long(y)]
                }
            })),
        )
        .unwrap();
        let mut s = PagedStore::new("s", CostProfile::relational());
        s.add_collection(
            "S",
            CollectionBuilder::new(long(&["y", "k"]))
                .rows((0..8_000i64).map(|i| {
                    if i < 7_000 {
                        vec![Value::Long(0), Value::Long(0)]
                    } else {
                        vec![Value::Long(4 + (i % 96)), Value::Long(i - 7_000 + 1)]
                    }
                }))
                .index("k"),
        )
        .unwrap();
        let mut m = Mediator::new();
        for (name, store) in [("a", a), ("b", b), ("s", s)] {
            m.register(Box::new(SourceWrapper::new(name, store)))
                .unwrap();
        }
        let sql = "SELECT a.x, b.y, s.k FROM A a, B b, S s \
                   WHERE a.p = 2 AND a.x = b.x AND b.y = s.y AND s.k = 0";
        let plan = m.plan(sql).unwrap().physical;
        let r = m.query(sql).unwrap();
        let estimator = Estimator::new(m.registry(), m.catalog()).with_health(Some(m.health()));
        let observations: Vec<SiteObservation> = r
            .trace
            .submits
            .iter()
            .map(|s| SiteObservation {
                wrapper: s.wrapper.clone(),
                plan: s.plan.clone(),
                predicted_rows: estimator
                    .estimate(&LogicalPlan::Submit {
                        wrapper: s.wrapper.clone(),
                        input: Box::new(s.plan.clone()),
                    })
                    .ok()
                    .map(|c| c.count_object),
                observed_rows: s.tuples as f64,
                observed_bytes: s.bytes as f64,
                failed: s.failed,
            })
            .collect();
        let replanner = Replanner::new(
            m.registry(),
            m.catalog(),
            Some(m.health()),
            AdaptivePolicy::enabled(),
        );
        let (outcome, records) = audit::record(|| replanner.consider(&plan, &observations));
        assert!(outcome.is_some_and(|o| o.event.switched), "E18 re-plans");
        assert!(!records.is_empty());
        for (by_id, by_tree) in records {
            let bits = |c: Option<disco_core::NodeCost>| {
                c.map(|c| disco_costlang::CostVar::ALL.map(|v| c.get(v).to_bits()))
            };
            assert_eq!(bits(by_id), bits(by_tree));
        }
    }
}
