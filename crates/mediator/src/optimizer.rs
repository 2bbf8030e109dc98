//! Plan enumeration and cost-based selection (paper §2.2, §4).
//!
//! "From a declarative query, the mediator can generate multiple access
//! plans involving local operations at the data source level and global
//! ones at the mediator level." The optimizer enumerates:
//!
//! * **pushdown variants** per table — execute selections/projections at
//!   the wrapper (when its capabilities allow) or compensate at the
//!   mediator;
//! * **join orders** — left-deep trees, connected-subgraph-first.
//!
//! Join orders come from the one search of the `join_graph` module,
//! which the adaptive re-planner runs too: Selinger-style dynamic
//! programming over connected table subsets, greedy beyond twelve
//! tables. Candidate estimation runs over two caches built for the run
//! (subplan cost memo + rule-resolution cache, see
//! [`disco_core::cache`]), and the search hands the estimator interned
//! ids, never a candidate tree; the whole search is one serial walk on
//! the calling thread. [`Optimizer::optimize_by_permutation`] runs the
//! exhaustive permutation sweep over the same graph instead, uncached:
//! the equivalence oracle and perf baseline, not an option.
//!
//! With [`OptimizerOptions::pruning`] (default on) the best complete
//! plan's cost becomes the estimator's cost limit, abandoning estimation
//! of worse candidates midway (§4.3.2). From three tables on, where the
//! DP has frontier subplans to abandon, a greedy complete plan seeds that
//! limit.
//!
//! **Objective.** Plans are ranked by [`OptimizerOptions::objective`]:
//! `TotalTime` (the default — throughput) or `TimeFirst` (latency to the
//! first answer tuple, the cost model's `TimeFirst` variable). A `LIMIT`
//! or interactive hint selects `TimeFirst`, pairing with the executor's
//! chunked mode which can stop early. The DP memo's Pareto set already
//! keeps `time_first`-optimal prefixes, so only the final ranking (and
//! the access-variant choice) re-keys; §4.3.2 cost-limit pruning is
//! disabled under `TimeFirst` because the estimator's abandon check
//! compares accumulated *total* time, not time-to-first.

use disco_algebra::{
    JoinKind, JoinPredicate, LogicalPlan, OperatorKind, PhysicalPlan, Predicate, ScalarExpr,
    SelectPredicate,
};
use disco_catalog::{CapabilityProfile, Catalog};
use disco_common::{DiscoError, HealthTracker, QualifiedName, Result, Value};
use disco_core::{Association, Estimator, EstimatorCache, NodeCost, RuleRegistry};

use crate::analyze::AnalyzedQuery;
use crate::executor::SitePrediction;
use crate::join_graph::{JoinGraph, Leaf, Post, Pricer, Search, DP_MAX_LEAVES};

/// Which cost variable ranks complete plans (paper §3: the mediator
/// cost model exposes several optimization goals, not just one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize `TotalTime` — best full-answer throughput (default).
    #[default]
    TotalTime,
    /// Minimize `TimeFirst` — best latency to the first answer tuple.
    /// Chosen for `LIMIT`/interactive queries; pays off under chunked
    /// execution, which delivers rows as wrappers produce them.
    TimeFirst,
}

impl Objective {
    /// The value of this objective on one plan estimate.
    pub(crate) fn value(self, c: &NodeCost) -> f64 {
        match self {
            Objective::TotalTime => c.total_time,
            Objective::TimeFirst => c.time_first,
        }
    }
}

/// Tuning knobs for one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    /// Abandon plans whose partial cost exceeds the best found so far
    /// (§4.3.2). On by default.
    pub pruning: bool,
    /// Cost variable that ranks plans (see [`Objective`]).
    pub objective: Objective,
    /// Run the capability-negotiation pass after join enumeration
    /// (fusing same-wrapper joins and pushing grouped aggregates when
    /// the estimator prices the pushed form no worse). On by default;
    /// off isolates the enumerator, e.g. for DP-vs-oracle equivalence.
    pub negotiation: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            pruning: true,
            objective: Objective::TotalTime,
            negotiation: true,
        }
    }
}

/// The optimizer's output: the chosen plan plus work accounting.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    pub physical: PhysicalPlan,
    /// Blended-model estimate of the chosen plan.
    pub estimated: NodeCost,
    /// Complete plans costed.
    pub plans_considered: usize,
    /// Candidates abandoned by the cost limit (only with pruning):
    /// complete plans, and DP frontier subplans.
    pub plans_pruned: usize,
    /// Total estimator node visits across the run (memo hits count one
    /// visit; the subtree walk they skip counts nothing).
    pub estimator_nodes: usize,
    /// Total rule-body evaluations across the run.
    pub estimator_rules: usize,
    /// Subplan cost-memo hits across the run (0 for the permutation
    /// baseline, which runs uncached).
    pub memo_hits: usize,
    /// Rule-resolution cache hits across the run.
    pub rule_cache_hits: usize,
    /// Always `false`: the small-query fast path that bypassed the DP is
    /// gone. Kept because `query_profile` reports it.
    pub fast_path: bool,
    /// `LIMIT n` carried from the query: the executor caps the answer
    /// (and, in chunked mode, stops pulling) at `n` rows. Not part of the
    /// plan tree — enforcement is an executor concern.
    pub limit: Option<u64>,
    /// Constant-free decisions extracted from the *pre-negotiation*
    /// plan (the left-deep per-table shape [`Optimizer::replay`]
    /// rebuilds; negotiation re-runs deterministically on replay).
    /// `None` for shapes the replay path cannot rebuild.
    pub decisions: Option<PlanDecisions>,
    /// Human-readable capability-negotiation outcome, one line per
    /// operator: what was pushed into which wrapper, what was lifted
    /// into the mediator's combine plan, and why. Rendered by EXPLAIN.
    pub negotiation: Vec<String>,
    /// Each submit's own estimate, in fetch order (depth-first, left
    /// before right), from the same pricing that produced
    /// [`estimated`](Self::estimated): the executor's per-site
    /// predictions. `None` where pricing a submit failed.
    pub predictions: Vec<Option<SitePrediction>>,
}

/// The constant-free residue of one optimization run: which wrapper
/// served each table, which operators were pushed down, and the join
/// order. A plan cache stores this instead of the [`PhysicalPlan`]
/// itself so a later query with the same *shape* but different
/// constants can be rebuilt by [`Optimizer::replay`] — the incoming
/// query's own predicates are re-injected, never the cached ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDecisions {
    /// Per-table (indexed like `AnalyzedQuery::tables`) access choice.
    access: Vec<AccessDecision>,
    /// Left-deep join order as table indices.
    order: Vec<usize>,
}

/// One table's access-path choice (see [`PlanDecisions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct AccessDecision {
    wrapper: String,
    push_select: bool,
    push_project: bool,
}

impl PlanDecisions {
    /// Extract the decisions that produced `plan` for `q`. Returns
    /// `None` for shapes the replay path cannot rebuild (anything but
    /// a left-deep tree of single-submit leaves) — callers then simply
    /// skip caching.
    pub fn of(q: &AnalyzedQuery, plan: &PhysicalPlan) -> Option<PlanDecisions> {
        // Strip the post-join operators finish_plan stacked on top:
        // Sort? → Dedup? → Project(output) → Aggregate? → join tree.
        let mut p = plan;
        if let PhysicalPlan::Sort { input, .. } = p {
            p = input;
        }
        if let PhysicalPlan::Dedup { input } = p {
            p = input;
        }
        let PhysicalPlan::Project { input, .. } = p else {
            return None;
        };
        let mut p = input.as_ref();
        if let PhysicalPlan::Aggregate { input, .. } = p {
            p = input;
        }
        let mut leaves = Vec::new();
        collect_leaves(p, &mut leaves);
        if leaves.len() != q.tables.len() {
            return None;
        }
        let mut access: Vec<Option<AccessDecision>> = vec![None; q.tables.len()];
        let mut order = Vec::with_capacity(leaves.len());
        for leaf in leaves {
            let (t, d) = leaf_decision(q, leaf)?;
            if access[t].is_some() {
                return None;
            }
            access[t] = Some(d);
            order.push(t);
        }
        Some(PlanDecisions {
            access: access.into_iter().collect::<Option<Vec<_>>>()?,
            order,
        })
    }
}

/// Flatten a left-deep join tree into its leaves, leftmost first.
fn collect_leaves<'p>(p: &'p PhysicalPlan, out: &mut Vec<&'p PhysicalPlan>) {
    if let PhysicalPlan::Join { left, right, .. } = p {
        collect_leaves(left, out);
        collect_leaves(right, out);
    } else {
        out.push(p);
    }
}

/// Parse one access-plan leaf (mediator Project? → Filter? → submit)
/// back into the table it serves and the decisions that built it.
fn leaf_decision(q: &AnalyzedQuery, leaf: &PhysicalPlan) -> Option<(usize, AccessDecision)> {
    let mut p = leaf;
    let mut mediator_cols: Option<&[(String, ScalarExpr)]> = None;
    if let PhysicalPlan::Project { input, columns } = p {
        mediator_cols = Some(columns);
        p = input;
    }
    if let PhysicalPlan::Filter { input, .. } = p {
        p = input;
    }
    let PhysicalPlan::SubmitRemote { wrapper, plan, .. } = p else {
        return None;
    };
    // Inside the submit: Project? → Select? → Scan (access_variant's
    // construction order). The alias-qualified rename lives in
    // whichever Project exists.
    let mut inner = plan;
    let mut pushed_cols: Option<&[(String, ScalarExpr)]> = None;
    if let LogicalPlan::Project { input, columns } = inner {
        pushed_cols = Some(columns);
        inner = input;
    }
    let push_select = matches!(inner, LogicalPlan::Select { .. });
    let push_project = mediator_cols.is_none();
    if push_project != pushed_cols.is_some() {
        return None;
    }
    let rename = mediator_cols.or(pushed_cols)?;
    let (alias, _) = rename.first()?.0.split_once('.')?;
    let t = q.tables.iter().position(|b| b.alias == alias)?;
    Some((
        t,
        AccessDecision {
            wrapper: wrapper.clone(),
            push_select,
            push_project,
        },
    ))
}

/// A cached shape priced once: the plan [`Optimizer::replay`] builds for
/// it, that plan's logical form (what the estimator prices), the §4.2
/// association of the logical form, and where each restriction constant
/// sits in both. Both plans hold markers where the constants go. Built by
/// [`Optimizer::template`]; [`Optimizer::bind`] turns it into the plan of
/// one statement.
#[derive(Debug)]
pub(crate) struct BoundPlan {
    physical: PhysicalPlan,
    logical: LogicalPlan,
    association: Association,
    /// For each select conjunct, the restriction it holds (its index in
    /// `normalized_key` order), in the order [`visit_physical_conjuncts`]
    /// meets the conjuncts of `physical`. [`visit_logical_conjuncts`]
    /// meets those of `logical` in the same order: `to_logical` keeps
    /// every node and the order of its inputs, a filter becoming a
    /// selection.
    slots: Vec<usize>,
    negotiation: Vec<String>,
    decisions: PlanDecisions,
}

/// Visit every select conjunct of `plan`, depth first, a node before its
/// inputs and left before right.
fn visit_logical_conjuncts(plan: &mut LogicalPlan, f: &mut impl FnMut(&mut SelectPredicate)) {
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Select { input, predicate } => {
            predicate.conjuncts.iter_mut().for_each(&mut *f);
            visit_logical_conjuncts(input, f);
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Dedup { input }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Submit { input, .. } => visit_logical_conjuncts(input, f),
        LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
            visit_logical_conjuncts(left, f);
            visit_logical_conjuncts(right, f);
        }
    }
}

/// [`visit_logical_conjuncts`] over a physical plan: its mediator-side
/// filters and the subplans it submits.
fn visit_physical_conjuncts(plan: &mut PhysicalPlan, f: &mut impl FnMut(&mut SelectPredicate)) {
    match plan {
        PhysicalPlan::SubmitRemote { plan, .. } => visit_logical_conjuncts(plan, f),
        PhysicalPlan::Filter { input, predicate } => {
            predicate.conjuncts.iter_mut().for_each(&mut *f);
            visit_physical_conjuncts(input, f);
        }
        PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Dedup { input }
        | PhysicalPlan::Aggregate { input, .. } => visit_physical_conjuncts(input, f),
        PhysicalPlan::Join { left, right, .. } | PhysicalPlan::Union { left, right } => {
            visit_physical_conjuncts(left, f);
            visit_physical_conjuncts(right, f);
        }
    }
}

/// Cost-based optimizer over a catalog and rule registry.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    registry: &'a RuleRegistry,
    options: OptimizerOptions,
    tracer: Option<disco_obs::Tracer>,
    health: Option<&'a HealthTracker>,
}

/// Convert a physical plan to the logical form the estimator prices.
pub fn to_logical(plan: &PhysicalPlan) -> LogicalPlan {
    match plan {
        PhysicalPlan::SubmitRemote { wrapper, plan, .. } => LogicalPlan::Submit {
            wrapper: wrapper.clone(),
            input: Box::new(plan.clone()),
        },
        PhysicalPlan::Filter { input, predicate } => LogicalPlan::Select {
            input: Box::new(to_logical(input)),
            predicate: predicate.clone(),
        },
        PhysicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(to_logical(input)),
            columns: columns.clone(),
        },
        PhysicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(to_logical(input)),
            keys: keys.clone(),
        },
        PhysicalPlan::Join {
            left,
            right,
            predicate,
            ..
        } => LogicalPlan::Join {
            left: Box::new(to_logical(left)),
            right: Box::new(to_logical(right)),
            predicate: predicate.clone(),
            kind: JoinKind::Inner,
        },
        PhysicalPlan::Union { left, right } => LogicalPlan::Union {
            left: Box::new(to_logical(left)),
            right: Box::new(to_logical(right)),
        },
        PhysicalPlan::Dedup { input } => LogicalPlan::Dedup {
            input: Box::new(to_logical(input)),
        },
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(to_logical(input)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
    }
}

/// The join graph of `q` over its chosen access plans: one edge per join
/// condition, over alias-qualified names.
fn join_graph(q: &AnalyzedQuery, access: Vec<Leaf>) -> JoinGraph {
    let mut graph = JoinGraph::new(access);
    for j in &q.joins {
        let predicate = JoinPredicate {
            left_attr: format!("{}.{}", q.tables[j.left_table].alias, j.left_attr),
            op: j.op,
            right_attr: format!("{}.{}", q.tables[j.right_table].alias, j.right_attr),
        };
        graph.connect(j.left_table, j.right_table, predicate);
    }
    graph
}

impl<'a> Optimizer<'a> {
    /// §4.3.2 pruning is sound only when the objective matches the
    /// estimator's abandon check, which accumulates total time.
    fn pruning_on(&self) -> bool {
        self.options.pruning && self.options.objective == Objective::TotalTime
    }

    /// Build an optimizer.
    pub fn new(
        catalog: &'a Catalog,
        registry: &'a RuleRegistry,
        options: OptimizerOptions,
    ) -> Self {
        Optimizer {
            catalog,
            registry,
            options,
            tracer: None,
            health: None,
        }
    }

    /// Attach a tracer; `optimize` then records `access-plans` and
    /// `join-enumeration` phase spans with work-counter events.
    pub fn with_tracer(mut self, tracer: disco_obs::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Consult a health tracker when pricing submits (builder style):
    /// penalized wrappers estimate slower and lose access plans to
    /// their replicas.
    pub fn with_health(mut self, health: Option<&'a HealthTracker>) -> Self {
        self.health = health;
        self
    }

    /// Rank candidate plans by `objective` instead of the default
    /// `TotalTime` (builder style). See [`Objective`].
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.options.objective = objective;
        self
    }

    /// Optimize an analyzed query into a physical plan.
    pub fn optimize(&self, q: &AnalyzedQuery) -> Result<OptimizedPlan> {
        self.run(q, false)
    }

    /// The equivalence oracle: [`Self::optimize`] with the join order
    /// found by sweeping every connected left-deep order of the same join
    /// graph, uncached (so its work counters are the from-scratch cost),
    /// with `pruning` honoured. For tests and experiments.
    pub fn optimize_by_permutation(&self, q: &AnalyzedQuery) -> Result<OptimizedPlan> {
        self.run(q, true)
    }

    fn run(&self, q: &AnalyzedQuery, oracle: bool) -> Result<OptimizedPlan> {
        if q.tables.is_empty() {
            return Err(DiscoError::Plan("query has no tables".into()));
        }
        let estimator = self.estimator();
        let cache_store = EstimatorCache::new();
        let cache = (!oracle).then_some(&cache_store);
        let mut pricer = Pricer::new(estimator, cache);
        let n = q.tables.len();

        // Phase 1: best access variant per table.
        let span = self.tracer.as_ref().map(|t| t.start("access-plans"));
        let access = (0..n)
            .map(|t| self.best_access(q, t, &mut pricer))
            .collect::<Result<Vec<Leaf>>>()?;
        if let Some(s) = span {
            if let Some(t) = &self.tracer {
                t.event("tables", n);
            }
            s.finish();
        }

        // Phase 2: join order.
        let strategy = match n {
            _ if oracle => "permutation",
            1 => "single-table",
            _ if n <= DP_MAX_LEAVES => "dp",
            _ => "greedy",
        };
        let span = self.tracer.as_ref().map(|t| t.start("join-enumeration"));
        let graph = join_graph(q, access);
        graph.check(|t| q.tables[t].alias.clone())?;
        let finish = self.finish_ops(q);
        let mut search = Search {
            pricer,
            finish: &finish,
            objective: self.options.objective,
            prune: self.pruning_on(),
        };
        let best = if oracle {
            graph.permutations(&mut search, None)?
        } else if search.prune && (3..=DP_MAX_LEAVES).contains(&n) {
            // §4.3.2 seed: a greedy complete plan bounds the cost limit
            // so even frontier subplans can be abandoned. The greedy plan
            // is itself in the DP's search space, so the bound is
            // attainable; it is a bound only, and an exact tie goes to
            // the DP's own plan.
            let order = graph.greedy().expect("checked connected");
            let seed = graph.price_order(&mut search, &order, None)?;
            let bound = seed.as_ref().map(|c| search.objective.value(c));
            match graph.search(&mut search, bound)? {
                Some(best) => Some(best),
                None => seed
                    .map(|cost| Ok((graph.tree(&order)?, cost)))
                    .transpose()?,
            }
        } else {
            graph.search(&mut search, None)?
        };
        let (best_join, best_cost) =
            best.ok_or_else(|| DiscoError::Plan("no join order found".into()))?;
        let mut pricer = search.pricer;

        if let Some(s) = span {
            if let Some(t) = &self.tracer {
                t.event("strategy", strategy);
                t.event("plans_considered", pricer.counters.considered);
                t.event("plans_pruned", pricer.counters.pruned);
                t.event("estimator_nodes", pricer.counters.nodes);
                t.event("estimator_rules", pricer.counters.rules);
                t.event("memo_hits", cache.map_or(0, |c| c.cost_hits()));
                t.event("rule_cache_hits", cache.map_or(0, |c| c.rule_hits()));
            }
            s.finish();
        }

        let physical = self.finish_plan(q, best_join);
        // Decisions are extracted from the pre-negotiation plan: the
        // negotiation pass may fuse leaves into multi-table submits,
        // which the replay path rebuilds by re-running negotiation.
        let decisions = PlanDecisions::of(q, &physical);
        let (physical, best_cost, negotiation) = if self.options.negotiation {
            self.negotiate(q, physical, best_cost, decisions.as_ref(), &mut pricer)?
        } else {
            (physical, best_cost, Vec::new())
        };
        // Publish the whole run — join search and negotiation — to the
        // global registry: cumulative counters and hit-rate gauges that
        // agree with the `memo_hits` / `rule_cache_hits` reported below.
        if let Some(c) = cache {
            c.publish_metrics();
        }
        let memo_hits = cache.map_or(0, |c| c.cost_hits());
        let rule_cache_hits = cache.map_or(0, |c| c.rule_hits());
        let predictions = pricer.predictions(&physical);
        let counters = pricer.counters;
        Ok(OptimizedPlan {
            physical,
            estimated: best_cost,
            plans_considered: counters.considered,
            plans_pruned: counters.pruned,
            estimator_nodes: counters.nodes,
            estimator_rules: counters.rules,
            memo_hits,
            rule_cache_hits,
            fast_path: false,
            limit: q.limit,
            decisions,
            negotiation,
            predictions,
        })
    }

    /// Rebuild a plan for `q` from cached [`PlanDecisions`] without any
    /// enumeration: one access variant per table, one join tree, one
    /// estimate. The incoming query's own selections and projections
    /// are re-injected, so constants differing from the run that
    /// produced the decisions yield a correct (if possibly no longer
    /// optimal — standard prepared-statement semantics) plan. Errors
    /// when the decisions no longer fit the query or catalog; callers
    /// fall back to [`Self::optimize`].
    pub fn replay(&self, q: &AnalyzedQuery, decisions: &PlanDecisions) -> Result<OptimizedPlan> {
        let physical = self.rebuild(q, decisions)?;
        let cache = EstimatorCache::new();
        let mut pricer = Pricer::new(self.estimator(), Some(&cache));
        let cost = pricer
            .price(&physical, None)?
            .ok_or_else(|| DiscoError::Cost("replay estimate abandoned without a limit".into()))?;
        // Negotiation is deterministic given catalog + registry + health,
        // so replaying the cached decisions re-derives the same pushdown
        // split the original optimization chose.
        let (physical, estimated, negotiation) = if self.options.negotiation {
            self.negotiate(q, physical, cost, Some(decisions), &mut pricer)?
        } else {
            (physical, cost, Vec::new())
        };
        let predictions = pricer.predictions(&physical);
        Ok(OptimizedPlan {
            physical,
            estimated,
            plans_considered: 0,
            plans_pruned: 0,
            estimator_nodes: pricer.counters.nodes,
            estimator_rules: pricer.counters.rules,
            memo_hits: 0,
            rule_cache_hits: 0,
            fast_path: false,
            limit: q.limit,
            decisions: Some(decisions.clone()),
            negotiation,
            predictions,
        })
    }

    /// The plan [`Self::replay`] prices, before negotiation: the decided
    /// access variant per table, the decided join order, the post-join
    /// operators on top.
    fn rebuild(&self, q: &AnalyzedQuery, decisions: &PlanDecisions) -> Result<PhysicalPlan> {
        let n = q.tables.len();
        if decisions.access.len() != n || decisions.order.len() != n || n == 0 {
            return Err(DiscoError::Plan(
                "cached decisions do not match query shape".into(),
            ));
        }
        let mut access: Vec<Leaf> = Vec::with_capacity(n);
        for (t, d) in decisions.access.iter().enumerate() {
            let binding = &q.tables[t];
            let sels: Vec<&SelectPredicate> = q
                .selections
                .iter()
                .filter(|(ti, _)| *ti == t)
                .map(|(_, p)| p)
                .collect();
            let mut cols: Vec<String> = q.needed[t].clone();
            if cols.is_empty() {
                cols.push(binding.schema.attributes()[0].name.clone());
            }
            let plan = self.access_variant(
                q,
                t,
                &d.wrapper,
                &cols,
                &sels,
                (d.push_select && !sels.is_empty(), d.push_project),
            )?;
            access.push(Leaf {
                plan,
                cost: NodeCost::ZERO,
                id: None,
            });
        }
        let join = join_graph(q, access).tree(&decisions.order)?;
        Ok(self.finish_plan(q, join))
    }

    /// Price the shape of `q` once, for every later query of that shape:
    /// the plan [`Self::replay`] builds from `decisions`, with each
    /// restriction constant replaced by a marker naming its parameter
    /// slot, and the §4.2 association of its logical form. `None` when the
    /// shape must keep replaying, because the association or the plan
    /// would change with the constants: some node has a rule whose head
    /// binds a constant and can match it ([`Estimator::associate`]), or
    /// negotiation has a choice to make — a same-wrapper join to fuse or
    /// an aggregate to push, each adopted by cost. Nothing else read here
    /// (the access and join decisions, negotiation's eligibility and
    /// notes, the association of a head that binds no constant) looks at
    /// a constant, so the marked plan serves every statement of the shape.
    pub(crate) fn template(
        &self,
        q: &AnalyzedQuery,
        decisions: &PlanDecisions,
    ) -> Result<Option<BoundPlan>> {
        let mut marked = q.clone();
        for (i, (_, p)) in marked.selections.iter_mut().enumerate() {
            p.value = Value::Long(i as i64);
        }
        let mut physical = self.rebuild(&marked, decisions)?;
        if self.options.negotiation
            && (!fusion_variants(&physical, self.catalog).is_empty()
                || (q.is_aggregate() && push_aggregate(&physical, self.catalog).1))
        {
            return Ok(None);
        }
        let logical = to_logical(&physical);
        let Some(association) = self.estimator().associate(&logical) else {
            return Ok(None);
        };
        let mut slots = Vec::new();
        visit_physical_conjuncts(&mut physical, &mut |c| match c.value {
            Value::Long(i) => slots.push(i as usize),
            _ => unreachable!("every conjunct holds a marker"),
        });
        let negotiation = if self.options.negotiation {
            self.negotiation_notes(q, Some(decisions), &physical)
        } else {
            Vec::new()
        };
        Ok(Some(BoundPlan {
            physical,
            logical,
            association,
            slots,
            negotiation,
            decisions: decisions.clone(),
        }))
    }

    /// The plan of `template`'s shape for the restriction constants
    /// `constants` (in `normalized_key` order) and `limit`: the constants
    /// written into copies of the template, the copy priced by the §4.2
    /// evaluation phase alone over the cached association. Equal, bit for
    /// bit, to what [`Self::replay`] returns for the same statement.
    pub(crate) fn bind(
        &self,
        template: &BoundPlan,
        constants: &[&Value],
        limit: Option<u64>,
    ) -> Result<OptimizedPlan> {
        if template.slots.iter().any(|&i| i >= constants.len()) {
            return Err(DiscoError::Plan(
                "statement constants do not fit the cached plan".into(),
            ));
        }
        let mut physical = template.physical.clone();
        let mut at = template.slots.iter();
        visit_physical_conjuncts(&mut physical, &mut |c| {
            c.value = constants[*at.next().expect("one slot per conjunct")].clone();
        });
        let mut logical = template.logical.clone();
        let mut at = template.slots.iter();
        visit_logical_conjuncts(&mut logical, &mut |c| {
            c.value = constants[*at.next().expect("one slot per conjunct")].clone();
        });
        let bound = self
            .estimator()
            .evaluate_bound(&logical, &template.association)?;
        Ok(OptimizedPlan {
            physical,
            estimated: bound.report.cost,
            plans_considered: 0,
            plans_pruned: 0,
            estimator_nodes: bound.report.nodes_visited,
            estimator_rules: bound.report.rules_evaluated,
            memo_hits: 0,
            rule_cache_hits: 0,
            fast_path: false,
            limit,
            decisions: Some(template.decisions.clone()),
            negotiation: template.negotiation.clone(),
            predictions: bound
                .submits
                .iter()
                .map(|c| c.as_ref().map(SitePrediction::of))
                .collect(),
        })
    }

    /// The estimator every pricing of this optimizer uses.
    fn estimator(&self) -> Estimator<'a> {
        Estimator::new(self.registry, self.catalog).with_health(self.health)
    }

    /// Enumerate pushdown variants (and replica wrappers) for one table
    /// and keep the cheapest.
    fn best_access(&self, q: &AnalyzedQuery, t: usize, pricer: &mut Pricer<'_>) -> Result<Leaf> {
        let binding = &q.tables[t];
        // The resolved wrapper comes first so it wins cost ties; declared
        // replica peers compete when health penalties or cost models make
        // them cheaper.
        let mut candidates: Vec<String> = vec![binding.qname.wrapper.clone()];
        candidates.extend(self.catalog.replica_peers(&binding.qname));

        let sels: Vec<&SelectPredicate> = q
            .selections
            .iter()
            .filter(|(ti, _)| *ti == t)
            .map(|(_, p)| p)
            .collect();

        // Columns shipped out of the wrapper, with their qualified names.
        let mut cols: Vec<String> = q.needed[t].clone();
        if cols.is_empty() {
            // Count-only queries still need one physical column.
            cols.push(binding.schema.attributes()[0].name.clone());
        }

        let mut best: Option<(f64, Leaf)> = None;
        for wrapper in &candidates {
            let caps = &self
                .catalog
                .wrapper(wrapper)
                .ok_or_else(|| DiscoError::Catalog(format!("wrapper `{wrapper}` not registered")))?
                .capabilities;
            let can_select = caps.supports(OperatorKind::Select);
            let can_project = caps.supports(OperatorKind::Project);

            let mut variants: Vec<(bool, bool)> = Vec::new();
            for ps in [can_select && !sels.is_empty(), false] {
                for pp in [can_project, false] {
                    if !variants.contains(&(ps, pp)) {
                        variants.push((ps, pp));
                    }
                }
            }

            for (push_select, push_project) in variants {
                let plan =
                    self.access_variant(q, t, wrapper, &cols, &sels, (push_select, push_project))?;
                let leaf = pricer.leaf(plan)?;
                let value = self.options.objective.value(&leaf.cost);
                if best.as_ref().is_none_or(|(v, _)| value < *v) {
                    best = Some((value, leaf));
                }
            }
        }
        Ok(best.expect("at least one variant").1)
    }

    fn access_variant(
        &self,
        q: &AnalyzedQuery,
        t: usize,
        wrapper: &str,
        cols: &[String],
        sels: &[&SelectPredicate],
        (push_select, push_project): (bool, bool),
    ) -> Result<PhysicalPlan> {
        let binding = &q.tables[t];
        let qname = if wrapper == binding.qname.wrapper {
            binding.qname.clone()
        } else {
            QualifiedName::new(wrapper, &binding.qname.collection)
        };
        let rename: Vec<(String, ScalarExpr)> = cols
            .iter()
            .map(|c| {
                (
                    format!("{}.{c}", binding.alias),
                    ScalarExpr::attr(c.clone()),
                )
            })
            .collect();

        let mut inner = LogicalPlan::Scan {
            collection: qname,
            schema: binding.schema.clone(),
        };
        if push_select && !sels.is_empty() {
            inner = LogicalPlan::Select {
                input: Box::new(inner),
                predicate: Predicate::all(sels.iter().map(|p| (*p).clone()).collect()),
            };
        }
        if push_project {
            inner = LogicalPlan::Project {
                input: Box::new(inner),
                columns: rename.clone(),
            };
        }
        let schema = inner.output_schema()?;
        let mut phys = PhysicalPlan::SubmitRemote {
            wrapper: wrapper.to_string(),
            plan: inner,
            schema,
        };
        if !push_select && !sels.is_empty() {
            // Names seen at the mediator depend on whether the wrapper
            // already renamed.
            let preds: Vec<SelectPredicate> = sels
                .iter()
                .map(|p| {
                    let attr = if push_project {
                        format!("{}.{}", binding.alias, p.attribute)
                    } else {
                        p.attribute.clone()
                    };
                    SelectPredicate::new(attr, p.op, p.value.clone())
                })
                .collect();
            phys = PhysicalPlan::Filter {
                input: Box::new(phys),
                predicate: Predicate::all(preds),
            };
        }
        if !push_project {
            phys = PhysicalPlan::Project {
                input: Box::new(phys),
                columns: rename,
            };
        }
        Ok(phys)
    }

    /// Aggregate / project / distinct / sort on top of the join tree,
    /// innermost first.
    fn finish_ops(&self, q: &AnalyzedQuery) -> Vec<Post> {
        let mut ops = Vec::with_capacity(4);
        if q.is_aggregate() {
            ops.push(Post::Aggregate {
                group_by: q.group_by.clone(),
                aggs: q.aggs.clone(),
            });
        }
        ops.push(Post::Project(q.output.clone()));
        if q.distinct {
            ops.push(Post::Dedup);
        }
        if !q.order_by.is_empty() {
            ops.push(Post::Sort(q.order_by.clone()));
        }
        ops
    }

    /// The join tree with [`Self::finish_ops`] stacked on top.
    fn finish_plan(&self, q: &AnalyzedQuery, plan: PhysicalPlan) -> PhysicalPlan {
        self.finish_ops(q)
            .iter()
            .fold(plan, |plan, op| op.over(plan))
    }

    /// Capability-driven pushdown negotiation (the post-plan rewrite).
    ///
    /// The access phase already negotiates select/project pushdown per
    /// table against declared capabilities; this pass handles the
    /// *multi-table* operators. Joins whose two sides land on the same
    /// Join-capable wrapper are fused into one submit, and a grouped
    /// aggregate sitting directly on a lone submit is pushed into an
    /// Aggregate-capable wrapper. Each rewrite is adopted only when the
    /// estimator prices it no worse than the mediator-side original
    /// under the configured objective, so a wrapper whose exported cost
    /// rules make source-side joins expensive keeps them in the combine
    /// plan. The returned notes record every pushed/lifted decision and
    /// why; EXPLAIN renders them.
    fn negotiate(
        &self,
        q: &AnalyzedQuery,
        mut plan: PhysicalPlan,
        mut cost: NodeCost,
        decisions: Option<&PlanDecisions>,
        pricer: &mut Pricer<'_>,
    ) -> Result<(PhysicalPlan, NodeCost, Vec<String>)> {
        let value = |c: &NodeCost| self.options.objective.value(c);
        // Join fusion: price every variant and adopt the cheapest one
        // that is no worse than the mediator-side plan. Taking the min
        // over both orientations keeps the outcome independent of how
        // the enumerator tie-broke commuted join orders.
        let mut best: Option<(PhysicalPlan, NodeCost)> = None;
        for cand in fusion_variants(&plan, self.catalog) {
            let c = pricer.price(&cand, None)?.expect("no cost limit set");
            let admissible = value(&c) <= value(&cost);
            let improves = best.as_ref().is_none_or(|(_, b)| value(&c) < value(b));
            if admissible && improves {
                best = Some((cand, c));
            }
        }
        if let Some((p, c)) = best {
            plan = p;
            cost = c;
        }
        if q.is_aggregate() {
            let (pushed, changed) = push_aggregate(&plan, self.catalog);
            if changed {
                let c = pricer.price(&pushed, None)?.expect("no cost limit set");
                if value(&c) <= value(&cost) {
                    plan = pushed;
                    cost = c;
                }
            }
        }
        let notes = self.negotiation_notes(q, decisions, &plan);
        Ok((plan, cost, notes))
    }

    /// Derive the pushed-vs-lifted report from the final plan: which
    /// operators execute inside which wrapper, which were lifted into
    /// the mediator combine plan because a profile forbids them, and
    /// which stayed local by cost.
    fn negotiation_notes(
        &self,
        q: &AnalyzedQuery,
        decisions: Option<&PlanDecisions>,
        plan: &PhysicalPlan,
    ) -> Vec<String> {
        let mut notes = Vec::new();
        let profile = |w: &str| -> &'static str {
            self.catalog
                .wrapper(w)
                .map(|e| CapabilityProfile::classify(&e.capabilities))
                .unwrap_or("unknown")
        };
        let supports = |w: &str, op: OperatorKind| -> bool {
            self.catalog
                .wrapper(w)
                .is_some_and(|e| e.capabilities.supports(op))
        };
        if let Some(d) = decisions {
            for (t, a) in d.access.iter().enumerate() {
                let alias = &q.tables[t].alias;
                if q.selections.iter().any(|(ti, _)| *ti == t) {
                    if a.push_select {
                        notes.push(format!("select on `{alias}`: pushed to `{}`", a.wrapper));
                    } else if !supports(&a.wrapper, OperatorKind::Select) {
                        notes.push(format!(
                            "select on `{alias}`: lifted to mediator combine plan \
                             (profile `{}` of `{}` forbids select)",
                            profile(&a.wrapper),
                            a.wrapper
                        ));
                    } else {
                        notes.push(format!("select on `{alias}`: kept at mediator by cost"));
                    }
                }
                if a.push_project {
                    notes.push(format!("project on `{alias}`: pushed to `{}`", a.wrapper));
                } else if !supports(&a.wrapper, OperatorKind::Project) {
                    notes.push(format!(
                        "project on `{alias}`: lifted to mediator combine plan \
                         (profile `{}` of `{}` forbids project)",
                        profile(&a.wrapper),
                        a.wrapper
                    ));
                } else {
                    notes.push(format!("project on `{alias}`: kept at mediator by cost"));
                }
            }
        }
        let mut stack = vec![plan];
        while let Some(p) = stack.pop() {
            match p {
                PhysicalPlan::Join {
                    left,
                    right,
                    predicate,
                    ..
                } => {
                    let mut all = left.wrappers();
                    for w in right.wrappers() {
                        if !all.contains(&w) {
                            all.push(w);
                        }
                    }
                    if all.len() > 1 {
                        notes.push(format!(
                            "join ({predicate}): combined at mediator (cross-wrapper: {})",
                            all.join(", ")
                        ));
                    } else if let Some(w) = all.first() {
                        if !supports(w, OperatorKind::Join) {
                            notes.push(format!(
                                "join ({predicate}): lifted to mediator combine plan \
                                 (profile `{}` of `{w}` forbids join)",
                                profile(w)
                            ));
                        } else {
                            notes.push(format!("join ({predicate}): kept at mediator by cost"));
                        }
                    }
                }
                PhysicalPlan::Aggregate {
                    input, group_by, ..
                } => {
                    let ws = input.wrappers();
                    if group_by.is_empty() {
                        notes.push(
                            "aggregate: kept at mediator (global aggregates must \
                             survive partial answers)"
                                .into(),
                        );
                    } else if ws.len() > 1 {
                        notes.push(
                            "aggregate: combined at mediator (inputs span multiple wrappers)"
                                .into(),
                        );
                    } else if !matches!(input.as_ref(), PhysicalPlan::SubmitRemote { .. }) {
                        notes.push(
                            "aggregate: combined at mediator (input is not a single subquery)"
                                .into(),
                        );
                    } else if let Some(w) = ws.first() {
                        if !supports(w, OperatorKind::Aggregate) {
                            notes.push(format!(
                                "aggregate: lifted to mediator combine plan \
                                 (profile `{}` of `{w}` forbids aggregate)",
                                profile(w)
                            ));
                        } else {
                            notes.push("aggregate: kept at mediator by cost".into());
                        }
                    }
                }
                PhysicalPlan::SubmitRemote {
                    wrapper,
                    plan: inner,
                    ..
                } => {
                    let mut istack = vec![inner];
                    while let Some(ip) = istack.pop() {
                        match ip {
                            LogicalPlan::Join { predicate, .. } => {
                                notes.push(format!("join ({predicate}): pushed to `{wrapper}`"));
                            }
                            LogicalPlan::Aggregate { .. } => {
                                notes.push(format!("aggregate: pushed to `{wrapper}`"));
                            }
                            _ => {}
                        }
                        istack.extend(ip.children());
                    }
                }
                _ => {}
            }
            stack.extend(p.children());
        }
        notes
    }
}

/// Per-node cap on fusion variants, keeping the product of choices at
/// nested joins bounded.
const FUSION_VARIANT_CAP: usize = 16;

/// All distinct fused rewrites of `plan`: every way of collapsing
/// `Join(Submit(w, A), Submit(w, B))` into `Submit(w, Join(A, B))` when
/// `w` declares Join capability and both subqueries already export the
/// alias-qualified schema the predicate names (pushed projects). Both
/// join orientations are produced — the generic join formula is
/// asymmetric (index join needs the inner side) and the enumerator may
/// have tie-broken orientation arbitrarily, so the negotiated outcome
/// must not depend on it. Applied recursively, so three or more tables
/// homed on one relational wrapper fuse into a single submit. The
/// unchanged plan is not among the variants.
fn fusion_variants(plan: &PhysicalPlan, catalog: &Catalog) -> Vec<PhysicalPlan> {
    // At most FUSION_VARIANT_CAP candidates: a linear scan dedups them.
    let mut out: Vec<PhysicalPlan> = Vec::new();
    for (cand, changed) in fusion_variants_node(plan, catalog) {
        if changed && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

/// Fuse one `Join(Submit, Submit)` pair, orienting `outer ⋈ inner`.
fn fuse_pair(
    outer: &PhysicalPlan,
    inner: &PhysicalPlan,
    predicate: &JoinPredicate,
    commute: bool,
    catalog: &Catalog,
) -> Option<PhysicalPlan> {
    let (
        PhysicalPlan::SubmitRemote {
            wrapper: lw,
            plan: lp,
            schema: ls,
        },
        PhysicalPlan::SubmitRemote {
            wrapper: rw,
            plan: rp,
            schema: rs,
        },
    ) = (outer, inner)
    else {
        return None;
    };
    let capable = lw == rw
        && catalog
            .wrapper(lw)
            .is_some_and(|w| w.capabilities.supports(OperatorKind::Join));
    if !capable
        || ls.index_of(&predicate.left_attr).is_none()
        || rs.index_of(&predicate.right_attr).is_none()
    {
        return None;
    }
    let fused = if commute {
        LogicalPlan::Join {
            left: Box::new(rp.clone()),
            right: Box::new(lp.clone()),
            predicate: JoinPredicate {
                left_attr: predicate.right_attr.clone(),
                op: predicate.op.flipped(),
                right_attr: predicate.left_attr.clone(),
            },
            kind: JoinKind::Inner,
        }
    } else {
        LogicalPlan::Join {
            left: Box::new(lp.clone()),
            right: Box::new(rp.clone()),
            predicate: predicate.clone(),
            kind: JoinKind::Inner,
        }
    };
    let schema = fused.output_schema().ok()?;
    Some(PhysicalPlan::SubmitRemote {
        wrapper: lw.clone(),
        plan: fused,
        schema,
    })
}

/// Recursive variant enumeration: each entry pairs a rewritten subtree
/// with whether any fusion happened inside it.
fn fusion_variants_node(plan: &PhysicalPlan, catalog: &Catalog) -> Vec<(PhysicalPlan, bool)> {
    let unary = |input: &PhysicalPlan, rebuild: &dyn Fn(PhysicalPlan) -> PhysicalPlan| {
        fusion_variants_node(input, catalog)
            .into_iter()
            .map(|(i, c)| (rebuild(i), c))
            .collect::<Vec<_>>()
    };
    let mut out = match plan {
        PhysicalPlan::Join {
            algo,
            left,
            right,
            predicate,
        } => {
            let lv = fusion_variants_node(left, catalog);
            let rv = fusion_variants_node(right, catalog);
            let mut out = Vec::new();
            for (l, lc) in &lv {
                for (r, rc) in &rv {
                    if let Some(fused) = fuse_pair(l, r, predicate, false, catalog) {
                        out.push((fused, true));
                    }
                    if let Some(fused) = fuse_pair(l, r, predicate, true, catalog) {
                        out.push((fused, true));
                    }
                    out.push((
                        PhysicalPlan::Join {
                            algo: *algo,
                            left: Box::new(l.clone()),
                            right: Box::new(r.clone()),
                            predicate: predicate.clone(),
                        },
                        *lc || *rc,
                    ));
                }
            }
            out
        }
        PhysicalPlan::Filter { input, predicate } => unary(input, &|i| PhysicalPlan::Filter {
            input: Box::new(i),
            predicate: predicate.clone(),
        }),
        PhysicalPlan::Project { input, columns } => unary(input, &|i| PhysicalPlan::Project {
            input: Box::new(i),
            columns: columns.clone(),
        }),
        PhysicalPlan::Sort { input, keys } => unary(input, &|i| PhysicalPlan::Sort {
            input: Box::new(i),
            keys: keys.clone(),
        }),
        PhysicalPlan::Dedup { input } => {
            unary(input, &|i| PhysicalPlan::Dedup { input: Box::new(i) })
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => unary(input, &|i| PhysicalPlan::Aggregate {
            input: Box::new(i),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }),
        PhysicalPlan::Union { left, right } => {
            let lv = fusion_variants_node(left, catalog);
            let rv = fusion_variants_node(right, catalog);
            let mut out = Vec::new();
            for (l, lc) in &lv {
                for (r, rc) in &rv {
                    out.push((
                        PhysicalPlan::Union {
                            left: Box::new(l.clone()),
                            right: Box::new(r.clone()),
                        },
                        *lc || *rc,
                    ));
                }
            }
            out
        }
        PhysicalPlan::SubmitRemote { .. } => vec![(plan.clone(), false)],
    };
    out.truncate(FUSION_VARIANT_CAP);
    out
}

/// Push a *grouped* aggregate sitting directly on a lone submit into an
/// Aggregate-capable wrapper. Global aggregates stay at the mediator:
/// their empty-input semantics (one `Count = 0` row) must survive a
/// failed wrapper degrading the submit to an empty partial answer, which
/// a pushed aggregate cannot honor.
fn push_aggregate(plan: &PhysicalPlan, catalog: &Catalog) -> (PhysicalPlan, bool) {
    match plan {
        PhysicalPlan::Sort { input, keys } => {
            let (i, c) = push_aggregate(input, catalog);
            (
                PhysicalPlan::Sort {
                    input: Box::new(i),
                    keys: keys.clone(),
                },
                c,
            )
        }
        PhysicalPlan::Dedup { input } => {
            let (i, c) = push_aggregate(input, catalog);
            (PhysicalPlan::Dedup { input: Box::new(i) }, c)
        }
        PhysicalPlan::Project { input, columns } => {
            let (i, c) = push_aggregate(input, catalog);
            (
                PhysicalPlan::Project {
                    input: Box::new(i),
                    columns: columns.clone(),
                },
                c,
            )
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            if !group_by.is_empty() {
                if let PhysicalPlan::SubmitRemote {
                    wrapper,
                    plan: inner,
                    ..
                } = input.as_ref()
                {
                    let capable = catalog
                        .wrapper(wrapper)
                        .is_some_and(|w| w.capabilities.supports(OperatorKind::Aggregate));
                    if capable {
                        let pushed = LogicalPlan::Aggregate {
                            input: Box::new(inner.clone()),
                            group_by: group_by.clone(),
                            aggs: aggs.clone(),
                        };
                        // `output_schema` doubles as the check that every
                        // grouping/aggregate name resolves inside the
                        // subquery's exported schema.
                        if let Ok(schema) = pushed.output_schema() {
                            return (
                                PhysicalPlan::SubmitRemote {
                                    wrapper: wrapper.clone(),
                                    plan: pushed,
                                    schema,
                                },
                                true,
                            );
                        }
                    }
                }
            }
            (plan.clone(), false)
        }
        other => (other.clone(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::sql::parse_query;
    use disco_catalog::AttributeStats;
    use disco_catalog::{Capabilities, CollectionStats, ExtentStats};
    use disco_common::{AttributeDef, DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_wrapper("a", Capabilities::full()).unwrap();
        c.register_wrapper("b", Capabilities::scan_only()).unwrap();
        c.register_collection(
            "a",
            "Big",
            Schema::new(vec![
                AttributeDef::new("id", DataType::Long),
                AttributeDef::new("k", DataType::Long),
            ]),
            CollectionStats::new(ExtentStats::of(100_000, 64)).with_attribute(
                "id",
                AttributeStats::indexed(100_000, Value::Long(0), Value::Long(99_999)),
            ),
        )
        .unwrap();
        c.register_collection(
            "a",
            "Small",
            Schema::new(vec![
                AttributeDef::new("sid", DataType::Long),
                AttributeDef::new("label", DataType::Str),
            ]),
            CollectionStats::new(ExtentStats::of(50, 32)).with_attribute(
                "sid",
                AttributeStats::indexed(50, Value::Long(0), Value::Long(49)),
            ),
        )
        .unwrap();
        c.register_collection(
            "b",
            "File",
            Schema::new(vec![AttributeDef::new("fid", DataType::Long)]),
            CollectionStats::new(ExtentStats::of(500, 16)),
        )
        .unwrap();
        c
    }

    fn optimize(sql: &str) -> OptimizedPlan {
        let cat = catalog();
        let reg = RuleRegistry::with_default_model();
        let q = analyze(&parse_query(sql).unwrap(), &cat).unwrap();
        Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap()
    }

    fn count_kind(p: &PhysicalPlan, pred: &dyn Fn(&PhysicalPlan) -> bool) -> usize {
        pred(p) as usize
            + p.children()
                .iter()
                .map(|c| count_kind(c, pred))
                .sum::<usize>()
    }

    #[test]
    fn to_logical_preserves_shape() {
        let plan = optimize("SELECT id FROM Big WHERE id < 10").physical;
        let logical = to_logical(&plan);
        // One submit, projection on top.
        assert!(matches!(
            logical.kind(),
            disco_algebra::OperatorKind::Project
        ));
        assert_eq!(logical.collections().len(), 1);
    }

    #[test]
    fn selection_pushed_into_capable_wrapper() {
        let plan = optimize("SELECT id FROM Big WHERE id < 10").physical;
        // No mediator-side Filter: selection went into the submit.
        let filters = count_kind(&plan, &|p| matches!(p, PhysicalPlan::Filter { .. }));
        assert_eq!(filters, 0);
    }

    #[test]
    fn scan_only_wrapper_filtered_at_mediator() {
        let plan = optimize("SELECT fid FROM File WHERE fid < 10").physical;
        let filters = count_kind(&plan, &|p| matches!(p, PhysicalPlan::Filter { .. }));
        assert_eq!(filters, 1);
        // The submit contains a bare scan.
        fn submit_plan(p: &PhysicalPlan) -> Option<&LogicalPlan> {
            if let PhysicalPlan::SubmitRemote { plan, .. } = p {
                return Some(plan);
            }
            p.children().iter().find_map(|c| submit_plan(c))
        }
        let sub = submit_plan(&plan).unwrap();
        assert!(matches!(sub.kind(), disco_algebra::OperatorKind::Scan));
    }

    #[test]
    fn join_order_puts_selective_side_sensibly() {
        let out = optimize("SELECT b.id FROM Big b, Small s WHERE b.k = s.sid AND b.id < 100");
        assert!(out.plans_considered >= 2);
        // Estimate exists and join output is bounded by inputs.
        assert!(out.estimated.count_object > 0.0);
    }

    #[test]
    fn cross_product_rejected() {
        let cat = catalog();
        let reg = RuleRegistry::with_default_model();
        let q = analyze(
            &parse_query("SELECT b.id FROM Big b, Small s").unwrap(),
            &cat,
        )
        .unwrap();
        let e = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap_err();
        assert_eq!(e.kind(), "unsupported");
    }

    #[test]
    fn greedy_path_used_beyond_threshold() {
        // A chain of DP_MAX_LEAVES + 1 tables: too wide for the DP.
        let n = DP_MAX_LEAVES + 1;
        let mut cat = Catalog::new();
        cat.register_wrapper("a", Capabilities::full()).unwrap();
        for t in 0..n {
            cat.register_collection(
                "a",
                format!("C{t}"),
                Schema::new(vec![
                    AttributeDef::new("id", DataType::Long),
                    AttributeDef::new("nxt", DataType::Long),
                ]),
                CollectionStats::new(ExtentStats::of(100 + 10 * t as u64, 16)),
            )
            .unwrap();
        }
        let from: Vec<String> = (0..n).map(|t| format!("C{t} c{t}")).collect();
        let on: Vec<String> = (1..n)
            .map(|t| format!("c{}.nxt = c{t}.id", t - 1))
            .collect();
        let sql = format!(
            "SELECT c0.id FROM {} WHERE {}",
            from.join(", "),
            on.join(" AND ")
        );
        let reg = RuleRegistry::with_default_model();
        let q = analyze(&parse_query(&sql).unwrap(), &cat).unwrap();
        let out = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        // Greedy considers exactly one complete plan.
        assert_eq!(out.plans_considered, 1);
    }

    #[test]
    fn count_only_query_still_ships_a_column() {
        let plan = optimize("SELECT COUNT(*) AS n FROM Big").physical;
        let logical = to_logical(&plan);
        assert!(logical.output_schema().unwrap().index_of("n").is_some());
    }

    #[test]
    fn dp_matches_permutation_oracle() {
        let cat = catalog();
        let reg = RuleRegistry::with_default_model();
        let q = analyze(
            &parse_query("SELECT b.id FROM Big b, Small s WHERE b.k = s.sid AND b.id < 100")
                .unwrap(),
            &cat,
        )
        .unwrap();
        // The DP runs at every width, two tables included.
        let dp = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        let oracle = Optimizer::new(
            &cat,
            &reg,
            OptimizerOptions {
                pruning: false,
                ..Default::default()
            },
        )
        .optimize_by_permutation(&q)
        .unwrap();
        assert_eq!(dp.estimated.total_time, oracle.estimated.total_time);
        assert!(dp.memo_hits > 0, "DP run should hit the subplan memo");
        assert_eq!(oracle.memo_hits, 0, "oracle runs uncached");
    }

    #[test]
    fn decisions_roundtrip_replay_matches_optimize() {
        let cat = catalog();
        let reg = RuleRegistry::with_default_model();
        let sql = "SELECT b.id FROM Big b, Small s WHERE b.k = s.sid AND b.id < 100";
        let q = analyze(&parse_query(sql).unwrap(), &cat).unwrap();
        let opt = Optimizer::new(&cat, &reg, OptimizerOptions::default());
        let out = opt.optimize(&q).unwrap();
        let d = out.decisions.clone().expect("decisions extractable");
        let replayed = opt.replay(&q, &d).unwrap();
        assert_eq!(
            format!("{:?}", replayed.physical),
            format!("{:?}", out.physical),
            "replay must rebuild the identical plan"
        );
        assert_eq!(replayed.estimated.total_time, out.estimated.total_time);
        // Same shape, different constant: the replayed plan carries the
        // *new* constant and matches a fresh optimization of it.
        let sql2 = "SELECT b.id FROM Big b, Small s WHERE b.k = s.sid AND b.id < 7";
        let q2 = analyze(&parse_query(sql2).unwrap(), &cat).unwrap();
        let replayed2 = opt.replay(&q2, &d).unwrap();
        let out2 = opt.optimize(&q2).unwrap();
        assert_eq!(
            format!("{:?}", replayed2.physical),
            format!("{:?}", out2.physical)
        );
    }

    #[test]
    fn same_wrapper_join_fuses_into_one_submit() {
        let out = optimize("SELECT b.id FROM Big b, Small s WHERE b.k = s.sid AND b.id < 100");
        let submits = count_kind(&out.physical, &|p| {
            matches!(p, PhysicalPlan::SubmitRemote { .. })
        });
        let joins = count_kind(&out.physical, &|p| matches!(p, PhysicalPlan::Join { .. }));
        assert_eq!(
            submits, 1,
            "same-wrapper join should fuse: {:?}",
            out.physical
        );
        assert_eq!(joins, 0);
        assert!(
            out.negotiation.iter().any(|n| n.contains("pushed to `a`")),
            "negotiation notes should record the pushed join: {:?}",
            out.negotiation
        );
    }

    #[test]
    fn cross_wrapper_join_stays_at_mediator() {
        let out = optimize("SELECT b.id FROM Big b, File f WHERE b.k = f.fid");
        let submits = count_kind(&out.physical, &|p| {
            matches!(p, PhysicalPlan::SubmitRemote { .. })
        });
        let joins = count_kind(&out.physical, &|p| matches!(p, PhysicalPlan::Join { .. }));
        assert_eq!(submits, 2);
        assert_eq!(joins, 1);
        assert!(
            out.negotiation.iter().any(|n| n.contains("cross-wrapper")),
            "{:?}",
            out.negotiation
        );
        // The scan-only wrapper's lifted select shows up too.
        let out = optimize("SELECT b.id FROM Big b, File f WHERE b.k = f.fid AND f.fid < 10");
        assert!(
            out.negotiation
                .iter()
                .any(|n| n.contains("forbids select") && n.contains("scan-only")),
            "{:?}",
            out.negotiation
        );
    }

    #[test]
    fn no_join_profile_lifts_same_wrapper_join() {
        let mut cat = catalog();
        cat.register_wrapper(
            "nj",
            disco_catalog::CapabilityProfile::NoJoin.capabilities(),
        )
        .unwrap();
        for (name, key) in [("L", "lid"), ("M", "mid")] {
            cat.register_collection(
                "nj",
                name,
                Schema::new(vec![AttributeDef::new(key, DataType::Long)]),
                CollectionStats::new(ExtentStats::of(100, 16)),
            )
            .unwrap();
        }
        let reg = RuleRegistry::with_default_model();
        let q = analyze(
            &parse_query("SELECT l.lid FROM L l, M m WHERE l.lid = m.mid").unwrap(),
            &cat,
        )
        .unwrap();
        let out = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        let joins = count_kind(&out.physical, &|p| matches!(p, PhysicalPlan::Join { .. }));
        assert_eq!(joins, 1, "no-join profile must keep the join local");
        assert!(
            out.negotiation
                .iter()
                .any(|n| n.contains("forbids join") && n.contains("no-join")),
            "{:?}",
            out.negotiation
        );
    }

    #[test]
    fn grouped_aggregate_pushes_global_stays() {
        let grouped = optimize("SELECT k, COUNT(*) AS n FROM Big GROUP BY k");
        let local_aggs = count_kind(&grouped.physical, &|p| {
            matches!(p, PhysicalPlan::Aggregate { .. })
        });
        assert_eq!(
            local_aggs, 0,
            "grouped aggregate should push: {:?}",
            grouped.physical
        );
        assert!(
            grouped
                .negotiation
                .iter()
                .any(|n| n.contains("aggregate: pushed to `a`")),
            "{:?}",
            grouped.negotiation
        );
        // Global aggregates keep their empty-input row at the mediator.
        let global = optimize("SELECT COUNT(*) AS n FROM Big");
        let local_aggs = count_kind(&global.physical, &|p| {
            matches!(p, PhysicalPlan::Aggregate { .. })
        });
        assert_eq!(local_aggs, 1);
        assert!(
            global
                .negotiation
                .iter()
                .any(|n| n.contains("survive partial answers")),
            "{:?}",
            global.negotiation
        );
    }

    /// A skewed 5-table star catalog: the center joins four leaves whose
    /// cardinalities differ by orders of magnitude.
    fn star_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_wrapper("w", Capabilities::full()).unwrap();
        c.register_collection(
            "w",
            "Center",
            Schema::new(vec![
                AttributeDef::new("id", DataType::Long),
                AttributeDef::new("k1", DataType::Long),
                AttributeDef::new("k2", DataType::Long),
                AttributeDef::new("k3", DataType::Long),
                AttributeDef::new("k4", DataType::Long),
            ]),
            CollectionStats::new(ExtentStats::of(10_000, 80)),
        )
        .unwrap();
        for (i, card) in [(1usize, 20u64), (2, 1_000_000), (3, 500_000), (4, 60)] {
            c.register_collection(
                "w",
                format!("Leaf{i}"),
                Schema::new(vec![
                    AttributeDef::new("id", DataType::Long),
                    AttributeDef::new("v", DataType::Long),
                ]),
                CollectionStats::new(ExtentStats::of(card, 32)).with_attribute(
                    "id",
                    AttributeStats::indexed(card, Value::Long(0), Value::Long(card as i64 - 1)),
                ),
            )
            .unwrap();
        }
        c
    }

    const STAR_SQL: &str = "SELECT c.id FROM Center c, Leaf1 l1, Leaf2 l2, Leaf3 l3, Leaf4 l4 \
         WHERE c.k1 = l1.id AND c.k2 = l2.id AND c.k3 = l3.id AND c.k4 = l4.id";

    #[test]
    fn dp_pruning_abandons_candidates_on_star_query() {
        let cat = star_catalog();
        let reg = RuleRegistry::with_default_model();
        let q = analyze(&parse_query(STAR_SQL).unwrap(), &cat).unwrap();
        // DP enumeration with pruning enabled.
        let out = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        assert!(
            out.plans_pruned > 0,
            "cost-limit pruning abandoned no candidates: {out:?}"
        );
        // Pruning must not change the chosen plan's quality.
        let oracle = Optimizer::new(
            &cat,
            &reg,
            OptimizerOptions {
                pruning: false,
                ..Default::default()
            },
        )
        .optimize_by_permutation(&q)
        .unwrap();
        assert_eq!(out.estimated.total_time, oracle.estimated.total_time);
    }

    #[test]
    fn dp_does_far_less_estimation_work_than_permutation() {
        let cat = star_catalog();
        let reg = RuleRegistry::with_default_model();
        let q = analyze(&parse_query(STAR_SQL).unwrap(), &cat).unwrap();
        let dp = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        let perm = Optimizer::new(
            &cat,
            &reg,
            OptimizerOptions {
                pruning: false,
                ..Default::default()
            },
        )
        .optimize_by_permutation(&q)
        .unwrap();
        assert!(
            dp.estimator_nodes * 2 <= perm.estimator_nodes,
            "dp={} perm={}",
            dp.estimator_nodes,
            perm.estimator_nodes
        );
        assert!(dp.plans_considered <= perm.plans_considered);
    }

    #[test]
    fn time_first_objective_never_loses_on_latency() {
        let cat = star_catalog();
        let reg = RuleRegistry::with_default_model();
        let q = analyze(&parse_query(STAR_SQL).unwrap(), &cat).unwrap();
        let tt = Optimizer::new(&cat, &reg, OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        let tf = Optimizer::new(
            &cat,
            &reg,
            OptimizerOptions {
                objective: Objective::TimeFirst,
                ..Default::default()
            },
        )
        .optimize(&q)
        .unwrap();
        // Each objective is at least as good as the other on its own
        // metric; both searched the same space.
        assert!(tf.estimated.time_first <= tt.estimated.time_first + 1e-9);
        assert!(tt.estimated.total_time <= tf.estimated.total_time + 1e-9);
    }
}
