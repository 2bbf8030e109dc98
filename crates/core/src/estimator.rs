//! The cost evaluation algorithm (paper §4, Figure 11).
//!
//! Estimating a plan is a recursive traversal with two phases: formulas
//! are *associated* with nodes top-down (most specific matching rule per
//! result variable, falling back up the scope hierarchy per variable), and
//! *evaluated* bottom-up (children before parents, `CountObject`/`TotalSize`
//! before the time variables, minimum over equally specific rules).
//!
//! Two optimizations from the paper are implemented:
//!
//! * **required-variable cut-off** (§4.2): a child is only estimated when
//!   some selected formula actually reads one of its cost variables —
//!   children are forced lazily, so a constant-valued rule skips its whole
//!   subtree;
//! * **cost-limit abandonment** (§4.3.2): when a node's `TotalTime`
//!   already exceeds the best plan found so far, estimation stops and the
//!   plan is rejected.
//!
//! There is one evaluator and three entry points. The uncached one
//! ([`Estimator::estimate_report`], and EXPLAIN) walks a plan tree. The
//! cached one prices a [`SubtreeId`] of an [`EstimatorCache`]
//! ([`Estimator::estimate_subtree`]): every node visit finds its memoized
//! cost by subtree id and its rule resolution by signature id, and reads
//! its inputs' facts from the cache's tables, with no key built and no
//! subtree walked per visit. [`Estimator::estimate_report_cached`] interns
//! a tree once, bottom-up, and takes that path; a caller that builds its
//! candidates as interned nodes (the join-order search) never has a tree
//! to hand over. The bound one ([`Estimator::evaluate_bound`]) splits the
//! two phases across plans: [`Estimator::associate`] runs the top-down
//! association of one plan and keeps it as an [`Association`], and a
//! later plan of the same shape with other constants — a plan-cache hit
//! — is priced by the bottom-up evaluation alone, each node reading its
//! candidates by pre-order position. That is sound only when no
//! applicable head that binds a constant can match, which `associate`
//! checks. All three entry points read a node only through a
//! [`NodeView`], so association and every formula see the same facts.

use std::borrow::Cow;

use disco_algebra::{CompareOp, LogicalPlan, OperatorKind, SelectPredicate};
use disco_catalog::{restriction_selectivity, Catalog, CollectionStats};
use disco_common::{DiscoError, HealthTracker, QualifiedName, Result, Value};
use disco_costlang::ast::{HeadArg, PathLeaf, RuleHead};
use disco_costlang::bytecode::{AttrSpec, ChildRef, CollSpec, Instr};
use disco_costlang::{eval_program, CostVar, EvalEnv};

use crate::cache::{EstimatorCache, Resolution};
use crate::cost::{NodeCost, PartialCost};
use crate::explain::{Attribution, ExplainNode};
use crate::intern::{same_plan, NodeView, Payload, SubtreeId};
use crate::params::Params;
use crate::pattern::{match_node, may_match_some_constant, BindingValue, Bindings, Subject};
use crate::registry::{Provenance, RuleRegistry};
use crate::rules::{RegisteredRule, RuleBody};
use crate::yao::yao_pages;

/// Evaluation order: size variables first (other formulas consume them),
/// then times.
const VAR_ORDER: [CostVar; 5] = [
    CostVar::CountObject,
    CostVar::TotalSize,
    CostVar::TimeFirst,
    CostVar::TimeNext,
    CostVar::TotalTime,
];

/// Observed subanswer cardinalities keyed by submit site, used for
/// mid-query re-optimization: once a wrapper's answer has materialized,
/// its *measured* row count and byte size replace the catalog-derived
/// estimate at the matching `submit` node, and every combine-plan
/// candidate is re-priced against reality.
///
/// A submit site is its wrapper name plus the exact subplan shipped to
/// it, compared structurally (doubles bit for bit, as the estimator's
/// memo compares them), so the same subanswer is recognized no matter
/// where a candidate join order places it. A query has a handful of
/// sites, so they are kept in a list. Memoized costs bake the override
/// in; an [`EstimatorCache`] lives for one run, so it only ever sees the
/// one override set of the estimator built beside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CardinalityOverrides {
    sites: Vec<ObservedSite>,
}

/// One submit site's observed `(rows, bytes)`.
#[derive(Debug, Clone, PartialEq)]
struct ObservedSite {
    wrapper: String,
    input: LogicalPlan,
    rows: f64,
    bytes: f64,
}

impl ObservedSite {
    fn is(&self, wrapper: &str, input: &LogicalPlan) -> bool {
        self.wrapper == wrapper && same_plan(&self.input, input)
    }
}

impl CardinalityOverrides {
    /// An empty override set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observed `(rows, bytes)` for one submit site, replacing
    /// an earlier observation of the same site.
    pub fn insert(&mut self, wrapper: &str, input: &LogicalPlan, rows: f64, bytes: f64) {
        match self.sites.iter_mut().find(|s| s.is(wrapper, input)) {
            Some(site) => (site.rows, site.bytes) = (rows, bytes),
            None => self.sites.push(ObservedSite {
                wrapper: wrapper.to_owned(),
                input: input.clone(),
                rows,
                bytes,
            }),
        }
    }

    /// Look up the observation for a submit site, if any.
    pub fn get(&self, wrapper: &str, input: &LogicalPlan) -> Option<(f64, f64)> {
        self.sites
            .iter()
            .find(|s| s.is(wrapper, input))
            .map(|s| (s.rows, s.bytes))
    }

    /// Every site: wrapper, shipped input and observed `(rows, bytes)`.
    pub(crate) fn sites(&self) -> impl Iterator<Item = (&str, &LogicalPlan, f64, f64)> {
        self.sites
            .iter()
            .map(|s| (s.wrapper.as_str(), &s.input, s.rows, s.bytes))
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.sites.len()
    }
}

/// Options controlling one estimation run.
#[derive(Debug, Clone, Default)]
pub struct EstimateOptions {
    /// Abandon the plan as soon as any node's `TotalTime` exceeds this
    /// (the best-current-plan bound of §4.3.2).
    pub cost_limit: Option<f64>,
    /// Force the wrapper execution context instead of inferring it.
    pub wrapper: Option<String>,
}

/// Result of an estimation run, with work counters for the overhead
/// experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateReport {
    pub cost: NodeCost,
    /// Plan nodes actually visited (subtree cut-off reduces this).
    pub nodes_visited: usize,
    /// Rule bodies evaluated (compiled programs + native formulas).
    pub rules_evaluated: usize,
}

/// The §4.2 association of one plan, kept so that a plan of the same
/// shape with other constants is priced by evaluation alone: per node, in
/// pre-order, the rules whose heads matched it, most specific first, with
/// their bindings. [`Estimator::associate`] builds one only when no
/// applicable head that binds a constant can match, so it holds for every
/// constant;
/// [`Estimator::evaluate_bound`] evaluates a plan over it.
#[derive(Debug, Clone)]
pub struct Association {
    /// The wrapper context the plan's root executes under.
    context: Option<String>,
    nodes: Vec<Associated>,
    /// Pre-order positions of the submits, in depth-first order.
    submits: Vec<u32>,
}

/// One node's association.
#[derive(Debug, Clone)]
struct Associated {
    rules: Box<[(usize, Bindings)]>,
    /// Pre-order position of input 1; 0 when the node has none.
    right: u32,
    /// A selection with compiled candidates: what their heads captured of
    /// the predicate is re-read from the evaluated node. (Native formulas
    /// read the node itself, never their bindings.)
    rebind: bool,
}

impl Association {
    /// Pre-order position of input 1 of the node at `at`.
    pub(crate) fn right(&self, at: u32) -> u32 {
        self.nodes[at as usize].right
    }

    /// Number of submits in the plan.
    pub fn submits(&self) -> usize {
        self.submits.len()
    }

    /// The cached candidates of the node at `at`, which is `node`.
    fn candidates<'a, 'b>(
        &'b self,
        at: u32,
        node: NodeView<'_>,
        registry: &'a RuleRegistry,
    ) -> Vec<Candidate<'a, 'b>> {
        let entry = &self.nodes[at as usize];
        let predicate = match node.payload() {
            Payload::Select(p) if entry.rebind => Some(p),
            _ => None,
        };
        entry
            .rules
            .iter()
            .filter_map(|(id, bindings)| {
                let rule = registry.rule(*id)?;
                let bindings = match (&predicate, &rule.body) {
                    (Some(p), RuleBody::Compiled(_)) => Cow::Owned(bindings.rebound(p)),
                    _ => Cow::Borrowed(bindings),
                };
                Some(Candidate { rule, bindings })
            })
            .collect()
    }

    /// The node at pre-order position `target` of `plan`, a plan of this
    /// shape.
    fn nth<'p>(&self, mut plan: &'p LogicalPlan, target: u32) -> &'p LogicalPlan {
        let mut at = 0;
        while at != target {
            let right = self.right(at);
            let i = if right != 0 && target >= right {
                at = right;
                1
            } else {
                at += 1;
                0
            };
            plan = NodeView::of(plan)
                .input(i)
                .and_then(|c| c.plan())
                .expect("a plan of the associated shape");
        }
        plan
    }
}

/// What [`Estimator::evaluate_bound`] computes: the plan's estimate and
/// each submit's cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundEstimate {
    pub report: EstimateReport,
    /// Each submit's cost, in depth-first order (left before right);
    /// `None` where a submit had to be priced alone and that failed.
    pub submits: Vec<Option<NodeCost>>,
}

/// The estimator: a rule registry plus the catalog it resolves statistics
/// from, optionally consulting a health tracker for adaptive
/// wrapper-scope penalties.
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    registry: &'a RuleRegistry,
    catalog: &'a Catalog,
    health: Option<&'a HealthTracker>,
    overrides: Option<&'a CardinalityOverrides>,
}

impl<'a> Estimator<'a> {
    /// Build an estimator over a registry and catalog.
    pub fn new(registry: &'a RuleRegistry, catalog: &'a Catalog) -> Self {
        Estimator {
            registry,
            catalog,
            health: None,
            overrides: None,
        }
    }

    /// Consult `health` when pricing `submit` nodes (builder style): the
    /// node's time variables are multiplied by the target wrapper's
    /// current penalty, so observed timeouts and stragglers reshape the
    /// prediction at wrapper scope (§4.1) and plans shift to replicas.
    pub fn with_health(mut self, health: Option<&'a HealthTracker>) -> Self {
        self.health = health;
        self
    }

    /// Replace catalog cardinalities with measured ones at matching
    /// `submit` nodes (builder style). Used by mid-query re-optimization:
    /// candidates are re-priced with the rows that actually arrived.
    pub fn with_overrides(mut self, overrides: Option<&'a CardinalityOverrides>) -> Self {
        self.overrides = overrides;
        self
    }

    /// Estimate a plan's cost.
    pub fn estimate(&self, plan: &LogicalPlan) -> Result<NodeCost> {
        self.estimate_report(plan, &EstimateOptions::default())?
            .map(|r| r.cost)
            .ok_or_else(|| DiscoError::Cost("estimation pruned without a cost limit".into()))
    }

    /// Estimate a plan as if it executed entirely at `wrapper` (used for
    /// pricing wrapper subplans outside a full `submit` tree).
    pub fn estimate_in_wrapper(&self, plan: &LogicalPlan, wrapper: &str) -> Result<NodeCost> {
        let opts = EstimateOptions {
            wrapper: Some(wrapper.to_owned()),
            ..Default::default()
        };
        self.estimate_report(plan, &opts)?
            .map(|r| r.cost)
            .ok_or_else(|| DiscoError::Cost("estimation pruned without a cost limit".into()))
    }

    /// Full estimation entry point. `Ok(None)` means the plan was
    /// abandoned because it exceeded `opts.cost_limit`.
    pub fn estimate_report(
        &self,
        plan: &LogicalPlan,
        opts: &EstimateOptions,
    ) -> Result<Option<EstimateReport>> {
        let ctx = context(plan, opts);
        Run::new(*self, opts.cost_limit, false, None).report(NodeView::of(plan), ctx.as_deref())
    }

    /// Like [`Estimator::estimate_report`], but memoizing subplan costs
    /// and rule resolutions in `cache`. One cache spans all candidate
    /// estimations of one optimization run and nothing else (build it
    /// next to the estimator, drop it with the run): candidates sharing
    /// subtrees (per-table access plans, memoized DP prefixes) are then
    /// walked once, and repeated `match_head` unification is skipped.
    /// The plan is interned into the cache once, up front, and priced by
    /// [`Estimator::estimate_subtree`]; cached values are exact, so
    /// results are identical to the uncached path; only the work counters
    /// shrink.
    pub fn estimate_report_cached(
        &self,
        plan: &LogicalPlan,
        opts: &EstimateOptions,
        cache: &EstimatorCache,
    ) -> Result<Option<EstimateReport>> {
        self.estimate_subtree(cache.intern(plan, opts), opts.cost_limit, cache)
    }

    /// Price the subtree `id` of `cache`, in the context it was interned
    /// under, abandoning it past `limit`. A node whose cost is memoized is
    /// one visit; a new node stacked on memoized inputs is evaluated alone.
    /// The counters and the cost equal those of
    /// [`Estimator::estimate_report_cached`] on the same subtree as a tree.
    pub fn estimate_subtree(
        &self,
        id: SubtreeId,
        limit: Option<f64>,
        cache: &EstimatorCache,
    ) -> Result<Option<EstimateReport>> {
        let sites = cache.sites(self.overrides);
        let interner = cache.interner();
        let root = NodeView::interned(&interner, id);
        Run::new(*self, limit, false, Some(Memo { cache, sites })).report(root, root.context())
    }

    /// The top-down §4.2 association of `plan`: per node, the rules whose
    /// heads match it. `None` when some node has an applicable rule whose
    /// head binds a constant (a structured selection predicate such as
    /// `salary = $V` or `salary = 77`) and matches the node for some value
    /// of it, since which rules match, and what they bind, then changes
    /// with the constants. A head naming another collection or attribute
    /// matches for no value, and does not count.
    pub fn associate(&self, plan: &LogicalPlan) -> Option<Association> {
        let context = infer_wrapper_context(plan);
        let mut assoc = Association {
            context: context.clone(),
            nodes: Vec::new(),
            submits: Vec::new(),
        };
        self.associate_node(plan, context.as_deref(), &mut assoc)
            .then_some(assoc)
    }

    fn associate_node(
        &self,
        plan: &LogicalPlan,
        ctx: Option<&str>,
        assoc: &mut Association,
    ) -> bool {
        let node = NodeView::of(plan);
        let kind = node.kind();
        let subject = Subject::of(node);
        if applicable(self.registry, kind, ctx).any(|r| {
            binds_constant(&r.head)
                && may_match_some_constant(&r.head, &subject, r.declared_in.as_deref())
        }) {
            return false;
        }
        let rules: Box<[(usize, Bindings)]> = resolve(self.registry, node, ctx)
            .into_iter()
            .map(|c| (c.rule.id, c.bindings.into_owned()))
            .collect();
        let rebind = kind == OperatorKind::Select
            && rules.iter().any(|(id, _)| {
                self.registry
                    .rule(*id)
                    .is_some_and(|r| matches!(r.body, RuleBody::Compiled(_)))
            });
        let at = assoc.nodes.len() as u32;
        if node.submit_to().is_some() {
            assoc.submits.push(at);
        }
        assoc.nodes.push(Associated {
            rules,
            right: 0,
            rebind,
        });
        let child_ctx = node.submit_to().or(ctx);
        if let Some(left) = node.input(0).and_then(|c| c.plan()) {
            if !self.associate_node(left, child_ctx, assoc) {
                return false;
            }
        }
        if let Some(right) = node.input(1).and_then(|c| c.plan()) {
            assoc.nodes[at as usize].right = assoc.nodes.len() as u32;
            return self.associate_node(right, child_ctx, assoc);
        }
        true
    }

    /// The third entry point: price `plan` over `assoc`, the association
    /// of a plan of the same shape ([`Estimator::associate`]), running
    /// the bottom-up evaluation phase alone. Every node reads its
    /// candidates by position, so no head is unified and no binding
    /// built, except that a compiled rule's predicate capture on a
    /// selection is re-read from this plan's predicate. Health penalties
    /// and overrides apply as on the other entry points, and the cost
    /// equals [`Estimator::estimate`]'s bit for bit.
    ///
    /// Each submit's cost comes from the same evaluation; a submit the
    /// §4.2 cut-off left unevaluated is priced alone, as the submit its
    /// wrapper receives.
    pub fn evaluate_bound(&self, plan: &LogicalPlan, assoc: &Association) -> Result<BoundEstimate> {
        let mut run = Run::new(*self, None, false, None);
        let report = run
            .report(NodeView::bound(plan, assoc, 0), assoc.context.as_deref())?
            .ok_or_else(|| DiscoError::Cost("estimation pruned without a cost limit".into()))?;
        let submits = assoc
            .submits
            .iter()
            .map(|&at| match run.submits.iter().find(|(p, _)| *p == at) {
                Some(&(_, cost)) => Some(cost),
                None => {
                    let alone = NodeView::bound(assoc.nth(plan, at), assoc, at);
                    let mut run = Run::new(*self, None, false, None);
                    run.report(alone, None).ok().flatten().map(|r| r.cost)
                }
            })
            .collect();
        Ok(BoundEstimate { report, submits })
    }

    /// Estimate with a full per-node, per-variable rule attribution — the
    /// observable form of the scope-hierarchy blending.
    pub fn explain(
        &self,
        plan: &LogicalPlan,
        opts: &EstimateOptions,
    ) -> Result<Option<ExplainNode>> {
        let ctx = context(plan, opts);
        let mut run = Run::new(*self, opts.cost_limit, true, None);
        match run.node(NodeView::of(plan), ctx.as_deref(), true) {
            Ok((_, node)) => Ok(Some(node.expect("explain mode builds a node"))),
            Err(EstErr::Pruned) => Ok(None),
            Err(EstErr::Fatal(e)) => Err(e),
        }
    }
}

/// The wrapper context a plan is priced under: the forced one, or the
/// inferred one.
fn context(plan: &LogicalPlan, opts: &EstimateOptions) -> Option<String> {
    match &opts.wrapper {
        Some(w) => Some(w.clone()),
        None => infer_wrapper_context(plan),
    }
}

/// Infer the wrapper context of a plan with no explicit `submit` nodes:
/// if every scanned collection belongs to one wrapper, the plan is a
/// subplan of that wrapper; otherwise it is mediator-level.
pub(crate) fn infer_wrapper_context(plan: &LogicalPlan) -> Option<String> {
    fn has_submit(p: &LogicalPlan) -> bool {
        matches!(p, LogicalPlan::Submit { .. }) || p.children().iter().any(|c| has_submit(c))
    }
    if has_submit(plan) {
        return None;
    }
    let collections = plan.collections();
    let first = collections.first()?;
    collections
        .iter()
        .all(|c| c.wrapper == first.wrapper)
        .then(|| first.wrapper.clone())
}

enum EstErr {
    Pruned,
    Fatal(DiscoError),
}

struct Run<'a> {
    est: Estimator<'a>,
    limit: Option<f64>,
    nodes_visited: usize,
    rules_evaluated: usize,
    explain: bool,
    /// Shared subplan-cost memo and rule-resolution cache, on the
    /// interned entry point (never in explain mode, which needs full
    /// nodes).
    memo: Option<Memo<'a>>,
    /// On the bound entry point: each evaluated submit's pre-order
    /// position and cost.
    submits: Vec<(u32, NodeCost)>,
}

/// The cache an interned run reads and fills, and its observed sites.
struct Memo<'a> {
    cache: &'a EstimatorCache,
    sites: &'a [(SubtreeId, f64, f64)],
}

/// A matched rule and its head bindings: owned when resolved for this
/// node alone, borrowed from the rule-resolution cache otherwise.
struct Candidate<'a, 'b> {
    rule: &'a RegisteredRule,
    bindings: Cow<'b, Bindings>,
}

impl<'a> Run<'a> {
    fn new(est: Estimator<'a>, limit: Option<f64>, explain: bool, memo: Option<Memo<'a>>) -> Self {
        Run {
            est,
            limit,
            nodes_visited: 0,
            rules_evaluated: 0,
            explain,
            memo,
            submits: Vec::new(),
        }
    }

    fn report(&mut self, root: NodeView<'_>, ctx: Option<&str>) -> Result<Option<EstimateReport>> {
        match self.node(root, ctx, true) {
            Ok((cost, _)) => Ok(Some(EstimateReport {
                cost,
                nodes_visited: self.nodes_visited,
                rules_evaluated: self.rules_evaluated,
            })),
            Err(EstErr::Pruned) => Ok(None),
            Err(EstErr::Fatal(e)) => Err(e),
        }
    }

    /// The observed `(rows, bytes)` of a submit node's site, if any.
    fn observed(&self, node: NodeView<'_>) -> Option<(f64, f64)> {
        let ov = self.est.overrides?;
        let wrapper = node.submit_to()?;
        match (node.plan(), &self.memo) {
            (Some(LogicalPlan::Submit { input, .. }), _) => ov.get(wrapper, input),
            (_, Some(memo)) => {
                let (input, _) = node.input(0)?.ids()?;
                memo.sites
                    .iter()
                    .find(|(site, _, _)| site.0 == input)
                    .map(|&(_, rows, bytes)| (rows, bytes))
            }
            _ => None,
        }
    }

    /// Estimate `node`, executing under `ctx`.
    fn node<'v>(
        &mut self,
        node: NodeView<'v>,
        ctx: Option<&'v str>,
        is_root: bool,
    ) -> std::result::Result<(NodeCost, Option<ExplainNode>), EstErr> {
        self.nodes_visited += 1;

        // Subplan cost memo: an already-estimated subtree returns its
        // cost without re-walking (values are limit-independent; the
        // abandonment check below still applies at this node).
        let memo = match (&self.memo, node.ids()) {
            (Some(m), Some(ids)) => Some((m.cache, ids)),
            _ => None,
        };
        if let Some((cache, (subtree, _))) = memo {
            if let Some(cost) = cache.cost_get(subtree) {
                if let Some(limit) = self.limit {
                    if (is_root || ctx.is_none()) && cost.total_time > limit {
                        return Err(EstErr::Pruned);
                    }
                }
                return Ok((cost, None));
            }
        }

        // Context under which children execute: submit switches into the
        // target wrapper.
        let child_ctx = node.submit_to().or(ctx);

        // Phase 1 (association): gather matching rules, most specific
        // first (the registry keeps them sorted). The rule-resolution
        // cache skips the repeated `match_head` unification for nodes
        // sharing a shallow signature; the bound entry point reads the
        // association cached for the node's position instead.
        let shared: Resolution;
        let candidates: Vec<Candidate<'a, '_>> = match (memo, node.association()) {
            (None, Some((assoc, at))) => assoc.candidates(at, node, self.est.registry),
            (Some((cache, (_, sig))), _) => {
                shared = cache.rules_get(sig).unwrap_or_else(|| {
                    let fresh: Resolution = resolve(self.est.registry, node, ctx)
                        .into_iter()
                        .map(|c| (c.rule.id, c.bindings.into_owned()))
                        .collect();
                    cache.rules_put(sig, Resolution::clone(&fresh));
                    fresh
                });
                shared
                    .iter()
                    .filter_map(|(id, bindings)| {
                        self.est.registry.rule(*id).map(|rule| Candidate {
                            rule,
                            bindings: Cow::Borrowed(bindings),
                        })
                    })
                    .collect()
            }
            (None, None) => resolve(self.est.registry, node, ctx),
        };

        let arity = (0..2).take_while(|&i| node.input(i).is_some()).count();
        let mut children_store: [Option<NodeCost>; 2] = [None; 2];
        let mut explain_store: [Option<ExplainNode>; 2] = [None, None];
        let children = &mut children_store[..arity];
        let children_explain = &mut explain_store[..arity];
        let mut attributions: Vec<Attribution> = Vec::new();

        // Phase 2 (evaluation), per variable with per-variable fallback.
        let mut partial = PartialCost::default();
        for var in VAR_ORDER {
            let mut value: Option<f64> = None;
            let mut i = 0;
            while i < candidates.len() {
                // One specificity class: equal (scope, specificity).
                let key = (candidates[i].rule.scope, candidates[i].rule.specificity);
                let mut j = i;
                // "All formulas are invoked and the lowest value is
                // assigned to the variable" (§4.2 step 3).
                let mut class_min: Option<f64> = None;
                let mut class_rules: Vec<String> = Vec::new();
                while j < candidates.len()
                    && (candidates[j].rule.scope, candidates[j].rule.specificity) == key
                {
                    let cand = &candidates[j];
                    if cand.rule.provides_var(var) {
                        if let Some(v) = self.eval_candidate(
                            cand,
                            var,
                            node,
                            children,
                            children_explain,
                            child_ctx,
                            ctx,
                            &partial,
                        )? {
                            class_min = Some(class_min.map_or(v, |m| m.min(v)));
                            if self.explain {
                                class_rules.push(describe_rule(cand.rule));
                            }
                        }
                    }
                    j += 1;
                }
                if class_min.is_some() {
                    value = class_min;
                    if self.explain {
                        attributions.push(Attribution {
                            var,
                            scope: key.0,
                            specificity: key.1,
                            rules: class_rules,
                            value: value.expect("non-empty class"),
                        });
                    }
                    break;
                }
                i = j;
            }
            let Some(v) = value else {
                return Err(EstErr::Fatal(DiscoError::Cost(format!(
                    "no applicable formula computes {var} for operator `{}`",
                    node.kind()
                ))));
            };
            partial.set(var, v);
        }
        let mut cost = partial.finish().expect("all variables computed");

        // Adaptive wrapper-scope penalty: a submit to a wrapper with
        // observed timeouts or straggling replies gets its time
        // variables scaled up, so the optimizer routes around it. A
        // memoized value carries the penalty read when it was computed;
        // the memo dies with its run, so no later run replays it.
        let mut health_penalty = 1.0;
        if let (Some(health), Some(wrapper)) = (self.est.health, node.submit_to()) {
            health_penalty = health.penalty(wrapper);
            if health_penalty > 1.0 {
                cost.time_first *= health_penalty;
                cost.time_next *= health_penalty;
                cost.total_time *= health_penalty;
            }
        }

        // Mid-query cardinality correction: the subanswer for this submit
        // has already materialized, so its *measured* row count and size
        // replace the estimate — ancestor joins are then priced against
        // reality. Time variables are left alone: the fetch is sunk cost,
        // identical under every candidate combine order.
        let observed = self.observed(node);
        if let Some((rows, bytes)) = observed {
            cost.count_object = rows;
            cost.total_size = bytes;
        }

        // Explain mode reports the whole plan: visit the children the
        // §4.2 cut-off skipped. Their costs are not folded into this
        // node's (no winning rule reads them) — they are shown so the
        // tree is complete for EXPLAIN / EXPLAIN ANALYZE.
        if self.explain {
            for i in 0..arity {
                if children_explain[i].is_none() {
                    let child = node.input(i).expect("counted input");
                    let (c, e) = self.node(child, child_ctx, false)?;
                    children[i] = Some(c);
                    children_explain[i] = e;
                }
            }
        }

        if let Some((_, at)) = node.association() {
            if node.submit_to().is_some() {
                self.submits.push((at, cost));
            }
        }

        let explain_node = self.explain.then(|| ExplainNode {
            operator: {
                let mut op = node
                    .plan()
                    .map_or_else(|| node.kind().to_string(), describe_node);
                if health_penalty > 1.0 {
                    op = format!("{op} [health ×{health_penalty:.2}]");
                }
                if let Some((rows, _)) = observed {
                    op = format!("{op} [observed {rows:.0} rows]");
                }
                op
            },
            cost,
            attributions,
            children: explain_store.into_iter().flatten().collect(),
        });

        // A fully evaluated node's cost does not depend on the limit, so
        // it is memoizable even when a limit is in effect (an abandoned
        // run unwinds through `Err` before reaching this point).
        if let Some((cache, (subtree, _))) = memo {
            cache.cost_put(subtree, cost);
        }

        // Branch-and-bound abandonment (§4.3.2). Checked only where cost
        // accumulates monotonically — mediator-level nodes and the plan
        // root. Inside wrapper subtrees an index-access formula may price
        // a selection *below* its child scan, so a child-level check
        // could wrongly abandon a cheap plan.
        if let Some(limit) = self.limit {
            if (is_root || ctx.is_none()) && cost.total_time > limit {
                return Err(EstErr::Pruned);
            }
        }
        Ok((cost, explain_node))
    }

    /// Evaluate one candidate rule for one variable. `Ok(None)` = formula
    /// inapplicable (evaluation failed) — the caller falls back.
    #[allow(clippy::too_many_arguments)]
    fn eval_candidate<'v>(
        &mut self,
        cand: &Candidate<'a, '_>,
        var: CostVar,
        node: NodeView<'v>,
        children: &mut [Option<NodeCost>],
        children_explain: &mut [Option<ExplainNode>],
        child_ctx: Option<&'v str>,
        ctx: Option<&str>,
        partial: &PartialCost,
    ) -> std::result::Result<Option<f64>, EstErr> {
        // Force exactly the children this rule needs (§4.2 optimization:
        // "if no variables required from a child node, the recursive call
        // to the child is cut").
        let needed = match &cand.rule.body {
            RuleBody::Native(_) => Needed::all(children.len()),
            RuleBody::Compiled(body) => children_needed(body, &cand.bindings, node),
        };
        for &i in needed.as_slice() {
            if children[i].is_none() {
                let child = node.input(i).expect("needed input exists");
                let (c, e) = self.node(child, child_ctx, false)?;
                children[i] = Some(c);
                children_explain[i] = e;
            }
        }
        self.rules_evaluated += 1;

        let rule_wrapper = match &cand.rule.provenance {
            Provenance::Wrapper(w) => Some(w.as_str()),
            _ => ctx,
        };
        match &cand.rule.body {
            RuleBody::Native(native) => {
                let mut forced = [NodeCost::ZERO; 2];
                for (f, c) in forced.iter_mut().zip(children.iter()) {
                    *f = c.unwrap_or(NodeCost::ZERO);
                }
                let nctx = NativeCtx {
                    node,
                    children: &forced[..children.len()],
                    catalog: self.est.catalog,
                    registry: self.est.registry,
                    wrapper: ctx,
                    wrapper_params: ctx.and_then(|w| self.est.registry.wrapper_params(w)),
                    partial,
                };
                Ok(native.eval(var, &nctx))
            }
            RuleBody::Compiled(body) => {
                let env = RuleEnv {
                    bindings: &cand.bindings,
                    node,
                    children,
                    catalog: self.est.catalog,
                    registry: self.est.registry,
                    ctx,
                    rule_wrapper,
                    partial,
                };
                match eval_program(&body.program, &env) {
                    Ok(locals) => {
                        let slot = body.output_slot(var).expect("provides_var checked");
                        Ok(locals[slot as usize].as_f64())
                    }
                    Err(_) => Ok(None),
                }
            }
        }
    }
}

/// The rules that may price a node of `kind` executing under `ctx`, most
/// specific first: those whose provenance applies there.
fn applicable<'r: 'c, 'c>(
    registry: &'r RuleRegistry,
    kind: OperatorKind,
    ctx: Option<&'c str>,
) -> impl Iterator<Item = &'r RegisteredRule> + 'c {
    registry
        .candidates(kind)
        .filter(move |r| match &r.provenance {
            Provenance::Default => true,
            Provenance::Local => ctx.is_none(),
            Provenance::Wrapper(w) => ctx == Some(w.as_str()),
        })
}

/// Phase-1 association: head unification over the applicable rules.
fn resolve<'a>(
    registry: &'a RuleRegistry,
    node: NodeView<'_>,
    ctx: Option<&str>,
) -> Vec<Candidate<'a, 'static>> {
    let subject = Subject::of(node);
    applicable(registry, subject.kind(), ctx)
        .filter_map(|r| {
            match_node(&r.head, &subject, r.declared_in.as_deref()).map(|bindings| Candidate {
                rule: r,
                bindings: Cow::Owned(bindings),
            })
        })
        .collect()
}

/// Whether a head binds a constant of the node it matches: a selection
/// head with a structured predicate, whose right-hand side either binds
/// the constant (`salary = $V`) or must equal it (`salary = 77`). Which
/// such rules match, and what they bind, changes with the constant.
fn binds_constant(head: &RuleHead) -> bool {
    head.op == OperatorKind::Select && head.args.iter().any(|a| matches!(a, HeadArg::Pred { .. }))
}

/// Human-readable node description (first line of the plan display).
fn describe_node(plan: &LogicalPlan) -> String {
    disco_algebra::display::explain_logical(plan)
        .lines()
        .next()
        .unwrap_or("?")
        .to_owned()
}

/// Rule description: provenance, scope and printed head.
fn describe_rule(rule: &RegisteredRule) -> String {
    let who = match &rule.provenance {
        Provenance::Default => "default".to_owned(),
        Provenance::Local => "local".to_owned(),
        Provenance::Wrapper(w) => format!("wrapper {w}"),
    };
    format!("{who}: {}", disco_costlang::print_head(&rule.head))
}

/// Child indexes to force before a formula runs, in the order they are
/// forced: at most the node's two inputs, so no allocation.
#[derive(Debug, Clone, Copy, Default)]
struct Needed {
    slots: [usize; 2],
    len: usize,
}

impl Needed {
    /// Every input of a node with `arity` inputs, left first.
    fn all(arity: usize) -> Self {
        Needed {
            slots: [0, 1],
            len: arity.min(2),
        }
    }

    fn push(&mut self, i: usize) {
        if !self.as_slice().contains(&i) {
            self.slots[self.len] = i;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[usize] {
        &self.slots[..self.len]
    }
}

/// Child indexes whose *cost variables* a compiled body reads, in the
/// order the body first reads them.
fn children_needed(
    body: &disco_costlang::CompiledBody,
    bindings: &Bindings,
    node: NodeView<'_>,
) -> Needed {
    let mut needed = Needed::default();
    let mut push = |i: usize| needed.push(i);
    for instr in &body.program.instrs {
        let Instr::LoadPath(p) = instr else { continue };
        let path = &body.program.paths[*p as usize];
        if !matches!(path.leaf, PathLeaf::Cost(_)) {
            continue;
        }
        match &path.coll {
            CollSpec::Child(c) => push(child_slot(*c)),
            CollSpec::Binding(name) => {
                if let Some(BindingValue::Coll { child: Some(c), .. }) = bindings.get(name) {
                    push(child_slot(*c));
                }
            }
            CollSpec::Named(n) => {
                if let Some(i) = input_deriving_from(node, n) {
                    push(i);
                }
            }
        }
    }
    needed
}

/// The first input of `node` whose base collection is named `name`.
fn input_deriving_from(node: NodeView<'_>, name: &str) -> Option<usize> {
    (0..2).find(|&i| {
        node.input(i)
            .and_then(|c| c.base_collection())
            .is_some_and(|q| q.collection == name)
    })
}

fn child_slot(c: ChildRef) -> usize {
    match c {
        ChildRef::Input | ChildRef::Left => 0,
        ChildRef::Right => 1,
    }
}

/// Context handed to native formulas (the generic model).
pub struct NativeCtx<'a> {
    /// The node being estimated.
    pub node: NodeView<'a>,
    /// Costs of all children (forced before native evaluation).
    pub children: &'a [NodeCost],
    /// The mediator catalog.
    pub catalog: &'a Catalog,
    /// The rule registry (parameter lookup).
    pub registry: &'a RuleRegistry,
    /// Wrapper execution context of the node, if any.
    pub wrapper: Option<&'a str>,
    /// The parameters that wrapper registered, looked up once per formula
    /// rather than once per parameter.
    pub wrapper_params: Option<&'a Params>,
    /// Variables of this node already computed.
    pub partial: &'a PartialCost,
}

impl NativeCtx<'_> {
    /// Parameter lookup: context wrapper's parameters shadow the mediator
    /// defaults — a wrapper exporting just `let IO = 12;` thereby
    /// re-calibrates the generic model for its own operations.
    pub fn param(&self, name: &str) -> Option<f64> {
        if let Some(v) = self.wrapper_params.and_then(|p| p.get_f64(name)) {
            return Some(v);
        }
        self.registry.params().get_f64(name)
    }

    /// Parameter with a hard default of 0 — for optional additive terms.
    pub fn param_or(&self, name: &str, default: f64) -> f64 {
        self.param(name).unwrap_or(default)
    }

    /// Page size in effect.
    pub fn page_size(&self) -> f64 {
        self.param("PageSize")
            .unwrap_or(crate::params::DEFAULT_PAGE_SIZE)
    }

    /// Statistics of a collection.
    pub fn stats(&self, name: &QualifiedName) -> Option<&CollectionStats> {
        self.catalog.stats(name).ok()
    }

    /// Statistics of the base collection a subtree derives from.
    pub fn base_stats(&self, node: NodeView<'_>) -> Option<&CollectionStats> {
        node.base_collection().and_then(|q| self.stats(q))
    }

    /// Statistics of the base collection input `i` derives from.
    pub fn input_stats(&self, i: usize) -> Option<&CollectionStats> {
        self.node.input(i).and_then(|c| self.base_stats(c))
    }

    /// Cost of child `i`.
    pub fn child(&self, i: usize) -> NodeCost {
        self.children.get(i).copied().unwrap_or(NodeCost::ZERO)
    }
}

/// `EvalEnv` implementation backing compiled wrapper rules.
struct RuleEnv<'a> {
    bindings: &'a Bindings,
    node: NodeView<'a>,
    children: &'a [Option<NodeCost>],
    catalog: &'a Catalog,
    registry: &'a RuleRegistry,
    /// Wrapper execution context of the node.
    ctx: Option<&'a str>,
    /// Wrapper whose parameter namespace the rule sees.
    rule_wrapper: Option<&'a str>,
    partial: &'a PartialCost,
}

impl RuleEnv<'_> {
    fn page_size(&self) -> u64 {
        self.param_lookup("PageSize")
            .and_then(|v| v.as_f64())
            .unwrap_or(crate::params::DEFAULT_PAGE_SIZE) as u64
    }

    fn param_lookup(&self, name: &str) -> Option<Value> {
        if let Some(w) = self.rule_wrapper {
            if let Some(p) = self.registry.wrapper_params(w) {
                if let Some(v) = p.get(name) {
                    return Some(v.clone());
                }
            }
        }
        self.registry.params().get(name).cloned()
    }

    /// Resolve a collection spec to (child index, collection name).
    fn resolve_coll(&self, spec: &CollSpec) -> (Option<usize>, Option<QualifiedName>) {
        match spec {
            CollSpec::Child(c) => {
                let i = child_slot(*c);
                let coll = self
                    .node
                    .input(i)
                    .and_then(|p| p.base_collection())
                    .cloned();
                (Some(i), coll)
            }
            CollSpec::Binding(name) => match self.bindings.get(name) {
                Some(BindingValue::Coll { child, collection }) => {
                    (child.map(child_slot), collection.clone())
                }
                _ => (None, None),
            },
            CollSpec::Named(n) => {
                let coll = self.lookup_named(n);
                (input_deriving_from(self.node, n), coll)
            }
        }
    }

    fn lookup_named(&self, name: &str) -> Option<QualifiedName> {
        if let Some(w) = self.ctx {
            let q = QualifiedName::new(w, name);
            if self.catalog.collection(&q).is_ok() {
                return Some(q);
            }
        }
        self.catalog.resolve(name).ok()
    }

    fn stats_for_selectivity(&self) -> Option<&CollectionStats> {
        let coll = match self.bindings.primary_coll() {
            Some(BindingValue::Coll {
                collection: Some(q),
                ..
            }) => Some(q.clone()),
            _ => self.node.base_collection().cloned(),
        }?;
        self.catalog.stats(&coll).ok()
    }
}

impl EvalEnv for RuleEnv<'_> {
    fn path(&self, coll: &CollSpec, attr: Option<&AttrSpec>, leaf: PathLeaf) -> Option<Value> {
        let (child, collection) = self.resolve_coll(coll);
        match leaf {
            PathLeaf::Cost(var) => {
                if let Some(i) = child {
                    if let Some(Some(c)) = self.children.get(i) {
                        return Some(Value::Double(c.get(var)));
                    }
                }
                // A collection term with no child (scan leaf, or a named
                // collection) still exposes its size statistics.
                let q = collection?;
                let stats = self.catalog.stats(&q).ok()?;
                match var {
                    CostVar::CountObject => Some(Value::Long(stats.extent.count_object as i64)),
                    CostVar::TotalSize => Some(Value::Long(stats.extent.total_size as i64)),
                    _ => None,
                }
            }
            PathLeaf::Stat(stat) => {
                let q = collection?;
                let stats = self.catalog.stats(&q).ok()?;
                let attr_name: Option<String> = match attr {
                    None => None,
                    Some(AttrSpec::Named(a)) => Some(a.clone()),
                    Some(AttrSpec::Binding(v)) => match self.bindings.get(v) {
                        Some(BindingValue::Attr(a)) => Some(a.clone()),
                        _ => return None,
                    },
                };
                let v = stats.stat(stat, attr_name.as_deref(), self.page_size());
                (!v.is_null()).then_some(v)
            }
        }
    }

    fn binding(&self, name: &str) -> Option<Value> {
        match self.bindings.get(name)? {
            BindingValue::Attr(a) => Some(Value::Str(a.clone())),
            BindingValue::Value(v) => Some(v.clone()),
            BindingValue::Pred(p) => Some(Value::Str(p.clone())),
            BindingValue::Coll { collection, .. } => collection
                .as_ref()
                .map(|q| Value::Str(q.collection.clone())),
        }
    }

    fn param(&self, name: &str) -> Option<Value> {
        self.param_lookup(name)
    }

    fn self_var(&self, var: CostVar) -> Option<f64> {
        self.partial.get(var)
    }

    fn call(&self, func: &str, args: &[Value]) -> Option<Value> {
        match func {
            // The Figure 8 ad-hoc selectivity function, backed by the
            // catalog (histograms when available).
            "selectivity" => {
                let [attr, value] = args else { return None };
                let attr = attr.as_str()?;
                let stats = self.stats_for_selectivity()?;
                let op = match &self.bindings.matched_pred {
                    Some(p) if p.attribute == attr => p.op,
                    _ => CompareOp::Eq,
                };
                let pred = SelectPredicate::new(attr, op, value.clone());
                Some(Value::Double(restriction_selectivity(stats, &pred)))
            }
            // Yao's formula as a convenience: yao(k, pages).
            "yao" => {
                let [k, m] = args else { return None };
                let (k, m) = (k.as_f64()?, m.as_f64()?);
                if k < 0.0 || m < 0.0 {
                    return None;
                }
                Some(Value::Double(yao_pages(
                    u64::MAX,
                    m.round() as u64,
                    k.round() as u64,
                )))
            }
            _ => None,
        }
    }
}
