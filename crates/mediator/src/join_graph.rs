//! The join graph and the one left-deep join-order search over it.
//!
//! The optimizer and the adaptive re-planner order joins the same way;
//! only their leaves differ. The optimizer's leaves are the chosen
//! per-table access plans; the re-planner's are the already-fetched
//! subtrees of a running combine plan, priced under measured
//! cardinalities. Each leaf carries its [`NodeCost`] and the id it was
//! interned under, and each edge one join predicate over alias-qualified
//! attribute names, oriented from leaf `a` to leaf `b`. Adjacency is a
//! bitset per leaf, so "the leaves joined to this subset" is a few
//! OR/AND-NOTs.
//!
//! [`JoinGraph::search`] is the search both callers run. Up to
//! [`DP_MAX_LEAVES`] leaves it is Selinger-style dynamic programming over
//! connected subsets. The memo holds, per subset, the Pareto-optimal
//! joined prefixes over the five cost variables (usually one entry),
//! which keeps the search exact even when orders of one subset differ in
//! cardinality. That makes O(2ⁿ·n) candidate costings instead of the
//! O(n!) complete plans of [`JoinGraph::permutations`], the exhaustive
//! sweep kept only as the equivalence oracle. Beyond [`DP_MAX_LEAVES`]
//! the one order tried is [`JoinGraph::greedy`].
//!
//! The estimator has two entry points, and the search uses the one that
//! takes no tree. A prefix is a `(subtree id, NodeCost)` pair: a leaf was
//! converted and interned once, when it was priced, and extending a
//! prefix by a leaf interns one `Join` node over the two ids
//! ([`disco_core::EstimatorCache::intern_node`]), which the estimator
//! evaluates alone, reading both inputs' memoized costs. A complete
//! candidate stacks the caller's post-join operators ([`Post`]) as
//! interned unary nodes. Only the winner is built as a [`PhysicalPlan`],
//! once, from its order. [`Pricer::price`], the tree entry point, prices
//! access variants, negotiation rewrites, replayed plans and the
//! permutation oracle's trees.
//!
//! A caller hands the search an initial bound (§4.3.2). Frontier
//! subplans and complete plans whose `TotalTime` passes it are abandoned
//! mid-estimation. Exact cost ties keep the candidate met first: the DP
//! meets prefixes subset by subset (in bitset order) and extends each by
//! its adjacent leaves in index order; the sweep meets orders
//! lexicographically.

use std::borrow::Cow;

use disco_algebra::logical::AggExpr;
use disco_algebra::{
    CompareOp, JoinKind, JoinPredicate, LogicalPlan, PhysicalJoinAlgo, PhysicalPlan, Predicate,
    ScalarExpr,
};
use disco_common::{DiscoError, Result};
use disco_core::{
    EstimateOptions, EstimateReport, Estimator, EstimatorCache, NodeCost, Payload, SubtreeId,
};

use crate::executor::{submit_sites, SitePrediction};
use crate::optimizer::{to_logical, Objective};

/// Up to this many leaves join orders are searched exactly by the DP;
/// beyond, the greedy order is the only one priced.
pub(crate) const DP_MAX_LEAVES: usize = 12;

/// Estimation work of one search.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Complete plans priced.
    pub(crate) considered: usize,
    /// Candidates abandoned by the cost limit: complete plans, and DP
    /// frontier subplans.
    pub(crate) pruned: usize,
    pub(crate) nodes: usize,
    pub(crate) rules: usize,
}

/// Prices plans for one search: the estimator, the run's cache (none for
/// the uncached oracle) and the work done so far.
pub(crate) struct Pricer<'a> {
    estimator: Estimator<'a>,
    cache: Option<&'a EstimatorCache>,
    pub(crate) counters: Counters,
}

impl<'a> Pricer<'a> {
    pub(crate) fn new(estimator: Estimator<'a>, cache: Option<&'a EstimatorCache>) -> Self {
        Pricer {
            estimator,
            cache,
            counters: Counters::default(),
        }
    }

    /// Estimate the tree `plan`; `None` when it passed `limit` and was
    /// abandoned.
    pub(crate) fn price(
        &mut self,
        plan: &PhysicalPlan,
        limit: Option<f64>,
    ) -> Result<Option<NodeCost>> {
        Ok(self.price_tree(plan, limit)?.map(|(cost, _)| cost))
    }

    /// Price `plan` as a join-search leaf, keeping the id it was interned
    /// under (none without a cache).
    pub(crate) fn leaf(&mut self, plan: PhysicalPlan) -> Result<Leaf> {
        let (cost, id) = self.price_tree(&plan, None)?.expect("no cost limit set");
        Ok(Leaf { plan, cost, id })
    }

    /// The tree entry point: convert `plan` once, intern it when the
    /// pricer has a cache, and estimate it.
    fn price_tree(
        &mut self,
        plan: &PhysicalPlan,
        limit: Option<f64>,
    ) -> Result<Option<(NodeCost, Option<SubtreeId>)>> {
        let opts = EstimateOptions {
            cost_limit: limit,
            wrapper: None,
        };
        let logical = to_logical(plan);
        Ok(match self.cache {
            Some(c) => {
                let id = c.intern(&logical, &opts);
                self.price_id(id, limit)?.map(|cost| (cost, Some(id)))
            }
            None => {
                let report = self.estimator.estimate_report(&logical, &opts)?;
                self.count(report).map(|cost| (cost, None))
            }
        })
    }

    /// Estimate the interned subtree `id`; `None` when it passed `limit`.
    fn price_id(&mut self, id: SubtreeId, limit: Option<f64>) -> Result<Option<NodeCost>> {
        let report = self.estimator.estimate_subtree(id, limit, self.cache()?)?;
        Ok(self.count(report))
    }

    fn count(&mut self, report: Option<EstimateReport>) -> Option<NodeCost> {
        let r = report?;
        self.counters.nodes += r.nodes_visited;
        self.counters.rules += r.rules_evaluated;
        Some(r.cost)
    }

    /// Each submit of `plan`, in fetch order, priced as the submit its
    /// wrapper receives: what the run computed for it already, read from
    /// the memo, or (a submit the §4.2 cut-off skipped, or no cache)
    /// priced alone. Work here is not counted: the plan is chosen.
    pub(crate) fn predictions(&self, plan: &PhysicalPlan) -> Vec<Option<SitePrediction>> {
        submit_sites(plan)
            .into_iter()
            .map(|(wrapper, input)| {
                let report = match self.cache {
                    Some(c) => {
                        let id = c.intern_submit(wrapper, input);
                        self.estimator.estimate_subtree(id, None, c)
                    }
                    None => self.estimator.estimate_report(
                        &LogicalPlan::Submit {
                            wrapper: wrapper.to_owned(),
                            input: Box::new(input.clone()),
                        },
                        &EstimateOptions::default(),
                    ),
                };
                report.ok().flatten().map(|r| SitePrediction::of(&r.cost))
            })
            .collect()
    }

    /// Intern one mediator-level node over interned inputs. Every
    /// physical plan bottoms out in submits, so the mediator's own nodes
    /// execute under no wrapper context.
    fn node(&self, payload: Payload<'_>, inputs: &[SubtreeId]) -> Result<SubtreeId> {
        Ok(self.cache()?.intern_node(None, payload, inputs))
    }

    fn cache(&self) -> Result<&'a EstimatorCache> {
        self.cache.ok_or_else(|| {
            DiscoError::Plan("the join search prices over an estimator cache".into())
        })
    }
}

/// A mediator operator stacked on a complete join tree: the optimizer's
/// aggregate, projection, distinct and sort, or the operators the
/// re-planner strips off a running plan.
#[derive(Debug)]
pub(crate) enum Post {
    Filter(Predicate),
    Project(Vec<(String, ScalarExpr)>),
    Sort(Vec<(String, bool)>),
    Dedup,
    Aggregate {
        group_by: Vec<String>,
        aggs: Vec<AggExpr>,
    },
}

impl Post {
    /// This operator over `input`.
    pub(crate) fn over(&self, input: PhysicalPlan) -> PhysicalPlan {
        let input = Box::new(input);
        match self {
            Post::Filter(predicate) => PhysicalPlan::Filter {
                input,
                predicate: predicate.clone(),
            },
            Post::Project(columns) => PhysicalPlan::Project {
                input,
                columns: columns.clone(),
            },
            Post::Sort(keys) => PhysicalPlan::Sort {
                input,
                keys: keys.clone(),
            },
            Post::Dedup => PhysicalPlan::Dedup { input },
            Post::Aggregate { group_by, aggs } => PhysicalPlan::Aggregate {
                input,
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
        }
    }

    /// The logical node's own fields, as `to_logical` converts them.
    fn payload(&self) -> Payload<'_> {
        match self {
            Post::Filter(predicate) => Payload::Select(Cow::Borrowed(predicate)),
            Post::Project(columns) => Payload::Project(Cow::Borrowed(columns)),
            Post::Sort(keys) => Payload::Sort(Cow::Borrowed(keys)),
            Post::Dedup => Payload::Dedup,
            Post::Aggregate { group_by, aggs } => {
                Payload::Aggregate(Cow::Borrowed(group_by), Cow::Borrowed(aggs))
            }
        }
    }
}

/// How one caller ranks and prices complete join trees.
pub(crate) struct Search<'a, 'c> {
    pub(crate) pricer: Pricer<'a>,
    /// Stacked on every complete join tree before it is priced, innermost
    /// first: the optimizer's post-join operators; nothing for the
    /// re-planner, which prices the bare tree.
    pub(crate) finish: &'c [Post],
    pub(crate) objective: Objective,
    /// Apply the bound (§4.3.2); the permutation sweep also tightens it
    /// to the best complete plan found so far.
    pub(crate) prune: bool,
}

impl Search<'_, '_> {
    /// Price one complete join tree, interned as `join`, against `limit`.
    fn consider(&mut self, join: SubtreeId, limit: Option<f64>) -> Result<Option<NodeCost>> {
        let mut id = join;
        for op in self.finish {
            id = self.pricer.node(op.payload(), &[id])?;
        }
        let cost = self.pricer.price_id(id, limit)?;
        Ok(self.counted(cost))
    }

    /// The oracle's [`Search::consider`]: price the tree itself.
    fn consider_tree(
        &mut self,
        join: PhysicalPlan,
        limit: Option<f64>,
    ) -> Result<Option<NodeCost>> {
        let plan = self.finish.iter().fold(join, |plan, op| op.over(plan));
        let cost = self.pricer.price(&plan, limit)?;
        Ok(self.counted(cost))
    }

    fn counted(&mut self, cost: Option<NodeCost>) -> Option<NodeCost> {
        self.pricer.counters.considered += 1;
        if cost.is_none() {
            self.pricer.counters.pruned += 1;
        }
        cost
    }
}

/// One leaf: a plan, its estimate, and the id it was interned under when
/// it was priced over a cache.
pub(crate) struct Leaf {
    pub(crate) plan: PhysicalPlan,
    pub(crate) cost: NodeCost,
    pub(crate) id: Option<SubtreeId>,
}

/// A join predicate between leaves `a` (the left attribute of `forward`)
/// and `b`, in both orientations.
struct Edge {
    a: usize,
    b: usize,
    /// Joins a tree holding `a` to `b`.
    forward: JoinPredicate,
    /// Joins a tree holding `b` to `a`: the attributes swapped, the
    /// comparison flipped.
    backward: JoinPredicate,
}

/// Leaves, the join predicates between them, and adjacency bitsets.
pub(crate) struct JoinGraph {
    leaves: Vec<Leaf>,
    edges: Vec<Edge>,
    /// Bit `j` of `adjacency[i]` is set when an edge joins `i` and `j`.
    adjacency: Vec<u64>,
}

/// The best complete order found so far, with its objective value.
type Best = Option<(f64, Vec<usize>, NodeCost)>;

/// Keep the order `order` builds in `best` if `cost` ranks strictly lower:
/// ties keep the plan met first.
fn offer(
    best: &mut Best,
    objective: Objective,
    cost: NodeCost,
    order: impl FnOnce() -> Vec<usize>,
) {
    let value = objective.value(&cost);
    if best.as_ref().is_none_or(|(v, _, _)| value < *v) {
        *best = Some((value, order(), cost));
    }
}

/// How a prefix was built: entry `entry` of subset `prev`'s memo joined
/// with `leaf` (`prev` is 0 for a lone leaf).
#[derive(Clone, Copy)]
struct Step {
    prev: u64,
    entry: usize,
    leaf: usize,
}

/// One memoized joined prefix.
#[derive(Clone, Copy)]
struct Prefix {
    id: SubtreeId,
    cost: NodeCost,
    step: Step,
}

/// The join order `step` ends, read back through the memo.
fn order_of(memo: &[Vec<Prefix>], step: Step) -> Vec<usize> {
    let mut order = vec![step.leaf];
    let mut at = step;
    while at.prev != 0 {
        at = memo[at.prev as usize][at.entry].step;
        order.push(at.leaf);
    }
    order.reverse();
    order
}

/// Iterate the set bit positions of a mask, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(i)
        }
    })
}

impl JoinGraph {
    /// A graph over `leaves` with no edges yet. At most 64 leaves.
    pub(crate) fn new(leaves: Vec<Leaf>) -> Self {
        let adjacency = vec![0; leaves.len()];
        JoinGraph {
            leaves,
            edges: Vec::new(),
            adjacency,
        }
    }

    /// Add the join predicate `predicate`, whose left attribute belongs
    /// to leaf `a` and right attribute to leaf `b`.
    pub(crate) fn connect(&mut self, a: usize, b: usize, predicate: JoinPredicate) {
        self.adjacency[a] |= 1 << b;
        self.adjacency[b] |= 1 << a;
        let backward = JoinPredicate {
            left_attr: predicate.right_attr.clone(),
            op: predicate.op.flipped(),
            right_attr: predicate.left_attr.clone(),
        };
        self.edges.push(Edge {
            a,
            b,
            forward: predicate,
            backward,
        });
    }

    pub(crate) fn leaves(&self) -> impl Iterator<Item = &Leaf> {
        self.leaves.iter()
    }

    fn full(&self) -> u64 {
        u64::MAX >> (64 - self.leaves.len())
    }

    /// Leaves (as a bitset) joined to at least one leaf of `subset`.
    fn adjacent_to(&self, subset: u64) -> u64 {
        bits(subset).fold(0, |adj, i| adj | self.adjacency[i]) & !subset
    }

    /// Reject a graph no left-deep join tree covers exactly: one that
    /// needs a cross product (`name` labels the first leaf unreachable
    /// from leaf 0) or has a cycle, whose residual join conditions have
    /// no place in the tree.
    pub(crate) fn check(&self, name: impl Fn(usize) -> String) -> Result<()> {
        let mut reach: u64 = 1;
        loop {
            let grown = reach | self.adjacent_to(reach);
            if grown == reach {
                break;
            }
            reach = grown;
        }
        if let Some(missing) = bits(self.full() & !reach).next() {
            return Err(DiscoError::Unsupported(format!(
                "query requires a cross product involving `{}`; add a join condition",
                name(missing)
            )));
        }
        if self.edges.len() >= self.leaves.len() {
            return Err(DiscoError::Unsupported(
                "cyclic join graphs are not supported yet".into(),
            ));
        }
        Ok(())
    }

    /// The predicate joining leaf `next` onto a tree over the leaves in
    /// `tree_mask`, by the edge connecting them (unique in an acyclic
    /// graph), its left attribute belonging to the tree.
    fn predicate(&self, tree_mask: u64, next: usize) -> Result<&JoinPredicate> {
        let edge = self
            .edges
            .iter()
            .find(|e| {
                (e.a == next && tree_mask >> e.b & 1 == 1)
                    || (e.b == next && tree_mask >> e.a & 1 == 1)
            })
            .ok_or_else(|| DiscoError::Plan(format!("no join condition reaches leaf {next}")))?;
        Ok(if tree_mask >> edge.a & 1 == 1 {
            &edge.forward
        } else {
            &edge.backward
        })
    }

    /// The join step: join leaf `next` onto `tree` (the leaves in
    /// `tree_mask`). `=` is a hash join, anything else a nested loop.
    pub(crate) fn join(
        &self,
        tree: PhysicalPlan,
        tree_mask: u64,
        next: usize,
    ) -> Result<PhysicalPlan> {
        let predicate = self.predicate(tree_mask, next)?.clone();
        let algo = if predicate.op == CompareOp::Eq {
            PhysicalJoinAlgo::Hash
        } else {
            PhysicalJoinAlgo::NestedLoop
        };
        Ok(PhysicalPlan::Join {
            algo,
            left: Box::new(tree),
            right: Box::new(self.leaves[next].plan.clone()),
            predicate,
        })
    }

    /// The join step over ids: the interned `Join` of the tree `tree`
    /// (the leaves in `tree_mask`) and leaf `next`, as `to_logical`
    /// converts [`JoinGraph::join`]'s plan.
    fn join_id(
        &self,
        pricer: &Pricer<'_>,
        tree: SubtreeId,
        tree_mask: u64,
        next: usize,
    ) -> Result<SubtreeId> {
        let predicate = self.predicate(tree_mask, next)?;
        let payload = Payload::Join(Cow::Borrowed(predicate), JoinKind::Inner);
        pricer.node(payload, &[tree, self.leaf_id(next)?])
    }

    fn leaf_id(&self, t: usize) -> Result<SubtreeId> {
        self.leaves[t]
            .id
            .ok_or_else(|| DiscoError::Plan(format!("join-search leaf {t} was never interned")))
    }

    /// The left-deep join tree over `order`.
    pub(crate) fn tree(&self, order: &[usize]) -> Result<PhysicalPlan> {
        let mut plan = self.leaves[order[0]].plan.clone();
        let mut mask = 1 << order[0];
        for &next in &order[1..] {
            plan = self.join(plan, mask, next)?;
            mask |= 1 << next;
        }
        Ok(plan)
    }

    /// Price the complete left-deep plan over `order` against `limit`,
    /// built over ids.
    pub(crate) fn price_order(
        &self,
        s: &mut Search<'_, '_>,
        order: &[usize],
        limit: Option<f64>,
    ) -> Result<Option<NodeCost>> {
        let mut id = self.leaf_id(order[0])?;
        let mut mask = 1 << order[0];
        for &next in &order[1..] {
            id = self.join_id(&s.pricer, id, mask, next)?;
            mask |= 1 << next;
        }
        s.consider(id, limit)
    }

    /// The greedy order: the leaf of smallest estimated cardinality
    /// first, then always the smallest leaf joined to those placed.
    /// `None` when the graph is not connected.
    pub(crate) fn greedy(&self) -> Option<Vec<usize>> {
        let rows = |t: usize| self.leaves[t].cost.count_object;
        let mut order = Vec::with_capacity(self.leaves.len());
        let mut placed = 0u64;
        while order.len() < self.leaves.len() {
            let candidates = if placed == 0 {
                self.full()
            } else {
                self.adjacent_to(placed)
            };
            let next = bits(candidates).min_by(|&a, &b| rows(a).total_cmp(&rows(b)))?;
            placed |= 1 << next;
            order.push(next);
        }
        Some(order)
    }

    /// The one join-order search: the DP up to [`DP_MAX_LEAVES`] leaves,
    /// the greedy order beyond (and for a single leaf). `bound` is the
    /// initial §4.3.2 cost limit. `None` when every candidate passed the
    /// bound or no order connects every leaf.
    pub(crate) fn search(
        &self,
        s: &mut Search<'_, '_>,
        bound: Option<f64>,
    ) -> Result<Option<(PhysicalPlan, NodeCost)>> {
        let best = if (2..=DP_MAX_LEAVES).contains(&self.leaves.len()) {
            self.dp(s, bound)?
        } else {
            match self.greedy() {
                Some(order) => self
                    .price_order(s, &order, bound.filter(|_| s.prune))?
                    .map(|cost| (order, cost)),
                None => None,
            }
        };
        best.map(|(order, cost)| Ok((self.tree(&order)?, cost)))
            .transpose()
    }

    /// Selinger-style DP over connected leaf subsets: each frontier
    /// extends a memoized prefix by one adjacent leaf, one interned `Join`
    /// node evaluated over the prefix's and the leaf's memoized costs.
    /// Every candidate, frontier or complete, is priced against `bound`.
    fn dp(
        &self,
        s: &mut Search<'_, '_>,
        bound: Option<f64>,
    ) -> Result<Option<(Vec<usize>, NodeCost)>> {
        let n = self.leaves.len();
        let limit = bound.filter(|_| s.prune);
        let mut memo: Vec<Vec<Prefix>> = vec![Vec::new(); self.full() as usize + 1];
        for (t, leaf) in self.leaves.iter().enumerate() {
            memo[1 << t].push(Prefix {
                id: self.leaf_id(t)?,
                cost: leaf.cost,
                step: Step {
                    prev: 0,
                    entry: 0,
                    leaf: t,
                },
            });
        }
        let mut best: Best = None;
        let mut cands: Vec<(u64, Step)> = Vec::new();
        for size in 2..=n {
            // Extend every memoized prefix of size-1 by one adjacent leaf
            // (connected-subgraph-first: non-adjacent extensions would be
            // cross products).
            cands.clear();
            for (prev, entries) in memo.iter().enumerate().skip(1) {
                let prev = prev as u64;
                if prev.count_ones() as usize != size - 1 || entries.is_empty() {
                    continue;
                }
                for leaf in bits(self.adjacent_to(prev)) {
                    for entry in 0..entries.len() {
                        cands.push((prev | 1 << leaf, Step { prev, entry, leaf }));
                    }
                }
            }
            for &(subset, step) in &cands {
                let prefix = memo[step.prev as usize][step.entry].id;
                let id = self.join_id(&s.pricer, prefix, step.prev, step.leaf)?;
                // A frontier subplan is priced as the join subtree alone,
                // a complete one under the caller's post-join operators.
                let complete = size == n;
                let cost = if complete {
                    s.consider(id, limit)?
                } else {
                    s.pricer.price_id(id, limit)?
                };
                #[cfg(test)]
                audit::check(self, s, &order_of(&memo, step), complete, limit, cost)?;
                match cost {
                    Some(cost) if complete => {
                        offer(&mut best, s.objective, cost, || order_of(&memo, step))
                    }
                    Some(cost) => {
                        pareto_insert(&mut memo[subset as usize], Prefix { id, cost, step })
                    }
                    None if !complete => s.pricer.counters.pruned += 1,
                    None => {}
                }
            }
        }
        Ok(best.map(|(_, order, cost)| (order, cost)))
    }

    /// The exhaustive oracle: every connected left-deep order, in
    /// lexicographic order, each priced as a complete tree against the
    /// lower of `bound` and the best found so far (with pruning on).
    pub(crate) fn permutations(
        &self,
        s: &mut Search<'_, '_>,
        bound: Option<f64>,
    ) -> Result<Option<(PhysicalPlan, NodeCost)>> {
        let mut best = None;
        let mut order = Vec::with_capacity(self.leaves.len());
        self.sweep(&mut order, 0, s, bound, &mut best)?;
        best.map(|(_, order, cost)| Ok((self.tree(&order)?, cost)))
            .transpose()
    }

    fn sweep(
        &self,
        order: &mut Vec<usize>,
        placed: u64,
        s: &mut Search<'_, '_>,
        bound: Option<f64>,
        best: &mut Best,
    ) -> Result<()> {
        if order.len() == self.leaves.len() {
            let limit = match (best.as_ref().map(|b| b.0), bound) {
                (Some(v), Some(b)) => Some(v.min(b)),
                (v, b) => v.or(b),
            }
            .filter(|_| s.prune);
            if let Some(cost) = s.consider_tree(self.tree(order)?, limit)? {
                offer(best, s.objective, cost, || order.clone());
            }
            return Ok(());
        }
        let next = if placed == 0 {
            self.full()
        } else {
            self.adjacent_to(placed)
        };
        for t in bits(next) {
            order.push(t);
            self.sweep(order, placed | 1 << t, s, bound, best)?;
            order.pop();
        }
        Ok(())
    }
}

/// `a` is at least as good as `b` on every cost variable.
fn dominates(a: &NodeCost, b: &NodeCost) -> bool {
    a.total_time <= b.total_time
        && a.time_first <= b.time_first
        && a.time_next <= b.time_next
        && a.count_object <= b.count_object
        && a.total_size <= b.total_size
}

/// Keep `entries` a Pareto set: drop the candidate if an existing entry
/// dominates it, else insert it and drop the entries it dominates. Of two
/// prefixes with equal costs the one memoized first stays.
///
/// Dropping a dominated prefix rests on monotonicity: a mediator
/// operator's `TotalTime`, `TimeFirst` and `CountObject` never fall when
/// its input's cost vector does not (`crates/core/tests/properties.rs`
/// checks it for every operator that can sit above a prefix). That covers
/// the variables plans are ranked by and the cardinalities the next join
/// reads. It is not true of all five: `TimeNext` is a per-object quotient,
/// and an `Aggregate`'s `TotalSize` follows its group count, so either
/// may fall while the input grows.
fn pareto_insert(entries: &mut Vec<Prefix>, cand: Prefix) {
    if entries.iter().any(|e| dominates(&e.cost, &cand.cost)) {
        return;
    }
    entries.retain(|e| !dominates(&cand.cost, &e.cost));
    entries.push(cand);
}

/// The differential check of the id-priced search, in test builds: while
/// [`audit::record`] runs, every DP candidate is priced a second time from
/// its materialized tree by the uncached tree entry point, against the
/// same limit, and both answers are kept.
#[cfg(test)]
pub(crate) mod audit {
    use std::cell::RefCell;

    use super::*;

    /// Per candidate: the id-priced cost, then the tree-priced one.
    pub(crate) type Records = Vec<(Option<NodeCost>, Option<NodeCost>)>;

    thread_local! {
        static RECORDS: RefCell<Option<Records>> = const { RefCell::new(None) };
    }

    /// Run `f`, auditing every DP candidate it prices on this thread.
    pub(crate) fn record<T>(f: impl FnOnce() -> T) -> (T, Records) {
        RECORDS.with(|r| *r.borrow_mut() = Some(Vec::new()));
        let out = f();
        let records = RECORDS.with(|r| r.borrow_mut().take()).unwrap_or_default();
        (out, records)
    }

    pub(super) fn check(
        graph: &JoinGraph,
        s: &Search<'_, '_>,
        order: &[usize],
        complete: bool,
        limit: Option<f64>,
        by_id: Option<NodeCost>,
    ) -> Result<()> {
        if RECORDS.with(|r| r.borrow().is_none()) {
            return Ok(());
        }
        let mut tree = graph.tree(order)?;
        if complete {
            tree = s.finish.iter().fold(tree, |plan, op| op.over(plan));
        }
        let by_tree = Pricer::new(s.pricer.estimator, None).price(&tree, limit)?;
        RECORDS.with(|r| {
            if let Some(records) = r.borrow_mut().as_mut() {
                records.push((by_id, by_tree));
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::Schema;

    /// A leaf per cardinality: a bare submit with no columns.
    fn graph(rows: &[f64]) -> JoinGraph {
        JoinGraph::new(
            rows.iter()
                .enumerate()
                .map(|(i, &count_object)| Leaf {
                    plan: PhysicalPlan::SubmitRemote {
                        wrapper: format!("w{i}"),
                        plan: disco_algebra::LogicalPlan::Scan {
                            collection: disco_common::QualifiedName::new(format!("w{i}"), "C"),
                            schema: Schema::new(Vec::new()),
                        },
                        schema: Schema::new(Vec::new()),
                    },
                    cost: NodeCost {
                        count_object,
                        ..NodeCost::ZERO
                    },
                    id: None,
                })
                .collect(),
        )
    }

    fn eq(left: &str, right: &str) -> JoinPredicate {
        JoinPredicate {
            left_attr: left.into(),
            op: CompareOp::Eq,
            right_attr: right.into(),
        }
    }

    #[test]
    fn adjacency_bitsets_mirror_join_graph() {
        let mut g = graph(&[1.0, 1.0, 1.0]);
        g.connect(0, 1, eq("a.x", "b.x"));
        assert_eq!(g.adjacency, vec![0b010, 0b001, 0b000]);
        // Neighbours of {a} are {b} and vice versa; {c} joins nothing.
        assert_eq!(g.adjacent_to(0b001), 0b010);
        assert_eq!(g.adjacent_to(0b010), 0b001);
        assert_eq!(g.adjacent_to(0b011), 0);
        assert_eq!(g.adjacent_to(0b100), 0);
        assert!(g
            .check(|t| format!("t{t}"))
            .unwrap_err()
            .message()
            .contains("`t2`"));
        g.connect(1, 2, eq("b.y", "c.y"));
        assert!(g.check(|t| format!("t{t}")).is_ok());
        g.connect(0, 2, eq("a.z", "c.z"));
        assert!(g
            .check(|t| format!("t{t}"))
            .unwrap_err()
            .message()
            .contains("cyclic"));
    }

    #[test]
    fn join_step_orients_the_predicate_from_the_tree() {
        let mut g = graph(&[1.0, 1.0]);
        g.connect(
            0,
            1,
            JoinPredicate {
                left_attr: "a.x".into(),
                op: CompareOp::Lt,
                right_attr: "b.x".into(),
            },
        );
        let PhysicalPlan::Join {
            algo, predicate, ..
        } = g.tree(&[1, 0]).unwrap()
        else {
            panic!("not a join");
        };
        assert_eq!(algo, PhysicalJoinAlgo::NestedLoop);
        assert_eq!(
            (
                predicate.left_attr.as_str(),
                predicate.op,
                predicate.right_attr.as_str()
            ),
            ("b.x", CompareOp::Gt, "a.x")
        );
        let PhysicalPlan::Join { predicate, .. } = g.tree(&[0, 1]).unwrap() else {
            panic!("not a join");
        };
        assert_eq!(predicate.left_attr, "a.x");
    }

    #[test]
    fn greedy_starts_small_and_stays_connected() {
        // Chain 0–1–2–3: the smallest leaf is 2, then its smaller
        // neighbour 3 is a dead end, so 1 and 0 follow.
        let mut g = graph(&[5.0, 40.0, 1.0, 2.0]);
        g.connect(0, 1, eq("a.x", "b.x"));
        g.connect(1, 2, eq("b.y", "c.y"));
        g.connect(2, 3, eq("c.z", "d.z"));
        assert_eq!(g.greedy(), Some(vec![2, 3, 1, 0]));
        let disconnected = graph(&[1.0, 2.0]);
        assert_eq!(disconnected.greedy(), None);
    }

    /// A random federation of `n` tables `T0..Tn` in one full-capability
    /// wrapper, and an access-plan leaf per table: a submit of the
    /// alias-renamed scan, sometimes under a mediator filter.
    fn random_leaves(
        rng: &mut disco_common::rng::StdRng,
        n: usize,
    ) -> (disco_catalog::Catalog, Vec<PhysicalPlan>) {
        use disco_algebra::{LogicalPlan, SelectPredicate};
        use disco_catalog::{AttributeStats, Capabilities, Catalog, CollectionStats, ExtentStats};
        use disco_common::{AttributeDef, DataType, QualifiedName, Value};

        let mut catalog = Catalog::new();
        catalog.register_wrapper("w", Capabilities::full()).unwrap();
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("f", DataType::Long),
        ]);
        let mut leaves = Vec::with_capacity(n);
        for t in 0..n {
            let card = rng.gen_range(10u64..100_000);
            let mut stats = CollectionStats::new(ExtentStats::of(card, 48)).with_attribute(
                "f",
                AttributeStats::new(card / 10 + 1, Value::Long(0), Value::Long(card as i64)),
            );
            if rng.gen_range(0usize..2) == 0 {
                stats = stats.with_attribute(
                    "id",
                    AttributeStats::indexed(card, Value::Long(0), Value::Long(card as i64 - 1)),
                );
            }
            catalog
                .register_collection("w", format!("T{t}"), schema.clone(), stats)
                .unwrap();
            let columns: Vec<(String, ScalarExpr)> = ["id", "f"]
                .iter()
                .map(|c| (format!("t{t}.{c}"), ScalarExpr::attr(*c)))
                .collect();
            let inner = LogicalPlan::Project {
                input: Box::new(LogicalPlan::Scan {
                    collection: QualifiedName::new("w", format!("T{t}")),
                    schema: schema.clone(),
                }),
                columns,
            };
            let mut leaf = PhysicalPlan::SubmitRemote {
                wrapper: "w".into(),
                schema: inner.output_schema().unwrap(),
                plan: inner,
            };
            if rng.gen_range(0usize..3) == 0 {
                let v = rng.gen_range(0i64..1_000);
                leaf = PhysicalPlan::Filter {
                    input: Box::new(leaf),
                    predicate: Predicate::all(vec![SelectPredicate::new(
                        format!("t{t}.f"),
                        CompareOp::Lt,
                        Value::Long(v),
                    )]),
                };
            }
            leaves.push(leaf);
        }
        (catalog, leaves)
    }

    /// The id-priced search against the tree entry point: on seeded
    /// random join graphs of 2–12 leaves (equi and theta edges, with and
    /// without observed cardinalities at the submits, with and without
    /// post-join operators), every DP candidate's id-priced cost equals
    /// the uncached estimate of its materialized tree bit for bit, and
    /// both abandon exactly the same candidates under the bound.
    #[test]
    fn id_priced_candidates_equal_their_trees() {
        use disco_algebra::{AggFunc, SelectPredicate};
        use disco_common::rng::seeded;
        use disco_core::{CardinalityOverrides, RuleRegistry};

        let registry = RuleRegistry::with_default_model();
        let (mut audited, mut abandoned) = (0, 0);
        for seed in 0..33u64 {
            let mut rng = seeded(seed, "id-priced-dp");
            let n = 2 + (seed as usize % 11);
            let (catalog, plans) = random_leaves(&mut rng, n);
            let mut overrides = CardinalityOverrides::new();
            if rng.gen_range(0usize..2) == 0 {
                for plan in &plans {
                    let mut p = plan;
                    if let PhysicalPlan::Filter { input, .. } = p {
                        p = input;
                    }
                    let PhysicalPlan::SubmitRemote { wrapper, plan, .. } = p else {
                        unreachable!("leaves are submits")
                    };
                    if rng.gen_range(0usize..2) == 0 {
                        let rows = rng.gen_range(1.0f64..200_000.0);
                        overrides.insert(wrapper, plan, rows, rows * 16.0);
                    }
                }
            }
            let estimator = Estimator::new(&registry, &catalog).with_overrides(Some(&overrides));
            let cache = EstimatorCache::new();
            let mut pricer = Pricer::new(estimator, Some(&cache));
            let leaves = plans
                .into_iter()
                .map(|p| pricer.leaf(p))
                .collect::<Result<Vec<_>>>()
                .unwrap();
            let mut graph = JoinGraph::new(leaves);
            const OPS: [CompareOp; 3] = [CompareOp::Eq, CompareOp::Lt, CompareOp::Ge];
            // Each leaf joins one of the two placed before it: random
            // shapes whose connected subsets stay few enough to audit.
            for t in 1..n {
                let parent = rng.gen_range(t.saturating_sub(2)..t);
                let op = OPS[rng.gen_range(0usize..4).min(2)];
                let predicate = JoinPredicate {
                    left_attr: format!("t{parent}.f"),
                    op,
                    right_attr: format!("t{t}.id"),
                };
                if rng.gen_range(0usize..2) == 0 {
                    graph.connect(parent, t, predicate);
                } else {
                    graph.connect(
                        t,
                        parent,
                        JoinPredicate {
                            left_attr: predicate.right_attr,
                            op: op.flipped(),
                            right_attr: predicate.left_attr,
                        },
                    );
                }
            }
            let finish = match rng.gen_range(0usize..3) {
                0 => Vec::new(),
                1 => vec![
                    Post::Filter(Predicate::all(vec![SelectPredicate::new(
                        "t0.id",
                        CompareOp::Gt,
                        disco_common::Value::Long(3),
                    )])),
                    Post::Project(vec![("t0.id".into(), ScalarExpr::attr("t0.id"))]),
                    Post::Dedup,
                    Post::Sort(vec![("t0.id".into(), true)]),
                ],
                _ => vec![
                    Post::Aggregate {
                        group_by: vec!["t0.f".into()],
                        aggs: vec![AggExpr {
                            name: "n".into(),
                            func: AggFunc::Count,
                            arg: None,
                        }],
                    },
                    Post::Project(vec![("n".into(), ScalarExpr::attr("n"))]),
                ],
            };
            let mut search = Search {
                pricer,
                finish: &finish,
                objective: Objective::TotalTime,
                prune: true,
            };
            // No bound, or one around the greedy plan's cost, so that
            // some candidates are abandoned.
            let order = graph.greedy().unwrap();
            let seed_cost = graph.price_order(&mut search, &order, None).unwrap();
            let bound = (rng.gen_range(0usize..3) > 0)
                .then(|| seed_cost.unwrap().total_time * rng.gen_range(0.3f64..1.2));
            let (best, records) = audit::record(|| graph.search(&mut search, bound).unwrap());
            if n > 1 {
                assert!(!records.is_empty(), "seed {seed}: the DP priced nothing");
            }
            for (by_id, by_tree) in &records {
                let bits = |c: &Option<NodeCost>| {
                    c.map(|c| disco_costlang::CostVar::ALL.map(|v| c.get(v).to_bits()))
                };
                assert_eq!(bits(by_id), bits(by_tree), "seed {seed}");
                abandoned += by_id.is_none() as usize;
            }
            audited += records.len();
            if let Some((plan, cost)) = best {
                let tree = finish.iter().fold(plan, |p, op| op.over(p));
                let fresh = Pricer::new(estimator, None).price(&tree, None).unwrap();
                assert_eq!(fresh, Some(cost), "seed {seed}: the winner's tree");
            }
        }
        assert!(
            audited > 1_000 && abandoned > 0,
            "{audited} audited, {abandoned} abandoned"
        );
    }
}
