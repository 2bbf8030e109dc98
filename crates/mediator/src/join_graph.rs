//! The join graph and the one left-deep join-order search over it.
//!
//! The optimizer and the adaptive re-planner order joins the same way;
//! only their leaves differ. The optimizer's leaves are the chosen
//! per-table access plans; the re-planner's are the already-fetched
//! subtrees of a running combine plan, priced under measured
//! cardinalities. Each leaf carries its [`NodeCost`], and each edge one
//! join predicate over alias-qualified attribute names, oriented from
//! leaf `a` to leaf `b`. Adjacency is a bitset per leaf, so "the leaves
//! joined to this subset" is a few OR/AND-NOTs.
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
//! A caller hands the search an initial bound (§4.3.2). Frontier
//! subplans and complete plans whose `TotalTime` passes it are abandoned
//! mid-estimation. Exact cost ties keep the candidate met first: the DP
//! meets prefixes subset by subset (in bitset order) and extends each by
//! its adjacent leaves in index order; the sweep meets orders
//! lexicographically.

use disco_algebra::{CompareOp, JoinPredicate, PhysicalJoinAlgo, PhysicalPlan};
use disco_common::{DiscoError, Result};
use disco_core::{EstimateOptions, Estimator, EstimatorCache, NodeCost};

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

    /// Estimate `plan`; `None` when it passed `limit` and was abandoned.
    pub(crate) fn price(
        &mut self,
        plan: &PhysicalPlan,
        limit: Option<f64>,
    ) -> Result<Option<NodeCost>> {
        let opts = EstimateOptions {
            cost_limit: limit,
            wrapper: None,
        };
        let logical = to_logical(plan);
        let report = match self.cache {
            Some(c) => self.estimator.estimate_report_cached(&logical, &opts, c),
            None => self.estimator.estimate_report(&logical, &opts),
        }?;
        if let Some(r) = &report {
            self.counters.nodes += r.nodes_visited;
            self.counters.rules += r.rules_evaluated;
        }
        Ok(report.map(|r| r.cost))
    }
}

/// How one caller ranks and prices complete join trees.
pub(crate) struct Search<'a, 'c> {
    pub(crate) pricer: Pricer<'a>,
    /// The plan a complete join tree is priced as: the optimizer stacks
    /// its post-join operators on top, the re-planner prices the bare
    /// tree.
    pub(crate) complete: &'c dyn Fn(PhysicalPlan) -> Result<PhysicalPlan>,
    pub(crate) objective: Objective,
    /// Apply the bound (§4.3.2); the permutation sweep also tightens it
    /// to the best complete plan found so far.
    pub(crate) prune: bool,
}

impl Search<'_, '_> {
    /// Price one complete join tree against `limit`.
    pub(crate) fn consider(
        &mut self,
        tree: PhysicalPlan,
        limit: Option<f64>,
    ) -> Result<Option<(PhysicalPlan, NodeCost)>> {
        let cost = self.pricer.price(&(self.complete)(tree.clone())?, limit)?;
        self.pricer.counters.considered += 1;
        if cost.is_none() {
            self.pricer.counters.pruned += 1;
        }
        Ok(cost.map(|c| (tree, c)))
    }
}

/// One leaf: a plan and its estimate.
pub(crate) struct Leaf {
    pub(crate) plan: PhysicalPlan,
    pub(crate) cost: NodeCost,
}

/// A join predicate between leaves `a` (its left attribute) and `b`.
struct Edge {
    a: usize,
    b: usize,
    predicate: JoinPredicate,
}

/// Leaves, the join predicates between them, and adjacency bitsets.
pub(crate) struct JoinGraph {
    leaves: Vec<Leaf>,
    edges: Vec<Edge>,
    /// Bit `j` of `adjacency[i]` is set when an edge joins `i` and `j`.
    adjacency: Vec<u64>,
}

/// The best complete plan found so far, with its objective value.
type Best = Option<(f64, PhysicalPlan, NodeCost)>;

/// Keep `plan` in `best` if it ranks strictly lower: ties keep the plan
/// met first.
fn offer(best: &mut Best, objective: Objective, plan: PhysicalPlan, cost: NodeCost) {
    let value = objective.value(&cost);
    if best.as_ref().is_none_or(|(v, _, _)| value < *v) {
        *best = Some((value, plan, cost));
    }
}

/// One memoized joined prefix.
#[derive(Clone)]
struct Prefix {
    plan: PhysicalPlan,
    cost: NodeCost,
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
        self.edges.push(Edge { a, b, predicate });
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

    /// The join step: join leaf `next` onto `tree` (the leaves in
    /// `tree_mask`) by the edge connecting them, unique in an acyclic
    /// graph. The left attribute belongs to the tree, flipping the
    /// comparison if need be; `=` is a hash join, anything else a nested
    /// loop.
    pub(crate) fn join(
        &self,
        tree: PhysicalPlan,
        tree_mask: u64,
        next: usize,
    ) -> Result<PhysicalPlan> {
        let edge = self
            .edges
            .iter()
            .find(|e| {
                (e.a == next && tree_mask >> e.b & 1 == 1)
                    || (e.b == next && tree_mask >> e.a & 1 == 1)
            })
            .ok_or_else(|| DiscoError::Plan(format!("no join condition reaches leaf {next}")))?;
        let predicate = if tree_mask >> edge.a & 1 == 1 {
            edge.predicate.clone()
        } else {
            JoinPredicate {
                left_attr: edge.predicate.right_attr.clone(),
                op: edge.predicate.op.flipped(),
                right_attr: edge.predicate.left_attr.clone(),
            }
        };
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
        if (2..=DP_MAX_LEAVES).contains(&self.leaves.len()) {
            return self.dp(s, bound);
        }
        match self.greedy() {
            Some(order) => s.consider(self.tree(&order)?, bound.filter(|_| s.prune)),
            None => Ok(None),
        }
    }

    /// Selinger-style DP over connected leaf subsets: each frontier
    /// extends a memoized prefix by one adjacent leaf, and prefixes shared
    /// by many candidates are estimated once thanks to the subplan cost
    /// memo. Every candidate, frontier or complete, is priced against
    /// `bound`.
    fn dp(
        &self,
        s: &mut Search<'_, '_>,
        bound: Option<f64>,
    ) -> Result<Option<(PhysicalPlan, NodeCost)>> {
        let n = self.leaves.len();
        let limit = bound.filter(|_| s.prune);
        let mut memo: Vec<Vec<Prefix>> = vec![Vec::new(); self.full() as usize + 1];
        for (t, leaf) in self.leaves.iter().enumerate() {
            memo[1 << t].push(Prefix {
                plan: leaf.plan.clone(),
                cost: leaf.cost,
            });
        }
        let mut best: Best = None;
        for size in 2..=n {
            // Extend every memoized prefix of size-1 by one adjacent leaf
            // (connected-subgraph-first: non-adjacent extensions would be
            // cross products).
            let mut cands: Vec<(u64, PhysicalPlan)> = Vec::new();
            for (prev, entries) in memo.iter().enumerate().skip(1) {
                let prev = prev as u64;
                if prev.count_ones() as usize != size - 1 || entries.is_empty() {
                    continue;
                }
                for t in bits(self.adjacent_to(prev)) {
                    for e in entries {
                        cands.push((prev | 1 << t, self.join(e.plan.clone(), prev, t)?));
                    }
                }
            }
            if size < n {
                // Frontier subplans: price the join subtree alone.
                for (subset, plan) in cands {
                    match s.pricer.price(&plan, limit)? {
                        Some(cost) => {
                            pareto_insert(&mut memo[subset as usize], Prefix { plan, cost })
                        }
                        None => s.pricer.counters.pruned += 1,
                    }
                }
            } else {
                for (_, plan) in cands {
                    if let Some((plan, cost)) = s.consider(plan, limit)? {
                        offer(&mut best, s.objective, plan, cost);
                    }
                }
            }
        }
        Ok(best.map(|(_, plan, cost)| (plan, cost)))
    }

    /// The exhaustive oracle: every connected left-deep order, in
    /// lexicographic order, each priced as a complete plan against the
    /// lower of `bound` and the best found so far (with pruning on).
    pub(crate) fn permutations(
        &self,
        s: &mut Search<'_, '_>,
        bound: Option<f64>,
    ) -> Result<Option<(PhysicalPlan, NodeCost)>> {
        let mut best = None;
        let mut order = Vec::with_capacity(self.leaves.len());
        self.sweep(&mut order, 0, s, bound, &mut best)?;
        Ok(best.map(|(_, plan, cost)| (plan, cost)))
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
            if let Some((plan, cost)) = s.consider(self.tree(order)?, limit)? {
                offer(best, s.objective, plan, cost);
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
/// dominates it, else insert it and drop the entries it dominates. Parent
/// costs are monotone in child cost vectors, so a dominated prefix can
/// never complete into a better plan. Of two prefixes with equal costs
/// the one memoized first stays.
fn pareto_insert(entries: &mut Vec<Prefix>, cand: Prefix) {
    if entries.iter().any(|e| dominates(&e.cost, &cand.cost)) {
        return;
    }
    entries.retain(|e| !dominates(&cand.cost, &e.cost));
    entries.push(cand);
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
}
