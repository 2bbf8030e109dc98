//! Mediator-local physical algebra.
//!
//! The paper distinguishes the mediator's *local scope* from wrapper scopes
//! precisely because "the mediator processes local operators using a
//! physical algebra instead of a logical algebra" (§4.1, footnote 1). This
//! module defines that physical algebra: the operators the mediator itself
//! executes to combine wrapper subanswers, each carrying its algorithm
//! choice so local-scope cost rules can price them individually.

use std::fmt;

use disco_common::{QualifiedName, Schema};

use crate::expr::ScalarExpr;
use crate::logical::{AggExpr, LogicalPlan};
use crate::predicate::{JoinPredicate, Predicate};

/// Access-path choice for a base-collection read.
///
/// Shared vocabulary between the generic cost model (which prices
/// sequential vs index scans, §2.3) and the simulated sources (which
/// actually execute them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanAlgo {
    /// Read every page of the extent in storage order.
    Sequential,
    /// Probe an index on the named attribute, fetching qualifying objects.
    Index,
}

impl fmt::Display for ScanAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanAlgo::Sequential => f.write_str("seq"),
            ScanAlgo::Index => f.write_str("index"),
        }
    }
}

/// Join algorithm implemented by the mediator executor: a hash join for
/// equi-joins, nested loops otherwise. The paper's generic model for
/// binary operators (§2.3) also prices index and sort-merge joins; those
/// formulas cost joins a wrapper runs, and the mediator has no operator
/// for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalJoinAlgo {
    NestedLoop,
    Hash,
}

impl fmt::Display for PhysicalJoinAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicalJoinAlgo::NestedLoop => f.write_str("nested-loop"),
            PhysicalJoinAlgo::Hash => f.write_str("hash"),
        }
    }
}

/// A physical plan executed by the mediator.
///
/// Leaves are [`PhysicalPlan::SubmitRemote`] nodes that ship a *logical*
/// subplan to a wrapper — the wrapper picks its own access paths, which is
/// why subplan costing relies on wrapper-exported rules.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Issue `plan` to `wrapper` and stream back its subanswer.
    SubmitRemote {
        wrapper: String,
        plan: LogicalPlan,
        /// Schema of the returned tuples.
        schema: Schema,
    },
    /// Mediator-side selection over a subanswer.
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Predicate,
    },
    /// Mediator-side projection.
    Project {
        input: Box<PhysicalPlan>,
        columns: Vec<(String, ScalarExpr)>,
    },
    /// In-memory sort.
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(String, bool)>,
    },
    /// Join with an explicit algorithm.
    Join {
        algo: PhysicalJoinAlgo,
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        predicate: JoinPredicate,
    },
    /// Bag union of two compatible inputs.
    Union {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    /// Hash-based duplicate elimination.
    Dedup { input: Box<PhysicalPlan> },
    /// Hash aggregation.
    Aggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<String>,
        aggs: Vec<AggExpr>,
    },
}

impl PhysicalPlan {
    /// Child nodes, left to right.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SubmitRemote { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Dedup { input }
            | PhysicalPlan::Aggregate { input, .. } => vec![input],
            PhysicalPlan::Join { left, right, .. } | PhysicalPlan::Union { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Number of nodes in the tree (remote subplans count as one leaf).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Wrappers contacted by this plan, in leaf order, without duplicates.
    pub fn wrappers(&self) -> Vec<&str> {
        fn walk<'a>(p: &'a PhysicalPlan, out: &mut Vec<&'a str>) {
            if let PhysicalPlan::SubmitRemote { wrapper, .. } = p {
                if !out.contains(&wrapper.as_str()) {
                    out.push(wrapper);
                }
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// All collections read by remote subplans.
    pub fn collections(&self) -> Vec<&QualifiedName> {
        fn walk<'a>(p: &'a PhysicalPlan, out: &mut Vec<&'a QualifiedName>) {
            if let PhysicalPlan::SubmitRemote { plan, .. } = p {
                for c in plan.collections() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::{AttributeDef, DataType};

    fn remote(wrapper: &str, coll: &str) -> PhysicalPlan {
        let schema = Schema::new(vec![AttributeDef::new("id", DataType::Long)]);
        PhysicalPlan::SubmitRemote {
            wrapper: wrapper.into(),
            plan: LogicalPlan::Scan {
                collection: QualifiedName::new(wrapper, coll),
                schema: schema.clone(),
            },
            schema,
        }
    }

    #[test]
    fn wrappers_deduplicated_in_leaf_order() {
        let plan = PhysicalPlan::Join {
            algo: PhysicalJoinAlgo::Hash,
            left: Box::new(remote("a", "X")),
            right: Box::new(PhysicalPlan::Union {
                left: Box::new(remote("b", "Y")),
                right: Box::new(remote("a", "Z")),
            }),
            predicate: JoinPredicate::equi("id", "id"),
        };
        assert_eq!(plan.wrappers(), vec!["a", "b"]);
        assert_eq!(plan.collections().len(), 3);
        assert_eq!(plan.node_count(), 5);
    }

    #[test]
    fn algo_display() {
        assert_eq!(PhysicalJoinAlgo::NestedLoop.to_string(), "nested-loop");
        assert_eq!(ScanAlgo::Index.to_string(), "index");
    }
}
