//! The mediator's generic cost model (paper §2.3).
//!
//! Calibration-style formulas in the spirit of \[GST96\]: for unary
//! operators the model distinguishes sequential and index scans (selecting
//! the index formula when the wrapper exported an index on the restricted
//! attribute); for joins it considers index join, nested loops and
//! sort-merge and keeps the cheapest. Selectivities derive from the
//! exported `Min`/`Max`/`CountDistinct` statistics. Clustering is *not*
//! modelled — the very limitation the paper's §5 experiment exposes.
//!
//! The calibrated index-scan formula deliberately assumes the number of
//! pages fetched is proportional to the number of qualifying objects
//! (`k * IO`), which over-estimates badly once qualifying objects share
//! pages; the wrapper-exported Yao rule of Figure 13 corrects it.
//!
//! Two native rule sets are installed:
//!
//! * [`GenericModel`] — default scope, applies everywhere, provides every
//!   variable for every operator (the guarantee of §4.1);
//! * [`LocalModel`] — local scope, the mediator's own in-memory physical
//!   operators (no per-object `Output` delivery cost, hash-based join).

use std::sync::Arc;

use disco_algebra::{CompareOp, OperatorKind, Predicate};
use disco_catalog::{join_selectivity, predicate_selectivity};
use disco_costlang::ast::{AttrTerm, CollTerm, HeadArg, RuleHead};
use disco_costlang::CostVar;

use crate::estimator::NativeCtx;
use crate::intern::Payload;
use crate::registry::{Provenance, RuleRegistry};
use crate::rules::NativeFormula;
use crate::scope::Scope;

/// Install the default-scope generic model (all operators) and the
/// local-scope mediator model (combination operators) into a registry.
pub fn install_default_model(reg: &mut RuleRegistry) {
    for op in OperatorKind::ALL {
        reg.register_native(
            Provenance::Default,
            Scope::Default,
            catch_all_head(op),
            Arc::new(GenericModel { op }),
        )
        .expect("default model head is valid");
    }
    for op in [
        OperatorKind::Select,
        OperatorKind::Project,
        OperatorKind::Sort,
        OperatorKind::Join,
        OperatorKind::Union,
        OperatorKind::Dedup,
        OperatorKind::Aggregate,
    ] {
        reg.register_native(
            Provenance::Local,
            Scope::Local,
            catch_all_head(op),
            Arc::new(LocalModel { op }),
        )
        .expect("local model head is valid");
    }
}

/// The all-free-variables head matching every node of an operator kind.
pub fn catch_all_head(op: OperatorKind) -> RuleHead {
    let coll = |n: &str| HeadArg::Coll(CollTerm::Var(n.into()));
    let args = match op {
        OperatorKind::Scan
        | OperatorKind::Dedup
        | OperatorKind::Aggregate
        | OperatorKind::Submit => vec![coll("C")],
        OperatorKind::Select | OperatorKind::Project => {
            vec![coll("C"), HeadArg::AnyPred("P".into())]
        }
        OperatorKind::Sort => vec![coll("C"), HeadArg::Attr(AttrTerm::Var("A".into()))],
        OperatorKind::Union => vec![coll("C1"), coll("C2")],
        OperatorKind::Join => vec![coll("C1"), coll("C2"), HeadArg::AnyPred("P".into())],
    };
    RuleHead { op, args }
}

const ALL_VARS: [CostVar; 5] = [
    CostVar::TimeFirst,
    CostVar::TimeNext,
    CostVar::TotalTime,
    CostVar::CountObject,
    CostVar::TotalSize,
];

/// Selectivity when no statistics are available: the classical defaults.
fn fallback_selectivity(pred: &Predicate) -> f64 {
    pred.conjuncts
        .iter()
        .map(|c| match c.op {
            CompareOp::Eq => 0.1,
            CompareOp::Ne => 0.9,
            _ => 1.0 / 3.0,
        })
        .product()
}

/// Selectivity of a selection node over its input.
fn selection_selectivity(ctx: &NativeCtx<'_>, pred: &Predicate) -> f64 {
    match ctx.input_stats(0) {
        Some(stats) => predicate_selectivity(stats, pred),
        None => fallback_selectivity(pred),
    }
}

/// `n log2 n` sort work.
fn sort_cost(ctx: &NativeCtx<'_>, n: f64) -> f64 {
    ctx.param_or("SortFactor", 0.02) * n * n.max(2.0).log2()
}

/// Average object width of input `i`, falling back to base statistics.
fn width_of(ctx: &NativeCtx<'_>, i: usize) -> f64 {
    let cost = ctx.child(i);
    if cost.count_object >= 1.0 && cost.total_size > 0.0 {
        cost.total_size / cost.count_object
    } else {
        ctx.input_stats(i)
            .map(|s| s.extent.object_size as f64)
            .unwrap_or(100.0)
    }
}

/// The default-scope generic model for one operator kind.
#[derive(Debug)]
pub struct GenericModel {
    pub op: OperatorKind,
}

impl GenericModel {
    /// Output cardinality.
    fn count(&self, ctx: &NativeCtx<'_>) -> Option<f64> {
        match ctx.node.payload() {
            Payload::Scan { .. } => Some(ctx.base_stats(ctx.node)?.extent.count_object as f64),
            Payload::Select(predicate) => {
                let sel = selection_selectivity(ctx, &predicate);
                Some(ctx.child(0).count_object * sel)
            }
            Payload::Project(_) | Payload::Sort(_) | Payload::Submit(_) => {
                Some(ctx.child(0).count_object)
            }
            Payload::Join(predicate, _) => {
                let (l, r) = (ctx.child(0), ctx.child(1));
                let jsel = match (ctx.input_stats(0), ctx.input_stats(1)) {
                    (Some(ls), Some(rs)) => join_selectivity(ls, rs, &predicate),
                    // Without statistics assume a key-foreign-key join.
                    _ => 1.0 / l.count_object.max(r.count_object).max(1.0),
                };
                Some(l.count_object * r.count_object * jsel)
            }
            Payload::Union => Some(ctx.child(0).count_object + ctx.child(1).count_object),
            Payload::Dedup => {
                let n = ctx.child(0).count_object;
                Some((n * ctx.param_or("DedupSel", 0.5)).min(n).max(n.min(1.0)))
            }
            Payload::Aggregate(group_by, _) => {
                let n = ctx.child(0).count_object;
                if group_by.is_empty() {
                    return Some(n.min(1.0));
                }
                match ctx.input_stats(0) {
                    Some(stats) => {
                        let groups: f64 = group_by
                            .iter()
                            .map(|g| stats.attribute(g).count_distinct as f64)
                            .product();
                        Some(groups.min(n))
                    }
                    None => Some((n * ctx.param_or("DedupSel", 0.5)).min(n)),
                }
            }
        }
    }

    /// Output size in bytes, given the (possibly overridden) cardinality.
    fn size(&self, ctx: &NativeCtx<'_>, count: f64) -> Option<f64> {
        match ctx.node.payload() {
            Payload::Scan { .. } => Some(ctx.base_stats(ctx.node)?.extent.total_size as f64),
            Payload::Project(columns) => {
                // Width scales with the kept fraction of attributes.
                let in_arity = ctx.node.input(0).map_or(1, |c| c.output_arity()).max(1);
                let ratio = columns.len() as f64 / in_arity as f64;
                Some(count * width_of(ctx, 0) * ratio.min(1.0))
            }
            Payload::Join(..) => Some(count * (width_of(ctx, 0) + width_of(ctx, 1))),
            Payload::Union => Some(count * width_of(ctx, 0)),
            Payload::Select(_)
            | Payload::Sort(_)
            | Payload::Dedup
            | Payload::Aggregate(..)
            | Payload::Submit(_) => Some(count * width_of(ctx, 0)),
        }
    }

    /// `(TimeFirst, TimeNext, TotalTime)`.
    ///
    /// The model is *delivery-at-producer*: an operator's `TotalTime` is
    /// its internal work plus `Output` per object of its **own** result —
    /// intermediate results hand off within the source at CPU cost, not
    /// at delivery cost. [`internal_time`] removes a child's delivery
    /// term when the child feeds this operator inside the same source.
    fn times(&self, ctx: &NativeCtx<'_>, count: f64) -> Option<(f64, f64, f64)> {
        let io = ctx.param_or("IO", 25.0);
        let output = ctx.param_or("Output", 9.0);
        let overhead = ctx.param_or("Overhead", 120.0);
        let cpu_pred = ctx.param_or("CpuPred", 0.05);
        let cpu_scan = ctx.param_or("CpuScan", 0.01);
        let cpu_hash = ctx.param_or("CpuHash", 0.02);
        let deliver = count * output;
        let (tf, tt) = match ctx.node.payload() {
            Payload::Scan { .. } => {
                let stats = ctx.base_stats(ctx.node)?;
                let pages = stats.extent.count_pages(ctx.page_size() as u64) as f64;
                let n = stats.extent.count_object as f64;
                (overhead, overhead + pages * io + n * cpu_scan + deliver)
            }
            Payload::Select(predicate) => {
                let child = ctx.child(0);
                // Index path: selection directly over a base scan with an
                // index on the (single) restricted attribute.
                let over_scan = ctx.node.input(0).is_some_and(|c| c.is_scan());
                let indexed_attr = match predicate.conjuncts.as_slice() {
                    [c] if over_scan => ctx
                        .input_stats(0)
                        .is_some_and(|s| s.attribute(&c.attribute).indexed),
                    _ => false,
                };
                if indexed_attr {
                    // Calibrated index scan: pages fetched assumed
                    // proportional to qualifying objects — the §5 flaw.
                    (overhead + io, overhead + count * io + deliver)
                } else {
                    (
                        child.time_first + cpu_pred,
                        internal_time(ctx, &child) + child.count_object * cpu_pred + deliver,
                    )
                }
            }
            Payload::Project(_) => {
                let child = ctx.child(0);
                (
                    child.time_first + cpu_hash,
                    internal_time(ctx, &child) + child.count_object * cpu_hash + deliver,
                )
            }
            Payload::Sort(_) => {
                let child = ctx.child(0);
                let tt = internal_time(ctx, &child) + sort_cost(ctx, child.count_object) + deliver;
                (tt, tt) // blocking
            }
            Payload::Join(predicate, _) => {
                let (l, r) = (ctx.child(0), ctx.child(1));
                let (nl, nr) = (l.count_object, r.count_object);
                let (il, ir) = (internal_time(ctx, &l), internal_time(ctx, &r));
                let nested = il + ir + nl * nr * cpu_pred;
                let sort_merge =
                    il + ir + sort_cost(ctx, nl) + sort_cost(ctx, nr) + (nl + nr) * cpu_pred;
                let mut best = nested.min(sort_merge);
                // Index join when the inner input is a base scan with an
                // index on the join attribute (§2.3: "when an index is
                // existing, the index join formula is selected").
                let right_indexed = ctx.node.input(1).is_some_and(|c| c.is_scan())
                    && ctx
                        .input_stats(1)
                        .is_some_and(|s| s.attribute(&predicate.right_attr).indexed);
                if right_indexed {
                    let probe = ctx.param_or("IdxProbe", 2.0);
                    let index = il + nl * (probe + io);
                    best = best.min(index);
                }
                (l.time_first + r.time_first, best + deliver)
            }
            Payload::Union => {
                let (l, r) = (ctx.child(0), ctx.child(1));
                (
                    l.time_first.min(r.time_first),
                    internal_time(ctx, &l) + internal_time(ctx, &r) + deliver,
                )
            }
            Payload::Dedup => {
                let child = ctx.child(0);
                (
                    child.time_first + cpu_hash,
                    internal_time(ctx, &child) + child.count_object * cpu_hash + deliver,
                )
            }
            Payload::Aggregate(..) => {
                let child = ctx.child(0);
                let tt = internal_time(ctx, &child) + child.count_object * cpu_hash + deliver;
                (tt, tt) // blocking
            }
            Payload::Submit(_) => {
                // Delivery already happened at the subplan root; submit
                // adds the uniform communication cost.
                let child = ctx.child(0);
                let latency = ctx.param_or("MsgLatency", 100.0);
                let per_byte = ctx.param_or("PerByte", 0.001);
                (
                    child.time_first + latency,
                    child.total_time + latency + child.total_size * per_byte,
                )
            }
        };
        let tn = ((tt - tf) / count.max(1.0)).max(0.0);
        Some((tf, tn, tt))
    }
}

/// A child's work without its per-object delivery term: when the child
/// feeds its parent inside the same source, objects are handed off at CPU
/// cost and only the parent's own result is delivered.
fn internal_time(ctx: &NativeCtx<'_>, child: &crate::cost::NodeCost) -> f64 {
    let output = ctx.param_or("Output", 9.0);
    (child.total_time - child.count_object * output).max(0.0)
}

impl NativeFormula for GenericModel {
    fn provides(&self) -> &[CostVar] {
        &ALL_VARS
    }

    fn eval(&self, var: CostVar, ctx: &NativeCtx<'_>) -> Option<f64> {
        // Honor blending: values already computed for this node (possibly
        // by more specific wrapper rules) feed the remaining formulas.
        let count = ctx
            .partial
            .get(CostVar::CountObject)
            .or_else(|| self.count(ctx))?;
        match var {
            CostVar::CountObject => Some(count),
            CostVar::TotalSize => self.size(ctx, count),
            CostVar::TimeFirst => self.times(ctx, count).map(|t| t.0),
            CostVar::TimeNext => self.times(ctx, count).map(|t| t.1),
            CostVar::TotalTime => self.times(ctx, count).map(|t| t.2),
        }
    }

    fn name(&self) -> &str {
        "generic"
    }
}

/// Local-scope model: the mediator's own in-memory combination operators.
///
/// No page I/O, no per-object delivery cost — just CPU over materialized
/// subanswers, with a hash join as the default equi-join algorithm.
#[derive(Debug)]
pub struct LocalModel {
    pub op: OperatorKind,
}

impl NativeFormula for LocalModel {
    fn provides(&self) -> &[CostVar] {
        &ALL_VARS
    }

    fn eval(&self, var: CostVar, ctx: &NativeCtx<'_>) -> Option<f64> {
        // Cardinalities and sizes follow the generic model.
        let generic = GenericModel { op: self.op };
        let count = ctx
            .partial
            .get(CostVar::CountObject)
            .or_else(|| generic.count(ctx))?;
        match var {
            CostVar::CountObject => return Some(count),
            CostVar::TotalSize => return generic.size(ctx, count),
            _ => {}
        }
        let cpu = ctx.param_or("CpuHash", 0.02);
        let cpu_pred = ctx.param_or("CpuPred", 0.05);
        let (tf, tt) = match ctx.node.payload() {
            Payload::Select(_) | Payload::Project(_) => {
                let c = ctx.child(0);
                (
                    c.time_first + cpu_pred,
                    c.total_time + c.count_object * cpu_pred,
                )
            }
            Payload::Sort(_) => {
                let c = ctx.child(0);
                let tt = c.total_time + sort_cost(ctx, c.count_object);
                (tt, tt)
            }
            Payload::Join(..) => {
                // Hash join: build on the smaller input, probe the larger.
                let (l, r) = (ctx.child(0), ctx.child(1));
                let build = l.count_object.min(r.count_object);
                let probe = l.count_object.max(r.count_object);
                let tt = l.total_time + r.total_time + (build + probe) * cpu + count * cpu;
                (l.time_first + r.time_first, tt)
            }
            Payload::Union => {
                let (l, r) = (ctx.child(0), ctx.child(1));
                (l.time_first.min(r.time_first), l.total_time + r.total_time)
            }
            Payload::Dedup | Payload::Aggregate(..) => {
                let c = ctx.child(0);
                (c.time_first + cpu, c.total_time + c.count_object * cpu)
            }
            // Scan/submit are not mediator-local operators.
            _ => return None,
        };
        let tn = ((tt - tf) / count.max(1.0)).max(0.0);
        Some(match var {
            CostVar::TimeFirst => tf,
            CostVar::TimeNext => tn,
            CostVar::TotalTime => tt,
            _ => unreachable!("size vars handled above"),
        })
    }

    fn name(&self) -> &str {
        "local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NodeCost;
    use crate::estimator::Estimator;
    use disco_algebra::{LogicalPlan, PlanBuilder};
    use disco_catalog::{AttributeStats, Capabilities, Catalog, CollectionStats, ExtentStats};
    use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};

    /// A catalog with the paper's OO7 AtomicParts profile: 70 000 objects
    /// of 56 bytes (≈1000 pages at 4 KiB 96% fill → we register the raw
    /// sizes and let page counts derive).
    fn oo7_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_wrapper("oo7", Capabilities::full()).unwrap();
        let stats = CollectionStats::new(ExtentStats {
            count_object: 70_000,
            total_size: 4_096_000, // 1000 pages exactly
            object_size: 56,
            count_page: None,
        })
        .with_attribute(
            "Id",
            AttributeStats::indexed(70_000, Value::Long(0), Value::Long(69_999)),
        )
        .with_attribute(
            "BuildDate",
            AttributeStats::new(1_000, Value::Long(0), Value::Long(999)),
        );
        c.register_collection(
            "oo7",
            "AtomicParts",
            Schema::new(vec![
                AttributeDef::new("Id", DataType::Long),
                AttributeDef::new("BuildDate", DataType::Long),
            ]),
            stats,
        )
        .unwrap();
        c
    }

    fn atomic_parts() -> PlanBuilder {
        PlanBuilder::scan(
            QualifiedName::new("oo7", "AtomicParts"),
            Schema::new(vec![
                AttributeDef::new("Id", DataType::Long),
                AttributeDef::new("BuildDate", DataType::Long),
            ]),
        )
    }

    fn estimate(plan: &LogicalPlan) -> NodeCost {
        let reg = RuleRegistry::with_default_model();
        let cat = oo7_catalog();
        Estimator::new(&reg, &cat).estimate(plan).unwrap()
    }

    #[test]
    fn scan_cost_is_pages_plus_output() {
        let c = estimate(&atomic_parts().build());
        assert_eq!(c.count_object, 70_000.0);
        assert_eq!(c.total_size, 4_096_000.0);
        // Overhead + 1000*IO + 70000*(CpuScan + Output)
        //   = 120 + 25000 + 700 + 630000.
        assert!((c.total_time - 655_820.0).abs() < 1e-6, "{c}");
        assert_eq!(c.time_first, 120.0);
    }

    #[test]
    fn indexed_selection_uses_linear_calibrated_formula() {
        // Id <= 6999 -> selectivity 0.1 by interpolation, k = 7000.
        let plan = atomic_parts()
            .select("Id", disco_algebra::CompareOp::Le, 6_999i64)
            .build();
        let c = estimate(&plan);
        let sel = 6_999.0 / 69_999.0;
        let k = 70_000.0 * sel;
        assert!((c.count_object - k).abs() < 1.0, "{c}");
        // Overhead + k * (IO + Output).
        let expected = 120.0 + k * 34.0;
        assert!(
            (c.total_time - expected).abs() < 40.0,
            "{} vs {expected}",
            c.total_time
        );
    }

    #[test]
    fn unindexed_selection_pays_full_scan() {
        let plan = atomic_parts()
            .select("BuildDate", disco_algebra::CompareOp::Eq, 5i64)
            .build();
        let c = estimate(&plan);
        // 1/CountDistinct(BuildDate) = 1/1000 selectivity.
        assert!((c.count_object - 70.0).abs() < 1e-6);
        // Internal scan work (no delivery) + per-object predicate CPU +
        // delivery of the 70 qualifying objects:
        // 120 + 25000 + 700 + 3500 + 630.
        assert!((c.total_time - 29_950.0).abs() < 1e-6, "{c}");
    }

    #[test]
    fn join_picks_cheapest_algorithm() {
        let small = atomic_parts().select("Id", disco_algebra::CompareOp::Le, 699i64);
        let plan = small.join(atomic_parts(), "Id", "Id").build();
        let c = estimate(&plan);
        // Index join must beat nested loops (which would cost ~nl*nr*cpu).
        let l_count = 70_000.0 * (699.0 / 69_999.0);
        let nested_floor = l_count * 70_000.0 * 0.05;
        assert!(c.total_time < nested_floor, "{c}");
        assert!(c.count_object > 0.0);
    }

    #[test]
    fn sort_is_blocking() {
        let plan = atomic_parts().sort_asc(&["Id"]).build();
        let c = estimate(&plan);
        assert_eq!(c.time_first, c.total_time);
        assert!(c.total_time > 655_120.0);
    }

    #[test]
    fn aggregate_group_count_uses_distinct_stats() {
        let plan = atomic_parts()
            .aggregate(
                &["BuildDate"],
                vec![("n", disco_algebra::AggFunc::Count, None)],
            )
            .build();
        let c = estimate(&plan);
        assert_eq!(c.count_object, 1_000.0);
    }

    #[test]
    fn global_aggregate_returns_one_row() {
        let plan = atomic_parts()
            .aggregate(&[], vec![("n", disco_algebra::AggFunc::Count, None)])
            .build();
        let c = estimate(&plan);
        assert_eq!(c.count_object, 1.0);
    }

    #[test]
    fn submit_adds_uniform_communication() {
        let inner = atomic_parts().select("Id", disco_algebra::CompareOp::Le, 6_999i64);
        let submitted = inner.clone().submit("oo7").build();
        let bare = estimate(&inner.build());
        let c = estimate(&submitted);
        assert!((c.total_time - (bare.total_time + 100.0 + bare.total_size * 0.001)).abs() < 1e-6);
        assert_eq!(c.count_object, bare.count_object);
    }

    #[test]
    fn union_sums() {
        let plan = atomic_parts().union(atomic_parts()).build();
        let c = estimate(&plan);
        assert_eq!(c.count_object, 140_000.0);
    }

    #[test]
    fn projection_shrinks_size() {
        let plan = atomic_parts().project_attrs(&["Id"]).build();
        let c = estimate(&plan);
        assert_eq!(c.count_object, 70_000.0);
        assert!(c.total_size < 4_096_000.0);
    }

    #[test]
    fn dedup_halves_by_default() {
        let plan = atomic_parts().dedup().build();
        let c = estimate(&plan);
        assert_eq!(c.count_object, 35_000.0);
    }
}
