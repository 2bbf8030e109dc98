//! Cost-estimate explanation: which rule, from which scope, computed
//! each result variable of each node.
//!
//! This is the observable form of the paper's blending: for one plan you
//! can see `TotalTime` coming from a wrapper's predicate-scope rule while
//! `CountObject` falls back to the default scope — exactly the §4.1
//! per-variable resolution.

use std::fmt::Write as _;

use disco_costlang::CostVar;

use crate::cost::NodeCost;
use crate::scope::Scope;

/// Who computed one result variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub var: CostVar,
    /// Scope of the winning class.
    pub scope: Scope,
    /// Within-scope specificity of the winning class.
    pub specificity: u32,
    /// Printed heads of the rules that evaluated successfully in the
    /// class (more than one means min-combination applied).
    pub rules: Vec<String>,
    /// The value assigned.
    pub value: f64,
}

/// Explanation for one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Operator description (`select`, `scan hr.Employee`, …).
    pub operator: String,
    /// The node's final cost.
    pub cost: NodeCost,
    /// Per-variable attributions, in evaluation order.
    pub attributions: Vec<Attribution>,
    /// Explanations of the children that were actually estimated (the
    /// §4.2 cut-off removes the others).
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// The attribution of one variable.
    pub fn attribution(&self, var: CostVar) -> Option<&Attribution> {
        self.attributions.iter().find(|a| a.var == var)
    }

    /// Indented rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}  [{}]", self.operator, self.cost);
        for a in &self.attributions {
            let rules = if a.rules.len() == 1 {
                a.rules[0].clone()
            } else {
                format!("min of {} rules: {}", a.rules.len(), a.rules.join(" | "))
            };
            let _ = writeln!(
                out,
                "{pad}  {:<12} = {:>14.3}  ({} scope, {})",
                a.var.name(),
                a.value,
                a.scope.name(),
                rules
            );
        }
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(total_time: f64, rows: f64) -> NodeCost {
        NodeCost {
            time_first: 1.0,
            time_next: 0.1,
            total_time,
            count_object: rows,
            total_size: rows * 10.0,
        }
    }

    fn attr(var: CostVar, scope: Scope, value: f64) -> Attribution {
        Attribution {
            var,
            scope,
            specificity: 0,
            rules: vec!["r".into()],
            value,
        }
    }

    fn explain_leaf(op: &str, total_time: f64, rows: f64, scope: Scope) -> ExplainNode {
        ExplainNode {
            operator: op.into(),
            cost: cost(total_time, rows),
            attributions: vec![
                attr(CostVar::TotalTime, scope, total_time),
                attr(CostVar::CountObject, scope, rows),
            ],
            children: Vec::new(),
        }
    }

    #[test]
    fn relative_error_semantics() {
        let e = relative_error(110.0, 100.0).unwrap();
        assert!((e - 0.1).abs() < 1e-12, "{e}");
        assert_eq!(relative_error(50.0, 100.0), Some(-0.5));
        assert_eq!(relative_error(0.0, 0.0), Some(0.0));
        assert_eq!(relative_error(5.0, 0.0), None);
    }

    #[test]
    fn zip_pairs_matching_trees() {
        let predicted = ExplainNode {
            children: vec![explain_leaf("scan a", 10.0, 100.0, Scope::Collection)],
            ..explain_leaf("select", 20.0, 50.0, Scope::Predicate)
        };
        let measured = MeasuredNode {
            operator: "select".into(),
            rows: 40,
            elapsed_ms: 25.0,
            failed: false,
            pages: None,
            first_row_ms: None,
            children: vec![MeasuredNode {
                operator: "scan a".into(),
                rows: 100,
                elapsed_ms: 9.0,
                failed: false,
                pages: None,
                first_row_ms: None,
                children: Vec::new(),
            }],
        };
        let a = AnalyzeNode::zip(&predicted, &measured);
        assert_eq!(a.scope(), Some(Scope::Predicate));
        assert_eq!(a.measured.unwrap().rows, 40);
        assert_eq!(a.cardinality_error(), Some(0.25));
        assert_eq!(a.time_error(), Some(-0.2));
        assert_eq!(a.children.len(), 1);
        assert_eq!(a.children[0].scope(), Some(Scope::Collection));
        assert_eq!(a.nodes().len(), 2);
        let text = a.render();
        assert!(text.contains("predicted:"), "{text}");
        assert!(text.contains("measured:"), "{text}");
        assert!(text.contains("scope: time=predicate"), "{text}");
    }

    #[test]
    fn zip_keeps_wrapper_side_subtree_predicted_only() {
        // Execution sees submit as a leaf; prediction prices its subtree.
        let predicted = ExplainNode {
            children: vec![ExplainNode {
                children: vec![explain_leaf("scan a", 5.0, 100.0, Scope::Wrapper)],
                ..explain_leaf("select", 8.0, 10.0, Scope::Query)
            }],
            ..explain_leaf("submit hr", 30.0, 10.0, Scope::Wrapper)
        };
        let measured = MeasuredNode {
            operator: "submit hr".into(),
            rows: 10,
            elapsed_ms: 28.0,
            failed: false,
            pages: Some(12),
            first_row_ms: Some(2.0),
            children: Vec::new(),
        };
        let mut a = AnalyzeNode::zip(&predicted, &measured);
        assert!(a.measured.is_some());
        // Page I/O line appears once a prediction is filled in.
        assert_eq!(a.pages_error(), None, "no prediction yet");
        a.predicted_pages = Some(15.0);
        let e = a.pages_error().unwrap();
        assert!((e - 0.25).abs() < 1e-12, "{e}");
        assert!(a.render().contains("page io:"), "{}", a.render());
        assert!(a.render().contains("measured=12"), "{}", a.render());
        // TimeFirst 1.0 predicted vs 2.0 measured: −50%.
        assert_eq!(a.first_row_error(), Some(-0.5));
        assert!(a.render().contains("time to first:"), "{}", a.render());
        assert!(a.render().contains("measured=2.0ms"), "{}", a.render());
        assert_eq!(a.children.len(), 1);
        let wrapper_side = &a.children[0];
        assert!(wrapper_side.measured.is_none());
        assert_eq!(wrapper_side.scope(), Some(Scope::Query));
        assert!(wrapper_side.children[0].measured.is_none());
        assert!(a.render().contains("predicted only"), "{}", a.render());
    }
}

/// What instrumented execution measured for one plan node.
///
/// Built by the executor; paired with the predicted [`ExplainNode`] tree
/// by [`AnalyzeNode::zip`]. Times are cumulative over the node's subtree
/// (the same convention as [`NodeCost::total_time`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredNode {
    /// Operator description as executed.
    pub operator: String,
    /// Rows the node actually produced.
    pub rows: u64,
    /// Measured wall/virtual milliseconds for the node's subtree.
    pub elapsed_ms: f64,
    /// A submission that returned no answer (downed wrapper, partial
    /// answer mode).
    pub failed: bool,
    /// Pages the source actually read serving this node (`submit` nodes
    /// only — the wrapper reports its engine's fault count; combine-phase
    /// operators perform no page I/O and carry `None`).
    pub pages: Option<u64>,
    /// Measured time-to-first-row in simulated milliseconds (`submit`
    /// nodes only: the wrapper's `TimeFirst` plus the communication time
    /// of whatever carried the first row — the whole reply in whole-answer
    /// mode, the first stream frame in chunked mode).
    pub first_row_ms: Option<f64>,
    pub children: Vec<MeasuredNode>,
}

/// Measured facts attached to one analyze node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub rows: u64,
    pub elapsed_ms: f64,
    pub failed: bool,
    /// Measured page reads, when the node is a `submit` whose source
    /// reported them.
    pub pages: Option<u64>,
    /// Measured time-to-first-row, when the node is a `submit` (see
    /// [`MeasuredNode::first_row_ms`]).
    pub first_row_ms: Option<f64>,
}

/// One node of an EXPLAIN ANALYZE report: the predicted cost and its
/// per-variable scope attributions next to what execution measured.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeNode {
    pub operator: String,
    /// Scope-blended prediction for this node.
    pub predicted: NodeCost,
    /// Predicted page I/O for this node (Yao's `pages_touched`, scaled by
    /// the wrapper's cache regime). Filled by the mediator for `submit`
    /// nodes whose subplan reads one collection; `None` elsewhere.
    pub predicted_pages: Option<f64>,
    /// Which rule, from which scope, produced each predicted variable.
    pub attributions: Vec<Attribution>,
    /// `None` for predicted-only nodes: the wrapper-side subtree of a
    /// `submit`, which the mediator prices but never executes itself.
    pub measured: Option<Measured>,
    pub children: Vec<AnalyzeNode>,
}

/// Relative error of a prediction against a measurement:
/// `(predicted − measured) / measured`. Exactly-right is `0`; `+1.0`
/// means the prediction doubled the measurement. `None` when the
/// measurement is zero but the prediction is not (the ratio diverges);
/// both-zero is exactly right.
pub fn relative_error(predicted: f64, measured: f64) -> Option<f64> {
    if measured == 0.0 {
        return (predicted == 0.0).then_some(0.0);
    }
    Some((predicted - measured) / measured)
}

impl AnalyzeNode {
    /// Pair a predicted explain tree with a measured execution tree.
    ///
    /// The trees correspond node-for-node with one exception: execution
    /// treats `submit` as a leaf (the wrapper runs the subtree remotely)
    /// while the estimator prices the wrapper-side plan below it. Any
    /// predicted children beyond the measured ones therefore become
    /// predicted-only nodes (`measured: None`).
    pub fn zip(predicted: &ExplainNode, measured: &MeasuredNode) -> AnalyzeNode {
        let mut children: Vec<AnalyzeNode> = predicted
            .children
            .iter()
            .zip(&measured.children)
            .map(|(p, m)| AnalyzeNode::zip(p, m))
            .collect();
        for p in predicted.children.iter().skip(measured.children.len()) {
            children.push(AnalyzeNode::predicted_only(p));
        }
        AnalyzeNode {
            operator: predicted.operator.clone(),
            predicted: predicted.cost,
            predicted_pages: None,
            attributions: predicted.attributions.clone(),
            measured: Some(Measured {
                rows: measured.rows,
                elapsed_ms: measured.elapsed_ms,
                failed: measured.failed,
                pages: measured.pages,
                first_row_ms: measured.first_row_ms,
            }),
            children,
        }
    }

    fn predicted_only(predicted: &ExplainNode) -> AnalyzeNode {
        AnalyzeNode {
            operator: predicted.operator.clone(),
            predicted: predicted.cost,
            predicted_pages: None,
            attributions: predicted.attributions.clone(),
            measured: None,
            children: predicted
                .children
                .iter()
                .map(AnalyzeNode::predicted_only)
                .collect(),
        }
    }

    /// The attribution of one variable.
    pub fn attribution(&self, var: CostVar) -> Option<&Attribution> {
        self.attributions.iter().find(|a| a.var == var)
    }

    /// The scope that produced the predicted `TotalTime` — "the" scope of
    /// the node in renderings and tests.
    pub fn scope(&self) -> Option<Scope> {
        self.attribution(CostVar::TotalTime).map(|a| a.scope)
    }

    /// Relative cardinality error (predicted `CountObject` vs measured
    /// rows). `None` for predicted-only nodes or a diverging ratio.
    pub fn cardinality_error(&self) -> Option<f64> {
        let m = self.measured.as_ref()?;
        relative_error(self.predicted.count_object, m.rows as f64)
    }

    /// Relative time error (predicted `TotalTime` vs measured elapsed
    /// milliseconds). `None` for predicted-only nodes or a diverging
    /// ratio.
    pub fn time_error(&self) -> Option<f64> {
        let m = self.measured.as_ref()?;
        relative_error(self.predicted.total_time, m.elapsed_ms)
    }

    /// Relative page-I/O error (predicted Yao pages vs measured page
    /// reads). `None` unless the node carries both a page prediction and
    /// a page measurement.
    pub fn pages_error(&self) -> Option<f64> {
        let predicted = self.predicted_pages?;
        let measured = self.measured.as_ref()?.pages?;
        relative_error(predicted, measured as f64)
    }

    /// Relative time-to-first-row error (predicted `TimeFirst` vs the
    /// measured first-row time). `None` unless the node measured one
    /// (`submit` nodes).
    pub fn first_row_error(&self) -> Option<f64> {
        let measured = self.measured.as_ref()?.first_row_ms?;
        relative_error(self.predicted.time_first, measured)
    }

    /// Every node of the tree, preorder.
    pub fn nodes(&self) -> Vec<&AnalyzeNode> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.nodes());
        }
        out
    }

    /// Indented rendering: per node, predicted vs measured time and
    /// cardinality, relative errors, and the winning scope per variable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let scope_of = |var: CostVar| self.attribution(var).map_or("?", |a| a.scope.name());
        let _ = writeln!(out, "{pad}{}", self.operator);
        let _ = writeln!(
            out,
            "{pad}  predicted: time={:>12.3}ms  rows={:>10.0}  (scope: time={}, rows={})",
            self.predicted.total_time,
            self.predicted.count_object,
            scope_of(CostVar::TotalTime),
            scope_of(CostVar::CountObject),
        );
        match &self.measured {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "{pad}  measured:  time={:>12.3}ms  rows={:>10}{}",
                    m.elapsed_ms,
                    m.rows,
                    if m.failed { "  [no answer]" } else { "" },
                );
                let fmt = |e: Option<f64>| match e {
                    Some(e) => format!("{:+.1}%", e * 100.0),
                    None => "n/a".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{pad}  error:     time={:>11}  rows={:>9}",
                    fmt(self.time_error()),
                    fmt(self.cardinality_error()),
                );
                if self.predicted_pages.is_some() || m.pages.is_some() {
                    let predicted = self
                        .predicted_pages
                        .map_or("n/a".to_owned(), |p| format!("{p:.1}"));
                    let measured = m.pages.map_or("n/a".to_owned(), |p| p.to_string());
                    let _ = writeln!(
                        out,
                        "{pad}  page io:   predicted={predicted}  measured={measured}  error={}",
                        fmt(self.pages_error()),
                    );
                }
                if let Some(first) = m.first_row_ms {
                    let _ = writeln!(
                        out,
                        "{pad}  time to first: predicted={:.1}ms  measured={first:.1}ms  error={}",
                        self.predicted.time_first,
                        fmt(self.first_row_error()),
                    );
                }
            }
            None => {
                let _ = writeln!(out, "{pad}  measured:  (wrapper-side; predicted only)");
            }
        }
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}
