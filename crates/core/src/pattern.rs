//! Unification of rule heads against plan nodes (paper §3.3.2, §4.1).
//!
//! "In the first step, each operator submitted to a remote data source is
//! matched against the rule head patterns. If the operator name match the
//! rule head, the binding mechanism unifies each variable in the pattern
//! with a corresponding value from the operator being estimated."
//!
//! A collection term that matches the node's *input* binds to both the
//! child node (for cost-variable paths like `$C.TotalTime`) and the input's
//! base collection (for statistic paths like `$C.salary.Min`) — the paper's
//! "`c` represents the result of the scan and matches `C`".
//!
//! A node is read through a [`NodeView`], so a plan tree and a subtree
//! interned in an estimator cache are matched by the same code.

use disco_algebra::{LogicalPlan, OperatorKind, SelectPredicate};
use disco_common::{QualifiedName, Value};
use disco_costlang::ast::{AttrTerm, CollTerm, HeadArg, PredRhs, RuleHead};
use disco_costlang::bytecode::ChildRef;

use crate::intern::{NodeView, Payload};

/// What a head variable was bound to.
#[derive(Debug, Clone, PartialEq)]
pub enum BindingValue {
    /// A collection term: the child slot it denotes (if any) and the base
    /// collection it derives from (if determinable).
    Coll {
        child: Option<ChildRef>,
        collection: Option<QualifiedName>,
    },
    /// An attribute name.
    Attr(String),
    /// A constant from the matched predicate.
    Value(Value),
    /// A whole predicate (display form), from an `AnyPred` argument.
    Pred(String),
}

/// The result of a successful head match.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Bindings {
    entries: Vec<(String, BindingValue)>,
    /// The single select conjunct the head's predicate argument matched,
    /// kept for the `selectivity($A, $V)` builtin.
    pub matched_pred: Option<SelectPredicate>,
}

impl Bindings {
    /// Look up a binding by variable name.
    pub fn get(&self, name: &str) -> Option<&BindingValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The first collection binding (the rule's primary input), if any.
    pub fn primary_coll(&self) -> Option<&BindingValue> {
        self.entries
            .iter()
            .map(|(_, v)| v)
            .find(|v| matches!(v, BindingValue::Coll { .. }))
    }

    /// These bindings, made against a selection, with what an `AnyPred`
    /// argument captured re-read from `predicate`: the bindings the same
    /// head yields against the same selection with other constants.
    pub(crate) fn rebound(&self, predicate: &disco_algebra::Predicate) -> Bindings {
        let shown = predicate.to_string();
        let entries = self
            .entries
            .iter()
            .map(|(name, value)| {
                let value = match value {
                    BindingValue::Pred(_) => BindingValue::Pred(shown.clone()),
                    other => other.clone(),
                };
                (name.clone(), value)
            })
            .collect();
        Bindings {
            entries,
            matched_pred: match predicate.conjuncts.as_slice() {
                [c] => Some(c.clone()),
                _ => None,
            },
        }
    }

    fn bind(&mut self, name: &str, value: BindingValue) -> bool {
        match self.get(name) {
            // Repeated variables must unify to equal values.
            Some(existing) => *existing == value,
            None => {
                self.entries.push((name.to_owned(), value));
                true
            }
        }
    }
}

/// Attempt to match `head` against `node`.
///
/// `declared_in` is the collection the rule was declared under (for rules
/// nested in an interface body); such rules only apply to nodes deriving
/// from that collection.
pub fn match_head(
    head: &RuleHead,
    node: &LogicalPlan,
    declared_in: Option<&str>,
) -> Option<Bindings> {
    match_node(head, &Subject::of(NodeView::of(node)), declared_in)
}

/// A node as head unification reads it: its own fields and each input's
/// base collection, read once for every rule tried against it.
pub(crate) struct Subject<'v> {
    node: NodeView<'v>,
    payload: Payload<'v>,
    bases: [Option<&'v QualifiedName>; 2],
}

impl<'v> Subject<'v> {
    pub(crate) fn of(node: NodeView<'v>) -> Self {
        Subject {
            node,
            payload: node.payload(),
            bases: [0, 1].map(|i| node.input(i).and_then(|c| c.base_collection())),
        }
    }

    pub(crate) fn kind(&self) -> OperatorKind {
        self.payload.kind()
    }
}

/// [`match_head`] over a node as the estimator reads it.
pub(crate) fn match_node(
    head: &RuleHead,
    node: &Subject<'_>,
    declared_in: Option<&str>,
) -> Option<Bindings> {
    if head.op != node.kind() {
        return None;
    }
    let mut b = Bindings::default();
    let [left, right] = node.bases;
    let input = |b: &mut Bindings| match_coll(&head.args[0], Some(ChildRef::Input), left, b);
    let both = |b: &mut Bindings| {
        match_coll(&head.args[0], Some(ChildRef::Left), left, b)
            && match_coll(&head.args[1], Some(ChildRef::Right), right, b)
    };
    let matched = match &node.payload {
        Payload::Scan { collection, .. } => {
            match_coll(&head.args[0], None, Some(&**collection), &mut b)
        }
        Payload::Select(predicate) => {
            input(&mut b) && match_select_pred(&head.args[1], predicate, &mut b)
        }
        Payload::Project(columns) => input(&mut b) && match_project(&head.args[1], columns, &mut b),
        Payload::Sort(keys) => input(&mut b) && match_sort(&head.args[1], keys, &mut b),
        Payload::Join(predicate, _) => {
            both(&mut b) && match_join_pred(&head.args[2], predicate, &mut b)
        }
        Payload::Union => both(&mut b),
        Payload::Dedup | Payload::Aggregate(..) | Payload::Submit(_) => input(&mut b),
    };
    if !matched {
        return None;
    }
    // Interface-nested rules are implicitly restricted to their collection.
    if let Some(d) = declared_in {
        if !node.node.reads(d) {
            return None;
        }
    }
    Some(b)
}

/// Whether `head` can match `node` for some value of the node's
/// constants: [`match_node`] with the right-hand side of a structured
/// selection predicate matching any value. The rest of a head (its
/// collections, attributes and comparison) reads the plan's shape, so it
/// matches for every constant or for none.
pub(crate) fn may_match_some_constant(
    head: &RuleHead,
    node: &Subject<'_>,
    declared_in: Option<&str>,
) -> bool {
    let Payload::Select(predicate) = &node.payload else {
        return match_node(head, node, declared_in).is_some();
    };
    if head.op != OperatorKind::Select
        || !match_coll(
            &head.args[0],
            Some(ChildRef::Input),
            node.bases[0],
            &mut Bindings::default(),
        )
        || declared_in.is_some_and(|d| !node.node.reads(d))
    {
        return false;
    }
    match &head.args[1] {
        HeadArg::AnyPred(_) => true,
        HeadArg::Pred { left, op, .. } => match predicate.conjuncts.as_slice() {
            [c] => {
                c.op == *op
                    && match left {
                        AttrTerm::Named(a) => *a == c.attribute,
                        AttrTerm::Var(_) => true,
                    }
            }
            _ => false,
        },
        _ => false,
    }
}

fn match_coll(
    arg: &HeadArg,
    child: Option<ChildRef>,
    collection: Option<&QualifiedName>,
    b: &mut Bindings,
) -> bool {
    let HeadArg::Coll(term) = arg else {
        return false;
    };
    match term {
        CollTerm::Named(n) => collection.is_some_and(|c| c.collection == *n),
        CollTerm::Var(v) => b.bind(
            v,
            BindingValue::Coll {
                child,
                collection: collection.cloned(),
            },
        ),
    }
}

fn match_select_pred(
    arg: &HeadArg,
    predicate: &disco_algebra::Predicate,
    b: &mut Bindings,
) -> bool {
    match arg {
        HeadArg::AnyPred(v) => {
            if predicate.conjuncts.len() == 1 {
                b.matched_pred = Some(predicate.conjuncts[0].clone());
            }
            b.bind(v, BindingValue::Pred(predicate.to_string()))
        }
        HeadArg::Pred { left, op, right } => {
            // A structured predicate pattern matches a single-conjunct
            // selection; conjunctions only match `AnyPred` rules.
            let [c] = predicate.conjuncts.as_slice() else {
                return false;
            };
            if c.op != *op {
                return false;
            }
            let left_ok = match left {
                AttrTerm::Named(a) => *a == c.attribute,
                AttrTerm::Var(v) => b.bind(v, BindingValue::Attr(c.attribute.clone())),
            };
            if !left_ok {
                return false;
            }
            let right_ok = match right {
                PredRhs::Const(v) => values_equal(v, &c.value),
                // An unquoted identifier in a select pattern is a string
                // constant (`select(Emp, name = Adiba)`).
                PredRhs::Ident(s) => c.value.as_str() == Some(s.as_str()),
                PredRhs::Var(v) => b.bind(v, BindingValue::Value(c.value.clone())),
            };
            if right_ok {
                b.matched_pred = Some(c.clone());
            }
            right_ok
        }
        _ => false,
    }
}

fn match_project(
    arg: &HeadArg,
    columns: &[(String, disco_algebra::ScalarExpr)],
    b: &mut Bindings,
) -> bool {
    match arg {
        HeadArg::AnyPred(v) => {
            let names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
            b.bind(v, BindingValue::Pred(names.join(", ")))
        }
        HeadArg::AttrList(list) => {
            if list.len() != columns.len() {
                return false;
            }
            // Set equality on output names: projection lists are unordered
            // from a costing perspective.
            list.iter().all(|a| columns.iter().any(|(n, _)| n == a))
        }
        _ => false,
    }
}

fn match_sort(arg: &HeadArg, keys: &[(String, bool)], b: &mut Bindings) -> bool {
    let Some((first, _)) = keys.first() else {
        return false;
    };
    match arg {
        HeadArg::Attr(AttrTerm::Named(a)) => a == first,
        HeadArg::Attr(AttrTerm::Var(v)) => b.bind(v, BindingValue::Attr(first.clone())),
        _ => false,
    }
}

fn match_join_pred(
    arg: &HeadArg,
    predicate: &disco_algebra::JoinPredicate,
    b: &mut Bindings,
) -> bool {
    match arg {
        HeadArg::AnyPred(v) => b.bind(v, BindingValue::Pred(predicate.to_string())),
        HeadArg::Pred { left, op, right } => {
            if *op != predicate.op {
                return false;
            }
            let left_ok = match left {
                AttrTerm::Named(a) => *a == predicate.left_attr,
                AttrTerm::Var(v) => b.bind(v, BindingValue::Attr(predicate.left_attr.clone())),
            };
            if !left_ok {
                return false;
            }
            match right {
                // In a join pattern the right-hand side names an attribute.
                PredRhs::Ident(a) => *a == predicate.right_attr,
                PredRhs::Var(v) => b.bind(v, BindingValue::Attr(predicate.right_attr.clone())),
                PredRhs::Const(_) => false,
            }
        }
        _ => false,
    }
}

/// Constant equality for head matching: numeric values compare across
/// `Long`/`Double`.
fn values_equal(a: &Value, b: &Value) -> bool {
    matches!(a.partial_cmp_value(b), Some(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{AttributeDef, DataType, Schema};
    use disco_costlang::parse_document;

    fn head(src: &str) -> RuleHead {
        parse_document(&format!("rule {src} {{ TotalTime = 1; }}"))
            .unwrap()
            .rules[0]
            .head
            .clone()
    }

    fn emp() -> PlanBuilder {
        PlanBuilder::scan(
            QualifiedName::new("hr", "Employee"),
            Schema::new(vec![
                AttributeDef::new("id", DataType::Long),
                AttributeDef::new("salary", DataType::Long),
            ]),
        )
    }

    #[test]
    fn scan_matching() {
        let node = emp().build();
        assert!(match_head(&head("scan(Employee)"), &node, None).is_some());
        assert!(match_head(&head("scan(Book)"), &node, None).is_none());
        let b = match_head(&head("scan($C)"), &node, None).unwrap();
        match b.get("C").unwrap() {
            BindingValue::Coll {
                child: None,
                collection: Some(q),
            } => {
                assert_eq!(q.collection, "Employee");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_predicate_matching_levels() {
        let node = emp().select("salary", CompareOp::Eq, 77i64).build();
        // All four §4.1 levels match this node.
        assert!(match_head(&head("select($R, $P)"), &node, None).is_some());
        assert!(match_head(&head("select(Employee, $P)"), &node, None).is_some());
        let b = match_head(&head("select(Employee, salary = $V)"), &node, None).unwrap();
        assert_eq!(b.get("V"), Some(&BindingValue::Value(Value::Long(77))));
        assert!(match_head(&head("select(Employee, salary = 77)"), &node, None).is_some());
        // And mismatches don't.
        assert!(match_head(&head("select(Employee, salary = 78)"), &node, None).is_none());
        assert!(match_head(&head("select(Employee, name = $V)"), &node, None).is_none());
        assert!(match_head(&head("select(Employee, salary < $V)"), &node, None).is_none());
    }

    #[test]
    fn select_binds_child_and_collection() {
        let node = emp().select("salary", CompareOp::Gt, 10i64).build();
        let b = match_head(&head("select($C, $A = $V)"), &node, None);
        // Operator is Gt, pattern demands Eq.
        assert!(b.is_none());
        let b = match_head(&head("select($C, $A > $V)"), &node, None).unwrap();
        assert_eq!(b.get("A"), Some(&BindingValue::Attr("salary".into())));
        match b.get("C").unwrap() {
            BindingValue::Coll {
                child: Some(ChildRef::Input),
                collection: Some(q),
            } => {
                assert_eq!(q.collection, "Employee");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(b.matched_pred.as_ref().unwrap().attribute, "salary");
    }

    #[test]
    fn conjunctions_only_match_anypred() {
        let node = emp()
            .select_pred(disco_algebra::Predicate::all(vec![
                SelectPredicate::new("salary", CompareOp::Gt, Value::Long(10)),
                SelectPredicate::new("id", CompareOp::Lt, Value::Long(5)),
            ]))
            .build();
        assert!(match_head(&head("select($C, $A > $V)"), &node, None).is_none());
        let b = match_head(&head("select($C, $P)"), &node, None).unwrap();
        assert!(b.matched_pred.is_none());
        assert!(matches!(b.get("P"), Some(BindingValue::Pred(_))));
    }

    #[test]
    fn join_matching() {
        let node = emp().join(emp(), "id", "id").build();
        assert!(match_head(&head("join($R1, $R2, $P)"), &node, None).is_some());
        let b = match_head(&head("join($R1, $R2, $A1 = $A2)"), &node, None).unwrap();
        assert_eq!(b.get("A1"), Some(&BindingValue::Attr("id".into())));
        assert_eq!(b.get("A2"), Some(&BindingValue::Attr("id".into())));
        assert!(match_head(&head("join(Employee, Employee, id = id)"), &node, None).is_some());
        assert!(match_head(&head("join(Employee, Book, id = id)"), &node, None).is_none());
        assert!(match_head(&head("join(Employee, Employee, id = other)"), &node, None).is_none());
    }

    #[test]
    fn repeated_variables_must_unify() {
        let node = emp().join(emp(), "id", "id").build();
        // Same variable for both attributes: binds to "id" twice — fine.
        assert!(match_head(&head("join($R1, $R2, $A = $A)"), &node, None).is_some());
        let node2 = emp().join(emp(), "id", "salary").build();
        assert!(match_head(&head("join($R1, $R2, $A = $A)"), &node2, None).is_none());
    }

    #[test]
    fn project_matching() {
        let node = emp().project_attrs(&["salary", "id"]).build();
        assert!(match_head(&head("project($C, [id, salary])"), &node, None).is_some());
        assert!(match_head(&head("project($C, [id])"), &node, None).is_none());
        assert!(match_head(&head("project($C, $P)"), &node, None).is_some());
    }

    #[test]
    fn sort_matching() {
        let node = emp().sort_asc(&["salary", "id"]).build();
        assert!(match_head(&head("sort($C, salary)"), &node, None).is_some());
        assert!(match_head(&head("sort($C, id)"), &node, None).is_none());
        let b = match_head(&head("sort($C, $A)"), &node, None).unwrap();
        assert_eq!(b.get("A"), Some(&BindingValue::Attr("salary".into())));
    }

    #[test]
    fn declared_in_restricts_collection() {
        let node = emp().select("salary", CompareOp::Eq, 1i64).build();
        assert!(match_head(&head("select($C, $P)"), &node, Some("Employee")).is_some());
        assert!(match_head(&head("select($C, $P)"), &node, Some("Book")).is_none());
    }

    #[test]
    fn select_over_join_has_no_base_collection() {
        let join = emp().join(emp(), "id", "id");
        let node = join.select("salary", CompareOp::Eq, 1i64).build();
        // Named collection cannot match…
        assert!(match_head(&head("select(Employee, $P)"), &node, None).is_none());
        // …but a variable binds with no collection.
        let b = match_head(&head("select($C, $P)"), &node, None).unwrap();
        assert!(matches!(
            b.get("C"),
            Some(BindingValue::Coll {
                collection: None,
                ..
            })
        ));
    }

    #[test]
    fn numeric_constant_matching_crosses_types() {
        let node = emp().select("salary", CompareOp::Eq, 77i64).build();
        // Rule constant parses as Long(77); also check Double equivalence.
        let h = head("select(Employee, salary = 77.0)");
        assert!(match_head(&h, &node, None).is_some());
    }
}
