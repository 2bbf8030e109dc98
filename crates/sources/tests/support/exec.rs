//! The row-at-a-time reference operators: plain operators over
//! materialized tuple vectors, which the columnar kernels in
//! `disco_sources::vexec` must match tuple for tuple and in order.
//!
//! This file is test support, not library code. It is compiled twice:
//! into the library's unit tests (as `crate::exec`, for the `vexec` unit
//! tests) and into `tests/batch_equivalence.rs` (as its `exec` module).
//! Both parents have `vexec` in scope, where [`project_schema`] lives.

use std::collections::{HashMap, HashSet};

use disco_algebra::logical::AggExpr;
use disco_algebra::{AggFunc, CompareOp, JoinPredicate, Predicate, ScalarExpr};
use disco_common::{DiscoError, Result, Schema, Tuple, Value};

use super::vexec::project_schema;

/// Filter tuples by a conjunctive predicate.
pub fn filter(schema: &Schema, tuples: &[Tuple], pred: &Predicate) -> Result<Vec<Tuple>> {
    // Resolve attribute positions once.
    let resolved: Vec<(usize, &disco_algebra::SelectPredicate)> = pred
        .conjuncts
        .iter()
        .map(|c| {
            schema
                .index_of(&c.attribute)
                .map(|i| (i, c))
                .ok_or_else(|| DiscoError::Exec(format!("unknown attribute `{}`", c.attribute)))
        })
        .collect::<Result<_>>()?;
    Ok(tuples
        .iter()
        .filter(|t| resolved.iter().all(|(i, c)| c.eval_at(t, *i)))
        .cloned()
        .collect())
}

/// Project tuples to named expressions, returning the output schema too.
pub fn project(
    schema: &Schema,
    tuples: &[Tuple],
    columns: &[(String, ScalarExpr)],
) -> Result<(Schema, Vec<Tuple>)> {
    let mut out = Vec::with_capacity(tuples.len());
    for t in tuples {
        let values: Vec<Value> = columns
            .iter()
            .map(|(_, e)| e.eval(schema, t))
            .collect::<Result<_>>()?;
        out.push(Tuple::new(values));
    }
    Ok((project_schema(schema, columns), out))
}

/// Sort tuples in place by `(attribute, ascending)` keys.
pub fn sort(schema: &Schema, tuples: &mut [Tuple], keys: &[(String, bool)]) -> Result<()> {
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|(k, asc)| {
            schema
                .index_of(k)
                .map(|i| (i, *asc))
                .ok_or_else(|| DiscoError::Exec(format!("unknown sort key `{k}`")))
        })
        .collect::<Result<_>>()?;
    tuples.sort_by(|a, b| {
        for (i, asc) in &resolved {
            let (x, y) = (a.get(*i), b.get(*i));
            let ord = match (x, y) {
                (Some(x), Some(y)) => x.total_cmp_value(y),
                _ => std::cmp::Ordering::Equal,
            };
            let ord = if *asc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// Normalized join/grouping key for a value: numeric values collapse
/// across `Long`/`Double`; `Null` never matches anything.
fn value_key(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(format!("b:{b}")),
        Value::Long(_) | Value::Double(_) => {
            // Normalize -0.0 to 0.0 so hashing agrees with `CompareOp::Eq`
            // (which compares numerically).
            let f = v.as_f64().expect("numeric");
            let f = if f == 0.0 { 0.0 } else { f };
            Some(format!("n:{}", f.to_bits()))
        }
        Value::Str(s) => Some(format!("s:{s}")),
    }
}

/// Position of a join attribute in its side's schema.
fn join_attr(schema: &Schema, attr: &str) -> Result<usize> {
    schema
        .index_of(attr)
        .ok_or_else(|| DiscoError::Exec(format!("unknown join attribute `{attr}`")))
}

/// Hash equi-join (only `=` predicates).
pub fn hash_join(
    left_schema: &Schema,
    left: &[Tuple],
    right_schema: &Schema,
    right: &[Tuple],
    pred: &JoinPredicate,
) -> Result<Vec<Tuple>> {
    if pred.op != CompareOp::Eq {
        return Err(DiscoError::Exec(format!(
            "hash join requires an equality predicate, got `{}`",
            pred.op
        )));
    }
    let li = join_attr(left_schema, &pred.left_attr)?;
    let ri = join_attr(right_schema, &pred.right_attr)?;
    let mut table: HashMap<String, Vec<&Tuple>> = HashMap::new();
    for r in right {
        if let Some(k) = r.get(ri).and_then(value_key) {
            table.entry(k).or_default().push(r);
        }
    }
    let mut out = Vec::new();
    for l in left {
        let Some(k) = l.get(li).and_then(value_key) else {
            continue;
        };
        if let Some(matches) = table.get(&k) {
            for r in matches {
                out.push(l.join(r));
            }
        }
    }
    Ok(out)
}

/// Nested-loop join supporting any comparison predicate.
pub fn nested_loop_join(
    left_schema: &Schema,
    left: &[Tuple],
    right_schema: &Schema,
    right: &[Tuple],
    pred: &JoinPredicate,
) -> Result<Vec<Tuple>> {
    let li = join_attr(left_schema, &pred.left_attr)?;
    let ri = join_attr(right_schema, &pred.right_attr)?;
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if let (Some(x), Some(y)) = (l.get(li), r.get(ri)) {
                if pred.op.eval(x, y) {
                    out.push(l.join(r));
                }
            }
        }
    }
    Ok(out)
}

/// Composite grouping key: one [`value_key`] per column, kept apart so
/// no string content can make two different rows collide. `NULL`s group
/// together.
fn row_key<'a>(values: impl IntoIterator<Item = &'a Value>) -> Vec<Option<String>> {
    values.into_iter().map(value_key).collect()
}

/// Duplicate elimination (first occurrence wins).
pub fn dedup(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut seen = HashSet::new();
    tuples
        .iter()
        .filter(|t| seen.insert(row_key(t.values())))
        .cloned()
        .collect()
}

/// Group and aggregate, returning the output tuples (group keys first,
/// then aggregates, matching `LogicalPlan::Aggregate`'s schema).
pub fn aggregate(
    schema: &Schema,
    tuples: &[Tuple],
    group_by: &[String],
    aggs: &[AggExpr],
) -> Result<Vec<Tuple>> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| {
            schema
                .index_of(g)
                .ok_or_else(|| DiscoError::Exec(format!("unknown group-by attribute `{g}`")))
        })
        .collect::<Result<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(arg) => schema
                .index_of(arg)
                .map(Some)
                .ok_or_else(|| DiscoError::Exec(format!("unknown aggregate argument `{arg}`"))),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    #[derive(Clone)]
    struct Acc {
        count: u64,
        sum: f64,
        min: Option<Value>,
        max: Option<Value>,
        non_null: u64,
    }
    impl Acc {
        fn new() -> Self {
            Acc {
                count: 0,
                sum: 0.0,
                min: None,
                max: None,
                non_null: 0,
            }
        }
        fn feed(&mut self, v: Option<&Value>) {
            self.count += 1;
            let Some(v) = v else { return };
            if v.is_null() {
                return;
            }
            self.non_null += 1;
            if let Some(f) = v.as_f64() {
                self.sum += f;
            }
            let better_min = self
                .min
                .as_ref()
                .map(|m| v.total_cmp_value(m).is_lt())
                .unwrap_or(true);
            if better_min {
                self.min = Some(v.clone());
            }
            let better_max = self
                .max
                .as_ref()
                .map(|m| v.total_cmp_value(m).is_gt())
                .unwrap_or(true);
            if better_max {
                self.max = Some(v.clone());
            }
        }
    }

    // Group id -> (representative key tuple, accumulators).
    let mut groups: HashMap<_, (Vec<Value>, Vec<Acc>)> = HashMap::new();
    let mut order = Vec::new();
    for t in tuples {
        let key_vals: Vec<Value> = group_idx
            .iter()
            .map(|&i| t.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        let key = row_key(&key_vals);
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (key_vals, vec![Acc::new(); aggs.len()])
        });
        for (acc, idx) in entry.1.iter_mut().zip(&agg_idx) {
            acc.feed(idx.and_then(|i| t.get(i)));
        }
    }
    // A global aggregate over an empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        let values: Vec<Value> = aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Count => Value::Long(0),
                _ => Value::Null,
            })
            .collect();
        return Ok(vec![Tuple::new(values)]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let (key_vals, accs) = groups.remove(&key).expect("group recorded");
        let mut values = key_vals;
        for (acc, a) in accs.iter().zip(aggs) {
            let v = match a.func {
                AggFunc::Count => Value::Long(match a.arg {
                    Some(_) => acc.non_null as i64,
                    None => acc.count as i64,
                }),
                AggFunc::Sum => {
                    if acc.non_null == 0 {
                        Value::Null
                    } else {
                        Value::Double(acc.sum)
                    }
                }
                AggFunc::Avg => {
                    if acc.non_null == 0 {
                        Value::Null
                    } else {
                        Value::Double(acc.sum / acc.non_null as f64)
                    }
                }
                AggFunc::Min => acc.min.clone().unwrap_or(Value::Null),
                AggFunc::Max => acc.max.clone().unwrap_or(Value::Null),
            };
            values.push(v);
        }
        out.push(Tuple::new(values));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::SelectPredicate;
    use disco_common::{AttributeDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("grp", DataType::Long),
            AttributeDef::new("name", DataType::Str),
        ])
    }

    fn rows() -> Vec<Tuple> {
        (0..10)
            .map(|i| {
                Tuple::new(vec![
                    Value::Long(i),
                    Value::Long(i % 3),
                    Value::Str(format!("n{}", i % 2)),
                ])
            })
            .collect()
    }

    #[test]
    fn filter_conjunction() {
        let p = Predicate::all(vec![
            SelectPredicate::new("grp", CompareOp::Eq, Value::Long(1)),
            SelectPredicate::new("id", CompareOp::Ge, Value::Long(4)),
        ]);
        let out = filter(&schema(), &rows(), &p).unwrap();
        let ids: Vec<i64> = out
            .iter()
            .map(|t| t.get(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![4, 7]);
    }

    #[test]
    fn filter_unknown_attr_errors() {
        let p = Predicate::single(SelectPredicate::new("zzz", CompareOp::Eq, Value::Long(1)));
        assert!(filter(&schema(), &rows(), &p).is_err());
    }

    #[test]
    fn project_expressions() {
        let cols = vec![
            (
                "id2".to_string(),
                ScalarExpr::Binary {
                    op: disco_algebra::expr::ArithOp::Mul,
                    left: Box::new(ScalarExpr::attr("id")),
                    right: Box::new(ScalarExpr::constant(2i64)),
                },
            ),
            ("name".to_string(), ScalarExpr::attr("name")),
        ];
        let (s, out) = project(&schema(), &rows(), &cols).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(out[3].get(0).unwrap().as_i64(), Some(6));
    }

    #[test]
    fn sort_multi_key() {
        let mut rs = rows();
        sort(
            &schema(),
            &mut rs,
            &[("grp".into(), true), ("id".into(), false)],
        )
        .unwrap();
        // grp ascending, id descending within group.
        assert_eq!(rs[0].get(1).unwrap().as_i64(), Some(0));
        assert_eq!(rs[0].get(0).unwrap().as_i64(), Some(9));
        assert_eq!(rs[9].get(1).unwrap().as_i64(), Some(2));
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let s = schema();
        let l = rows();
        let r = rows();
        let pred = JoinPredicate::equi("grp", "grp");
        let mut h = hash_join(&s, &l, &s, &r, &pred).unwrap();
        let mut n = nested_loop_join(&s, &l, &s, &r, &pred).unwrap();
        let key = |t: &Tuple| format!("{t}");
        h.sort_by_key(key);
        n.sort_by_key(key);
        assert_eq!(h, n);
        // 10 rows in 3 groups of sizes 4,3,3 -> 16+9+9 = 34 pairs.
        assert_eq!(h.len(), 34);
    }

    #[test]
    fn hash_join_rejects_non_equi() {
        let s = schema();
        let pred = JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Lt,
            right_attr: "id".into(),
        };
        assert!(hash_join(&s, &rows(), &s, &rows(), &pred).is_err());
        // Nested loop handles it.
        let out = nested_loop_join(&s, &rows(), &s, &rows(), &pred).unwrap();
        assert_eq!(out.len(), 45);
    }

    #[test]
    fn nulls_never_join() {
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let l = vec![
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Long(1)]),
        ];
        let r = l.clone();
        let out = hash_join(&s, &l, &s, &r, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn numeric_keys_join_across_types() {
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let l = vec![Tuple::new(vec![Value::Long(2)])];
        let r = vec![Tuple::new(vec![Value::Double(2.0)])];
        let out = hash_join(&s, &l, &s, &r, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dedup_keeps_first() {
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let _ = s;
        let tuples = vec![
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Long(2)]),
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Double(1.0)]), // equal to Long(1)
        ];
        let out = dedup(&tuples);
        assert_eq!(out.len(), 2);
    }

    /// Composite keys used to be the per-column keys joined with `|`,
    /// which made these two rows one group.
    #[test]
    fn separator_in_a_string_does_not_merge_keys() {
        let s = Schema::new(vec![
            AttributeDef::new("x", DataType::Str),
            AttributeDef::new("y", DataType::Str),
        ]);
        let tuples = vec![
            Tuple::new(vec![Value::Str("a|s:b".into()), Value::Str("c".into())]),
            Tuple::new(vec![Value::Str("a".into()), Value::Str("b|s:c".into())]),
        ];
        assert_eq!(dedup(&tuples), tuples);
        let count = AggExpr {
            name: "n".into(),
            func: AggFunc::Count,
            arg: None,
        };
        let out = aggregate(&s, &tuples, &["x".to_string(), "y".to_string()], &[count]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.get(2) == Some(&Value::Long(1))));
    }

    #[test]
    fn aggregate_grouped() {
        let aggs = vec![
            AggExpr {
                name: "n".into(),
                func: AggFunc::Count,
                arg: None,
            },
            AggExpr {
                name: "total".into(),
                func: AggFunc::Sum,
                arg: Some("id".into()),
            },
            AggExpr {
                name: "lo".into(),
                func: AggFunc::Min,
                arg: Some("id".into()),
            },
            AggExpr {
                name: "hi".into(),
                func: AggFunc::Max,
                arg: Some("id".into()),
            },
        ];
        let out = aggregate(&schema(), &rows(), &["grp".to_string()], &aggs).unwrap();
        assert_eq!(out.len(), 3);
        // Group 0: ids 0,3,6,9.
        let g0 = out
            .iter()
            .find(|t| t.get(0).unwrap().as_i64() == Some(0))
            .unwrap();
        assert_eq!(g0.get(1).unwrap().as_i64(), Some(4));
        assert_eq!(g0.get(2).unwrap().as_f64(), Some(18.0));
        assert_eq!(g0.get(3).unwrap().as_i64(), Some(0));
        assert_eq!(g0.get(4).unwrap().as_i64(), Some(9));
    }

    #[test]
    fn aggregate_global_and_empty() {
        let aggs = vec![
            AggExpr {
                name: "n".into(),
                func: AggFunc::Count,
                arg: None,
            },
            AggExpr {
                name: "avg".into(),
                func: AggFunc::Avg,
                arg: Some("id".into()),
            },
        ];
        let out = aggregate(&schema(), &rows(), &[], &aggs).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).unwrap().as_i64(), Some(10));
        assert_eq!(out[0].get(1).unwrap().as_f64(), Some(4.5));
        // Empty input, global: one row, count 0, null avg.
        let out = aggregate(&schema(), &[], &[], &aggs).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_i64(), Some(0));
        assert!(out[0].get(1).unwrap().is_null());
        // Empty input, grouped: no rows.
        let out = aggregate(&schema(), &[], &["grp".to_string()], &aggs).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn count_attr_skips_nulls() {
        let s = Schema::new(vec![AttributeDef::new("x", DataType::Long)]);
        let tuples = vec![
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Null]),
        ];
        let aggs = vec![
            AggExpr {
                name: "ns".into(),
                func: AggFunc::Count,
                arg: Some("x".into()),
            },
            AggExpr {
                name: "all".into(),
                func: AggFunc::Count,
                arg: None,
            },
        ];
        let out = aggregate(&s, &tuples, &[], &aggs).unwrap();
        assert_eq!(out[0].get(0).unwrap().as_i64(), Some(1));
        assert_eq!(out[0].get(1).unwrap().as_i64(), Some(2));
    }
}
