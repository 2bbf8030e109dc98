//! Vectorized operator kernels over columnar [`Batch`]es — one batch
//! in, one batch out. They are the one operator set of the system: the
//! wrappers' plan walker runs them over a source's columns, and the
//! mediator drives them chunk by chunk through the [`crate::vstream`]
//! operators.
//!
//! Their semantics are those of the row-at-a-time reference operators
//! kept under `crates/sources/tests/support/exec.rs` (same error
//! messages, bit-identical results in the same order), which the unit
//! tests below and `tests/batch_equivalence.rs` hold them to. They work
//! column-major:
//!
//! * **select** builds a selection vector (surviving row ids) per
//!   conjunct, with type-specialized loops for numeric, dictionary
//!   string, and boolean columns, then gathers once;
//! * **project** re-slices attribute columns (an `Arc` clone per
//!   column), computing only constant and arithmetic columns;
//! * **hash join** builds on the key column (hashing normalized keys,
//!   not formatted strings) into a table that owns its keys
//!   ([`HashJoinBuild`]: built once, probed per chunk) and emits row-id
//!   pairs, gathering output columns instead of cloning rows;
//! * **aggregate / dedup** group on structured `Key` vectors, so no
//!   string content can merge two groups;
//! * **sort** permutes row ids and gathers once.

use std::collections::HashMap;
use std::sync::Arc;

use disco_algebra::logical::AggExpr;
use disco_algebra::{AggFunc, CompareOp, JoinPredicate, Predicate, ScalarExpr, SelectPredicate};
use disco_common::{
    AttributeDef, Batch, Column, ColumnBuilder, ColumnData, DataType, DiscoError, Key, Result,
    Schema, Value, ValueRef,
};

/// Record one operator's output in the global metrics registry
/// (`vexec_rows_total` / `vexec_batches_total`, labelled by operator).
/// Per-batch, not per-row, so the hot loops stay untouched.
fn observe(op: &str, rows: usize) {
    if disco_obs::enabled() {
        let labels = [("op", op)];
        disco_obs::counter(disco_obs::names::VEXEC_ROWS, &labels).add(rows as u64);
        disco_obs::counter(disco_obs::names::VEXEC_BATCHES, &labels).inc();
    }
}

/// Mirror of [`CompareOp::eval`] on borrowed cell views: nulls fail,
/// cross-family comparisons fail, numbers compare across `Long`/`Double`.
fn cmp_ref(op: CompareOp, a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
    if a.is_null() || b.is_null() {
        return false;
    }
    match a.partial_cmp_ref(b) {
        Some(ord) => match op {
            CompareOp::Eq => ord.is_eq(),
            CompareOp::Ne => ord.is_ne(),
            CompareOp::Lt => ord.is_lt(),
            CompareOp::Le => ord.is_le(),
            CompareOp::Gt => ord.is_gt(),
            CompareOp::Ge => ord.is_ge(),
        },
        None => false,
    }
}

fn cmp_ord(op: CompareOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CompareOp::Eq => ord.is_eq(),
        CompareOp::Ne => ord.is_ne(),
        CompareOp::Lt => ord.is_lt(),
        CompareOp::Le => ord.is_le(),
        CompareOp::Gt => ord.is_gt(),
        CompareOp::Ge => ord.is_ge(),
    }
}

/// Rows of `col` (restricted to `sel`) that satisfy `conjunct`.
fn apply_conjunct(col: &Column, conjunct: &SelectPredicate, sel: &[u32]) -> Vec<u32> {
    let op = conjunct.op;
    let valid = |row: u32| col.is_valid(row as usize);
    match (col.data(), &conjunct.value) {
        // Numeric column vs numeric constant: compare in f64, exactly as
        // Value::partial_cmp_value does for every numeric pair.
        (ColumnData::Long(data), c) if c.as_f64().is_some() => {
            let b = c.as_f64().expect("numeric");
            sel.iter()
                .copied()
                .filter(|&row| {
                    valid(row)
                        && (data[row as usize] as f64)
                            .partial_cmp(&b)
                            .is_some_and(|ord| cmp_ord(op, ord))
                })
                .collect()
        }
        (ColumnData::Double(data), c) if c.as_f64().is_some() => {
            let b = c.as_f64().expect("numeric");
            sel.iter()
                .copied()
                .filter(|&row| {
                    valid(row)
                        && data[row as usize]
                            .partial_cmp(&b)
                            .is_some_and(|ord| cmp_ord(op, ord))
                })
                .collect()
        }
        // Dictionary column vs string constant: decide once per distinct
        // string, then test codes.
        (ColumnData::Str { dict, codes }, Value::Str(s)) => {
            let pass: Vec<bool> = dict
                .iter()
                .map(|d| cmp_ord(op, d.as_str().cmp(s)))
                .collect();
            sel.iter()
                .copied()
                .filter(|&row| valid(row) && pass[codes[row as usize] as usize])
                .collect()
        }
        (ColumnData::Bool(data), Value::Bool(b)) => sel
            .iter()
            .copied()
            .filter(|&row| valid(row) && cmp_ord(op, data[row as usize].cmp(b)))
            .collect(),
        // Fallback (mixed columns, cross-family constants, null
        // constants): per-row mirror of CompareOp::eval.
        _ => {
            let c = ValueRef::from_value(&conjunct.value);
            sel.iter()
                .copied()
                .filter(|&row| cmp_ref(op, col.value_ref(row as usize), c))
                .collect()
        }
    }
}

/// Filter a batch by a conjunctive predicate.
pub fn filter(schema: &Schema, batch: &Batch, pred: &Predicate) -> Result<Batch> {
    let resolved: Vec<(usize, &SelectPredicate)> = pred
        .conjuncts
        .iter()
        .map(|c| {
            schema
                .index_of(&c.attribute)
                .map(|i| (i, c))
                .ok_or_else(|| DiscoError::Exec(format!("unknown attribute `{}`", c.attribute)))
        })
        .collect::<Result<_>>()?;
    if resolved.is_empty() {
        observe("filter", batch.len());
        return Ok(batch.clone());
    }
    let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
    for (i, c) in resolved {
        if sel.is_empty() {
            break;
        }
        sel = apply_conjunct(batch.column(i), c, &sel);
    }
    observe("filter", sel.len());
    Ok(batch.take(&sel))
}

/// Project a batch to named expressions.
///
/// Attribute columns are `Arc` re-slices; constant columns are built
/// once; arithmetic columns evaluate [`ScalarExpr`] per row against a
/// materialized scratch tuple so the semantics (including error cases)
/// match the row reference exactly.
pub fn project(
    schema: &Schema,
    batch: &Batch,
    columns: &[(String, ScalarExpr)],
) -> Result<(Schema, Batch)> {
    let out_schema = project_schema(schema, columns);
    if batch.is_empty() {
        // The row reference evaluates nothing on empty input, so unknown
        // attributes are not an error here either.
        return Ok((out_schema, Batch::empty(columns.len())));
    }
    let mut out: Vec<Option<Arc<Column>>> = vec![None; columns.len()];
    let mut scalar_cols: Vec<(usize, &ScalarExpr)> = Vec::new();
    for (pos, (_, e)) in columns.iter().enumerate() {
        match e {
            ScalarExpr::Attr(a) => {
                let i = schema
                    .index_of(a)
                    .ok_or_else(|| DiscoError::Exec(format!("unknown attribute `{a}`")))?;
                out[pos] = Some(Arc::clone(batch.column(i)));
            }
            ScalarExpr::Const(v) => {
                let mut b = ColumnBuilder::new();
                for _ in 0..batch.len() {
                    b.push_ref(ValueRef::from_value(v));
                }
                out[pos] = Some(Arc::new(b.finish()));
            }
            ScalarExpr::Binary { .. } => scalar_cols.push((pos, e)),
        }
    }
    if !scalar_cols.is_empty() {
        let mut builders: Vec<ColumnBuilder> =
            scalar_cols.iter().map(|_| ColumnBuilder::new()).collect();
        for row in 0..batch.len() {
            // One scratch tuple serves every arithmetic column of the row.
            let t = batch.tuple_at(row);
            for ((_, e), b) in scalar_cols.iter().zip(builders.iter_mut()) {
                b.push_value(e.eval(schema, &t)?);
            }
        }
        for ((pos, _), b) in scalar_cols.iter().zip(builders) {
            out[*pos] = Some(Arc::new(b.finish()));
        }
    }
    let columns = out
        .into_iter()
        .map(|c| c.expect("all positions filled"))
        .collect();
    observe("project", batch.len());
    Ok((out_schema, Batch::from_columns(columns)?))
}

/// Output schema of a projection: type inference on a representative
/// plan node.
pub fn project_schema(schema: &Schema, columns: &[(String, ScalarExpr)]) -> Schema {
    let attrs = columns
        .iter()
        .map(|(name, e)| {
            let ty = match e {
                ScalarExpr::Attr(a) => schema.attribute(a).map(|d| d.ty).unwrap_or(DataType::Str),
                ScalarExpr::Const(v) => v.data_type().unwrap_or(DataType::Str),
                ScalarExpr::Binary { .. } => DataType::Double,
            };
            AttributeDef::new(name.clone(), ty)
        })
        .collect();
    Schema::new(attrs)
}

/// Key column view used by the joins: precomputes dictionary keys so
/// hashing a dictionary column touches only codes.
fn keys_of(col: &Column) -> Vec<Option<Key<'_>>> {
    match col.data() {
        ColumnData::Str { dict, codes } => {
            let per_code: Vec<Key<'_>> = dict.iter().map(|s| Key::Str(s.as_str())).collect();
            codes
                .iter()
                .enumerate()
                .map(|(row, &c)| {
                    if col.is_valid(row) {
                        Some(per_code[c as usize])
                    } else {
                        None
                    }
                })
                .collect()
        }
        ColumnData::Long(data) => data
            .iter()
            .enumerate()
            .map(|(row, &n)| {
                if col.is_valid(row) {
                    Some(Key::num(n as f64))
                } else {
                    None
                }
            })
            .collect(),
        ColumnData::Double(data) => data
            .iter()
            .enumerate()
            .map(|(row, &d)| {
                if col.is_valid(row) {
                    Some(Key::num(d))
                } else {
                    None
                }
            })
            .collect(),
        _ => (0..col.len()).map(|row| col.key_at(row)).collect(),
    }
}

/// Owned counterpart of [`Key`] for a hash table that outlives the
/// batch it was read from: strings are interned by the build side, so a
/// probe string the build never saw has no key at all.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum JoinKey {
    Num(u64),
    Bool(bool),
    Str(u32),
}

/// Call `f(row, key)` for every non-null row of `col`, in row order.
/// `intern` maps a string to its id on the build side (`None` on the
/// probe side means "cannot match", and the row is skipped). Dictionary
/// columns resolve each distinct string once.
fn for_each_join_key(
    col: &Column,
    mut intern: impl FnMut(&str) -> Option<u32>,
    mut f: impl FnMut(u32, JoinKey),
) {
    let mut owned = |k: Key<'_>| match k {
        Key::Num(n) => Some(JoinKey::Num(n)),
        Key::Bool(b) => Some(JoinKey::Bool(b)),
        Key::Str(s) => intern(s).map(JoinKey::Str),
    };
    let mut emit = |row: usize, k: Option<JoinKey>| {
        if let Some(k) = k.filter(|_| col.is_valid(row)) {
            f(row as u32, k);
        }
    };
    match col.data() {
        ColumnData::Str { dict, codes } => {
            let per_code: Vec<Option<JoinKey>> =
                dict.iter().map(|s| owned(Key::Str(s.as_str()))).collect();
            for (row, &c) in codes.iter().enumerate() {
                emit(row, per_code[c as usize]);
            }
        }
        ColumnData::Long(data) => {
            for (row, &n) in data.iter().enumerate() {
                emit(row, owned(Key::num(n as f64)));
            }
        }
        ColumnData::Double(data) => {
            for (row, &d) in data.iter().enumerate() {
                emit(row, owned(Key::num(d)));
            }
        }
        _ => {
            for row in 0..col.len() {
                emit(row, col.key_at(row).and_then(&mut owned));
            }
        }
    }
}

/// Position of a join attribute in its side's schema.
pub(crate) fn join_attr(schema: &Schema, attr: &str) -> Result<usize> {
    schema
        .index_of(attr)
        .ok_or_else(|| DiscoError::Exec(format!("unknown join attribute `{attr}`")))
}

#[cfg(test)]
thread_local! {
    /// Hash tables built on this thread (build-once regression tests).
    pub(crate) static HASH_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The build half of a hash equi-join: the build (right) side's rows
/// hashed once on the join key, probed any number of times.
pub struct HashJoinBuild {
    right: Batch,
    left_attr: String,
    table: HashMap<JoinKey, Vec<u32>>,
    strings: HashMap<String, u32>,
}

impl HashJoinBuild {
    /// Hash `right` on the predicate's right attribute.
    pub fn new(right_schema: &Schema, right: Batch, pred: &JoinPredicate) -> Result<Self> {
        if pred.op != CompareOp::Eq {
            return Err(DiscoError::Exec(format!(
                "hash join requires an equality predicate, got `{}`",
                pred.op
            )));
        }
        let ri = join_attr(right_schema, &pred.right_attr)?;
        let mut strings: HashMap<String, u32> = HashMap::new();
        let mut table: HashMap<JoinKey, Vec<u32>> = HashMap::new();
        for_each_join_key(
            right.column(ri),
            |s| {
                if let Some(&id) = strings.get(s) {
                    return Some(id);
                }
                let id = strings.len() as u32;
                strings.insert(s.to_string(), id);
                Some(id)
            },
            |row, k| table.entry(k).or_default().push(row),
        );
        #[cfg(test)]
        HASH_BUILDS.with(|c| c.set(c.get() + 1));
        Ok(HashJoinBuild {
            right,
            left_attr: pred.left_attr.clone(),
            table,
            strings,
        })
    }

    /// Join one probe (left) batch against the built side. Output rows
    /// appear in the same order as the row reference: probe order outer,
    /// build insertion order inner.
    pub fn probe(&self, left_schema: &Schema, left: &Batch) -> Result<Batch> {
        let li = join_attr(left_schema, &self.left_attr)?;
        let mut lids: Vec<u32> = Vec::new();
        let mut rids: Vec<u32> = Vec::new();
        for_each_join_key(
            left.column(li),
            |s| self.strings.get(s).copied(),
            |row, k| {
                if let Some(matches) = self.table.get(&k) {
                    for &r in matches {
                        lids.push(row);
                        rids.push(r);
                    }
                }
            },
        );
        observe("hash_join", lids.len());
        left.take(&lids).hstack(&self.right.take(&rids))
    }
}

/// One-shot hash equi-join: build on
/// `right`, probe with `left`.
pub fn hash_join(
    left_schema: &Schema,
    left: &Batch,
    right_schema: &Schema,
    right: &Batch,
    pred: &JoinPredicate,
) -> Result<Batch> {
    HashJoinBuild::new(right_schema, right.clone(), pred)?.probe(left_schema, left)
}

/// Nested-loop join for arbitrary comparison predicates.
pub fn nested_loop_join(
    left_schema: &Schema,
    left: &Batch,
    right_schema: &Schema,
    right: &Batch,
    pred: &JoinPredicate,
) -> Result<Batch> {
    let li = join_attr(left_schema, &pred.left_attr)?;
    let ri = join_attr(right_schema, &pred.right_attr)?;
    let (lcol, rcol) = (left.column(li), right.column(ri));
    let mut lids: Vec<u32> = Vec::new();
    let mut rids: Vec<u32> = Vec::new();
    for l in 0..left.len() {
        let lv = lcol.value_ref(l);
        for r in 0..right.len() {
            if cmp_ref(pred.op, lv, rcol.value_ref(r)) {
                lids.push(l as u32);
                rids.push(r as u32);
            }
        }
    }
    observe("nested_loop_join", lids.len());
    left.take(&lids).hstack(&right.take(&rids))
}

/// Duplicate elimination, first occurrence wins.
pub fn dedup(batch: &Batch) -> Batch {
    let per_col: Vec<Vec<Option<Key<'_>>>> = batch.columns().iter().map(|c| keys_of(c)).collect();
    let mut seen: HashMap<Vec<Option<Key<'_>>>, ()> = HashMap::new();
    let mut sel: Vec<u32> = Vec::new();
    for row in 0..batch.len() {
        let key: Vec<Option<Key<'_>>> = per_col.iter().map(|c| c[row]).collect();
        if seen.insert(key, ()).is_none() {
            sel.push(row as u32);
        }
    }
    observe("dedup", sel.len());
    batch.take(&sel)
}

/// Stable multi-key sort via a row-id permutation.
pub fn sort(schema: &Schema, batch: &Batch, keys: &[(String, bool)]) -> Result<Batch> {
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|(k, asc)| {
            schema
                .index_of(k)
                .map(|i| (i, *asc))
                .ok_or_else(|| DiscoError::Exec(format!("unknown sort key `{k}`")))
        })
        .collect::<Result<_>>()?;
    let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
    sel.sort_by(|&a, &b| {
        for (i, asc) in &resolved {
            let col = batch.column(*i);
            let ord = col
                .value_ref(a as usize)
                .total_cmp_ref(col.value_ref(b as usize));
            let ord = if *asc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    observe("sort", sel.len());
    Ok(batch.take(&sel))
}

/// Group and aggregate: group keys
/// first, then aggregates, groups in first-appearance order.
pub fn aggregate(
    schema: &Schema,
    batch: &Batch,
    group_by: &[String],
    aggs: &[AggExpr],
) -> Result<Batch> {
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

    // Same accumulator as the row reference, fed from borrowed cell views.
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
        fn feed(&mut self, v: ValueRef<'_>) {
            self.count += 1;
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
                .map(|m| v.total_cmp_ref(ValueRef::from_value(m)).is_lt())
                .unwrap_or(true);
            if better_min {
                self.min = Some(v.to_value());
            }
            let better_max = self
                .max
                .as_ref()
                .map(|m| v.total_cmp_ref(ValueRef::from_value(m)).is_gt())
                .unwrap_or(true);
            if better_max {
                self.max = Some(v.to_value());
            }
        }
    }

    let group_keys: Vec<Vec<Option<Key<'_>>>> = group_idx
        .iter()
        .map(|&i| keys_of(batch.column(i)))
        .collect();
    let mut groups: HashMap<Vec<Option<Key<'_>>>, usize> = HashMap::new();
    // Per group: representative key row id + accumulators.
    let mut reps: Vec<u32> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for row in 0..batch.len() {
        let key: Vec<Option<Key<'_>>> = group_keys.iter().map(|c| c[row]).collect();
        let gid = *groups.entry(key).or_insert_with(|| {
            reps.push(row as u32);
            accs.push(vec![Acc::new(); aggs.len()]);
            accs.len() - 1
        });
        for (acc, idx) in accs[gid].iter_mut().zip(&agg_idx) {
            if let Some(i) = idx {
                acc.feed(batch.value_ref(row, *i));
            } else {
                acc.count += 1;
            }
        }
    }
    let arity = group_by.len() + aggs.len();
    if reps.is_empty() && group_by.is_empty() {
        // A global aggregate over an empty input still yields one row.
        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
        for (a, b) in aggs.iter().zip(builders.iter_mut()) {
            match a.func {
                AggFunc::Count => b.push_long(0),
                _ => b.push_null(),
            }
        }
        observe("aggregate", 1);
        return Batch::from_columns(builders.into_iter().map(|b| Arc::new(b.finish())).collect());
    }
    let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
    for (gid, &rep) in reps.iter().enumerate() {
        for (pos, &i) in group_idx.iter().enumerate() {
            builders[pos].push_ref(batch.value_ref(rep as usize, i));
        }
        for ((acc, a), b) in accs[gid]
            .iter()
            .zip(aggs)
            .zip(builders[group_by.len()..].iter_mut())
        {
            match a.func {
                AggFunc::Count => b.push_long(match a.arg {
                    Some(_) => acc.non_null as i64,
                    None => acc.count as i64,
                }),
                AggFunc::Sum => {
                    if acc.non_null == 0 {
                        b.push_null()
                    } else {
                        b.push_double(acc.sum)
                    }
                }
                AggFunc::Avg => {
                    if acc.non_null == 0 {
                        b.push_null()
                    } else {
                        b.push_double(acc.sum / acc.non_null as f64)
                    }
                }
                AggFunc::Min => match &acc.min {
                    Some(v) => b.push_ref(ValueRef::from_value(v)),
                    None => b.push_null(),
                },
                AggFunc::Max => match &acc.max {
                    Some(v) => b.push_ref(ValueRef::from_value(v)),
                    None => b.push_null(),
                },
            }
        }
    }
    observe("aggregate", reps.len());
    Batch::from_columns(builders.into_iter().map(|b| Arc::new(b.finish())).collect())
}

/// Union (row-wise concatenation); errors on arity mismatch.
pub fn union(left: &Batch, right: &Batch) -> Result<Batch> {
    observe("union", left.len() + right.len());
    Batch::concat(&[left, right])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use disco_algebra::SelectPredicate;
    use disco_common::{AttributeDef, DataType, Tuple};

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

    fn batch() -> Batch {
        Batch::from_tuples(3, &rows())
    }

    #[test]
    fn filter_matches_row_path() {
        let p = Predicate::all(vec![
            SelectPredicate::new("grp", CompareOp::Eq, Value::Long(1)),
            SelectPredicate::new("id", CompareOp::Ge, Value::Long(4)),
        ]);
        let row = exec::filter(&schema(), &rows(), &p).unwrap();
        let col = filter(&schema(), &batch(), &p).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn filter_string_and_unknown_attr() {
        let p = Predicate::single(SelectPredicate::new(
            "name",
            CompareOp::Eq,
            Value::Str("n1".into()),
        ));
        let row = exec::filter(&schema(), &rows(), &p).unwrap();
        let col = filter(&schema(), &batch(), &p).unwrap();
        assert_eq!(col.to_tuples(), row);
        let bad = Predicate::single(SelectPredicate::new("zzz", CompareOp::Eq, Value::Long(1)));
        assert!(filter(&schema(), &batch(), &bad).is_err());
    }

    #[test]
    fn project_attrs_are_reslices() {
        let cols = vec![
            ("name".to_string(), ScalarExpr::attr("name")),
            ("id".to_string(), ScalarExpr::attr("id")),
        ];
        let (rs, row) = exec::project(&schema(), &rows(), &cols).unwrap();
        let (cs, col) = project(&schema(), &batch(), &cols).unwrap();
        assert_eq!(rs, cs);
        assert_eq!(col.to_tuples(), row);
        // Attribute projection shares storage with the input batch.
        assert!(Arc::ptr_eq(col.column(1), batch().column(0)) || col.column(1).len() == 10);
    }

    #[test]
    fn project_binary_matches_row_path() {
        let cols = vec![(
            "id2".to_string(),
            ScalarExpr::Binary {
                op: disco_algebra::expr::ArithOp::Mul,
                left: Box::new(ScalarExpr::attr("id")),
                right: Box::new(ScalarExpr::constant(2i64)),
            },
        )];
        let (_, row) = exec::project(&schema(), &rows(), &cols).unwrap();
        let (_, col) = project(&schema(), &batch(), &cols).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn hash_join_matches_row_path_in_order() {
        let pred = JoinPredicate::equi("grp", "grp");
        let row = exec::hash_join(&schema(), &rows(), &schema(), &rows(), &pred).unwrap();
        let col = hash_join(&schema(), &batch(), &schema(), &batch(), &pred).unwrap();
        assert_eq!(col.to_tuples(), row);
        assert_eq!(col.len(), 34);
    }

    #[test]
    fn hash_join_rejects_non_equi_and_nulls_never_join() {
        let pred = JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Lt,
            right_attr: "id".into(),
        };
        assert!(hash_join(&schema(), &batch(), &schema(), &batch(), &pred).is_err());
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let b = Batch::from_tuples(
            1,
            &[
                Tuple::new(vec![Value::Null]),
                Tuple::new(vec![Value::Long(1)]),
            ],
        );
        let out = hash_join(&s, &b, &s, &b, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn numeric_keys_join_across_types() {
        let s = Schema::new(vec![AttributeDef::new("k", DataType::Long)]);
        let l = Batch::from_tuples(1, &[Tuple::new(vec![Value::Long(2)])]);
        let r = Batch::from_tuples(1, &[Tuple::new(vec![Value::Double(2.0)])]);
        let out = hash_join(&s, &l, &s, &r, &JoinPredicate::equi("k", "k")).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nested_loop_matches_row_path() {
        let pred = JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Lt,
            right_attr: "id".into(),
        };
        let row = exec::nested_loop_join(&schema(), &rows(), &schema(), &rows(), &pred).unwrap();
        let col = nested_loop_join(&schema(), &batch(), &schema(), &batch(), &pred).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn dedup_matches_row_path() {
        let tuples = vec![
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Long(2)]),
            Tuple::new(vec![Value::Long(1)]),
            Tuple::new(vec![Value::Double(1.0)]),
        ];
        let row = exec::dedup(&tuples);
        let col = dedup(&Batch::from_tuples(1, &tuples));
        assert_eq!(col.to_tuples(), row);
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn sort_matches_row_path() {
        let keys = [("grp".to_string(), true), ("id".to_string(), false)];
        let mut row = rows();
        exec::sort(&schema(), &mut row, &keys).unwrap();
        let col = sort(&schema(), &batch(), &keys).unwrap();
        assert_eq!(col.to_tuples(), row);
        assert!(sort(&schema(), &batch(), &[("zzz".into(), true)]).is_err());
    }

    #[test]
    fn aggregate_matches_row_path() {
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
        let row = exec::aggregate(&schema(), &rows(), &["grp".to_string()], &aggs).unwrap();
        let col = aggregate(&schema(), &batch(), &["grp".to_string()], &aggs).unwrap();
        assert_eq!(col.to_tuples(), row);
    }

    #[test]
    fn aggregate_global_empty_matches_row_path() {
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
        let empty = Batch::empty(3);
        let row = exec::aggregate(&schema(), &[], &[], &aggs).unwrap();
        let col = aggregate(&schema(), &empty, &[], &aggs).unwrap();
        assert_eq!(col.to_tuples(), row);
        // Grouped empty: no rows.
        let col = aggregate(&schema(), &empty, &["grp".to_string()], &aggs).unwrap();
        assert!(col.is_empty());
    }

    #[test]
    fn union_matches_extend() {
        let u = union(&batch(), &batch()).unwrap();
        let mut expect = rows();
        expect.extend(rows());
        assert_eq!(u.to_tuples(), expect);
        assert!(union(&batch(), &Batch::empty(2)).is_err());
    }
}
