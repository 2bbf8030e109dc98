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
//! * **hash join, dedup and aggregate** group rows through one key
//!   table, sized once from the row count: a dense group id per distinct
//!   key, keys compared cell against cell. The join chains each key's
//!   build rows ([`HashJoinBuild`]: built once, probed per chunk) and
//!   gathers output columns by row-id pairs; dedup keeps the rows that
//!   open a group; aggregate feeds one run of accumulators per group;
//! * **sort** permutes row ids and gathers once.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use disco_algebra::logical::AggExpr;
use disco_algebra::{AggFunc, CompareOp, JoinPredicate, Predicate, ScalarExpr, SelectPredicate};
use disco_common::{
    AttributeDef, Batch, Column, ColumnBuilder, ColumnData, DataType, DiscoError, Result, Schema,
    Value, ValueRef,
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
    !a.is_null() && !b.is_null() && a.partial_cmp_ref(b).is_some_and(|ord| cmp_ord(op, ord))
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
/// once; arithmetic columns evaluate [`ScalarExpr::eval_cells`] per row
/// straight from the batch's cells, so the semantics (including error
/// cases) match the row reference exactly.
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
            // Row-major, as the row reference evaluates: the same first error.
            let cell = |i: usize| batch.value_ref(row, i);
            for ((_, e), b) in scalar_cols.iter().zip(builders.iter_mut()) {
                b.push_value(e.eval_cells(schema, &cell)?);
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

const NONE: u32 = u32::MAX;

/// One key column as the [`KeyTable`] hashes it. A dictionary column's
/// strings are hashed once per code, unless the dictionary outnumbers
/// the rows (a gathered slice of a large collection).
struct KeyCol {
    col: Arc<Column>,
    code_hashes: Vec<u64>,
}

impl KeyCol {
    /// The word a row's hash is taken over: a number's [`num_word`], a
    /// boolean, or a string's own hash. Words of different families may
    /// collide; [`same_key`] tells them apart.
    fn word(&self, row: usize, state: &RandomState) -> u64 {
        if let Some(f) = self.number(row) {
            return num_word(f);
        }
        match (self.col.value_ref(row), self.col.data()) {
            (ValueRef::Null, _) => 0,
            (ValueRef::Bool(b), _) => b as u64,
            (ValueRef::Str(_), ColumnData::Str { codes, .. }) if !self.code_hashes.is_empty() => {
                self.code_hashes[codes[row] as usize]
            }
            (ValueRef::Str(s), _) => state.hash_one(s),
            (v, _) => num_word(v.as_f64().expect("a number")),
        }
    }

    /// The cell at `row` read straight from `Long` or `Double` storage;
    /// `None` for a null or any other storage.
    fn number(&self, row: usize) -> Option<f64> {
        match self.col.data() {
            ColumnData::Long(v) if self.col.is_valid(row) => Some(v[row] as f64),
            ColumnData::Double(v) if self.col.is_valid(row) => Some(v[row]),
            _ => None,
        }
    }

    /// Whether the key at `row` equals `other`'s key at `at`, by
    /// [`same_key`]; two numeric cells compare without a `ValueRef`.
    fn same_as(&self, row: usize, other: &KeyCol, at: usize) -> bool {
        match (self.number(row), other.number(at)) {
            (Some(x), Some(y)) => num_word(x) == num_word(y),
            _ => same_key(self.col.value_ref(row), other.col.value_ref(at)),
        }
    }
}

/// Numbers key by their `f64` bits with `-0.0` folded into `0.0`:
/// `Long(2)` meets `Double(2.0)`, and a NaN meets the NaNs of its bits.
pub(crate) fn num_word(f: f64) -> u64 {
    if f == 0.0 {
        0
    } else {
        f.to_bits()
    }
}

/// Key equality of two cells on normalized values: numbers across
/// `Long`/`Double` by [`num_word`], strings by content whatever
/// dictionary holds them, and `Null` equal to `Null` only.
fn same_key(a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
    match (a, b) {
        (ValueRef::Null, ValueRef::Null) => true,
        (ValueRef::Bool(x), ValueRef::Bool(y)) => x == y,
        (ValueRef::Str(x), ValueRef::Str(y)) => x == y,
        _ => matches!((a.as_f64(), b.as_f64()), (Some(x), Some(y)) if num_word(x) == num_word(y)),
    }
}

/// The one hash table of the kernels: rows grouped by the key of one or
/// more columns, each group a dense id in order of first appearance.
/// Sized once from the row count and never grown: `head` chains each
/// bucket's groups through `next`, and `reps` holds the row that opened
/// each group, which lookups compare against. Each table seeds its own
/// hash, as wrapper data chooses the keys.
struct KeyTable {
    state: RandomState,
    head: Vec<u32>,
    next: Vec<u32>,
    reps: Vec<u32>,
}

impl KeyTable {
    /// A table for at most `rows` groups.
    fn new(rows: usize) -> Self {
        KeyTable {
            state: RandomState::new(),
            head: vec![NONE; rows.max(1).next_power_of_two()],
            next: Vec::with_capacity(rows),
            reps: Vec::with_capacity(rows),
        }
    }

    /// View `col` for hashing with this table's seed.
    fn key_col(&self, col: &Arc<Column>) -> KeyCol {
        let code_hashes = match col.data() {
            ColumnData::Str { dict, .. } if dict.len() <= col.len() => dict
                .iter()
                .map(|s| self.state.hash_one(s.as_str()))
                .collect(),
            _ => Vec::new(),
        };
        KeyCol {
            col: Arc::clone(col),
            code_hashes,
        }
    }

    /// The bucket `row`'s key hashes to, and the group in it whose key
    /// equals `keys` at `row` (`NONE` if none does), compared against the
    /// representative rows of `owner`, the key columns the table was built on.
    fn find(&self, keys: &[KeyCol], row: usize, owner: &[KeyCol]) -> (usize, u32) {
        let mut h = self.state.build_hasher();
        for k in keys {
            h.write_u64(k.word(row, &self.state));
        }
        let bucket = h.finish() as usize & (self.head.len() - 1);
        let mut g = self.head[bucket];
        while g != NONE {
            let rep = self.reps[g as usize] as usize;
            let mut pairs = keys.iter().zip(owner);
            if pairs.all(|(k, o)| k.same_as(row, o, rep)) {
                break;
            }
            g = self.next[g as usize];
        }
        (bucket, g)
    }

    /// The group of `row`, opening a new one if its key is new.
    fn group(&mut self, keys: &[KeyCol], row: usize) -> u32 {
        let (bucket, g) = self.find(keys, row, keys);
        if g != NONE {
            return g;
        }
        let g = self.reps.len() as u32;
        self.reps.push(row as u32);
        self.next.push(self.head[bucket]);
        self.head[bucket] = g;
        g
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
/// grouped by join key once, probed any number of times.
pub struct HashJoinBuild {
    right: Batch,
    left_attr: String,
    table: KeyTable,
    key: [KeyCol; 1],
    /// Build row → the next build row of its key, in insertion order;
    /// each key's chain starts at its group's representative.
    next_row: Vec<u32>,
}

impl HashJoinBuild {
    /// Group `right` on the predicate's right attribute; null keys join
    /// nothing and stay out of the table.
    pub fn new(right_schema: &Schema, right: Batch, pred: &JoinPredicate) -> Result<Self> {
        if pred.op != CompareOp::Eq {
            return Err(DiscoError::Exec(format!(
                "hash join requires an equality predicate, got `{}`",
                pred.op
            )));
        }
        let col = right.column(join_attr(right_schema, &pred.right_attr)?);
        let mut table = KeyTable::new(right.len());
        let key = [table.key_col(col)];
        let mut next_row = vec![NONE; right.len()];
        // Last row first: an earlier row of a known key becomes its
        // group's representative and heads the chain.
        for row in (0..right.len()).rev().filter(|&row| col.is_valid(row)) {
            let g = table.group(&key, row) as usize;
            if table.reps[g] != row as u32 {
                next_row[row] = std::mem::replace(&mut table.reps[g], row as u32);
            }
        }
        #[cfg(test)]
        HASH_BUILDS.with(|c| c.set(c.get() + 1));
        Ok(HashJoinBuild {
            right,
            left_attr: pred.left_attr.clone(),
            table,
            key,
            next_row,
        })
    }

    /// Join one probe (left) batch against the built side. Output rows
    /// appear in the same order as the row reference: probe order outer,
    /// build insertion order inner.
    pub fn probe(&self, left_schema: &Schema, left: &Batch) -> Result<Batch> {
        let li = join_attr(left_schema, &self.left_attr)?;
        let col = left.column(li);
        let keys = [self.table.key_col(col)];
        let mut lids: Vec<u32> = Vec::new();
        let mut rids: Vec<u32> = Vec::new();
        for row in 0..left.len() {
            // A null key equals no build key: the build left nulls out.
            let (_, g) = self.table.find(&keys, row, &self.key);
            if g == NONE {
                continue;
            }
            let mut r = self.table.reps[g as usize];
            while r != NONE {
                lids.push(row as u32);
                rids.push(r);
                r = self.next_row[r as usize];
            }
        }
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

/// Duplicate elimination, first occurrence wins: the rows that open a
/// group of the whole row's key.
pub fn dedup(batch: &Batch) -> Batch {
    let mut table = KeyTable::new(batch.len());
    let keys: Vec<KeyCol> = batch.columns().iter().map(|c| table.key_col(c)).collect();
    for row in 0..batch.len() {
        table.group(&keys, row);
    }
    observe("dedup", table.reps.len());
    batch.take(&table.reps)
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
    let agg_cols: Vec<Option<&Column>> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(arg) => schema
                .index_of(arg)
                .map(|i| Some(&**batch.column(i)))
                .ok_or_else(|| DiscoError::Exec(format!("unknown aggregate argument `{arg}`"))),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    // The row reference's accumulator, keeping its extremes as row ids.
    #[derive(Clone, Default)]
    struct Acc {
        count: u64,
        non_null: u64,
        sum: f64,
        min: Option<usize>,
        max: Option<usize>,
    }
    impl Acc {
        fn feed(&mut self, col: Option<&Column>, row: usize) {
            self.count += 1;
            let Some(col) = col else { return };
            let v = col.value_ref(row);
            if v.is_null() {
                return;
            }
            self.non_null += 1;
            if let Some(f) = v.as_f64() {
                self.sum += f;
            }
            if self
                .min
                .is_none_or(|m| v.total_cmp_ref(col.value_ref(m)).is_lt())
            {
                self.min = Some(row);
            }
            if self
                .max
                .is_none_or(|m| v.total_cmp_ref(col.value_ref(m)).is_gt())
            {
                self.max = Some(row);
            }
        }
    }

    // A global aggregate is one group, however many rows feed it.
    let mut table = KeyTable::new(if group_idx.is_empty() { 1 } else { batch.len() });
    let keys: Vec<KeyCol> = group_idx
        .iter()
        .map(|&i| table.key_col(batch.column(i)))
        .collect();
    // Group g's accumulators are `accs[g * aggs.len()..][..aggs.len()]`.
    let mut accs: Vec<Acc> = Vec::new();
    for row in 0..batch.len() {
        let g = table.group(&keys, row) as usize;
        accs.resize(table.reps.len() * aggs.len(), Acc::default());
        for (acc, col) in accs[g * aggs.len()..].iter_mut().zip(&agg_cols) {
            acc.feed(*col, row);
        }
    }
    // A global aggregate yields one row, over an empty input too.
    let groups = if group_by.is_empty() {
        1
    } else {
        table.reps.len()
    };
    accs.resize(groups * aggs.len(), Acc::default());
    let mut builders: Vec<ColumnBuilder> = (0..group_by.len() + aggs.len())
        .map(|_| ColumnBuilder::new())
        .collect();
    for g in 0..groups {
        for (pos, &i) in group_idx.iter().enumerate() {
            builders[pos].push_ref(batch.value_ref(table.reps[g] as usize, i));
        }
        let cells = aggs.iter().zip(&agg_cols);
        for ((acc, (a, col)), b) in accs[g * aggs.len()..]
            .iter()
            .zip(cells)
            .zip(builders[group_by.len()..].iter_mut())
        {
            let extreme = |row: Option<usize>| {
                row.zip(*col)
                    .map_or(ValueRef::Null, |(r, c)| c.value_ref(r))
            };
            match a.func {
                AggFunc::Count if a.arg.is_some() => b.push_long(acc.non_null as i64),
                AggFunc::Count => b.push_long(acc.count as i64),
                AggFunc::Sum | AggFunc::Avg if acc.non_null == 0 => b.push_null(),
                AggFunc::Sum => b.push_double(acc.sum),
                AggFunc::Avg => b.push_double(acc.sum / acc.non_null as f64),
                AggFunc::Min => b.push_ref(extreme(acc.min)),
                AggFunc::Max => b.push_ref(extreme(acc.max)),
            }
        }
    }
    observe("aggregate", groups);
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
    fn keys_collapse_long_and_double() {
        // 1 meets 1.0 and -0.0 meets 0.0, nulls are one key, and the
        // string "1" is not the number 1.
        let mut cells: Vec<Value> = [1, 2, 1].map(Value::Long).into();
        cells.extend([1.0, 0.0, -0.0].map(Value::Double));
        cells.extend([Value::Null, Value::Null, Value::Str("1".into())]);
        let tuples: Vec<Tuple> = cells.into_iter().map(|v| Tuple::new(vec![v])).collect();
        let row = exec::dedup(&tuples);
        let col = dedup(&Batch::from_tuples(1, &tuples));
        assert_eq!(col.to_tuples(), row);
        assert_eq!(col.len(), 5);
        // NaNs are one key when their bits are.
        let nans = [f64::NAN, f64::NAN, -f64::NAN].map(|d| Tuple::new(vec![Value::Double(d)]));
        assert_eq!(dedup(&Batch::from_tuples(1, &nans)).len(), 2);
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
