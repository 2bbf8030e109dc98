//! The mediator's combine operator set: pull-based streams of columnar
//! chunks over the [`crate::vexec`] kernels.
//!
//! The executor threads chunks through a tree of [`BatchStream`]s:
//! linear operators (filter, project, union pass-through, limit)
//! transform each chunk as it arrives, joins materialize only their
//! build side, and the inherently blocking operators (sort, dedup,
//! aggregate) drain their input before emitting a single output chunk.
//! A whole answer is simply a stream of one chunk, which every operator
//! passes through without copying it.
//!
//! Chunking contract: for every operator, the concatenation of its
//! output chunks is byte-identical to the one-shot `vexec` kernel over
//! the concatenation of its input chunks, in the same row order, for
//! any chunk size. Virtual-clock charges are reported through a
//! [`Meter`] as per-tuple formulas summed per chunk, so the totals do
//! not depend on the chunk size either (up to float summation order).
//!
//! Cost constants are passed in by the caller (the mediator's executor
//! owns the registry); a stream built with [`no_meter`] charges nothing.

use std::rc::Rc;

use disco_algebra::logical::AggExpr;
use disco_algebra::{JoinPredicate, Predicate, ScalarExpr};
use disco_common::{Batch, DiscoError, Result, Schema};

use crate::vexec;

/// Charge hook: receives simulated milliseconds as an operator works.
/// `Rc` so one clock (and one per-node tally) can back many operators.
pub type Meter = Rc<dyn Fn(f64)>;

/// A meter that discards every charge.
pub fn no_meter() -> Meter {
    Rc::new(|_| {})
}

/// A pull-based stream of columnar chunks with a fixed schema.
///
/// `next_batch` yields `Ok(Some(chunk))` until the stream is exhausted,
/// then `Ok(None)`; chunks may be empty. An error is terminal.
pub trait BatchStream {
    /// Schema of every chunk this stream yields.
    fn schema(&self) -> &Schema;

    /// Pull the next chunk.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
}

/// Drain a stream to a single batch (concatenation of its chunks).
pub fn drain(stream: &mut dyn BatchStream) -> Result<Batch> {
    let arity = stream.schema().arity();
    let mut chunks = Vec::new();
    while let Some(b) = stream.next_batch()? {
        chunks.push(b);
    }
    concat_chunks(chunks, arity)
}

/// Reassemble chunks into one batch: a lone chunk (the whole-answer
/// case) is returned as it is, not copied.
pub fn concat_chunks(mut chunks: Vec<Batch>, arity: usize) -> Result<Batch> {
    if chunks.len() > 1 {
        return Batch::concat(&chunks.iter().collect::<Vec<_>>());
    }
    Ok(chunks.pop().unwrap_or_else(|| Batch::empty(arity)))
}

/// An in-memory source serving a pre-built batch in bounded chunks —
/// the streaming adapter for in-process subanswers and tests. Always
/// yields at least one (possibly empty) chunk.
pub struct BatchSource {
    schema: Schema,
    batch: Batch,
    next_row: usize,
    chunk_rows: usize,
    served: bool,
}

impl BatchSource {
    /// Serve `batch` in chunks of at most `chunk_rows` rows (clamped to
    /// at least 1).
    pub fn new(schema: Schema, batch: Batch, chunk_rows: usize) -> Self {
        BatchSource {
            schema,
            batch,
            next_row: 0,
            chunk_rows: chunk_rows.max(1),
            served: false,
        }
    }
}

impl BatchStream for BatchSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.next_row >= self.batch.len() {
            if self.served {
                return Ok(None);
            }
            // An empty answer still ships one empty chunk, mirroring the
            // wire protocol's schema-bearing first frame.
            self.served = true;
            return Ok(Some(Batch::empty(self.batch.arity())));
        }
        self.served = true;
        if self.next_row == 0 && self.chunk_rows >= self.batch.len() {
            // One chunk covers the answer: hand the batch over whole.
            let arity = self.batch.arity();
            return Ok(Some(std::mem::replace(
                &mut self.batch,
                Batch::empty(arity),
            )));
        }
        let end = self
            .next_row
            .saturating_add(self.chunk_rows)
            .min(self.batch.len());
        let sel: Vec<u32> = (self.next_row as u32..end as u32).collect();
        self.next_row = end;
        Ok(Some(self.batch.take(&sel)))
    }
}

/// Streaming filter: charges and filters each chunk as it arrives.
pub struct FilterStream {
    input: Box<dyn BatchStream>,
    predicate: Predicate,
    meter: Meter,
    /// Simulated ms per input row (`conjuncts × CpuPred`).
    cost_per_row: f64,
}

impl FilterStream {
    pub fn new(
        input: Box<dyn BatchStream>,
        predicate: Predicate,
        meter: Meter,
        cost_per_row: f64,
    ) -> Self {
        FilterStream {
            input,
            predicate,
            meter,
            cost_per_row,
        }
    }
}

impl BatchStream for FilterStream {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        match self.input.next_batch()? {
            None => Ok(None),
            Some(b) => {
                (self.meter)(b.len() as f64 * self.cost_per_row);
                Ok(Some(vexec::filter(
                    self.input.schema(),
                    &b,
                    &self.predicate,
                )?))
            }
        }
    }
}

/// Streaming projection: charges and projects each chunk as it arrives.
/// The output schema is derived at construction (no rows needed).
pub struct ProjectStream {
    input: Box<dyn BatchStream>,
    columns: Vec<(String, ScalarExpr)>,
    schema: Schema,
    meter: Meter,
    /// Simulated ms per input row (`CpuHash`).
    cost_per_row: f64,
}

impl ProjectStream {
    pub fn new(
        input: Box<dyn BatchStream>,
        columns: Vec<(String, ScalarExpr)>,
        meter: Meter,
        cost_per_row: f64,
    ) -> Result<Self> {
        // The empty-batch path computes the output schema without
        // touching any data (and without erroring on unknown
        // attributes, exactly like the kernel on empty input).
        let empty = Batch::empty(input.schema().arity());
        let (schema, _) = vexec::project(input.schema(), &empty, &columns)?;
        Ok(ProjectStream {
            input,
            columns,
            schema,
            meter,
            cost_per_row,
        })
    }
}

impl BatchStream for ProjectStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        match self.input.next_batch()? {
            None => Ok(None),
            Some(b) => {
                (self.meter)(b.len() as f64 * self.cost_per_row);
                let (_, out) = vexec::project(self.input.schema(), &b, &self.columns)?;
                Ok(Some(out))
            }
        }
    }
}

/// Streaming hash join: drains, charges and hashes the build (right)
/// side once, on the first pull, then probes the kept table with each
/// left chunk as it arrives — output order matches the one-shot join
/// (probe order outer).
pub struct HashJoinStream {
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    predicate: JoinPredicate,
    schema: Schema,
    meter: Meter,
    /// Simulated ms per build/probe/output row (`CpuHash`).
    cpu_hash: f64,
    build: Option<vexec::HashJoinBuild>,
}

impl HashJoinStream {
    pub fn new(
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
        predicate: JoinPredicate,
        meter: Meter,
        cpu_hash: f64,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        HashJoinStream {
            left,
            right,
            predicate,
            schema,
            meter,
            cpu_hash,
            build: None,
        }
    }
}

impl BatchStream for HashJoinStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let build = match &self.build {
            Some(build) => build,
            None => {
                let rb = drain(self.right.as_mut())?;
                (self.meter)(rb.len() as f64 * self.cpu_hash);
                let build = vexec::HashJoinBuild::new(self.right.schema(), rb, &self.predicate)?;
                self.build.insert(build)
            }
        };
        match self.left.next_batch()? {
            None => Ok(None),
            Some(lb) => {
                (self.meter)(lb.len() as f64 * self.cpu_hash);
                let out = build.probe(self.left.schema(), &lb)?;
                (self.meter)(out.len() as f64 * self.cpu_hash);
                Ok(Some(out))
            }
        }
    }
}

/// Streaming nested-loop join: materializes the right side on the first
/// pull, then joins each left chunk against it.
pub struct NestedLoopStream {
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    predicate: JoinPredicate,
    schema: Schema,
    meter: Meter,
    /// Simulated ms per compared pair (`CpuPred`).
    cpu_pred: f64,
    inner: Option<Batch>,
}

impl NestedLoopStream {
    pub fn new(
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
        predicate: JoinPredicate,
        meter: Meter,
        cpu_pred: f64,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        NestedLoopStream {
            left,
            right,
            predicate,
            schema,
            meter,
            cpu_pred,
            inner: None,
        }
    }
}

impl BatchStream for NestedLoopStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.inner.is_none() {
            self.inner = Some(drain(self.right.as_mut())?);
        }
        match self.left.next_batch()? {
            None => Ok(None),
            Some(lb) => {
                let inner = self.inner.as_ref().expect("inner side drained");
                (self.meter)((lb.len() * inner.len()) as f64 * self.cpu_pred);
                Ok(Some(vexec::nested_loop_join(
                    self.left.schema(),
                    &lb,
                    self.right.schema(),
                    inner,
                    &self.predicate,
                )?))
            }
        }
    }
}

/// Streaming union: left chunks pass through unmetered, then right
/// chunks metered per row — a union charges only the right
/// cardinality.
pub struct UnionStream {
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    meter: Meter,
    /// Simulated ms per right-side row (`CpuHash`).
    cost_per_row: f64,
    left_done: bool,
}

impl UnionStream {
    /// Errors on arity mismatch.
    pub fn new(
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
        meter: Meter,
        cost_per_row: f64,
    ) -> Result<Self> {
        if left.schema().arity() != right.schema().arity() {
            return Err(DiscoError::Exec("union arity mismatch".into()));
        }
        Ok(UnionStream {
            left,
            right,
            meter,
            cost_per_row,
            left_done: false,
        })
    }
}

impl BatchStream for UnionStream {
    fn schema(&self) -> &Schema {
        self.left.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if !self.left_done {
            match self.left.next_batch()? {
                Some(b) => return Ok(Some(b)),
                None => self.left_done = true,
            }
        }
        match self.right.next_batch()? {
            None => Ok(None),
            Some(b) => {
                (self.meter)(b.len() as f64 * self.cost_per_row);
                Ok(Some(b))
            }
        }
    }
}

/// Blocking dedup: drains its input (cross-chunk duplicates must be
/// seen together), charges once over the full cardinality, emits one
/// chunk.
pub struct DedupStream {
    input: Box<dyn BatchStream>,
    meter: Meter,
    /// Simulated ms per input row (`CpuHash`).
    cost_per_row: f64,
    done: bool,
}

impl DedupStream {
    pub fn new(input: Box<dyn BatchStream>, meter: Meter, cost_per_row: f64) -> Self {
        DedupStream {
            input,
            meter,
            cost_per_row,
            done: false,
        }
    }
}

impl BatchStream for DedupStream {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let all = drain(self.input.as_mut())?;
        (self.meter)(all.len() as f64 * self.cost_per_row);
        Ok(Some(vexec::dedup(&all)))
    }
}

/// Blocking sort: drains its input, charges `SortFactor × n log n`,
/// emits one sorted chunk.
pub struct SortStream {
    input: Box<dyn BatchStream>,
    keys: Vec<(String, bool)>,
    meter: Meter,
    sort_factor: f64,
    done: bool,
}

impl SortStream {
    pub fn new(
        input: Box<dyn BatchStream>,
        keys: Vec<(String, bool)>,
        meter: Meter,
        sort_factor: f64,
    ) -> Self {
        SortStream {
            input,
            keys,
            meter,
            sort_factor,
            done: false,
        }
    }
}

impl BatchStream for SortStream {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let all = drain(self.input.as_mut())?;
        let n = all.len() as f64;
        (self.meter)(self.sort_factor * n * n.max(2.0).log2());
        Ok(Some(vexec::sort(self.input.schema(), &all, &self.keys)?))
    }
}

/// Blocking aggregate: drains its input, charges once, emits one chunk.
/// The output schema is supplied by the caller (group keys + aggregate
/// result types are a planner concern).
pub struct AggregateStream {
    input: Box<dyn BatchStream>,
    group_by: Vec<String>,
    aggs: Vec<AggExpr>,
    schema: Schema,
    meter: Meter,
    /// Simulated ms per input row (`CpuHash`).
    cost_per_row: f64,
    done: bool,
}

impl AggregateStream {
    pub fn new(
        input: Box<dyn BatchStream>,
        group_by: Vec<String>,
        aggs: Vec<AggExpr>,
        out_schema: Schema,
        meter: Meter,
        cost_per_row: f64,
    ) -> Self {
        AggregateStream {
            input,
            group_by,
            aggs,
            schema: out_schema,
            meter,
            cost_per_row,
            done: false,
        }
    }
}

impl BatchStream for AggregateStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let all = drain(self.input.as_mut())?;
        (self.meter)(all.len() as f64 * self.cost_per_row);
        Ok(Some(vexec::aggregate(
            self.input.schema(),
            &all,
            &self.group_by,
            &self.aggs,
        )?))
    }
}

/// Streaming limit: passes chunks through until `n` rows have been
/// delivered, truncating the final chunk, then stops pulling its input
/// entirely — the early-stop that makes `TimeFirst`-optimal plans pay
/// for only the rows they return.
pub struct LimitStream {
    input: Box<dyn BatchStream>,
    remaining: u64,
}

impl LimitStream {
    pub fn new(input: Box<dyn BatchStream>, limit: u64) -> Self {
        LimitStream {
            input,
            remaining: limit,
        }
    }
}

impl BatchStream for LimitStream {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_batch()? {
            None => Ok(None),
            Some(b) => {
                if (b.len() as u64) <= self.remaining {
                    self.remaining -= b.len() as u64;
                    Ok(Some(b))
                } else {
                    let sel: Vec<u32> = (0..self.remaining as u32).collect();
                    self.remaining = 0;
                    Ok(Some(b.take(&sel)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Arc;

    use disco_algebra::{CompareOp, SelectPredicate};
    use disco_common::{AttributeDef, DataType, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("grp", DataType::Long),
        ])
    }

    fn batch(n: i64) -> Batch {
        let rows: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(vec![Value::Long(i), Value::Long(i % 3)]))
            .collect();
        Batch::from_tuples(2, &rows)
    }

    fn source(n: i64, chunk_rows: usize) -> Box<dyn BatchStream> {
        Box::new(BatchSource::new(schema(), batch(n), chunk_rows))
    }

    fn counting_meter() -> (Meter, Rc<Cell<f64>>) {
        let total = Rc::new(Cell::new(0.0));
        let t = Rc::clone(&total);
        (Rc::new(move |ms| t.set(t.get() + ms)), total)
    }

    #[test]
    fn source_chunks_reassemble_and_empty_source_serves_one_chunk() {
        let mut s = BatchSource::new(schema(), batch(10), 3);
        let mut chunks = Vec::new();
        while let Some(b) = s.next_batch().unwrap() {
            chunks.push(b.len());
        }
        assert_eq!(chunks, vec![3, 3, 3, 1]);
        let mut s = BatchSource::new(schema(), batch(10), 3);
        assert_eq!(drain(&mut s).unwrap().to_tuples(), batch(10).to_tuples());

        let mut empty = BatchSource::new(schema(), Batch::empty(2), 4);
        let first = empty.next_batch().unwrap().expect("one empty chunk");
        assert!(first.is_empty());
        assert!(empty.next_batch().unwrap().is_none());
    }

    #[test]
    fn filter_stream_matches_one_shot_and_charge() {
        let pred = Predicate::single(SelectPredicate::new("grp", CompareOp::Eq, Value::Long(1)));
        let (meter, total) = counting_meter();
        let mut s = FilterStream::new(source(10, 3), pred.clone(), meter, 0.05);
        let streamed = drain(&mut s).unwrap();
        let one_shot = vexec::filter(&schema(), &batch(10), &pred).unwrap();
        assert_eq!(streamed.to_tuples(), one_shot.to_tuples());
        assert!((total.get() - 10.0 * 0.05).abs() < 1e-9);
    }

    #[test]
    fn hash_join_stream_matches_one_shot_order_and_charge() {
        let pred = JoinPredicate::equi("grp", "grp");
        let (meter, total) = counting_meter();
        let mut s = HashJoinStream::new(source(10, 3), source(7, 2), pred.clone(), meter, 0.02);
        let streamed = drain(&mut s).unwrap();
        let one_shot =
            vexec::hash_join(&schema(), &batch(10), &schema(), &batch(7), &pred).unwrap();
        assert_eq!(streamed.to_tuples(), one_shot.to_tuples());
        // (lb + rb + out) × CpuHash, chunk-summed.
        let expect = (10.0 + 7.0 + one_shot.len() as f64) * 0.02;
        assert!((total.get() - expect).abs() < 1e-9);
    }

    #[test]
    fn hash_join_builds_once_per_join_at_any_chunk_size() {
        let pred = JoinPredicate::equi("grp", "grp");
        let one_shot =
            vexec::hash_join(&schema(), &batch(40), &schema(), &batch(9), &pred).unwrap();
        for chunk_rows in [1, 7, 40, usize::MAX] {
            let before = vexec::HASH_BUILDS.with(Cell::get);
            let (meter, total) = counting_meter();
            let mut s = HashJoinStream::new(
                source(40, chunk_rows),
                source(9, chunk_rows),
                pred.clone(),
                meter,
                0.02,
            );
            let streamed = drain(&mut s).unwrap();
            assert_eq!(
                vexec::HASH_BUILDS.with(Cell::get) - before,
                1,
                "chunk_rows {chunk_rows}"
            );
            assert_eq!(streamed.to_tuples(), one_shot.to_tuples());
            let expect = (40.0 + 9.0 + one_shot.len() as f64) * 0.02;
            assert!((total.get() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn whole_answer_chunks_are_moved_not_copied() {
        let whole = batch(10);
        let first = Arc::as_ptr(whole.column(0));
        let mut s = BatchSource::new(schema(), whole, usize::MAX);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(Arc::as_ptr(out.column(0)), first);
    }

    #[test]
    fn nested_loop_matches_one_shot() {
        let lt = JoinPredicate {
            left_attr: "id".into(),
            op: CompareOp::Lt,
            right_attr: "id".into(),
        };
        let mut s = NestedLoopStream::new(source(6, 2), source(5, 2), lt.clone(), no_meter(), 0.0);
        let streamed = drain(&mut s).unwrap();
        let one_shot =
            vexec::nested_loop_join(&schema(), &batch(6), &schema(), &batch(5), &lt).unwrap();
        assert_eq!(streamed.to_tuples(), one_shot.to_tuples());
    }

    #[test]
    fn union_streams_left_then_right_and_rejects_arity_mismatch() {
        let mut s = UnionStream::new(source(4, 3), source(3, 2), no_meter(), 0.0).unwrap();
        let streamed = drain(&mut s).unwrap();
        let one_shot = vexec::union(&batch(4), &batch(3)).unwrap();
        assert_eq!(streamed.to_tuples(), one_shot.to_tuples());

        let narrow = Schema::new(vec![AttributeDef::new("id", DataType::Long)]);
        let other = Box::new(BatchSource::new(narrow, Batch::empty(1), 4));
        let err = match UnionStream::new(source(4, 3), other, no_meter(), 0.0) {
            Err(e) => e,
            Ok(_) => panic!("arity mismatch accepted"),
        };
        assert!(err.to_string().contains("union arity mismatch"));
    }

    #[test]
    fn blocking_operators_drain_then_emit_once() {
        let mut s = SortStream::new(
            source(10, 3),
            vec![("grp".into(), true), ("id".into(), false)],
            no_meter(),
            0.0,
        );
        let first = s.next_batch().unwrap().unwrap();
        assert!(s.next_batch().unwrap().is_none());
        let one_shot = vexec::sort(
            &schema(),
            &batch(10),
            &[("grp".into(), true), ("id".into(), false)],
        )
        .unwrap();
        assert_eq!(first.to_tuples(), one_shot.to_tuples());

        let dup_rows: Vec<Tuple> = (0..8)
            .map(|i| Tuple::new(vec![Value::Long(i % 2), Value::Long(0)]))
            .collect();
        let dup = Batch::from_tuples(2, &dup_rows);
        let mut s = DedupStream::new(
            Box::new(BatchSource::new(schema(), dup.clone(), 3)),
            no_meter(),
            0.0,
        );
        let streamed = drain(&mut s).unwrap();
        assert_eq!(streamed.to_tuples(), vexec::dedup(&dup).to_tuples());
    }

    #[test]
    fn limit_truncates_and_stops_pulling() {
        struct CountingSource {
            inner: BatchSource,
            pulls: Rc<Cell<usize>>,
        }
        impl BatchStream for CountingSource {
            fn schema(&self) -> &Schema {
                self.inner.schema()
            }
            fn next_batch(&mut self) -> Result<Option<Batch>> {
                self.pulls.set(self.pulls.get() + 1);
                self.inner.next_batch()
            }
        }
        let pulls = Rc::new(Cell::new(0));
        let src = CountingSource {
            inner: BatchSource::new(schema(), batch(100), 10),
            pulls: Rc::clone(&pulls),
        };
        let mut s = LimitStream::new(Box::new(src), 25);
        let out = drain(&mut s).unwrap();
        assert_eq!(out.len(), 25);
        assert_eq!(out.to_tuples(), batch(100).to_tuples()[..25].to_vec());
        // 3 chunks of 10 cover the limit; the source is never pulled again.
        assert_eq!(pulls.get(), 3);
    }
}
