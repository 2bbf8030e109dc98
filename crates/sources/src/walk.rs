//! The one plan walker behind every operator-executing source.
//!
//! [`PagedStore`](crate::PagedStore), [`StoreSource`](crate::StoreSource)
//! and [`DocSource`](crate::DocSource) differ only in how they reach
//! their data, which each states as a [`Leaves`] implementation. What is
//! above the leaves exists once, here: the [`LogicalPlan`] walk over the
//! [`vexec`] kernels with its charge table, the epilogue that prices
//! delivery and fills [`ExecStats`] ([`answer`]), and the
//! attribute-statistics pass ([`attribute_stats`]). Everything here is
//! columnar: leaves hand out [`Batch`]es, the kernels are the mediator's
//! own, and the answer ships as the batch the walk produced. The charge
//! table reads only row counts, and the order of the clock's f64
//! additions is part of the contract: committed virtual-clock numbers
//! are reproduced bit for bit.

use std::fmt::Write;

use disco_algebra::{CompareOp, LogicalPlan};
use disco_catalog::{AttributeStats, CollectionStats, ExtentStats, Histogram};
use disco_common::{Batch, DiscoError, Result, Schema, Value, ValueRef};
use disco_store::PoolCounters;

use crate::clock::{CostProfile, VirtualClock};
use crate::source::{ExecStats, SubAnswer};
use crate::vexec;

/// A source's access paths: all the walker needs from it.
pub(crate) trait Leaves {
    /// Row address an index hands to [`Leaves::fetch`].
    type Rid: Copy;

    /// `engine` label of the buffer-pool counters; a source without a
    /// pool exports none.
    const ENGINE: Option<&'static str> = None;

    fn schema(&self, collection: &str) -> Result<Schema>;

    /// Full scan in logical row order, charged by the leaf (pages and
    /// objects in a store, path navigation in documents): the rows and
    /// the number of objects examined.
    fn scan(&mut self, collection: &str, clock: &mut VirtualClock) -> Result<(Batch, u64)>;

    /// Is `attr` indexed? Asked before an index join's outer side runs.
    fn has_index(&self, _collection: &str, _attr: &str) -> Result<bool> {
        Ok(false)
    }

    /// Rids satisfying `attr op value` through an index, in key order;
    /// `None` when `attr` has no index or `op` defeats one.
    fn index_rids(
        &mut self,
        _collection: &str,
        _attr: &str,
        _op: CompareOp,
        _value: &Value,
    ) -> Result<Option<Vec<Self::Rid>>> {
        Ok(None)
    }

    /// Fetch one row by rid, to be handed out by the next
    /// [`Leaves::gather`]. A simulated pool charges its fault here, in
    /// line.
    fn fetch(&mut self, collection: &str, rid: Self::Rid, clock: &mut VirtualClock) -> Result<()>;

    /// The rows fetched since the last gather, in fetch order.
    fn gather(&mut self, collection: &str) -> Result<Batch>;

    /// The query's buffer-pool activity, asked once after the walk. A
    /// pool that faults for real charges that I/O here.
    fn settle(&mut self, _clock: &mut VirtualClock) -> PoolCounters {
        PoolCounters::default()
    }
}

/// Is the root operator blocking (first tuple only after all input
/// consumed)?
fn blocking_root(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Sort { .. } | LogicalPlan::Aggregate { .. } | LogicalPlan::Dedup { .. }
    )
}

struct Walk<'a, L> {
    p: &'a CostProfile,
    leaves: L,
    clock: VirtualClock,
    /// Objects examined.
    scanned: u64,
}

impl<L: Leaves> Walk<'_, L> {
    /// Fetch one object an index pointed at.
    fn fetch(&mut self, collection: &str, rid: L::Rid) -> Result<()> {
        self.leaves.fetch(collection, rid, &mut self.clock)?;
        self.clock.charge(self.p.cpu_scan_ms);
        self.scanned += 1;
        Ok(())
    }

    fn exec(&mut self, plan: &LogicalPlan) -> Result<(Schema, Batch)> {
        let p = self.p;
        match plan {
            LogicalPlan::Scan { collection, .. } => {
                let name = collection.collection.as_str();
                let schema = self.leaves.schema(name)?;
                let (batch, examined) = self.leaves.scan(name, &mut self.clock)?;
                self.scanned += examined;
                Ok((schema, batch))
            }
            LogicalPlan::Select { input, predicate } => {
                // Index access path: single-conjunct selection directly
                // over a stored collection with a matching index.
                if let (LogicalPlan::Scan { collection, .. }, [c]) =
                    (input.as_ref(), predicate.conjuncts.as_slice())
                {
                    let name = collection.collection.as_str();
                    if let Some(rids) =
                        self.leaves.index_rids(name, &c.attribute, c.op, &c.value)?
                    {
                        self.clock.charge(p.probe_ms);
                        for rid in rids {
                            self.fetch(name, rid)?;
                        }
                        return Ok((self.leaves.schema(name)?, self.leaves.gather(name)?));
                    }
                }
                let (schema, batch) = self.exec(input)?;
                let tests = batch.len() as f64 * predicate.conjuncts.len() as f64;
                self.clock.charge(tests * p.cpu_pred_ms);
                let out = vexec::filter(&schema, &batch, predicate)?;
                Ok((schema, out))
            }
            LogicalPlan::Project { input, columns } => {
                let (schema, batch) = self.exec(input)?;
                self.clock.charge(batch.len() as f64 * p.cpu_scan_ms);
                vexec::project(&schema, &batch, columns)
            }
            LogicalPlan::Sort { input, keys } => {
                let (schema, batch) = self.exec(input)?;
                let n = batch.len() as f64;
                self.clock.charge(p.sort_factor_ms * n * n.max(2.0).log2());
                let out = vexec::sort(&schema, &batch, keys)?;
                Ok((schema, out))
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                ..
            } => {
                // Index join: the inner side is a stored collection with
                // an index on the join attribute. Each outer row probes
                // the index; the (outer row, inner row) pairs are then
                // gathered once on each side.
                if let (CompareOp::Eq, LogicalPlan::Scan { collection, .. }) =
                    (predicate.op, right.as_ref())
                {
                    let (name, attr) = (collection.collection.as_str(), &predicate.right_attr);
                    if self.leaves.has_index(name, attr)? {
                        let (ls, lb) = self.exec(left)?;
                        let key = lb.column(vexec::join_attr(&ls, &predicate.left_attr)?);
                        let mut outer: Vec<u32> = Vec::new();
                        for row in 0..lb.len() {
                            self.clock.charge(p.probe_ms);
                            let v = key.value(row);
                            let rids = self.leaves.index_rids(name, attr, CompareOp::Eq, &v)?;
                            for rid in rids.unwrap_or_default() {
                                self.fetch(name, rid)?;
                                outer.push(row as u32);
                            }
                        }
                        let inner = self.leaves.gather(name)?;
                        let out = lb.take(&outer).hstack(&inner)?;
                        return Ok((ls.join(&self.leaves.schema(name)?), out));
                    }
                }
                let (ls, lb) = self.exec(left)?;
                let (rs, rb) = self.exec(right)?;
                let out = if predicate.op == CompareOp::Eq {
                    self.clock
                        .charge((lb.len() + rb.len()) as f64 * p.cpu_hash_ms);
                    let out = vexec::hash_join(&ls, &lb, &rs, &rb, predicate)?;
                    self.clock.charge(out.len() as f64 * p.cpu_hash_ms);
                    out
                } else {
                    self.clock
                        .charge((lb.len() * rb.len()) as f64 * p.cpu_pred_ms);
                    vexec::nested_loop_join(&ls, &lb, &rs, &rb, predicate)?
                };
                Ok((ls.join(&rs), out))
            }
            LogicalPlan::Union { left, right } => {
                let (ls, lb) = self.exec(left)?;
                let (rs, rb) = self.exec(right)?;
                if ls.arity() != rs.arity() {
                    return Err(DiscoError::Exec("union arity mismatch".into()));
                }
                self.clock.charge(rb.len() as f64 * p.cpu_scan_ms);
                Ok((ls, vexec::union(&lb, &rb)?))
            }
            LogicalPlan::Dedup { input } => {
                let (schema, batch) = self.exec(input)?;
                self.clock.charge(batch.len() as f64 * p.cpu_hash_ms);
                Ok((schema, vexec::dedup(&batch)))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (schema, batch) = self.exec(input)?;
                self.clock.charge(batch.len() as f64 * p.cpu_hash_ms);
                let out = vexec::aggregate(&schema, &batch, group_by, aggs)?;
                Ok((plan.output_schema()?, out))
            }
            LogicalPlan::Submit { .. } => Err(DiscoError::Source(
                "data sources do not execute `submit` operators".into(),
            )),
        }
    }
}

/// Execute `plan` over `leaves` and account for it: start-up, the walk,
/// the leaves' own I/O, then delivery.
pub(crate) fn answer<L: Leaves>(
    source: &str,
    p: &CostProfile,
    plan: &LogicalPlan,
    leaves: L,
) -> Result<SubAnswer> {
    let mut walk = Walk {
        p,
        leaves,
        clock: VirtualClock::new(),
        scanned: 0,
    };
    walk.clock.charge(p.overhead_ms);
    let (schema, batch) = walk.exec(plan)?;
    let io = walk.leaves.settle(&mut walk.clock);
    let produced = walk.clock.now();
    // Deliver results.
    walk.clock.charge(batch.len() as f64 * p.output_ms);
    let elapsed = walk.clock.now();
    let one = (!batch.is_empty()) as u64 as f64;
    let time_first = if blocking_root(plan) {
        produced + one * p.output_ms
    } else {
        // Pipelined approximation: overhead, one page fault if any I/O
        // happened, one delivery.
        p.overhead_ms + (io.data_faults > 0) as u64 as f64 * p.io_ms + one * p.output_ms
    };
    if let (Some(engine), true) = (L::ENGINE, disco_obs::metrics::enabled()) {
        let labels = &[("engine", engine), ("source", source)][..];
        disco_obs::counter(disco_obs::names::STORE_PAGE_FAULTS, labels).add(io.faults);
        disco_obs::counter(disco_obs::names::STORE_BUFFER_HITS, labels).add(io.hits);
        disco_obs::counter(disco_obs::names::STORE_EVICTIONS, labels).add(io.evictions);
    }
    Ok(SubAnswer {
        schema,
        batch,
        stats: ExecStats {
            elapsed_ms: elapsed,
            time_first_ms: time_first.min(elapsed),
            pages_read: io.data_faults,
            buffer_hits: io.hits,
            objects_scanned: walk.scanned,
        },
    })
}

/// A collection's statistics: the source's own `extent` plus, per
/// attribute and computed from the columns, distinct count, min, max,
/// whether it is `indexed`, and an equi-depth histogram over numeric
/// values when `histogram_buckets` asks for one. Clustering is
/// deliberately not exported: the generic model cannot see it (§5/§7).
pub(crate) fn attribute_stats(
    extent: ExtentStats,
    schema: &Schema,
    batch: &Batch,
    indexed: impl Fn(&str) -> bool,
    histogram_buckets: Option<usize>,
) -> CollectionStats {
    let mut stats = CollectionStats::new(extent);
    for (i, attr) in schema.attributes().iter().enumerate() {
        let column = batch.columns().get(i);
        let cells =
            || (0..batch.len()).map(|row| column.map_or(ValueRef::Null, |c| c.value_ref(row)));
        let (mut min, mut max): (Option<ValueRef<'_>>, Option<ValueRef<'_>>) = (None, None);
        // Values are distinct when their text is. Every text is written
        // into one buffer and the spans are sorted: two allocations per
        // attribute, freed alike in every process. A hash set of one
        // string per row frees them in a per-process random order, and
        // that order decides whether megabytes of freed heap go back to
        // the OS, so the resident set would differ from run to run.
        let mut text = String::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for v in cells().filter(|v| !v.is_null()) {
            let start = text.len();
            write!(text, "{v}").expect("writing to a String cannot fail");
            spans.push((start, text.len()));
            if min.is_none_or(|m| v.total_cmp_ref(m).is_lt()) {
                min = Some(v);
            }
            if max.is_none_or(|m| v.total_cmp_ref(m).is_gt()) {
                max = Some(v);
            }
        }
        let span = |&(start, end): &(usize, usize)| &text[start..end];
        spans.sort_unstable_by(|a, b| span(a).cmp(span(b)));
        spans.dedup_by(|a, b| span(a) == span(b));
        let mut a = AttributeStats::new(
            spans.len().max(1) as u64,
            min.map_or(Value::Null, ValueRef::to_value),
            max.map_or(Value::Null, ValueRef::to_value),
        );
        a.indexed = indexed(&attr.name);
        if let Some(buckets) = histogram_buckets {
            let values: Vec<f64> = cells().filter_map(ValueRef::as_f64).collect();
            if let Some(h) = Histogram::equi_depth(&values, buckets) {
                a = a.with_histogram(h);
            }
        }
        stats = stats.with_attribute(attr.name.clone(), a);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DataSource;
    use crate::{CollectionBuilder, DocField, DocSource, DocValue, PagedStore, StoreSource};
    use disco_algebra::{AggFunc, JoinKind, JoinPredicate, PlanBuilder};
    use disco_common::rng::{self, StdRng};
    use disco_common::{AttributeDef, DataType, QualifiedName, Tuple};
    use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};

    /// Rows of `T(id, g = id % 7)`. In the stores they are 56-byte
    /// objects, 70 to a page, clustered on the indexed `id`: two pages,
    /// and every `id < k` below stays on the first.
    const N: usize = 140;
    /// Path steps per document (`id`, `m.g`).
    const DEPTH: usize = 3;

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("g", DataType::Long),
        ])
    }

    fn rows() -> impl Iterator<Item = Vec<Value>> {
        (0..N as i64).map(|i| vec![Value::Long(i), Value::Long(i % 7)])
    }

    /// What reaching the data costs, before the operators above it.
    #[derive(Clone, Copy)]
    struct Cost {
        ms: f64,
        pages: u64,
        scanned: u64,
    }

    impl std::ops::Add for Cost {
        type Output = Cost;
        fn add(self, o: Cost) -> Cost {
            Cost {
                ms: self.ms + o.ms,
                pages: self.pages + o.pages,
                scanned: self.scanned + o.scanned,
            }
        }
    }

    impl std::ops::Add<f64> for Cost {
        type Output = Cost;
        fn add(self, ms: f64) -> Cost {
            Cost {
                ms: self.ms + ms,
                ..self
            }
        }
    }

    /// One kind of source: how to run a plan on it cold, and its two
    /// access paths in closed form. `first` says the query has not
    /// touched the collection yet (pages cold, start-up not yet spent).
    struct Kind {
        label: &'static str,
        p: CostProfile,
        indexed: bool,
        run: Box<dyn Fn(&LogicalPlan) -> SubAnswer>,
        scan: fn(&CostProfile, bool) -> Cost,
        /// `select id < k` straight over the scan.
        pick: fn(&CostProfile, usize, bool) -> Cost,
    }

    fn store_scan(p: &CostProfile, first: bool) -> Cost {
        let pages = if first { 2 } else { 0 };
        Cost {
            ms: pages as f64 * p.io_ms + N as f64 * p.cpu_scan_ms,
            pages,
            scanned: N as u64,
        }
    }

    fn store_pick(p: &CostProfile, k: usize, first: bool) -> Cost {
        let pages = first as u64;
        Cost {
            ms: p.probe_ms + pages as f64 * p.io_ms + k as f64 * p.cpu_scan_ms,
            pages,
            scanned: k as u64,
        }
    }

    fn doc_scan(p: &CostProfile, first: bool) -> Cost {
        let open = if first { 0.0 } else { p.overhead_ms };
        Cost {
            ms: open + (N * DEPTH) as f64 * p.cpu_scan_ms,
            pages: 0,
            scanned: N as u64,
        }
    }

    fn doc_pick(p: &CostProfile, _k: usize, first: bool) -> Cost {
        doc_scan(p, first) + N as f64 * p.cpu_pred_ms
    }

    fn kinds() -> Vec<Kind> {
        let p = CostProfile::object_store();
        let mut sim = PagedStore::new("s", p);
        let t = CollectionBuilder::new(schema())
            .rows(rows())
            .object_size(56)
            .index("id")
            .cluster_on("id");
        sim.add_collection("T", t).unwrap();

        let t = DiskCollectionBuilder::new(schema())
            .rows(rows())
            .object_size(56)
            .index("id")
            .cluster_on("id");
        let disk = DiskStoreBuilder::new("s").collection("T", t).build();
        let disk = StoreSource::new(disk.unwrap(), p);

        let mut doc = DocSource::new("s");
        let docs = (0..N as i64).map(|i| {
            let m = DocValue::obj([("g", DocValue::Long(i % 7))]);
            DocValue::obj([("id", DocValue::Long(i)), ("m", m)])
        });
        let fields = vec![
            DocField::scalar("id", "id", DataType::Long),
            DocField::scalar("g", "m.g", DataType::Long),
        ];
        doc.add_collection("T", fields, docs.collect()).unwrap();
        let doc_p = doc.profile;

        vec![
            Kind {
                label: "PagedStore",
                p,
                indexed: true,
                run: Box::new(move |plan| sim.execute(plan).unwrap()),
                scan: store_scan,
                pick: store_pick,
            },
            Kind {
                label: "StoreSource",
                p,
                indexed: true,
                run: Box::new(move |plan| {
                    disk.clear_cache().unwrap();
                    disk.execute(plan).unwrap()
                }),
                scan: store_scan,
                pick: store_pick,
            },
            Kind {
                label: "DocSource",
                p: doc_p,
                indexed: false,
                run: Box::new(move |plan| doc.execute(plan).unwrap()),
                scan: doc_scan,
                pick: doc_pick,
            },
        ]
    }

    fn t() -> PlanBuilder {
        PlanBuilder::scan(QualifiedName::new("s", "T"), schema())
    }

    fn pick(k: i64) -> PlanBuilder {
        t().select("id", CompareOp::Lt, k)
    }

    /// Every operator once on every source: `elapsed_ms`, `time_first_ms`,
    /// `pages_read` and `objects_scanned` against the charge table,
    /// written out in terms of the source's `CostProfile`.
    #[test]
    fn charge_table() {
        let n = N as f64;
        for kind in kinds() {
            let p = &kind.p;
            let scan = |first| (kind.scan)(p, first);
            let pick_cost = |k, first| (kind.pick)(p, k, first);
            let nl_join = LogicalPlan::Join {
                left: Box::new(pick(5).build()),
                right: Box::new(pick(5).build()),
                predicate: JoinPredicate {
                    left_attr: "id".into(),
                    op: CompareOp::Lt,
                    right_attr: "id".into(),
                },
                kind: JoinKind::Inner,
            };
            let count = vec![("n", AggFunc::Count, None)];
            // (operator, plan, work below delivery, rows out)
            let table: Vec<(&str, LogicalPlan, Cost, usize)> = vec![
                ("scan", t().build(), scan(true), N),
                ("index select", pick(10).build(), pick_cost(10, true), 10),
                (
                    "unindexed select",
                    t().select("g", CompareOp::Eq, 3i64).build(),
                    scan(true) + n * p.cpu_pred_ms,
                    N / 7,
                ),
                (
                    "project",
                    t().project_attrs(&["g"]).build(),
                    scan(true) + n * p.cpu_scan_ms,
                    N,
                ),
                (
                    "sort",
                    t().sort_asc(&["g"]).build(),
                    scan(true) + p.sort_factor_ms * n * n.log2(),
                    N,
                ),
                (
                    // Ten outer rows, one match each, on the page the
                    // outer side already faulted in. Without an index
                    // the same plan is a hash join against a full scan.
                    "index join",
                    pick(10).join(t(), "id", "id").build(),
                    if kind.indexed {
                        let probes = Cost {
                            ms: 10.0 * (p.probe_ms + p.cpu_scan_ms),
                            pages: 0,
                            scanned: 10,
                        };
                        pick_cost(10, true) + probes
                    } else {
                        pick_cost(10, true) + scan(false) + (10.0 + n + 10.0) * p.cpu_hash_ms
                    },
                    10,
                ),
                (
                    // Build and probe five rows a side, five matches out.
                    "hash join",
                    pick(5).join(pick(5), "g", "g").build(),
                    pick_cost(5, true) + pick_cost(5, false) + (10.0 + 5.0) * p.cpu_hash_ms,
                    5,
                ),
                (
                    "nested-loop join",
                    nl_join,
                    pick_cost(5, true) + pick_cost(5, false) + 25.0 * p.cpu_pred_ms,
                    10,
                ),
                (
                    "union",
                    pick(5).union(pick(5)).build(),
                    pick_cost(5, true) + pick_cost(5, false) + 5.0 * p.cpu_scan_ms,
                    10,
                ),
                (
                    "dedup",
                    t().dedup().build(),
                    scan(true) + n * p.cpu_hash_ms,
                    N,
                ),
                (
                    "aggregate",
                    t().aggregate(&["g"], count).build(),
                    scan(true) + n * p.cpu_hash_ms,
                    7,
                ),
            ];
            for (op, plan, work, out) in table {
                let a = (kind.run)(&plan);
                let at = format!("{} {op}", kind.label);
                assert_eq!(a.batch.len(), out, "{at}: rows");
                assert_eq!(a.stats.pages_read, work.pages, "{at}: pages_read");
                assert_eq!(
                    a.stats.objects_scanned, work.scanned,
                    "{at}: objects_scanned"
                );
                let produced = p.overhead_ms + work.ms;
                let elapsed = produced + out as f64 * p.output_ms;
                let first = if blocking_root(&plan) {
                    produced + p.output_ms
                } else {
                    p.overhead_ms + (work.pages > 0) as u64 as f64 * p.io_ms + p.output_ms
                };
                for (what, got, expect) in [
                    ("elapsed_ms", a.stats.elapsed_ms, elapsed),
                    ("time_first_ms", a.stats.time_first_ms, first),
                ] {
                    assert!(
                        (got - expect).abs() < 1e-6,
                        "{at}: {what} {got}, charge table says {expect}"
                    );
                }
            }
        }
    }

    /// Two values count once when they print alike: `1` and `1.0`, both
    /// NaNs; `0` and `-0.0` do not, nor a number and its quoted string.
    #[test]
    fn distinct_counts_values_by_their_text() {
        let column = [
            Value::Long(1),
            Value::Double(1.0),
            Value::Long(0),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Str("1".into()),
            Value::Str("a".into()),
            Value::Str("a".into()),
            Value::Null,
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Bool(true),
            Value::Str("true".into()),
        ];
        let tuples: Vec<Tuple> = column.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        let n = tuples.len();
        let schema = Schema::new(vec![AttributeDef::new("x", DataType::Str)]);
        let batch = Batch::from_tuples(1, &tuples);
        let stats = attribute_stats(extent(n), &schema, &batch, |_| false, None);
        assert_eq!(
            stats,
            row_attribute_stats(extent(n), &schema, &tuples, |_| false, None)
        );
        let texts: std::collections::HashSet<String> = column
            .iter()
            .filter(|v| !v.is_null())
            .map(Value::to_string)
            .collect();
        assert_eq!(texts.len(), 8);
        assert_eq!(stats.attribute("x").count_distinct, 8);
    }

    fn extent(n: usize) -> ExtentStats {
        ExtentStats {
            count_object: n as u64,
            total_size: 0,
            object_size: 0,
            count_page: None,
        }
    }

    /// The statistics pass as it read rows, before sources held columns:
    /// the reference the column pass must equal.
    fn row_attribute_stats(
        extent: ExtentStats,
        schema: &Schema,
        tuples: &[Tuple],
        indexed: impl Fn(&str) -> bool,
        histogram_buckets: Option<usize>,
    ) -> CollectionStats {
        let mut stats = CollectionStats::new(extent);
        for (i, attr) in schema.attributes().iter().enumerate() {
            let (mut min, mut max): (Option<&Value>, Option<&Value>) = (None, None);
            let mut texts: Vec<String> = Vec::new();
            for v in tuples.iter().filter_map(|t| t.get(i)) {
                if v.is_null() {
                    continue;
                }
                texts.push(v.to_string());
                if min.is_none_or(|m| v.total_cmp_value(m).is_lt()) {
                    min = Some(v);
                }
                if max.is_none_or(|m| v.total_cmp_value(m).is_gt()) {
                    max = Some(v);
                }
            }
            texts.sort_unstable();
            texts.dedup();
            let mut a = AttributeStats::new(
                texts.len().max(1) as u64,
                min.cloned().unwrap_or(Value::Null),
                max.cloned().unwrap_or(Value::Null),
            );
            a.indexed = indexed(&attr.name);
            if let Some(buckets) = histogram_buckets {
                let values: Vec<f64> = tuples
                    .iter()
                    .filter_map(|t| t.get(i).and_then(Value::as_f64))
                    .collect();
                if let Some(h) = Histogram::equi_depth(&values, buckets) {
                    a = a.with_histogram(h);
                }
            }
            stats = stats.with_attribute(attr.name.clone(), a);
        }
        stats
    }

    /// Statistics as text, with a double's bits spelled out: a NaN bound
    /// equals itself here, and `-0.0` differs from `0.0`.
    fn exact(stats: &CollectionStats) -> String {
        let bits = |v: &Value| match v {
            Value::Double(d) => format!("{:#x}", d.to_bits()),
            v => format!("{v:?}"),
        };
        let mut out = format!("{stats:?}");
        for (name, a) in &stats.attributes {
            write!(out, " {name}: {}..{}", bits(&a.min), bits(&a.max)).unwrap();
        }
        out
    }

    /// One random cell of a column kind: 0 long, 1 double (with NaNs and
    /// both zeroes), 2 bool, 3 dictionary string, 4 any of those; one in
    /// six is null.
    fn random_cell(r: &mut StdRng, kind: usize) -> Value {
        if r.gen_range(0..6i64) == 0 {
            return Value::Null;
        }
        match kind {
            0 => Value::Long(r.gen_range(-30..30i64)),
            1 => [
                Value::Double(f64::NAN),
                Value::Double(-f64::NAN),
                Value::Double(0.0),
                Value::Double(-0.0),
                Value::Double(r.gen_range(-30..30i64) as f64 / 4.0),
            ][r.gen_range(0..5usize)]
            .clone(),
            2 => Value::Bool(r.gen_range(0..2i64) == 1),
            3 => Value::Str(["1", "a", "true", "-0", "NaN", ""][r.gen_range(0..6usize)].into()),
            _ => {
                let kind = r.gen_range(0..4usize);
                random_cell(r, kind)
            }
        }
    }

    /// Column statistics equal the row statistics — distinct count, min,
    /// max and histogram — on random columns of every kind: registration
    /// statistics drive every plan.
    #[test]
    fn column_statistics_equal_row_statistics() {
        for seed in 0..40 {
            let mut r = rng::seeded(seed, "walk:attribute-stats");
            let kinds: Vec<usize> = (0..r.gen_range(1..5usize))
                .map(|_| r.gen_range(0..5usize))
                .collect();
            let schema = Schema::new(
                (0..kinds.len())
                    .map(|i| AttributeDef::new(format!("c{i}"), DataType::Str))
                    .collect(),
            );
            let tuples: Vec<Tuple> = (0..r.gen_range(0..120usize))
                .map(|_| Tuple::new(kinds.iter().map(|&k| random_cell(&mut r, k)).collect()))
                .collect();
            let batch = Batch::from_tuples(kinds.len(), &tuples);
            let indexed = |a: &str| a == "c0";
            for buckets in [None, Some(1), Some(4)] {
                let n = tuples.len();
                assert_eq!(
                    exact(&attribute_stats(
                        extent(n),
                        &schema,
                        &batch,
                        indexed,
                        buckets
                    )),
                    exact(&row_attribute_stats(
                        extent(n),
                        &schema,
                        &tuples,
                        indexed,
                        buckets
                    )),
                    "seed {seed} kinds {kinds:?} buckets {buckets:?}"
                );
            }
        }
    }
}
