//! The page model — the simulated object-database / relational
//! substrate.
//!
//! A [`PagedStore`] keeps each collection in memory as one column
//! [`Batch`] and counts faults on the modelled pages `disco-store`'s one
//! collection builder lays them out on ([`CollectionBuilder`], the same
//! type as `disco_store::DiskCollectionBuilder`), uniformly at random
//! or clustered. Executing a subplan performs the page accesses through a
//! cold LRU pool and charges the source's [`CostProfile`] to a
//! [`VirtualClock`] — the "Experiment" series of Figure 12 is the
//! elapsed time this model reports for index scans at varying
//! selectivity. Its indexes are sorted in memory and charged no I/O.

use std::collections::BTreeMap;
use std::sync::Arc;

use disco_algebra::{CompareOp, LogicalPlan};
use disco_catalog::{CollectionStats, ExtentStats};
use disco_common::{rng, Batch, Column, DiscoError, Result, Schema, Value, ValueRef};
use disco_store::{Layout, PoolCounters, DEFAULT_FRAMES};

use crate::buffer::BufferPool;
use crate::clock::{CostProfile, VirtualClock};
use crate::source::{DataSource, SubAnswer};
use crate::walk::{self, Leaves};

pub use disco_store::DiskCollectionBuilder as CollectionBuilder;

/// An index of the model: a column's rids stably sorted by
/// [`ValueRef::total_cmp_ref`], so equal keys keep row order — the order
/// `disco-store`'s B+-tree returns them in. The keys are read from the
/// indexed column itself, not copied.
#[derive(Debug, Clone)]
struct SortedIndex {
    key: Arc<Column>,
    rids: Vec<u32>,
}

impl SortedIndex {
    /// Index `key`, one of a collection's columns.
    fn build(key: Arc<Column>) -> SortedIndex {
        let mut rids: Vec<u32> = (0..key.len() as u32).collect();
        rids.sort_by(|&a, &b| {
            key.value_ref(a as usize)
                .total_cmp_ref(key.value_ref(b as usize))
        });
        SortedIndex { key, rids }
    }

    /// Rids matching `op value`, in key order. `None` for `Ne`, which
    /// an index does not serve.
    fn scan(&self, op: CompareOp, value: &Value) -> Option<Vec<u32>> {
        let (rids, value) = (&self.rids, ValueRef::from_value(value));
        let key = |rid: &u32| self.key.value_ref(*rid as usize).total_cmp_ref(value);
        let lt = rids.partition_point(|rid| key(rid).is_lt());
        let le = rids.partition_point(|rid| key(rid).is_le());
        let range = match op {
            CompareOp::Eq => lt..le,
            CompareOp::Lt => 0..lt,
            CompareOp::Le => 0..le,
            CompareOp::Gt => le..rids.len(),
            CompareOp::Ge => lt..rids.len(),
            CompareOp::Ne => return None,
        };
        Some(rids[range].to_vec())
    }
}

/// One collection stored in the engine.
#[derive(Debug, Clone)]
struct StoredCollection {
    schema: Schema,
    /// The rows, column-major, in logical (load) order.
    batch: Batch,
    layout: Layout,
    indexes: BTreeMap<String, SortedIndex>,
    object_size: u64,
    /// Offset added to local page numbers so collections share the
    /// buffer pool without collisions.
    page_base: u64,
}

/// A simulated paged data source.
#[derive(Debug, Clone)]
pub struct PagedStore {
    name: String,
    profile: CostProfile,
    collections: BTreeMap<String, StoredCollection>,
    seed: u64,
    next_page_base: u64,
    histogram_buckets: Option<usize>,
}

impl PagedStore {
    /// New store with a cost profile. Each query runs against a cold
    /// pool of [`DEFAULT_FRAMES`] pages — large enough that it faults
    /// each distinct page once (the regime Yao's formula models).
    pub fn new(name: impl Into<String>, profile: CostProfile) -> Self {
        PagedStore {
            name: name.into(),
            profile,
            collections: BTreeMap::new(),
            seed: rng::DEFAULT_SEED,
            next_page_base: 0,
            histogram_buckets: None,
        }
    }

    /// Export equi-depth histograms (with the given bucket count) for
    /// numeric attributes in [`DataSource::statistics`] — the richer
    /// distribution statistics of \[IP95\] that the paper's ad-hoc
    /// `selectivity(A, V)` functions may consult.
    pub fn with_histograms(mut self, buckets: usize) -> Self {
        self.histogram_buckets = Some(buckets.max(1));
        self
    }

    /// Override the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The store's cost profile.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// Load a collection.
    pub fn add_collection(
        &mut self,
        name: impl Into<String>,
        builder: CollectionBuilder,
    ) -> Result<()> {
        let name = name.into();
        if self.collections.contains_key(&name) {
            return Err(DiscoError::Source(format!(
                "collection `{name}` already loaded"
            )));
        }
        let placed = builder.place(self.seed, &self.name, &name)?;
        // Columnarized once; the loaded rows are dropped with `placed`.
        let batch = Batch::from_tuples(placed.schema.arity(), &placed.tuples);
        let indexes = placed
            .indexes
            .iter()
            .map(|(attr, column)| {
                let key = Arc::clone(batch.column(*column));
                (attr.clone(), SortedIndex::build(key))
            })
            .collect();
        let page_base = self.next_page_base;
        self.next_page_base += placed.layout.pages().max(1);
        self.collections.insert(
            name,
            StoredCollection {
                schema: placed.schema,
                batch,
                layout: placed.layout,
                indexes,
                object_size: placed.object_size,
                page_base,
            },
        );
        Ok(())
    }

    fn collection(&self, name: &str) -> Result<&StoredCollection> {
        self.collections
            .get(name)
            .ok_or_else(|| DiscoError::Source(format!("unknown collection `{name}`")))
    }

    /// Pages of a collection (diagnostics, experiment reporting).
    pub fn pages_of(&self, collection: &str) -> Result<u64> {
        Ok(self.collection(collection)?.layout.pages())
    }
}

/// The page model's access paths: in-memory columns and indexes, with
/// every page touched going through one query's cold LRU pool, which
/// charges each fault to the clock as it happens.
struct PagedLeaves<'a> {
    store: &'a PagedStore,
    buf: BufferPool,
    /// Rids fetched since the last gather.
    fetched: Vec<u32>,
}

impl Leaves for PagedLeaves<'_> {
    type Rid = u32;
    const ENGINE: Option<&'static str> = Some("simulated");

    fn schema(&self, collection: &str) -> Result<Schema> {
        Ok(self.store.collection(collection)?.schema.clone())
    }

    fn scan(&mut self, collection: &str, clock: &mut VirtualClock) -> Result<(Batch, u64)> {
        let c = self.store.collection(collection)?;
        // Full sequential read: every page once, in storage order.
        for page in 0..c.layout.pages() {
            self.buf
                .access(c.page_base + page, &self.store.profile, clock);
        }
        clock.charge(c.batch.len() as f64 * self.store.profile.cpu_scan_ms);
        Ok((c.batch.clone(), c.batch.len() as u64))
    }

    fn has_index(&self, collection: &str, attr: &str) -> Result<bool> {
        Ok(self
            .store
            .collection(collection)?
            .indexes
            .contains_key(attr))
    }

    fn index_rids(
        &mut self,
        collection: &str,
        attr: &str,
        op: CompareOp,
        value: &Value,
    ) -> Result<Option<Vec<u32>>> {
        let c = self.store.collection(collection)?;
        Ok(c.indexes.get(attr).and_then(|index| index.scan(op, value)))
    }

    fn fetch(&mut self, collection: &str, rid: u32, clock: &mut VirtualClock) -> Result<()> {
        let c = self.store.collection(collection)?;
        let page = c.page_base + c.layout.page_of(rid as usize);
        self.buf.access(page, &self.store.profile, clock);
        self.fetched.push(rid);
        Ok(())
    }

    fn gather(&mut self, collection: &str) -> Result<Batch> {
        let c = self.store.collection(collection)?;
        Ok(c.batch.take(&std::mem::take(&mut self.fetched)))
    }

    fn settle(&mut self, _clock: &mut VirtualClock) -> PoolCounters {
        // Every fault is a data page: the index lives in memory.
        PoolCounters {
            hits: self.buf.hits(),
            faults: self.buf.faults(),
            data_faults: self.buf.faults(),
            evictions: self.buf.evictions(),
            ..PoolCounters::default()
        }
    }
}

impl DataSource for PagedStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn collections(&self) -> Vec<(String, Schema)> {
        self.collections
            .iter()
            .map(|(n, c)| (n.clone(), c.schema.clone()))
            .collect()
    }

    fn statistics(&self, collection: &str) -> Option<CollectionStats> {
        let c = self.collections.get(collection)?;
        let n = c.batch.len() as u64;
        let extent = ExtentStats {
            count_object: n,
            total_size: n * c.object_size,
            object_size: c.object_size,
            count_page: None,
        };
        let indexed = |attr: &str| c.indexes.contains_key(attr);
        let buckets = self.histogram_buckets;
        Some(walk::attribute_stats(
            extent, &c.schema, &c.batch, indexed, buckets,
        ))
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        let leaves = PagedLeaves {
            store: self,
            buf: BufferPool::new(DEFAULT_FRAMES),
            fetched: Vec::new(),
        };
        walk::answer(&self.name, &self.profile, plan, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::PlanBuilder;
    use disco_common::{AttributeDef, DataType, QualifiedName};

    fn small_store(cluster: bool) -> PagedStore {
        // 7000 objects × 56 B on 4096-byte pages @96% → 70/page, 100 pages.
        let schema = Schema::new(vec![
            AttributeDef::new("Id", DataType::Long),
            AttributeDef::new("BuildDate", DataType::Long),
        ]);
        let mut b = CollectionBuilder::new(schema)
            .rows((0..7_000i64).map(|i| vec![Value::Long(i), Value::Long(i % 100)]))
            .object_size(56)
            .index("Id");
        if cluster {
            b = b.cluster_on("Id");
        }
        let mut s = PagedStore::new("os", CostProfile::object_store());
        s.add_collection("AtomicParts", b).unwrap();
        s
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(
            QualifiedName::new("os", "AtomicParts"),
            Schema::new(vec![
                AttributeDef::new("Id", DataType::Long),
                AttributeDef::new("BuildDate", DataType::Long),
            ]),
        )
    }

    #[test]
    fn full_scan_costs_pages_plus_delivery() {
        let s = small_store(false);
        let ans = s.execute(&scan().build()).unwrap();
        assert_eq!(ans.batch.len(), 7_000);
        assert_eq!(ans.stats.pages_read, 100);
        let p = CostProfile::object_store();
        let expected = p.overhead_ms + 100.0 * p.io_ms + 7_000.0 * (p.cpu_scan_ms + p.output_ms);
        assert!((ans.stats.elapsed_ms - expected).abs() < 1e-6);
    }

    #[test]
    fn index_scan_touches_yao_many_pages() {
        let s = small_store(false);
        // 10% selectivity: k = 700 objects over 100 pages.
        let plan = scan().select("Id", CompareOp::Lt, 700i64).build();
        let ans = s.execute(&plan).unwrap();
        assert_eq!(ans.batch.len(), 700);
        // Yao expectation: 100 * (1 - (1 - 1/100 ... )) ≈ 99.9 pages.
        let expect = disco_core_yao(7_000, 100, 700);
        let got = ans.stats.pages_read as f64;
        assert!((got - expect).abs() < 8.0, "got {got}, expected ≈{expect}");
    }

    /// Local copy of the exact Yao formula to avoid a dependency cycle.
    fn disco_core_yao(n: u64, m: u64, k: u64) -> f64 {
        let (n, m_f) = (n as f64, m as f64);
        let per = n / m_f;
        let mut prod = 1.0;
        for i in 0..k {
            prod *= (n - per - i as f64) / (n - i as f64);
            if prod <= 0.0 {
                prod = 0.0;
                break;
            }
        }
        m_f * (1.0 - prod)
    }

    #[test]
    fn clustered_index_scan_touches_few_pages() {
        let s = small_store(true);
        let plan = scan().select("Id", CompareOp::Lt, 700i64).build();
        let ans = s.execute(&plan).unwrap();
        assert_eq!(ans.batch.len(), 700);
        // 700 consecutive keys at 70/page = 10 pages.
        assert_eq!(ans.stats.pages_read, 10);
        // Same answer as unclustered; the cost difference is exactly the
        // extra page faults (≈90 pages × 25 ms).
        let unc = small_store(false).execute(&plan).unwrap();
        assert_eq!(unc.batch.len(), 700);
        assert!(unc.stats.pages_read > 80);
        let delta_pages = (unc.stats.pages_read - ans.stats.pages_read) as f64;
        let delta_ms = unc.stats.elapsed_ms - ans.stats.elapsed_ms;
        assert!(
            (delta_ms - delta_pages * 25.0).abs() < 1e-6,
            "{delta_ms} vs {delta_pages}"
        );
    }

    #[test]
    fn selection_without_index_filters_full_scan() {
        let s = small_store(false);
        let plan = scan().select("BuildDate", CompareOp::Eq, 7i64).build();
        let ans = s.execute(&plan).unwrap();
        assert_eq!(ans.batch.len(), 70);
        assert_eq!(ans.stats.pages_read, 100); // full scan underneath
    }

    #[test]
    fn statistics_reflect_data() {
        let s = small_store(false);
        let st = s.statistics("AtomicParts").unwrap();
        assert_eq!(st.extent.count_object, 7_000);
        assert_eq!(st.extent.object_size, 56);
        let id = st.attribute("Id");
        assert!(id.indexed);
        assert_eq!(id.count_distinct, 7_000);
        assert_eq!(id.min, Value::Long(0));
        assert_eq!(id.max, Value::Long(6_999));
        let bd = st.attribute("BuildDate");
        assert!(!bd.indexed);
        assert_eq!(bd.count_distinct, 100);
        assert!(s.statistics("Nope").is_none());
    }

    #[test]
    fn index_join_executes() {
        let s = small_store(false);
        let left = scan().select("Id", CompareOp::Lt, 10i64);
        let plan = left.join(scan(), "Id", "Id").build();
        let ans = s.execute(&plan).unwrap();
        assert_eq!(ans.batch.len(), 10);
        assert_eq!(ans.schema.arity(), 4);
    }

    #[test]
    fn hash_join_fallback_on_unindexed() {
        let s = small_store(false);
        let plan = scan()
            .select("Id", CompareOp::Lt, 5i64)
            .join(
                scan().select("Id", CompareOp::Lt, 5i64),
                "BuildDate",
                "BuildDate",
            )
            .build();
        let ans = s.execute(&plan).unwrap();
        // BuildDate = Id%100 for Id<5: 5 × 5 pairs where equal → 5.
        assert_eq!(ans.batch.len(), 5);
    }

    #[test]
    fn aggregate_and_sort_paths() {
        let s = small_store(false);
        let plan = scan()
            .aggregate(
                &["BuildDate"],
                vec![("n", disco_algebra::AggFunc::Count, None)],
            )
            .build();
        let ans = s.execute(&plan).unwrap();
        assert_eq!(ans.batch.len(), 100);
        // Blocking root: first tuple arrives near the end.
        assert!(ans.stats.time_first_ms > ans.stats.elapsed_ms * 0.5);

        let sorted = s.execute(&scan().sort_asc(&["BuildDate"]).build()).unwrap();
        assert_eq!(sorted.batch.len(), 7_000);
        assert!(sorted.stats.time_first_ms > 0.0);
    }

    #[test]
    fn submit_rejected() {
        let s = small_store(false);
        let plan = scan().submit("os").build();
        assert_eq!(s.execute(&plan).unwrap_err().kind(), "source");
    }

    #[test]
    fn unknown_collection_rejected() {
        let s = small_store(false);
        let plan = PlanBuilder::scan(
            QualifiedName::new("os", "Ghost"),
            Schema::new(vec![AttributeDef::new("x", DataType::Long)]),
        )
        .build();
        assert_eq!(s.execute(&plan).unwrap_err().kind(), "source");
    }

    #[test]
    fn execution_is_deterministic() {
        let plan = scan().select("Id", CompareOp::Lt, 700i64).build();
        let a = small_store(false).execute(&plan).unwrap();
        let b = small_store(false).execute(&plan).unwrap();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn duplicate_collection_rejected() {
        let mut s = small_store(false);
        let e = s
            .add_collection(
                "AtomicParts",
                CollectionBuilder::new(Schema::new(vec![AttributeDef::new("x", DataType::Long)])),
            )
            .unwrap_err();
        assert_eq!(e.kind(), "source");
    }

    /// The index against a brute-force filter: every comparison, probes
    /// of every type (mixed-type keys follow the total order), unique and
    /// duplicate-heavy keys, equal keys in rid order.
    #[test]
    fn sorted_index_matches_filter_oracle() {
        let mut r = rng::seeded(rng::DEFAULT_SEED, "sorted-index-oracle");
        let unique: Vec<Value> = rng::permutation(&mut r, 2_000)
            .into_iter()
            .map(|i| Value::Long(i as i64))
            .collect();
        let domain: Vec<Value> = (0..10i64)
            .map(Value::Long)
            .chain((0..10).map(|i| Value::Double(i as f64 + 0.5)))
            .chain((0..10).map(|i| Value::Str(format!("k{i}"))))
            .chain([Value::Null])
            .collect();
        let duplicated: Vec<Value> = (0..2_000)
            .map(|_| domain[r.gen_range(0..domain.len())].clone())
            .collect();
        let probes = [
            Value::Long(-1),
            Value::Long(5),
            Value::Long(1_000),
            Value::Long(5_000),
            Value::Double(4.5),
            Value::Double(-0.5),
            Value::Str("k3".into()),
            Value::Str(String::new()),
            Value::Null,
        ];
        let index_of =
            |keys: &[Value]| SortedIndex::build(Arc::new(Column::from_values(keys.to_vec())));
        for keys in [&unique, &duplicated] {
            let index = index_of(keys);
            for probe in &probes {
                for op in [
                    CompareOp::Eq,
                    CompareOp::Ne,
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Gt,
                    CompareOp::Ge,
                ] {
                    let expect = (op != CompareOp::Ne).then(|| {
                        let mut rids: Vec<u32> = (0..keys.len() as u32)
                            .filter(|&rid| {
                                let ord = keys[rid as usize].total_cmp_value(probe);
                                match op {
                                    CompareOp::Eq => ord.is_eq(),
                                    CompareOp::Lt => ord.is_lt(),
                                    CompareOp::Le => ord.is_le(),
                                    CompareOp::Gt => ord.is_gt(),
                                    _ => ord.is_ge(),
                                }
                            })
                            .collect();
                        rids.sort_by(|&a, &b| {
                            keys[a as usize]
                                .total_cmp_value(&keys[b as usize])
                                .then(a.cmp(&b))
                        });
                        rids
                    });
                    assert_eq!(index.scan(op, probe), expect, "{op:?} {probe:?}");
                }
            }
        }
        // Equal keys come back in rid order.
        let rids = index_of(&duplicated)
            .scan(CompareOp::Eq, &Value::Long(5))
            .unwrap();
        assert!(rids.len() > 1 && rids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histograms_exported_on_request() {
        let schema = Schema::new(vec![AttributeDef::new("v", DataType::Long)]);
        // Heavy skew: 90% of the values are 7.
        let rows = (0..1_000i64).map(|i| vec![Value::Long(if i < 900 { 7 } else { i })]);
        let mut s = PagedStore::new("s", CostProfile::relational()).with_histograms(16);
        s.add_collection("T", CollectionBuilder::new(schema).rows(rows))
            .unwrap();
        let stats = s.statistics("T").unwrap();
        let attr = stats.attribute("v");
        let h = attr.histogram.as_ref().expect("histogram exported");
        assert_eq!(h.total(), 1_000);
        // Selectivity of v = 7 must reflect the skew, not 1/distinct.
        use disco_algebra::SelectPredicate;
        let sel = disco_catalog::restriction_selectivity(
            &stats,
            &SelectPredicate::new("v", CompareOp::Eq, Value::Long(7)),
        );
        assert!(sel > 0.5, "skew missed: {sel}");
        // Without histograms the uniform assumption misses it badly.
        let mut plain = PagedStore::new("p", CostProfile::relational());
        let schema = Schema::new(vec![AttributeDef::new("v", DataType::Long)]);
        let rows = (0..1_000i64).map(|i| vec![Value::Long(if i < 900 { 7 } else { i })]);
        plain
            .add_collection("T", CollectionBuilder::new(schema).rows(rows))
            .unwrap();
        let plain_stats = plain.statistics("T").unwrap();
        let plain_sel = disco_catalog::restriction_selectivity(
            &plain_stats,
            &SelectPredicate::new("v", CompareOp::Eq, Value::Long(7)),
        );
        assert!(
            plain_sel < 0.05,
            "uniform assumption should miss: {plain_sel}"
        );
    }
}
