//! The paged store engine — the simulated object-database / relational
//! substrate.
//!
//! A [`PagedStore`] holds collections laid out on simulated pages
//! ([`HeapFile`]), optionally indexed ([`BPlusTree`]) and optionally
//! clustered. Executing a subplan really performs the page accesses
//! through a cold LRU [`BufferPool`] and charges the source's
//! [`CostProfile`] to a [`VirtualClock`] — the "Experiment" series of
//! Figure 12 is the elapsed time this engine reports for index scans at
//! varying selectivity.

use std::collections::BTreeMap;

use disco_algebra::{CompareOp, LogicalPlan};
use disco_catalog::{CollectionStats, ExtentStats};
use disco_common::rng::StdRng;
use disco_common::{rng, DiscoError, Result, Schema, Tuple, Value};
use disco_store::PoolCounters;

use crate::btree::BPlusTree;
use crate::buffer::BufferPool;
use crate::clock::{CostProfile, VirtualClock};
use crate::heap::{HeapFile, Placement};
use crate::source::{DataSource, SubAnswer};
use crate::walk::{self, Leaves};

/// One collection stored in the engine.
#[derive(Debug, Clone)]
struct StoredCollection {
    schema: Schema,
    tuples: Vec<Tuple>,
    heap: HeapFile,
    indexes: BTreeMap<String, BPlusTree>,
    object_size: u64,
    /// Offset added to local page numbers so collections share the
    /// buffer pool without collisions.
    page_base: u64,
}

/// Builder for loading one collection into a [`PagedStore`].
#[derive(Debug, Clone)]
pub struct CollectionBuilder {
    schema: Schema,
    tuples: Vec<Tuple>,
    object_size: Option<u64>,
    page_size: u64,
    fill_factor: f64,
    cluster_on: Option<String>,
    indexes: Vec<String>,
}

impl CollectionBuilder {
    /// Start a collection with the given schema.
    pub fn new(schema: Schema) -> Self {
        CollectionBuilder {
            schema,
            tuples: Vec::new(),
            object_size: None,
            page_size: 4_096,
            fill_factor: 0.96,
            cluster_on: None,
            indexes: Vec::new(),
        }
    }

    /// Add one row.
    pub fn row(mut self, values: Vec<Value>) -> Self {
        self.tuples.push(Tuple::new(values));
        self
    }

    /// Add many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        self.tuples.extend(rows.into_iter().map(Tuple::new));
        self
    }

    /// Logical on-disk object size in bytes (defaults to the average
    /// tuple width). The OO7 `AtomicParts` are 56 bytes.
    pub fn object_size(mut self, bytes: u64) -> Self {
        self.object_size = Some(bytes);
        self
    }

    /// Page size in bytes (default 4096).
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.page_size = bytes;
        self
    }

    /// Page fill factor (default 0.96, the OO7 setup).
    pub fn fill_factor(mut self, f: f64) -> Self {
        self.fill_factor = f;
        self
    }

    /// Cluster storage on an attribute's order instead of uniform random
    /// placement.
    pub fn cluster_on(mut self, attr: impl Into<String>) -> Self {
        self.cluster_on = Some(attr.into());
        self
    }

    /// Build a B+-tree index on an attribute.
    pub fn index(mut self, attr: impl Into<String>) -> Self {
        self.indexes.push(attr.into());
        self
    }

    fn build(self, page_base: u64, rng_source: &mut StdRng) -> Result<StoredCollection> {
        let n = self.tuples.len();
        let object_size = self.object_size.unwrap_or_else(|| {
            let total: u64 = self.tuples.iter().map(Tuple::width).sum();
            (total / n.max(1) as u64).max(1)
        });
        // Clustering rank: position of each object in the cluster key order.
        let rank = match &self.cluster_on {
            None => None,
            Some(attr) => {
                let idx = self.schema.index_of(attr).ok_or_else(|| {
                    DiscoError::Source(format!("cannot cluster on unknown attribute `{attr}`"))
                })?;
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    let (x, y) = (self.tuples[a].get(idx), self.tuples[b].get(idx));
                    match (x, y) {
                        (Some(x), Some(y)) => x.total_cmp_value(y),
                        _ => std::cmp::Ordering::Equal,
                    }
                });
                let mut rank = vec![0usize; n];
                for (pos, &obj) in order.iter().enumerate() {
                    rank[obj] = pos;
                }
                Some(rank)
            }
        };
        let placement = if self.cluster_on.is_some() {
            Placement::Clustered
        } else {
            Placement::Random
        };
        let heap = HeapFile::layout(
            n,
            object_size,
            self.page_size,
            self.fill_factor,
            placement,
            rank,
            rng_source,
        );
        let mut indexes = BTreeMap::new();
        for attr in &self.indexes {
            let idx = self.schema.index_of(attr).ok_or_else(|| {
                DiscoError::Source(format!("cannot index unknown attribute `{attr}`"))
            })?;
            let tree = BPlusTree::build(
                self.tuples
                    .iter()
                    .enumerate()
                    .map(|(rid, t)| (t.get(idx).cloned().unwrap_or(Value::Null), rid as u32)),
            );
            indexes.insert(attr.clone(), tree);
        }
        Ok(StoredCollection {
            schema: self.schema,
            tuples: self.tuples,
            heap,
            indexes,
            object_size,
            page_base,
        })
    }
}

/// A simulated paged data source.
#[derive(Debug, Clone)]
pub struct PagedStore {
    name: String,
    profile: CostProfile,
    buffer_capacity: usize,
    collections: BTreeMap<String, StoredCollection>,
    seed: u64,
    next_page_base: u64,
    histogram_buckets: Option<usize>,
}

impl PagedStore {
    /// New store with a cost profile. The default buffer pool holds 2048
    /// pages — large enough that a query faults each distinct page once
    /// (the regime Yao's formula models).
    pub fn new(name: impl Into<String>, profile: CostProfile) -> Self {
        PagedStore {
            name: name.into(),
            profile,
            buffer_capacity: 2_048,
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

    /// Override the buffer pool capacity (pages).
    pub fn with_buffer_capacity(mut self, pages: usize) -> Self {
        self.buffer_capacity = pages;
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
        let mut r = rng::seeded(self.seed, &format!("{}::{name}", self.name));
        let built = builder.build(self.next_page_base, &mut r)?;
        self.next_page_base += built.heap.pages().max(1);
        self.collections.insert(name, built);
        Ok(())
    }

    fn collection(&self, name: &str) -> Result<&StoredCollection> {
        self.collections
            .get(name)
            .ok_or_else(|| DiscoError::Source(format!("unknown collection `{name}`")))
    }

    /// Pages of a collection (diagnostics, experiment reporting).
    pub fn pages_of(&self, collection: &str) -> Result<u64> {
        Ok(self.collection(collection)?.heap.pages())
    }
}

/// The simulated engine's access paths: in-memory rows and B+-trees, with
/// every page touched going through one query's cold [`BufferPool`],
/// which charges each fault to the clock as it happens.
struct PagedLeaves<'a> {
    store: &'a PagedStore,
    buf: BufferPool,
}

impl Leaves for PagedLeaves<'_> {
    type Rid = u32;
    const ENGINE: Option<&'static str> = Some("simulated");

    fn schema(&self, collection: &str) -> Result<Schema> {
        Ok(self.store.collection(collection)?.schema.clone())
    }

    fn scan(&mut self, collection: &str, clock: &mut VirtualClock) -> Result<(Vec<Tuple>, u64)> {
        let c = self.store.collection(collection)?;
        // Full sequential read: every page once, in storage order.
        for page in 0..c.heap.pages() {
            self.buf
                .access(c.page_base + page, &self.store.profile, clock);
        }
        clock.charge(c.tuples.len() as f64 * self.store.profile.cpu_scan_ms);
        Ok((c.tuples.clone(), c.tuples.len() as u64))
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
        Ok(c.indexes.get(attr).and_then(|tree| tree.scan(op, value)))
    }

    fn fetch(&mut self, collection: &str, rid: u32, clock: &mut VirtualClock) -> Result<Tuple> {
        let c = self.store.collection(collection)?;
        let page = c.page_base + c.heap.page_of(rid as usize);
        self.buf.access(page, &self.store.profile, clock);
        Ok(c.tuples[rid as usize].clone())
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
        let n = c.tuples.len() as u64;
        let extent = ExtentStats {
            count_object: n,
            total_size: n * c.object_size,
            object_size: c.object_size,
            count_page: None,
        };
        let indexed = |attr: &str| c.indexes.contains_key(attr);
        let buckets = self.histogram_buckets;
        Some(walk::attribute_stats(
            extent, &c.schema, &c.tuples, indexed, buckets,
        ))
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        let leaves = PagedLeaves {
            store: self,
            buf: BufferPool::new(self.buffer_capacity),
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
        assert_eq!(ans.tuples.len(), 7_000);
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
        assert_eq!(ans.tuples.len(), 700);
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
        assert_eq!(ans.tuples.len(), 700);
        // 700 consecutive keys at 70/page = 10 pages.
        assert_eq!(ans.stats.pages_read, 10);
        // Same answer as unclustered; the cost difference is exactly the
        // extra page faults (≈90 pages × 25 ms).
        let unc = small_store(false).execute(&plan).unwrap();
        assert_eq!(unc.tuples.len(), 700);
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
        assert_eq!(ans.tuples.len(), 70);
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
        assert_eq!(ans.tuples.len(), 10);
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
        assert_eq!(ans.tuples.len(), 5);
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
        assert_eq!(ans.tuples.len(), 100);
        // Blocking root: first tuple arrives near the end.
        assert!(ans.stats.time_first_ms > ans.stats.elapsed_ms * 0.5);

        let sorted = s.execute(&scan().sort_asc(&["BuildDate"]).build()).unwrap();
        assert_eq!(sorted.tuples.len(), 7_000);
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
