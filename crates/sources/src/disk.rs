//! A [`DataSource`] backed by the real disk engine in `disco-store`.
//!
//! [`StoreSource`] gives the shared plan walker (`walk`) the same access
//! paths as [`PagedStore`] (sequential scans, index selections, index
//! joins) but its page faults are *performed*, not simulated: every heap
//! or index page comes through `disco-store`'s
//! buffer pool, and [`ExecStats::pages_read`](crate::ExecStats) reports the data-page
//! faults that actually happened. CPU and delivery time still accrue on
//! the virtual clock with the same constants as the simulated engine, and
//! each fault charges the same 25 ms, so elapsed figures stay comparable
//! across the two engines; index-page I/O is counted in the pool's
//! metrics but not charged (the simulated engine keeps its index in
//! memory, and the cost rules fold traversal into `Probe`).
//!
//! Unlike the simulated store, the pool is *shared across queries*: runs
//! warm unless [`StoreSource::clear_cache`] intervenes. Cold-cache
//! experiments (the Yao validation regime) clear between queries;
//! leaving the cache warm exercises the catalog's `CacheRegime::Warm`
//! scopes.
//!
//! [`PagedStore`]: crate::store::PagedStore

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use disco_algebra::{CompareOp, LogicalPlan};
use disco_catalog::{CollectionStats, ExtentStats};
use disco_common::{Batch, ColumnBuilder, Result, Schema, Value};
use disco_store::{DiskStore, PoolCounters, Rid, StoreSession};

use crate::clock::{CostProfile, VirtualClock};
use crate::source::{DataSource, SubAnswer};
use crate::walk::{self, Leaves};

/// A disk-backed data source.
#[derive(Debug, Clone)]
pub struct StoreSource {
    store: DiskStore,
    profile: CostProfile,
    histogram_buckets: Option<usize>,
    stats_cache: Arc<Mutex<BTreeMap<String, CollectionStats>>>,
}

impl StoreSource {
    /// Wrap a loaded [`DiskStore`] with a cost profile.
    pub fn new(store: DiskStore, profile: CostProfile) -> Self {
        StoreSource {
            store,
            profile,
            histogram_buckets: None,
            stats_cache: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Export equi-depth histograms for numeric attributes, like
    /// [`PagedStore::with_histograms`].
    ///
    /// [`PagedStore::with_histograms`]: crate::store::PagedStore::with_histograms
    pub fn with_histograms(mut self, buckets: usize) -> Self {
        self.histogram_buckets = Some(buckets.max(1));
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// The store's cost profile.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// Drop cached pages so the next query runs against a cold pool.
    pub fn clear_cache(&self) -> Result<()> {
        self.store.clear_cache()
    }

    /// Lifetime buffer-pool counters (across all queries so far).
    pub fn pool_counters(&self) -> PoolCounters {
        self.store.counters()
    }
}

/// The disk engine's access paths: one metered session on the shared
/// pool. Its faults happen for real and are charged once, in
/// [`Leaves::settle`], from the session's counters.
struct DiskLeaves<'a> {
    session: StoreSession<'a>,
    profile: &'a CostProfile,
    /// Rows fetched since the last gather, decoded straight into one
    /// builder per attribute; empty when nothing is staged.
    fetched: Vec<ColumnBuilder>,
}

impl DiskLeaves<'_> {
    fn arity(&self, collection: &str) -> Result<usize> {
        Ok(self
            .session
            .store()
            .collection(collection)?
            .schema()
            .arity())
    }

    /// Builders for the rows of `collection` about to be fetched, room
    /// for `rows` of them reserved, unless some are staged already.
    fn stage(&mut self, collection: &str, rows: usize) -> Result<()> {
        if self.fetched.is_empty() {
            let arity = self.arity(collection)?;
            self.fetched = (0..arity)
                .map(|_| ColumnBuilder::with_capacity(rows))
                .collect();
        }
        Ok(())
    }
}

impl Leaves for DiskLeaves<'_> {
    type Rid = Rid;
    const ENGINE: Option<&'static str> = Some("disk");

    fn schema(&self, collection: &str) -> Result<Schema> {
        Ok(self
            .session
            .store()
            .collection(collection)?
            .schema()
            .clone())
    }

    fn scan(&mut self, collection: &str, clock: &mut VirtualClock) -> Result<(Batch, u64)> {
        let batch = self.session.scan(collection)?;
        clock.charge(batch.len() as f64 * self.profile.cpu_scan_ms);
        let rows = batch.len() as u64;
        Ok((batch, rows))
    }

    fn has_index(&self, collection: &str, attr: &str) -> Result<bool> {
        Ok(self.session.store().collection(collection)?.has_index(attr))
    }

    fn index_rids(
        &mut self,
        collection: &str,
        attr: &str,
        op: CompareOp,
        value: &Value,
    ) -> Result<Option<Vec<Rid>>> {
        let rids = self.session.index_rids(collection, attr, op, value)?;
        if let Some(rids) = &rids {
            self.stage(collection, rids.len())?;
        }
        Ok(rids)
    }

    fn fetch(
        &mut self,
        collection: &str,
        rids: &[Rid],
        per_row_ms: f64,
        clock: &mut VirtualClock,
    ) -> Result<()> {
        self.stage(collection, rids.len())?;
        self.session
            .fetch_into(collection, rids, &mut self.fetched)?;
        for _ in rids {
            clock.charge(per_row_ms);
        }
        Ok(())
    }

    fn gather(&mut self, collection: &str) -> Result<Batch> {
        self.stage(collection, 0)?;
        let columns = std::mem::take(&mut self.fetched);
        Batch::from_columns(columns.into_iter().map(|b| Arc::new(b.finish())).collect())
    }

    fn settle(&mut self, clock: &mut VirtualClock) -> PoolCounters {
        let io = self.session.io();
        // Charge the fault I/O that physically happened (data pages; see
        // module docs for why index pages are uncharged).
        clock.charge(io.data_faults as f64 * self.profile.io_ms);
        io
    }
}

impl DataSource for StoreSource {
    fn name(&self) -> &str {
        self.store.name()
    }

    fn collections(&self) -> Vec<(String, Schema)> {
        self.store.collections()
    }

    fn statistics(&self, collection: &str) -> Option<CollectionStats> {
        // The cache only ever holds finished statistics, so a panic
        // elsewhere cannot leave it half-updated: ignore poisoning.
        let mut cache = self
            .stats_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = cache.get(collection) {
            return Some(cached.clone());
        }
        let c = self.store.collection(collection).ok()?;
        let batch = self.store.session().scan(collection).ok()?;
        let n = batch.len() as u64;
        let extent = ExtentStats {
            count_object: n,
            total_size: n * c.object_size(),
            object_size: c.object_size(),
            // Real engines know their page count — export it measured.
            count_page: Some(c.pages()),
        };
        let indexed = |attr: &str| c.has_index(attr);
        let buckets = self.histogram_buckets;
        let stats = walk::attribute_stats(extent, c.schema(), &batch, indexed, buckets);
        cache.insert(collection.to_string(), stats.clone());
        Some(stats)
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        let leaves = DiskLeaves {
            session: self.store.session(),
            profile: &self.profile,
            fetched: Vec::new(),
        };
        walk::answer(self.store.name(), &self.profile, plan, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::PlanBuilder;
    use disco_common::{AttributeDef, DataType, QualifiedName};
    use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ])
    }

    fn source(n: i64) -> StoreSource {
        let store = DiskStoreBuilder::new("disk")
            .collection(
                "T",
                DiskCollectionBuilder::new(schema())
                    .rows((0..n).map(|i| vec![Value::Long(i), Value::Long(i % 10)]))
                    .object_size(56)
                    .index("id"),
            )
            .build()
            .unwrap();
        StoreSource::new(store, CostProfile::object_store())
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(QualifiedName::new("disk", "T"), schema())
    }

    #[test]
    fn scan_executes_and_reports_real_faults() {
        let s = source(700);
        s.clear_cache().unwrap();
        let plan = scan().build();
        let a = s.execute(&plan).unwrap();
        assert_eq!(a.batch.len(), 700);
        // 700 × 56 B at 96 % fill → 70 per page → 10 pages, all faulted.
        assert_eq!(a.stats.pages_read, 10);
        assert_eq!(a.stats.objects_scanned, 700);
        // Warm re-run: zero faults, all hits.
        let b = s.execute(&plan).unwrap();
        assert_eq!(b.stats.pages_read, 0);
        assert!(b.stats.buffer_hits >= 10);
        assert_eq!(b.batch, a.batch);
    }

    #[test]
    fn index_select_fetches_only_matching_pages() {
        let s = source(700);
        s.clear_cache().unwrap();
        let plan = scan().select("id", CompareOp::Eq, 123i64).build();
        let a = s.execute(&plan).unwrap();
        assert_eq!(a.batch.len(), 1);
        assert_eq!(a.stats.pages_read, 1);
        assert_eq!(a.batch.value_ref(0, 0), disco_common::ValueRef::Long(123));
    }

    #[test]
    fn statistics_export_measured_pages() {
        let s = source(700);
        let stats = s.statistics("T").unwrap();
        assert_eq!(stats.extent.count_object, 700);
        assert_eq!(stats.extent.count_page, Some(10));
        assert_eq!(stats.extent.count_pages(4_096), 10);
        assert!(stats.attributes.get("id").unwrap().indexed);
        assert!(!stats.attributes.get("v").unwrap().indexed);
        // Cached second call.
        assert_eq!(s.statistics("T").unwrap(), stats);
        assert!(s.statistics("missing").is_none());
    }

    #[test]
    fn elapsed_matches_simulated_formula_for_cold_scan() {
        let s = source(700);
        s.clear_cache().unwrap();
        let plan = scan().build();
        let a = s.execute(&plan).unwrap();
        let p = CostProfile::object_store();
        let expect = p.overhead_ms + 10.0 * p.io_ms + 700.0 * p.cpu_scan_ms + 700.0 * p.output_ms;
        assert!((a.stats.elapsed_ms - expect).abs() < 1e-9);
    }
}
