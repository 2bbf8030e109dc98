//! The storage engine: named collections over one page file + buffer
//! pool, bulk-loaded once and then read-only.
//!
//! [`DiskCollectionBuilder`] is the one collection builder, and
//! [`DiskCollectionBuilder::place`] the one layout step: the seed
//! derivation (`"{store}::{collection}"`), the permutation draw or
//! cluster rank, and objects-per-page. The page model in
//! `disco-sources` loads the same [`PlacedCollection`] into memory, so
//! its fault counts and this engine's measured ones agree by
//! construction, and both follow Yao's prediction. Tuples keep their
//! logical (insertion) row ids: scans return rows in insertion order
//! even though the heap stores them in placement order.
//!
//! Queries run under a [`StoreSession`], which meters the I/O of the
//! thread it was opened on: any number of sessions, on as many threads,
//! read through the one pool at once and each sees only its own.

use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::Arc;

use disco_algebra::CompareOp;
use disco_common::{rng, DiscoError, Result, Schema, Tuple, Value};

use crate::btree::DiskBTree;
use crate::buffer::{thread_io, BufferPool, PoolCounters};
use crate::codec::{decode_tuple, encode_tuple};
use crate::file::PageFile;
use crate::heap::{HeapBuilder, HeapFile, Layout, Rid};

/// Buffer pool frames of a store unless configured otherwise: enough
/// that a cold query faults each distinct page it touches once — the
/// regime Yao's formula models.
pub const DEFAULT_FRAMES: usize = 2_048;

/// One loaded collection.
#[derive(Debug)]
pub struct DiskCollection {
    schema: Schema,
    heap: HeapFile,
    indexes: BTreeMap<String, DiskBTree>,
    object_size: u64,
    /// Logical row id → rid, in insertion order.
    rids: Vec<Rid>,
    /// Rid → logical row id.
    row_of: HashMap<Rid, u32>,
}

impl DiskCollection {
    /// Write a placed collection's records onto their modelled pages and
    /// build its indexes.
    fn load(placed: PlacedCollection, pool: &BufferPool) -> Result<DiskCollection> {
        let PlacedCollection {
            schema,
            tuples,
            object_size,
            layout,
            indexes: indexed,
        } = placed;
        let per_page = layout.per_page();
        let mut builder = HeapBuilder::new(pool.clone(), Some(per_page));
        let mut rids = vec![Rid { page: 0, slot: 0 }; tuples.len()];
        for (pos, row) in layout.storage_order().into_iter().enumerate() {
            let rid = builder.append(&encode_tuple(&tuples[row]))?;
            // Every record must land on its *modelled* page: a byte
            // spill can leave the total page count intact while moving
            // the boundaries, which would silently break the placement
            // the page model counts faults on.
            if rid.page as usize != pos / per_page {
                return Err(DiscoError::Source(format!(
                    "store: record at storage position {pos} spilled to \
                     page {} (modelled page {}) — object_size smaller \
                     than the encoded rows",
                    rid.page,
                    pos / per_page
                )));
            }
            rids[row] = rid;
        }
        let heap = builder.finish();
        let mut indexes = BTreeMap::new();
        for (attr, column) in indexed {
            let tree = DiskBTree::build(
                pool.clone(),
                tuples
                    .iter()
                    .enumerate()
                    .map(|(row, t)| (t.get(column).cloned().unwrap_or(Value::Null), rids[row])),
            )?;
            indexes.insert(attr, tree);
        }
        let row_of = rids
            .iter()
            .enumerate()
            .map(|(row, &rid)| (rid, row as u32))
            .collect();
        Ok(DiskCollection {
            schema,
            heap,
            indexes,
            object_size,
            rids,
            row_of,
        })
    }

    /// The collection's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rids.len()
    }

    /// Heap pages occupied.
    pub fn pages(&self) -> u64 {
        self.heap.pages()
    }

    /// Modelled object size in bytes.
    pub fn object_size(&self) -> u64 {
        self.object_size
    }

    /// Is `attr` indexed?
    pub fn has_index(&self, attr: &str) -> bool {
        self.indexes.contains_key(attr)
    }
}

/// Builder for one collection, of a [`DiskStore`] or of the page model
/// in `disco-sources` (which re-exports it as `CollectionBuilder`).
#[derive(Debug, Clone)]
pub struct DiskCollectionBuilder {
    schema: Schema,
    tuples: Vec<Tuple>,
    object_size: Option<u64>,
    page_size: u64,
    fill_factor: f64,
    cluster_on: Option<String>,
    indexes: Vec<String>,
}

/// A collection with its layout decided: what [`DiskStoreBuilder`]
/// writes to disk and what the page model keeps in memory.
#[derive(Debug)]
pub struct PlacedCollection {
    /// The collection's schema.
    pub schema: Schema,
    /// Rows in logical (insertion) order.
    pub tuples: Vec<Tuple>,
    /// Modelled object size in bytes.
    pub object_size: u64,
    /// The modelled page of every row.
    pub layout: Layout,
    /// Indexed attributes, each with its column.
    pub indexes: Vec<(String, usize)>,
}

impl DiskCollectionBuilder {
    /// Start a collection with the given schema.
    pub fn new(schema: Schema) -> Self {
        DiskCollectionBuilder {
            schema,
            tuples: Vec::new(),
            object_size: None,
            page_size: crate::page::PAGE_SIZE as u64,
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

    /// Modelled object size in bytes (defaults to the average tuple
    /// width; the OO7 `AtomicParts` are 56 bytes). Controls
    /// objects-per-page, not the stored record bytes.
    pub fn object_size(mut self, bytes: u64) -> Self {
        self.object_size = Some(bytes);
        self
    }

    /// Modelled page size (default 4096 — the physical page size; other
    /// values shift objects-per-page but pages on disk stay 4 KB).
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

    /// Index an attribute: an on-disk B+-tree in a [`DiskStore`], a
    /// sorted in-memory index in the page model.
    pub fn index(mut self, attr: impl Into<String>) -> Self {
        self.indexes.push(attr.into());
        self
    }

    /// The layout step, for collection `collection` of store `store`
    /// under placement seed `seed`: storage follows a permutation drawn
    /// from the `"{store}::{collection}"` stream, or the rank of each row
    /// under the cluster key, cut into pages of `⌊page_size ·
    /// fill_factor / object_size⌋` objects.
    pub fn place(self, seed: u64, store: &str, collection: &str) -> Result<PlacedCollection> {
        let n = self.tuples.len();
        let object_size = self.object_size.unwrap_or_else(|| {
            let total: u64 = self.tuples.iter().map(Tuple::width).sum();
            (total / n.max(1) as u64).max(1)
        });
        let rank: Vec<usize> = match &self.cluster_on {
            None => rng::permutation(&mut rng::seeded(seed, &format!("{store}::{collection}")), n),
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
                rank
            }
        };
        let indexes = self
            .indexes
            .into_iter()
            .map(|attr| {
                let column = self.schema.index_of(&attr).ok_or_else(|| {
                    DiscoError::Source(format!("cannot index unknown attribute `{attr}`"))
                })?;
                Ok((attr, column))
            })
            .collect::<Result<_>>()?;
        Ok(PlacedCollection {
            layout: Layout::new(rank, object_size, self.page_size, self.fill_factor),
            schema: self.schema,
            tuples: self.tuples,
            object_size,
            indexes,
        })
    }
}

/// Builder for a [`DiskStore`].
#[derive(Debug, Clone)]
pub struct DiskStoreBuilder {
    name: String,
    buffer_capacity: usize,
    seed: u64,
    collections: Vec<(String, DiskCollectionBuilder)>,
}

impl DiskStoreBuilder {
    /// Start a store with a pool of [`DEFAULT_FRAMES`] frames.
    pub fn new(name: impl Into<String>) -> Self {
        DiskStoreBuilder {
            name: name.into(),
            buffer_capacity: DEFAULT_FRAMES,
            seed: rng::DEFAULT_SEED,
            collections: Vec::new(),
        }
    }

    /// Override the buffer pool capacity (frames).
    pub fn buffer_capacity(mut self, frames: usize) -> Self {
        self.buffer_capacity = frames;
        self
    }

    /// Override the placement seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a collection to load.
    pub fn collection(mut self, name: impl Into<String>, builder: DiskCollectionBuilder) -> Self {
        self.collections.push((name.into(), builder));
        self
    }

    /// Create the page file, bulk-load every collection, flush, and drop
    /// the cache so the first query runs cold.
    pub fn build(self) -> Result<DiskStore> {
        let file = PageFile::create_temp(&self.name)?;
        let pool = BufferPool::new(file, self.buffer_capacity);
        let mut collections = BTreeMap::new();
        for (name, builder) in self.collections {
            if collections.contains_key(&name) {
                return Err(DiscoError::Source(format!(
                    "collection `{name}` already loaded"
                )));
            }
            let placed = builder.place(self.seed, &self.name, &name)?;
            collections.insert(name, DiskCollection::load(placed, &pool)?);
        }
        pool.clear_cache()?;
        Ok(DiskStore {
            name: Arc::new(self.name),
            pool,
            collections: Arc::new(collections),
        })
    }
}

/// A read-only disk-backed store. Cheap to clone; clones share the page
/// file, buffer pool, and counters.
#[derive(Debug, Clone)]
pub struct DiskStore {
    name: Arc<String>,
    pool: BufferPool,
    collections: Arc<BTreeMap<String, DiskCollection>>,
}

impl DiskStore {
    /// Store name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Collection names and schemas, in name order.
    pub fn collections(&self) -> Vec<(String, Schema)> {
        self.collections
            .iter()
            .map(|(n, c)| (n.clone(), c.schema.clone()))
            .collect()
    }

    /// Look up one collection.
    pub fn collection(&self, name: &str) -> Result<&DiskCollection> {
        self.collections
            .get(name)
            .ok_or_else(|| DiscoError::Source(format!("unknown collection `{name}`")))
    }

    /// Heap pages of a collection.
    pub fn pages_of(&self, collection: &str) -> Result<u64> {
        Ok(self.collection(collection)?.pages())
    }

    /// Lifetime pool counters.
    pub fn counters(&self) -> PoolCounters {
        self.pool.counters()
    }

    /// Buffer pool frame capacity.
    pub fn buffer_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Flush and drop cached pages: the next query runs cold.
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.clear_cache()
    }

    /// Open a metered session on the calling thread. Sessions do not
    /// exclude each other.
    pub fn session(&self) -> StoreSession<'_> {
        StoreSession {
            store: self,
            start: thread_io(),
            _on_one_thread: PhantomData,
        }
    }
}

/// One query's window onto the store. Its meter is the I/O the thread
/// that opened it has done since, so it stays on that thread (it is not
/// `Send`) and reads through one session at a time there.
pub struct StoreSession<'a> {
    store: &'a DiskStore,
    start: PoolCounters,
    _on_one_thread: PhantomData<*const ()>,
}

impl StoreSession<'_> {
    /// The underlying store.
    pub fn store(&self) -> &DiskStore {
        self.store
    }

    /// This session's pool activity since it opened.
    pub fn io(&self) -> PoolCounters {
        thread_io().delta(&self.start)
    }

    /// Full scan in logical (insertion) row order. Pages are read
    /// sequentially in storage order; rows are slotted back into
    /// insertion order so answers match the in-memory source exactly.
    pub fn scan(&self, collection: &str) -> Result<Vec<Tuple>> {
        let c = self.store.collection(collection)?;
        let mut out: Vec<Option<Tuple>> = vec![None; c.rids.len()];
        c.heap.scan(|rid, bytes| {
            let &row = c.row_of.get(&rid).ok_or_else(|| {
                DiscoError::Source(format!("store: unmapped rid {rid:?} in `{collection}`"))
            })?;
            out[row as usize] = Some(decode_tuple(bytes)?);
            Ok(())
        })?;
        out.into_iter()
            .enumerate()
            .map(|(row, t)| {
                t.ok_or_else(|| {
                    DiscoError::Source(format!("store: row {row} missing from `{collection}`"))
                })
            })
            .collect()
    }

    /// Fetch one row by rid (pins its heap page: one hit or fault).
    pub fn fetch(&self, collection: &str, rid: Rid) -> Result<Tuple> {
        self.store
            .collection(collection)?
            .heap
            .get(rid, decode_tuple)
    }

    /// Rids matching `attr op value` via the index, in key order.
    /// `None` when the attribute has no index or the operator defeats
    /// one (`Ne`) — same contract as the page model's sorted index.
    pub fn index_rids(
        &self,
        collection: &str,
        attr: &str,
        op: CompareOp,
        value: &Value,
    ) -> Result<Option<Vec<Rid>>> {
        let c = self.store.collection(collection)?;
        match c.indexes.get(attr) {
            Some(tree) => tree.scan(op, value),
            None => Ok(None),
        }
    }

    /// Rids with exactly `value` under `attr`'s index; `None` without an
    /// index.
    pub fn lookup_rids(
        &self,
        collection: &str,
        attr: &str,
        value: &Value,
    ) -> Result<Option<Vec<Rid>>> {
        let c = self.store.collection(collection)?;
        match c.indexes.get(attr) {
            Some(tree) => tree.lookup(value).map(Some),
            None => Ok(None),
        }
    }

    /// Distinct keys in `attr`'s index, if one exists.
    pub fn distinct_keys(&self, collection: &str, attr: &str) -> Result<Option<usize>> {
        let c = self.store.collection(collection)?;
        match c.indexes.get(attr) {
            Some(tree) => tree.distinct_keys().map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::{AttributeDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("label", DataType::Str),
        ])
    }

    fn store(n: i64, clustered: bool) -> DiskStore {
        let mut b = DiskCollectionBuilder::new(schema())
            .rows((0..n).map(|i| vec![Value::Long(i), Value::Str(format!("row-{i}"))]))
            .object_size(56)
            .index("id");
        if clustered {
            b = b.cluster_on("id");
        }
        DiskStoreBuilder::new("test-store")
            .collection("T", b)
            .build()
            .unwrap()
    }

    #[test]
    fn scan_returns_insertion_order() {
        let s = store(500, false);
        let session = s.session();
        let rows = session.scan("T").unwrap();
        assert_eq!(rows.len(), 500);
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(t.get(0), Some(&Value::Long(i as i64)));
            assert_eq!(t.get(1), Some(&Value::Str(format!("row-{i}"))));
        }
    }

    #[test]
    fn layout_matches_simulated_formula() {
        // 500 objects × 56 B on 4096 B pages at 96 % fill → 70/page → 8.
        let s = store(500, false);
        assert_eq!(s.pages_of("T").unwrap(), 8);
    }

    #[test]
    fn cold_scan_faults_every_page_once() {
        let s = store(500, false);
        s.clear_cache().unwrap();
        let session = s.session();
        session.scan("T").unwrap();
        let io = session.io();
        assert_eq!(io.data_faults, 8);
        // Second scan in the same (warm) session: all hits.
        session.scan("T").unwrap();
        assert_eq!(session.io().data_faults, 8);
        assert!(session.io().hits >= 8);
    }

    #[test]
    fn index_lookup_touches_one_data_page() {
        let s = store(500, false);
        s.clear_cache().unwrap();
        let session = s.session();
        let rids = session
            .lookup_rids("T", "id", &Value::Long(123))
            .unwrap()
            .unwrap();
        assert_eq!(rids.len(), 1);
        let t = session.fetch("T", rids[0]).unwrap();
        assert_eq!(t.get(1), Some(&Value::Str("row-123".into())));
        assert_eq!(session.io().data_faults, 1);
    }

    #[test]
    fn clustered_range_scan_touches_few_pages() {
        let s = store(500, true);
        s.clear_cache().unwrap();
        let session = s.session();
        // 70 consecutive ids live on 1–2 pages when clustered.
        let rids = session
            .index_rids("T", "id", CompareOp::Lt, &Value::Long(70))
            .unwrap()
            .unwrap();
        assert_eq!(rids.len(), 70);
        for rid in rids {
            session.fetch("T", rid).unwrap();
        }
        assert!(session.io().data_faults <= 2, "{:?}", session.io());
    }

    #[test]
    fn random_range_scan_touches_many_pages() {
        let s = store(500, false);
        s.clear_cache().unwrap();
        let session = s.session();
        let rids = session
            .index_rids("T", "id", CompareOp::Lt, &Value::Long(70))
            .unwrap()
            .unwrap();
        let mut distinct = std::collections::HashSet::new();
        for rid in &rids {
            distinct.insert(rid.page);
        }
        for rid in rids {
            session.fetch("T", rid).unwrap();
        }
        // Uniform placement scatters 70 of 500 rows across most pages.
        assert!(session.io().data_faults >= 6, "{:?}", session.io());
        assert_eq!(session.io().data_faults, distinct.len() as u64);
    }

    #[test]
    fn unknown_collection_and_unindexed_attr() {
        let s = store(10, false);
        let session = s.session();
        assert!(session.scan("missing").is_err());
        assert_eq!(
            session
                .index_rids("T", "label", CompareOp::Eq, &Value::Str("row-3".into()))
                .unwrap(),
            None
        );
    }

    #[test]
    fn overflow_detected_when_rows_exceed_model() {
        // object_size 4000 → 1 per page cap, but rows are tiny: fine.
        // object_size 1 → 3932 per page cap, rows ~20 B: bytes overflow.
        let r = DiskStoreBuilder::new("overflow")
            .collection(
                "T",
                DiskCollectionBuilder::new(schema())
                    .rows((0..5000i64).map(|i| vec![Value::Long(i), Value::Str("x".into())]))
                    .object_size(1),
            )
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn concurrent_sessions_answer_and_meter_like_one_thread_at_a_time() {
        // The `store_probe` geometry: 70 000 objects at 70 to the page
        // are 1 000 heap pages, behind 256 frames.
        const ROWS: i64 = 70_000;
        const THREADS: usize = 4;
        const SESSIONS: usize = 200;
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let parts = DiskCollectionBuilder::new(schema)
            .rows((0..ROWS).map(|i| vec![Value::Long(i), Value::Long(i * 7 % 1_000)]))
            .object_size(56)
            .index("id");
        let s = DiskStoreBuilder::new("concurrent")
            .buffer_capacity(256)
            .collection("T", parts)
            .build()
            .unwrap();
        assert_eq!(s.pages_of("T").unwrap(), 1_000);

        // One session: an index probe and a fetch for each of 24
        // consecutive ids — scattered over about as many heap pages.
        let probe = |s: &DiskStore, lo: i64| -> Result<(Vec<Tuple>, PoolCounters)> {
            let session = s.session();
            let mut rows = Vec::new();
            for id in lo..lo + 24 {
                let rids = session.lookup_rids("T", "id", &Value::Long(id))?;
                for rid in rids.expect("indexed") {
                    rows.push(session.fetch("T", rid)?);
                }
            }
            Ok((rows, session.io()))
        };
        let lows: Vec<i64> = {
            let mut r = rng::seeded(rng::DEFAULT_SEED, "concurrent-sessions");
            (0..THREADS * SESSIONS)
                .map(|_| (r.next_u64() % (ROWS as u64 - 24)) as i64)
                .collect()
        };
        let expected: Vec<Vec<Tuple>> = lows.iter().map(|&lo| probe(&s, lo).unwrap().0).collect();
        for (lo, rows) in lows.iter().zip(&expected) {
            let ids: Vec<Value> = rows.iter().map(|t| t.get(0).unwrap().clone()).collect();
            assert_eq!(ids, (*lo..lo + 24).map(Value::Long).collect::<Vec<_>>());
        }

        // What a session meters, field by field as the pool counts it.
        let metered =
            |c: &PoolCounters| [c.hits, c.faults, c.data_faults, c.index_faults, c.evictions];
        s.clear_cache().unwrap();
        let before = s.counters();
        let start = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<[u64; 5]> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (s, lows, expected, start) = (&s, &lows, &expected, &start);
                    scope.spawn(move || {
                        let mut mine = [0u64; 5];
                        start.wait();
                        // Thread `t` walks the shared list from its own
                        // offset, so every page is wanted by several
                        // threads at about the same time.
                        for k in 0..SESSIONS {
                            let q = (k * THREADS + t) % lows.len();
                            let (rows, io) =
                                probe(s, lows[q]).expect("no session runs out of frames");
                            assert_eq!(rows, expected[q], "thread {t} query {q}");
                            assert!(s.pool.resident() <= s.buffer_capacity());
                            for (sum, part) in mine.iter_mut().zip(metered(&io)) {
                                *sum += part;
                            }
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });

        // What the sessions metered, summed, is what the pool counted.
        let pool = s.counters().delta(&before);
        let summed = per_thread.iter().fold([0u64; 5], |mut sum, mine| {
            for (sum, part) in sum.iter_mut().zip(mine) {
                *sum += part;
            }
            sum
        });
        assert_eq!(summed, metered(&pool));
        assert!(
            pool.evictions > 1_000,
            "{pool:?}: the pool was never under pressure"
        );
    }
}
