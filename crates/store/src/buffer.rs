//! The buffer pool.
//!
//! Frames cache [`Page`]s read from a [`PageFile`]. Accessors pin a page
//! ([`PageRef`] unpins on drop); dirty frames are written back when
//! evicted (LRU over unpinned frames) or on [`BufferPool::flush`]. All
//! state sits behind one non-reentrant mutex, so callers must never pin
//! or allocate from *inside* a [`BufferPool::with_page_mut`] closure.
//!
//! Page ids are dense file offsets, so the frame table is a `Vec` indexed
//! by page id: a pin and an unpin index it directly, nothing is hashed.
//! Eviction is exact LRU — the victim is the unpinned frame with the
//! smallest `last_used` tick, a pure function of the access history —
//! found by walking an ordered `last_used → page` index of the resident
//! frames from its old end past whatever is pinned (a handful of frames
//! at most), instead of scanning every frame on every fault.
//!
//! Counters distinguish data (heap) from index (B+Tree) faults so cost
//! models can attribute I/O to the operator that caused it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use disco_common::{DiscoError, Result};

use crate::file::PageFile;
use crate::page::{Page, PageId, PageKind};

/// Snapshot of pool activity. Monotonic; diff two snapshots with
/// [`PoolCounters::delta`] to meter one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that went to disk.
    pub faults: u64,
    /// Faults on heap pages.
    pub data_faults: u64,
    /// Faults on B+Tree pages.
    pub index_faults: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back (eviction or flush).
    pub writebacks: u64,
}

impl PoolCounters {
    /// Activity since `since` was captured.
    pub fn delta(&self, since: &PoolCounters) -> PoolCounters {
        PoolCounters {
            hits: self.hits - since.hits,
            faults: self.faults - since.faults,
            data_faults: self.data_faults - since.data_faults,
            index_faults: self.index_faults - since.index_faults,
            evictions: self.evictions - since.evictions,
            writebacks: self.writebacks - since.writebacks,
        }
    }
}

#[derive(Debug)]
struct Frame {
    page: Arc<Page>,
    pins: u32,
    dirty: bool,
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    file: PageFile,
    capacity: usize,
    tick: u64,
    /// Frame table, indexed by page id; `None` = not resident.
    frames: Vec<Option<Frame>>,
    /// `last_used → page`, one entry per resident frame. Ticks are
    /// unique within a pool, so the keys are too.
    lru: BTreeMap<u64, PageId>,
    counters: PoolCounters,
}

impl Inner {
    fn frame(&mut self, id: PageId) -> Option<&mut Frame> {
        self.frames.get_mut(id as usize)?.as_mut()
    }

    /// Install a frame for `id` as the most recently used.
    fn install(&mut self, id: PageId, page: Page, dirty: bool) -> &mut Frame {
        self.tick += 1;
        self.lru.insert(self.tick, id);
        let slot = id as usize;
        if slot >= self.frames.len() {
            self.frames.resize_with(slot + 1, || None);
        }
        self.frames[slot].insert(Frame {
            page: Arc::new(page),
            pins: 0,
            dirty,
            last_used: self.tick,
        })
    }

    /// Make room for one more frame: evict the least recently used
    /// unpinned frame until the pool is below capacity.
    fn make_room(&mut self) -> Result<()> {
        while self.lru.len() >= self.capacity {
            let frames = &self.frames;
            let victim = self
                .lru
                .iter()
                .find(|&(_, &pid)| frames[pid as usize].as_ref().is_some_and(|f| f.pins == 0))
                .map(|(&tick, &pid)| (tick, pid));
            let Some((tick, pid)) = victim else {
                return Err(DiscoError::Source(format!(
                    "store: buffer pool exhausted ({} frames, all pinned)",
                    self.lru.len()
                )));
            };
            self.lru.remove(&tick);
            let frame = self.frames[pid as usize]
                .take()
                .expect("indexed frame is resident");
            if frame.dirty {
                self.file.write_page(pid, &frame.page)?;
                self.counters.writebacks += 1;
            }
            self.counters.evictions += 1;
        }
        Ok(())
    }

    /// Ensure `id` is resident, recording hit/fault, mark it most
    /// recently used and return its frame.
    fn load(&mut self, id: PageId) -> Result<&mut Frame> {
        if self.frame(id).is_none() {
            self.make_room()?;
            let page = self.file.read_page(id)?;
            self.counters.faults += 1;
            match page.kind() {
                Some(PageKind::Heap) => self.counters.data_faults += 1,
                Some(PageKind::BTreeLeaf) | Some(PageKind::BTreeInternal) => {
                    self.counters.index_faults += 1
                }
                None => {}
            }
            return Ok(self.install(id, page, false));
        }
        self.counters.hits += 1;
        self.tick += 1;
        let frame = self.frames[id as usize].as_mut().expect("checked resident");
        self.lru.remove(&frame.last_used);
        self.lru.insert(self.tick, id);
        frame.last_used = self.tick;
        Ok(frame)
    }
}

/// A shared, thread-safe buffer pool over one page file.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<Mutex<Inner>>,
}

/// A pinned page. Derefs to [`Page`]; the pin is released on drop, making
/// the frame evictable again.
pub struct PageRef {
    pool: BufferPool,
    id: PageId,
    page: Arc<Page>,
}

impl std::ops::Deref for PageRef {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.page
    }
}

impl PageRef {
    /// The pinned page's id.
    pub fn id(&self) -> PageId {
        self.id
    }
}

impl Drop for PageRef {
    fn drop(&mut self) {
        // A poisoned pool is already unusable; a drop must not panic.
        let Ok(mut guard) = self.pool.inner.lock() else {
            return;
        };
        if let Some(frame) = guard.frame(self.id) {
            frame.pins = frame.pins.saturating_sub(1);
        }
    }
}

impl BufferPool {
    /// Wrap `file` with room for `capacity` resident pages.
    pub fn new(file: PageFile, capacity: usize) -> BufferPool {
        let frames = std::iter::repeat_with(|| None)
            .take(file.pages() as usize)
            .collect();
        BufferPool {
            inner: Arc::new(Mutex::new(Inner {
                file,
                capacity: capacity.max(1),
                tick: 0,
                frames,
                lru: BTreeMap::new(),
                counters: PoolCounters::default(),
            })),
        }
    }

    /// Allocate a fresh page of `kind`. Born dirty and resident; it
    /// reaches disk on eviction or flush.
    pub fn allocate(&self, kind: PageKind) -> Result<PageId> {
        let mut inner = self.inner.lock().expect("pool mutex");
        inner.make_room()?;
        let id = inner.file.allocate();
        inner.install(id, Page::new(kind), true);
        Ok(id)
    }

    /// Pin a page for reading. Counts a hit or fault.
    pub fn pin(&self, id: PageId) -> Result<PageRef> {
        let page = {
            let mut inner = self.inner.lock().expect("pool mutex");
            let frame = inner.load(id)?;
            frame.pins += 1;
            Arc::clone(&frame.page)
        };
        Ok(PageRef {
            pool: self.clone(),
            id,
            page,
        })
    }

    /// Mutate a page in place, marking it dirty. Counts a hit or fault.
    /// The closure MUST NOT call back into the pool (non-reentrant lock);
    /// callers that need a second page (e.g. B+Tree splits) allocate it
    /// *before* entering the closure.
    pub fn with_page_mut<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> Result<T> {
        let mut inner = self.inner.lock().expect("pool mutex");
        let frame = inner.load(id)?;
        frame.dirty = true;
        Ok(f(Arc::make_mut(&mut frame.page)))
    }

    /// Write every dirty frame back, in page order, and sync the file.
    pub fn flush(&self) -> Result<()> {
        let mut guard = self.inner.lock().expect("pool mutex");
        let inner = &mut *guard;
        for (pid, frame) in inner.frames.iter_mut().enumerate() {
            let Some(frame) = frame.as_mut().filter(|f| f.dirty) else {
                continue;
            };
            inner.file.write_page(pid as PageId, &frame.page)?;
            inner.counters.writebacks += 1;
            frame.dirty = false;
        }
        inner.file.sync()
    }

    /// Flush, then drop every unpinned frame: the next access pattern
    /// starts against a cold cache. Counts neither hits nor evictions.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush()?;
        let mut guard = self.inner.lock().expect("pool mutex");
        let Inner { frames, lru, .. } = &mut *guard;
        lru.retain(|_, &mut pid| {
            let slot = &mut frames[pid as usize];
            let pinned = slot.as_ref().is_some_and(|f| f.pins > 0);
            if !pinned {
                *slot = None;
            }
            pinned
        });
        Ok(())
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> PoolCounters {
        self.inner.lock().expect("pool mutex").counters
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.inner.lock().expect("pool mutex").lru.len()
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("pool mutex").capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::rng;
    use std::collections::HashMap;

    fn pool(capacity: usize) -> BufferPool {
        let file = PageFile::create_temp("pool").unwrap();
        BufferPool::new(file, capacity)
    }

    #[test]
    fn allocate_write_read_through_pool() {
        let p = pool(4);
        let id = p.allocate(PageKind::Heap).unwrap();
        let slot = p
            .with_page_mut(id, |pg| pg.insert(b"hello pool").unwrap())
            .unwrap();
        let r = p.pin(id).unwrap();
        assert_eq!(r.record(slot).unwrap(), b"hello pool");
    }

    #[test]
    fn eviction_writes_back_and_refault_restores() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..3)
            .map(|i| {
                let id = p.allocate(PageKind::Heap).unwrap();
                p.with_page_mut(id, |pg| pg.insert(format!("page {i}").as_bytes()).unwrap())
                    .unwrap();
                id
            })
            .collect();
        // Allocating page 2 evicted page 0 (LRU), writing it back.
        let c = p.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.writebacks, 1);
        // Touching page 0 again faults it back in, contents intact.
        let r = p.pin(ids[0]).unwrap();
        assert_eq!(r.record(0).unwrap(), b"page 0");
        let c = p.counters();
        assert_eq!(c.faults, 1);
        assert_eq!(c.data_faults, 1);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let a = p.allocate(PageKind::Heap).unwrap();
        let b = p.allocate(PageKind::Heap).unwrap();
        let pin_a = p.pin(a).unwrap();
        let pin_b = p.pin(b).unwrap();
        // Pool full of pinned pages: a third allocation must fail cleanly.
        let err = p.allocate(PageKind::Heap).unwrap_err().to_string();
        assert!(err.contains("exhausted"), "{err}");
        drop(pin_a);
        // With a unpinned, allocation succeeds and evicts a.
        p.allocate(PageKind::Heap).unwrap();
        assert_eq!(p.counters().evictions, 1);
        drop(pin_b);
    }

    #[test]
    fn lru_prefers_least_recently_used() {
        let p = pool(2);
        let a = p.allocate(PageKind::Heap).unwrap();
        let b = p.allocate(PageKind::Heap).unwrap();
        p.flush().unwrap();
        // Touch a so b becomes LRU.
        drop(p.pin(a).unwrap());
        let _c = p.allocate(PageKind::Heap).unwrap();
        // b was evicted: re-pinning it faults, re-pinning a hits.
        let before = p.counters();
        drop(p.pin(a).unwrap());
        assert_eq!(p.counters().faults, before.faults);
        drop(p.pin(b).unwrap());
        assert_eq!(p.counters().faults, before.faults + 1);
    }

    #[test]
    fn clear_cache_forces_cold_start() {
        let p = pool(8);
        let id = p.allocate(PageKind::BTreeLeaf).unwrap();
        p.with_page_mut(id, |pg| pg.insert(b"cold").unwrap())
            .unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.resident(), 0);
        let before = p.counters();
        let r = p.pin(id).unwrap();
        assert_eq!(r.record(0).unwrap(), b"cold");
        let d = p.counters().delta(&before);
        assert_eq!(d.faults, 1);
        assert_eq!(d.index_faults, 1);
        assert_eq!(d.hits, 0);
    }

    #[test]
    fn counters_delta() {
        let p = pool(4);
        let id = p.allocate(PageKind::Heap).unwrap();
        p.clear_cache().unwrap();
        let before = p.counters();
        drop(p.pin(id).unwrap());
        drop(p.pin(id).unwrap());
        let d = p.counters().delta(&before);
        assert_eq!(d.faults, 1);
        assert_eq!(d.hits, 1);
    }

    /// The victim choice this pool replaced — scan every frame for the
    /// smallest `last_used` among the unpinned — as a bookkeeping-only
    /// model: the ordered index must evict exactly what the scan would.
    #[derive(Default)]
    struct ScanModel {
        capacity: usize,
        tick: u64,
        frames: HashMap<PageId, ModelFrame>,
        kinds: Vec<PageKind>,
        counters: PoolCounters,
    }

    #[derive(Default)]
    struct ModelFrame {
        pins: u32,
        dirty: bool,
        last_used: u64,
    }

    impl ScanModel {
        fn make_room(&mut self) -> std::result::Result<(), ()> {
            while self.frames.len() >= self.capacity {
                let victim = self
                    .frames
                    .iter()
                    .filter(|(_, f)| f.pins == 0)
                    .map(|(&pid, f)| (f.last_used, pid))
                    .min();
                let (_, pid) = victim.ok_or(())?;
                if self.frames.remove(&pid).expect("victim").dirty {
                    self.counters.writebacks += 1;
                }
                self.counters.evictions += 1;
            }
            Ok(())
        }

        fn allocate(&mut self, kind: PageKind) -> std::result::Result<PageId, ()> {
            self.make_room()?;
            self.kinds.push(kind);
            self.tick += 1;
            let id = self.kinds.len() as PageId - 1;
            let born = ModelFrame {
                pins: 0,
                dirty: true,
                last_used: self.tick,
            };
            self.frames.insert(id, born);
            Ok(id)
        }

        /// A page request: `pin` raises the pin count, `dirty` is a
        /// `with_page_mut`.
        fn load(&mut self, id: PageId, pin: bool, dirty: bool) -> std::result::Result<(), ()> {
            if self.frames.contains_key(&id) {
                self.counters.hits += 1;
            } else {
                self.make_room()?;
                self.counters.faults += 1;
                match self.kinds[id as usize] {
                    PageKind::Heap => self.counters.data_faults += 1,
                    _ => self.counters.index_faults += 1,
                }
                self.frames.insert(id, ModelFrame::default());
            }
            self.tick += 1;
            let f = self.frames.get_mut(&id).expect("resident");
            f.pins += pin as u32;
            f.dirty |= dirty;
            f.last_used = self.tick;
            Ok(())
        }

        fn unpin(&mut self, id: PageId) {
            self.frames.get_mut(&id).expect("pinned frame").pins -= 1;
        }

        fn flush(&mut self) {
            for f in self.frames.values_mut().filter(|f| f.dirty) {
                f.dirty = false;
                self.counters.writebacks += 1;
            }
        }

        fn clear_cache(&mut self) {
            self.flush();
            self.frames.retain(|_, f| f.pins > 0);
        }

        fn resident(&self) -> Vec<PageId> {
            let mut ids: Vec<PageId> = self.frames.keys().copied().collect();
            ids.sort_unstable();
            ids
        }
    }

    impl BufferPool {
        fn resident_ids(&self) -> Vec<PageId> {
            let inner = self.inner.lock().unwrap();
            let mut ids: Vec<PageId> = inner.lru.values().copied().collect();
            ids.sort_unstable();
            ids
        }
    }

    #[test]
    fn ordered_index_evicts_exactly_what_the_min_scan_would() {
        const KINDS: [PageKind; 3] = [PageKind::Heap, PageKind::BTreeLeaf, PageKind::BTreeInternal];
        for capacity in [1usize, 2, 7, 256] {
            let mut r = rng::seeded(rng::DEFAULT_SEED, &format!("lru-diff-{capacity}"));
            let real = pool(capacity);
            let mut model = ScanModel {
                capacity,
                ..ScanModel::default()
            };
            // Guards in hand, each with the step at which it is dropped.
            let mut guards: Vec<(PageRef, usize)> = Vec::new();
            let (mut exhausted, mut evicted) = (0, 0);
            for step in 0..8_000 {
                guards.retain(|(guard, until)| {
                    let keep = *until > step;
                    if !keep {
                        model.unpin(guard.id());
                    }
                    keep
                });
                let pages = model.kinds.len() as u64;
                let any_page = |r: &mut rng::StdRng| r.next_u64() % pages;
                // Grow the file to a few times the pool first, so that
                // requests miss; then mostly read.
                let roll = if pages < 3 * capacity as u64 + 5 {
                    0
                } else {
                    r.next_u64() % 100
                };
                let (got, want) = match roll {
                    0..=3 => {
                        let kind = KINDS[(r.next_u64() % 3) as usize];
                        let (got, want) = (real.allocate(kind), model.allocate(kind));
                        assert_eq!(got.as_ref().ok(), want.as_ref().ok(), "allocated id");
                        (got.map(drop), want.map(drop))
                    }
                    4..=73 => {
                        let id = any_page(&mut r);
                        let got = real.pin(id);
                        let want = model.load(id, got.is_ok(), false);
                        let held = 1 + (r.next_u64() % 12) as usize * (r.next_u64() % 3) as usize;
                        (got.map(|g| guards.push((g, step + held))), want)
                    }
                    74..=93 => {
                        let id = any_page(&mut r);
                        let got = real.with_page_mut(id, |pg| pg.set_aux(step as u64));
                        (got, model.load(id, false, true))
                    }
                    94..=97 => {
                        model.flush();
                        (real.flush(), Ok(()))
                    }
                    _ => {
                        model.clear_cache();
                        (real.clear_cache(), Ok(()))
                    }
                };
                match (&got, &want) {
                    (Ok(()), Ok(())) => {}
                    (Err(e), Err(())) => {
                        assert!(e.to_string().contains("all pinned"), "{e}");
                        exhausted += 1;
                    }
                    _ => panic!("capacity {capacity} step {step}: {got:?} vs model {want:?}"),
                }
                evicted = model.counters.evictions;
                assert_eq!(
                    real.counters(),
                    model.counters,
                    "capacity {capacity} step {step}"
                );
                assert_eq!(
                    real.resident_ids(),
                    model.resident(),
                    "capacity {capacity} step {step}: a different victim"
                );
            }
            assert!(evicted > 500, "capacity {capacity}: {evicted} evictions");
            if capacity <= 7 {
                assert!(exhausted > 0, "capacity {capacity} never ran out of frames");
            }
        }
    }

    #[test]
    fn golden_fault_count_of_the_xorshift_trace() {
        // 1 000 pages behind 256 frames (the `store_probe` geometry),
        // 200 000 pins drawn by Marsaglia's xorshift64. The counts are a
        // function of the eviction order alone and were the same before
        // the ordered index replaced the scan.
        let p = pool(256);
        let ids: Vec<PageId> = (0..1_000)
            .map(|_| p.allocate(PageKind::Heap).unwrap())
            .collect();
        p.clear_cache().unwrap();
        let before = p.counters();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            drop(p.pin(ids[(x % 1_000) as usize]).unwrap());
        }
        let d = p.counters().delta(&before);
        assert_eq!((d.faults, d.hits), (148_422, 51_578));
        assert_eq!(d.evictions, 148_422 - 256);
        assert_eq!((d.data_faults, d.writebacks), (d.faults, 0));
    }
}
