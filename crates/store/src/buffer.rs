//! The buffer pool.
//!
//! Frames cache [`Page`]s read from a [`PageFile`]. Accessors pin a page
//! ([`PageRef`] unpins on drop); dirty frames are written back when
//! evicted (LRU over unpinned frames) or on [`BufferPool::flush`]. The
//! frame table sits behind one non-reentrant mutex, so callers must never
//! pin or allocate from *inside* a [`BufferPool::with_page_mut`] closure.
//!
//! Any number of threads may read through one pool. The mutex covers
//! bookkeeping only — the frame table, the LRU order, the counters — and
//! is never held across a disk read: a fault picks its victim and marks
//! the page's slot *loading* under the lock, reads and checksums outside
//! it, and re-locks to install the frame. A loading slot counts against
//! capacity, is neither evictable nor dirty, and a second caller for the
//! same page waits for it to settle instead of reading the page twice.
//! The incoming page is read into the evicted frame's buffer, so a fault
//! in a full pool allocates nothing. An unpin takes no lock at all: each
//! frame carries a pin token and a [`PageRef`] holds a clone of it, so
//! the pin count is the token's reference count.
//!
//! Page ids are dense file offsets, so the frame table is a `Vec` indexed
//! by page id: a pin indexes it directly, nothing is hashed. Eviction is
//! exact LRU — the victim is the unpinned frame with the smallest
//! `last_used` tick, a pure function of the access history — found by
//! walking an ordered `last_used → page` index of the resident frames
//! from its old end past whatever is pinned (a handful of frames at
//! most), instead of scanning every frame on every fault. Ticks are
//! handed out under the mutex, so one caller alone sees the same victims
//! and the same counters whatever other threads exist; under several
//! callers only the interleaving of their requests differs.
//!
//! Counters distinguish data (heap) from index (B+Tree) faults so cost
//! models can attribute I/O to the operator that caused it. They are kept
//! twice: once per pool, and once per thread (`thread_io`) so that a
//! session can meter its own I/O while other sessions use the same pool.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

thread_local! {
    static THREAD_IO: Cell<PoolCounters> = Cell::new(PoolCounters::default());
}

/// Everything the calling thread has done through any pool so far:
/// every hit, fault, eviction and write-back is counted here as well as
/// in its pool. Two snapshots taken on one thread bracket exactly that
/// thread's I/O, whatever other threads did to the same pool meanwhile.
pub(crate) fn thread_io() -> PoolCounters {
    THREAD_IO.with(Cell::get)
}

#[derive(Debug)]
struct Frame {
    page: Arc<Page>,
    /// The pin token. Every [`PageRef`] on this frame holds a clone, so
    /// the frame is pinned while the count is above one. It is separate
    /// from `page` because [`BufferPool::with_page_mut`] on a pinned
    /// page replaces `page` copy-on-write, and readers of the old copy
    /// still pin the frame.
    pin: Arc<()>,
    dirty: bool,
    last_used: u64,
}

impl Frame {
    fn new(page: Page) -> Frame {
        Frame {
            page: Arc::new(page),
            pin: Arc::new(()),
            dirty: false,
            last_used: 0,
        }
    }

    /// Pins are taken under the pool mutex and dropped without it, so
    /// under the mutex `false` is final and `true` may be stale — which
    /// only makes eviction skip a frame it could have taken.
    fn pinned(&self) -> bool {
        Arc::strong_count(&self.pin) > 1
    }
}

#[derive(Debug)]
enum Slot {
    Empty,
    /// Reserved by a fault that is reading the page outside the mutex.
    Loading,
    Resident(Frame),
}

#[derive(Debug)]
struct State {
    tick: u64,
    /// Frame table, indexed by page id.
    frames: Vec<Slot>,
    /// `last_used → page`, one entry per resident frame. Ticks are
    /// unique within a pool, so the keys are too.
    lru: BTreeMap<u64, PageId>,
    /// Slots in [`Slot::Loading`]; they count against capacity.
    loading: usize,
    /// Threads blocked until some loading slot settles.
    waiting: usize,
    counters: PoolCounters,
}

#[derive(Debug)]
struct Shared {
    file: PageFile,
    capacity: usize,
    /// Poison is ignored wherever this is locked: no caller code runs
    /// under it at query time, and every update below leaves the table,
    /// the LRU index and the counters consistent with each other.
    state: Mutex<State>,
    /// Signalled when a loading slot settles while `waiting > 0`.
    settled: Condvar,
}

impl State {
    fn slot(&self, id: PageId) -> &Slot {
        self.frames.get(id as usize).unwrap_or(&Slot::Empty)
    }

    /// `id`'s slot, growing the table to hold it.
    fn slot_mut(&mut self, id: PageId) -> &mut Slot {
        let slot = id as usize;
        if slot >= self.frames.len() {
            self.frames.resize_with(slot + 1, || Slot::Empty);
        }
        &mut self.frames[slot]
    }

    fn frame(&mut self, id: PageId) -> &mut Frame {
        match self.frames.get_mut(id as usize) {
            Some(Slot::Resident(frame)) => frame,
            _ => unreachable!("page {id} is resident"),
        }
    }

    /// Count one event in the pool's counters and the calling thread's.
    fn count(&mut self, add: impl Fn(&mut PoolCounters)) {
        add(&mut self.counters);
        THREAD_IO.with(|io| {
            let mut mine = io.get();
            add(&mut mine);
            io.set(mine);
        });
    }

    /// Put `frame` in `id`'s slot as the most recently used.
    fn install(&mut self, id: PageId, mut frame: Frame, dirty: bool) {
        self.tick += 1;
        self.lru.insert(self.tick, id);
        frame.dirty = dirty;
        frame.last_used = self.tick;
        *self.slot_mut(id) = Slot::Resident(frame);
    }

    /// A hit: mark `id`'s frame most recently used.
    fn touch(&mut self, id: PageId) {
        self.count(|c| c.hits += 1);
        self.tick += 1;
        let tick = self.tick;
        let frame = self.frame(id);
        let before = std::mem::replace(&mut frame.last_used, tick);
        self.lru.remove(&before);
        self.lru.insert(tick, id);
    }

    /// Make room for one more frame: evict the least recently used
    /// unpinned frame until resident and loading slots together are
    /// below capacity. Returns the last frame evicted, whose buffers the
    /// caller may reuse.
    fn make_room(&mut self, pool: &Shared) -> Result<Option<Frame>> {
        let mut spare = None;
        while self.lru.len() + self.loading >= pool.capacity {
            let frames = &self.frames;
            let victim = self
                .lru
                .iter()
                .find(
                    |&(_, &pid)| matches!(&frames[pid as usize], Slot::Resident(f) if !f.pinned()),
                )
                .map(|(&tick, &pid)| (tick, pid));
            let Some((tick, pid)) = victim else {
                return Err(DiscoError::Source(format!(
                    "store: buffer pool exhausted ({} frames, all pinned)",
                    self.lru.len() + self.loading
                )));
            };
            self.lru.remove(&tick);
            let Slot::Resident(frame) =
                std::mem::replace(&mut self.frames[pid as usize], Slot::Empty)
            else {
                unreachable!("indexed frame is resident");
            };
            if frame.dirty {
                pool.file.write_page(pid, &frame.page)?;
                self.count(|c| c.writebacks += 1);
            }
            self.count(|c| c.evictions += 1);
            spare = Some(frame);
        }
        Ok(spare)
    }

    /// First half of a fault: make room and mark `id`'s slot loading.
    fn reserve(&mut self, pool: &Shared, id: PageId) -> Result<Option<Frame>> {
        // Refused before anything is evicted or the table grows for it.
        pool.file.check_allocated(id)?;
        let spare = self.make_room(pool)?;
        *self.slot_mut(id) = Slot::Loading;
        self.loading += 1;
        Ok(spare)
    }

    /// Second half of a fault: the read is over, so the slot reserved
    /// for `id` becomes a frame or goes back to empty.
    fn settle(&mut self, id: PageId, loaded: Result<Frame>) -> Result<()> {
        self.loading -= 1;
        let frame = match loaded {
            Ok(frame) => frame,
            Err(e) => {
                self.frames[id as usize] = Slot::Empty;
                return Err(e);
            }
        };
        let kind = frame.page.kind();
        self.count(|c| {
            c.faults += 1;
            match kind {
                Some(PageKind::Heap) => c.data_faults += 1,
                Some(PageKind::BTreeLeaf) | Some(PageKind::BTreeInternal) => c.index_faults += 1,
                None => {}
            }
        });
        self.install(id, frame, false);
        Ok(())
    }
}

/// A shared, thread-safe buffer pool over one page file.
#[derive(Debug, Clone)]
pub struct BufferPool {
    shared: Arc<Shared>,
}

/// A pinned page. Derefs to [`Page`]; the pin is released on drop, making
/// the frame evictable again.
pub struct PageRef {
    id: PageId,
    // Declared, and so dropped, before the token: once eviction sees the
    // token unshared, no reader's clone of the page is left either, and
    // the frame's buffer can take the next page.
    page: Arc<Page>,
    _pin: Arc<()>,
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

impl BufferPool {
    /// Wrap `file` with room for `capacity` resident pages.
    pub fn new(file: PageFile, capacity: usize) -> BufferPool {
        let frames = std::iter::repeat_with(|| Slot::Empty)
            .take(file.pages() as usize)
            .collect();
        BufferPool {
            shared: Arc::new(Shared {
                file,
                capacity: capacity.max(1),
                state: Mutex::new(State {
                    tick: 0,
                    frames,
                    lru: BTreeMap::new(),
                    loading: 0,
                    waiting: 0,
                    counters: PoolCounters::default(),
                }),
                settled: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the pool with `id` resident: counted as a hit or a fault,
    /// and marked most recently used.
    fn load(&self, id: PageId) -> Result<MutexGuard<'_, State>> {
        let mut state = self.lock();
        loop {
            match state.slot(id) {
                Slot::Resident(_) => {
                    state.touch(id);
                    return Ok(state);
                }
                // Someone else's fault on the same page: when it settles
                // this request is a hit — or, if that read failed, ours
                // to try.
                Slot::Loading => {
                    state.waiting += 1;
                    state = self
                        .shared
                        .settled
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.waiting -= 1;
                }
                Slot::Empty => break,
            }
        }
        let spare = state.reserve(&self.shared, id)?;
        drop(state);
        self.fault(id, spare)
    }

    /// The rest of a fault whose slot is reserved: read the page with the
    /// mutex released, then lock again to settle the slot and wake
    /// whoever waited for it.
    fn fault(&self, id: PageId, spare: Option<Frame>) -> Result<MutexGuard<'_, State>> {
        let loaded = self.read(id, spare);
        let mut state = self.lock();
        let settled = state.settle(id, loaded);
        if state.waiting > 0 {
            self.shared.settled.notify_all();
        }
        settled.map(|()| state)
    }

    /// Read page `id` from the file into the buffer of the frame just
    /// evicted, if there is one.
    fn read(&self, id: PageId, spare: Option<Frame>) -> Result<Frame> {
        // Eviction saw the spare's pin token unshared and a `PageRef`
        // drops its page before its token, so the buffer is this
        // thread's alone — unless its view of the page's count lags its
        // view of the token's. Then that reader keeps the copy.
        let mut frame = spare
            .filter(|spare| Arc::strong_count(&spare.page) == 1)
            .unwrap_or_else(|| Frame::new(Page::zeroed()));
        let page = Arc::get_mut(&mut frame.page).expect("no one else holds this buffer");
        self.shared.file.read_page_into(id, page)?;
        Ok(frame)
    }

    /// Allocate a fresh page of `kind`. Born dirty and resident; it
    /// reaches disk on eviction or flush.
    pub fn allocate(&self, kind: PageKind) -> Result<PageId> {
        let mut state = self.lock();
        state.make_room(&self.shared)?;
        let id = self.shared.file.allocate();
        state.install(id, Frame::new(Page::new(kind)), true);
        Ok(id)
    }

    /// Pin a page for reading. Counts a hit or fault.
    pub fn pin(&self, id: PageId) -> Result<PageRef> {
        let mut state = self.load(id)?;
        let frame = state.frame(id);
        Ok(PageRef {
            id,
            page: Arc::clone(&frame.page),
            _pin: Arc::clone(&frame.pin),
        })
    }

    /// Mutate a page in place, marking it dirty. Counts a hit or fault.
    /// The closure MUST NOT call back into the pool (non-reentrant lock);
    /// callers that need a second page (e.g. B+Tree splits) allocate it
    /// *before* entering the closure.
    pub fn with_page_mut<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> Result<T> {
        let mut state = self.load(id)?;
        let frame = state.frame(id);
        frame.dirty = true;
        Ok(f(Arc::make_mut(&mut frame.page)))
    }

    /// Write every dirty frame back, in page order, and sync the file.
    /// A slot that is loading has nothing to write.
    pub fn flush(&self) -> Result<()> {
        let mut state = self.lock();
        let mut written = 0;
        let wrote = state
            .frames
            .iter_mut()
            .enumerate()
            .try_for_each(|(pid, slot)| {
                let Slot::Resident(frame) = slot else {
                    return Ok(());
                };
                if frame.dirty {
                    self.shared.file.write_page(pid as PageId, &frame.page)?;
                    frame.dirty = false;
                    written += 1;
                }
                Ok(())
            });
        state.count(|c| c.writebacks += written);
        wrote?;
        self.shared.file.sync()
    }

    /// Flush, then drop every unpinned frame: the next access pattern
    /// starts against a cold cache. Counts neither hits nor evictions.
    /// A slot that is loading stays reserved — its frame arrives, warm,
    /// when the read that owns it settles.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush()?;
        let mut guard = self.lock();
        let State { frames, lru, .. } = &mut *guard;
        lru.retain(|_, &mut pid| {
            let slot = &mut frames[pid as usize];
            let pinned = matches!(slot, Slot::Resident(f) if f.pinned());
            if !pinned {
                *slot = Slot::Empty;
            }
            pinned
        });
        Ok(())
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> PoolCounters {
        self.lock().counters
    }

    /// Number of resident frames (a slot still loading is not one yet).
    pub fn resident(&self) -> usize {
        self.lock().lru.len()
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
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

    /// A pool over `n` flushed heap pages, page `i` holding `page {i}`,
    /// with nothing resident.
    fn cold_pool(capacity: usize, n: usize) -> (BufferPool, Vec<PageId>) {
        let p = pool(capacity);
        let ids = (0..n)
            .map(|i| {
                let id = p.allocate(PageKind::Heap).unwrap();
                p.with_page_mut(id, |pg| pg.insert(format!("page {i}").as_bytes()).unwrap())
                    .unwrap();
                id
            })
            .collect();
        p.clear_cache().unwrap();
        (p, ids)
    }

    #[test]
    fn second_caller_for_a_loading_page_waits_and_one_fault_is_counted() {
        let (p, ids) = cold_pool(4, 2);
        let before = p.counters();
        // This thread's fault on page 1, stopped where `load` releases
        // the mutex to read.
        let spare = p.lock().reserve(&p.shared, ids[1]).unwrap();
        let other = {
            let (p, id) = (p.clone(), ids[1]);
            std::thread::spawn(move || {
                let page = p.pin(id).unwrap();
                (page.record(0).unwrap().to_vec(), thread_io())
            })
        };
        // The other caller is parked on the loading slot before the read
        // happens: it cannot have read the page itself.
        while p.lock().waiting == 0 {
            std::thread::yield_now();
        }
        assert_eq!(p.counters(), before);
        let mut state = p.fault(ids[1], spare).unwrap();
        assert_eq!(state.frame(ids[1]).page.record(0).unwrap(), b"page 1");
        drop(state);

        let (bytes, others_io) = other.join().unwrap();
        assert_eq!(bytes, b"page 1");
        let d = p.counters().delta(&before);
        assert_eq!((d.faults, d.data_faults, d.hits), (1, 1, 1));
        // The fault is metered to the thread that read, the hit to the
        // thread that waited.
        assert_eq!((others_io.faults, others_io.hits), (0, 1));
        let state = p.lock();
        assert_eq!((state.loading, state.waiting), (0, 0));
    }

    #[test]
    fn a_failed_read_frees_its_slot_and_wakes_whoever_waited_for_it() {
        let (p, _) = cold_pool(4, 1);
        // Allocated in the file, never written: reading it fails.
        let ghost = p.shared.file.allocate();
        let spare = p.lock().reserve(&p.shared, ghost).unwrap();
        let other = {
            let p = p.clone();
            std::thread::spawn(move || p.pin(ghost).map(drop))
        };
        while p.lock().waiting == 0 {
            std::thread::yield_now();
        }
        let err = p.fault(ghost, spare).map(drop).unwrap_err().to_string();
        assert!(err.contains(&format!("read of page {ghost}")), "{err}");
        // The waiter finds the slot empty again, tries the read itself
        // and gets the same answer.
        let err = other.join().unwrap().unwrap_err().to_string();
        assert!(err.contains(&format!("read of page {ghost}")), "{err}");
        let state = p.lock();
        assert_eq!((state.loading, state.waiting), (0, 0));
        assert!(matches!(state.slot(ghost), Slot::Empty));
        assert_eq!(state.counters.faults, 0);
    }

    #[test]
    fn flush_and_clear_cache_leave_a_loading_slot_alone() {
        let (p, ids) = cold_pool(4, 3);
        drop(p.pin(ids[0]).unwrap());
        let held = p.pin(ids[1]).unwrap();
        // Page 2 is mid-read on "another thread" while the cache is
        // flushed and cleared, as `StoreSource::clear_cache` may do
        // between one client's queries while another client's runs.
        let spare = p.lock().reserve(&p.shared, ids[2]).unwrap();
        let before = p.counters();
        p.flush().unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.counters(), before, "nothing dirty, nothing counted");
        {
            let state = p.lock();
            assert_eq!(state.loading, 1);
            assert!(matches!(state.slot(ids[2]), Slot::Loading));
            assert!(matches!(state.slot(ids[0]), Slot::Empty));
        }
        // Unpinned page 0 went, pinned page 1 stayed.
        assert_eq!(p.resident_ids(), vec![ids[1]]);
        // The read settles into the slot that was kept for it.
        drop(p.fault(ids[2], spare).unwrap());
        assert_eq!(p.lock().loading, 0);
        assert_eq!(p.resident_ids(), vec![ids[1], ids[2]]);
        let before = p.counters();
        assert_eq!(p.pin(ids[2]).unwrap().record(0).unwrap(), b"page 2");
        assert_eq!(p.counters().delta(&before).hits, 1);
        drop(held);
    }

    #[test]
    fn loading_slots_count_against_capacity() {
        let (p, ids) = cold_pool(2, 3);
        let before = p.counters();
        drop(p.pin(ids[0]).unwrap());
        let spare = p.lock().reserve(&p.shared, ids[1]).unwrap();
        assert!(spare.is_none(), "one frame and one reservation fit");
        // A third page must push page 0 out: the reservation holds the
        // other place, and cannot itself be the victim.
        drop(p.pin(ids[2]).unwrap());
        assert_eq!(p.resident_ids(), vec![ids[2]]);
        assert_eq!(p.counters().delta(&before).evictions, 1);
        // With that frame pinned too, nothing is left to evict.
        let held = p.pin(ids[2]).unwrap();
        let err = p.pin(ids[0]).map(drop).unwrap_err().to_string();
        assert!(err.contains("exhausted"), "{err}");
        drop(p.fault(ids[1], spare).unwrap());
        drop(held);
        assert_eq!(p.resident(), 2);
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
            let inner = self.lock();
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
