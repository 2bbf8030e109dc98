//! The buffer pool.
//!
//! Frames cache [`Page`]s read from a [`PageFile`]. Accessors pin a page
//! ([`PageRef`] unpins on drop); dirty frames are written back when
//! evicted (LRU over unpinned frames) or on [`BufferPool::flush`]. A
//! [`BufferPool::with_page_mut`] closure holds its page's slot lock and
//! may hold up a flush that holds the pool lock, so it must never pin or
//! allocate from *inside* the closure.
//!
//! Any number of threads may read through one pool, and a hit writes
//! nothing another page's reader reads. Each page id owns a slot: an
//! atomic state word (empty, loading or resident, plus a pin count), an
//! atomic LRU stamp, and the frame behind a lock of its own. A hit raises
//! the pin count with a compare-and-swap, stamps the slot with one
//! `fetch_add` on the pool's tick and clones the page out of the slot;
//! an unpin lowers the pin count. Neither takes the pool lock.
//!
//! The pool lock covers what a fault, an allocation, a flush or a cache
//! clear change: the ordered LRU index, the counts of faults begun and
//! of evictions, and every transition into or out of a resident frame
//! but the fault's install. A fault takes it once: it picks and claims
//! its victim, marks the page's slot *loading* and indexes it under a
//! tick taken then; it reads and checksums with the lock released, into
//! the evicted frame's buffer, so a fault in a full pool allocates
//! nothing; and it installs by publishing the slot's state word. A
//! loading slot counts against capacity, is neither evictable nor dirty,
//! and a second caller for the same page parks until it settles instead
//! of reading the page twice; the install wakes parked callers only if
//! one set the slot's waiter bit.
//!
//! Page ids are dense file offsets, so the slot table is indexed by page
//! id: a pin indexes it directly, nothing is hashed. Eviction is exact
//! LRU — the victim is the unpinned frame with the smallest stamp, a pure
//! function of the access history. The index of frames, a queue of
//! `(stamp, page)` in stamp order, is repaired lazily: a hit moves only
//! its slot's stamp, and the evictor, walking the queue from its old
//! end, re-files an entry whose stamp has moved and steps over pinned
//! and loading frames, so the first
//! unpinned frame whose key is current is the one a scan of every frame
//! would pick. Every request takes one tick, so one caller alone sees
//! the same victims and the same counters whatever other threads exist;
//! under several callers only the interleaving of their requests differs.
//!
//! Counters distinguish data (heap) from index (B+Tree) faults so cost
//! models can attribute I/O to the operator that caused it. They are kept
//! twice: once per pool, and once per thread (`thread_io`) so that a
//! session can meter its own I/O while other sessions use the same pool.
//! The pool's hits are not counted on a shared line at all: a request is
//! a hit, a fault begun or an allocation, so the hits are the ticks less
//! the other two.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// Count one event in the calling thread's counters.
fn count_mine(add: impl Fn(&mut PoolCounters)) {
    THREAD_IO.with(|io| {
        let mut mine = io.get();
        add(&mut mine);
        io.set(mine);
    });
}

// A slot's state word: the state in the low two bits, the waiter bit,
// and the pin count above them.
const EMPTY: u64 = 0;
/// Reserved by a fault that is reading the page outside the pool lock.
const LOADING: u64 = 1;
const RESIDENT: u64 = 2;
const STATE: u64 = 0b11;
/// Set on a loading slot by a caller parked until it settles.
const WAITED: u64 = 0b100;
/// One pin.
const PIN: u64 = 0b1000;

/// What a resident frame holds.
#[derive(Debug, Default)]
struct Frame {
    page: Option<Arc<Page>>,
    dirty: bool,
}

/// One page id's place in the pool, on a cache line of its own so that
/// pins of different pages share no line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    /// Every store that lets go of the slot — an unpin, an install, an
    /// allocation — is `Release`, and every load that takes it — a pin,
    /// a claim — is `Acquire`, so whoever takes the slot sees the frame
    /// and the stamp as the last holder left them.
    word: AtomicU64,
    /// The tick of the last request for the page. `Relaxed`: it is
    /// written while the slot is pinned or reserved, and read after a
    /// claim or under the pool lock, which the state word orders.
    stamp: AtomicU64,
    /// Locked by a pin to clone the page, by `with_page_mut` around its
    /// closure, by a fault's install, and under the pool lock by
    /// eviction, flush and cache clears.
    frame: Mutex<Frame>,
}

impl Slot {
    fn frame(&self) -> MutexGuard<'_, Frame> {
        // A poisoned frame is a `with_page_mut` closure that panicked:
        // the page is as the closure left it, and marked dirty.
        self.frame.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn state(&self) -> u64 {
        self.word.load(Ordering::Acquire) & STATE
    }

    /// Pin the frame if it is resident, stamping it with the next tick.
    fn try_pin(&self, tick: &AtomicU64) -> bool {
        let mut word = self.word.load(Ordering::Acquire);
        while word & STATE == RESIDENT {
            match self.word.compare_exchange_weak(
                word,
                word + PIN,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    let t = tick.fetch_add(1, Ordering::Relaxed) + 1;
                    self.stamp.store(t, Ordering::Relaxed);
                    count_mine(|c| c.hits += 1);
                    return true;
                }
                Err(now) => word = now,
            }
        }
        false
    }

    /// Claim an unpinned resident frame for eviction: a hit racing the
    /// claim either pins the frame first or finds the slot empty.
    fn claim(&self) -> bool {
        self.word
            .compare_exchange(RESIDENT, EMPTY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// The pinned frame's page.
    fn page(&self) -> Arc<Page> {
        Arc::clone(
            self.frame()
                .page
                .as_ref()
                .expect("a pinned frame is resident"),
        )
    }
}

/// Slots of the first segment of the slot table; segment `k` holds
/// `FIRST_SEGMENT << k`, so the table grows without moving a slot.
const FIRST_SEGMENT: u64 = 1 << 10;
const SEGMENTS: usize = 64 - FIRST_SEGMENT.trailing_zeros() as usize;

/// The slot table, indexed by page id.
struct Slots {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
}

impl Slots {
    /// `id`'s segment and its place there.
    fn locate(id: PageId) -> Option<(usize, usize)> {
        let x = id.checked_add(FIRST_SEGMENT)?;
        let segment = x.ilog2() - FIRST_SEGMENT.trailing_zeros();
        Some((segment as usize, (x - (FIRST_SEGMENT << segment)) as usize))
    }

    fn get(&self, id: PageId) -> Option<&Slot> {
        let (segment, at) = Self::locate(id)?;
        self.segments[segment].get().map(|slots| &slots[at])
    }

    /// `id`'s slot, growing the table to hold it.
    fn grow(&self, id: PageId) -> &Slot {
        let (segment, at) = Self::locate(id).expect("page ids are file offsets");
        let slots = self.segments[segment].get_or_init(|| {
            std::iter::repeat_with(Slot::default)
                .take((FIRST_SEGMENT << segment) as usize)
                .collect()
        });
        &slots[at]
    }

    /// The slot of a page the LRU index holds.
    fn indexed(&self, id: PageId) -> &Slot {
        self.get(id).expect("an indexed page has a slot")
    }
}

/// Keeps its value on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line<T>(T);

#[derive(Debug, Default)]
struct State {
    /// `(key, page)` in key order, one entry per resident or loading
    /// slot, where the key is a stamp of the page's. A key may lag its
    /// slot's stamp (hits do not re-key it); eviction repairs it. Ticks
    /// are unique within a pool, so the keys are too. A fault's entry
    /// goes at the back, and a repaired one near it, so an update moves
    /// only the ends of the queue.
    lru: VecDeque<(u64, PageId)>,
    /// Faults begun: each took a tick, whether its read succeeded or not.
    misses: u64,
    allocations: u64,
    evictions: u64,
    writebacks: u64,
    /// Threads parked until some loading slot settles.
    waiting: usize,
}

impl State {
    /// Put `page` in the index under `key`, in order; returns where.
    fn file(&mut self, key: u64, page: PageId) -> usize {
        let at = self
            .lru
            .iter()
            .rposition(|&(k, _)| k < key)
            .map_or(0, |before| before + 1);
        self.lru.insert(at, (key, page));
        at
    }
}

struct Shared {
    file: PageFile,
    capacity: usize,
    slots: Slots,
    /// Requests so far; the last one's tick.
    tick: Line<AtomicU64>,
    /// Faults installed, by page kind: heap, B+Tree, other.
    faults: Line<[AtomicU64; 3]>,
    /// Poison is ignored wherever this is locked: no caller code runs
    /// under it, and every update below leaves the index, the slots and
    /// the counters consistent with each other.
    state: Mutex<State>,
    /// Signalled when a loading slot with its waiter bit set settles.
    settled: Condvar,
}

/// A pin on a slot's frame, released on drop.
struct Pinned<'p> {
    slot: &'p Slot,
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        self.slot.word.fetch_sub(PIN, Ordering::Release);
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_tick(&self) -> u64 {
        self.tick.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Pin `id`, counted as a hit or a fault and stamped most recently
    /// used.
    fn acquire(&self, id: PageId) -> Result<Pinned<'_>> {
        match self.slots.get(id) {
            Some(slot) if slot.try_pin(&self.tick.0) => Ok(Pinned { slot }),
            _ => self.miss(id),
        }
    }

    /// A request that found its page not resident: under the pool lock,
    /// take it as a hit after all, wait for someone else's read of it,
    /// or reserve its slot and read it.
    fn miss(&self, id: PageId) -> Result<Pinned<'_>> {
        let mut state = self.lock();
        while let Some(slot) = self.slots.get(id) {
            match slot.state() {
                RESIDENT if slot.try_pin(&self.tick.0) => return Ok(Pinned { slot }),
                // When it settles this request is a hit — or, if that
                // read failed, ours to try.
                LOADING => state = self.park(state, slot),
                EMPTY => break,
                _ => {}
            }
        }
        let spare = self.reserve(&mut state, id)?;
        drop(state);
        self.fault(id, spare)
    }

    /// Wait until `slot` is no longer loading.
    fn park<'a>(&'a self, mut state: MutexGuard<'a, State>, slot: &Slot) -> MutexGuard<'a, State> {
        let mut word = slot.word.load(Ordering::Acquire);
        while word & STATE == LOADING {
            match slot.word.compare_exchange(
                word,
                word | WAITED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    state.waiting += 1;
                    state = self
                        .settled
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.waiting -= 1;
                    break;
                }
                Err(now) => word = now,
            }
        }
        state
    }

    /// Make room for one more frame: evict the least recently used
    /// unpinned frame until resident and loading slots together are
    /// below capacity. Returns the page buffer of the last frame
    /// evicted, for the caller to reuse.
    fn make_room(&self, state: &mut State) -> Result<Option<Arc<Page>>> {
        let mut spare = None;
        // Entries before `at` are frames that are pinned or loading.
        let mut at = 0;
        while state.lru.len() >= self.capacity {
            let Some(&(key, pid)) = state.lru.get(at) else {
                return Err(DiscoError::Source(format!(
                    "store: buffer pool exhausted ({} frames, all pinned)",
                    state.lru.len()
                )));
            };
            let slot = self.slots.indexed(pid);
            let stamp = slot.stamp.load(Ordering::Relaxed);
            if stamp != key {
                // Used since it was keyed: file it under its stamp.
                state.lru.remove(at);
                at = at.min(state.file(stamp, pid));
                continue;
            }
            if !slot.claim() {
                at += 1;
                continue;
            }
            if slot.stamp.load(Ordering::Relaxed) != key {
                // A hit came and went between the look and the claim.
                slot.word.store(RESIDENT, Ordering::Release);
                continue;
            }
            state.lru.remove(at);
            let frame = std::mem::take(&mut *slot.frame());
            let page = frame.page.expect("a claimed frame is resident");
            if frame.dirty {
                self.file.write_page(pid, &page)?;
                state.writebacks += 1;
                count_mine(|c| c.writebacks += 1);
            }
            state.evictions += 1;
            count_mine(|c| c.evictions += 1);
            spare = Some(page);
        }
        Ok(spare)
    }

    /// First half of a fault, under the pool lock: make room, mark
    /// `id`'s slot loading and index it as the most recently used.
    fn reserve(&self, state: &mut State, id: PageId) -> Result<Option<Arc<Page>>> {
        // Refused before anything is evicted or the table grows for it.
        self.file.check_allocated(id)?;
        let spare = self.make_room(state)?;
        let slot = self.slots.grow(id);
        let tick = self.next_tick();
        slot.stamp.store(tick, Ordering::Relaxed);
        state.lru.push_back((tick, id));
        state.misses += 1;
        slot.word.store(LOADING, Ordering::Release);
        Ok(spare)
    }

    /// The rest of a fault whose slot is reserved: read the page with
    /// the pool lock released and publish it pinned, or, if the read
    /// failed, empty the slot. Either way, wake whoever waits for it.
    fn fault(&self, id: PageId, spare: Option<Arc<Page>>) -> Result<Pinned<'_>> {
        let slot = self.slots.indexed(id);
        let page = match self.read(id, spare) {
            Ok(page) => page,
            Err(e) => {
                let mut state = self.lock();
                let key = slot.stamp.load(Ordering::Relaxed);
                if let Ok(at) = state.lru.binary_search_by_key(&key, |&(k, _)| k) {
                    state.lru.remove(at);
                }
                if slot.word.swap(EMPTY, Ordering::AcqRel) & WAITED != 0 {
                    self.settled.notify_all();
                }
                return Err(e);
            }
        };
        let kind = match page.kind() {
            Some(PageKind::Heap) => 0,
            Some(PageKind::BTreeLeaf) | Some(PageKind::BTreeInternal) => 1,
            None => 2,
        };
        *slot.frame() = Frame {
            page: Some(page),
            dirty: false,
        };
        self.faults.0[kind].fetch_add(1, Ordering::Relaxed);
        count_mine(|c| {
            c.faults += 1;
            match kind {
                0 => c.data_faults += 1,
                1 => c.index_faults += 1,
                _ => {}
            }
        });
        if slot.word.swap(RESIDENT + PIN, Ordering::AcqRel) & WAITED != 0 {
            let _state = self.lock();
            self.settled.notify_all();
        }
        Ok(Pinned { slot })
    }

    /// Read page `id` from the file into the buffer of the frame just
    /// evicted, if there is one.
    fn read(&self, id: PageId, spare: Option<Arc<Page>>) -> Result<Arc<Page>> {
        // Eviction saw the frame unpinned and a `PageRef` drops its page
        // before its pin, so the buffer is this thread's alone — unless
        // its view of the page's count lags its view of the pin count.
        // Then that reader keeps the copy.
        let mut page = spare
            .filter(|spare| Arc::strong_count(spare) == 1)
            .unwrap_or_else(|| Arc::new(Page::zeroed()));
        let buffer = Arc::get_mut(&mut page).expect("no one else holds this buffer");
        self.file.read_page_into(id, buffer)?;
        Ok(page)
    }
}

/// A shared, thread-safe buffer pool over one page file.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("file", &self.shared.file.path())
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

/// A pinned page. Derefs to [`Page`]; the pin is released on drop, making
/// the frame evictable again.
pub struct PageRef<'p> {
    id: PageId,
    // Declared, and so dropped, before the pin: once eviction sees the
    // frame unpinned, no reader's clone of the page is left either, and
    // the frame's buffer can take the next page.
    page: Arc<Page>,
    _pin: Pinned<'p>,
}

impl std::ops::Deref for PageRef<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.page
    }
}

impl PageRef<'_> {
    /// The pinned page's id.
    pub fn id(&self) -> PageId {
        self.id
    }
}

impl BufferPool {
    /// Wrap `file` with room for `capacity` resident pages.
    pub fn new(file: PageFile, capacity: usize) -> BufferPool {
        BufferPool {
            shared: Arc::new(Shared {
                file,
                capacity: capacity.max(1),
                slots: Slots {
                    segments: std::array::from_fn(|_| OnceLock::new()),
                },
                tick: Line::default(),
                faults: Line::default(),
                state: Mutex::default(),
                settled: Condvar::new(),
            }),
        }
    }

    /// Allocate a fresh page of `kind`. Born dirty and resident; it
    /// reaches disk on eviction or flush.
    pub fn allocate(&self, kind: PageKind) -> Result<PageId> {
        let pool = &*self.shared;
        let mut state = pool.lock();
        pool.make_room(&mut state)?;
        let id = pool.file.allocate();
        let slot = pool.slots.grow(id);
        let tick = pool.next_tick();
        slot.stamp.store(tick, Ordering::Relaxed);
        state.lru.push_back((tick, id));
        state.allocations += 1;
        *slot.frame() = Frame {
            page: Some(Arc::new(Page::new(kind))),
            dirty: true,
        };
        slot.word.store(RESIDENT, Ordering::Release);
        Ok(id)
    }

    /// Pin a page for reading. Counts a hit or fault.
    pub fn pin(&self, id: PageId) -> Result<PageRef<'_>> {
        let pin = self.shared.acquire(id)?;
        Ok(PageRef {
            id,
            page: pin.slot.page(),
            _pin: pin,
        })
    }

    /// Mutate a page in place, marking it dirty. Counts a hit or fault.
    /// The closure MUST NOT call back into the pool (a flush holding the
    /// pool lock may be waiting for this page's slot); callers that need
    /// a second page (e.g. B+Tree splits) allocate it *before* entering
    /// the closure.
    pub fn with_page_mut<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> Result<T> {
        let pin = self.shared.acquire(id)?;
        let mut frame = pin.slot.frame();
        frame.dirty = true;
        let page = frame.page.as_mut().expect("a pinned frame is resident");
        Ok(f(Arc::make_mut(page)))
    }

    /// Write every dirty frame back, in page order, and sync the file.
    /// A slot that is loading has nothing to write.
    pub fn flush(&self) -> Result<()> {
        let pool = &*self.shared;
        let mut state = pool.lock();
        let mut written = 0;
        let wrote = (0..pool.file.pages()).try_for_each(|pid| {
            let Some(slot) = pool.slots.get(pid).filter(|s| s.state() == RESIDENT) else {
                return Ok(());
            };
            let mut frame = slot.frame();
            if frame.dirty {
                let page = frame.page.as_ref().expect("a dirty frame is resident");
                pool.file.write_page(pid, page)?;
                frame.dirty = false;
                written += 1;
            }
            Ok(())
        });
        state.writebacks += written;
        count_mine(|c| c.writebacks += written);
        wrote?;
        pool.file.sync()
    }

    /// Flush, then drop every unpinned frame: the next access pattern
    /// starts against a cold cache. Counts neither hits nor evictions.
    /// A slot that is loading stays reserved — its frame arrives, warm,
    /// when the read that owns it settles.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush()?;
        let pool = &*self.shared;
        let mut guard = pool.lock();
        let State {
            lru, writebacks, ..
        } = &mut *guard;
        let mut failed = Ok(());
        lru.retain(|&(_, pid)| {
            let slot = pool.slots.indexed(pid);
            if !slot.claim() {
                return true;
            }
            let mut frame = slot.frame();
            // Dirtied by a writer that came between the flush and here.
            if frame.dirty {
                let page = frame.page.as_ref().expect("a dirty frame is resident");
                if let Err(e) = pool.file.write_page(pid, page) {
                    slot.word.store(RESIDENT, Ordering::Release);
                    failed = Err(e);
                    return true;
                }
                *writebacks += 1;
                count_mine(|c| c.writebacks += 1);
            }
            *frame = Frame::default();
            false
        });
        failed
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> PoolCounters {
        let pool = &*self.shared;
        let state = pool.lock();
        let [data, index, other] = pool.faults.0.each_ref().map(|n| n.load(Ordering::Relaxed));
        PoolCounters {
            hits: pool.tick.0.load(Ordering::Relaxed) - state.misses - state.allocations,
            faults: data + index + other,
            data_faults: data,
            index_faults: index,
            evictions: state.evictions,
            writebacks: state.writebacks,
        }
    }

    /// Number of resident frames (a slot still loading is not one yet).
    pub fn resident(&self) -> usize {
        self.indexed_in(RESIDENT).len()
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The indexed pages whose slots are in `state`, in page order.
    fn indexed_in(&self, state: u64) -> Vec<PageId> {
        let pool = &*self.shared;
        let guard = pool.lock();
        let mut ids: Vec<PageId> = guard
            .lru
            .iter()
            .map(|&(_, pid)| pid)
            .filter(|&pid| pool.slots.indexed(pid).state() == state)
            .collect();
        ids.sort_unstable();
        ids
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
        let spare = p.shared.reserve(&mut p.lock(), ids[1]).unwrap();
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
        let pinned = p.shared.fault(ids[1], spare).unwrap();
        assert_eq!(pinned.slot.page().record(0).unwrap(), b"page 1");
        drop(pinned);

        let (bytes, others_io) = other.join().unwrap();
        assert_eq!(bytes, b"page 1");
        let d = p.counters().delta(&before);
        assert_eq!((d.faults, d.data_faults, d.hits), (1, 1, 1));
        // The fault is metered to the thread that read, the hit to the
        // thread that waited.
        assert_eq!((others_io.faults, others_io.hits), (0, 1));
        assert_eq!((p.loading(), p.lock().waiting), (0, 0));
    }

    #[test]
    fn a_failed_read_frees_its_slot_and_wakes_whoever_waited_for_it() {
        let (p, _) = cold_pool(4, 1);
        // Allocated in the file, never written: reading it fails.
        let ghost = p.shared.file.allocate();
        let spare = p.shared.reserve(&mut p.lock(), ghost).unwrap();
        let other = {
            let p = p.clone();
            std::thread::spawn(move || p.pin(ghost).map(drop))
        };
        while p.lock().waiting == 0 {
            std::thread::yield_now();
        }
        let err = p
            .shared
            .fault(ghost, spare)
            .map(drop)
            .unwrap_err()
            .to_string();
        assert!(err.contains(&format!("read of page {ghost}")), "{err}");
        // The waiter finds the slot empty again, tries the read itself
        // and gets the same answer.
        let err = other.join().unwrap().unwrap_err().to_string();
        assert!(err.contains(&format!("read of page {ghost}")), "{err}");
        assert_eq!((p.loading(), p.lock().waiting), (0, 0));
        assert!(matches!(p.state_of(ghost), EMPTY));
        assert_eq!(p.counters().faults, 0);
    }

    #[test]
    fn a_resident_pin_takes_no_pool_lock() {
        let (p, ids) = cold_pool(4, 1);
        drop(p.pin(ids[0]).unwrap());
        // With the pool lock held here, a hit on another thread must
        // still come back: it touches its own slot and the tick only.
        let held = p.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let other = {
            let (p, id) = (p.clone(), ids[0]);
            std::thread::spawn(move || {
                let bytes = p.pin(id).unwrap().record(0).unwrap().to_vec();
                tx.send((bytes, thread_io())).unwrap();
            })
        };
        let (bytes, io) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a resident pin waited for the pool lock");
        drop(held);
        other.join().unwrap();
        assert_eq!(bytes, b"page 0");
        assert_eq!((io.hits, io.faults), (1, 0));
    }

    #[test]
    fn concurrent_pins_writes_flushes_and_clears_keep_the_pool_whole() {
        // The `store_probe` geometry: 1 000 pages behind 256 frames.
        const THREADS: u64 = 4;
        const OPS: u64 = 4_000;
        let (p, ids) = cold_pool(256, 1_000);
        let over_capacity = |p: &BufferPool| {
            let _state = p.lock();
            let held = ids
                .iter()
                .filter(|&&id| matches!(p.state_of(id), RESIDENT | LOADING))
                .count();
            (held > p.capacity()).then_some(held)
        };
        let before = p.counters();
        let per_thread: Vec<(PoolCounters, Vec<(PageId, u64)>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (p, ids, over_capacity) = (&p, &ids, &over_capacity);
                    scope.spawn(move || {
                        let start = thread_io();
                        let mut r = rng::seeded(rng::DEFAULT_SEED, &format!("pool-stress-{t}"));
                        // Thread `t` writes only the pages `≡ t (mod THREADS)`,
                        // so each page has one last write.
                        let mut last = HashMap::new();
                        for op in 0..OPS {
                            let id = ids[(r.next_u64() % ids.len() as u64) as usize];
                            match r.next_u64() % 1_000 {
                                0 => p.flush().unwrap(),
                                1 => p.clear_cache().unwrap(),
                                2..=249 if id % THREADS == t => {
                                    let stamp = t << 32 | op;
                                    p.with_page_mut(id, |pg| pg.set_aux(stamp)).unwrap();
                                    last.insert(id, stamp);
                                }
                                _ => {
                                    let page = p.pin(id).unwrap();
                                    let other = p.pin(ids[(id as usize + 1) % ids.len()]).unwrap();
                                    assert_eq!(
                                        page.record(0).unwrap(),
                                        format!("page {id}").as_bytes()
                                    );
                                    drop((page, other));
                                }
                            }
                            if op % 64 == 0 {
                                assert_eq!(over_capacity(p), None, "thread {t} op {op}");
                            }
                        }
                        (thread_io().delta(&start), last.into_iter().collect())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let pool = p.counters().delta(&before);
        let summed = per_thread
            .iter()
            .fold(PoolCounters::default(), |sum, (mine, _)| PoolCounters {
                hits: sum.hits + mine.hits,
                faults: sum.faults + mine.faults,
                data_faults: sum.data_faults + mine.data_faults,
                index_faults: sum.index_faults + mine.index_faults,
                evictions: sum.evictions + mine.evictions,
                writebacks: sum.writebacks + mine.writebacks,
            });
        assert_eq!(summed, pool);
        assert!(
            pool.evictions > 1_000,
            "{pool:?}: the pool was never under pressure"
        );
        assert!(pool.writebacks > 0, "{pool:?}");
        // Every page reads back its last write, warm and from disk.
        let last: HashMap<PageId, u64> = per_thread.into_iter().flat_map(|(_, l)| l).collect();
        for _ in 0..2 {
            for &id in &ids {
                assert_eq!(
                    p.pin(id).unwrap().aux(),
                    last.get(&id).copied().unwrap_or(0),
                    "page {id}"
                );
            }
            p.clear_cache().unwrap();
        }
        assert_eq!((p.loading(), p.lock().waiting), (0, 0));
    }

    #[test]
    fn flush_and_clear_cache_leave_a_loading_slot_alone() {
        let (p, ids) = cold_pool(4, 3);
        drop(p.pin(ids[0]).unwrap());
        let held = p.pin(ids[1]).unwrap();
        // Page 2 is mid-read on "another thread" while the cache is
        // flushed and cleared, as `StoreSource::clear_cache` may do
        // between one client's queries while another client's runs.
        let spare = p.shared.reserve(&mut p.lock(), ids[2]).unwrap();
        let before = p.counters();
        p.flush().unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.counters(), before, "nothing dirty, nothing counted");
        {
            assert_eq!(p.loading(), 1);
            assert!(matches!(p.state_of(ids[2]), LOADING));
            assert!(matches!(p.state_of(ids[0]), EMPTY));
        }
        // Unpinned page 0 went, pinned page 1 stayed.
        assert_eq!(p.resident_ids(), vec![ids[1]]);
        // The read settles into the slot that was kept for it.
        drop(p.shared.fault(ids[2], spare).unwrap());
        assert_eq!(p.loading(), 0);
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
        let spare = p.shared.reserve(&mut p.lock(), ids[1]).unwrap();
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
        drop(p.shared.fault(ids[1], spare).unwrap());
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

    /// White-box hooks on the pool's internals.
    impl BufferPool {
        fn lock(&self) -> MutexGuard<'_, State> {
            self.shared.lock()
        }

        fn resident_ids(&self) -> Vec<PageId> {
            self.indexed_in(RESIDENT)
        }

        /// Slots reserved by a fault whose read has not settled.
        fn loading(&self) -> usize {
            self.indexed_in(LOADING).len()
        }

        fn state_of(&self, id: PageId) -> u64 {
            self.shared.slots.get(id).map_or(EMPTY, Slot::state)
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
