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
//! atomic LRU stamp, and the frame behind a lock of its own.
//!
//! Requests come in *runs*: [`BufferPool::pin_each`] pins a list of
//! pages a run at a time, and [`BufferPool::pin`] is a run of one. A run
//! holds at most a quarter of the frames (and at most 64 pins), and
//! takes its ticks as one block with one `fetch_add` on the pool's tick,
//! request `i` stamped with the block's `i`-th tick. A hit raises its
//! slot's pin count with a compare-and-swap and takes no pool lock; if
//! every request of a run hits, the run takes its block once all are
//! pinned and never sees the pool lock at all. An unpin lowers the pin
//! count.
//!
//! The pool lock covers what a fault, an allocation, a flush or a cache
//! clear change: the ordered LRU index, the counts of faults begun and
//! of evictions, and every transition into or out of a resident frame
//! but the fault's install. A run takes it once, at its first miss, and
//! takes its block there; it then handles each remaining request in
//! order, each seeing what the one before it did: a resident page is a
//! hit, a page the run has already reserved is a hit on that loading
//! slot, and any other page evicts the LRU victim, if the pool is full,
//! and has its slot marked *loading* and indexed under its tick. So a
//! page that an earlier miss of the same run evicted misses too, as it
//! would pin by pin. With the lock released, each reserved page is read
//! and checksummed into its victim's buffer, so a fault in a full pool
//! allocates nothing, and installed by publishing its slot's state word;
//! the run then counts its faults on the shared counters once. A
//! loading slot counts against capacity, is neither evictable nor dirty,
//! and a second caller for the same page parks until it settles instead
//! of reading the page twice; the install wakes parked callers only if
//! one set the slot's waiter bit, and a run with reads of its own
//! settles them before it parks.
//!
//! Page ids are dense file offsets, so the slot table is indexed by page
//! id: a pin indexes it directly, nothing is hashed. Eviction is exact
//! LRU — the victim is the unpinned frame with the smallest stamp, a pure
//! function of the access history. The index of frames, a queue of
//! `(stamp, page)` in stamp order, is repaired lazily: a hit moves only
//! its slot's stamp, and the evictor, walking the queue from its old
//! end, re-files an entry whose stamp has moved and steps over pinned
//! and loading frames, so the first unpinned frame whose key is current
//! is the one a scan of every frame would pick. Every entry is filed
//! under its key, not pushed at the back: another caller's fault may
//! hold a later tick than a run's reservations. Every request takes one
//! tick, and a run's own pages hold the newest stamps, so its later
//! misses never choose among them: one caller alone sees the same hits,
//! faults and victims whether it pins page by page or in runs, and
//! whatever other threads exist; under several callers only the
//! interleaving of their requests differs.
//!
//! Counters distinguish data (heap) from index (B+Tree) faults so cost
//! models can attribute I/O to the operator that caused it. They are kept
//! twice: once per pool, and once per thread (`thread_io`) so that a
//! session can meter its own I/O while other sessions use the same pool.
//! The pool's hits are not counted on a shared line at all: a request is
//! a hit, a fault begun or an allocation, so the hits are the ticks less
//! the other two, less the ticks of runs not yet served — a run's block
//! is on record under the pool lock until each of its requests is, and
//! all of it if the run ends early on an error.

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

/// What one request, or one eviction, did: what the run differential
/// compares with pin-by-pin requests. Recorded, in test builds only,
/// by a thread that keeps a journal.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Hit(PageId),
    Fault(PageId),
    Evict(PageId),
}

#[cfg(test)]
thread_local! {
    static JOURNAL: std::cell::RefCell<Option<Vec<Event>>> = const { std::cell::RefCell::new(None) };
}

/// Record `event` in the calling thread's journal, if it keeps one.
#[cfg(test)]
fn journal(event: Event) {
    JOURNAL.with(|j| {
        if let Some(events) = j.borrow_mut().as_mut() {
            events.push(event);
        }
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

    /// Pin the frame if it is resident. The caller stamps it.
    fn try_pin(&self) -> bool {
        let mut word = self.word.load(Ordering::Acquire);
        while word & STATE == RESIDENT {
            match self.word.compare_exchange_weak(
                word,
                word + PIN,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
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
    /// are unique within a pool, so the keys are too. Every entry is
    /// filed under its key: a run's ticks are taken before its faults
    /// are, so another caller's fault may already hold a later key.
    /// Entries are new ticks nearly always, so an update moves only the
    /// ends of the queue.
    lru: VecDeque<(u64, PageId)>,
    /// Faults begun: each took a tick, whether its read succeeded or not.
    misses: u64,
    allocations: u64,
    /// Ticks of runs that reached the pool lock and have not served the
    /// requests they were taken for — all of them, if a run ended early.
    unserved: u64,
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

/// Most pins one run holds.
const RUN_MAX: usize = 64;

/// A fault a run owes: the request that reserved the slot, and the
/// buffer of the frame its reservation evicted.
type Owed = (usize, Option<Arc<Page>>);

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

/// Stamp the pinned hits `pins` of the requests `ids` with their ticks
/// of the block that starts at `base`, in request order.
#[cfg_attr(not(test), allow(unused_variables))]
fn stamp_hits(ids: &[PageId], base: u64, pins: &[Option<Pinned<'_>>]) {
    for (at, pin) in pins.iter().enumerate() {
        let pin = pin.as_ref().expect("a hit is pinned");
        pin.slot.stamp.store(base + at as u64, Ordering::Relaxed);
        #[cfg(test)]
        journal(Event::Hit(ids[at]));
    }
}

/// Index of a page kind in the fault counters.
fn kind_of(page: &Page) -> usize {
    match page.kind() {
        Some(PageKind::Heap) => 0,
        Some(PageKind::BTreeLeaf) | Some(PageKind::BTreeInternal) => 1,
        None => 2,
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins one run holds at most: a quarter of the frames, so that the
    /// run's own pages, which hold the newest stamps, are never what its
    /// later misses must evict, and two runs at once leave most of the
    /// pool evictable.
    fn run_len(&self) -> usize {
        (self.capacity / 4).clamp(1, RUN_MAX)
    }

    /// Pin each of `ids` — at most [`Shared::run_len`] of them — into
    /// the same place of `pins`, every request counted as a hit or a
    /// fault and stamped with its tick of the run's block. On an error,
    /// the run's reads have settled and what it pinned is in `pins`.
    fn acquire<'p>(&'p self, ids: &[PageId], pins: &mut [Option<Pinned<'p>>]) -> Result<()> {
        debug_assert!(ids.len() <= self.run_len() && pins.len() == ids.len());
        for (at, &id) in ids.iter().enumerate() {
            match self.slots.get(id) {
                Some(slot) if slot.try_pin() => pins[at] = Some(Pinned { slot }),
                _ => return self.misses(ids, at, pins),
            }
        }
        // Taken once every request is pinned: until then a snapshot of
        // the counters cannot count as hits what may yet be faults.
        let base = self.tick.0.fetch_add(ids.len() as u64, Ordering::Relaxed) + 1;
        stamp_hits(ids, base, pins);
        count_mine(|c| c.hits += ids.len() as u64);
        Ok(())
    }

    /// The rest of a run from its first request whose page was not
    /// resident. Under the pool lock, taken once unless the run must
    /// wait for another caller's read, each request in order is a hit, a
    /// hit on a slot this run reserved, or a reservation of its own, so
    /// a page that an earlier miss of the run evicted misses too. The
    /// reserved pages are read with the lock released.
    fn misses<'p>(
        &'p self,
        ids: &[PageId],
        mut at: usize,
        pins: &mut [Option<Pinned<'p>>],
    ) -> Result<()> {
        let mut hits = at as u64;
        let mut owed: [Owed; RUN_MAX] = [const { (0, None) }; RUN_MAX];
        let mut owing = 0;
        let mut failed = Ok(());
        let mut state = self.lock();
        // The run's block, taken where the requests it does not serve
        // yet are on record, so the derived hits never run ahead.
        let base = self.tick.0.fetch_add(ids.len() as u64, Ordering::Relaxed) + 1;
        stamp_hits(&ids[..at], base, &pins[..at]);
        state.unserved += (ids.len() - at) as u64;
        while at < ids.len() {
            let (id, tick) = (ids[at], base + at as u64);
            let slot = self.slots.get(id);
            match slot.map_or(EMPTY, Slot::state) {
                // Nothing claims a frame but under the lock: this pins.
                RESIDENT => {
                    let slot = slot.expect("a resident page has a slot");
                    if !slot.try_pin() {
                        continue;
                    }
                    slot.stamp.store(tick, Ordering::Relaxed);
                    #[cfg(test)]
                    journal(Event::Hit(id));
                    pins[at] = Some(Pinned { slot });
                    hits += 1;
                }
                LOADING => {
                    let slot = slot.expect("a loading page has a slot");
                    let ours = owed[..owing].iter().any(|(first, _)| {
                        pins[*first]
                            .as_ref()
                            .is_some_and(|p| std::ptr::eq(p.slot, slot))
                    });
                    if ours {
                        slot.word.fetch_add(PIN, Ordering::Relaxed);
                        slot.stamp.store(tick, Ordering::Relaxed);
                        #[cfg(test)]
                        journal(Event::Hit(id));
                        pins[at] = Some(Pinned { slot });
                        hits += 1;
                    } else if owing > 0 {
                        // Its reader may be parked on one of ours: read
                        // ours before waiting for it.
                        drop(state);
                        failed = self.settle(ids, pins, &mut owed[..owing]);
                        owing = 0;
                        state = self.lock();
                        if failed.is_err() {
                            break;
                        }
                        continue;
                    } else {
                        // When it settles this request is a hit — or, if
                        // that read failed, ours to try.
                        state = self.park(state, slot);
                        continue;
                    }
                }
                _ => match self.reserve(&mut state, id, tick) {
                    Ok(spare) => {
                        pins[at] = Some(Pinned {
                            slot: self.slots.indexed(id),
                        });
                        owed[owing] = (at, spare);
                        owing += 1;
                    }
                    Err(e) => {
                        failed = Err(e);
                        break;
                    }
                },
            }
            state.unserved -= 1;
            at += 1;
        }
        drop(state);
        count_mine(|c| c.hits += hits);
        let settled = self.settle(ids, pins, &mut owed[..owing]);
        failed.and(settled)
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
            #[cfg(test)]
            journal(Event::Evict(pid));
            spare = Some(page);
        }
        Ok(spare)
    }

    /// A fault's reservation, under the pool lock: make room, mark
    /// `id`'s slot loading with the request's pin and index it under the
    /// request's tick.
    fn reserve(&self, state: &mut State, id: PageId, tick: u64) -> Result<Option<Arc<Page>>> {
        // Refused before anything is evicted or the table grows for it.
        self.file.check_allocated(id)?;
        let spare = self.make_room(state)?;
        #[cfg(test)]
        journal(Event::Fault(id));
        let slot = self.slots.grow(id);
        slot.stamp.store(tick, Ordering::Relaxed);
        state.file(tick, id);
        state.misses += 1;
        slot.word.store(LOADING + PIN, Ordering::Release);
        Ok(spare)
    }

    /// Read the pages a run reserved, with the pool lock released, each
    /// into the buffer its reservation evicted; install each by
    /// publishing its slot's state word with the run's pins on it, or,
    /// if its read failed, empty the slot and drop the run's pins on it
    /// unreleased. Counts the faults once, wakes whoever waits once, and
    /// returns the first read's error.
    fn settle(
        &self,
        ids: &[PageId],
        pins: &mut [Option<Pinned<'_>>],
        owed: &mut [Owed],
    ) -> Result<()> {
        let (mut kinds, mut wake, mut failed) = ([0u64; 3], false, Ok(()));
        for (first, spare) in owed.iter_mut() {
            let (id, slot) = (ids[*first], pins[*first].as_ref().expect("reserved").slot);
            match self.read(id, spare.take()) {
                Ok(page) => {
                    kinds[kind_of(&page)] += 1;
                    *slot.frame() = Frame {
                        page: Some(page),
                        dirty: false,
                    };
                    let installed =
                        slot.word
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                                Some(w & !(STATE | WAITED) | RESIDENT)
                            });
                    wake |= installed.expect("always updated") & WAITED != 0;
                }
                Err(e) => {
                    let mut state = self.lock();
                    if let Some(at) = state.lru.iter().rposition(|&(_, pid)| pid == id) {
                        state.lru.remove(at);
                    }
                    wake |= slot.word.swap(EMPTY, Ordering::AcqRel) & WAITED != 0;
                    drop(state);
                    // The pins went with the slot's word.
                    for pin in pins.iter_mut() {
                        if pin.as_ref().is_some_and(|p| std::ptr::eq(p.slot, slot)) {
                            std::mem::forget(pin.take());
                        }
                    }
                    failed = failed.and(Err(e));
                }
            }
        }
        for (n, counter) in kinds.iter().zip(&self.faults.0) {
            if *n > 0 {
                counter.fetch_add(*n, Ordering::Relaxed);
            }
        }
        let [data, index, other] = kinds;
        if data + index + other > 0 {
            count_mine(|c| {
                c.faults += data + index + other;
                c.data_faults += data;
                c.index_faults += index;
            });
        }
        if wake {
            let _state = self.lock();
            self.settled.notify_all();
        }
        failed
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

    /// Pin one page: a run of one.
    fn pin(&self, id: PageId) -> Result<Pinned<'_>> {
        let mut pins = [None];
        self.acquire(&[id], &mut pins)?;
        Ok(pins[0].take().expect("a run pins what it returns Ok for"))
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
        let tick = pool.tick.0.fetch_add(1, Ordering::Relaxed) + 1;
        slot.stamp.store(tick, Ordering::Relaxed);
        state.file(tick, id);
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
        let pin = self.shared.pin(id)?;
        Ok(PageRef {
            id,
            page: pin.slot.page(),
            _pin: pin,
        })
    }

    /// Pin each of `ids` in order and hand its page, with its place in
    /// `ids`, to `visit`, then unpin it. Counts a hit or fault per id.
    /// The requests go in runs of at most a quarter of the frames (and
    /// at most 64): each run takes its ticks as one block, takes the pool
    /// lock once at its first miss, reads its faults with the lock
    /// released, then visits its pages. One caller alone sees exactly
    /// the hits, faults and victims that pinning the pages one at a time
    /// would give. `visit` holds its page's slot lock, so like a
    /// [`BufferPool::with_page_mut`] closure it MUST NOT call back into
    /// the pool.
    pub fn pin_each(
        &self,
        ids: &[PageId],
        mut visit: impl FnMut(usize, &Page) -> Result<()>,
    ) -> Result<()> {
        let pool = &*self.shared;
        let mut pins: [Option<Pinned<'_>>; RUN_MAX] = [const { None }; RUN_MAX];
        for (run, chunk) in ids.chunks(pool.run_len()).enumerate() {
            let pins = &mut pins[..chunk.len()];
            pool.acquire(chunk, pins)?;
            for (at, pin) in pins.iter_mut().enumerate() {
                let pin = pin.take().expect("a run pins every request");
                let frame = pin.slot.frame();
                let page = frame.page.as_ref().expect("a pinned frame is resident");
                visit(run * pool.run_len() + at, page)?;
            }
        }
        Ok(())
    }

    /// Mutate a page in place, marking it dirty. Counts a hit or fault.
    /// The closure MUST NOT call back into the pool (a flush holding the
    /// pool lock may be waiting for this page's slot); callers that need
    /// a second page (e.g. B+Tree splits) allocate it *before* entering
    /// the closure.
    pub fn with_page_mut<T>(&self, id: PageId, f: impl FnOnce(&mut Page) -> T) -> Result<T> {
        let pin = self.shared.pin(id)?;
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
            hits: pool.tick.0.load(Ordering::Relaxed)
                - state.misses
                - state.allocations
                - state.unserved,
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
        let spare = p.reserve(ids[1]).unwrap();
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
        let pinned = p.fault(ids[1], spare).unwrap();
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
        let spare = p.reserve(ghost).unwrap();
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
                                // The last thread reads in runs.
                                _ if t == THREADS - 1 => {
                                    let run: Vec<PageId> = (0..1 + r.next_u64() % 64)
                                        .map(|_| ids[(r.next_u64() % ids.len() as u64) as usize])
                                        .collect();
                                    p.pin_each(&run, |i, page| {
                                        assert_eq!(
                                            page.record(0).unwrap(),
                                            format!("page {}", run[i]).as_bytes()
                                        );
                                        Ok(())
                                    })
                                    .unwrap();
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
                                assert!(p.keys().is_sorted_by(|a, b| a < b), "thread {t} op {op}");
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
        let spare = p.reserve(ids[2]).unwrap();
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
        drop(p.fault(ids[2], spare).unwrap());
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
        let spare = p.reserve(ids[1]).unwrap();
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
        /// Every request's and every eviction's event, in order.
        journal: Vec<Event>,
        /// A page whose read fails, if the file has one.
        ghost: Option<PageId>,
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
                self.journal.push(Event::Evict(pid));
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
            if id as usize >= self.kinds.len() {
                return Err(());
            }
            if self.frames.contains_key(&id) {
                self.counters.hits += 1;
                self.journal.push(Event::Hit(id));
            } else {
                self.make_room()?;
                self.journal.push(Event::Fault(id));
                if self.ghost == Some(id) {
                    // A fault begun whose read failed: not a hit, not a
                    // fault installed, and nothing resident.
                    self.tick += 1;
                    return Err(());
                }
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

        /// With the pool full: a page that is not resident, and the
        /// frame its fault would evict.
        fn miss_and_victim(&self, r: &mut rng::StdRng) -> Option<(PageId, PageId)> {
            if self.frames.len() < self.capacity {
                return None;
            }
            let (_, victim) = self
                .frames
                .iter()
                .filter(|(_, f)| f.pins == 0)
                .map(|(&pid, f)| (f.last_used, pid))
                .min()?;
            let pages = self.kinds.len() as u64;
            let miss = (0..64)
                .map(|_| r.next_u64() % pages)
                .find(|id| !self.frames.contains_key(id) && self.ghost != Some(*id))?;
            Some((miss, victim))
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

        /// A one-page run stopped where it releases the pool lock to
        /// read: `id`'s slot reserved under a tick of its own.
        fn reserve(&self, id: PageId) -> Result<Option<Arc<Page>>> {
            let tick = self.shared.tick.0.fetch_add(1, Ordering::Relaxed) + 1;
            self.shared.reserve(&mut self.lock(), id, tick)
        }

        /// The rest of that run: read and install the page, or empty its
        /// slot.
        fn fault(&self, id: PageId, spare: Option<Arc<Page>>) -> Result<Pinned<'_>> {
            let slot = self.shared.slots.indexed(id);
            let mut pins = [Some(Pinned { slot })];
            self.shared.settle(&[id], &mut pins, &mut [(0, spare)])?;
            Ok(pins[0].take().expect("installed with its pin"))
        }

        /// The LRU index's keys, which must rise strictly.
        fn keys(&self) -> Vec<u64> {
            self.lock().lru.iter().map(|&(key, _)| key).collect()
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

    /// The calling thread's journal since it was last taken; a journal
    /// is kept from the first call on.
    fn take_journal() -> Vec<Event> {
        JOURNAL.with(|j| j.borrow_mut().replace(Vec::new()).unwrap_or_default())
    }

    #[test]
    fn a_run_sees_exactly_what_pinning_one_page_at_a_time_would() {
        for capacity in [1usize, 2, 7, 256] {
            let mut r = rng::seeded(rng::DEFAULT_SEED, &format!("run-diff-{capacity}"));
            let real = pool(capacity);
            let mut model = ScanModel {
                capacity,
                ..ScanModel::default()
            };
            let pages = 4 * capacity as u64 + 5;
            for i in 0..pages {
                let id = real.allocate(PageKind::Heap).unwrap();
                assert_eq!(model.allocate(PageKind::Heap), Ok(id));
                real.with_page_mut(id, |pg| pg.insert(format!("page {i}").as_bytes()))
                    .unwrap();
                model.load(id, false, true).unwrap();
            }
            // Allocated in the file, never written: reading it fails.
            let ghost = real.shared.file.allocate();
            model.kinds.push(PageKind::Heap);
            model.ghost = Some(ghost);
            real.clear_cache().unwrap();
            model.clear_cache();
            take_journal();
            model.journal.clear();
            // Guards in hand, each with the step at which it is dropped.
            let mut held: Vec<(PageRef, usize)> = Vec::new();
            // Hits on a page its own run faulted in, and faults on a page
            // an earlier miss of the same run evicted.
            let (mut repeated, mut refaulted, mut failed) = (0, 0, 0);
            for step in 0..1_500 {
                held.retain(|(guard, until)| {
                    let keep = *until > step;
                    if !keep {
                        model.unpin(guard.id());
                    }
                    keep
                });
                if held.len() < capacity / 2 && r.next_u64().is_multiple_of(8) {
                    let id = r.next_u64() % pages;
                    let guard = real.pin(id).unwrap();
                    model.load(id, true, false).unwrap();
                    held.push((guard, step + 1 + (r.next_u64() % 5) as usize));
                }
                let len = 1 + (r.next_u64() % 64) as usize;
                let mut ids = Vec::with_capacity(len + 2);
                if r.next_u64().is_multiple_of(4) {
                    ids.extend(
                        model
                            .miss_and_victim(&mut r)
                            .map(|(m, v)| [m, v])
                            .into_iter()
                            .flatten(),
                    );
                }
                while ids.len() < len {
                    let repeat = !ids.is_empty() && r.next_u64().is_multiple_of(8);
                    ids.push(if repeat {
                        ids[(r.next_u64() % ids.len() as u64) as usize]
                    } else {
                        r.next_u64() % pages
                    });
                }
                match r.next_u64() % 32 {
                    // Beyond the file: refused before it takes a frame.
                    0 => ids[(r.next_u64() % len as u64) as usize] = pages + 1_000,
                    1 => *ids.last_mut().expect("a run has a request") = ghost,
                    _ => {}
                }

                let mut visited = Vec::new();
                let got = real.pin_each(&ids, |i, page| {
                    assert_eq!(page.record(0), Some(format!("page {}", ids[i]).as_bytes()));
                    visited.push(i);
                    Ok(())
                });
                let want = ids.iter().try_for_each(|&id| model.load(id, false, false));
                let events = take_journal();
                let at = format!("capacity {capacity} step {step} run {ids:?}");
                assert_eq!(events, model.journal, "{at}");
                assert_eq!(got.is_ok(), want.is_ok(), "{at}: {got:?}");
                if got.is_ok() {
                    assert_eq!(visited, (0..ids.len()).collect::<Vec<_>>(), "{at}");
                } else {
                    failed += 1;
                }
                assert_eq!(real.counters(), model.counters, "{at}");
                assert_eq!(real.resident_ids(), model.resident(), "{at}");
                assert!(real.keys().is_sorted_by(|a, b| a < b), "{at}");
                assert_eq!(real.loading(), 0, "{at}");

                let (mut faulted, mut evicted) = (Vec::new(), Vec::new());
                for event in model.journal.drain(..) {
                    match event {
                        Event::Hit(id) => repeated += faulted.contains(&id) as u32,
                        Event::Fault(id) => {
                            refaulted += evicted.contains(&id) as u32;
                            faulted.push(id);
                        }
                        Event::Evict(id) => evicted.push(id),
                    }
                }
            }
            drop(held);
            assert!(
                model.counters.evictions > 500,
                "capacity {capacity}: {:?}",
                model.counters
            );
            assert!(failed > 50, "capacity {capacity}: {failed} runs failed");
            if capacity == 256 {
                assert!(repeated > 0 && refaulted > 0, "{repeated} {refaulted}");
            }
        }
        JOURNAL.with(|j| j.borrow_mut().take());
    }

    #[test]
    fn a_run_files_its_faults_under_their_ticks() {
        // 16 frames: runs of up to 4 pins.
        let (p, ids) = cold_pool(16, 20);
        let (q, mid, r, s) = (ids[0], ids[1], ids[2], ids[3]);
        // Another caller's read of `mid` is stopped mid-way.
        let spare = p.reserve(mid).unwrap();
        let run = {
            let p = p.clone();
            std::thread::spawn(move || {
                // Its ticks are taken first; it faults `q`, reads it, then
                // parks on `mid`.
                let mut seen = Vec::new();
                p.pin_each(&[q, mid, r], |_, page| {
                    seen.push(page.record(0).unwrap().to_vec());
                    Ok(())
                })
                .map(|()| seen)
            })
        };
        while p.lock().waiting == 0 {
            std::thread::yield_now();
        }
        // A fault with a later tick than every tick of the run's block.
        drop(p.pin(s).unwrap());
        drop(p.fault(mid, spare).unwrap());
        let seen = run.join().unwrap().unwrap();
        assert_eq!(seen, [b"page 0", b"page 1", b"page 2"]);
        // `r` was reserved last, but under an earlier tick than `s`.
        let keys = p.keys();
        assert!(keys.is_sorted_by(|a, b| a < b), "{keys:?}");
        // Fill the pool; then each miss evicts in tick order: `q` (the
        // run's first tick), `mid` (hit at the run's second), `r`, `s`.
        for &id in &ids[4..16] {
            drop(p.pin(id).unwrap());
        }
        for (&id, gone) in ids[16..].iter().zip([q, mid, r, s]) {
            assert!(p.resident_ids().contains(&gone));
            drop(p.pin(id).unwrap());
            assert!(!p.resident_ids().contains(&gone), "{gone} should have gone");
        }
    }

    #[test]
    fn a_failed_read_inside_a_run_settles_the_rest_of_it() {
        // 32 frames: the six requests are one run.
        let (p, ids) = cold_pool(32, 4);
        let ghost = p.shared.file.allocate();
        let before = p.counters();
        let err = p
            .pin_each(&[ids[0], ids[1], ghost, ids[2], ids[3], ids[1]], |_, _| {
                panic!("a failed run visits nothing")
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains(&format!("read of page {ghost}")), "{err}");
        let d = p.counters().delta(&before);
        // Every other reservation was read and installed; `ids[1]`'s
        // second request was a hit on the run's own loading slot.
        assert_eq!((d.faults, d.hits, d.evictions), (4, 1, 0));
        assert_eq!(p.resident_ids(), ids);
        assert_eq!((p.loading(), p.lock().waiting), (0, 0));
        assert!(p.keys().is_sorted_by(|a, b| a < b));
        // No pin was left behind: a cache clear drops every frame.
        p.clear_cache().unwrap();
        assert_eq!(p.resident(), 0);
        assert!(p.pin(ghost).is_err());
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
