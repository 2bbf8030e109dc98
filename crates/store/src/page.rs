//! The 4 KiB slotted page.
//!
//! Layout (offsets in bytes):
//!
//! ```text
//! 0                4     5     6           8          10    12         20        28
//! +----------------+-----+-----+-----------+----------+-----+----------+---------+--
//! | checksum (u32) |magic|kind | slots u16 | free_end | pad | next u64 | aux u64 | slot dir …
//! +----------------+-----+-----+-----------+----------+-----+----------+---------+--
//!                                              … free space …        ← records grow down
//! +------------------------------------------------------------------------------+
//! |                                                              … record area → |
//! +------------------------------------------------------------------------------+ 4096
//! ```
//!
//! The slot directory grows upward from the header (4 bytes per slot:
//! record offset `u16`, record length `u16`); records grow downward from
//! the page end. `free_end` is the lowest byte of the record area, so
//! free space is the gap between the directory and `free_end`. A deleted
//! slot keeps its index (heap RIDs stay stable) with offset `0` — no
//! live record can start inside the header — and its bytes become
//! garbage that [`Page::compact`] reclaims.
//!
//! The checksum ([`checksum`]: the FNV-1a xor-multiply step over the
//! page's little-endian `u32` words in eight independent lanes, folded
//! into one `u32`) is computed when a page is written to disk and
//! verified when it is read back; in-memory mutations leave it stale on
//! purpose.
//!
//! A page that passes [`Page::validate`] is still untrusted input to the
//! accessors: a slot count, offset or length that points outside the
//! page makes [`Page::record`] return `None`, never panic.

use disco_common::{DiscoError, Result};

/// Page size in bytes. Fixed: the OO7 experiment layout (§5) and the
/// cost rules' `PageSize` parameter both assume 4 096.
pub const PAGE_SIZE: usize = 4_096;

/// Identifies a page within a [`crate::file::PageFile`].
pub type PageId = u64;

/// Sentinel for "no next page" in the chain field.
pub const NO_PAGE: u64 = u64::MAX;

const MAGIC: u8 = 0xD5;
/// Header bytes before the slot directory.
pub const HEADER_SIZE: usize = 28;
const SLOT_SIZE: usize = 4;

const OFF_CHECKSUM: usize = 0;
const OFF_MAGIC: usize = 4;
const OFF_KIND: usize = 5;
const OFF_SLOTS: usize = 6;
const OFF_FREE_END: usize = 8;
const OFF_NEXT: usize = 12;
const OFF_AUX: usize = 20;

/// What a page stores. Stored in the header so the buffer pool can
/// attribute faults to data vs index I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Heap page holding encoded tuples.
    Heap,
    /// B+Tree leaf: cells of `key → RID list`.
    BTreeLeaf,
    /// B+Tree internal node: cells of `separator key → child page`.
    BTreeInternal,
}

impl PageKind {
    fn code(self) -> u8 {
        match self {
            PageKind::Heap => 1,
            PageKind::BTreeLeaf => 2,
            PageKind::BTreeInternal => 3,
        }
    }

    fn from_code(c: u8) -> Option<PageKind> {
        Some(match c {
            1 => PageKind::Heap,
            2 => PageKind::BTreeLeaf,
            3 => PageKind::BTreeInternal,
            _ => return None,
        })
    }
}

/// One 4 KiB page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("kind", &self.kind())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

const FNV_BASIS: u32 = 0x811c_9dc5;
const FNV_PRIME: u32 = 0x0100_0193;
/// Independent checksum chains. A page fault is bounded by the latency
/// of one dependent multiply chain; eight of them keep the multiplier
/// busy (and fill one 256-bit vector where the target has one).
const LANES: usize = 8;

/// The FNV-1a step on a whole word: xor, then multiply by an odd
/// constant — a bijection of `h` for any fixed `word`.
#[inline(always)]
fn fnv_step(h: u32, word: u32) -> u32 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Page checksum. The page is read as 1 024 little-endian `u32` words,
/// word `w` feeding lane `w % 8` through [`fnv_step`]; the eight lane
/// states are then folded, lane 0 first, through the same step into one
/// `u32`. Word 0 — the checksum field itself — is absorbed as zero.
///
/// Every step is a bijection of the running state, so two pages that
/// differ in exactly one word always have different checksums (the
/// guarantee byte-serial FNV-1a32 gives per byte); damage spanning
/// several words escapes only through a 32-bit collision.
pub fn checksum(data: &[u8; PAGE_SIZE]) -> u32 {
    let mut lanes = [FNV_BASIS; LANES];
    // Row 0 by hand: its first word is the checksum field.
    for (w, lane) in lanes.iter_mut().enumerate().skip(OFF_MAGIC / 4) {
        *lane = fnv_step(*lane, word_at(data, 4 * w));
    }
    lanes[0] = fnv_step(lanes[0], 0);
    for row in (4 * LANES..PAGE_SIZE).step_by(4 * LANES) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = fnv_step(*lane, word_at(data, row + 4 * l));
        }
    }
    lanes.into_iter().fold(FNV_BASIS, fnv_step)
}

#[inline(always)]
fn word_at(data: &[u8; PAGE_SIZE], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

impl Page {
    /// A fresh, initialized page of the given kind.
    pub fn new(kind: PageKind) -> Page {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.init(kind);
        p
    }

    /// A page around raw bytes read from disk (header unvalidated; see
    /// [`Page::validate`]).
    pub fn from_bytes(data: Box<[u8; PAGE_SIZE]>) -> Page {
        Page { data }
    }

    /// Reset to an empty page of the given kind (also clears the chain
    /// pointer and aux field).
    pub fn init(&mut self, kind: PageKind) {
        self.data.fill(0);
        self.data[OFF_MAGIC] = MAGIC;
        self.data[OFF_KIND] = kind.code();
        self.put_u16(OFF_SLOTS, 0);
        self.put_u16(OFF_FREE_END, PAGE_SIZE as u16);
        self.put_u64(OFF_NEXT, NO_PAGE);
    }

    /// An all-zero buffer for a disk read to fill: not a valid page
    /// until then.
    pub(crate) fn zeroed() -> Page {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Raw bytes (for writing to disk).
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Raw bytes, for a disk read to overwrite.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Stamp the checksum over the current contents (done by the page
    /// file just before a write).
    pub fn seal(&mut self) {
        let c = checksum(&self.data);
        self.put_u32(OFF_CHECKSUM, c);
    }

    /// Verify magic and checksum after a read from disk.
    pub fn validate(&self) -> Result<()> {
        if self.data[OFF_MAGIC] != MAGIC {
            return Err(DiscoError::Source(
                "store: page magic mismatch (torn or foreign page)".into(),
            ));
        }
        let stored = self.get_u32(OFF_CHECKSUM);
        let actual = checksum(&self.data);
        if stored != actual {
            return Err(DiscoError::Source(format!(
                "store: page checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(())
    }

    /// The page kind stored in the header.
    pub fn kind(&self) -> Option<PageKind> {
        PageKind::from_code(self.data[OFF_KIND])
    }

    /// Number of slots in the directory (live and dead).
    pub fn slot_count(&self) -> usize {
        self.get_u16(OFF_SLOTS) as usize
    }

    /// Chain pointer: next heap page / right leaf sibling.
    pub fn next(&self) -> Option<PageId> {
        let n = self.get_u64(OFF_NEXT);
        (n != NO_PAGE).then_some(n)
    }

    /// Set the chain pointer.
    pub fn set_next(&mut self, next: Option<PageId>) {
        self.put_u64(OFF_NEXT, next.unwrap_or(NO_PAGE));
    }

    /// Auxiliary header field (B+Tree internal nodes keep their leftmost
    /// child here).
    pub fn aux(&self) -> u64 {
        self.get_u64(OFF_AUX)
    }

    /// Set the auxiliary field.
    pub fn set_aux(&mut self, v: u64) {
        self.put_u64(OFF_AUX, v);
    }

    fn dir_end(&self) -> usize {
        HEADER_SIZE + SLOT_SIZE * self.slot_count()
    }

    fn free_end(&self) -> usize {
        self.get_u16(OFF_FREE_END) as usize
    }

    /// Contiguous free bytes between the slot directory and the record
    /// area (garbage from deleted records not included — see
    /// [`Page::compact`]).
    pub fn free_space(&self) -> usize {
        self.free_end().saturating_sub(self.dir_end())
    }

    /// Directory entry `idx`, or `None` past the slot count — or past
    /// the page, when the slot count itself is damaged.
    fn slot(&self, idx: usize) -> Option<(usize, usize)> {
        let at = HEADER_SIZE + SLOT_SIZE * idx;
        if idx >= self.slot_count() || at + SLOT_SIZE > PAGE_SIZE {
            return None;
        }
        let off = self.get_u16(at) as usize;
        let len = self.get_u16(at + 2) as usize;
        Some((off, len))
    }

    fn set_slot(&mut self, idx: usize, off: usize, len: usize) {
        let at = HEADER_SIZE + SLOT_SIZE * idx;
        self.put_u16(at, off as u16);
        self.put_u16(at + 2, len as u16);
    }

    /// Record bytes of a live slot (`None` for dead or out-of-range
    /// slots, and for a slot whose bytes would not lie inside the page).
    pub fn record(&self, idx: usize) -> Option<&[u8]> {
        let (off, len) = self.slot(idx)?;
        if off < HEADER_SIZE {
            return None;
        }
        self.data.get(off..off + len)
    }

    /// Live `(slot, bytes)` pairs in slot order.
    pub fn records(&self) -> impl Iterator<Item = (usize, &[u8])> {
        (0..self.slot_count()).filter_map(|i| self.record(i).map(|r| (i, r)))
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.records().count()
    }

    /// Allocate record space from the free gap, compacting first when
    /// the gap alone is too small. Returns the record offset.
    fn allocate(&mut self, len: usize, extra_dir: usize) -> Option<usize> {
        if self.free_space() < len + extra_dir {
            self.compact();
            if self.free_space() < len + extra_dir {
                return None;
            }
        }
        let off = self.free_end() - len;
        self.put_u16(OFF_FREE_END, off as u16);
        Some(off)
    }

    /// Insert a record, reusing the first dead slot if any, else
    /// appending a new one. Returns the slot index, or `None` when the
    /// page is full even after compaction.
    pub fn insert(&mut self, bytes: &[u8]) -> Option<usize> {
        let reuse = (0..self.slot_count()).find(|&i| self.slot(i).is_some_and(|(off, _)| off == 0));
        let extra_dir = if reuse.is_some() { 0 } else { SLOT_SIZE };
        let off = self.allocate(bytes.len(), extra_dir)?;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        let idx = match reuse {
            Some(i) => i,
            None => {
                let i = self.slot_count();
                self.put_u16(OFF_SLOTS, (i + 1) as u16);
                i
            }
        };
        self.set_slot(idx, off, bytes.len());
        Some(idx)
    }

    /// Insert a record *at* slot index `idx`, shifting later slots up —
    /// B+Tree pages keep their cells in key order this way. All slots
    /// must be live (trees never leave dead slots).
    pub fn insert_at(&mut self, idx: usize, bytes: &[u8]) -> bool {
        let n = self.slot_count();
        debug_assert!(idx <= n, "insert_at past directory end");
        let Some(off) = self.allocate(bytes.len(), SLOT_SIZE) else {
            return false;
        };
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
        // Shift directory entries [idx, n) up one slot.
        let start = HEADER_SIZE + SLOT_SIZE * idx;
        let end = HEADER_SIZE + SLOT_SIZE * n;
        self.data.copy_within(start..end, start + SLOT_SIZE);
        self.put_u16(OFF_SLOTS, (n + 1) as u16);
        self.set_slot(idx, off, bytes.len());
        true
    }

    /// Replace the record at a live slot. Shrinks in place; growth
    /// allocates fresh space (the old bytes become garbage, compacted
    /// away when the gap alone is too small). Returns `false`, leaving
    /// the page as it was, when it cannot hold the new record.
    pub fn replace(&mut self, idx: usize, bytes: &[u8]) -> bool {
        let Some((off, len)) = self.slot(idx) else {
            return false;
        };
        if off == 0 {
            return false;
        }
        if bytes.len() <= len {
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            self.set_slot(idx, off, bytes.len());
            return true;
        }
        if self.free_space() < bytes.len() {
            // Only a compaction can make room: would the record fit then?
            let others: usize = self.records().map(|(_, r)| r.len()).sum::<usize>() - len;
            if self.dir_end() + others + bytes.len() > PAGE_SIZE {
                return false;
            }
        }
        // Retire the old copy first so a compaction drops its bytes.
        self.set_slot(idx, 0, 0);
        let new_off = self
            .allocate(bytes.len(), 0)
            .expect("growth checked against the compacted page");
        self.data[new_off..new_off + bytes.len()].copy_from_slice(bytes);
        self.set_slot(idx, new_off, bytes.len());
        true
    }

    /// Mark a slot dead, keeping its index (heap RIDs stay stable).
    /// Returns `false` for dead or out-of-range slots.
    pub fn delete(&mut self, idx: usize) -> bool {
        match self.slot(idx) {
            Some((off, _)) if off != 0 => {
                self.set_slot(idx, 0, 0);
                true
            }
            _ => false,
        }
    }

    /// Remove a slot entirely, shifting later slots down — the B+Tree
    /// variant of deletion, where cell indexes are positional.
    pub fn remove_at(&mut self, idx: usize) {
        let n = self.slot_count();
        debug_assert!(idx < n, "remove_at past directory end");
        self.set_slot(idx, 0, 0);
        let start = HEADER_SIZE + SLOT_SIZE * (idx + 1);
        let end = HEADER_SIZE + SLOT_SIZE * n;
        self.data.copy_within(start..end, start - SLOT_SIZE);
        self.put_u16(OFF_SLOTS, (n - 1) as u16);
    }

    /// Squeeze out garbage: repack live records against the page end so
    /// the free gap is contiguous again. Slot indexes are preserved.
    pub fn compact(&mut self) {
        let mut live: Vec<(usize, usize, usize)> = (0..self.slot_count())
            .filter_map(|i| {
                self.slot(i)
                    .filter(|&(off, _)| off != 0)
                    .map(|(o, l)| (i, o, l))
            })
            .collect();
        // Repack highest-offset first so moves never overwrite unread
        // source bytes (records only ever move toward the page end).
        live.sort_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        let mut free_end = PAGE_SIZE;
        for (idx, off, len) in live {
            let new_off = free_end - len;
            self.data.copy_within(off..off + len, new_off);
            self.set_slot(idx, new_off, len);
            free_end = new_off;
        }
        self.put_u16(OFF_FREE_END, free_end as u16);
    }

    fn get_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn put_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u32(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.data[at..at + 4].try_into().expect("4 bytes"))
    }

    fn put_u32(&mut self, at: usize, v: u32) {
        self.data[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.data[at..at + 8].try_into().expect("8 bytes"))
    }

    fn put_u64(&mut self, at: usize, v: u64) {
        self.data[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut p = Page::new(PageKind::Heap);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"bravo-longer").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(p.record(a).unwrap(), b"alpha");
        assert_eq!(p.record(b).unwrap(), b"bravo-longer");
        assert_eq!(p.live_count(), 2);
        assert_eq!(p.kind(), Some(PageKind::Heap));
    }

    #[test]
    fn delete_keeps_slot_indexes_stable() {
        let mut p = Page::new(PageKind::Heap);
        let a = p.insert(b"aa").unwrap();
        let b = p.insert(b"bb").unwrap();
        let c = p.insert(b"cc").unwrap();
        assert!(p.delete(b));
        assert!(!p.delete(b), "double delete rejected");
        assert_eq!(p.record(a).unwrap(), b"aa");
        assert!(p.record(b).is_none());
        assert_eq!(p.record(c).unwrap(), b"cc");
        // The dead slot is reused by the next insert.
        let d = p.insert(b"dd").unwrap();
        assert_eq!(d, b);
        assert_eq!(p.record(d).unwrap(), b"dd");
    }

    #[test]
    fn compaction_reclaims_garbage() {
        let mut p = Page::new(PageKind::Heap);
        // Fill the page with 100-byte records.
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&[7u8; 100]) {
            slots.push(s);
        }
        let full = slots.len();
        assert!(full >= 38, "expected ~40 records, got {full}");
        // Delete every other record: gap appears but is fragmented.
        for &s in slots.iter().step_by(2) {
            assert!(p.delete(s));
        }
        // Inserts now succeed again (insert compacts internally).
        let mut extra = 0;
        while p.insert(&[9u8; 100]).is_some() {
            extra += 1;
        }
        assert!(extra >= full / 2, "compaction reclaimed {extra} slots");
        // Survivors are intact.
        for &s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.record(s).unwrap(), &[7u8; 100]);
        }
    }

    #[test]
    fn insert_at_keeps_order_and_remove_at_shifts() {
        let mut p = Page::new(PageKind::BTreeLeaf);
        assert!(p.insert_at(0, b"m"));
        assert!(p.insert_at(0, b"a"));
        assert!(p.insert_at(2, b"z"));
        assert!(p.insert_at(1, b"c"));
        let got: Vec<&[u8]> = p.records().map(|(_, r)| r).collect();
        assert_eq!(got, vec![b"a" as &[u8], b"c", b"m", b"z"]);
        p.remove_at(1);
        let got: Vec<&[u8]> = p.records().map(|(_, r)| r).collect();
        assert_eq!(got, vec![b"a" as &[u8], b"m", b"z"]);
        assert_eq!(p.slot_count(), 3);
    }

    #[test]
    fn replace_shrink_and_grow() {
        let mut p = Page::new(PageKind::BTreeLeaf);
        let i = p.insert(b"0123456789").unwrap();
        assert!(p.replace(i, b"abc"));
        assert_eq!(p.record(i).unwrap(), b"abc");
        assert!(p.replace(i, b"a-much-longer-record-payload"));
        assert_eq!(p.record(i).unwrap(), b"a-much-longer-record-payload");
    }

    #[test]
    fn replace_grow_when_nearly_full() {
        let mut p = Page::new(PageKind::BTreeLeaf);
        let first = p.insert(&[1u8; 64]).unwrap();
        while p.insert(&[2u8; 64]).is_some() {}
        // Growing the first record must either succeed via compaction of
        // its own old copy, or fail cleanly.
        let grew = p.replace(first, &[3u8; 80]);
        let expect: &[u8] = if grew { &[3u8; 80] } else { &[1u8; 64] };
        assert_eq!(p.record(first).unwrap(), expect);
        // A record the page cannot hold even compacted leaves it intact.
        assert!(!p.replace(first, &[4u8; 400]));
        assert_eq!(p.record(first).unwrap(), expect);
    }

    #[test]
    fn page_full_returns_none() {
        let mut p = Page::new(PageKind::Heap);
        while p.insert(&[0u8; 200]).is_some() {}
        assert!(p.insert(&[0u8; 200]).is_none());
        assert!(p.free_space() < 204);
        // A smaller record can still fit.
        assert!(p.insert(&[0u8; 8]).is_some() || p.free_space() < 12);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new(PageKind::Heap);
        assert!(p.insert(&[0u8; PAGE_SIZE]).is_none());
        assert!(p.insert(&[0u8; PAGE_SIZE - HEADER_SIZE - 3]).is_none());
    }

    #[test]
    fn checksum_round_trip_and_corruption() {
        let mut p = Page::new(PageKind::Heap);
        p.insert(b"payload").unwrap();
        p.seal();
        assert!(p.validate().is_ok());
        // Flip one payload bit.
        let mut raw = *p.bytes();
        raw[PAGE_SIZE - 3] ^= 0x01;
        let corrupt = Page::from_bytes(Box::new(raw));
        assert!(corrupt.validate().is_err());
        // Bad magic reported distinctly.
        let zero = Page::from_bytes(Box::new([0u8; PAGE_SIZE]));
        let err = zero.validate().unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn next_and_aux_fields() {
        let mut p = Page::new(PageKind::BTreeInternal);
        assert_eq!(p.next(), None);
        p.set_next(Some(42));
        assert_eq!(p.next(), Some(42));
        p.set_next(None);
        assert_eq!(p.next(), None);
        p.set_aux(7);
        assert_eq!(p.aux(), 7);
        // init clears both.
        p.init(PageKind::Heap);
        assert_eq!(p.next(), None);
        assert_eq!(p.aux(), 0);
    }

    fn sealed(fill: u8) -> Page {
        let mut p = Page::new(PageKind::Heap);
        while p.insert(&[fill; 56]).is_some() {}
        p.set_next(Some(fill as u64));
        p.seal();
        assert!(p.validate().is_ok());
        p
    }

    #[test]
    fn checksum_is_the_documented_lane_fold() {
        // The definition, spelled out scalar and word by word.
        let p = sealed(0x5A);
        let words: Vec<u32> = p
            .bytes()
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let mut lanes = [FNV_BASIS; LANES];
        for (w, &word) in words.iter().enumerate() {
            let word = if w == 0 { 0 } else { word };
            lanes[w % LANES] = (lanes[w % LANES] ^ word).wrapping_mul(FNV_PRIME);
        }
        let mut h = FNV_BASIS;
        for lane in lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(checksum(p.bytes()), h);
        assert_eq!(p.get_u32(OFF_CHECKSUM), h);
    }

    #[test]
    fn every_single_bit_flip_fails_validation() {
        let p = sealed(0xA7);
        let mut raw = *p.bytes();
        for bit in 0..PAGE_SIZE * 8 {
            raw[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Page::from_bytes(Box::new(raw)).validate().is_err(),
                "flip of bit {bit} went undetected"
            );
            raw[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(&raw, p.bytes());
    }

    #[test]
    fn torn_page_fails_validation() {
        // A write torn at a sector boundary: the head of one sealed page,
        // the tail of another.
        let (a, b) = (sealed(0x11), sealed(0x22));
        for cut in [512, 2048, PAGE_SIZE - 512] {
            let mut raw = *b.bytes();
            raw[..cut].copy_from_slice(&a.bytes()[..cut]);
            assert!(Page::from_bytes(Box::new(raw)).validate().is_err(), "{cut}");
        }
    }

    /// A page whose header and directory were tampered with *and then
    /// resealed*: the checksum vouches for it, the accessors must not.
    fn resealed(edit: impl FnOnce(&mut Page)) -> Page {
        let mut p = Page::new(PageKind::Heap);
        for i in 0..3u8 {
            p.insert(&[i; 20]).unwrap();
        }
        edit(&mut p);
        p.seal();
        assert!(p.validate().is_ok());
        p
    }

    #[test]
    fn hostile_slot_directory_yields_none_not_a_panic() {
        // Slot count far past the page: entries beyond the page do not
        // exist, the three real ones still read.
        let p = resealed(|p| p.put_u16(OFF_SLOTS, u16::MAX));
        assert_eq!(p.record(1).unwrap(), &[1u8; 20]);
        assert!(p.record((PAGE_SIZE - HEADER_SIZE) / SLOT_SIZE).is_none());
        assert!(p.record(u16::MAX as usize - 1).is_none());
        for i in 0..u16::MAX as usize {
            let _ = p.record(i);
        }
        assert!(p.records().count() <= (PAGE_SIZE - HEADER_SIZE) / SLOT_SIZE);
        // Offset + length past the page end.
        let p = resealed(|p| p.set_slot(1, PAGE_SIZE - 4, 20));
        assert!(p.record(1).is_none());
        assert_eq!(p.record(2).unwrap(), &[2u8; 20]);
        // Offset past the page altogether, and maximal length.
        let p = resealed(|p| p.set_slot(0, u16::MAX as usize, u16::MAX as usize));
        assert!(p.record(0).is_none());
        // A "record" inside the header.
        let p = resealed(|p| p.set_slot(2, OFF_NEXT, 8));
        assert!(p.record(2).is_none());
        assert_eq!(p.live_count(), 2);
    }

    /// Model: a `Vec<Option<Vec<u8>>>` mirroring slot contents.
    #[test]
    fn slot_directory_survives_insert_delete_compact() {
        use disco_common::rng;
        let mut r = rng::seeded(rng::DEFAULT_SEED, "page-model");
        for _case in 0..200 {
            let mut page = Page::new(PageKind::Heap);
            let mut model: Vec<Option<Vec<u8>>> = Vec::new();
            for _op in 0..(r.next_u64() % 200) {
                match r.next_u64() % 8 {
                    0..=4 => {
                        let len = (r.next_u64() % 300) as usize;
                        let bytes: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
                        if let Some(slot) = page.insert(&bytes) {
                            if slot == model.len() {
                                model.push(Some(bytes));
                            } else {
                                assert!(model[slot].is_none(), "reused a live slot");
                                model[slot] = Some(bytes);
                            }
                        }
                    }
                    5 | 6 => {
                        let i = (r.next_u64() % 64) as usize;
                        let expect = i < model.len() && model[i].is_some();
                        assert_eq!(page.delete(i), expect);
                        if expect {
                            model[i] = None;
                        }
                    }
                    _ => page.compact(),
                }
                assert_eq!(page.slot_count(), model.len());
                for (i, m) in model.iter().enumerate() {
                    assert_eq!(page.record(i), m.as_deref());
                }
            }
        }
    }
}
