//! Heap files: unordered record storage over slotted pages.
//!
//! A [`HeapFile`] owns an ordered list of page ids; records are addressed
//! by [`Rid`] (page index within the file + slot). Bulk loads append in
//! storage order with an optional per-page record cap, which lets callers
//! reproduce a target fill factor (e.g. OO7's 96 %) even when the encoded
//! records are smaller than the modelled object size.
//!
//! Which page each record lands on is a [`Layout`]: a storage order —
//! uniformly random, the independence assumption behind Yao's formula,
//! or clustered on an attribute, the behaviour the paper says "can not
//! be easily captured by a calibrating model" (§7) — cut into pages of
//! a fixed number of objects.

use std::sync::Arc;

use disco_common::{DiscoError, Result};

use crate::buffer::BufferPool;
use crate::page::{Page, PageId, PageKind};

/// Which modelled page each object of a collection lives on. The page
/// model in `disco-sources` counts faults on these pages; the engine
/// writes every record onto its page.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `rank[row]` = storage position of logical row `row`.
    rank: Vec<usize>,
    per_page: usize,
}

impl Layout {
    /// Store objects in `rank` order, `⌊page_size · fill_factor /
    /// object_size⌋` to a page (at least one).
    pub(crate) fn new(
        rank: Vec<usize>,
        object_size: u64,
        page_size: u64,
        fill_factor: f64,
    ) -> Layout {
        let usable = (page_size as f64 * fill_factor.clamp(0.01, 1.0)) as u64;
        let per_page = (usable / object_size.max(1)).max(1) as usize;
        Layout { rank, per_page }
    }

    /// Page of logical row `row`.
    pub fn page_of(&self, row: usize) -> u64 {
        (self.rank[row] / self.per_page) as u64
    }

    /// Total number of pages.
    pub fn pages(&self) -> u64 {
        self.rank.len().div_ceil(self.per_page) as u64
    }

    /// Objects stored per page.
    pub(crate) fn per_page(&self) -> usize {
        self.per_page
    }

    /// Logical rows in storage order.
    pub(crate) fn storage_order(&self) -> Vec<usize> {
        let mut storage = vec![0usize; self.rank.len()];
        for (row, &pos) in self.rank.iter().enumerate() {
            storage[pos] = row;
        }
        storage
    }
}

/// A record id: which page of the heap file, which slot on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    /// Index into the heap file's page list (not a raw [`PageId`]).
    pub page: u32,
    /// Slot on that page.
    pub slot: u16,
}

impl Rid {
    /// Pack into 8 bytes for index cells.
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.page.to_le_bytes());
        out[4..6].copy_from_slice(&self.slot.to_le_bytes());
        out
    }

    /// Unpack from index-cell bytes.
    pub fn from_bytes(b: &[u8]) -> Result<Rid> {
        if b.len() < 8 {
            return Err(DiscoError::Source("store: truncated rid".into()));
        }
        Ok(Rid {
            page: u32::from_le_bytes(b[..4].try_into().expect("4 bytes")),
            slot: u16::from_le_bytes(b[4..6].try_into().expect("2 bytes")),
        })
    }
}

/// An unordered record file over the shared buffer pool.
#[derive(Debug, Clone)]
pub struct HeapFile {
    pool: BufferPool,
    pages: Arc<Vec<PageId>>,
}

/// Builder that appends records in storage order.
#[derive(Debug)]
pub struct HeapBuilder {
    pool: BufferPool,
    pages: Vec<PageId>,
    /// Cap on records per page; `None` packs to byte capacity.
    per_page: Option<usize>,
    on_current: usize,
}

impl HeapBuilder {
    /// Start a heap file. `per_page` caps records per page to model a
    /// fill factor; pass `None` to pack pages full.
    pub fn new(pool: BufferPool, per_page: Option<usize>) -> HeapBuilder {
        HeapBuilder {
            pool,
            pages: Vec::new(),
            per_page: per_page.map(|p| p.max(1)),
            on_current: 0,
        }
    }

    fn fresh_page(&mut self) -> Result<PageId> {
        let id = self.pool.allocate(PageKind::Heap)?;
        if let Some(&prev) = self.pages.last() {
            self.pool.with_page_mut(prev, |pg| pg.set_next(Some(id)))?;
        }
        self.pages.push(id);
        self.on_current = 0;
        Ok(id)
    }

    /// Append one record, returning where it landed.
    pub fn append(&mut self, record: &[u8]) -> Result<Rid> {
        let full_by_count = self.per_page.is_some_and(|cap| self.on_current >= cap);
        if self.pages.is_empty() || full_by_count {
            self.fresh_page()?;
        }
        let mut pid = *self.pages.last().expect("page exists");
        let mut slot = self.pool.with_page_mut(pid, |pg| pg.insert(record))?;
        if slot.is_none() {
            // Out of bytes before the count cap: spill to a new page.
            pid = self.fresh_page()?;
            slot = self.pool.with_page_mut(pid, |pg| pg.insert(record))?;
        }
        let Some(slot) = slot else {
            return Err(DiscoError::Source(format!(
                "store: record of {} bytes does not fit an empty page",
                record.len()
            )));
        };
        self.on_current += 1;
        Ok(Rid {
            page: (self.pages.len() - 1) as u32,
            slot: slot as u16,
        })
    }

    /// Finish, returning the immutable heap file.
    pub fn finish(self) -> HeapFile {
        HeapFile {
            pool: self.pool,
            pages: Arc::new(self.pages),
        }
    }
}

impl HeapFile {
    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Raw page id for a heap-file page index.
    pub fn page_id(&self, index: u32) -> Option<PageId> {
        self.pages.get(index as usize).copied()
    }

    /// Read one record by rid: `read` sees the record's bytes on the
    /// pinned page, so nothing is copied out before it is decoded.
    pub fn get<T>(&self, rid: Rid, read: impl FnOnce(&[u8]) -> Result<T>) -> Result<T> {
        let page = self.pool.pin(self.page_of(rid)?)?;
        read(record(&page, rid)?)
    }

    /// Read the records at `rids`, in order: `read` sees each one's
    /// bytes on its pinned page. The pages are pinned as runs
    /// ([`BufferPool::pin_each`]); every rid is checked against the page
    /// list before the first is pinned.
    pub fn get_each(&self, rids: &[Rid], mut read: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        // Reserved whole: collecting through `Result` would grow it by
        // doubling.
        let mut ids = Vec::with_capacity(rids.len());
        for &rid in rids {
            ids.push(self.page_of(rid)?);
        }
        self.pool
            .pin_each(&ids, |at, page| read(record(page, rids[at])?))
    }

    /// The pool page holding `rid`.
    fn page_of(&self, rid: Rid) -> Result<PageId> {
        self.pages.get(rid.page as usize).copied().ok_or_else(|| {
            DiscoError::Source(format!(
                "store: rid page {} out of range ({} pages)",
                rid.page,
                self.pages.len()
            ))
        })
    }

    /// Visit every live record in storage order (page by page, slot by
    /// slot). Each page is pinned once per visit.
    pub fn scan(&self, mut visit: impl FnMut(Rid, &[u8]) -> Result<()>) -> Result<()> {
        for (idx, &pid) in self.pages.iter().enumerate() {
            let page = self.pool.pin(pid)?;
            debug_assert_eq!(
                page.next(),
                self.pages.get(idx + 1).copied(),
                "heap chain matches page list"
            );
            for (slot, bytes) in page.records() {
                visit(
                    Rid {
                        page: idx as u32,
                        slot: slot as u16,
                    },
                    bytes,
                )?;
            }
        }
        Ok(())
    }
}

/// `rid`'s record on its pinned page.
fn record(page: &Page, rid: Rid) -> Result<&[u8]> {
    page.record(rid.slot as usize).ok_or_else(|| {
        DiscoError::Source(format!(
            "store: rid slot {} missing on page {}",
            rid.slot, rid.page
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageFile;
    use disco_common::rng;

    fn pool() -> BufferPool {
        BufferPool::new(PageFile::create_temp("heap").unwrap(), 64)
    }

    #[test]
    fn append_scan_round_trip() {
        let mut b = HeapBuilder::new(pool(), None);
        let rids: Vec<Rid> = (0..100)
            .map(|i| b.append(format!("record number {i}").as_bytes()).unwrap())
            .collect();
        let heap = b.finish();
        let mut seen = Vec::new();
        heap.scan(|rid, bytes| {
            seen.push((rid, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 100);
        for (i, (rid, bytes)) in seen.iter().enumerate() {
            assert_eq!(*rid, rids[i]);
            assert_eq!(bytes, format!("record number {i}").as_bytes());
        }
    }

    #[test]
    fn per_page_cap_controls_page_count() {
        let mut b = HeapBuilder::new(pool(), Some(7));
        for i in 0..70 {
            b.append(format!("r{i}").as_bytes()).unwrap();
        }
        let heap = b.finish();
        assert_eq!(heap.pages(), 10);
    }

    #[test]
    fn byte_overflow_spills_to_new_page() {
        let mut b = HeapBuilder::new(pool(), None);
        let big = vec![0xCD; 1500];
        for _ in 0..5 {
            b.append(&big).unwrap();
        }
        let heap = b.finish();
        // 2 × 1500 B (+ slots) per 4 KB page → 3 pages for 5 records.
        assert_eq!(heap.pages(), 3);
    }

    #[test]
    fn get_by_rid() {
        let mut b = HeapBuilder::new(pool(), Some(3));
        let rids: Vec<Rid> = (0..10)
            .map(|i| b.append(format!("v{i}").as_bytes()).unwrap())
            .collect();
        let heap = b.finish();
        let get = |page, slot| heap.get(Rid { page, slot }, |bytes| Ok(bytes.to_vec()));
        assert_eq!(get(rids[7].page, rids[7].slot).unwrap(), b"v7");
        assert_eq!(rids[7].page, 2);
        // Out-of-range pages and slots are errors, not panics.
        assert!(get(99, 0).is_err());
        assert!(get(2, 3).is_err());
        assert!(get(0, u16::MAX).is_err());
        assert!(get(u32::MAX, u16::MAX).is_err());
        // The run form reads the same records, in request order, and
        // refuses a bad rid before it reads any.
        let mut seen = Vec::new();
        let order = [rids[7], rids[0], rids[7], rids[9]];
        heap.get_each(&order, |bytes| {
            seen.push(bytes.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [&b"v7"[..], b"v0", b"v7", b"v9"]);
        let bad = [rids[1], Rid { page: 99, slot: 0 }];
        assert!(heap
            .get_each(&bad, |_| panic!("read before the check"))
            .is_err());
        let missing = [Rid { page: 2, slot: 3 }];
        assert!(heap.get_each(&missing, |_| Ok(())).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut b = HeapBuilder::new(pool(), None);
        assert!(b.append(&vec![0u8; 5000]).is_err());
    }

    fn random_layout(n: usize, object_size: u64, page_size: u64, fill: f64, seed: u64) -> Layout {
        let rank = rng::permutation(&mut rng::seeded(seed, "heap"), n);
        Layout::new(rank, object_size, page_size, fill)
    }

    #[test]
    fn oo7_layout_dimensions() {
        // 70 000 × 56 B, 4096-byte pages at 96% fill → 70/page, 1000 pages.
        let l = random_layout(70_000, 56, 4_096, 0.96, 1);
        assert_eq!(l.per_page(), 70);
        assert_eq!(l.pages(), 1_000);
        assert!((0..70_000).all(|row| l.page_of(row) < 1_000));
    }

    #[test]
    fn every_page_gets_at_most_per_page_objects() {
        let l = random_layout(1_000, 100, 1_000, 1.0, 2);
        assert_eq!(l.per_page(), 10);
        let mut counts = vec![0usize; l.pages() as usize];
        for row in 0..1_000 {
            counts[l.page_of(row) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 10));
        assert_eq!(counts.iter().sum::<usize>(), 1_000);
    }

    #[test]
    fn clustered_layout_is_contiguous() {
        // Identity rank: objects 0..9 on page 0, 10..19 on page 1, …
        let l = Layout::new((0..100).collect(), 100, 1_000, 1.0);
        for row in 0..100 {
            assert_eq!(l.page_of(row), (row / 10) as u64);
        }
        assert_eq!(l.storage_order(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clustered_with_explicit_rank() {
        // Reverse order: object 0 has the highest rank.
        let l = Layout::new((0..20).rev().collect(), 100, 1_000, 1.0);
        assert_eq!(l.page_of(19), 0);
        assert_eq!(l.page_of(0), 1);
        assert_eq!(l.storage_order(), (0..20).rev().collect::<Vec<_>>());
    }

    #[test]
    fn random_layout_spreads_consecutive_objects() {
        let l = random_layout(7_000, 56, 4_096, 0.96, 5);
        // Consecutive ids should mostly land on different pages.
        let same = (1..7_000)
            .filter(|&row| l.page_of(row) == l.page_of(row - 1))
            .count();
        assert!(same < 700, "too much accidental clustering: {same}");
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(random_layout(0, 56, 4_096, 0.96, 6).pages(), 0);
        // Oversized objects still get one slot per page.
        let l = random_layout(3, 10_000, 4_096, 0.96, 6);
        assert_eq!(l.per_page(), 1);
        assert_eq!(l.pages(), 3);
    }

    #[test]
    fn rid_pack_round_trip() {
        let rid = Rid {
            page: 0xDEAD_BEEF,
            slot: 0x1234,
        };
        assert_eq!(Rid::from_bytes(&rid.to_bytes()).unwrap(), rid);
        assert!(Rid::from_bytes(&[0; 4]).is_err());
    }
}
