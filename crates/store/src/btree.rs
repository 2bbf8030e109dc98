//! An on-disk B+-tree over buffer-pool pages.
//!
//! Leaf cells hold `key · u16 rid-count · rids`; internal cells hold
//! `key · u64 child`, with the leftmost child in the page's `aux` field.
//! Keys order under [`Value::total_cmp_value`] — the same total order as
//! the sorted in-memory index of the page model in `disco-sources`, so
//! both indexes answer every comparison identically. Leaves chain
//! through `next` for range scans.
//!
//! Reads work on the pinned page: routing and point lookups binary-search
//! the slot directory, ordering one encoded key per probe against the
//! search value ([`cmp_key`]), and scans append rids straight from the
//! cell bytes — no cell is decoded into an owned key or rid list.
//!
//! An insert splices its cell into the page in place
//! ([`Page::insert_at`]; a duplicate key grows its cell with
//! [`Page::replace`]). Only when the cell does not fit is the page
//! decoded, spliced and rewritten as two — and splits pre-allocate the
//! right sibling *before* mutating either page, because the buffer
//! pool's lock is not reentrant. Deletion is out of scope: stores
//! bulk-load at startup and the workloads are read-only.
//!
//! One key's rid list must fit a single cell (~500 rids); indexing an
//! attribute with heavier duplication than that is rejected at build
//! time rather than silently mis-answered.

use std::cmp::Ordering;

use disco_algebra::CompareOp;
use disco_common::{DiscoError, Result, Value};

use crate::buffer::BufferPool;
use crate::codec::{cmp_key, decode_value, encode_key};
use crate::heap::Rid;
use crate::page::{Page, PageId, PageKind, HEADER_SIZE, PAGE_SIZE};

/// Per-slot directory overhead when sizing cells against a page.
const SLOT_COST: usize = 4;
/// Bytes of one packed rid in a leaf cell.
const RID_BYTES: usize = 8;

fn cells_fit(cells: &[Vec<u8>]) -> bool {
    let used: usize = cells.iter().map(|c| SLOT_COST + c.len()).sum();
    HEADER_SIZE + used <= PAGE_SIZE
}

fn corrupt(what: &str) -> DiscoError {
    DiscoError::Source(format!("store: {what}"))
}

/// Order cell `i`'s key against `probe`; also returns what follows the
/// key in the cell (a leaf's rid list, an internal cell's child).
fn cell_cmp<'p>(page: &'p Page, i: usize, probe: &Value) -> Result<(Ordering, &'p [u8])> {
    let cell = page
        .record(i)
        .ok_or_else(|| corrupt("index page is missing a cell"))?;
    let mut pos = 0;
    let ord = cmp_key(cell, &mut pos, probe)?;
    Ok((ord, &cell[pos..]))
}

/// Binary search of a tree page's cells, which are in key order:
/// `Ok(i)` when cell `i` holds `probe`, else `Err(i)` with the index
/// where it would be inserted.
fn search(page: &Page, probe: &Value) -> Result<std::result::Result<usize, usize>> {
    let (mut lo, mut hi) = (0, page.slot_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match cell_cmp(page, mid, probe)?.0 {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

/// Route `value` through an internal page: child `i + 1` covers keys
/// `>= cells[i].key`, the page's `aux` everything below the first
/// separator.
fn route(page: &Page, value: &Value) -> Result<PageId> {
    let mut child = page.aux();
    let (mut lo, mut hi) = (0, page.slot_count());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (ord, rest) = cell_cmp(page, mid, value)?;
        if ord == Ordering::Greater {
            hi = mid;
        } else {
            // The last separator at or below `value` wins.
            child = child_of(rest)?;
            lo = mid + 1;
        }
    }
    Ok(child)
}

/// The child pointer of an internal cell (the bytes after its key).
fn child_of(rest: &[u8]) -> Result<PageId> {
    rest.first_chunk::<8>()
        .map(|b| PageId::from_le_bytes(*b))
        .ok_or_else(|| corrupt("truncated inner cell"))
}

/// Append the rids of a leaf cell (the bytes after its key) to `out`.
fn push_rids(list: &[u8], out: &mut Vec<Rid>) -> Result<()> {
    let (count, rids) = list
        .split_first_chunk::<2>()
        .ok_or_else(|| corrupt("truncated leaf cell"))?;
    let n = u16::from_le_bytes(*count) as usize;
    if rids.len() < n * RID_BYTES {
        return Err(corrupt("truncated leaf cell rids"));
    }
    out.reserve(n);
    for raw in rids.chunks_exact(RID_BYTES).take(n) {
        out.push(Rid::from_bytes(raw)?);
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct LeafCell {
    key: Value,
    key_bytes: Vec<u8>,
    rids: Vec<Rid>,
}

impl LeafCell {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.key_bytes.len() + 2 + self.rids.len() * RID_BYTES);
        out.extend_from_slice(&self.key_bytes);
        out.extend_from_slice(&(self.rids.len() as u16).to_le_bytes());
        for rid in &self.rids {
            out.extend_from_slice(&rid.to_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<LeafCell> {
        let mut pos = 0;
        let key = decode_value(bytes, &mut pos)?;
        let mut rids = Vec::new();
        push_rids(&bytes[pos..], &mut rids)?;
        Ok(LeafCell {
            key,
            key_bytes: bytes[..pos].to_vec(),
            rids,
        })
    }
}

#[derive(Debug, Clone)]
struct InnerCell {
    key: Value,
    key_bytes: Vec<u8>,
    child: PageId,
}

impl InnerCell {
    fn encode(&self) -> Vec<u8> {
        encode_inner(&self.key_bytes, self.child)
    }

    fn decode(bytes: &[u8]) -> Result<InnerCell> {
        let mut pos = 0;
        let key = decode_value(bytes, &mut pos)?;
        Ok(InnerCell {
            key,
            key_bytes: bytes[..pos].to_vec(),
            child: child_of(&bytes[pos..])?,
        })
    }
}

fn encode_inner(key_bytes: &[u8], child: PageId) -> Vec<u8> {
    let mut out = Vec::with_capacity(key_bytes.len() + 8);
    out.extend_from_slice(key_bytes);
    out.extend_from_slice(&child.to_le_bytes());
    out
}

/// What an insert into a subtree reports upward.
type Split = Option<(Vec<u8>, PageId)>;

/// The on-disk B+-tree.
#[derive(Debug, Clone)]
pub struct DiskBTree {
    pool: BufferPool,
    root: PageId,
    height: usize,
    len: usize,
}

impl DiskBTree {
    /// Empty tree: a single leaf root.
    pub fn new(pool: BufferPool) -> Result<DiskBTree> {
        let root = pool.allocate(PageKind::BTreeLeaf)?;
        Ok(DiskBTree {
            pool,
            root,
            height: 1,
            len: 0,
        })
    }

    /// Build from `(value, rid)` pairs in iteration order (rid lists per
    /// key keep that order, as the page model's sorted index does).
    pub fn build(
        pool: BufferPool,
        entries: impl IntoIterator<Item = (Value, Rid)>,
    ) -> Result<DiskBTree> {
        let mut t = DiskBTree::new(pool)?;
        for (v, r) in entries {
            t.insert(v, r)?;
        }
        Ok(t)
    }

    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Insert one entry.
    pub fn insert(&mut self, value: Value, rid: Rid) -> Result<()> {
        self.insert_entry(value, rid, true)
    }

    /// The first builder — every insert decodes its page, splices and
    /// rewrites it — kept as the oracle [`DiskBTree::insert`] is tested
    /// against: both must grow the same tree.
    #[cfg(test)]
    fn insert_by_rewrite(&mut self, value: Value, rid: Rid) -> Result<()> {
        self.insert_entry(value, rid, false)
    }

    fn insert_entry(&mut self, value: Value, rid: Rid, in_place: bool) -> Result<()> {
        if let Some((sep_bytes, right)) =
            self.insert_rec(self.root, self.height, &value, rid, in_place)?
        {
            let new_root = self.pool.allocate(PageKind::BTreeInternal)?;
            let old_root = self.root;
            let cell = encode_inner(&sep_bytes, right);
            self.pool.with_page_mut(new_root, |pg| {
                pg.set_aux(old_root);
                assert!(pg.insert_at(0, &cell), "fresh root holds one cell");
            })?;
            self.root = new_root;
            self.height += 1;
        }
        self.len += 1;
        Ok(())
    }

    fn read_leaf(&self, pid: PageId) -> Result<(Vec<LeafCell>, Option<PageId>)> {
        let page = self.pool.pin(pid)?;
        let next = page.next();
        let cells = page
            .records()
            .map(|(_, bytes)| LeafCell::decode(bytes))
            .collect::<Result<Vec<_>>>()?;
        Ok((cells, next))
    }

    fn read_inner(&self, pid: PageId) -> Result<(PageId, Vec<InnerCell>)> {
        let page = self.pool.pin(pid)?;
        let leftmost = page.aux();
        let cells = page
            .records()
            .map(|(_, bytes)| InnerCell::decode(bytes))
            .collect::<Result<Vec<_>>>()?;
        Ok((leftmost, cells))
    }

    /// Rewrite `pid` from scratch with `cells` in order. Callers checked
    /// [`cells_fit`] first.
    fn rewrite(
        &self,
        pid: PageId,
        kind: PageKind,
        aux: u64,
        next: Option<PageId>,
        cells: &[Vec<u8>],
    ) -> Result<()> {
        self.pool.with_page_mut(pid, |pg: &mut Page| {
            pg.init(kind);
            pg.set_aux(aux);
            pg.set_next(next);
            for (i, cell) in cells.iter().enumerate() {
                assert!(pg.insert_at(i, cell), "cells pre-checked to fit");
            }
        })
    }

    fn insert_rec(
        &mut self,
        pid: PageId,
        level: usize,
        value: &Value,
        rid: Rid,
        in_place: bool,
    ) -> Result<Split> {
        if level == 1 {
            return self.insert_leaf(pid, value, rid, in_place);
        }
        let child = route(&*self.pool.pin(pid)?, value)?;
        let Some((sep_bytes, new_right)) =
            self.insert_rec(child, level - 1, value, rid, in_place)?
        else {
            return Ok(None);
        };
        let sep_key = {
            let mut p = 0;
            decode_value(&sep_bytes, &mut p)?
        };
        if in_place {
            let cell = encode_inner(&sep_bytes, new_right);
            let spliced = self.pool.with_page_mut(pid, |pg| {
                let at = search(pg, &sep_key)?.unwrap_or_else(|i| i);
                Ok::<_, DiscoError>(pg.insert_at(at, &cell))
            })??;
            if spliced {
                return Ok(None);
            }
        }
        // The separator does not fit (or the oracle is building): decode
        // the page, splice, and rewrite it — as one page or as two.
        let (leftmost, mut cells) = self.read_inner(pid)?;
        let at = cells
            .binary_search_by(|c| c.key.total_cmp_value(&sep_key))
            .unwrap_or_else(|i| i);
        cells.insert(
            at,
            InnerCell {
                key: sep_key,
                key_bytes: sep_bytes,
                child: new_right,
            },
        );
        let encoded: Vec<Vec<u8>> = cells.iter().map(InnerCell::encode).collect();
        if cells_fit(&encoded) {
            self.rewrite(pid, PageKind::BTreeInternal, leftmost, None, &encoded)?;
            return Ok(None);
        }
        // Split: the middle cell's key moves up; its child becomes the
        // right sibling's leftmost. Allocate before touching either page.
        let right_pid = self.pool.allocate(PageKind::BTreeInternal)?;
        let mid = cells.len() / 2;
        let up = cells.swap_remove(mid);
        let kind = PageKind::BTreeInternal;
        self.rewrite(pid, kind, leftmost, None, &encoded[..mid])?;
        self.rewrite(right_pid, kind, up.child, None, &encoded[mid + 1..])?;
        Ok(Some((up.key_bytes, right_pid)))
    }

    fn insert_leaf(
        &mut self,
        pid: PageId,
        value: &Value,
        rid: Rid,
        in_place: bool,
    ) -> Result<Split> {
        if in_place {
            let spliced = self
                .pool
                .with_page_mut(pid, |pg| splice_into_leaf(pg, value, rid))??;
            if spliced {
                return Ok(None);
            }
        }
        // The cell does not fit (or the oracle is building): decode the
        // page, splice, and rewrite it — as one page or as two.
        let (mut cells, next) = self.read_leaf(pid)?;
        match cells.binary_search_by(|c| c.key.total_cmp_value(value)) {
            Ok(i) => cells[i].rids.push(rid),
            Err(i) => cells.insert(
                i,
                LeafCell {
                    key: value.clone(),
                    key_bytes: encode_key(value),
                    rids: vec![rid],
                },
            ),
        }
        let encoded: Vec<Vec<u8>> = cells.iter().map(LeafCell::encode).collect();
        if let Some(c) = encoded
            .iter()
            .find(|c| HEADER_SIZE + SLOT_COST + c.len() > PAGE_SIZE)
        {
            return Err(DiscoError::Source(format!(
                "store: index cell of {} bytes exceeds one page — too many \
                 duplicate rids for a single key",
                c.len()
            )));
        }
        if cells_fit(&encoded) {
            self.rewrite(pid, PageKind::BTreeLeaf, 0, next, &encoded)?;
            return Ok(None);
        }
        let right_pid = self.pool.allocate(PageKind::BTreeLeaf)?;
        let mid = cells.len() / 2;
        let sep_bytes = cells.swap_remove(mid).key_bytes;
        let kind = PageKind::BTreeLeaf;
        self.rewrite(pid, kind, 0, Some(right_pid), &encoded[..mid])?;
        self.rewrite(right_pid, kind, 0, next, &encoded[mid..])?;
        Ok(Some((sep_bytes, right_pid)))
    }

    fn leaf_for(&self, value: &Value) -> Result<PageId> {
        let mut pid = self.root;
        for _ in 1..self.height {
            pid = route(&*self.pool.pin(pid)?, value)?;
        }
        Ok(pid)
    }

    fn first_leaf(&self) -> Result<PageId> {
        let mut pid = self.root;
        for _ in 1..self.height {
            pid = self.pool.pin(pid)?.aux();
        }
        Ok(pid)
    }

    /// Rids with exactly `value`, in insertion order.
    pub fn lookup(&self, value: &Value) -> Result<Vec<Rid>> {
        let page = self.pool.pin(self.leaf_for(value)?)?;
        let mut out = Vec::new();
        if let Ok(i) = search(&page, value)? {
            push_rids(cell_cmp(&page, i, value)?.1, &mut out)?;
        }
        Ok(out)
    }

    /// Rids matching `op value`, in key order — same contract as the
    /// page model's sorted index: `Ne` returns `None` (an index gives no
    /// benefit), and a range below `value` starts after the NULL keys,
    /// which sort lowest but compare true with nothing.
    pub fn scan(&self, op: CompareOp, value: &Value) -> Result<Option<Vec<Rid>>> {
        let mut out = Vec::new();
        match op {
            CompareOp::Eq => return self.lookup(value).map(Some),
            CompareOp::Ne => return Ok(None),
            CompareOp::Lt | CompareOp::Le => {
                let mut leaf = Some(self.first_leaf()?);
                let mut past_nulls = false;
                'walk: while let Some(pid) = leaf {
                    let page = self.pool.pin(pid)?;
                    for i in 0..page.slot_count() {
                        if !past_nulls {
                            past_nulls = cell_cmp(&page, i, &Value::Null)?.0 != Ordering::Equal;
                            if !past_nulls {
                                continue;
                            }
                        }
                        let (ord, rids) = cell_cmp(&page, i, value)?;
                        let keep = match op {
                            CompareOp::Lt => ord == Ordering::Less,
                            _ => ord != Ordering::Greater,
                        };
                        if !keep {
                            break 'walk;
                        }
                        push_rids(rids, &mut out)?;
                    }
                    leaf = page.next();
                }
            }
            CompareOp::Gt | CompareOp::Ge => {
                let mut leaf = Some(self.leaf_for(value)?);
                while let Some(pid) = leaf {
                    let page = self.pool.pin(pid)?;
                    for i in 0..page.slot_count() {
                        let (ord, rids) = cell_cmp(&page, i, value)?;
                        let keep = match op {
                            CompareOp::Gt => ord == Ordering::Greater,
                            _ => ord != Ordering::Less,
                        };
                        if keep {
                            push_rids(rids, &mut out)?;
                        }
                    }
                    leaf = page.next();
                }
            }
        }
        Ok(Some(out))
    }

    /// Distinct keys, walking the leaf chain.
    pub fn distinct_keys(&self) -> Result<usize> {
        let mut count = 0;
        let mut leaf = Some(self.first_leaf()?);
        while let Some(pid) = leaf {
            let page = self.pool.pin(pid)?;
            count += page.live_count();
            leaf = page.next();
        }
        Ok(count)
    }
}

/// Splice `(value, rid)` into a leaf page in place: a new key becomes a
/// new cell at its sorted position, a key already present grows its
/// cell by one rid. `false` (page untouched) when the result would not
/// fit the page even compacted.
fn splice_into_leaf(page: &mut Page, value: &Value, rid: Rid) -> Result<bool> {
    let i = match search(page, value)? {
        Ok(i) => i,
        Err(i) => {
            let mut cell = encode_key(value);
            cell.extend_from_slice(&1u16.to_le_bytes());
            cell.extend_from_slice(&rid.to_bytes());
            return Ok(page.insert_at(i, &cell));
        }
    };
    let (_, list) = cell_cmp(page, i, value)?;
    let old = page.record(i).expect("search found the cell");
    let count_at = old.len() - list.len();
    let count = list
        .first_chunk::<2>()
        .map(|n| u16::from_le_bytes(*n))
        .ok_or_else(|| corrupt("truncated leaf cell"))?;
    let mut cell = Vec::with_capacity(old.len() + RID_BYTES);
    cell.extend_from_slice(old);
    cell[count_at..count_at + 2].copy_from_slice(&(count + 1).to_le_bytes());
    cell.extend_from_slice(&rid.to_bytes());
    Ok(page.replace(i, &cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageFile;
    use disco_common::rng;

    fn pool() -> BufferPool {
        BufferPool::new(PageFile::create_temp("btree").unwrap(), 256)
    }

    fn rid(n: u32) -> Rid {
        Rid {
            page: n / 70,
            slot: (n % 70) as u16,
        }
    }

    #[test]
    fn single_leaf_lookup() {
        let mut t = DiskBTree::new(pool()).unwrap();
        for i in [5i64, 1, 9, 3] {
            t.insert(Value::Long(i), rid(i as u32)).unwrap();
        }
        assert_eq!(t.height(), 1);
        assert_eq!(t.lookup(&Value::Long(9)).unwrap(), vec![rid(9)]);
        assert!(t.lookup(&Value::Long(7)).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_keep_insertion_order() {
        let mut t = DiskBTree::new(pool()).unwrap();
        for n in [3u32, 1, 2] {
            t.insert(Value::Str("dup".into()), rid(n)).unwrap();
        }
        assert_eq!(
            t.lookup(&Value::Str("dup".into())).unwrap(),
            vec![rid(3), rid(1), rid(2)]
        );
    }

    #[test]
    fn splits_grow_the_tree_and_preserve_answers() {
        let mut t = DiskBTree::new(pool()).unwrap();
        let mut order: Vec<u32> = (0..2000).collect();
        let perm = rng::permutation(&mut rng::seeded(rng::DEFAULT_SEED, "btree-shuffle"), 2000);
        order.sort_by_key(|&i| perm[i as usize]);
        for &i in &order {
            t.insert(Value::Long(i as i64), rid(i)).unwrap();
        }
        assert!(t.height() >= 2, "2000 distinct keys must split");
        assert_eq!(t.len(), 2000);
        for i in (0..2000).step_by(97) {
            assert_eq!(
                t.lookup(&Value::Long(i as i64)).unwrap(),
                vec![rid(i as u32)]
            );
        }
        assert_eq!(t.distinct_keys().unwrap(), 2000);
    }

    #[test]
    fn matches_in_memory_scan_semantics() {
        // Differential check against sort-and-filter over the same
        // entries, for every comparison operator.
        let mut r = rng::seeded(rng::DEFAULT_SEED, "btree-diff");
        let values: Vec<i64> = (0..600).map(|_| (r.next_u64() % 97) as i64).collect();
        let mut disk = DiskBTree::new(pool()).unwrap();
        let mut rows: Vec<(i64, u32)> = Vec::new();
        for (n, &v) in values.iter().enumerate() {
            disk.insert(Value::Long(v), rid(n as u32)).unwrap();
            rows.push((v, n as u32));
        }
        let probe = Value::Long(48);
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            let got = disk.scan(op, &probe).unwrap();
            // Reference: sort by (key, insertion) and filter.
            let expect: Option<Vec<Rid>> = match op {
                CompareOp::Ne => None,
                _ => {
                    let mut sorted = rows.clone();
                    sorted.sort_by_key(|&(v, n)| (v, n));
                    Some(
                        sorted
                            .iter()
                            .filter(|&&(v, _)| match op {
                                CompareOp::Eq => v == 48,
                                CompareOp::Lt => v < 48,
                                CompareOp::Le => v <= 48,
                                CompareOp::Gt => v > 48,
                                CompareOp::Ge => v >= 48,
                                CompareOp::Ne => unreachable!(),
                            })
                            .map(|&(_, n)| rid(n))
                            .collect(),
                    )
                }
            };
            assert_eq!(got, expect, "{op:?}");
        }
    }

    #[test]
    fn range_scan_across_leaves() {
        let mut t = DiskBTree::new(pool()).unwrap();
        for i in 0..3000i64 {
            t.insert(Value::Long(i), rid(i as u32)).unwrap();
        }
        let got = t.scan(CompareOp::Ge, &Value::Long(2990)).unwrap().unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], rid(2990));
        let low = t.scan(CompareOp::Lt, &Value::Long(5)).unwrap().unwrap();
        assert_eq!(low, (0..5).map(|i| rid(i as u32)).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_type_keys_follow_total_order() {
        let mut t = DiskBTree::new(pool()).unwrap();
        t.insert(Value::Null, rid(0)).unwrap();
        t.insert(Value::Long(1), rid(1)).unwrap();
        t.insert(Value::Str("s".into()), rid(2)).unwrap();
        t.insert(Value::Bool(true), rid(3)).unwrap();
        t.insert(Value::Double(0.5), rid(4)).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.distinct_keys().unwrap(), 5);
        assert_eq!(t.lookup(&Value::Str("s".into())).unwrap(), vec![rid(2)]);
    }

    fn long_tree(n: u32) -> DiskBTree {
        DiskBTree::build(pool(), (0..n).map(|i| (Value::Long(i as i64), rid(i)))).unwrap()
    }

    #[test]
    fn lookup_finds_inserted() {
        let t = long_tree(10_000);
        assert_eq!(t.len(), 10_000);
        assert!(t.height() > 1);
        assert_eq!(t.lookup(&Value::Long(1234)).unwrap(), vec![rid(1234)]);
        assert!(t.lookup(&Value::Long(-5)).unwrap().is_empty());
        assert!(t.lookup(&Value::Long(10_000)).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_accumulate_rids() {
        let t = DiskBTree::build(
            pool(),
            (0..100u32).map(|i| (Value::Long((i % 10) as i64), rid(i))),
        )
        .unwrap();
        let rids = t.lookup(&Value::Long(3)).unwrap();
        assert_eq!(rids, (0..10).map(|k| rid(k * 10 + 3)).collect::<Vec<_>>());
    }

    #[test]
    fn range_scans() {
        let t = long_tree(1_000);
        let count = |op, v: i64| t.scan(op, &Value::Long(v)).unwrap().map(|r| r.len());
        assert_eq!(count(CompareOp::Le, 99), Some(100));
        assert_eq!(count(CompareOp::Lt, 99), Some(99));
        assert_eq!(count(CompareOp::Ge, 990), Some(10));
        assert_eq!(count(CompareOp::Gt, 990), Some(9));
        assert_eq!(
            t.scan(CompareOp::Eq, &Value::Long(5)).unwrap(),
            Some(vec![rid(5)])
        );
        assert_eq!(count(CompareOp::Ne, 5), None);
    }

    #[test]
    fn range_scan_returns_key_order() {
        let t = DiskBTree::build(
            pool(),
            (0..1_000u32).rev().map(|i| (Value::Long(i as i64), rid(i))),
        )
        .unwrap();
        let all = t.scan(CompareOp::Ge, &Value::Long(0)).unwrap().unwrap();
        assert_eq!(all, (0..1_000).map(rid).collect::<Vec<_>>());
    }

    #[test]
    fn string_keys() {
        let t = DiskBTree::build(
            pool(),
            ["delta", "alpha", "charlie", "bravo"]
                .iter()
                .enumerate()
                .map(|(i, s)| (Value::Str((*s).into()), rid(i as u32))),
        )
        .unwrap();
        assert_eq!(
            t.lookup(&Value::Str("charlie".into())).unwrap(),
            vec![rid(2)]
        );
        let le = t.scan(CompareOp::Le, &Value::Str("bravo".into())).unwrap();
        assert_eq!(le, Some(vec![rid(1), rid(3)]));
    }

    #[test]
    fn distinct_key_count() {
        let t = DiskBTree::build(
            pool(),
            (0..500u32).map(|i| (Value::Long((i % 50) as i64), rid(i))),
        )
        .unwrap();
        assert_eq!(t.distinct_keys().unwrap(), 50);
    }

    #[test]
    fn oversized_rid_list_rejected() {
        let mut t = DiskBTree::new(pool()).unwrap();
        let mut hit_limit = false;
        for n in 0..2000u32 {
            match t.insert(Value::Long(7), rid(n)) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("duplicate"), "{e}");
                    hit_limit = true;
                    break;
                }
            }
        }
        assert!(hit_limit, "a ~16 KB rid list cannot fit a 4 KB page");
    }

    /// One page of a tree, decoded: what the differential test compares.
    #[derive(Debug, PartialEq)]
    enum Node {
        Inner {
            pid: PageId,
            leftmost: PageId,
            cells: Vec<(Vec<u8>, PageId)>,
        },
        Leaf {
            pid: PageId,
            next: Option<PageId>,
            cells: Vec<(Vec<u8>, Vec<Rid>)>,
        },
    }

    /// Every page of the tree in depth-first order, page ids included:
    /// equal dumps mean equal height, page count, separators, leaf key
    /// sets, rid lists and chain order.
    fn dump(t: &DiskBTree) -> Vec<Node> {
        fn walk(t: &DiskBTree, pid: PageId, level: usize, out: &mut Vec<Node>) {
            if level == 1 {
                let (cells, next) = t.read_leaf(pid).unwrap();
                let cells = cells.into_iter().map(|c| (c.key_bytes, c.rids)).collect();
                out.push(Node::Leaf { pid, next, cells });
                return;
            }
            let (leftmost, cells) = t.read_inner(pid).unwrap();
            let children: Vec<PageId> = std::iter::once(leftmost)
                .chain(cells.iter().map(|c| c.child))
                .collect();
            let cells = cells.into_iter().map(|c| (c.key_bytes, c.child)).collect();
            out.push(Node::Inner {
                pid,
                leftmost,
                cells,
            });
            for child in children {
                walk(t, child, level - 1, out);
            }
        }
        let mut out = Vec::new();
        walk(t, t.root, t.height, &mut out);
        out
    }

    /// Build the same stream with the in-place builder and with the
    /// rewrite-every-insert oracle; the trees must be the same tree,
    /// checked along the way (an in-place page carries garbage the
    /// oracle's never has, so the moment of each split is the risk).
    fn assert_same_tree(label: &str, entries: &[(Value, Rid)], min_height: usize) {
        let mut fast = DiskBTree::new(pool()).unwrap();
        let mut oracle = DiskBTree::new(pool()).unwrap();
        for (n, (v, r)) in entries.iter().enumerate() {
            let a = fast.insert(v.clone(), *r);
            let b = oracle.insert_by_rewrite(v.clone(), *r);
            assert_eq!(a.is_ok(), b.is_ok(), "{label}: insert {n}: {a:?} vs {b:?}");
            if a.is_err() {
                break;
            }
            if n % 257 == 0 {
                assert_eq!(dump(&fast), dump(&oracle), "{label}: after insert {n}");
            }
        }
        assert_eq!(fast.height(), oracle.height(), "{label}");
        assert_eq!(dump(&fast), dump(&oracle), "{label}");
        assert!(
            fast.height() >= min_height,
            "{label}: height {}",
            fast.height()
        );
    }

    #[test]
    fn in_place_builder_grows_the_oracles_tree() {
        let mut r = rng::seeded(rng::DEFAULT_SEED, "btree-oracle");
        let wide = |i: u64| Value::Str(format!("{i:08}-{}", "k".repeat(60 + (i % 90) as usize)));
        let sorted: Vec<(Value, Rid)> = (0..6_000)
            .map(|i| (Value::Long(i), rid(i as u32)))
            .collect();
        assert_same_tree("sorted longs", &sorted, 2);
        let reversed: Vec<(Value, Rid)> = sorted.iter().rev().cloned().collect();
        assert_same_tree("descending longs", &reversed, 2);
        let random: Vec<(Value, Rid)> = (0..6_000u32)
            .map(|n| (Value::Long((r.next_u64() % 1_000_000) as i64), rid(n)))
            .collect();
        assert_same_tree("random longs", &random, 2);
        // ~25 wide cells per page: three levels within a few thousand keys.
        let strings: Vec<(Value, Rid)> = (0..5_000u32)
            .map(|n| (wide(r.next_u64() % 100_000), rid(n)))
            .collect();
        assert_same_tree("random wide strings", &strings, 3);
        let sorted_strings: Vec<(Value, Rid)> =
            (0..5_000u32).map(|n| (wide(n as u64), rid(n))).collect();
        assert_same_tree("sorted wide strings", &sorted_strings, 3);
        // Duplicate-heavy: 40 keys share 8 000 rids, so cells keep
        // growing, leave garbage behind and split on rid lists.
        let dups: Vec<(Value, Rid)> = (0..8_000u32)
            .map(|n| (Value::Long((r.next_u64() % 40) as i64), rid(n)))
            .collect();
        assert_same_tree("duplicate-heavy", &dups, 2);
        // One key past what a cell can hold: both builders refuse at the
        // same insert.
        let one_key: Vec<(Value, Rid)> = (0..600u32).map(|n| (Value::Long(7), rid(n))).collect();
        assert_same_tree("one key, too many rids", &one_key, 1);
        // Every value family in one index.
        let mixed: Vec<(Value, Rid)> = (0..4_000u32)
            .map(|n| {
                let v = match r.next_u64() % 5 {
                    0 => Value::Null,
                    1 => Value::Bool(r.next_u64().is_multiple_of(2)),
                    2 => Value::Long((r.next_u64() % 500) as i64 - 250),
                    3 => Value::Double((r.next_u64() % 500) as f64 / 3.0 - 80.0),
                    _ => wide(r.next_u64() % 300),
                };
                (v, rid(n))
            })
            .collect();
        assert_same_tree("mixed families", &mixed, 2);
    }

    #[test]
    fn hostile_index_pages_are_errors() {
        // A leaf whose cell is cut short inside its rid list, and an
        // internal page whose cell has no room for a child pointer.
        let p = pool();
        let mut t = DiskBTree::new(p.clone()).unwrap();
        t.insert(Value::Long(1), rid(1)).unwrap();
        let mut cell = encode_key(&Value::Long(5));
        cell.extend_from_slice(&3u16.to_le_bytes());
        cell.extend_from_slice(&rid(9).to_bytes());
        p.with_page_mut(t.root, |pg| assert!(pg.insert_at(1, &cell)))
            .unwrap();
        assert!(t.lookup(&Value::Long(5)).is_err());
        assert!(t.scan(CompareOp::Ge, &Value::Long(0)).is_err());
        assert_eq!(t.lookup(&Value::Long(1)).unwrap(), vec![rid(1)]);

        let inner = p.allocate(PageKind::BTreeInternal).unwrap();
        p.with_page_mut(inner, |pg| {
            pg.set_aux(t.root);
            assert!(pg.insert_at(0, &[0u8])); // a Null key and nothing else
        })
        .unwrap();
        let broken = DiskBTree {
            pool: p,
            root: inner,
            height: 2,
            len: 1,
        };
        assert!(broken.lookup(&Value::Long(1)).is_err());
    }
}
