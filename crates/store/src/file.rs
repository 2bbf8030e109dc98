//! The on-disk page file.
//!
//! A [`PageFile`] is a flat array of [`PAGE_SIZE`] pages over one
//! `std::fs::File`. Writes seal the page checksum; reads verify it. Each
//! is one positioned syscall (`pread`/`pwrite` through
//! `std::os::unix::fs::FileExt`), so the file has no cursor to seek.
//! Stores usually live in per-process temp files deleted on drop, but a
//! file can also be created at (or reopened from) an explicit path.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use disco_common::{DiscoError, Result};

use crate::page::{Page, PageId, PAGE_SIZE};

/// Distinguishes temp files created by this process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn io_err(op: &str, e: std::io::Error) -> DiscoError {
    DiscoError::Source(format!("store: {op} failed: {e}"))
}

/// A paged file.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    /// Atomic so that allocation is `&self` like every other operation:
    /// the buffer pool shares the file between threads without a lock.
    pages: AtomicU64,
    delete_on_drop: bool,
}

impl PageFile {
    /// Create (truncate) a page file at an explicit path.
    pub fn create(path: impl AsRef<Path>) -> Result<PageFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", e))?;
        Ok(PageFile {
            file,
            path,
            pages: AtomicU64::new(0),
            delete_on_drop: false,
        })
    }

    /// Create a page file in the system temp directory, deleted when the
    /// store is dropped. `tag` makes the name recognizable in listings.
    pub fn create_temp(tag: &str) -> Result<PageFile> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let clean: String = tag
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "disco-store-{}-{n}-{clean}.pages",
            std::process::id()
        ));
        let mut f = PageFile::create(&path)?;
        f.delete_on_drop = true;
        Ok(f)
    }

    /// Reopen an existing page file.
    pub fn open(path: impl AsRef<Path>) -> Result<PageFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DiscoError::Source(format!(
                "store: file length {len} is not a whole number of pages"
            )));
        }
        Ok(PageFile {
            file,
            path,
            pages: AtomicU64::new(len / PAGE_SIZE as u64),
            delete_on_drop: false,
        })
    }

    /// File path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of allocated pages (some may not have reached disk yet —
    /// the buffer pool owns dirty state).
    pub fn pages(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    /// Allocate the next page id. No disk write happens here; the page
    /// materializes on its first write-back.
    pub fn allocate(&self) -> PageId {
        // The count publishes nothing: a page's bytes reach other
        // threads through the buffer pool's mutex, not through this.
        self.pages.fetch_add(1, Ordering::Relaxed)
    }

    /// `Ok` if `id` is a page a read may ask for.
    pub(crate) fn check_allocated(&self, id: PageId) -> Result<()> {
        let pages = self.pages();
        if id >= pages {
            return Err(DiscoError::Source(format!(
                "store: read of unallocated page {id} (file has {pages})"
            )));
        }
        Ok(())
    }

    /// Read and validate one page.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        let mut page = Page::zeroed();
        self.read_page_into(id, &mut page)?;
        Ok(page)
    }

    /// Read and validate one page into a buffer the caller already has.
    /// On error the buffer's contents are unspecified.
    pub fn read_page_into(&self, id: PageId, page: &mut Page) -> Result<()> {
        self.check_allocated(id)?;
        self.file
            .read_exact_at(&mut page.bytes_mut()[..], id * PAGE_SIZE as u64)
            .map_err(|e| io_err(&format!("read of page {id}"), e))?;
        page.validate()
    }

    /// Seal and write one page. Writing past the current end (sparse
    /// regions from out-of-order eviction) is fine; the skipped range
    /// reads back as zeroes only until its own write-back arrives, and
    /// the pool never reads a page it has not flushed.
    pub fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        if id >= self.pages() {
            return Err(DiscoError::Source(format!(
                "store: write of unallocated page {id}"
            )));
        }
        let mut sealed = page.clone();
        sealed.seal();
        self.file
            .write_all_at(&sealed.bytes()[..], id * PAGE_SIZE as u64)
            .map_err(|e| io_err(&format!("write of page {id}"), e))?;
        Ok(())
    }

    /// Flush file-system buffers.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data().map_err(|e| io_err("sync", e))
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    #[test]
    fn write_read_round_trip() {
        let f = PageFile::create_temp("roundtrip").unwrap();
        let a = f.allocate();
        let b = f.allocate();
        let mut pa = Page::new(PageKind::Heap);
        pa.insert(b"first page").unwrap();
        let mut pb = Page::new(PageKind::BTreeLeaf);
        pb.insert(b"second page").unwrap();
        f.write_page(a, &pa).unwrap();
        f.write_page(b, &pb).unwrap();
        f.sync().unwrap();
        let ra = f.read_page(a).unwrap();
        assert_eq!(ra.record(0).unwrap(), b"first page");
        assert_eq!(ra.kind(), Some(PageKind::Heap));
        let rb = f.read_page(b).unwrap();
        assert_eq!(rb.record(0).unwrap(), b"second page");
    }

    #[test]
    fn unallocated_access_rejected() {
        let f = PageFile::create_temp("bounds").unwrap();
        assert!(f.read_page(0).is_err());
        assert!(f.write_page(0, &Page::new(PageKind::Heap)).is_err());
        let id = f.allocate();
        assert!(f.write_page(id, &Page::new(PageKind::Heap)).is_ok());
    }

    #[test]
    fn corruption_detected_on_read() {
        let f = PageFile::create_temp("corrupt").unwrap();
        let id = f.allocate();
        let mut p = Page::new(PageKind::Heap);
        p.insert(b"precious bytes").unwrap();
        f.write_page(id, &p).unwrap();
        // Flip a byte on disk behind the page file's back.
        f.file.write_all_at(&[0xAB], 100).unwrap();
        let err = f.read_page(id).unwrap_err().to_string();
        assert!(err.contains("checksum") || err.contains("magic"), "{err}");
    }

    #[test]
    fn temp_file_deleted_on_drop() {
        let path;
        {
            let f = PageFile::create_temp("dropme").unwrap();
            path = f.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("disco-store-reopen-{}", std::process::id()));
        let f = PageFile::create(&dir).unwrap();
        let id = f.allocate();
        let mut p = Page::new(PageKind::Heap);
        p.insert(b"persisted").unwrap();
        f.write_page(id, &p).unwrap();
        f.sync().unwrap();
        drop(f);
        let again = PageFile::open(&dir).unwrap();
        assert_eq!(again.pages(), 1);
        assert_eq!(
            again.read_page(id).unwrap().record(0).unwrap(),
            b"persisted"
        );
        drop(again);
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let path = std::env::temp_dir().join(format!("disco-store-trunc-{}", std::process::id()));
        let f = PageFile::create(&path).unwrap();
        let page = Page::new(PageKind::Heap);
        for _ in 0..2 {
            let id = f.allocate();
            f.write_page(id, &page).unwrap();
        }
        // Cut the file in the middle of its second page.
        f.file.set_len(PAGE_SIZE as u64 + 1_000).unwrap();
        assert!(f.read_page(0).is_ok());
        let err = f.read_page(1).unwrap_err().to_string();
        assert!(err.contains("read of page 1"), "{err}");
        drop(f);
        // Reopening refuses a length that is not whole pages.
        let err = PageFile::open(&path).unwrap_err().to_string();
        assert!(err.contains("whole number of pages"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
