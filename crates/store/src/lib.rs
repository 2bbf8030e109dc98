//! # disco-store
//!
//! A real disk-backed paged storage engine beneath the federation: 4 KB
//! slotted heap pages with checksummed headers, an on-disk B+-tree, and
//! a buffer pool with pin/unpin, dirty tracking, and LRU eviction — all
//! over `std::fs::File`, no external dependencies.
//!
//! The page model in `disco-sources` *charges* a virtual clock for page
//! faults it never performs; this crate performs them, so Yao's
//! `pages_touched` prediction (the paper's Figure 12 experiment) can be
//! validated against page fetches that actually happened. Both pagers
//! take their layout from this crate's one collection builder
//! ([`DiskCollectionBuilder::place`]), so their fault counts are
//! comparable number for number.
//!
//! Layering, bottom up:
//!
//! | module   | responsibility |
//! |----------|----------------|
//! | [`page`] | slotted 4 KB pages: header, slot directory, compaction |
//! | [`codec`]| tuple ⇄ record bytes, index key encoding |
//! | [`file`] | page-granular `File` I/O with checksum validation |
//! | [`buffer`] | frame cache, pin/unpin, LRU eviction, fault counters |
//! | [`heap`] | unordered record files, bulk append, rid addressing, page layout |
//! | [`btree`] | on-disk B+-tree with leaf-chained range scans |
//! | [`engine`] | the collection builder and its layout step, bulk load, metered sessions |

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod engine;
pub mod file;
pub mod heap;
pub mod page;

pub use btree::DiskBTree;
pub use buffer::{BufferPool, PageRef, PoolCounters};
pub use engine::{
    DiskCollection, DiskCollectionBuilder, DiskStore, DiskStoreBuilder, PlacedCollection,
    StoreSession, DEFAULT_FRAMES,
};
pub use file::PageFile;
pub use heap::{HeapBuilder, HeapFile, Layout, Rid};
pub use page::{Page, PageId, PageKind, HEADER_SIZE, NO_PAGE, PAGE_SIZE};
