//! Simulated heterogeneous data sources.
//!
//! The paper's experiment measures a real ObjectStore installation; this
//! crate is the substitute substrate (see DESIGN.md §4): storage engines
//! that *physically execute* algebra subplans against paged storage and
//! account elapsed time on a virtual clock using the paper's measured
//! constants (25 ms per page fault, 9 ms per delivered object). Because
//! qualifying objects are placed on pages by a real random process, the
//! measured page-fault counts follow the distribution Yao's formula
//! models — the "experiment" curve of Figure 12 is reproduced by
//! execution, not by evaluating a formula.
//!
//! Modules:
//!
//! * [`clock`] — virtual time and per-source cost profiles;
//! * [`exec`] — in-memory row-at-a-time operators: the walker's kernels
//!   and the reference for `vexec`;
//! * [`vexec`] — the vectorized kernels: the same operators, one
//!   columnar batch in, one batch out;
//! * [`vstream`] — the mediator's combine operator set: pull-based
//!   streams of chunks over the `vexec` kernels (a whole answer is a
//!   stream of one chunk);
//! * `walk` — the one plan walker every operator-executing source runs:
//!   the `LogicalPlan` walk over `exec` with its charge table, the
//!   answer epilogue (`ExecStats`) and the attribute-statistics pass;
//! * [`store`] — the page model: [`PagedStore`]'s leaf set (scan, index
//!   probe, row fetch) over in-memory rows, counting faults through a
//!   simulated LRU pool on the pages `disco-store`'s collection builder
//!   lays them out on;
//! * [`disk`] — [`StoreSource`]'s leaf set: the same access paths over
//!   the real disk-backed engine in `disco-store` (measured page faults);
//! * [`doc`] — [`DocSource`]'s leaf set: the flattening scan over nested
//!   documents;
//! * [`flatfile`] — a scan-only flat-file source;
//! * [`source`] — the [`DataSource`] trait wrappers build on;
//! * [`wire`] — byte codecs shipping subanswers across the transport
//!   boundary.

mod buffer;
pub mod clock;
pub mod disk;
pub mod doc;
pub mod exec;
pub mod flatfile;
pub mod source;
pub mod store;
pub mod vexec;
pub mod vstream;
mod walk;
pub mod wire;

pub use clock::{CostProfile, VirtualClock};
pub use disk::StoreSource;
pub use doc::{DocField, DocSource, DocValue, PathKind};
pub use flatfile::FlatFile;
pub use source::{BatchAnswer, DataSource, ExecStats, SubAnswer};
pub use store::{CollectionBuilder, PagedStore};
