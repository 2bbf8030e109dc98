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
//! * [`vexec`] — the operator kernels, one columnar batch in, one batch
//!   out: what the wrappers' walker and the mediator's combine both run;
//! * [`vstream`] — the mediator's combine operator set: pull-based
//!   streams of chunks over the `vexec` kernels (a whole answer is a
//!   stream of one chunk);
//! * `walk` — the one plan walker every operator-executing source runs:
//!   the `LogicalPlan` walk over `vexec` with its charge table, the
//!   answer epilogue (`ExecStats`) and the attribute-statistics pass,
//!   all on columns;
//! * [`store`] — the page model: [`PagedStore`]'s leaf set (scan, index
//!   probe, row gather) over one in-memory column batch per collection,
//!   counting faults through a simulated LRU pool on the pages
//!   `disco-store`'s collection builder lays them out on;
//! * [`disk`] — [`StoreSource`]'s leaf set: the same access paths over
//!   the real disk-backed engine in `disco-store` (measured page faults);
//! * [`doc`] — [`DocSource`]'s leaf set: the flattening scan over nested
//!   documents;
//! * [`flatfile`] — a scan-only flat-file source;
//! * [`source`] — the [`DataSource`] trait wrappers build on;
//! * [`wire`] — byte codecs shipping subanswers across the transport
//!   boundary, encoded from and decoded into columns.
//!
//! A pushed-down subplan never builds a [`Tuple`](disco_common::Tuple):
//! rows exist only where a source is loaded and in the mediator's final
//! answer.

mod buffer;
pub mod clock;
pub mod disk;
pub mod doc;
/// The row-at-a-time reference operators, for the `vexec` unit tests.
#[cfg(test)]
#[path = "../tests/support/exec.rs"]
mod exec;
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
pub use source::{DataSource, ExecStats, SubAnswer};
pub use store::{CollectionBuilder, PagedStore};
