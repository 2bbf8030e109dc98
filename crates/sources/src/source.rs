//! The interface between wrappers and their underlying data sources.

use disco_algebra::LogicalPlan;
use disco_catalog::CollectionStats;
use disco_common::{Batch, Result, Schema};

/// Execution accounting for one subquery (the "real costs" the historical
/// mechanism records).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecStats {
    /// Total simulated response time (ms).
    pub elapsed_ms: f64,
    /// Simulated time to the first result tuple (ms).
    pub time_first_ms: f64,
    /// Pages faulted in from disk.
    pub pages_read: u64,
    /// Buffer pool hits.
    pub buffer_hits: u64,
    /// Objects examined.
    pub objects_scanned: u64,
}

/// A subanswer returned by a source: its rows, column-major, plus the
/// measured execution statistics. Sources produce it from their columns
/// and the transport ships and decodes it without building a row.
#[derive(Debug, Clone, PartialEq)]
pub struct SubAnswer {
    pub schema: Schema,
    pub batch: Batch,
    pub stats: ExecStats,
}

/// A data source a wrapper can be built over.
pub trait DataSource {
    /// Source name (diagnostics).
    fn name(&self) -> &str;

    /// Collections the source holds, with their schemas.
    fn collections(&self) -> Vec<(String, Schema)>;

    /// Statistics of a collection, computed from the actual data (what
    /// the paper's `cardinality` methods return).
    fn statistics(&self, collection: &str) -> Option<CollectionStats>;

    /// Execute an algebra subplan against this source, returning the
    /// subanswer and measured (virtual-clock) costs. The plan's scans
    /// refer to this source's collections by unqualified name matching
    /// the `QualifiedName::collection` field.
    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer>;
}
