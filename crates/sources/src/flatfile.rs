//! A scan-only flat-file source.
//!
//! Models the paper's "bibliographic and multimedia files" class of
//! sources: no indexes, no predicate evaluation — the wrapper can only
//! scan and parse, and the mediator must compensate for everything else.
//! Cost: a fixed open overhead plus a per-line parse cost.

use disco_algebra::LogicalPlan;
use disco_catalog::{CollectionStats, ExtentStats};
use disco_common::{Batch, DiscoError, Result, Schema, Tuple, Value};

use crate::source::{DataSource, ExecStats, SubAnswer};

/// One delimited text file exposed as a single collection.
#[derive(Debug, Clone)]
pub struct FlatFile {
    name: String,
    collection: String,
    schema: Schema,
    /// The parsed lines, column-major.
    lines: Batch,
    /// Average encoded line width in bytes.
    line_width: u64,
    /// Cost to open the file (ms).
    pub open_ms: f64,
    /// Cost to read and parse one line (ms).
    pub parse_ms: f64,
}

impl FlatFile {
    /// Build a flat file from rows.
    pub fn new(
        name: impl Into<String>,
        collection: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Self {
        let rows: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
        let lines = Batch::from_tuples(schema.arity(), &rows);
        let line_width = (lines.byte_width() / lines.len().max(1) as u64).max(1);
        FlatFile {
            name: name.into(),
            collection: collection.into(),
            schema,
            lines,
            line_width,
            open_ms: 50.0,
            parse_ms: 0.8,
        }
    }

    /// Override per-line parse cost.
    pub fn with_parse_ms(mut self, ms: f64) -> Self {
        self.parse_ms = ms;
        self
    }
}

impl DataSource for FlatFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn collections(&self) -> Vec<(String, Schema)> {
        vec![(self.collection.clone(), self.schema.clone())]
    }

    fn statistics(&self, collection: &str) -> Option<CollectionStats> {
        if collection != self.collection {
            return None;
        }
        let n = self.lines.len() as u64;
        // Files export extent statistics only; attribute statistics fall
        // back to the mediator defaults (no index, guessed distincts) —
        // the "partial information" case of §1.
        Some(CollectionStats::new(ExtentStats {
            count_object: n,
            total_size: n * self.line_width,
            object_size: self.line_width,
            count_page: None,
        }))
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        // Scan-only: anything else must be compensated by the mediator.
        let LogicalPlan::Scan { collection, .. } = plan else {
            return Err(DiscoError::Unsupported(format!(
                "flat file `{}` can only scan (got `{}`)",
                self.name,
                plan.kind()
            )));
        };
        if collection.collection != self.collection {
            return Err(DiscoError::Source(format!(
                "unknown collection `{}`",
                collection.collection
            )));
        }
        let elapsed = self.open_ms + self.lines.len() as f64 * self.parse_ms;
        Ok(SubAnswer {
            schema: self.schema.clone(),
            batch: self.lines.clone(),
            stats: ExecStats {
                elapsed_ms: elapsed,
                time_first_ms: self.open_ms + self.parse_ms.min(elapsed),
                pages_read: 0,
                buffer_hits: 0,
                objects_scanned: self.lines.len() as u64,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{AttributeDef, DataType, QualifiedName};

    fn file() -> FlatFile {
        FlatFile::new(
            "docs",
            "Log",
            Schema::new(vec![
                AttributeDef::new("ts", DataType::Long),
                AttributeDef::new("msg", DataType::Str),
            ]),
            (0..100i64).map(|i| vec![Value::Long(i), Value::Str(format!("m{i}"))]),
        )
    }

    fn scan() -> PlanBuilder {
        PlanBuilder::scan(
            QualifiedName::new("docs", "Log"),
            Schema::new(vec![
                AttributeDef::new("ts", DataType::Long),
                AttributeDef::new("msg", DataType::Str),
            ]),
        )
    }

    #[test]
    fn scan_parses_every_line() {
        let f = file();
        let ans = f.execute(&scan().build()).unwrap();
        assert_eq!(ans.batch.len(), 100);
        assert!((ans.stats.elapsed_ms - (50.0 + 100.0 * 0.8)).abs() < 1e-9);
        assert_eq!(ans.stats.pages_read, 0);
    }

    #[test]
    fn non_scan_rejected() {
        let f = file();
        let plan = scan().select("ts", CompareOp::Gt, 5i64).build();
        assert_eq!(f.execute(&plan).unwrap_err().kind(), "unsupported");
    }

    #[test]
    fn statistics_extent_only() {
        let f = file();
        let st = f.statistics("Log").unwrap();
        assert_eq!(st.extent.count_object, 100);
        assert!(st.attributes.is_empty());
        assert!(f.statistics("Other").is_none());
    }

    #[test]
    fn wrong_collection_rejected() {
        let f = file();
        let plan = PlanBuilder::scan(
            QualifiedName::new("docs", "Other"),
            Schema::new(vec![AttributeDef::new("x", DataType::Long)]),
        )
        .build();
        assert_eq!(f.execute(&plan).unwrap_err().kind(), "source");
    }
}
