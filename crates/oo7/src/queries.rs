//! OO7 query workloads as plan builders.
//!
//! The §5 experiment is [`index_scan_selectivity`]: an index scan over
//! `AtomicParts.Id` at a chosen selectivity. The classical OO7 queries
//! relevant to a cost-model study are provided as [`Oo7Query`] variants.

use disco_algebra::{AggFunc, CompareOp, LogicalPlan, PlanBuilder};
use disco_common::QualifiedName;

use crate::gen::{
    atomic_parts_schema, composite_parts_schema, connections_schema, documents_schema,
};
use crate::params::Oo7Config;

/// Scan of `AtomicParts` under the given wrapper name.
pub fn atomic_scan(wrapper: &str) -> PlanBuilder {
    PlanBuilder::scan(
        QualifiedName::new(wrapper, "AtomicParts"),
        atomic_parts_schema(),
    )
}

/// The §5 experiment: `select(scan(AtomicParts), Id <= v)` where `v` is
/// chosen so the fraction of qualifying objects is `selectivity`.
///
/// `Id` is uniform on `0..atomic_parts`, so `Id <= sel*n - 1` qualifies
/// `sel*n` objects exactly.
pub fn index_scan_selectivity(wrapper: &str, config: &Oo7Config, selectivity: f64) -> LogicalPlan {
    let k = (selectivity.clamp(0.0, 1.0) * config.atomic_parts as f64).round() as i64;
    atomic_scan(wrapper).select("Id", CompareOp::Lt, k).build()
}

/// The classical OO7 query set (subset relevant to cost estimation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oo7Query {
    /// Q1: exact-match lookup of one atomic part by `Id`.
    ExactMatch { id: i64 },
    /// Q2/Q3/Q7-style range on `BuildDate` covering the given fraction of
    /// the date domain (1 %, 10 %, 100 % in the benchmark).
    BuildDateRange { fraction_percent: u32 },
    /// Q4-style: documents joined to their composite parts.
    DocumentsOfComposites,
    /// Q8-ish: atomic parts joined to the documents of their composite.
    AtomicWithDocuments,
    /// Connection traversal: connections of low-id atomic parts.
    ConnectionsOfParts { max_from_id: i64 },
    /// Aggregate: parts per build date.
    PartsPerBuildDate,
}

impl Oo7Query {
    /// Build the logical plan for this query.
    pub fn plan(&self, wrapper: &str, config: &Oo7Config) -> LogicalPlan {
        let atomic = || atomic_scan(wrapper);
        let documents =
            || PlanBuilder::scan(QualifiedName::new(wrapper, "Documents"), documents_schema());
        let composites = || {
            PlanBuilder::scan(
                QualifiedName::new(wrapper, "CompositeParts"),
                composite_parts_schema(),
            )
        };
        let connections = || {
            PlanBuilder::scan(
                QualifiedName::new(wrapper, "Connections"),
                connections_schema(),
            )
        };
        match self {
            Oo7Query::ExactMatch { id } => atomic().select("Id", CompareOp::Eq, *id).build(),
            Oo7Query::BuildDateRange { fraction_percent } => {
                let hi = (config.build_dates as i64 * *fraction_percent as i64) / 100;
                atomic().select("BuildDate", CompareOp::Lt, hi).build()
            }
            Oo7Query::DocumentsOfComposites => composites()
                .join(documents(), "DocId", "DocId")
                .project_attrs(&["Id", "Title"])
                .build(),
            Oo7Query::AtomicWithDocuments => atomic()
                .select("Id", CompareOp::Lt, 100i64)
                .join(documents(), "DocId", "DocId")
                .project_attrs(&["Id", "Title"])
                .build(),
            Oo7Query::ConnectionsOfParts { max_from_id } => connections()
                .select("FromId", CompareOp::Lt, *max_from_id)
                .build(),
            Oo7Query::PartsPerBuildDate => atomic()
                .aggregate(&["BuildDate"], vec![("n", AggFunc::Count, None)])
                .build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::build_store;
    use disco_sources::DataSource;

    #[test]
    fn index_scan_selectivity_counts() {
        let config = Oo7Config::small();
        let store = build_store(&config).unwrap();
        for sel in [0.0, 0.1, 0.5] {
            let plan = index_scan_selectivity("oo7", &config, sel);
            let ans = store.execute(&plan).unwrap();
            assert_eq!(
                ans.batch.len(),
                (sel * 7_000.0).round() as usize,
                "sel={sel}"
            );
        }
    }

    #[test]
    fn exact_match_returns_one() {
        let config = Oo7Config::small();
        let store = build_store(&config).unwrap();
        let ans = store
            .execute(&Oo7Query::ExactMatch { id: 42 }.plan("oo7", &config))
            .unwrap();
        assert_eq!(ans.batch.len(), 1);
    }

    #[test]
    fn joins_produce_matches() {
        let config = Oo7Config::small();
        let store = build_store(&config).unwrap();
        let docs = store
            .execute(&Oo7Query::DocumentsOfComposites.plan("oo7", &config))
            .unwrap();
        assert_eq!(docs.batch.len(), 350);
        let awd = store
            .execute(&Oo7Query::AtomicWithDocuments.plan("oo7", &config))
            .unwrap();
        assert_eq!(awd.batch.len(), 100);
    }

    #[test]
    fn aggregate_counts_build_dates() {
        let config = Oo7Config::small();
        let store = build_store(&config).unwrap();
        let ans = store
            .execute(&Oo7Query::PartsPerBuildDate.plan("oo7", &config))
            .unwrap();
        assert!(ans.batch.len() <= 1_000);
        let counts = ans.batch.column(1);
        let total: i64 = (0..counts.len())
            .map(|row| counts.value(row).as_i64().unwrap())
            .sum();
        assert_eq!(total, 7_000);
    }
}
