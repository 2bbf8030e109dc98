//! Experiment harness for the paper's evaluation (DESIGN.md §3).
//!
//! Each experiment id (E1–E7) has a library runner here — so integration
//! tests can assert on the *shapes* the paper reports — and a binary under
//! `src/bin/` that prints the same rows the paper's figure/table shows.

pub mod chaos;
pub mod fig12;
pub mod historical;
pub mod micro;
pub mod plan_quality;
pub mod pruning;
pub mod report;
pub mod serving;
pub mod setup;
pub mod store_bench;

pub use fig12::{run_fig12, Fig12Row};
pub use plan_quality::{run_plan_quality, PlanQualityRow};
pub use pruning::run_pruning;
pub use report::{error_stats, Table};
