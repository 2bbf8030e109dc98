//! The DISCO extensible cost model (the paper's primary contribution).
//!
//! The mediator owns a generic cost model; wrappers override parts of it
//! with rules shipped at registration time. Rules live in a specialization
//! hierarchy of *scopes* (Figure 10); estimating a plan is a two-phase tree
//! traversal that associates the most specific applicable formula with each
//! node and result variable, then evaluates bottom-up (Figure 11).
//!
//! Modules:
//!
//! * [`cost`] — the per-node cost record (`TimeFirst`, `TimeNext`,
//!   `TotalTime`, `CountObject`, `TotalSize`);
//! * [`scope`] — the scope lattice and rule specificity;
//! * [`pattern`] — unification of rule heads against plan nodes;
//! * [`rules`] — registered rules: compiled wrapper formulas or native
//!   (Rust) formulas;
//! * [`registry`] — the rule store indexed for fast candidate lookup;
//! * [`params`] — calibration parameters (`IO`, `Output`, `PageSize`, …);
//! * [`generic`] — the mediator's built-in generic cost model (§2.3),
//!   calibration-style formulas for every operator;
//! * [`yao`] — Yao's page-access formula \[Yao77\] used by the improved
//!   index-scan rule of §5;
//! * [`estimator`] — the two-phase estimation algorithm with per-variable
//!   fallback, min-combination, required-variable cut-off and
//!   branch-and-bound cost limits;
//! * [`cache`] — the subplan cost memo and rule-resolution cache shared
//!   across all candidate estimations of one optimization run, keyed by
//!   the hash-consed subplans ([`SubtreeId`]) of the private `intern`
//!   module, which also stores what a formula reads of each subtree;
//! * [`historical`] — the §4.3.1 extensions: query-scope rules recorded
//!   from executed subqueries, and parameter adjustment.

// The unit tests reuse the property generators of `tests/support`, which
// name this crate by its external name.
#[cfg(test)]
extern crate self as disco_core;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub mod cache;
pub mod cost;
pub mod estimator;
pub mod explain;
pub mod generic;
pub mod historical;
mod intern;
pub mod params;
pub mod pattern;
pub mod registry;
pub mod rules;
pub mod scope;
pub mod yao;

pub use cache::EstimatorCache;
pub use cost::NodeCost;
pub use disco_costlang::CostVar;
pub use estimator::{
    Association, BoundEstimate, CardinalityOverrides, EstimateOptions, EstimateReport, Estimator,
};
pub use explain::{relative_error, AnalyzeNode, Attribution, ExplainNode, Measured, MeasuredNode};
pub use historical::{fit_param, HistoryRecorder, ParamAdjuster};
pub use intern::{NodeView, Payload, SubtreeId};
pub use params::Params;
pub use pattern::{BindingValue, Bindings};
pub use registry::{Provenance, RuleRegistry};
pub use rules::{NativeFormula, RegisteredRule, RuleBody};
pub use scope::{derive_scope, specificity, Scope};
pub use yao::yao_pages;
