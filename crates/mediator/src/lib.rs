//! The DISCO mediator (paper §2).
//!
//! The mediator accepts declarative queries ("written in simple
//! object/relational SQL", §2.2), decomposes them into algebraic
//! subqueries — one per wrapper — plus a composition plan, optimizes the
//! decomposition with the blended cost model of `disco-core`, executes the
//! best plan by submitting subqueries to wrappers, and combines the
//! subanswers.
//!
//! Modules:
//!
//! * [`sql`] — lexer, AST and parser for the query language;
//! * [`analyze`] — name resolution against the catalog, predicate
//!   classification (selections vs joins), output/aggregate validation;
//! * [`optimizer`] — pushdown enumeration and join ordering, costed by
//!   the blended estimator; optional cost-limit pruning (§4.3.2);
//! * `join_graph` — the one join-order search (subset DP, greedy beyond
//!   twelve leaves) that the optimizer and the re-planner share;
//! * [`executor`] — pull-style execution: submit subqueries, combine
//!   subanswers, account mediator-side virtual time;
//! * [`adaptive`] — mid-query re-optimization: when measured subanswer
//!   cardinalities contradict the optimizer's predictions, re-run the
//!   join-order search over the combine plan with corrected cardinalities
//!   and abandon the running order for a cheaper one (runtime §4.3.2);
//! * [`mediator`] — the facade tying registration (Figure 1) and query
//!   processing (Figure 2) together;
//! * [`serving`] — the multi-tenant serving layer: a shared concurrent
//!   mediator with a decision-replay plan cache and cost-driven
//!   admission control.

pub mod adaptive;
pub mod analyze;
pub mod executor;
mod join_graph;
pub mod mediator;
pub mod optimizer;
pub mod serving;
pub mod sql;

pub use adaptive::{AdaptivePolicy, ReplanEvent, Replanner, SiteObservation};
pub use analyze::{AnalyzedQuery, TableBinding};
pub use disco_transport::ResiliencePolicy;
pub use executor::{ExecutionTrace, Executor, QueryResult, SitePrediction, SubmitTrace};
pub use mediator::{AnalyzeReport, Mediator, MediatorOptions};
pub use optimizer::{to_logical, OptimizedPlan, Optimizer, OptimizerOptions, PlanDecisions};
pub use serving::{
    AdmissionController, AdmissionPermit, AdmissionPolicy, PlanCacheStats, PlanSource, QueryClass,
    ServedQuery, SharedMediator,
};
pub use sql::{parse_query, parse_statement, Statement};
