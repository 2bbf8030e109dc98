//! disco-obs: the observability layer.
//!
//! Zero-dependency (per the vendored-deps convention) tracing and
//! metrics, sitting below every other crate in the workspace so that
//! core, transport, sources, and mediator can all emit telemetry
//! without dependency cycles:
//!
//! * [`trace`] — nested span tracing with a tree/JSON report
//!   ([`Tracer`], [`TraceReport`]).
//! * [`metrics`] — process-wide registry of counters, gauges and
//!   histograms with Prometheus text exposition and a JSON snapshot
//!   ([`metrics::global`], [`MetricsSnapshot`]).
//! * [`json`] — the minimal JSON value/parser/writer backing both
//!   reports (round-trip exact for everything the registry emits).
//!
//! Metric names used across the workspace are centralized in [`names`]
//! so call sites and dashboards cannot drift apart.

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{
    enabled, set_enabled, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{Span, SpanGuard, TraceReport, Tracer};

/// Well-known metric names (see DESIGN.md §Observability).
pub mod names {
    /// Counter, labels `{cache="cost"|"rules"}`: lookups against an
    /// estimator cache.
    pub const CACHE_LOOKUPS: &str = "cache_lookups_total";
    /// Counter, labels `{cache="cost"|"rules"}`: lookups that hit.
    pub const CACHE_HITS: &str = "cache_hits_total";
    /// Gauge, labels `{cache="cost"|"rules"}`: hits / lookups.
    pub const CACHE_HIT_RATIO: &str = "cache_hit_ratio";
    /// Counter, labels `{wrapper}`: transport retry attempts beyond the
    /// first try.
    pub const TRANSPORT_RETRIES: &str = "transport_retries_total";
    /// Counter, labels `{wrapper}`: submissions that exhausted retries
    /// or were rejected by an open breaker.
    pub const WRAPPER_UNAVAILABLE: &str = "wrapper_unavailable_total";
    /// Counter, labels `{wrapper, to="open"|"half_open"|"closed"}`:
    /// circuit-breaker state transitions.
    pub const BREAKER_TRANSITIONS: &str = "breaker_transitions_total";
    /// Counter, labels `{wrapper}`: hedge submits launched at a replica
    /// because the primary exceeded its straggler threshold.
    pub const TRANSPORT_HEDGES: &str = "transport_hedges_total";
    /// Counter, labels `{wrapper}`: hedge submits that won the race
    /// (answered before the primary).
    pub const TRANSPORT_HEDGE_WINS: &str = "transport_hedge_wins_total";
    /// Counter, labels `{wrapper, outcome="met"|"missed"}`: per-submit
    /// deadline outcomes (missed = a wall or simulated deadline expiry).
    pub const SUBMIT_DEADLINES: &str = "submit_deadline_outcomes_total";
    /// Gauge, labels `{wrapper}`: current multiplicative health penalty
    /// the estimator applies at wrapper scope (1 = healthy).
    pub const WRAPPER_PENALTY: &str = "wrapper_health_penalty";
    /// Counter, no labels: queries whose time budget ran out before all
    /// submits were fetched (degraded to a partial answer).
    pub const BUDGET_EXHAUSTED: &str = "query_budget_exhausted_total";
    /// Counter, labels `{op}`: rows flowing out of a vectorized
    /// combine operator.
    pub const VEXEC_ROWS: &str = "vexec_rows_total";
    /// Counter, labels `{op}`: batches flowing out of a vectorized
    /// combine operator.
    pub const VEXEC_BATCHES: &str = "vexec_batches_total";
    /// Counter, no labels: queries executed by the mediator.
    pub const QUERIES: &str = "queries_total";
    /// Counter, labels `{wrapper}`: query-scope cost rules recorded
    /// from measured submissions.
    pub const HISTORY_RECORDED: &str = "history_recorded_total";
    /// Histogram, no labels: end-to-end measured query latency (ms).
    pub const QUERY_MS: &str = "query_ms";
    /// Counter, no labels: plan-cache lookups that replayed a cached
    /// decision instead of re-optimizing.
    pub const PLAN_CACHE_HITS: &str = "plan_cache_hits_total";
    /// Counter, no labels: plan-cache lookups that fell through to the
    /// full optimizer (shape never seen, or uncacheable statement).
    pub const PLAN_CACHE_MISSES: &str = "plan_cache_misses_total";
    /// Counter, labels `{reason="history"|"health"|"catalog"}`: cached
    /// plans discarded because shared state they were derived from
    /// changed (§4.3 historical-rule updates, health-penalty shifts,
    /// catalog mutations).
    pub const PLAN_CACHE_INVALIDATIONS: &str = "plan_cache_invalidations_total";
    /// Counter, labels `{class="interactive"|"analytical"}`: queries
    /// admitted by the serving-layer scheduler.
    pub const ADMISSION_ADMITTED: &str = "admission_admitted_total";
    /// Counter, no labels: predicted-cheap queries that bypassed a
    /// non-empty analytical queue.
    pub const ADMISSION_BYPASS: &str = "admission_bypass_total";
    /// Histogram, labels `{class}`: milliseconds a query waited for an
    /// admission slot before running.
    pub const ADMISSION_WAIT_MS: &str = "admission_wait_ms";
    /// Counter, labels `{engine="disk"|"simulated", source}`: buffer-pool
    /// page faults (pages read from storage). One schema for both the
    /// real pager in `disco-store` and the simulated one in
    /// `disco-sources`, so dashboards compare them directly.
    pub const STORE_PAGE_FAULTS: &str = "store_page_faults_total";
    /// Counter, labels `{engine, source}`: buffer-pool hits (page
    /// requests served from a resident frame).
    pub const STORE_BUFFER_HITS: &str = "store_buffer_hits_total";
    /// Counter, labels `{engine, source}`: frames evicted to make room.
    pub const STORE_EVICTIONS: &str = "store_evictions_total";
    /// Counter, no labels: queries whose measured subanswer
    /// cardinalities crossed the adaptive error threshold, triggering a
    /// mid-query re-enumeration of the combine plan.
    pub const REPLAN_CONSIDERED: &str = "replan_considered_total";
    /// Counter, no labels: re-enumerations that found a cheaper combine
    /// order (beyond the switch margin) and actually abandoned the
    /// running plan.
    pub const REPLAN_EXECUTED: &str = "replan_executed_total";
    /// Histogram, no labels: predicted win (old minus new combine
    /// cost, ms) of each executed mid-query re-plan.
    pub const REPLAN_WIN_MS: &str = "replan_win_ms";
    /// Counter, no labels: plan-cache entries evicted because the query
    /// re-planned mid-execution — the cached decision was derived from
    /// misestimated cardinalities and must not be replayed for other
    /// constants.
    pub const PLAN_CACHE_REPLAN_BYPASS: &str = "plan_cache_replan_bypass_total";
}

/// Shorthand for `metrics::global().counter(...)`.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    metrics::global().counter(name, labels)
}

/// Shorthand for `metrics::global().gauge(...)`.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    metrics::global().gauge(name, labels)
}

/// Shorthand for `metrics::global().histogram(...)`.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> std::sync::Arc<Histogram> {
    metrics::global().histogram(name, labels)
}
