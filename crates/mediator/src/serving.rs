//! Multi-tenant serving layer: a shared concurrent mediator with a plan
//! cache of priced templates and cost-driven admission control.
//!
//! [`SharedMediator`] wraps one [`Mediator`] in an `RwLock` so N
//! sessions plan and execute concurrently (execution is `&self`; see
//! [`Mediator::execute_plan_shared`]) and amortize one another's work
//! through two pieces of cross-session shared state:
//!
//! * the **plan cache** — keyed by the normalized query shape
//!   (constants parameterized away). A miss stores the [`PlanDecisions`]
//!   of the winning plan, not the plan: a shape that is never asked for
//!   again costs no more than that. The shape's first hit prices it once,
//!   into a template (`Optimizer::template`): the plan the decisions
//!   rebuild, each restriction constant marked as a parameter slot in
//!   `normalized_key` order, and the §4.2 association of every node (the
//!   matched rules, most specific first). Every later hit parses the
//!   statement, renders its key, binds the new constants into a copy of
//!   the template and runs the bottom-up evaluation phase alone
//!   (`disco_core::Estimator::evaluate_bound`): no analysis, no access
//!   variants, no join tree, no negotiation, and the predictions the
//!   executor reads come from the same evaluation. Two kinds of shape
//!   keep replaying their decisions against the *incoming* query on every
//!   hit instead, because their association or their plan changes with
//!   the constants: a node with an applicable rule whose head binds a
//!   constant and matches the node for some value of it (a predicate- or
//!   query-scope selection rule, §4.3.1 history included), and a plan whose negotiation has a choice to make (a
//!   same-wrapper join to fuse, an aggregate to push). Either way a hit
//!   has prepared-statement semantics: always correct, possibly no longer
//!   optimal for wildly different constants;
//! * the **health tracker** — already `Arc`-shared with the transport;
//!   its [`version`](disco_common::HealthTracker::version) feeds
//!   invalidation.
//!
//! Estimation state is not among them: every cache-miss optimization
//! builds and drops its own `disco_core::cache`. The plan cache is
//! invalidated by exactly the events that could change a winning plan:
//! §4.3.1 query-scope historical-rule recordings (history epoch),
//! administrative catalog/registry mutations
//! ([`SharedMediator::with_mediator_mut`], catalog epoch), and
//! health-penalty shifts (quantized-penalty version). Hit, miss, and
//! per-reason invalidation counters go to `disco-obs`.
//!
//! [`AdmissionController`] sits in front: a concurrency limit with
//! per-tenant fair queuing for predicted-expensive ("analytical")
//! queries, a bypass lane with reserved slots for predicted-cheap
//! ("interactive") ones — the classification driven by the cost
//! model's estimated `TotalTime` — and optional per-tenant in-flight
//! caps.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError, RwLock};
use std::time::Instant;

use disco_common::{Result, Value};
use disco_obs::names;

use crate::analyze::{analyze, AnalyzedQuery};
use crate::executor::QueryResult;
use crate::mediator::Mediator;
use crate::optimizer::{BoundPlan, Objective, OptimizedPlan, Optimizer, PlanDecisions};
use crate::sql::{parse_statement, Condition, Query, SqlExpr, Statement};

/// Every lock in this module is taken through here, so a panic in one
/// session's mediator-side work (say, inside a
/// [`SharedMediator::with_mediator_mut`] closure) does not poison the
/// lock for every later session. Such a mutation has already invalidated
/// the plan cache; the other locks guard state updated in single steps.
fn unpoison<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Cache-key normalization
// ---------------------------------------------------------------------

/// One-letter type tag for a parameterized constant: the key must
/// distinguish `id < 10` from `name < 'x'` (different rule resolution)
/// but not `id < 10` from `id < 20`.
fn type_tag(v: &Value) -> &'static str {
    match v {
        Value::Null => "N",
        Value::Bool(_) => "B",
        Value::Long(_) => "L",
        Value::Double(_) => "D",
        Value::Str(_) => "S",
    }
}

fn render_expr(e: &SqlExpr, out: &mut String) {
    use std::fmt::Write as _;
    match e {
        SqlExpr::Col(c) => {
            let _ = write!(out, "{c}");
        }
        SqlExpr::Const(v) => {
            let _ = write!(out, "{v:?}");
        }
        SqlExpr::Agg(f, arg) => {
            let _ = write!(out, "{f:?}(");
            match arg {
                Some(c) => {
                    let _ = write!(out, "{c}");
                }
                None => out.push('*'),
            }
            out.push(')');
        }
        SqlExpr::Arith { op, left, right } => {
            out.push('(');
            render_expr(left, out);
            let _ = write!(out, " {op:?} ");
            render_expr(right, out);
            out.push(')');
        }
    }
}

/// Canonical render of a statement's *shape*: restriction constants are
/// replaced by `?`-typed placeholders so queries differing only in
/// those constants share one cache entry. `UNION` chains return `None`
/// (uncacheable — they multiply shapes for little reuse).
pub fn normalized_key(stmt: &Statement) -> Option<String> {
    use std::fmt::Write as _;
    if stmt.branches.len() != 1 {
        return None;
    }
    let q = &stmt.branches[0];
    let mut k = String::with_capacity(96);
    k.push_str("SELECT ");
    if q.distinct {
        k.push_str("DISTINCT ");
    }
    match &q.select {
        None => k.push('*'),
        Some(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    k.push(',');
                }
                render_expr(&item.expr, &mut k);
                if let Some(a) = &item.alias {
                    let _ = write!(k, " AS {a}");
                }
            }
        }
    }
    k.push_str(" FROM ");
    for (i, t) in q.from.iter().enumerate() {
        if i > 0 {
            k.push(',');
        }
        if let Some(w) = &t.wrapper {
            let _ = write!(k, "{w}.");
        }
        let _ = write!(k, "{} {}", t.collection, t.binding_name());
    }
    if !q.where_.is_empty() {
        k.push_str(" WHERE ");
        for (i, c) in q.where_.iter().enumerate() {
            if i > 0 {
                k.push_str(" AND ");
            }
            match c {
                Condition::Restriction { col, op, value } => {
                    let _ = write!(k, "{col} {op:?} ?{}", type_tag(value));
                }
                Condition::ColCompare { left, op, right } => {
                    let _ = write!(k, "{left} {op:?} {right}");
                }
            }
        }
    }
    if !q.group_by.is_empty() {
        k.push_str(" GROUP BY ");
        for (i, c) in q.group_by.iter().enumerate() {
            if i > 0 {
                k.push(',');
            }
            let _ = write!(k, "{c}");
        }
    }
    if !stmt.order_by.is_empty() {
        k.push_str(" ORDER BY ");
        for (i, (c, asc)) in stmt.order_by.iter().enumerate() {
            if i > 0 {
                k.push(',');
            }
            let _ = write!(k, "{c} {}", if *asc { "ASC" } else { "DESC" });
        }
    }
    // The LIMIT value is parameterized like restriction constants, but
    // its *presence* is part of the shape: a LIMIT query is planned
    // under the `TimeFirst` objective and must not share an entry with
    // its unlimited twin.
    if stmt.limit.is_some() {
        k.push_str(" LIMIT ?");
    }
    Some(k)
}

// ---------------------------------------------------------------------
// Shared mediator + plan cache
// ---------------------------------------------------------------------

/// Where a served plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Replayed from cached decisions.
    CacheHit,
    /// Fully optimized (and, when extractable, now cached).
    CacheMiss,
    /// Shape the cache does not handle (`UNION` chains).
    Uncacheable,
}

/// Snapshot of the plan cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    /// Hits served by binding constants into a priced template; the
    /// other hits replayed decisions.
    pub bound: u64,
    pub misses: u64,
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// hits / (hits + misses); 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let looked = self.hits + self.misses;
        if looked == 0 {
            0.0
        } else {
            self.hits as f64 / looked as f64
        }
    }
}

/// The answer to one served query.
pub struct ServedQuery {
    pub result: QueryResult,
    pub source: PlanSource,
    /// The cost model's `TotalTime` prediction for the chosen plan —
    /// what the admission controller classified on.
    pub predicted_ms: f64,
}

/// What the plan cache holds for one shape.
#[derive(Clone)]
enum Cached {
    /// The winning plan's decisions, as the miss that optimized it left
    /// them: the first hit turns them into one of the other two.
    Decisions(Arc<PlanDecisions>),
    /// The shape priced once: a hit binds its constants and evaluates.
    Template(Arc<BoundPlan>),
    /// Decisions of a shape whose association or negotiation changes
    /// with the constants (see [`Optimizer::template`]): every hit
    /// replays them.
    Replay(Arc<PlanDecisions>),
}

struct CacheEntry {
    plan: Cached,
    history_epoch: u64,
    catalog_epoch: u64,
    capability_epoch: u64,
    health_version: u64,
}

/// The cache-validity state: `(history, catalog, capability, health)`.
type CacheState = (u64, u64, u64, u64);

/// Shapes the plan cache may hold before it starts over empty, so a
/// workload of ever-new shapes cannot grow it without bound. An evicted
/// shape costs one re-optimization.
const MAX_CACHED_PLANS: usize = 4_096;

/// A [`Mediator`] shared by N concurrent sessions. See the module docs
/// for the shared-state layout and invalidation protocol.
///
/// Lock order (to stay deadlock-free, never acquire in reverse): the
/// mediator `RwLock` first, then any of the internal `Mutex`es. Read
/// acquisitions are never nested — a waiting writer would deadlock a
/// re-entrant reader.
pub struct SharedMediator {
    inner: RwLock<Mediator>,
    plans: Mutex<HashMap<String, CacheEntry>>,
    /// Bumped when §4.3.1 history recording added query-scope rules.
    history_epoch: AtomicU64,
    /// Bumped by [`Self::with_mediator_mut`] (registration, refresh,
    /// registry edits — anything that may change catalog or rules).
    catalog_epoch: AtomicU64,
    hits: AtomicU64,
    bound: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl SharedMediator {
    /// Wrap a fully-registered mediator for concurrent serving.
    pub fn new(mediator: Mediator) -> Self {
        SharedMediator {
            inner: RwLock::new(mediator),
            plans: Mutex::new(HashMap::new()),
            history_epoch: AtomicU64::new(0),
            catalog_epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            bound: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Read access to the wrapped mediator.
    pub fn with_mediator<R>(&self, f: impl FnOnce(&Mediator) -> R) -> R {
        let m = unpoison(self.inner.read());
        f(&m)
    }

    /// Exclusive access to the wrapped mediator for administrative
    /// mutation (register, refresh, registry edits). Always bumps the
    /// catalog epoch, invalidating every cached plan — mutations are
    /// rare and correctness beats precision here. The bump comes before
    /// `f` runs, so a mutation that panics halfway invalidates too, and
    /// the next session plans against whatever `f` left.
    pub fn with_mediator_mut<R>(&self, f: impl FnOnce(&mut Mediator) -> R) -> R {
        let mut m = unpoison(self.inner.write());
        self.catalog_epoch.fetch_add(1, Ordering::Relaxed);
        f(&mut m)
    }

    /// Plan cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            bound: self.bound.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Drop every cached plan (tests; administrative).
    pub fn clear_plan_cache(&self) {
        unpoison(self.plans.lock()).clear();
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if disco_obs::enabled() {
            disco_obs::counter(names::PLAN_CACHE_HITS, &[]).inc();
        }
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if disco_obs::enabled() {
            disco_obs::counter(names::PLAN_CACHE_MISSES, &[]).inc();
        }
    }

    fn note_invalidation(&self, reason: &str) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        if disco_obs::enabled() {
            disco_obs::counter(names::PLAN_CACHE_INVALIDATIONS, &[("reason", reason)]).inc();
        }
    }

    /// Change one wrapper's declared capability profile without the
    /// blanket catalog-epoch bump of [`Self::with_mediator_mut`]: the
    /// capability epoch in the cache key is what invalidates replayed
    /// decisions negotiated against the old profile.
    pub fn set_capability_profile(
        &self,
        wrapper: &str,
        profile: disco_catalog::CapabilityProfile,
    ) -> Result<()> {
        unpoison(self.inner.write()).set_wrapper_capabilities(wrapper, profile.capabilities())
    }

    /// Plan a statement through the cache. Returns the plan and where
    /// it came from.
    pub fn plan(&self, sql: &str) -> Result<(OptimizedPlan, PlanSource)> {
        let (plan, source, _key) = self.plan_keyed(sql)?;
        Ok((plan, source))
    }

    /// [`plan`](Self::plan), also returning the statement's cache key
    /// (`None` when uncacheable) so `query` does not parse twice.
    fn plan_keyed(&self, sql: &str) -> Result<(OptimizedPlan, PlanSource, Option<String>)> {
        let stmt = parse_statement(sql)?;
        let Some(key) = normalized_key(&stmt) else {
            let m = unpoison(self.inner.read());
            return Ok((m.plan(sql)?, PlanSource::Uncacheable, None));
        };
        let mut query = stmt.branches.into_iter().next().expect("one branch");
        query.order_by = stmt.order_by;
        query.limit = stmt.limit;

        let m = unpoison(self.inner.read());
        let state: CacheState = (
            self.history_epoch.load(Ordering::Relaxed),
            self.catalog_epoch.load(Ordering::Relaxed),
            m.catalog().capability_epoch(),
            m.health().version(),
        );
        let cached = {
            let mut plans = unpoison(self.plans.lock());
            match plans.get(&key) {
                Some(e)
                    if (
                        e.history_epoch,
                        e.catalog_epoch,
                        e.capability_epoch,
                        e.health_version,
                    ) == state =>
                {
                    Some(e.plan.clone())
                }
                Some(e) => {
                    let reason = if e.catalog_epoch != state.1 {
                        "catalog"
                    } else if e.history_epoch != state.0 {
                        "history"
                    } else if e.capability_epoch != state.2 {
                        "capability"
                    } else {
                        "health"
                    };
                    plans.remove(&key);
                    self.note_invalidation(reason);
                    None
                }
                None => None,
            }
        };

        // A template hit binds the statement's constants and evaluates:
        // no analysis, no access variants, no join tree, no negotiation.
        if let Some(Cached::Template(template)) = &cached {
            if let Some(plan) = self.bind(&m, template, &query) {
                return Ok((plan, PlanSource::CacheHit, Some(key)));
            }
        }

        // Same objective rule as `Mediator::plan`: a LIMIT ranks plans
        // by `TimeFirst`. The key's ` LIMIT ?` marker keeps the two
        // objectives' entries apart.
        let objective = if query.limit.is_some() {
            Objective::TimeFirst
        } else {
            Objective::TotalTime
        };
        let optimizer = m.optimizer().with_objective(objective);
        let analyzed = analyze(&query, m.catalog())?;
        match cached {
            // The first hit prices the shape once, for every later one,
            // unless its plan or association changes with the constants.
            Some(Cached::Decisions(decisions)) => {
                let upgrade = match optimizer.template(&analyzed, &decisions) {
                    Ok(Some(template)) => Some(Cached::Template(Arc::new(template))),
                    Ok(None) => Some(Cached::Replay(Arc::clone(&decisions))),
                    Err(_) => None,
                };
                if let Some(upgrade) = upgrade {
                    let mut plans = unpoison(self.plans.lock());
                    if let Some(e) = plans.get_mut(&key) {
                        if matches!(&e.plan, Cached::Decisions(d) if Arc::ptr_eq(d, &decisions)) {
                            e.plan = upgrade.clone();
                        }
                    }
                    drop(plans);
                    if let Cached::Template(template) = &upgrade {
                        if let Some(plan) = self.bind(&m, template, &query) {
                            return Ok((plan, PlanSource::CacheHit, Some(key)));
                        }
                    }
                }
                if let Some(plan) = self.replay(&optimizer, &analyzed, &decisions) {
                    return Ok((plan, PlanSource::CacheHit, Some(key)));
                }
            }
            Some(Cached::Replay(decisions)) => {
                if let Some(plan) = self.replay(&optimizer, &analyzed, &decisions) {
                    return Ok((plan, PlanSource::CacheHit, Some(key)));
                }
            }
            Some(Cached::Template(_)) | None => {}
        }

        self.note_miss();
        let plan = optimizer.optimize(&analyzed)?;
        // The optimizer carries the decisions extracted *before* the
        // negotiation pass: a fused plan is not decomposable back into
        // per-table access choices, but replay re-runs negotiation.
        if let Some(decisions) = plan.decisions.clone() {
            let mut plans = unpoison(self.plans.lock());
            if plans.len() >= MAX_CACHED_PLANS {
                *plans = HashMap::new();
            }
            plans.insert(
                key.clone(),
                CacheEntry {
                    plan: Cached::Decisions(Arc::new(decisions)),
                    history_epoch: state.0,
                    catalog_epoch: state.1,
                    capability_epoch: state.2,
                    health_version: state.3,
                },
            );
        }
        Ok((plan, PlanSource::CacheMiss, Some(key)))
    }

    /// The plan of a template hit: `query`'s restriction constants, in
    /// `normalized_key` order, bound into `template`. `None` when binding
    /// fails, and the caller optimizes afresh.
    fn bind(&self, m: &Mediator, template: &BoundPlan, query: &Query) -> Option<OptimizedPlan> {
        let constants: Vec<&Value> = query
            .where_
            .iter()
            .filter_map(|c| match c {
                Condition::Restriction { value, .. } => Some(value),
                Condition::ColCompare { .. } => None,
            })
            .collect();
        let plan = m.optimizer().bind(template, &constants, query.limit).ok()?;
        self.note_hit();
        self.bound.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// A hit replaying `decisions`. `None` when the replay fails (say,
    /// the decisions' wrapper vanished between the epoch bump and here),
    /// and the caller optimizes afresh rather than failing the query.
    fn replay(
        &self,
        optimizer: &Optimizer<'_>,
        analyzed: &AnalyzedQuery,
        decisions: &PlanDecisions,
    ) -> Option<OptimizedPlan> {
        let plan = optimizer.replay(analyzed, decisions).ok()?;
        self.note_hit();
        Some(plan)
    }

    /// Execute an already-planned query under the read lock; when the
    /// mediator records history (§4.3.1), briefly take the write lock
    /// afterwards and bump the history epoch if rules were recorded.
    pub fn execute(&self, optimized: OptimizedPlan) -> Result<ServedQuery> {
        self.execute_with_source(optimized, PlanSource::Uncacheable)
    }

    fn execute_with_source(
        &self,
        optimized: OptimizedPlan,
        source: PlanSource,
    ) -> Result<ServedQuery> {
        self.execute_keyed(optimized, source, None)
    }

    fn execute_keyed(
        &self,
        optimized: OptimizedPlan,
        source: PlanSource,
        key: Option<&str>,
    ) -> Result<ServedQuery> {
        let predicted_ms = optimized.estimated.total_time;
        let (result, wants_history) = {
            let m = unpoison(self.inner.read());
            let result = m.execute_plan_shared(optimized)?;
            let wants =
                m.options().record_history && result.trace.submits.iter().any(|s| s.complete);
            (result, wants)
        };
        // A mid-query re-plan that switched proves the cached decisions
        // for this shape were derived from misestimated cardinalities:
        // evict them so other sessions (and other constants) re-optimize
        // instead of replaying the bad order. The switched plan itself is
        // never cached — it was corrected for *this* query's constants.
        if result.trace.replans.iter().any(|r| r.switched) {
            if let Some(key) = key {
                if unpoison(self.plans.lock()).remove(key).is_some() && disco_obs::enabled() {
                    disco_obs::counter(disco_obs::names::PLAN_CACHE_REPLAN_BYPASS, &[]).inc();
                }
            }
        }
        if wants_history {
            let recorded = unpoison(self.inner.write()).record_trace_history(&result.trace);
            if recorded > 0 {
                self.history_epoch.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(ServedQuery {
            result,
            source,
            predicted_ms,
        })
    }

    /// Full query processing for one session: plan through the cache,
    /// execute concurrently.
    pub fn query(&self, sql: &str) -> Result<ServedQuery> {
        let (optimized, source, key) = self.plan_keyed(sql)?;
        self.execute_keyed(optimized, source, key.as_deref())
    }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// Predicted workload class, from estimated `TotalTime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Predicted-cheap: bypasses the analytical queue into reserved
    /// slots.
    Interactive,
    /// Predicted-expensive: waits in the per-tenant fair queue for one
    /// of the `max_concurrent` slots.
    Analytical,
}

impl QueryClass {
    /// Metric label.
    pub fn label(&self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Analytical => "analytical",
        }
    }
}

/// Tuning knobs for [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Concurrency limit for analytical queries.
    pub max_concurrent: usize,
    /// Extra slots only interactive queries may occupy (the bypass
    /// lane); total in-flight is capped at
    /// `max_concurrent + interactive_reserved`.
    pub interactive_reserved: usize,
    /// Queries with estimated `TotalTime` strictly below this are
    /// interactive.
    pub interactive_threshold_ms: f64,
    /// Per-tenant in-flight cap across both classes; 0 = unlimited.
    pub per_tenant_inflight: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_concurrent: 4,
            interactive_reserved: 4,
            interactive_threshold_ms: 500.0,
            per_tenant_inflight: 0,
        }
    }
}

impl AdmissionPolicy {
    /// Classify a query by the cost model's `TotalTime` prediction.
    pub fn classify(&self, predicted_total_ms: f64) -> QueryClass {
        if predicted_total_ms < self.interactive_threshold_ms {
            QueryClass::Interactive
        } else {
            QueryClass::Analytical
        }
    }
}

#[derive(Default)]
struct AdmState {
    analytical_inflight: usize,
    interactive_inflight: usize,
    /// Interactive queries blocked on the in-flight caps.
    interactive_waiting: usize,
    tenant_inflight: BTreeMap<String, usize>,
    /// FIFO ticket queue per tenant (analytical only).
    queues: BTreeMap<String, VecDeque<u64>>,
    /// The condition variable each queued analytical ticket waits on.
    wakers: BTreeMap<u64, Arc<Condvar>>,
    /// Serve sequence when each tenant last got an analytical slot —
    /// the recency component of the fairness order.
    last_served: BTreeMap<String, u64>,
    next_ticket: u64,
    serve_seq: u64,
}

/// Admission scheduler: blocking [`admit`](AdmissionController::admit)
/// returns an RAII permit whose drop releases the slot.
///
/// A change wakes only a waiter it can admit. Each queued analytical
/// query waits on its own condition variable, and a free analytical slot
/// wakes the one query the fair order picks for it; interactive queries
/// share one, signalled only while one of them waits. Waking every
/// waiter on every release would put the whole analytical queue back on
/// a run queue to find no slot, preempting the interactive queries the
/// bypass lane is there to keep fast.
pub struct AdmissionController {
    policy: AdmissionPolicy,
    state: Mutex<AdmState>,
    interactive_cv: Condvar,
    bypasses: AtomicU64,
}

impl AdmissionController {
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController {
            policy,
            state: Mutex::new(AdmState::default()),
            interactive_cv: Condvar::new(),
            bypasses: AtomicU64::new(0),
        }
    }

    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Interactive admissions that jumped a non-empty analytical queue.
    pub fn bypasses(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
    }

    fn tenant_ok(&self, st: &AdmState, tenant: &str) -> bool {
        self.policy.per_tenant_inflight == 0
            || st.tenant_inflight.get(tenant).copied().unwrap_or(0)
                < self.policy.per_tenant_inflight
    }

    /// Deficit round-robin: among tenants with a queued analytical
    /// query and headroom under their cap, the one with the fewest
    /// in-flight queries runs next; least-recently-served breaks ties,
    /// then name (deterministic).
    fn chosen_tenant<'s>(&self, st: &'s AdmState) -> Option<&'s str> {
        st.queues
            .iter()
            .filter(|(t, q)| !q.is_empty() && self.tenant_ok(st, t))
            .min_by_key(|(t, _)| {
                (
                    st.tenant_inflight.get(*t).copied().unwrap_or(0),
                    st.last_served.get(*t).copied().unwrap_or(0),
                    t.as_str(),
                )
            })
            .map(|(t, _)| t.as_str())
    }

    /// Wake the analytical query that runs next, if a slot is free for
    /// it. Called after every change that can let one run, and by a woken
    /// waiter that may not, so the wake-up reaches the one that may.
    fn wake_next_analytical(&self, st: &AdmState) {
        if st.analytical_inflight >= self.policy.max_concurrent {
            return;
        }
        let next = self
            .chosen_tenant(st)
            .and_then(|t| st.queues.get(t))
            .and_then(|q| q.front())
            .and_then(|ticket| st.wakers.get(ticket));
        if let Some(waker) = next {
            waker.notify_one();
        }
    }

    /// Block until `tenant` may run a `class` query; the returned
    /// permit holds the slot until dropped.
    pub fn admit(&self, tenant: &str, class: QueryClass) -> AdmissionPermit<'_> {
        let start = Instant::now();
        let mut st = unpoison(self.state.lock());
        match class {
            QueryClass::Interactive => {
                loop {
                    let total = st.analytical_inflight + st.interactive_inflight;
                    if total < self.policy.max_concurrent + self.policy.interactive_reserved
                        && self.tenant_ok(&st, tenant)
                    {
                        break;
                    }
                    st.interactive_waiting += 1;
                    st = unpoison(self.interactive_cv.wait(st));
                    st.interactive_waiting -= 1;
                }
                if st.queues.values().any(|q| !q.is_empty()) {
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    if disco_obs::enabled() {
                        disco_obs::counter(names::ADMISSION_BYPASS, &[]).inc();
                    }
                }
                st.interactive_inflight += 1;
            }
            QueryClass::Analytical => {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                st.queues
                    .entry(tenant.to_string())
                    .or_default()
                    .push_back(ticket);
                let waker = Arc::new(Condvar::new());
                st.wakers.insert(ticket, Arc::clone(&waker));
                loop {
                    if st.analytical_inflight < self.policy.max_concurrent
                        && st.queues.get(tenant).and_then(|q| q.front()) == Some(&ticket)
                        && self.chosen_tenant(&st) == Some(tenant)
                    {
                        break;
                    }
                    self.wake_next_analytical(&st);
                    st = unpoison(waker.wait(st));
                }
                st.wakers.remove(&ticket);
                st.queues.get_mut(tenant).expect("queued").pop_front();
                st.analytical_inflight += 1;
                let seq = st.serve_seq;
                st.serve_seq += 1;
                st.last_served.insert(tenant.to_string(), seq);
            }
        }
        *st.tenant_inflight.entry(tenant.to_string()).or_default() += 1;
        // Another tenant's front may have become the chosen one.
        self.wake_next_analytical(&st);
        drop(st);
        let waited_ms = start.elapsed().as_secs_f64() * 1000.0;
        if disco_obs::enabled() {
            let labels = [("class", class.label())];
            disco_obs::counter(names::ADMISSION_ADMITTED, &labels).inc();
            disco_obs::histogram(names::ADMISSION_WAIT_MS, &labels).observe(waited_ms);
        }
        AdmissionPermit {
            controller: self,
            tenant: tenant.to_string(),
            class,
            waited_ms,
        }
    }

    fn release(&self, tenant: &str, class: QueryClass) {
        let mut st = unpoison(self.state.lock());
        match class {
            QueryClass::Interactive => st.interactive_inflight -= 1,
            QueryClass::Analytical => st.analytical_inflight -= 1,
        }
        if let Some(n) = st.tenant_inflight.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                st.tenant_inflight.remove(tenant);
            }
        }
        self.wake_next_analytical(&st);
        let wake_interactive = st.interactive_waiting > 0;
        drop(st);
        if wake_interactive {
            self.interactive_cv.notify_all();
        }
    }
}

/// RAII admission slot; dropping it releases the slot and wakes
/// waiters.
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
    tenant: String,
    class: QueryClass,
    waited_ms: f64,
}

impl AdmissionPermit<'_> {
    /// How long this query queued before admission.
    pub fn waited_ms(&self) -> f64 {
        self.waited_ms
    }

    pub fn class(&self) -> QueryClass {
        self.class
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.controller.release(&self.tenant, self.class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::MediatorOptions;
    use disco_common::{AttributeDef, DataType, Schema};
    use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
    use disco_wrapper::SourceWrapper;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn store() -> PagedStore {
        let emp = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("name", DataType::Str),
            AttributeDef::new("dept_id", DataType::Long),
        ]);
        let dept = Schema::new(vec![
            AttributeDef::new("dept_id", DataType::Long),
            AttributeDef::new("budget", DataType::Long),
        ]);
        let mut s = PagedStore::new("hr", CostProfile::object_store());
        s.add_collection(
            "Employee",
            CollectionBuilder::new(emp)
                .rows((0..300i64).map(|i| {
                    vec![
                        Value::Long(i),
                        Value::Str(format!("e{i:03}")),
                        Value::Long(i % 10),
                    ]
                }))
                .object_size(48)
                .index("id"),
        )
        .unwrap();
        s.add_collection(
            "Dept",
            CollectionBuilder::new(dept)
                .rows((0..10i64).map(|i| vec![Value::Long(i), Value::Long(i * 100)]))
                .object_size(24)
                .index("dept_id"),
        )
        .unwrap();
        s
    }

    fn shared(record_history: bool) -> SharedMediator {
        let mut m = Mediator::new().with_options(MediatorOptions {
            record_history,
            ..Default::default()
        });
        m.register(Box::new(SourceWrapper::new("hr", store())))
            .unwrap();
        SharedMediator::new(m)
    }

    #[test]
    fn distinct_constants_share_one_key() {
        let a = parse_statement("SELECT name FROM Employee WHERE id < 10").unwrap();
        let b = parse_statement("SELECT name FROM Employee WHERE id < 250").unwrap();
        assert_eq!(normalized_key(&a), normalized_key(&b));
        // A different constant *type* or shape separates keys.
        let c = parse_statement("SELECT name FROM Employee WHERE id < 10.5").unwrap();
        assert_ne!(normalized_key(&a), normalized_key(&c));
        let d = parse_statement("SELECT name FROM Employee WHERE id > 10").unwrap();
        assert_ne!(normalized_key(&a), normalized_key(&d));
        let e = parse_statement(
            "SELECT name FROM Employee WHERE id < 10 UNION SELECT name FROM Employee",
        )
        .unwrap();
        assert_eq!(normalized_key(&e), None);
    }

    #[test]
    fn cache_hits_replay_with_new_constants() {
        let sm = shared(false);
        let (_, s1) = sm.plan("SELECT name FROM Employee WHERE id < 10").unwrap();
        assert_eq!(s1, PlanSource::CacheMiss);
        let (p2, s2) = sm.plan("SELECT name FROM Employee WHERE id < 42").unwrap();
        assert_eq!(s2, PlanSource::CacheHit);
        // The replayed plan carries the new constant.
        assert!(format!("{:?}", p2.physical).contains("42"));
        assert_eq!(sm.cache_stats().hits, 1);
        assert_eq!(sm.cache_stats().misses, 1);
    }

    #[test]
    fn caches_stay_bounded_across_many_shapes() {
        let sm = shared(false);
        for i in 0..5_000 {
            // A fresh alias is a fresh shape: plan-cache miss.
            let sql = format!("SELECT name AS c{i} FROM Employee WHERE id < {i}");
            assert_eq!(sm.plan(&sql).unwrap().1, PlanSource::CacheMiss);
        }
        assert!(sm.plans.lock().unwrap().len() <= MAX_CACHED_PLANS);

        // Bounded, not disabled: a recent shape replays from the cache.
        let recent = "SELECT name AS c4999 FROM Employee WHERE id < 4999";
        assert_eq!(sm.plan(recent).unwrap().1, PlanSource::CacheHit);
    }

    #[test]
    fn history_recording_invalidates() {
        let sm = shared(true);
        let sql = "SELECT name FROM Employee WHERE id < 10";
        let served = sm.query(sql).unwrap();
        assert_eq!(served.source, PlanSource::CacheMiss);
        // Execution recorded query-scope rules, bumping the history
        // epoch: the entry written at epoch 0 is now stale.
        assert!(sm.with_mediator(|m| m.history_recorded()) > 0);
        let (_, s2) = sm.plan(sql).unwrap();
        assert_eq!(s2, PlanSource::CacheMiss);
        assert_eq!(sm.cache_stats().invalidations, 1);
    }

    #[test]
    fn health_shift_invalidates() {
        let sm = shared(false);
        let sql = "SELECT name FROM Employee WHERE id < 10";
        sm.plan(sql).unwrap();
        let (_, s) = sm.plan(sql).unwrap();
        assert_eq!(s, PlanSource::CacheHit);
        sm.with_mediator(|m| {
            for _ in 0..4 {
                m.health().record_failure("hr");
            }
        });
        let (_, s) = sm.plan(sql).unwrap();
        assert_eq!(s, PlanSource::CacheMiss);
        assert_eq!(sm.cache_stats().invalidations, 1);
    }

    #[test]
    fn admin_mutation_invalidates() {
        let sm = shared(false);
        let sql = "SELECT name FROM Employee WHERE id < 10";
        sm.plan(sql).unwrap();
        sm.with_mediator_mut(|_| ());
        let (_, s) = sm.plan(sql).unwrap();
        assert_eq!(s, PlanSource::CacheMiss);
    }

    #[test]
    fn a_panicking_admin_closure_leaves_the_next_tenant_served() {
        let sm = shared(false);
        let sql = "SELECT name FROM Employee WHERE id < 3";
        let want = sm.query(sql).unwrap().result.tuples;
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sm.with_mediator_mut(|_| panic!("administrative bug"))
        }));
        assert!(crashed.is_err());
        // The write lock was poisoned mid-mutation; the next session still
        // plans afresh (the epoch moved) and answers correctly.
        let served = sm.query(sql).unwrap();
        assert_eq!(served.source, PlanSource::CacheMiss);
        assert_eq!(served.result.tuples, want);
        assert_eq!(sm.cache_stats().invalidations, 1);
    }

    #[test]
    fn capability_profile_change_invalidates() {
        let sm = shared(false);
        let sql = "SELECT name FROM Employee WHERE id < 10";
        sm.plan(sql).unwrap();
        let (_, s) = sm.plan(sql).unwrap();
        assert_eq!(s, PlanSource::CacheHit);
        // Demote the wrapper to scan-only: decisions that pushed the
        // selection are no longer legal and must not replay.
        sm.set_capability_profile("hr", disco_catalog::CapabilityProfile::ScanOnly)
            .unwrap();
        let (plan, s) = sm.plan(sql).unwrap();
        assert_eq!(s, PlanSource::CacheMiss);
        assert_eq!(sm.cache_stats().invalidations, 1);
        // The re-optimized plan lifts the selection to the mediator.
        let filters = count_filters(&plan.physical);
        assert_eq!(filters, 1);
        // A profile set to its current value is not a change.
        sm.plan(sql).unwrap();
        sm.set_capability_profile("hr", disco_catalog::CapabilityProfile::ScanOnly)
            .unwrap();
        let (_, s) = sm.plan(sql).unwrap();
        assert_eq!(s, PlanSource::CacheHit);
    }

    fn count_filters(p: &disco_algebra::PhysicalPlan) -> usize {
        matches!(p, disco_algebra::PhysicalPlan::Filter { .. }) as usize
            + p.children().iter().map(|c| count_filters(c)).sum::<usize>()
    }

    #[test]
    fn concurrent_sessions_share_the_cache() {
        let sm = Arc::new(shared(false));
        sm.plan("SELECT name FROM Employee WHERE id < 1").unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let sm = sm.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..5 {
                    let sql = format!("SELECT name FROM Employee WHERE id < {}", i * 10 + j + 2);
                    let served = sm.query(&sql).unwrap();
                    assert_eq!(served.source, PlanSource::CacheHit);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sm.cache_stats().hits, 20);
    }

    #[test]
    fn interactive_bypasses_saturated_analytical_lane() {
        let ctl = Arc::new(AdmissionController::new(AdmissionPolicy {
            max_concurrent: 1,
            interactive_reserved: 1,
            ..Default::default()
        }));
        let held = ctl.admit("t1", QueryClass::Analytical);
        // A second analytical query blocks...
        let (tx, rx) = mpsc::channel();
        let c2 = ctl.clone();
        let waiter = std::thread::spawn(move || {
            let p = c2.admit("t2", QueryClass::Analytical);
            tx.send(()).unwrap();
            drop(p);
        });
        assert!(rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        // ...but an interactive one gets a reserved slot immediately,
        // and counts as a bypass because the analytical queue is
        // non-empty.
        let quick = ctl.admit("t3", QueryClass::Interactive);
        assert_eq!(ctl.bypasses(), 1);
        drop(quick);
        // Releasing the analytical slot admits the waiter.
        drop(held);
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("queued analytical query was never admitted");
        waiter.join().unwrap();
    }

    #[test]
    fn fair_queue_prefers_tenant_with_fewer_inflight() {
        let ctl = AdmissionController::new(AdmissionPolicy {
            max_concurrent: 2,
            ..Default::default()
        });
        let st = ctl.state.lock().unwrap();
        drop(st);
        let _a = ctl.admit("busy", QueryClass::Analytical);
        // busy has 1 in flight; with one slot left and both tenants
        // queued, `idle` must be chosen.
        {
            let mut st = ctl.state.lock().unwrap();
            st.queues.entry("busy".into()).or_default().push_back(100);
            st.queues.entry("idle".into()).or_default().push_back(101);
            assert_eq!(ctl.chosen_tenant(&st), Some("idle"));
            st.queues.clear();
        }
    }

    #[test]
    fn per_tenant_cap_blocks_and_releases() {
        let ctl = Arc::new(AdmissionController::new(AdmissionPolicy {
            max_concurrent: 8,
            per_tenant_inflight: 1,
            ..Default::default()
        }));
        let first = ctl.admit("t", QueryClass::Analytical);
        let (tx, rx) = mpsc::channel();
        let c2 = ctl.clone();
        let waiter = std::thread::spawn(move || {
            let _p = c2.admit("t", QueryClass::Analytical);
            tx.send(()).unwrap();
        });
        assert!(rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        drop(first);
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("capped tenant never admitted after release");
        waiter.join().unwrap();
    }

    /// Every wake-up goes to one chosen waiter, so a lost one would leave
    /// a query queued behind free slots: a mixed crowd with per-tenant
    /// caps must drain, and never exceed a cap on the way.
    #[test]
    fn targeted_wake_ups_drain_every_queue_within_the_caps() {
        use std::sync::atomic::AtomicUsize;
        let policy = AdmissionPolicy {
            max_concurrent: 2,
            interactive_reserved: 2,
            per_tenant_inflight: 2,
            ..Default::default()
        };
        let ctl = Arc::new(AdmissionController::new(policy.clone()));
        let analytical = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let clients = 16;
        for c in 0..clients {
            let (ctl, analytical, total, tx) = (
                Arc::clone(&ctl),
                Arc::clone(&analytical),
                Arc::clone(&total),
                tx.clone(),
            );
            let policy = policy.clone();
            std::thread::spawn(move || {
                let tenant = format!("t{}", c % 4);
                let class = if c % 4 == 3 {
                    QueryClass::Interactive
                } else {
                    QueryClass::Analytical
                };
                for _ in 0..50 {
                    let _permit = ctl.admit(&tenant, class);
                    let all = total.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(all <= policy.max_concurrent + policy.interactive_reserved);
                    if class == QueryClass::Analytical {
                        let n = analytical.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(n <= policy.max_concurrent);
                        std::thread::yield_now();
                        analytical.fetch_sub(1, Ordering::SeqCst);
                    }
                    total.fetch_sub(1, Ordering::SeqCst);
                }
                tx.send(()).unwrap();
            });
        }
        for _ in 0..clients {
            rx.recv_timeout(std::time::Duration::from_secs(30)).expect(
                "a client never finished: a queued query was never woken, or a cap was exceeded",
            );
        }
        let st = ctl.state.lock().unwrap();
        assert!(st.wakers.is_empty() && st.queues.values().all(|q| q.is_empty()));
    }

    #[test]
    fn classification_uses_threshold() {
        let p = AdmissionPolicy::default();
        assert_eq!(p.classify(10.0), QueryClass::Interactive);
        assert_eq!(p.classify(10_000.0), QueryClass::Analytical);
    }
}
