//! Plan execution (steps 4–6 of Figure 2).
//!
//! There is one executor. It *opens* every `SubmitRemote` site of the
//! physical plan and then pulls the answer through a tree of pull-based
//! combine operators ([`disco_sources::vstream`]) metered on a
//! mediator-side virtual clock. Over a transport the open is a
//! scatter-gather on the calling thread (Figure 2 shows steps 4a/4b
//! issued side by side): one pass puts every site's request on the
//! wire, a second pass collects the replies in site order, so the
//! fetch waits for the slowest site rather than for their sum.
//!
//! How much of a subanswer an open waits for is the one setting,
//! `chunk_rows`:
//!
//! * `None` (the default): every site ships its answer as **one chunk**
//!   and is drained to its end-of-stream stats before the combine tree
//!   is pulled — the classic fetch-then-combine schedule, with the
//!   fetch's wall-clock time measured
//!   ([`ExecutionTrace::submit_wall_ms`]);
//! * `Some(n)`: sites stream chunks of at most `n` rows which flow
//!   straight through the operators, so the first rows of the answer
//!   materialize before the slowest wrapper finishes (the runtime
//!   counterpart of the cost model's `TimeFirst`) and a `LIMIT` stops
//!   pulling early.
//!
//! Answers, partial-answer sets and virtual-clock charges (per-tuple
//! formulas over operator cardinalities, summed per chunk) do not
//! depend on the chunk size. The pipeline is columnar end-to-end: over a
//! transport the reply frames decode straight into column vectors, and
//! rows materialize exactly once, at the final answer boundary in
//! [`Executor::execute`].
//!
//! Wrappers are reached either in-process (the seed's trait-object table)
//! or through a [`TransportClient`] — the byte-level RPC boundary with
//! per-endpoint network simulation, deadlines, retries and circuit
//! breaking. Over a transport, a subquery that keeps failing transiently
//! (timeouts, unavailability) can be tolerated instead of fatal: with
//! partial answers enabled the submit contributes an empty subanswer and
//! the affected collections are reported in
//! [`ExecutionTrace::missing`] — a degraded result, not an error.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use disco_algebra::{LogicalPlan, PhysicalJoinAlgo, PhysicalPlan};
use disco_common::{Batch, DiscoError, QualifiedName, Result, Schema, Tuple};
use disco_core::{MeasuredNode, NodeCost, RuleRegistry};
use disco_sources::vstream::{self, BatchStream};
use disco_sources::{ExecStats, SubAnswer, VirtualClock};
use disco_transport::{
    HedgeTarget, PendingStream, ResiliencePolicy, SubmitOptions, SubmitStream, TransportClient,
};
use disco_wrapper::Wrapper;

use crate::adaptive::{ReplanEvent, Replanner, SiteObservation};

/// Record of one submitted subquery.
#[derive(Debug, Clone)]
pub struct SubmitTrace {
    pub wrapper: String,
    pub plan: LogicalPlan,
    pub stats: ExecStats,
    pub tuples: usize,
    /// Size of the shipped subanswer in bytes.
    pub bytes: u64,
    /// Communication time charged for this subanswer (ms, simulated).
    pub comm_ms: f64,
    /// Measured wall-clock time of the submit (ms), from its request
    /// being sent to its answer being received — the whole answer in
    /// whole-answer mode, the chunks pulled so far in chunked mode.
    /// Retries are included, and so is any time the reply spent queued
    /// behind earlier sites: every request goes out before the first
    /// reply is collected, and replies are collected in site order.
    pub wall_ms: f64,
    /// Transport attempts spent (1 = first try; 0 = never answered).
    pub attempts: u32,
    /// The submit exhausted its retry budget and was substituted with an
    /// empty subanswer (partial-answer mode).
    pub failed: bool,
    /// Replica that actually answered (equals `wrapper` unless a hedge
    /// or failover won the race; empty when the submit failed).
    pub served_by: String,
    /// Straggler-triggered hedges this submit launched.
    pub hedges: u32,
    /// Measured time-to-first-row (ms, simulated): the wrapper's
    /// `TimeFirst` plus the communication time of whatever carried the
    /// first row — the whole reply in whole-answer mode, the first stream
    /// frame in chunked mode. `0` when the submit failed or its stream
    /// was abandoned before its end-of-stream stats arrived.
    pub first_ms: f64,
    /// The subanswer was delivered in full: the wrapper answered and its
    /// stream (if any) ran to end-of-stream, so [`tuples`](Self::tuples)
    /// is the subquery's true cardinality and [`stats`](Self::stats) are
    /// the wrapper's final numbers. `false` for failed submits *and* for
    /// streams truncated early (LIMIT satisfied, budget expired) — whose
    /// partial counts must not teach the §4.3 history.
    pub complete: bool,
}

/// The cost model's prediction for one submit site, aligned with the
/// plan's submit order. Drives predicted deadlines (`TotalTime`) and
/// straggler thresholds (`TimeFirst`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SitePrediction {
    /// Predicted `TotalTime` for the subplan, simulated ms.
    pub total_ms: f64,
    /// Predicted `TimeFirst` for the subplan, simulated ms.
    pub first_ms: f64,
    /// Predicted subanswer cardinality (`count_object`) — the number the
    /// adaptive re-optimizer compares against measured cardinalities.
    pub rows: f64,
}

impl SitePrediction {
    /// The prediction a submit's estimate makes.
    pub fn of(cost: &NodeCost) -> Self {
        SitePrediction {
            total_ms: cost.total_time,
            first_ms: cost.time_first,
            rows: cost.count_object,
        }
    }
}

/// Accounting for one query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    pub submits: Vec<SubmitTrace>,
    /// Mediator-side CPU time (ms, simulated).
    pub mediator_ms: f64,
    /// Communication time (ms, simulated).
    pub communication_ms: f64,
    /// Sum of wrapper-reported elapsed times (ms, simulated).
    pub wrapper_ms: f64,
    /// Measured wall-clock fetch time (ms): from the start of execution
    /// until every site is opened — which in whole-answer mode means
    /// drained, and in chunked mode means its first chunk has arrived.
    /// Combine work is never part of it.
    pub submit_wall_ms: f64,
    /// More than one site was fetched over a transport, so their round
    /// trips overlapped and [`submit_wall_ms`](Self::submit_wall_ms)
    /// reflects real concurrency.
    pub concurrent: bool,
    /// Collections whose wrapper stayed down past the retry budget; their
    /// tuples are absent from the result (partial answer). Sorted and
    /// deduplicated, so degraded output is deterministic.
    pub missing: Vec<QualifiedName>,
    /// Per-node measurements of the executed plan (rows produced and
    /// cumulative simulated time), mirroring the plan tree — the measured
    /// half of EXPLAIN ANALYZE.
    pub measured: Option<MeasuredNode>,
    /// Straggler-triggered hedges launched across all submits.
    pub hedges: u32,
    /// The query-level time budget ran out before every subanswer had
    /// arrived: a site reached with no budget left was never sent, and
    /// one whose first attempt was cut short by the budget (the cap on
    /// its deadline) rather than by its own deadline was given up on.
    /// Both appear in [`missing`](Self::missing).
    /// In chunked mode a budget that expires mid-stream truncates the
    /// affected streams instead: the rows already delivered stay in the
    /// answer and the submit trace records them.
    pub budget_exhausted: bool,
    /// Wall-clock ms until the first non-empty root chunk was produced
    /// (`None` for an empty answer). In whole-answer mode the first row
    /// is only available once every site has been drained.
    pub first_row_wall_ms: Option<f64>,
    /// Mid-query re-optimization decisions, in the order they were
    /// considered: one entry per time measured cardinalities crossed the
    /// adaptive error threshold (whether or not the plan switched).
    pub replans: Vec<ReplanEvent>,
    /// The combine plan the answer was actually produced with, when a
    /// re-plan abandoned the optimizer's order mid-query. `None` when the
    /// original plan ran to completion.
    pub final_plan: Option<PhysicalPlan>,
}

impl ExecutionTrace {
    /// End-to-end time with sequential subquery submission: all wrapper
    /// and communication time accumulates (simulated).
    pub fn sequential_ms(&self) -> f64 {
        self.wrapper_ms + self.communication_ms + self.mediator_ms
    }

    /// The *analytic* parallel-submission estimate the seed used: the
    /// slowest subquery dominates (simulated).
    pub fn predicted_parallel_ms(&self) -> f64 {
        let slowest = self
            .submits
            .iter()
            .map(|s| s.stats.elapsed_ms + s.comm_ms)
            .fold(0.0, f64::max);
        slowest + self.mediator_ms
    }

    /// End-to-end time with parallel submission. When submits really ran
    /// concurrently over a transport this is *measured*: the fetch's
    /// wall clock plus mediator CPU. Otherwise it falls back to the
    /// analytic [`predicted_parallel_ms`](Self::predicted_parallel_ms).
    pub fn parallel_ms(&self) -> f64 {
        if self.concurrent {
            self.submit_wall_ms + self.mediator_ms
        } else {
            self.predicted_parallel_ms()
        }
    }

    /// `true` when every wrapper answered (no degraded collections).
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// A completed query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub tuples: Vec<Tuple>,
    /// End-to-end simulated time (ms):
    /// [`ExecutionTrace::sequential_ms`], the virtual-clock counterpart
    /// of the estimator's `TotalTime` (which sums its children), so
    /// predicted and measured compare like with like.
    pub measured_ms: f64,
    /// The optimizer's estimate for the executed plan.
    pub estimated: NodeCost,
    pub trace: ExecutionTrace,
}

impl QueryResult {
    /// `true` when some wrapper stayed down and the result is a partial
    /// answer (see [`ExecutionTrace::missing`]).
    pub fn is_partial(&self) -> bool {
        !self.trace.missing.is_empty()
    }
}

/// How the executor reaches wrappers.
enum Backend<'a> {
    /// In-process trait objects (the seed path; no real network).
    Local(&'a BTreeMap<String, Box<dyn Wrapper>>),
    /// Byte-level RPC through a transport client.
    Remote(&'a TransportClient),
}

/// One `SubmitRemote` site, in combine-phase order. (The expected schema
/// stays on the plan node; the combine phase checks it there.)
#[derive(Clone, Copy)]
struct SubmitSite<'p> {
    wrapper: &'p str,
    plan: &'p LogicalPlan,
}

/// Executes physical plans against registered wrappers.
pub struct Executor<'a> {
    backend: Backend<'a>,
    registry: &'a RuleRegistry,
    partial_answers: bool,
    resilience: Option<ResiliencePolicy>,
    /// Cost predictions per submit site, in submit (collect) order.
    predictions: Vec<Option<SitePrediction>>,
    /// Fallback replica wrappers per primary wrapper, in failover order.
    replicas: BTreeMap<String, Vec<String>>,
    /// Mid-query re-optimizer; `None` runs every plan to completion.
    adaptive: Option<Replanner<'a>>,
}

impl<'a> Executor<'a> {
    /// Build an executor over the in-process wrapper table and registry
    /// (for the mediator-side cost constants).
    pub fn new(
        wrappers: &'a BTreeMap<String, Box<dyn Wrapper>>,
        registry: &'a RuleRegistry,
    ) -> Self {
        Executor {
            backend: Backend::Local(wrappers),
            registry,
            partial_answers: false,
            resilience: None,
            predictions: Vec::new(),
            replicas: BTreeMap::new(),
            adaptive: None,
        }
    }

    /// Build an executor that submits through a transport client.
    pub fn remote(client: &'a TransportClient, registry: &'a RuleRegistry) -> Self {
        Executor {
            backend: Backend::Remote(client),
            registry,
            partial_answers: false,
            resilience: None,
            predictions: Vec::new(),
            replicas: BTreeMap::new(),
            adaptive: None,
        }
    }

    /// Tolerate wrappers that stay down past the retry budget by
    /// substituting empty subanswers and reporting the affected
    /// collections (builder style).
    pub fn with_partial_answers(mut self, partial: bool) -> Self {
        self.partial_answers = partial;
        self
    }

    /// Derive deadlines, budgets and hedging from the cost model
    /// (builder style). Only affects the transport backend.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = Some(policy);
        self
    }

    /// Attach the optimizer's per-site cost predictions, aligned with
    /// the plan's submit order (builder style). Sites without a
    /// prediction fall back to flat deadlines.
    pub fn with_predictions(mut self, predictions: Vec<Option<SitePrediction>>) -> Self {
        self.predictions = predictions;
        self
    }

    /// Attach failover replica lists: for each wrapper, the peers (in
    /// preference order) that serve the same collections and can absorb
    /// a hedge or failover (builder style).
    pub fn with_replicas(mut self, replicas: BTreeMap<String, Vec<String>>) -> Self {
        self.replicas = replicas;
        self
    }

    /// Attach a mid-query re-optimizer (builder style). As subanswer
    /// cardinalities become known, they are compared against the attached
    /// [`SitePrediction`]s; a large enough error re-enumerates the
    /// combine plan and may abandon the running order.
    pub fn with_adaptive(mut self, replanner: Option<Replanner<'a>>) -> Self {
        self.adaptive = replanner;
        self
    }

    fn param(&self, name: &str, default: f64) -> f64 {
        self.registry.params().get_f64(name).unwrap_or(default)
    }

    /// Execute a plan, returning schema, tuples and the trace.
    ///
    /// `chunk_rows` is the one execution setting. `None` is whole-answer
    /// mode: every site ships its subanswer as a single chunk and is
    /// drained to its end-of-stream stats before the combine tree is
    /// pulled, so every submit is fully measured and `limit` is applied
    /// to the finished answer. `Some(n)` is chunked (pipelined) mode:
    /// sites stream chunks of at most `n` rows through the operators,
    /// `limit` stops pulling once satisfied — the early-stop that rewards
    /// `TimeFirst`-optimal plans, abandoning the streams it no longer
    /// needs — and a query budget that expires mid-stream truncates the
    /// affected streams, keeping the rows already delivered (see
    /// [`ExecutionTrace::budget_exhausted`]).
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        chunk_rows: Option<u32>,
        limit: Option<u64>,
    ) -> Result<(Schema, Vec<Tuple>, ExecutionTrace)> {
        let mut trace = ExecutionTrace::default();
        let mut sites = Vec::new();
        collect_submits(plan, &mut sites);
        let started = Instant::now();
        let budget_deadline = self
            .resilience
            .as_ref()
            .and_then(|p| p.query_budget_ms)
            .filter(|ms| ms.is_finite() && *ms >= 0.0)
            .map(|ms| started + Duration::from_micros((ms * 1e3) as u64));
        let opened = self.open_all(&sites, budget_deadline, chunk_rows);
        trace.submit_wall_ms = started.elapsed().as_secs_f64() * 1e3;
        // In-process wrappers have no network to overlap: their
        // "measured" communication would be zero.
        trace.concurrent = sites.len() > 1 && matches!(self.backend, Backend::Remote(_));

        // Arm the adaptive trip-wire: site streams buffer their chunks
        // and abort the combine when measurements contradict predictions.
        let trigger = self.adaptive.as_ref().and_then(|r| {
            let policy = r.policy();
            (policy.enabled && policy.max_replans >= 1).then(|| {
                Rc::new(StreamTrigger {
                    policy: policy.clone(),
                    fired: Cell::new(false),
                })
            })
        });
        let ctx = StreamCtx {
            clock: Rc::new(RefCell::new(VirtualClock::new())),
            site_states: RefCell::new(Vec::new()),
            site_modes: RefCell::new(Vec::new()),
            site_schemas: RefCell::new(Vec::new()),
            trigger,
            replay: false,
            budget_deadline,
            chunk_rows: chunk_rows.map_or(usize::MAX, |n| n.max(1) as usize),
            cpu_pred: self.param("CpuPred", 0.05),
            cpu_hash: self.param("CpuHash", 0.02),
            sort_factor: self.param("SortFactor", 0.02),
        };
        let mut opened = opened.into_iter();
        let (root, mut tally) = self.build_stream_node(plan, &mut opened, &ctx)?;
        // Only a chunked tree stops early: with whole answers there is
        // nothing left to save by the time the first row surfaces, and a
        // site abandoned before its end-of-stream frame would go
        // unmeasured.
        let early_stop = limit.filter(|_| chunk_rows.is_some());
        let limited = |root: Box<dyn BatchStream>| -> Box<dyn BatchStream> {
            match early_stop {
                Some(n) => Box::new(vstream::LimitStream::new(root, n)),
                None => root,
            }
        };
        let mut root = limited(root);
        let schema = root.schema().clone();
        let mut chunks: Vec<Batch> = Vec::new();
        // After a re-plan the per-submit accounting comes from the
        // re-driven tree's states, aligned with the new plan's submit
        // order; `None` means the original plan ran to completion.
        let mut assembly: Option<Vec<SiteAssembly>> = None;
        loop {
            match root.next_batch() {
                Ok(Some(b)) => {
                    if trace.first_row_wall_ms.is_none() && !b.is_empty() {
                        trace.first_row_wall_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                    }
                    chunks.push(b);
                }
                Ok(None) => break,
                Err(DiscoError::Replan(_)) => {
                    // Abandon the in-flight combine: drop the operator
                    // tree (discarding its intermediate results) but keep
                    // the shared site handles, then finish draining every
                    // subanswer — the re-drive consumes what was already
                    // shipped; no wrapper is re-fetched.
                    drop(root);
                    let modes: Vec<_> = ctx.site_modes.borrow().clone();
                    let states: Vec<_> = ctx.site_states.borrow().clone();
                    for (mode, state) in modes.iter().zip(&states) {
                        drain_site(mode, state, budget_deadline, self.partial_answers)?;
                    }
                    let schemas: Vec<Schema> = ctx.site_schemas.borrow().clone();
                    let observations: Vec<SiteObservation> = sites
                        .iter()
                        .zip(&states)
                        .map(|(site, st)| {
                            let st = st.borrow();
                            SiteObservation {
                                wrapper: site.wrapper.to_string(),
                                plan: site.plan.clone(),
                                predicted_rows: st.predicted_rows,
                                observed_rows: st.tuples as f64,
                                observed_bytes: st.bytes as f64,
                                failed: st.failed,
                            }
                        })
                        .collect();
                    let replanner = self.adaptive.as_ref().ok_or_else(|| {
                        DiscoError::Exec("replan raised without a replanner".into())
                    })?;
                    let mut drive: Option<PhysicalPlan> = None;
                    if let Some(outcome) = replanner.consider(plan, &observations) {
                        if let Some(new_plan) = outcome.new_plan {
                            trace.final_plan = Some(new_plan.clone());
                            drive = Some(new_plan);
                        }
                        trace.replans.push(outcome.event);
                    }
                    let drive = drive.unwrap_or_else(|| plan.clone());

                    // Re-drive the combine from the materialized
                    // subanswers on the same virtual clock — the
                    // abandoned combine's charges stay in `mediator_ms`;
                    // abandonment is not free. Fresh states, no trigger:
                    // one re-plan per execution.
                    let mut pool = ReplayPool::new(&sites, &states, &schemas)?;
                    let ctx2 = StreamCtx {
                        clock: Rc::clone(&ctx.clock),
                        site_states: RefCell::new(Vec::new()),
                        site_modes: RefCell::new(Vec::new()),
                        site_schemas: RefCell::new(Vec::new()),
                        trigger: None,
                        replay: true,
                        budget_deadline: None,
                        chunk_rows: ctx.chunk_rows,
                        cpu_pred: ctx.cpu_pred,
                        cpu_hash: ctx.cpu_hash,
                        sort_factor: ctx.sort_factor,
                    };
                    let mut new_sites = Vec::new();
                    collect_submits(&drive, &mut new_sites);
                    let mut reopened = Vec::with_capacity(new_sites.len());
                    let mut snaps = Vec::with_capacity(new_sites.len());
                    for site in &new_sites {
                        let (opened_site, snap) = pool.take(site.wrapper, site.plan)?;
                        reopened.push(opened_site);
                        snaps.push(snap);
                    }
                    let (r2, t2) =
                        self.build_stream_node(&drive, &mut reopened.into_iter(), &ctx2)?;
                    // The rebuilt materialized sources recompute derived
                    // accounting at build time; restore the fields only
                    // the abandoned live streams knew.
                    for (state, snap) in ctx2.site_states.borrow().iter().zip(&snaps) {
                        let mut st = state.borrow_mut();
                        st.failed = snap.failed;
                        st.budget_skipped = snap.budget_skipped;
                        st.attempts = snap.attempts;
                        st.pages = snap.pages;
                        st.first_ms = snap.first_ms;
                        st.bytes = snap.bytes;
                        st.complete = snap.complete;
                    }
                    assembly = Some(
                        new_sites
                            .iter()
                            .zip(ctx2.site_states.borrow().iter())
                            .map(|(site, st)| {
                                (site.wrapper.to_string(), site.plan.clone(), Rc::clone(st))
                            })
                            .collect(),
                    );
                    tally = t2;
                    root = limited(r2);
                    chunks.clear();
                    trace.first_row_wall_ms = None;
                }
                Err(e) => return Err(e),
            }
        }
        // Dropping the tree abandons any undrained streams, releasing
        // their transport workers (the LIMIT early-stop).
        drop(root);
        trace.mediator_ms = ctx.clock.borrow().now();

        let assembly: Vec<SiteAssembly> = match assembly {
            Some(a) => a,
            None => sites
                .iter()
                .zip(ctx.site_states.borrow().iter())
                .map(|(site, st)| (site.wrapper.to_string(), site.plan.clone(), Rc::clone(st)))
                .collect(),
        };
        for (wrapper, site_plan, state) in &assembly {
            let st = state.borrow();
            if st.failed {
                trace
                    .missing
                    .extend(site_plan.collections().into_iter().cloned());
            }
            trace.budget_exhausted |= st.budget_skipped;
            trace.wrapper_ms += st.stats.elapsed_ms;
            trace.communication_ms += st.comm_ms;
            trace.hedges += st.hedges;
            trace.submits.push(SubmitTrace {
                wrapper: wrapper.clone(),
                plan: site_plan.clone(),
                stats: st.stats,
                tuples: st.tuples,
                bytes: st.bytes,
                comm_ms: st.comm_ms,
                wall_ms: st.wall_ms,
                attempts: st.attempts,
                failed: st.failed,
                served_by: st.served_by.clone(),
                hedges: st.hedges,
                first_ms: st.first_ms.unwrap_or(0.0),
                complete: st.complete,
            });
        }
        if trace.budget_exhausted && disco_obs::enabled() {
            disco_obs::counter(disco_obs::names::BUDGET_EXHAUSTED, &[]).inc();
        }
        trace.measured = Some(measured_from_tally(&tally).0);
        trace.missing.sort();
        trace.missing.dedup();
        let batch = vstream::concat_chunks(chunks, schema.arity())?;
        // The one place rows materialize: the final answer boundary
        // (where a whole-answer LIMIT is applied, too).
        let rows = limit.map_or(batch.len(), |n| batch.len().min(n as usize));
        let tuples = (0..rows).map(|row| batch.tuple_at(row)).collect();
        Ok((schema, tuples, trace))
    }

    /// Open every submit site. With `chunk_rows = None` an open returns
    /// the site's whole answer; otherwise a live stream with its first
    /// chunk. In-process wrappers execute one after another. Over a
    /// transport the open is a scatter-gather: every site's first
    /// attempt is on the wire before any reply is waited for, then the
    /// replies are collected in site order — retries, hedges and, in
    /// whole-answer mode, drains and decodes happen while later sites
    /// are still in flight. Requests are queued in site order, so each
    /// endpoint sees a reproducible sequence. The straggler hedge
    /// allowance is shared across sites (per-query cap).
    fn open_all(
        &self,
        sites: &[SubmitSite<'_>],
        budget_deadline: Option<Instant>,
        chunk_rows: Option<u32>,
    ) -> Vec<OpenedSite> {
        let client = match self.backend {
            Backend::Local(wrappers) => {
                let msg_latency = self.param("MsgLatency", 100.0);
                let per_byte = self.param("PerByte", 0.001);
                return sites
                    .iter()
                    .map(|site| open_local(wrappers, site, msg_latency, per_byte))
                    .collect();
            }
            Backend::Remote(client) => client,
        };
        let sent: Vec<SentSite> = sites
            .iter()
            .enumerate()
            .map(|(i, site)| self.send_site(client, site, i, budget_deadline, chunk_rows))
            .collect();
        let mut hedge_budget = self
            .resilience
            .as_ref()
            .map_or(0, |p| p.max_hedges_per_query);
        sent.into_iter()
            .map(|sent| match sent {
                SentSite::BudgetSkipped(e) => OpenedSite {
                    outcome: Err(e),
                    hedges: 0,
                    budget_skipped: true,
                },
                SentSite::InFlight {
                    pending,
                    straggler_ms,
                    budget_capped,
                } => {
                    // The open spends the shared allowance as it hedges,
                    // so a hedge is charged whether or not the site's
                    // open then succeeds.
                    let allowance = hedge_budget;
                    let outcome = pending
                        .and_then(|p| client.finish_stream(*p, straggler_ms, &mut hedge_budget))
                        .and_then(|h| open_source(h.stream, chunk_rows.is_none()));
                    // The budget, not the site's own deadline, cut the
                    // wait short: a policy decision, reported as such.
                    let budget_skipped = budget_capped
                        && budget_deadline.is_some_and(|d| Instant::now() >= d)
                        && outcome.as_ref().is_err_and(|e| e.kind() == "timeout");
                    OpenedSite {
                        outcome,
                        hedges: allowance - hedge_budget,
                        budget_skipped,
                    }
                }
            })
            .collect()
    }

    /// Put one site's request on the wire. An attached resilience policy
    /// supplies predicted deadlines (capped by the remaining query
    /// budget) and replica targets to hedge to or fail over onto;
    /// without one this is a plain submit to the site's wrapper.
    fn send_site(
        &self,
        client: &TransportClient,
        site: &SubmitSite<'_>,
        index: usize,
        budget_deadline: Option<Instant>,
        chunk_rows: Option<u32>,
    ) -> SentSite {
        // Query budget: a site reached after the budget ran out is never
        // submitted; remaining time caps the per-attempt deadline.
        let remaining_ms = budget_deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_secs_f64() * 1e3);
        if remaining_ms.is_some_and(|ms| ms < 1.0) {
            return SentSite::BudgetSkipped(DiscoError::Timeout(format!(
                "query budget exhausted before submit to `{}`",
                site.wrapper
            )));
        }

        let mut opts = SubmitOptions::default();
        let mut straggler_ms = None;
        let mut budget_capped = false;
        let mut peers: &[String] = &[];
        if let Some(policy) = &self.resilience {
            let prediction = self.predictions.get(index).copied().flatten();
            let total = prediction.map(|p| p.total_ms);
            opts = SubmitOptions {
                deadline_ms: policy.wall_deadline_ms(total),
                sim_deadline_ms: policy.sim_deadline_ms(total),
                predicted_total_ms: total,
            };
            if let Some(rem) = remaining_ms {
                let cap = rem.ceil().max(1.0) as u64;
                budget_capped = opts.deadline_ms.is_none_or(|own| cap <= own);
                opts.deadline_ms = Some(opts.deadline_ms.map_or(cap, |d| d.min(cap)));
            }
            straggler_ms = policy.straggler_threshold_ms(prediction.map(|p| p.first_ms));
            if policy.hedge {
                peers = self.replicas.get(site.wrapper).map_or(&[], Vec::as_slice);
            }
        }
        let mut targets = vec![HedgeTarget {
            endpoint: site.wrapper.to_string(),
            plan: site.plan.clone(),
            opts,
        }];
        targets.extend(peers.iter().map(|peer| HedgeTarget {
            endpoint: peer.clone(),
            plan: site.plan.retargeted(peer),
            opts,
        }));
        SentSite::InFlight {
            pending: client
                .begin_stream(targets, chunk_rows.unwrap_or(u32::MAX))
                .map(Box::new),
            straggler_ms,
            budget_capped,
        }
    }

    /// One node of the operator tree: builds the operator stream and its
    /// charge/row tally, consuming opened sources at submit sites in
    /// depth-first order (left before right).
    fn build_stream_node(
        &self,
        plan: &PhysicalPlan,
        opened: &mut std::vec::IntoIter<OpenedSite>,
        ctx: &StreamCtx,
    ) -> Result<(Box<dyn BatchStream>, TallyNode)> {
        match plan {
            PhysicalPlan::SubmitRemote {
                wrapper,
                plan: _,
                schema: expected_schema,
            } => {
                let operator = format!("submit {wrapper}");
                let next = opened
                    .next()
                    .ok_or_else(|| DiscoError::Exec("submit site without a fetch".into()))?;
                let budget_skipped = next.budget_skipped;
                let state = Rc::new(RefCell::new(SiteState {
                    hedges: next.hedges,
                    ..SiteState::default()
                }));
                if ctx.trigger.is_some() {
                    // Predictions align with submit order, which is also
                    // the order sites are pushed into the context.
                    let site_idx = ctx.site_states.borrow().len();
                    state.borrow_mut().predicted_rows = self
                        .predictions
                        .get(site_idx)
                        .copied()
                        .flatten()
                        .map(|p| p.rows);
                }
                let (schema, mode) = match next.outcome {
                    Ok(OpenedSource::Stream {
                        stream,
                        first,
                        schema,
                        served_by,
                    }) => {
                        // A wrapper returning a different shape than it
                        // registered would silently misalign downstream
                        // column lookups.
                        if schema.arity() != expected_schema.arity() {
                            return Err(DiscoError::Exec(format!(
                                "wrapper `{wrapper}` returned {} columns, plan expected {}",
                                schema.arity(),
                                expected_schema.arity()
                            )));
                        }
                        {
                            let mut st = state.borrow_mut();
                            st.attempts = stream.attempts();
                            st.wall_ms = stream.wall_first_ms();
                            st.comm_ms = stream.comm_ms();
                            st.served_by = served_by;
                        }
                        (
                            schema,
                            SiteMode::Remote {
                                stream,
                                pending: Some(first),
                                done: false,
                            },
                        )
                    }
                    Ok(OpenedSource::Whole {
                        answer,
                        comm_ms,
                        wall_ms,
                        attempts,
                        served_by,
                    }) => {
                        if answer.schema.arity() != expected_schema.arity() {
                            return Err(DiscoError::Exec(format!(
                                "wrapper `{wrapper}` returned {} columns, plan expected {}",
                                answer.schema.arity(),
                                expected_schema.arity()
                            )));
                        }
                        {
                            let mut st = state.borrow_mut();
                            st.stats = answer.stats;
                            st.pages = Some(answer.stats.pages_read);
                            st.bytes = answer.batch.byte_width();
                            st.comm_ms = comm_ms;
                            st.wall_ms = wall_ms;
                            st.attempts = attempts;
                            st.served_by = served_by;
                            // Nothing arrives before the whole reply, so
                            // first-row time pays the full comm.
                            st.first_ms = Some(answer.stats.time_first_ms + comm_ms);
                        }
                        let schema = answer.schema.clone();
                        let source =
                            vstream::BatchSource::new(answer.schema, answer.batch, ctx.chunk_rows);
                        (
                            schema,
                            SiteMode::Whole {
                                source,
                                truth: !ctx.replay,
                            },
                        )
                    }
                    Err(e) if (self.partial_answers && e.is_transient()) || budget_skipped => {
                        // The wrapper stayed down past the retry budget
                        // (or the query budget ran out first): contribute
                        // an empty, schema-correct subanswer and report
                        // what is missing (degraded result).
                        {
                            let mut st = state.borrow_mut();
                            st.failed = true;
                            st.budget_skipped = budget_skipped;
                        }
                        (expected_schema.clone(), SiteMode::Empty { served: false })
                    }
                    Err(e) => return Err(e),
                };
                ctx.site_states.borrow_mut().push(Rc::clone(&state));
                let mode = Rc::new(RefCell::new(mode));
                ctx.site_modes.borrow_mut().push(Rc::clone(&mode));
                ctx.site_schemas.borrow_mut().push(schema.clone());
                let stream = SiteStream {
                    schema,
                    state: Rc::clone(&state),
                    mode,
                    budget_deadline: ctx.budget_deadline,
                    partial: self.partial_answers,
                    trigger: ctx.trigger.clone(),
                };
                Ok(counted(
                    Box::new(stream),
                    operator,
                    Rc::new(Cell::new(0.0)),
                    Some(state),
                    vec![],
                ))
            }
            PhysicalPlan::Filter { input, predicate } => {
                let (input, child) = self.build_stream_node(input, opened, ctx)?;
                let charge = Rc::new(Cell::new(0.0));
                let s = vstream::FilterStream::new(
                    input,
                    predicate.clone(),
                    meter_for(&ctx.clock, &charge),
                    predicate.conjuncts.len() as f64 * ctx.cpu_pred,
                );
                Ok(counted(
                    Box::new(s),
                    "filter".into(),
                    charge,
                    None,
                    vec![child],
                ))
            }
            PhysicalPlan::Project { input, columns } => {
                let (input, child) = self.build_stream_node(input, opened, ctx)?;
                let charge = Rc::new(Cell::new(0.0));
                let s = vstream::ProjectStream::new(
                    input,
                    columns.clone(),
                    meter_for(&ctx.clock, &charge),
                    ctx.cpu_hash,
                )?;
                Ok(counted(
                    Box::new(s),
                    "project".into(),
                    charge,
                    None,
                    vec![child],
                ))
            }
            PhysicalPlan::Sort { input, keys } => {
                let (input, child) = self.build_stream_node(input, opened, ctx)?;
                let charge = Rc::new(Cell::new(0.0));
                let s = vstream::SortStream::new(
                    input,
                    keys.clone(),
                    meter_for(&ctx.clock, &charge),
                    ctx.sort_factor,
                );
                Ok(counted(
                    Box::new(s),
                    "sort".into(),
                    charge,
                    None,
                    vec![child],
                ))
            }
            PhysicalPlan::Join {
                algo,
                left,
                right,
                predicate,
            } => {
                let (l, lc) = self.build_stream_node(left, opened, ctx)?;
                let (r, rc) = self.build_stream_node(right, opened, ctx)?;
                let charge = Rc::new(Cell::new(0.0));
                let meter = meter_for(&ctx.clock, &charge);
                let s: Box<dyn BatchStream> = match algo {
                    PhysicalJoinAlgo::Hash => Box::new(vstream::HashJoinStream::new(
                        l,
                        r,
                        predicate.clone(),
                        meter,
                        ctx.cpu_hash,
                    )),
                    PhysicalJoinAlgo::NestedLoop => Box::new(vstream::NestedLoopStream::new(
                        l,
                        r,
                        predicate.clone(),
                        meter,
                        ctx.cpu_pred,
                    )),
                };
                let operator = format!("join ({algo:?})").to_lowercase();
                Ok(counted(s, operator, charge, None, vec![lc, rc]))
            }
            PhysicalPlan::Union { left, right } => {
                let (l, lc) = self.build_stream_node(left, opened, ctx)?;
                let (r, rc) = self.build_stream_node(right, opened, ctx)?;
                let charge = Rc::new(Cell::new(0.0));
                let s =
                    vstream::UnionStream::new(l, r, meter_for(&ctx.clock, &charge), ctx.cpu_hash)?;
                Ok(counted(
                    Box::new(s),
                    "union".into(),
                    charge,
                    None,
                    vec![lc, rc],
                ))
            }
            PhysicalPlan::Dedup { input } => {
                let (input, child) = self.build_stream_node(input, opened, ctx)?;
                let charge = Rc::new(Cell::new(0.0));
                let s =
                    vstream::DedupStream::new(input, meter_for(&ctx.clock, &charge), ctx.cpu_hash);
                Ok(counted(
                    Box::new(s),
                    "dedup".into(),
                    charge,
                    None,
                    vec![child],
                ))
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (input, child) = self.build_stream_node(input, opened, ctx)?;
                let out_schema = to_agg_schema(input.schema(), group_by, aggs)?;
                let charge = Rc::new(Cell::new(0.0));
                let s = vstream::AggregateStream::new(
                    input,
                    group_by.clone(),
                    aggs.clone(),
                    out_schema,
                    meter_for(&ctx.clock, &charge),
                    ctx.cpu_hash,
                );
                Ok(counted(
                    Box::new(s),
                    "aggregate".into(),
                    charge,
                    None,
                    vec![child],
                ))
            }
        }
    }
}

/// Submit sites of a plan in fetch order (depth-first, left before
/// right): `(wrapper, subplan)` pairs. The mediator aligns per-site
/// cost predictions with this order.
pub(crate) fn submit_sites(plan: &PhysicalPlan) -> Vec<(&str, &LogicalPlan)> {
    let mut sites = Vec::new();
    collect_submits(plan, &mut sites);
    sites.into_iter().map(|s| (s.wrapper, s.plan)).collect()
}

/// Collect `SubmitRemote` sites in the order the operator tree is built
/// (depth-first, left before right).
fn collect_submits<'p>(plan: &'p PhysicalPlan, out: &mut Vec<SubmitSite<'p>>) {
    match plan {
        PhysicalPlan::SubmitRemote { wrapper, plan, .. } => out.push(SubmitSite { wrapper, plan }),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Dedup { input }
        | PhysicalPlan::Aggregate { input, .. } => collect_submits(input, out),
        PhysicalPlan::Join { left, right, .. } | PhysicalPlan::Union { left, right } => {
            collect_submits(left, out);
            collect_submits(right, out);
        }
    }
}

/// Output schema of an aggregate over a known input schema.
fn to_agg_schema(
    input: &Schema,
    group_by: &[String],
    aggs: &[disco_algebra::logical::AggExpr],
) -> Result<Schema> {
    use disco_algebra::AggFunc;
    use disco_common::{AttributeDef, DataType};
    let mut attrs = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        let a = input
            .attribute(g)
            .ok_or_else(|| DiscoError::Exec(format!("unknown group-by attribute `{g}`")))?;
        attrs.push(a.clone());
    }
    for a in aggs {
        let ty = match a.func {
            AggFunc::Count => DataType::Long,
            AggFunc::Sum | AggFunc::Avg => DataType::Double,
            AggFunc::Min | AggFunc::Max => a
                .arg
                .as_ref()
                .and_then(|arg| input.attribute(arg))
                .map(|d| d.ty)
                .unwrap_or(DataType::Double),
        };
        attrs.push(AttributeDef::new(a.name.clone(), ty));
    }
    Ok(Schema::new(attrs))
}

// ---- operator-tree support ----

/// Shared context for building one operator tree.
struct StreamCtx {
    /// The mediator's virtual clock, shared by every operator meter.
    clock: Rc<RefCell<VirtualClock>>,
    /// Per-site live accounting, pushed in submit (site) order.
    site_states: RefCell<Vec<Rc<RefCell<SiteState>>>>,
    /// Per-site source handles, aligned with `site_states`. Kept outside
    /// the operator tree so a re-plan can drop the tree yet keep draining
    /// the live streams it abandoned.
    site_modes: RefCell<Vec<Rc<RefCell<SiteMode>>>>,
    /// Per-site subanswer schemas, aligned with `site_states` — needed to
    /// rebuild materialized sources after a re-plan.
    site_schemas: RefCell<Vec<Schema>>,
    /// Armed when adaptive re-optimization is on: site streams buffer
    /// what they deliver and raise [`DiscoError::Replan`] when measured
    /// cardinalities cross the policy's error threshold.
    trigger: Option<Rc<StreamTrigger>>,
    /// This tree re-drives a re-plan from replayed (possibly partial)
    /// materialized subanswers: exhausting a source proves nothing about
    /// true cardinalities.
    replay: bool,
    budget_deadline: Option<Instant>,
    chunk_rows: usize,
    cpu_pred: f64,
    cpu_hash: f64,
    sort_factor: f64,
}

/// Shared adaptive trip-wire for one execution. `fired` is
/// set by the first site stream whose measured cardinality contradicts
/// its prediction badly enough; at most one re-plan is raised per
/// execution (the re-driven tree is built without a trigger).
struct StreamTrigger {
    policy: crate::adaptive::AdaptivePolicy,
    fired: Cell<bool>,
}

impl StreamTrigger {
    /// Underestimate check, valid mid-stream: the site has *already*
    /// delivered `threshold ×` its predicted cardinality and is still
    /// going — no need to wait for end-of-stream to know the prediction
    /// was wrong.
    fn fire_if_exceeded(&self, predicted: Option<f64>, observed: f64) -> Result<()> {
        match predicted {
            Some(p) if observed > p && self.policy.triggers(p, observed) => self.fire(p, observed),
            _ => Ok(()),
        }
    }

    /// Either-direction check, valid only at end-of-stream (an
    /// overestimate can only be confirmed once the stream is done).
    fn fire_if_wrong(&self, predicted: Option<f64>, observed: f64) -> Result<()> {
        match predicted {
            Some(p) if self.policy.triggers(p, observed) => self.fire(p, observed),
            _ => Ok(()),
        }
    }

    fn fire(&self, predicted: f64, observed: f64) -> Result<()> {
        if self.fired.get() {
            return Ok(());
        }
        self.fired.set(true);
        Err(DiscoError::Replan(format!(
            "predicted {predicted:.0} rows, observed {observed:.0}"
        )))
    }
}

/// Per-submit accounting triple: wrapper name, the subquery it ran, and
/// the shared state its source wrote into.
type SiteAssembly = (String, LogicalPlan, Rc<RefCell<SiteState>>);

/// Live accounting for one submit site, updated by its source adapter
/// as chunks arrive and read after the pull loop to assemble
/// [`SubmitTrace`]s. An abandoned stream (LIMIT satisfied early) keeps
/// whatever had arrived when pulling stopped — under-counting
/// `wrapper_ms` there is the point of early termination.
#[derive(Default)]
struct SiteState {
    stats: ExecStats,
    tuples: usize,
    bytes: u64,
    comm_ms: f64,
    wall_ms: f64,
    first_ms: Option<f64>,
    attempts: u32,
    failed: bool,
    served_by: String,
    hedges: u32,
    budget_skipped: bool,
    pages: Option<u64>,
    /// The stream ran to end-of-stream (final stats arrived), so
    /// `tuples` is the subquery's true cardinality.
    complete: bool,
    /// Predicted cardinality for this site (adaptive executions only).
    predicted_rows: Option<f64>,
    /// Every chunk this site has delivered, buffered only while an
    /// adaptive trigger is armed — the materialized subanswer a re-plan
    /// re-drives the combine from without re-fetching.
    delivered: Vec<Batch>,
}

/// One remote site between the scatter and gather passes of
/// [`Executor::open_all`].
enum SentSite {
    /// The query budget ran out before this site was reached: nothing
    /// was sent.
    BudgetSkipped(DiscoError),
    /// The request is on the wire (or `begin_stream` failed, which the
    /// gather pass reports).
    InFlight {
        pending: Result<Box<PendingStream>>,
        /// The hedge threshold, in simulated milliseconds.
        straggler_ms: Option<f64>,
        /// The remaining query budget, not the site's own deadline, is
        /// what bounds the first attempt's wait.
        budget_capped: bool,
    },
}

/// The open phase's product for one submit site.
struct OpenedSite {
    outcome: Result<OpenedSource>,
    /// Straggler-triggered hedges the open launched, on either outcome.
    hedges: u32,
    /// The query budget ran out on this site: before it was submitted,
    /// or as the cap on its first attempt's deadline. Always degrades to
    /// an empty subanswer, even when partial answers are off — an
    /// exhausted budget is a policy decision, not a fault.
    budget_skipped: bool,
}

enum OpenedSource {
    /// A live stream with its schema-bearing first chunk pre-pulled (so
    /// retries and hedging are fully settled before the tree is built).
    Stream {
        stream: SubmitStream,
        first: Batch,
        schema: Schema,
        served_by: String,
    },
    /// A whole answer — an in-process wrapper's (it has no streaming
    /// interface), a stream drained at open in whole-answer mode, or a
    /// re-plan's replayed subanswer — served to the pipeline in chunks
    /// of the execution's chunk size.
    Whole {
        answer: SubAnswer,
        comm_ms: f64,
        wall_ms: f64,
        attempts: u32,
        served_by: String,
    },
}

/// Pull the schema-bearing first chunk off a freshly opened stream. In
/// whole-answer mode keep pulling, here in the gather pass, through the
/// end-of-stream stats: a mid-stream failure then fails the whole submit.
fn open_source(mut stream: SubmitStream, whole: bool) -> Result<OpenedSource> {
    let served_by = stream.endpoint().to_string();
    let first = stream
        .next_chunk()?
        .ok_or_else(|| DiscoError::Exec("stream ended before delivering a schema chunk".into()))?;
    if !whole {
        return Ok(OpenedSource::Stream {
            schema: first.schema,
            first: first.batch,
            stream,
            served_by,
        });
    }
    let draining = Instant::now();
    let mut chunks = vec![first.batch];
    while let Some(chunk) = stream.next_chunk()? {
        chunks.push(chunk.batch);
    }
    let stats = stream
        .stats()
        .ok_or_else(|| DiscoError::Exec("stream ended without its stats frame".into()))?;
    Ok(OpenedSource::Whole {
        answer: SubAnswer {
            batch: vstream::concat_chunks(chunks, first.schema.arity())?,
            schema: first.schema,
            stats,
        },
        comm_ms: stream.comm_ms(),
        wall_ms: stream.wall_first_ms() + draining.elapsed().as_secs_f64() * 1e3,
        attempts: stream.attempts(),
        served_by,
    })
}

/// Open one in-process site: the wrapper executes eagerly, charged the
/// seed's uniform analytic communication cost.
fn open_local(
    wrappers: &BTreeMap<String, Box<dyn Wrapper>>,
    site: &SubmitSite<'_>,
    msg_latency: f64,
    per_byte: f64,
) -> OpenedSite {
    let started = Instant::now();
    let outcome = wrappers
        .get(site.wrapper)
        .ok_or_else(|| DiscoError::Exec(format!("wrapper `{}` is not registered", site.wrapper)))
        .and_then(|w| w.execute(site.plan))
        .map(|answer| OpenedSource::Whole {
            comm_ms: msg_latency + answer.batch.byte_width() as f64 * per_byte,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            attempts: 1,
            served_by: site.wrapper.to_string(),
            answer,
        });
    OpenedSite {
        outcome,
        hedges: 0,
        budget_skipped: false,
    }
}

/// How one submit site feeds the operator tree.
enum SiteMode {
    /// Live remote stream; the schema-bearing first chunk is pending.
    Remote {
        stream: SubmitStream,
        pending: Option<Batch>,
        done: bool,
    },
    /// Whole answer served in chunks.
    Whole {
        source: vstream::BatchSource,
        /// Exhausting this source proves the subquery's true cardinality
        /// (a complete answer). `false` when the source
        /// replays a re-plan's possibly-partial materialized subanswer —
        /// exhausting it must not overwrite the snapshot's
        /// [`SiteState::complete`].
        truth: bool,
    },
    /// Open failed (tolerated) or was budget-skipped: one empty chunk.
    Empty { served: bool },
}

/// What one pull from a submit site yielded.
enum Pulled {
    /// A chunk of the answer; its bytes, wall and communication time are
    /// already on the site state, its rows are the caller's to count.
    Rows(Batch),
    /// The one empty chunk of a site whose open failed (tolerated) or
    /// was budget-skipped.
    Placeholder,
    /// No more chunks. `settled`: the stream reached its true end, so
    /// the delivered row count is the site's final cardinality.
    End { settled: bool },
}

/// Pull one step from a submit site, keeping its [`SiteState`] current:
/// budget truncation (stop pulling, keep the rows already delivered),
/// byte and communication accounting, the `End(stats)` settlement and
/// tolerated mid-stream faults.
fn pull_site(
    mode: &mut SiteMode,
    state: &RefCell<SiteState>,
    budget_deadline: Option<Instant>,
    partial: bool,
) -> Result<Pulled> {
    match mode {
        SiteMode::Empty { served } => {
            if std::mem::replace(served, true) {
                Ok(Pulled::End { settled: false })
            } else {
                Ok(Pulled::Placeholder)
            }
        }
        SiteMode::Whole { source, truth } => match source.next_batch()? {
            Some(b) => Ok(Pulled::Rows(b)),
            None => {
                if *truth {
                    state.borrow_mut().complete = true;
                }
                Ok(Pulled::End { settled: *truth })
            }
        },
        SiteMode::Remote {
            stream,
            pending,
            done,
        } => {
            if *done {
                return Ok(Pulled::End { settled: false });
            }
            if let Some(b) = pending.take() {
                state.borrow_mut().bytes += b.byte_width();
                return Ok(Pulled::Rows(b));
            }
            // The query budget expired mid-stream: truncate here,
            // keeping the rows already delivered downstream.
            if budget_deadline.is_some_and(|d| Instant::now() >= d) {
                *done = true;
                let mut st = state.borrow_mut();
                st.failed = true;
                st.budget_skipped = true;
                st.comm_ms = stream.comm_ms();
                return Ok(Pulled::End { settled: false });
            }
            let before = Instant::now();
            match stream.next_chunk() {
                Ok(Some(chunk)) => {
                    let mut st = state.borrow_mut();
                    st.wall_ms += before.elapsed().as_secs_f64() * 1e3;
                    st.bytes += chunk.batch.byte_width();
                    st.comm_ms = stream.comm_ms();
                    Ok(Pulled::Rows(chunk.batch))
                }
                Ok(None) => {
                    *done = true;
                    let mut st = state.borrow_mut();
                    st.wall_ms += before.elapsed().as_secs_f64() * 1e3;
                    st.comm_ms = stream.comm_ms();
                    if let Some(stats) = stream.stats() {
                        st.stats = stats;
                        st.pages = Some(stats.pages_read);
                        st.first_ms = Some(stats.time_first_ms + stream.first_frame_comm_ms());
                        st.complete = true;
                    }
                    Ok(Pulled::End { settled: true })
                }
                Err(e) if partial && e.is_transient() => {
                    // The stream died after delivering rows: degrade to
                    // a partial answer with what already arrived.
                    *done = true;
                    let mut st = state.borrow_mut();
                    st.failed = true;
                    st.comm_ms = stream.comm_ms();
                    Ok(Pulled::End { settled: false })
                }
                Err(e) => Err(e),
            }
        }
    }
}

/// Drain one abandoned site to completion, appending whatever is still
/// in flight to its delivered buffer — [`SiteStream::next_batch`]'s
/// pull, minus the downstream delivery and the (already fired) trigger.
fn drain_site(
    mode: &RefCell<SiteMode>,
    state: &RefCell<SiteState>,
    budget_deadline: Option<Instant>,
    partial: bool,
) -> Result<()> {
    let mut mode = mode.borrow_mut();
    loop {
        match pull_site(&mut mode, state, budget_deadline, partial)? {
            Pulled::Rows(b) => {
                let mut st = state.borrow_mut();
                st.tuples += b.len();
                st.delivered.push(b);
            }
            Pulled::Placeholder => {}
            Pulled::End { .. } => return Ok(()),
        }
    }
}

/// Snapshot of the accounting fields a rebuilt materialized source
/// cannot reconstruct, captured from the abandoned live site and
/// restored onto the re-driven tree's fresh [`SiteState`].
struct ReplaySnap {
    failed: bool,
    budget_skipped: bool,
    attempts: u32,
    pages: Option<u64>,
    first_ms: Option<f64>,
    bytes: u64,
    complete: bool,
}

/// Materialized subanswers by submit site for the re-drive: a re-planned
/// combine order permutes submit sites but never changes their
/// `(wrapper, subplan)` pairs, so the pool hands each site of the new
/// order the subanswer its wrapper already shipped. Duplicate sites
/// (same wrapper and subplan submitted twice) consume distinct entries
/// in first-in-first-out order.
struct ReplayPool<'p> {
    entries: Vec<(SubmitSite<'p>, Option<(OpenedSite, ReplaySnap)>)>,
}

impl<'p> ReplayPool<'p> {
    fn new(
        sites: &[SubmitSite<'p>],
        states: &[Rc<RefCell<SiteState>>],
        schemas: &[Schema],
    ) -> Result<Self> {
        let mut entries = Vec::with_capacity(sites.len());
        for ((site, state), schema) in sites.iter().zip(states).zip(schemas) {
            // The abandoned tree's states are read for the last time here.
            let mut st = state.borrow_mut();
            let delivered = std::mem::take(&mut st.delivered);
            let batch = vstream::concat_chunks(delivered, schema.arity())?;
            let opened = OpenedSite {
                outcome: Ok(OpenedSource::Whole {
                    answer: SubAnswer {
                        schema: schema.clone(),
                        batch,
                        stats: st.stats,
                    },
                    comm_ms: st.comm_ms,
                    wall_ms: st.wall_ms,
                    attempts: st.attempts,
                    served_by: st.served_by.clone(),
                }),
                hedges: st.hedges,
                budget_skipped: st.budget_skipped,
            };
            let snap = ReplaySnap {
                failed: st.failed,
                budget_skipped: st.budget_skipped,
                attempts: st.attempts,
                pages: st.pages,
                first_ms: st.first_ms,
                bytes: st.bytes,
                complete: st.complete,
            };
            entries.push((*site, Some((opened, snap))));
        }
        Ok(ReplayPool { entries })
    }

    fn take(&mut self, wrapper: &str, plan: &LogicalPlan) -> Result<(OpenedSite, ReplaySnap)> {
        self.entries
            .iter_mut()
            .find(|(site, e)| site.wrapper == wrapper && site.plan == plan && e.is_some())
            .and_then(|(_, e)| e.take())
            .ok_or_else(|| {
                DiscoError::Exec(format!(
                    "re-planned order references unfetched submit site `{wrapper}`"
                ))
            })
    }
}

/// Source adapter: serves one submit site's chunks into the operator
/// tree while keeping its [`SiteState`] current — including budget
/// truncation (stop pulling, keep the rows already delivered) and
/// tolerated mid-stream faults. The mode handle is shared with the
/// [`StreamCtx`] so an adaptive re-plan can keep draining the source
/// after the operator tree (and this adapter) is dropped.
struct SiteStream {
    schema: Schema,
    state: Rc<RefCell<SiteState>>,
    mode: Rc<RefCell<SiteMode>>,
    budget_deadline: Option<Instant>,
    partial: bool,
    /// Armed for adaptive executions: buffer delivered chunks and raise
    /// [`DiscoError::Replan`] on a bad-enough cardinality misestimate.
    trigger: Option<Rc<StreamTrigger>>,
}

impl SiteStream {
    /// Record a delivered chunk against the site state; with a trigger
    /// armed, also buffer it and run the mid-stream underestimate check.
    fn deliver(&self, b: &Batch, st: &mut SiteState) -> Result<()> {
        st.tuples += b.len();
        if let Some(t) = &self.trigger {
            st.delivered.push(b.clone());
            t.fire_if_exceeded(st.predicted_rows, st.tuples as f64)?;
        }
        Ok(())
    }

    /// End-of-stream: the measured cardinality is final, so an armed
    /// trigger may now confirm an overestimate too.
    fn finish(&self, st: &SiteState) -> Result<()> {
        match &self.trigger {
            Some(t) => t.fire_if_wrong(st.predicted_rows, st.tuples as f64),
            None => Ok(()),
        }
    }
}

impl BatchStream for SiteStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let pulled = pull_site(
            &mut self.mode.borrow_mut(),
            &self.state,
            self.budget_deadline,
            self.partial,
        )?;
        match pulled {
            Pulled::Rows(b) => {
                self.deliver(&b, &mut self.state.borrow_mut())?;
                Ok(Some(b))
            }
            Pulled::Placeholder => Ok(Some(Batch::empty(self.schema.arity()))),
            Pulled::End { settled } => {
                if settled {
                    self.finish(&self.state.borrow())?;
                }
                Ok(None)
            }
        }
    }
}

/// Row-counting pass-through wrapped around every operator.
struct CountedStream {
    inner: Box<dyn BatchStream>,
    rows: Rc<Cell<u64>>,
}

impl BatchStream for CountedStream {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let b = self.inner.next_batch()?;
        if let Some(b) = &b {
            self.rows.set(self.rows.get() + b.len() as u64);
        }
        Ok(b)
    }
}

/// Parallel accounting tree mirroring the plan: per-node virtual-clock
/// charges and output rows, folded into [`MeasuredNode`]s after the
/// pull loop — the measured half of EXPLAIN ANALYZE.
struct TallyNode {
    operator: String,
    charge: Rc<Cell<f64>>,
    rows: Rc<Cell<u64>>,
    site: Option<Rc<RefCell<SiteState>>>,
    children: Vec<TallyNode>,
}

/// A meter charging both the shared clock and one node's tally.
fn meter_for(clock: &Rc<RefCell<VirtualClock>>, charge: &Rc<Cell<f64>>) -> vstream::Meter {
    let clock = Rc::clone(clock);
    let charge = Rc::clone(charge);
    Rc::new(move |ms| {
        clock.borrow_mut().charge(ms);
        charge.set(charge.get() + ms);
    })
}

/// Wrap an operator stream with its row counter and build its tally.
fn counted(
    inner: Box<dyn BatchStream>,
    operator: String,
    charge: Rc<Cell<f64>>,
    site: Option<Rc<RefCell<SiteState>>>,
    children: Vec<TallyNode>,
) -> (Box<dyn BatchStream>, TallyNode) {
    let rows = Rc::new(Cell::new(0));
    let tally = TallyNode {
        operator,
        charge,
        rows: Rc::clone(&rows),
        site,
        children,
    };
    (Box::new(CountedStream { inner, rows }), tally)
}

/// Fold a tally tree into measured nodes. Returns the node and its
/// cumulative simulated time (subtree charges plus wrapper and
/// communication time — the same cumulative convention as
/// `NodeCost::total_time`).
fn measured_from_tally(t: &TallyNode) -> (MeasuredNode, f64) {
    let mut children = Vec::new();
    let mut cum = 0.0;
    for c in &t.children {
        let (node, ms) = measured_from_tally(c);
        cum += ms;
        children.push(node);
    }
    let (submit_extra, failed, pages, first) =
        t.site.as_ref().map_or((0.0, false, None, None), |s| {
            let s = s.borrow();
            (
                s.stats.elapsed_ms + s.comm_ms,
                s.failed,
                s.pages,
                s.first_ms,
            )
        });
    cum += t.charge.get() + submit_extra;
    (
        MeasuredNode {
            operator: t.operator.clone(),
            rows: t.rows.get(),
            elapsed_ms: cum,
            failed,
            pages,
            first_row_ms: first,
            children,
        },
        cum,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, JoinPredicate, PlanBuilder, Predicate, SelectPredicate};
    use disco_common::{AttributeDef, DataType, QualifiedName, Value};
    use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
    use disco_wrapper::SourceWrapper;

    fn wrappers() -> BTreeMap<String, Box<dyn Wrapper>> {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let mut store = PagedStore::new("s", CostProfile::relational());
        store
            .add_collection(
                "T",
                CollectionBuilder::new(schema)
                    .rows((0..100i64).map(|i| vec![Value::Long(i), Value::Long(i % 7)]))
                    .object_size(16)
                    .index("id"),
            )
            .unwrap();
        let mut map: BTreeMap<String, Box<dyn Wrapper>> = BTreeMap::new();
        map.insert("s".into(), Box::new(SourceWrapper::new("s", store)));
        map
    }

    fn submit(v_max: i64) -> PhysicalPlan {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let plan = PlanBuilder::scan(QualifiedName::new("s", "T"), schema.clone())
            .select("id", CompareOp::Lt, v_max)
            .build();
        PhysicalPlan::SubmitRemote {
            wrapper: "s".into(),
            schema: plan.output_schema().unwrap(),
            plan,
        }
    }

    fn run(plan: &PhysicalPlan) -> (Schema, Vec<disco_common::Tuple>, ExecutionTrace) {
        let w = wrappers();
        let reg = disco_core::RuleRegistry::with_default_model();
        // The registry must outlive the executor borrowing it.
        let exec = Executor::new(&w, &reg);
        exec.execute(plan, None, None).unwrap()
    }

    #[test]
    fn submit_executes_and_traces() {
        let (schema, tuples, trace) = run(&submit(10));
        assert_eq!(schema.arity(), 2);
        assert_eq!(tuples.len(), 10);
        assert_eq!(trace.submits.len(), 1);
        assert!(trace.submits[0].comm_ms > 0.0);
        assert!(!trace.submits[0].failed);
        assert_eq!(trace.submits[0].attempts, 1);
        assert!(trace.wrapper_ms > 0.0);
        assert!(trace.is_complete());
        // One submit: nothing to overlap, so all accountings agree.
        assert_eq!(trace.sequential_ms(), trace.parallel_ms());
        assert_eq!(trace.parallel_ms(), trace.predicted_parallel_ms());
    }

    #[test]
    fn analytic_parallel_prediction_takes_max() {
        let plan = PhysicalPlan::Union {
            left: Box::new(submit(80)),
            right: Box::new(submit(5)),
        };
        let (_, tuples, trace) = run(&plan);
        assert_eq!(tuples.len(), 85);
        let slow = trace
            .submits
            .iter()
            .map(|s| s.stats.elapsed_ms + s.comm_ms)
            .fold(0.0f64, f64::max);
        let sum: f64 = trace
            .submits
            .iter()
            .map(|s| s.stats.elapsed_ms + s.comm_ms)
            .sum();
        assert!((trace.predicted_parallel_ms() - (slow + trace.mediator_ms)).abs() < 1e-9);
        assert!((trace.sequential_ms() - (sum + trace.mediator_ms)).abs() < 1e-9);
        assert!(trace.predicted_parallel_ms() < trace.sequential_ms());
        // In-process submits never measure real concurrency: parallel_ms
        // stays the analytic prediction.
        assert!(!trace.concurrent);
        assert_eq!(trace.parallel_ms(), trace.predicted_parallel_ms());
    }

    #[test]
    fn join_algorithms_agree_on_output() {
        let pred = JoinPredicate::equi("v", "v");
        let variants = [PhysicalJoinAlgo::Hash, PhysicalJoinAlgo::NestedLoop];
        let mut sizes = Vec::new();
        for algo in variants {
            let plan = PhysicalPlan::Join {
                algo,
                left: Box::new(submit(10)),
                right: Box::new(submit(10)),
                predicate: pred.clone(),
            };
            let (_, tuples, _) = run(&plan);
            sizes.push(tuples.len());
        }
        assert_eq!(sizes[0], sizes[1]);
        assert!(sizes[0] > 0);
    }

    #[test]
    fn mediator_filter_sort_dedup_pipeline() {
        let filtered = PhysicalPlan::Filter {
            input: Box::new(submit(50)),
            predicate: Predicate::single(SelectPredicate::new("v", CompareOp::Eq, Value::Long(3))),
        };
        let deduped = PhysicalPlan::Dedup {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(filtered),
                columns: vec![("v".into(), disco_algebra::ScalarExpr::attr("v"))],
            }),
        };
        let sorted = PhysicalPlan::Sort {
            input: Box::new(deduped),
            keys: vec![("v".into(), true)],
        };
        let (_, tuples, trace) = run(&sorted);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].get(0).unwrap().as_i64(), Some(3));
        assert!(trace.mediator_ms > 0.0);
    }

    #[test]
    fn measured_tree_mirrors_plan_and_accounts_all_time() {
        let plan = PhysicalPlan::Join {
            algo: PhysicalJoinAlgo::Hash,
            left: Box::new(submit(10)),
            right: Box::new(submit(20)),
            predicate: JoinPredicate::equi("v", "v"),
        };
        let (_, tuples, trace) = run(&plan);
        let root = trace.measured.as_ref().expect("measured tree recorded");
        assert!(root.operator.starts_with("join"), "{}", root.operator);
        assert_eq!(root.rows as usize, tuples.len());
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].operator, "submit s");
        assert_eq!(root.children[0].rows, 10);
        assert_eq!(root.children[1].rows, 20);
        // Cumulative convention: the root's measured time is the whole
        // query's sequential time, children are strictly within it.
        assert!((root.elapsed_ms - trace.sequential_ms()).abs() < 1e-9);
        for c in &root.children {
            assert!(c.elapsed_ms > 0.0);
            assert!(c.elapsed_ms < root.elapsed_ms);
        }
    }

    #[test]
    fn chunking_does_not_change_answers_charges_or_measurements() {
        let pred = JoinPredicate::equi("v", "v");
        let plans = [
            submit(10),
            PhysicalPlan::Union {
                left: Box::new(submit(80)),
                right: Box::new(submit(5)),
            },
            PhysicalPlan::Join {
                algo: PhysicalJoinAlgo::Hash,
                left: Box::new(submit(10)),
                right: Box::new(submit(20)),
                predicate: pred.clone(),
            },
            PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Dedup {
                    input: Box::new(PhysicalPlan::Project {
                        input: Box::new(submit(50)),
                        columns: vec![("v".into(), disco_algebra::ScalarExpr::attr("v"))],
                    }),
                }),
                keys: vec![("v".into(), true)],
            },
        ];
        let w = wrappers();
        let reg = disco_core::RuleRegistry::with_default_model();
        let exec = Executor::new(&w, &reg);
        for plan in &plans {
            let (s1, t1, tr1) = exec.execute(plan, None, None).unwrap();
            let (s2, t2, tr2) = exec.execute(plan, Some(7), None).unwrap();
            assert_eq!(s1, s2);
            assert_eq!(t1, t2);
            assert_eq!(tr1.submits.len(), tr2.submits.len());
            // Chunked metering sums the same analytic charges; allow
            // float reassociation noise.
            assert!((tr1.mediator_ms - tr2.mediator_ms).abs() < 1e-6);
            let m1 = tr1.measured.unwrap();
            let m2 = tr2.measured.unwrap();
            assert_eq!(m1.operator, m2.operator);
            assert_eq!(m1.rows, m2.rows);
            assert!((m1.elapsed_ms - m2.elapsed_ms).abs() < 1e-6);
        }
    }

    #[test]
    fn limit_truncates_answer_at_any_chunk_size() {
        let w = wrappers();
        let reg = disco_core::RuleRegistry::with_default_model();
        let exec = Executor::new(&w, &reg);
        for chunk_rows in [None, Some(8)] {
            let (schema, tuples, trace) = exec.execute(&submit(50), chunk_rows, Some(5)).unwrap();
            assert_eq!(schema.arity(), 2);
            assert_eq!(tuples.len(), 5);
            assert!(trace.first_row_wall_ms.is_some());
            assert!(trace.is_complete());
        }
    }

    #[test]
    fn submit_wall_is_fetch_time_not_execute_time() {
        let plan = PhysicalPlan::Join {
            algo: PhysicalJoinAlgo::Hash,
            left: Box::new(submit(100)),
            right: Box::new(submit(100)),
            predicate: JoinPredicate::equi("v", "v"),
        };
        let w = wrappers();
        let reg = disco_core::RuleRegistry::with_default_model();
        let exec = Executor::new(&w, &reg);
        for chunk_rows in [None, Some(16)] {
            let started = Instant::now();
            let (_, tuples, trace) = exec.execute(&plan, chunk_rows, None).unwrap();
            let execute_wall_ms = started.elapsed().as_secs_f64() * 1e3;
            assert!(!tuples.is_empty());
            // The fetch stamp is taken before the tree is pulled, so the
            // join's combine work can never be inside it.
            let first_row = trace.first_row_wall_ms.expect("non-empty answer");
            assert!(trace.submit_wall_ms <= first_row, "{chunk_rows:?}");
            assert!(trace.submit_wall_ms < execute_wall_ms, "{chunk_rows:?}");
        }
    }

    #[test]
    fn first_row_time_is_recorded_per_submit() {
        let w = wrappers();
        let reg = disco_core::RuleRegistry::with_default_model();
        let exec = Executor::new(&w, &reg);
        let (_, _, trace) = exec.execute(&submit(10), Some(4), None).unwrap();
        assert_eq!(trace.submits.len(), 1);
        // In-process answers materialize whole: first-row time is the
        // wrapper's TimeFirst plus the full communication charge.
        let s = &trace.submits[0];
        assert!((s.first_ms - (s.stats.time_first_ms + s.comm_ms)).abs() < 1e-9);
        assert!(s.first_ms > 0.0);
        let m = trace.measured.unwrap();
        assert_eq!(m.children.len(), 0);
        assert_eq!(m.first_row_ms, Some(s.first_ms));
    }

    #[test]
    fn missing_wrapper_is_an_exec_error() {
        let w: BTreeMap<String, Box<dyn Wrapper>> = BTreeMap::new();
        let reg = disco_core::RuleRegistry::with_default_model();
        let exec = Executor::new(&w, &reg);
        let err = exec.execute(&submit(10), None, None).unwrap_err();
        assert_eq!(err.kind(), "exec");
    }

    #[test]
    fn missing_wrapper_is_not_masked_by_partial_answers() {
        // Partial answers cover *transient* transport failures; a plan
        // naming an unregistered wrapper is a configuration bug and must
        // stay loud.
        let w: BTreeMap<String, Box<dyn Wrapper>> = BTreeMap::new();
        let reg = disco_core::RuleRegistry::with_default_model();
        let exec = Executor::new(&w, &reg).with_partial_answers(true);
        let err = exec.execute(&submit(10), None, None).unwrap_err();
        assert_eq!(err.kind(), "exec");
    }
}
