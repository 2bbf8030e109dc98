//! [`TransportClient`]: the mediator-side driver of a [`Transport`].
//!
//! Adds the reliability layer on top of raw byte delivery: per-submit
//! deadlines (flat or cost-model-predicted via [`SubmitOptions`], always
//! clamped to the endpoint's latency floor), bounded retries with
//! full-jitter exponential backoff for *transient* failures (timeouts,
//! unavailability), a per-endpoint circuit breaker so a dead wrapper
//! fails fast instead of burning a full retry budget on every submit,
//! straggler hedges and failover across replica endpoints, and
//! per-wrapper health recording feeding the estimator's adaptive scope
//! penalties. Non-transient errors (a wrapper rejecting a malformed
//! plan, say) are returned immediately — retrying them cannot help.
//!
//! A stream open comes in two halves so one thread can overlap the
//! round trips of many endpoints:
//! [`begin_stream`](TransportClient::begin_stream) queues the request
//! and returns, [`finish_stream`](TransportClient::finish_stream) waits
//! for the first frame and settles retries, hedges and failover. A
//! caller that begins every open before finishing any has all its
//! requests on the wire at once. The client spawns no thread: a hedge
//! race is refereed on the caller's thread, in simulated time.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use disco_algebra::LogicalPlan;
use disco_common::rng::{seeded, StdRng, DEFAULT_SEED};
use disco_common::wire::{WireDecode, WireEncode, WireWriter};
use disco_common::{Batch, DiscoError, HealthTracker, Result, Schema};
use disco_obs::names;
use disco_sources::{ExecStats, SubAnswer};
use disco_wrapper::Registration;

use crate::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use crate::wire::{decode_frame, encode_plan, Frame, Request, Response};
use crate::{FrameEnvelope, FrameStream, Transport};

/// Retry tuning for one submit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Per-attempt reply deadline in wall-clock milliseconds.
    pub deadline_ms: u64,
    /// Backoff before the second attempt, in wall-clock milliseconds.
    pub backoff_base_ms: u64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            deadline_ms: 2_000,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
        }
    }
}

/// Per-call overrides derived from the cost model, layered on top of
/// the client's [`RetryPolicy`]. The default is "no overrides": flat
/// deadline, no simulated-time enforcement, no health latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubmitOptions {
    /// Wall-clock per-attempt deadline override, in milliseconds
    /// (typically `k × predicted TotalTime`). Clamped to the endpoint's
    /// latency floor either way.
    pub deadline_ms: Option<u64>,
    /// Simulated-time deadline: a delivered reply whose simulated
    /// `comm_ms` exceeds this counts as a timeout. Makes delay faults
    /// deterministic when the transport does not really sleep.
    pub sim_deadline_ms: Option<f64>,
    /// The cost model's predicted `TotalTime` for this subplan, in
    /// simulated milliseconds — recorded into the health tracker as the
    /// denominator of the observed/predicted latency ratio.
    pub predicted_total_ms: Option<f64>,
}

/// One endpoint a stream open may be served by: where to send, the plan
/// retargeted at that replica, and its per-call options.
#[derive(Debug, Clone)]
pub struct HedgeTarget {
    /// Endpoint (replica wrapper) name.
    pub endpoint: String,
    /// The subplan, addressed to this replica.
    pub plan: LogicalPlan,
    /// Per-call deadline/prediction overrides for this replica.
    pub opts: SubmitOptions,
}

/// Everything a successful submit reports back to the executor.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// The decoded subanswer.
    pub answer: SubAnswer,
    /// Simulated communication time of the *successful* attempt.
    pub comm_ms: f64,
    /// Measured wall-clock time of the whole submit, retries included.
    pub wall_ms: f64,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Request size on the wire.
    pub request_bytes: usize,
    /// Reply size on the wire.
    pub response_bytes: usize,
}

/// One decoded chunk of a streamed subanswer.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamChunk {
    /// Schema of the subanswer (identical on every chunk).
    pub schema: Schema,
    /// The rows of this chunk, columnar.
    pub batch: Batch,
    /// Simulated communication time attributed to this chunk's frame.
    pub comm_ms: f64,
}

/// Result of a stream open (see [`TransportClient::finish_stream`]).
#[derive(Debug)]
pub struct HedgedStreamOutcome {
    /// The serving replica's open stream, first chunk already buffered.
    pub stream: SubmitStream,
    /// Index into the target list of the replica that serves the stream.
    pub winner: usize,
    /// Straggler-triggered hedges launched.
    pub hedges: u32,
}

/// A stream open in flight, between
/// [`begin_stream`](TransportClient::begin_stream) and
/// [`finish_stream`](TransportClient::finish_stream). Dropping it
/// abandons the open and releases the producer.
pub struct PendingStream {
    /// The primary first, then the replicas to hedge or fail over to.
    targets: Vec<HedgeTarget>,
    chunk_rows: u32,
    /// `targets[0]`'s open: its first attempt is on the wire.
    primary: PendingOpen,
}

/// One endpoint's stream open between [`ClientCore::begin`] and
/// [`ClientCore::finish`].
struct PendingOpen {
    endpoint: String,
    /// The encoded request; every retry ships the same bytes.
    request: Vec<u8>,
    opts: SubmitOptions,
    /// When `begin` was entered: attempt 1's deadline, the straggler
    /// bound and the stream's wall time all count from here.
    started: Instant,
    first: FirstAttempt,
    /// Attempt 1's first frame, or the failed wait for it, once a
    /// straggler wait has taken it off the wire.
    reply: Option<Result<FrameEnvelope>>,
}

enum FirstAttempt {
    /// The circuit breaker refused the call: nothing was sent.
    Refused(DiscoError),
    /// What `call_stream` returned: on `Ok` the request is queued at the
    /// endpoint.
    Sent(Result<Box<dyn FrameStream>>),
}

/// What a straggler wait found of attempt 1's first frame: in hand with
/// its simulated time, not yet (the wait ran out at the straggler
/// bound), or failed (refused, not sent, or no frame by its deadline).
enum FirstFrame {
    Landed(f64),
    Silent,
    Failed,
}

impl FirstFrame {
    fn landed_ms(&self) -> Option<f64> {
        match self {
            FirstFrame::Landed(ms) => Some(*ms),
            _ => None,
        }
    }
}

/// A streamed submit in progress. Retries, breaker accounting and the
/// simulated-time deadline are all settled while opening the stream
/// (i.e. before the first chunk is surfaced — the only point where a
/// retry cannot duplicate rows); afterwards the consumer pulls chunks
/// with [`next_chunk`](SubmitStream::next_chunk) until `Ok(None)`, then
/// reads the wrapper's stats from [`stats`](SubmitStream::stats).
/// Dropping the stream early abandons the remaining chunks and releases
/// the producer.
pub struct SubmitStream {
    core: Arc<ClientCore>,
    endpoint: String,
    /// The live transport stream; `None` once it failed.
    source: Option<Box<dyn FrameStream>>,
    deadline: Duration,
    buffered: VecDeque<StreamChunk>,
    stats: Option<ExecStats>,
    comm_ms: f64,
    first_frame_comm_ms: f64,
    wall_first_ms: f64,
    attempts: u32,
    request_bytes: usize,
    response_bytes: usize,
    finished: bool,
}

impl std::fmt::Debug for SubmitStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitStream")
            .field("endpoint", &self.endpoint)
            .field("attempts", &self.attempts)
            .field("comm_ms", &self.comm_ms)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl SubmitStream {
    /// Pull the next chunk. `Ok(None)` is a clean end of stream; an
    /// error means the stream failed mid-flight and already-delivered
    /// chunks are all there will be.
    pub fn next_chunk(&mut self) -> Result<Option<StreamChunk>> {
        if let Some(chunk) = self.buffered.pop_front() {
            return Ok(Some(chunk));
        }
        if self.finished {
            return Ok(None);
        }
        let Some(stream) = &mut self.source else {
            self.finished = true;
            return Ok(None);
        };
        let env = match stream.next_frame(self.deadline) {
            Ok(env) => env,
            Err(e) => return Err(self.fail(e)),
        };
        self.comm_ms += env.comm_ms;
        self.response_bytes += env.payload.len();
        match decode_frame(&env.payload) {
            Ok(Frame::Chunk(a)) => Ok(Some(StreamChunk {
                schema: a.schema,
                batch: a.batch,
                comm_ms: env.comm_ms,
            })),
            Ok(Frame::End(stats)) => {
                self.stats = Some(stats);
                self.finished = true;
                Ok(None)
            }
            Ok(Frame::Error { kind, message }) => {
                Err(self.fail(DiscoError::from_kind(&kind, message)))
            }
            Err(e) => Err(self.fail(e)),
        }
    }

    /// A mid-stream failure is terminal: mark the stream finished and
    /// feed the breaker/health trackers, mirroring a failed submit.
    fn fail(&mut self, e: DiscoError) -> DiscoError {
        self.finished = true;
        self.source = None;
        self.core.record(&self.endpoint, false);
        self.core
            .note_health(&self.endpoint, false, 0.0, &SubmitOptions::default());
        e
    }

    /// The wrapper's execution stats, available after the end-of-stream
    /// frame has been consumed (`next_chunk` returned `Ok(None)`).
    pub fn stats(&self) -> Option<ExecStats> {
        self.stats
    }

    /// Total simulated communication time across all frames so far.
    pub fn comm_ms(&self) -> f64 {
        self.comm_ms
    }

    /// Simulated communication time of the first frame alone — the
    /// wire's contribution to time-to-first-row.
    pub fn first_frame_comm_ms(&self) -> f64 {
        self.first_frame_comm_ms
    }

    /// Measured wall-clock time from the request being sent to the first
    /// frame being taken off the stream, retries included — and, when the
    /// caller had other opens in flight, the time it spent on those
    /// before turning to this one.
    pub fn wall_first_ms(&self) -> f64 {
        self.wall_first_ms
    }

    /// Attempts spent opening the stream (1 = first try succeeded).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The endpoint serving this stream — the race winner when the open
    /// was hedged.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Request size on the wire.
    pub fn request_bytes(&self) -> usize {
        self.request_bytes
    }

    /// Reply bytes received across all frames so far.
    pub fn response_bytes(&self) -> usize {
        self.response_bytes
    }
}

/// Reliability-aware client over any [`Transport`].
///
/// The state lives behind an `Arc` for one reason: every open
/// [`SubmitStream`] holds a handle on it, because a stream that fails
/// mid-flight records that failure into its endpoint's breaker and
/// health tracker long after the call that opened it returned, and the
/// executor's operator tree owns its streams without borrowing the
/// client.
pub struct TransportClient {
    core: Arc<ClientCore>,
}

/// Shared state and submit machinery behind [`TransportClient`].
struct ClientCore {
    transport: Box<dyn Transport>,
    retry: RetryPolicy,
    breaker_policy: BreakerPolicy,
    breakers: Mutex<BTreeMap<String, CircuitBreaker>>,
    health: Option<Arc<HealthTracker>>,
    jitter: Mutex<StdRng>,
}

impl TransportClient {
    /// Wrap a transport with default retry and breaker policies.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        TransportClient {
            core: Arc::new(ClientCore {
                transport,
                retry: RetryPolicy::default(),
                breaker_policy: BreakerPolicy::default(),
                breakers: Mutex::new(BTreeMap::new()),
                health: None,
                jitter: Mutex::new(seeded(DEFAULT_SEED, "transport:retry-jitter")),
            }),
        }
    }

    /// Exclusive access for the builders, which run before any stream
    /// holds the core.
    fn core_mut(&mut self) -> &mut ClientCore {
        Arc::get_mut(&mut self.core).expect("configure the client while no stream is open")
    }

    /// Override the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.core_mut().retry = retry;
        self
    }

    /// Override the breaker policy (builder style).
    pub fn with_breaker(mut self, policy: BreakerPolicy) -> Self {
        self.core_mut().breaker_policy = policy;
        self
    }

    /// Record submit outcomes into a shared per-wrapper health tracker
    /// (builder style). The mediator shares the same tracker with its
    /// estimator, closing the loop from observed failures back into
    /// wrapper-scope cost penalties.
    pub fn with_health(mut self, health: Arc<HealthTracker>) -> Self {
        self.core_mut().health = Some(health);
        self
    }

    /// Re-seed the retry-backoff jitter RNG (builder style).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.core_mut().jitter = Mutex::new(seeded(seed, "transport:retry-jitter"));
        self
    }

    /// The shared health tracker, if one was attached.
    pub fn health(&self) -> Option<Arc<HealthTracker>> {
        self.core.health.clone()
    }

    /// Endpoints reachable through the underlying transport.
    pub fn endpoints(&self) -> Vec<String> {
        self.core.transport.endpoints()
    }

    /// Current breaker state for an endpoint, if any calls were made.
    pub fn breaker_state(&self, endpoint: &str) -> Option<BreakerState> {
        self.core
            .breakers
            .lock()
            .expect("breaker lock")
            .get(endpoint)
            .map(|b| b.state())
    }

    /// Fetch an endpoint's registration payload over the wire
    /// (Figure 1, steps 1–2). Registration is not retried: it runs at
    /// connect time where a failure should be loud.
    pub fn register(&self, endpoint: &str) -> Result<Registration> {
        let env = self.core.transport.call(
            endpoint,
            &Request::Register.to_wire_bytes(),
            Duration::from_millis(self.core.retry.deadline_ms),
        )?;
        match Response::from_wire_bytes(&env.payload)?.into_result()? {
            Response::Registration(reg) => Ok(reg),
            other => Err(DiscoError::Exec(format!(
                "endpoint `{endpoint}` answered registration with {other:?}"
            ))),
        }
    }

    /// Submit a subplan one-shot — the whole subanswer in a single
    /// reply, decoded to rows — with deadlines, retries and circuit
    /// breaking. The executor streams instead
    /// ([`begin_stream`](Self::begin_stream)); this is the plain RPC for
    /// tools and tests.
    pub fn submit(&self, endpoint: &str, plan: &LogicalPlan) -> Result<SubmitOutcome> {
        self.core.submit(endpoint, plan)
    }

    /// First half of a stream open: encode the plan to `targets[0]`,
    /// acquire its breaker and queue the request, on the calling thread,
    /// without waiting for any reply. The other targets are replicas
    /// that [`finish_stream`](Self::finish_stream) may hedge or fail
    /// over to. Failures — an open breaker, an unknown endpoint — are
    /// reported by `finish_stream`; the only error here is an empty
    /// target list.
    pub fn begin_stream(
        &self,
        targets: Vec<HedgeTarget>,
        chunk_rows: u32,
    ) -> Result<PendingStream> {
        let first = targets
            .first()
            .ok_or_else(|| DiscoError::Exec("a stream open needs at least one target".into()))?;
        let primary = self.core.begin(first, chunk_rows);
        Ok(PendingStream {
            targets,
            chunk_rows,
            primary,
        })
    }

    /// Second half of a stream open: wait for the first frame and settle
    /// retries, hedges and failover, on the calling thread. With replicas
    /// left, a `straggler_ms` threshold (simulated ms, typically
    /// `straggler_factor × predicted TimeFirst`) and an unspent
    /// `hedge_allowance`, the primary's first frame is awaited for the
    /// threshold at the endpoint's sleep scale (up to the attempt
    /// deadline when it does not really sleep); a wait cut short there
    /// records nothing. A frame later than the threshold in simulated
    /// time, or none by then, opens the next replica as a hedge, through
    /// its breaker like any open (into a half-open breaker, the hedge is
    /// the single probe). The primary's frame lands at its `comm_ms`, the
    /// hedge's at the threshold plus its own: the earlier one is settled
    /// and serves the stream, the other is settled only if that fails,
    /// and is otherwise dropped. A failed replica fails over to the next
    /// at once without spending the allowance; an error is returned only
    /// when every replica failed. Attempt 1's deadline and the straggler
    /// bound count from [`begin_stream`](Self::begin_stream), so a reply
    /// that arrived while the caller was busy is taken at once. Each hedge
    /// is deducted from `hedge_allowance` as it opens, so the caller's
    /// allowance shows every hedge spent, whether the open then succeeds
    /// or fails.
    pub fn finish_stream(
        &self,
        pending: PendingStream,
        straggler_ms: Option<f64>,
        hedge_allowance: &mut u32,
    ) -> Result<HedgedStreamOutcome> {
        let PendingStream {
            targets,
            chunk_rows,
            primary,
        } = pending;
        let core = &self.core;
        let mut hedges = 0u32;
        // Loudest error wins the report: a non-transient failure (e.g. a
        // wrapper rejecting the plan) beats timeouts.
        let mut last_err: Option<DiscoError> = None;
        let mut current = (0usize, primary);
        let mut next = 1usize;
        loop {
            // The opens to settle, earliest first.
            let (mut first, mut second) = (current, None);
            let mut hedge = None;
            let threshold = straggler_ms.filter(|_| *hedge_allowance > 0 && next < targets.len());
            if let Some(threshold) = threshold {
                let primary = &mut first.1;
                let bound = core.straggler_bound(&primary.endpoint, threshold);
                let late = match core.wait_first(primary, bound) {
                    // Past a simulated deadline no later than the
                    // threshold, the attempt timed out before it could
                    // straggle.
                    FirstFrame::Landed(ms) => {
                        ms > threshold
                            && core
                                .sim_deadline(&primary.endpoint, &primary.opts)
                                .is_none_or(|d| d > threshold)
                    }
                    FirstFrame::Silent => true,
                    FirstFrame::Failed => false,
                };
                if late {
                    count(
                        names::TRANSPORT_HEDGES,
                        &[("wrapper", &targets[next].endpoint)],
                    );
                    hedges += 1;
                    *hedge_allowance -= 1;
                    let mut opened = core.begin(&targets[next], chunk_rows);
                    let hedge_at = core
                        .wait_first(&mut opened, None)
                        .landed_ms()
                        .map(|ms| threshold + ms);
                    let primary_at = core.wait_first(primary, Some(Duration::ZERO)).landed_ms();
                    let hedged = (next, opened);
                    let hedge_first = hedge_at.is_some_and(|h| primary_at.is_none_or(|p| h < p));
                    second = Some(if hedge_first {
                        std::mem::replace(&mut first, hedged)
                    } else {
                        hedged
                    });
                    hedge = Some(next);
                    next += 1;
                }
            }
            let mut ranked = std::iter::once(first).chain(second);
            while let Some((winner, open)) = ranked.next() {
                match core.finish(open) {
                    Ok(stream) => {
                        ranked.for_each(|(_, loser)| core.abandon(loser));
                        if hedge == Some(winner) {
                            let wrapper = &targets[winner].endpoint;
                            count(names::TRANSPORT_HEDGE_WINS, &[("wrapper", wrapper)]);
                        }
                        return Ok(HedgedStreamOutcome {
                            stream,
                            winner,
                            hedges,
                        });
                    }
                    Err(e) => {
                        let louder = !e.is_transient()
                            || last_err.as_ref().is_none_or(|prev| prev.is_transient());
                        if louder {
                            last_err = Some(e);
                        }
                    }
                }
            }
            // Every open so far failed: fail over.
            let Some(target) = targets.get(next) else {
                return Err(last_err
                    .unwrap_or_else(|| DiscoError::Exec("stream open made no attempts".into())));
            };
            current = (next, core.begin(target, chunk_rows));
            next += 1;
        }
    }
}

impl ClientCore {
    /// Effective per-attempt wall deadline: the per-call override (or
    /// the flat retry default), clamped so it can never be shorter than
    /// the endpoint's simulated round-trip floor converted to wall time
    /// — an aggressive predicted deadline on a slow link would
    /// otherwise time out every attempt before a reply could exist.
    fn attempt_deadline(&self, endpoint: &str, opts: &SubmitOptions) -> Duration {
        let mut deadline_ms = opts.deadline_ms.unwrap_or(self.retry.deadline_ms).max(1);
        if let Some(floor_sim_ms) = self.transport.latency_floor_ms(endpoint) {
            let scale = self.transport.sleep_scale(endpoint).unwrap_or(0.0);
            let floor_wall_ms = (floor_sim_ms * scale).ceil() as u64 + 1;
            deadline_ms = deadline_ms.max(floor_wall_ms);
        }
        Duration::from_millis(deadline_ms)
    }

    /// Effective simulated-time deadline, clamped above the endpoint's
    /// latency floor (with headroom for transfer and jitter) for the
    /// same reason as the wall clamp.
    fn sim_deadline(&self, endpoint: &str, opts: &SubmitOptions) -> Option<f64> {
        let sim = opts.sim_deadline_ms?;
        let floor = self
            .transport
            .latency_floor_ms(endpoint)
            .map(|f| f * 1.5)
            .unwrap_or(0.0);
        Some(sim.max(floor))
    }

    /// The wall-clock bound on a straggler wait of `threshold_ms`
    /// simulated milliseconds, converted at the endpoint's sleep scale.
    /// `None` when the endpoint does not really sleep: its first frame
    /// comes back at once, and its simulated time decides the race.
    fn straggler_bound(&self, endpoint: &str, threshold_ms: f64) -> Option<Duration> {
        let scale = self.transport.sleep_scale(endpoint).filter(|s| *s > 0.0)?;
        Duration::try_from_secs_f64(threshold_ms * scale / 1e3).ok()
    }

    /// Ask the endpoint's breaker for one call. A refusal is the
    /// fail-fast path: nothing is sent.
    fn admit(&self, endpoint: &str) -> Result<()> {
        if self.acquire(endpoint) {
            return Ok(());
        }
        // The wrapper is unreachable: an open breaker, or a spent budget.
        count(names::WRAPPER_UNAVAILABLE, &[("wrapper", endpoint)]);
        Err(DiscoError::Unavailable(format!(
            "circuit breaker open for `{endpoint}`"
        )))
    }

    /// The reliability loop every submit runs once [`admit`](Self::admit)
    /// has let its first attempt through: up to `max_attempts` tries with
    /// full-jitter backoff (and a fresh breaker acquire) between them,
    /// each outcome recorded by [`note_outcome`](Self::note_outcome).
    /// `attempt` makes one try (given its 1-based number) and returns its
    /// product with the simulated communication time health samples.
    fn with_retries<T>(
        &self,
        endpoint: &str,
        opts: &SubmitOptions,
        mut attempt: impl FnMut(u32) -> Result<(T, f64)>,
    ) -> Result<T> {
        let mut backoff_ms = self.retry.backoff_base_ms as f64;
        let mut last_err = DiscoError::Exec(format!("no attempts made against `{endpoint}`"));
        for n in 1..=self.retry.max_attempts.max(1) {
            if n > 1 {
                count(names::TRANSPORT_RETRIES, &[("wrapper", endpoint)]);
                // Full jitter: sleep uniform(0, backoff) so clients
                // sharing an endpoint don't retry in lockstep.
                let sleep_ms = backoff_ms * self.jitter.lock().expect("jitter lock").gen_f64();
                if sleep_ms >= 0.5 {
                    std::thread::sleep(Duration::from_micros((sleep_ms * 1000.0) as u64));
                }
                backoff_ms *= self.retry.backoff_factor;
            }
            let outcome = attempt(n);
            self.note_outcome(endpoint, opts, &outcome);
            match outcome {
                Ok((out, _)) => return Ok(out),
                Err(e) if e.is_transient() => {
                    last_err = e;
                    // The breaker may have opened mid-budget; stop early
                    // rather than hammering a tripped endpoint.
                    if n < self.retry.max_attempts {
                        self.admit(endpoint)?;
                    }
                }
                // Non-transient errors are the wrapper's final word.
                Err(e) => return Err(e),
            }
        }
        // Retry budget exhausted: the wrapper never answered.
        // The wrapper is unreachable: an open breaker, or a spent budget.
        count(names::WRAPPER_UNAVAILABLE, &[("wrapper", endpoint)]);
        Err(last_err)
    }

    /// Record one attempt's outcome into the breaker and the health
    /// tracker: a success with its simulated communication time, or a
    /// transient failure. A non-transient error judges the plan, not the
    /// wrapper's health, and is not recorded.
    fn note_outcome<T>(&self, endpoint: &str, opts: &SubmitOptions, outcome: &Result<(T, f64)>) {
        match outcome {
            Ok((_, comm_ms)) => {
                self.record(endpoint, true);
                self.note_health(endpoint, true, *comm_ms, opts);
                count(
                    names::SUBMIT_DEADLINES,
                    &[("wrapper", endpoint), ("outcome", "met")],
                );
            }
            Err(e) if e.is_transient() => {
                self.record(endpoint, false);
                self.note_health(endpoint, false, 0.0, opts);
                if e.kind() == "timeout" {
                    let labels = [("wrapper", endpoint), ("outcome", "missed")];
                    count(names::SUBMIT_DEADLINES, &labels);
                }
            }
            Err(_) => {}
        }
    }

    /// One-shot submit: every retry ships the same request bytes.
    fn submit(&self, endpoint: &str, plan: &LogicalPlan) -> Result<SubmitOutcome> {
        let started = Instant::now();
        let request = Request::Submit(plan.clone()).to_wire_bytes();
        let opts = SubmitOptions::default();
        let deadline = self.attempt_deadline(endpoint, &opts);
        self.admit(endpoint)?;
        self.with_retries(endpoint, &opts, |attempts| {
            let env = self.transport.call(endpoint, &request, deadline)?;
            match Response::from_wire_bytes(&env.payload)?.into_result()? {
                Response::Answer(answer) => Ok((
                    SubmitOutcome {
                        answer,
                        comm_ms: env.comm_ms,
                        wall_ms: started.elapsed().as_secs_f64() * 1e3,
                        attempts,
                        request_bytes: env.request_bytes,
                        response_bytes: env.response_bytes,
                    },
                    env.comm_ms,
                )),
                other => Err(DiscoError::Exec(format!(
                    "endpoint `{endpoint}` answered submit with {other:?}"
                ))),
            }
        })
    }

    /// First half of a stream open: encode the plan, acquire the breaker
    /// and queue attempt 1 at the endpoint. Relies on
    /// [`Transport::call_stream`] returning as soon as the request is
    /// queued, so a caller can begin any number of opens before it waits
    /// on one.
    fn begin(&self, target: &HedgeTarget, chunk_rows: u32) -> PendingOpen {
        let started = Instant::now();
        let endpoint = &target.endpoint;
        let request = Request::SubmitStream {
            plan: target.plan.clone(),
            chunk_rows,
        }
        .to_wire_bytes();
        let first = match self.admit(endpoint) {
            Ok(()) => FirstAttempt::Sent(self.transport.call_stream(endpoint, &request)),
            Err(refused) => FirstAttempt::Refused(refused),
        };
        PendingOpen {
            endpoint: endpoint.clone(),
            request,
            opts: target.opts,
            started,
            first,
            reply: None,
        }
    }

    /// Wait for attempt 1's first frame until `bound` after `begin` (or,
    /// with no bound or a later one, until the attempt's deadline), and
    /// keep what arrived for [`finish`](Self::finish). A wait that runs
    /// out at the bound rather than at the deadline leaves the attempt
    /// pending and records nothing.
    fn wait_first(&self, open: &mut PendingOpen, bound: Option<Duration>) -> FirstFrame {
        if open.reply.is_none() {
            let FirstAttempt::Sent(Ok(stream)) = &mut open.first else {
                return FirstFrame::Failed;
            };
            let deadline = self.attempt_deadline(&open.endpoint, &open.opts);
            let until = bound.map_or(deadline, |b| b.min(deadline));
            let got = stream.next_frame(until.saturating_sub(open.started.elapsed()));
            if until < deadline && got.as_ref().is_err_and(|e| e.kind() == "timeout") {
                return FirstFrame::Silent;
            }
            open.reply = Some(got);
        }
        match &open.reply {
            Some(Ok(env)) => FirstFrame::Landed(env.comm_ms),
            _ => FirstFrame::Failed,
        }
    }

    /// Second half of a stream open: wait for attempt 1's first frame
    /// against what is left of its deadline since [`begin`](Self::begin)
    /// (unless a straggler wait already took it), and on a transient
    /// failure run the remaining attempts. The retry loop runs only until
    /// a first frame is delivered: every retry re-issues the whole
    /// stream, which is safe exactly because no chunk has been surfaced
    /// yet. The simulated-time deadline is enforced on the first frame
    /// (see [`first_chunk`](Self::first_chunk)); later frames pay
    /// transfer only and ride the per-frame wall deadline.
    fn finish(self: &Arc<Self>, pending: PendingOpen) -> Result<SubmitStream> {
        let PendingOpen {
            endpoint,
            request,
            opts,
            started,
            first,
            mut reply,
        } = pending;
        let deadline = self.attempt_deadline(&endpoint, &opts);
        let mut first = match first {
            FirstAttempt::Refused(refused) => return Err(refused),
            FirstAttempt::Sent(sent) => Some(sent),
        };
        self.with_retries(&endpoint, &opts, |attempts| {
            let (mut stream, wait) = match first.take() {
                Some(sent) => (sent?, deadline.saturating_sub(started.elapsed())),
                None => (self.transport.call_stream(&endpoint, &request)?, deadline),
            };
            let env = match reply.take() {
                Some(reply) => reply?,
                None => stream.next_frame(wait)?,
            };
            let first = self.first_chunk(&endpoint, &opts, &env)?;
            let opened = SubmitStream {
                core: Arc::clone(self),
                endpoint: endpoint.clone(),
                source: Some(stream),
                deadline,
                buffered: VecDeque::from([StreamChunk {
                    schema: first.schema,
                    batch: first.batch,
                    comm_ms: env.comm_ms,
                }]),
                stats: None,
                comm_ms: env.comm_ms,
                first_frame_comm_ms: env.comm_ms,
                wall_first_ms: started.elapsed().as_secs_f64() * 1e3,
                attempts,
                request_bytes: request.len(),
                response_bytes: env.payload.len(),
                finished: false,
            };
            Ok((opened, env.comm_ms))
        })
    }

    /// Check an attempt's first frame: within the simulated deadline (it
    /// carries the round trip, jitter and any injected delay) and
    /// carrying the schema-bearing chunk.
    fn first_chunk(
        &self,
        endpoint: &str,
        opts: &SubmitOptions,
        env: &FrameEnvelope,
    ) -> Result<SubAnswer> {
        if let Some(sim) = self
            .sim_deadline(endpoint, opts)
            .filter(|sim| env.comm_ms > *sim)
        {
            return Err(DiscoError::Timeout(format!(
                "first frame from `{endpoint}` took {:.0} simulated ms, deadline {sim:.0}",
                env.comm_ms
            )));
        }
        match decode_frame(&env.payload)? {
            Frame::Chunk(a) => Ok(a),
            Frame::End(_) => Err(DiscoError::Exec(format!(
                "stream from `{endpoint}` ended before delivering a schema chunk"
            ))),
            Frame::Error { kind, message } => Err(DiscoError::from_kind(&kind, message)),
        }
    }

    /// Drop a race's loser, releasing its producer. With its first frame
    /// in hand, its attempt is recorded as it would have settled (a
    /// straggler still feeds its breaker and health tracker); a loser
    /// still silent was neither answered nor failed, and records nothing.
    fn abandon(&self, open: PendingOpen) {
        let Some(reply) = open.reply else {
            return;
        };
        let outcome = reply.and_then(|env| {
            self.first_chunk(&open.endpoint, &open.opts, &env)
                .map(|_| ((), env.comm_ms))
        });
        self.note_outcome(&open.endpoint, &open.opts, &outcome);
    }

    /// Record one attempt outcome into the shared health tracker and
    /// refresh the wrapper's penalty gauge.
    fn note_health(&self, endpoint: &str, success: bool, comm_ms: f64, opts: &SubmitOptions) {
        let Some(health) = &self.health else {
            return;
        };
        if success {
            health.record_success(endpoint, comm_ms, opts.predicted_total_ms);
        } else {
            health.record_failure(endpoint);
        }
        if disco_obs::enabled() {
            disco_obs::gauge(names::WRAPPER_PENALTY, &[("wrapper", endpoint)])
                .set(health.penalty(endpoint));
        }
    }

    fn acquire(&self, endpoint: &str) -> bool {
        let mut breakers = self.breakers.lock().expect("breaker lock");
        let b = breakers
            .entry(endpoint.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.breaker_policy));
        let before = b.state();
        let ok = b.try_acquire();
        note_transition(endpoint, before, b.state());
        ok
    }

    fn record(&self, endpoint: &str, success: bool) {
        let mut breakers = self.breakers.lock().expect("breaker lock");
        let b = breakers
            .entry(endpoint.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.breaker_policy));
        let before = b.state();
        if success {
            b.on_success();
        } else {
            b.on_failure();
        }
        note_transition(endpoint, before, b.state());
    }
}

/// Bump a per-wrapper transport counter, when metrics are on.
fn count(name: &str, labels: &[(&str, &str)]) {
    if disco_obs::enabled() {
        disco_obs::counter(name, labels).inc();
    }
}

/// Count a circuit-breaker state change, labelled with the new state.
fn note_transition(endpoint: &str, before: BreakerState, after: BreakerState) {
    if before == after || !disco_obs::enabled() {
        return;
    }
    let to = match after {
        BreakerState::Closed => "closed",
        BreakerState::HalfOpen => "half_open",
        BreakerState::Open => "open",
    };
    disco_obs::counter(
        names::BREAKER_TRANSITIONS,
        &[("wrapper", endpoint), ("to", to)],
    )
    .inc();
}

/// Convenience: encode a plan to its shipped bytes (used by size
/// accounting in benches and tests).
pub fn plan_wire_bytes(plan: &LogicalPlan) -> Vec<u8> {
    let mut w = WireWriter::new();
    encode_plan(plan, &mut w);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelTransport;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::netsim::NetProfile;
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
    use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
    use disco_wrapper::{SourceWrapper, Wrapper};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ])
    }

    fn wrapper(name: &str) -> Box<dyn Wrapper> {
        let mut store = PagedStore::new(name, CostProfile::relational());
        store
            .add_collection(
                "T",
                CollectionBuilder::new(schema())
                    .rows((0..60i64).map(|i| vec![Value::Long(i), Value::Long(i % 3)])),
            )
            .unwrap();
        Box::new(SourceWrapper::new(name, store))
    }

    fn plan(name: &str) -> LogicalPlan {
        PlanBuilder::scan(QualifiedName::new(name, "T"), schema())
            .select("id", CompareOp::Lt, 9i64)
            .submit(name)
            .build()
    }

    fn client(faults: FaultPlan) -> TransportClient {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(wrapper("s"), NetProfile::lan(), faults);
        TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
            max_attempts: 3,
            deadline_ms: 40,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
        })
    }

    #[test]
    fn healthy_submit_reports_accounting() {
        let c = client(FaultPlan::none());
        let out = c.submit("s", &plan("s")).unwrap();
        assert_eq!(out.answer.batch.len(), 9);
        assert_eq!(out.attempts, 1);
        assert!(out.comm_ms >= 100.0);
        assert!(out.request_bytes > 0 && out.response_bytes > 0);
        assert_eq!(c.breaker_state("s"), Some(BreakerState::Closed));
    }

    #[test]
    fn transient_drops_are_retried_to_success() {
        let c = client(FaultPlan::first_n(FaultKind::Drop, 2));
        let out = c.submit("s", &plan("s")).unwrap();
        assert_eq!(out.attempts, 3);
        assert_eq!(out.answer.batch.len(), 9);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_the_transient_error() {
        let c = client(FaultPlan::always(FaultKind::Drop));
        let err = c.submit("s", &plan("s")).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn breaker_fails_fast_once_open() {
        let c = client(FaultPlan::always(FaultKind::Unavailable)).with_breaker(BreakerPolicy {
            failure_threshold: 3,
            cooldown_calls: 2,
        });
        // One full submit burns exactly the threshold.
        assert!(c.submit("s", &plan("s")).is_err());
        assert_eq!(c.breaker_state("s"), Some(BreakerState::Open));
        // Subsequent submits are rejected without touching the endpoint.
        let err = c.submit("s", &plan("s")).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.message().contains("circuit breaker"));
    }

    #[test]
    fn non_transient_wrapper_errors_are_not_retried() {
        let mut t = ChannelTransport::new();
        t.add_wrapper(wrapper("s"));
        let c = TransportClient::new(Box::new(t));
        // Plan addressed to a different wrapper: the wrapper rejects it.
        let err = c.submit("s", &plan("ghost")).unwrap_err();
        assert_eq!(err.kind(), "exec");
        assert_eq!(c.breaker_state("s"), Some(BreakerState::Closed));
    }

    #[test]
    fn registration_travels_the_wire() {
        let c = client(FaultPlan::none());
        let reg = c.register("s").unwrap();
        assert_eq!(reg.collections.len(), 1);
        assert_eq!(reg.collections[0].0, "T");
    }

    /// Begin and finish a one-target stream open back to back.
    fn open(
        c: &TransportClient,
        targets: Vec<HedgeTarget>,
        chunk_rows: u32,
    ) -> Result<SubmitStream> {
        let pending = c.begin_stream(targets, chunk_rows)?;
        c.finish_stream(pending, None, &mut 0).map(|out| out.stream)
    }

    /// Drain a stream, returning (chunks, rows, total comm).
    fn drain(stream: &mut SubmitStream) -> (usize, usize, f64) {
        let mut chunks = 0;
        let mut rows = 0;
        while let Some(c) = stream.next_chunk().unwrap() {
            chunks += 1;
            rows += c.batch.len();
        }
        (chunks, rows, stream.comm_ms())
    }

    #[test]
    fn streamed_submit_matches_one_shot_answer() {
        let c = client(FaultPlan::none());
        let one_shot = c.submit("s", &plan("s")).unwrap();
        let mut stream = open(&c, target("s"), 4).unwrap();
        let mut batches = Vec::new();
        let mut schema = None;
        while let Some(chunk) = stream.next_chunk().unwrap() {
            schema = Some(chunk.schema.clone());
            batches.push(chunk.batch);
        }
        let parts: Vec<&Batch> = batches.iter().collect();
        let reassembled = Batch::concat(&parts).unwrap();
        assert_eq!(schema.unwrap(), one_shot.answer.schema);
        assert_eq!(reassembled, one_shot.answer.batch);
        assert_eq!(stream.stats(), Some(one_shot.answer.stats));
        assert_eq!(stream.attempts(), 1);
        assert!(stream.first_frame_comm_ms() >= 100.0);
        // 9 rows in chunks of 4 → 3 chunks.
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn stream_open_retries_transient_drops() {
        let c = client(FaultPlan::first_n(FaultKind::Drop, 2));
        let mut stream = open(&c, target("s"), 64).unwrap();
        assert_eq!(stream.attempts(), 3);
        let (_, rows, _) = drain(&mut stream);
        assert_eq!(rows, 9);
    }

    #[test]
    fn stream_open_fails_like_a_submit_when_budget_exhausts() {
        let c = client(FaultPlan::always(FaultKind::Drop));
        let err = open(&c, target("s"), 64).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(err.kind(), "timeout");
    }

    /// A client over endpoint `s` under `faults`, and a handle on the
    /// transport to read `requests_served` from.
    fn shared_client(
        faults: FaultPlan,
        retry: RetryPolicy,
    ) -> (TransportClient, Arc<ChannelTransport>) {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(wrapper("s"), NetProfile::lan(), faults);
        let t = Arc::new(t);
        let c = TransportClient::new(Box::new(Arc::clone(&t))).with_retry(retry);
        (c, t)
    }

    fn target(name: &str) -> Vec<HedgeTarget> {
        vec![HedgeTarget {
            endpoint: name.into(),
            plan: plan(name),
            opts: SubmitOptions::default(),
        }]
    }

    fn attempts(max_attempts: u32, deadline_ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            deadline_ms,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
        }
    }

    #[test]
    fn open_breaker_at_begin_sends_nothing() {
        let (c, t) = shared_client(
            FaultPlan::always(FaultKind::Unavailable),
            attempts(3, 2_000),
        );
        let c = c.with_breaker(BreakerPolicy {
            failure_threshold: 3,
            cooldown_calls: 2,
        });
        // One full open burns exactly the threshold.
        assert!(open(&c, target("s"), 64).is_err());
        assert_eq!(c.breaker_state("s"), Some(BreakerState::Open));
        let served = t.requests_served("s");
        assert_eq!(served, 3);

        let pending = c.begin_stream(target("s"), 64).unwrap();
        let err = c.finish_stream(pending, None, &mut 0).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.message().contains("circuit breaker"));
        assert_eq!(t.requests_served("s"), served);
    }

    #[test]
    fn dropped_first_attempt_is_retried_inside_finish() {
        // Fault sequence 0 swallows the attempt `begin` sent; `finish`
        // sends attempt 2, which consumes sequence 1 and is served.
        let (c, t) = shared_client(FaultPlan::first_n(FaultKind::Drop, 1), attempts(3, 40));
        let pending = c.begin_stream(target("s"), 64).unwrap();
        let mut out = c.finish_stream(pending, None, &mut 0).unwrap();
        assert_eq!(out.stream.attempts(), 2);
        assert_eq!(t.requests_served("s"), 2);
        assert_eq!(drain(&mut out.stream).1, 9);
    }

    #[test]
    fn reply_that_arrived_while_the_caller_was_busy_is_taken_at_once() {
        let (c, t) = shared_client(FaultPlan::none(), attempts(2, 2_000));
        let pending = c.begin_stream(target("s"), 64).unwrap();
        // Busy elsewhere: a second request to the same endpoint. Its
        // worker serves in arrival order, so once this one is answered
        // the stream's first frame is already waiting.
        c.submit("s", &plan("s")).unwrap();
        let mut out = c.finish_stream(pending, None, &mut 0).unwrap();
        assert_eq!(out.stream.attempts(), 1);
        assert_eq!(t.requests_served("s"), 2);
        assert_eq!(drain(&mut out.stream).1, 9);
    }

    #[test]
    fn overdue_first_attempt_gets_no_extra_time() {
        // Links that really sleep. `late` answers after ≥ 500 ms, against
        // a deadline clamped up to its 101 ms latency floor; one round
        // trip to `nap` keeps the caller busy for ≥ 150 ms.
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(
            wrapper("late"),
            NetProfile::lan().with_sleep_scale(1.0),
            FaultPlan::always(FaultKind::Delay(400.0)),
        );
        t.add_wrapper_with(
            wrapper("nap"),
            NetProfile::lan().with_sleep_scale(1.5),
            FaultPlan::none(),
        );
        let t = Arc::new(t);
        let c = TransportClient::new(Box::new(Arc::clone(&t))).with_retry(attempts(1, 50));

        let begun = Instant::now();
        let pending = c.begin_stream(target("late"), 64).unwrap();
        // Busy elsewhere (answered or timed out, the time has passed).
        let _ = c.submit("nap", &plan("nap"));
        assert!(begun.elapsed() >= Duration::from_millis(150));
        // The deadline counted from `begin` is gone and no reply is
        // there: `finish` reports the timeout without waiting again.
        let finishing = Instant::now();
        let err = c.finish_stream(pending, None, &mut 0).unwrap_err();
        assert_eq!(err.kind(), "timeout");
        assert!(
            finishing.elapsed() < Duration::from_millis(50),
            "finish waited {:?} on an overdue attempt",
            finishing.elapsed()
        );
        assert_eq!(t.requests_served("late"), 1);
    }

    #[test]
    fn begun_opens_reach_a_shared_endpoint_in_begin_order() {
        // Run `r` consumes fault sequences 2r and 2r + 1; every even one
        // fails. The open begun first must always be the one that fails.
        const RUNS: u64 = 100;
        let faults = (0..RUNS).fold(FaultPlan::none(), |plan, r| {
            plan.window(2 * r, 2 * r + 1, FaultKind::Unavailable)
        });
        let (c, t) = shared_client(faults, attempts(1, 2_000));
        let c = c.with_breaker(BreakerPolicy {
            failure_threshold: u32::MAX,
            cooldown_calls: 1,
        });
        for run in 0..RUNS {
            let site0 = c.begin_stream(target("s"), 64).unwrap();
            let site1 = c.begin_stream(target("s"), 64).unwrap();
            let first = c.finish_stream(site0, None, &mut 0);
            let second = c.finish_stream(site1, None, &mut 0);
            assert_eq!(first.unwrap_err().kind(), "unavailable", "run {run}");
            assert_eq!(second.unwrap().stream.attempts(), 1, "run {run}");
        }
        assert_eq!(t.requests_served("s"), 2 * RUNS);
    }

    #[test]
    fn hedged_stream_fails_over_to_the_replica() {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(
            wrapper("sa"),
            NetProfile::lan(),
            FaultPlan::always(FaultKind::Unavailable),
        );
        t.add_wrapper_with(wrapper("sb"), NetProfile::lan(), FaultPlan::none());
        let c = TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
            max_attempts: 2,
            deadline_ms: 40,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
        });
        let targets = vec![
            HedgeTarget {
                endpoint: "sa".into(),
                plan: plan("sa"),
                opts: SubmitOptions::default(),
            },
            HedgeTarget {
                endpoint: "sb".into(),
                plan: plan("sb"),
                opts: SubmitOptions::default(),
            },
        ];
        let pending = c.begin_stream(targets, 64).unwrap();
        let mut out = c.finish_stream(pending, None, &mut 2).unwrap();
        assert_eq!(out.winner, 1);
        assert_eq!(out.hedges, 0); // failover, not a straggler hedge
        let (_, rows, _) = drain(&mut out.stream);
        assert_eq!(rows, 9);
    }
}
