//! [`ChannelTransport`]: wrappers hosted in-process behind a byte
//! boundary, each with its own simulated link.
//!
//! This is the in-process stand-in for a real network stack, but it is an
//! honest one: requests and replies cross the boundary as bytes (decoded
//! and re-encoded on the endpoint's side), each endpoint has its own
//! simulated [`NetProfile`] and optional [`FaultPlan`], and a lost message
//! surfaces to the caller exactly as a deadline expiry would.
//!
//! A wrapper is a service, not a thread. The communication cost of a
//! call is a formula on the virtual clock, so an endpoint needs a thread
//! of its own only when there is a wait to simulate: a link that really
//! sleeps (`sleep_scale > 0`) or a fault schedule, whose dropped messages
//! are silences a caller has to sit through. [`add_wrapper_with`]
//! decides that once from the profile and the plan it is given. Every
//! other endpoint is *direct*: the request is decoded, served and the
//! reply encoded on the caller's thread, with the same bytes, the same
//! `comm_ms` and the same accounting as a worker would produce.
//!
//! [`add_wrapper_with`]: ChannelTransport::add_wrapper_with

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use disco_common::rng::{seeded, StdRng, DEFAULT_SEED};
use disco_common::wire::{WireDecode, WireEncode};
use disco_common::{DiscoError, Result};
use disco_sources::SubAnswer;
use disco_wrapper::Wrapper;

use crate::fault::{FaultKind, FaultPlan};
use crate::netsim::NetProfile;
use crate::wire::{Frame, Request, Response};
use crate::{Envelope, FrameEnvelope, FrameStream, Transport};

/// Per-stream reply channel capacity of a worker endpoint: the worker
/// can run at most this many frames ahead of the consumer before its
/// `send` blocks. A direct endpoint needs no window — it produces a frame
/// when the consumer pulls one.
const STREAM_WINDOW: usize = 4;

/// One hosted wrapper and the link in front of it.
struct Endpoint {
    wrapper: Box<dyn Wrapper>,
    profile: NetProfile,
    faults: FaultPlan,
    /// Jitter source: one draw per request, in arrival order. Behind a
    /// mutex because a direct endpoint's callers are its arrivals; a
    /// draw leaves the generator valid, so a poisoned lock is recovered.
    jitter: Mutex<StdRng>,
    /// Requests that reached the endpoint, dropped ones included.
    served: AtomicU64,
}

impl Endpoint {
    fn arrived(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn jitter_draw(&self) -> f64 {
        self.jitter
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gen_f64()
    }

    /// Run the wrapper. A panic inside it is this request's error reply,
    /// not the end of the endpoint (or of the caller's session).
    fn guarded<T>(&self, run: impl FnOnce(&dyn Wrapper) -> Result<T>) -> Result<T> {
        let wrapper = self.wrapper.as_ref();
        catch_unwind(AssertUnwindSafe(|| run(wrapper))).unwrap_or_else(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Err(DiscoError::Exec(format!(
                "wrapper `{}` panicked: {what}",
                wrapper.name()
            )))
        })
    }

    /// The request a reply is owed for: it decoded, and the fault plan
    /// lets this one through to the wrapper.
    fn admit(&self, decoded: Result<Request>, action: Option<FaultKind>) -> Result<Request> {
        let request = decoded?;
        if matches!(action, Some(FaultKind::Unavailable)) {
            return Err(DiscoError::Unavailable(format!(
                "endpoint `{}` is unavailable",
                self.wrapper.name()
            )));
        }
        Ok(request)
    }

    /// The one-shot reply to a request as it arrived.
    fn respond(&self, decoded: Result<Request>, action: Option<FaultKind>) -> Response {
        let result = self
            .admit(decoded, action)
            .and_then(|request| match request {
                Request::Register => self
                    .guarded(|w| w.registration())
                    .map(Response::Registration),
                Request::Submit(plan) => self.guarded(|w| w.execute(&plan)).map(Response::Answer),
                Request::SubmitStream { .. } => Err(DiscoError::Exec(
                    "streaming submit requires a streaming call".into(),
                )),
            });
        result.unwrap_or_else(|e| Response::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
        })
    }

    /// Execute a streaming submit as it arrived and return its reply
    /// frames, none of them encoded yet.
    fn stream(&self, decoded: Result<Request>, action: Option<FaultKind>) -> Frames {
        let executed = self
            .admit(decoded, action)
            .and_then(|request| match request {
                Request::SubmitStream { plan, chunk_rows } => self
                    .guarded(|w| w.execute(&plan))
                    .map(|answer| (answer, chunk_rows)),
                _ => Err(DiscoError::Exec(
                    "streaming call requires a streaming submit".into(),
                )),
            });
        match executed {
            Ok((answer, chunk_rows)) => Frames::Chunks {
                answer,
                from: 0,
                chunk_rows: (chunk_rows as usize).max(1),
            },
            Err(e) => Frames::Last(Frame::Error {
                kind: e.kind().to_string(),
                message: e.message().to_string(),
            }),
        }
    }
}

/// The reply to one streaming call, one encoded frame per `next`: chunks
/// that are row ranges of the wrapper's answer, encoded from its columns
/// — always at least one, so an empty answer still ships its schema — then
/// `End(stats)`; or a lone `Error`. A frame is encoded when it is asked
/// for, so frames nobody pulls cost nothing.
enum Frames {
    /// Rows `from..` of the answer have not shipped.
    Chunks {
        answer: SubAnswer,
        from: usize,
        chunk_rows: usize,
    },
    /// Only the terminator is left.
    Last(Frame),
    Done,
}

impl Iterator for Frames {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        match std::mem::replace(self, Frames::Done) {
            Frames::Chunks {
                answer,
                from,
                chunk_rows,
            } => {
                let until = (from + chunk_rows).min(answer.batch.len());
                let payload = Frame::chunk_bytes(&answer.schema, &answer.batch, from..until);
                *self = if until < answer.batch.len() {
                    Frames::Chunks {
                        answer,
                        from: until,
                        chunk_rows,
                    }
                } else {
                    Frames::Last(Frame::End(answer.stats))
                };
                Some(payload)
            }
            Frames::Last(frame) => Some(frame.to_wire_bytes()),
            Frames::Done => None,
        }
    }
}

/// Simulated communication time of one exchange, payload by payload: the
/// first pays the full round trip (latency, the request's and its own
/// transfer, jitter and any injected delay); later ones — the frames of
/// a stream — pay their transfer only, pipelined on the established
/// exchange.
struct Exchange {
    request_bytes: usize,
    jitter_draw: f64,
    delay_ms: f64,
    opened: bool,
}

impl Exchange {
    fn new(request_bytes: usize, jitter_draw: f64, action: Option<FaultKind>) -> Exchange {
        Exchange {
            request_bytes,
            jitter_draw,
            delay_ms: match action {
                Some(FaultKind::Delay(ms)) => ms,
                _ => 0.0,
            },
            opened: false,
        }
    }

    fn comm_ms(&mut self, profile: &NetProfile, payload_bytes: usize) -> f64 {
        if std::mem::replace(&mut self.opened, true) {
            profile.transfer_ms(payload_bytes)
        } else {
            profile.comm_ms(self.request_bytes, payload_bytes, self.jitter_draw) + self.delay_ms
        }
    }
}

/// One queued call: the encoded request and the channel to answer on.
struct Job {
    request: Vec<u8>,
    reply: ReplyTo,
}

/// Where a job's reply goes: a one-shot response channel, or a bounded
/// frame channel for streaming submits.
enum ReplyTo {
    Once(Sender<Reply>),
    Stream(SyncSender<Reply>),
}

/// What the worker sends back: simulated communication time + payload.
struct Reply {
    comm_ms: f64,
    payload: Vec<u8>,
}

/// The thread behind an endpoint that has something to wait for.
struct Worker {
    tx: Sender<Job>,
    join: JoinHandle<()>,
}

impl Worker {
    fn spawn(endpoint: Arc<Endpoint>) -> Worker {
        let (tx, rx) = mpsc::channel::<Job>();
        let join = std::thread::Builder::new()
            .name(format!("wrapper-{}", endpoint.wrapper.name()))
            .spawn(move || endpoint.work(rx))
            .expect("spawn wrapper worker thread");
        Worker { tx, join }
    }

    fn send(&self, endpoint: &str, request: &[u8], reply: ReplyTo) -> Result<()> {
        let job = Job {
            request: request.to_vec(),
            reply,
        };
        self.tx
            .send(job)
            .map_err(|_| DiscoError::Unavailable(format!("endpoint `{endpoint}` is shut down")))
    }
}

impl Endpoint {
    /// The worker loop: serve queued jobs in arrival order, applying the
    /// fault schedule and sleeping out the simulated link.
    fn work(&self, rx: Receiver<Job>) {
        // Submit sequence number for fault matching; registration
        // traffic is exempt so test schedules stay stable.
        let mut submit_seq: u64 = 0;
        while let Ok(job) = rx.recv() {
            self.arrived();
            let decoded = Request::from_wire_bytes(&job.request);
            // Streaming submits consume the same fault sequence numbers
            // as one-shot ones, so a schedule behaves identically under
            // either execution mode.
            let is_submit = matches!(
                decoded,
                Ok(Request::Submit(_)) | Ok(Request::SubmitStream { .. })
            );
            let action = if is_submit {
                let a = self.faults.action_for(submit_seq);
                submit_seq += 1;
                a
            } else {
                None
            };
            if matches!(action, Some(FaultKind::Drop)) {
                // Message lost: never reply. The caller's deadline (or
                // the closed channel) reports the timeout.
                continue;
            }

            let mut exchange = Exchange::new(job.request.len(), self.jitter_draw(), action);
            let mut deliver = |payload: Vec<u8>| {
                let comm_ms = exchange.comm_ms(&self.profile, payload.len());
                if self.profile.sleep_scale > 0.0 {
                    let sleep = comm_ms * self.profile.sleep_scale;
                    std::thread::sleep(Duration::from_micros((sleep * 1000.0) as u64));
                }
                Reply { comm_ms, payload }
            };
            match job.reply {
                // A caller that already gave up is not an error here.
                ReplyTo::Once(tx) => {
                    let _ = tx.send(deliver(self.respond(decoded, action).to_wire_bytes()));
                }
                // A receiver that hangs up releases the worker at once:
                // the remaining frames are never produced.
                ReplyTo::Stream(tx) => {
                    for payload in self.stream(decoded, action) {
                        if tx.send(deliver(payload)).is_err() {
                            break;
                        }
                    }
                }
            }
        }
    }
}

struct Hosted {
    endpoint: Arc<Endpoint>,
    /// `None` for a direct endpoint.
    worker: Option<Worker>,
}

/// A transport whose endpoints are wrappers hosted in this process.
pub struct ChannelTransport {
    hosted: BTreeMap<String, Hosted>,
    seed: u64,
}

impl ChannelTransport {
    /// Empty transport with the workspace default RNG seed.
    pub fn new() -> Self {
        ChannelTransport::with_seed(DEFAULT_SEED)
    }

    /// Empty transport with an explicit jitter seed.
    pub fn with_seed(seed: u64) -> Self {
        ChannelTransport {
            hosted: BTreeMap::new(),
            seed,
        }
    }

    /// Host a wrapper on a default (LAN, fault-free) endpoint.
    pub fn add_wrapper(&mut self, wrapper: Box<dyn Wrapper>) {
        self.add_wrapper_with(wrapper, NetProfile::default(), FaultPlan::none());
    }

    /// Host a wrapper with an explicit network profile and fault schedule.
    ///
    /// The endpoint gets a worker thread only if there is something for
    /// a thread to wait out — `profile` really sleeps, or `faults` has a
    /// window (a dropped message is a silence, and only a caller blocked
    /// on a channel can time out of one). Otherwise it is served on the
    /// thread of whoever calls it.
    pub fn add_wrapper_with(
        &mut self,
        wrapper: Box<dyn Wrapper>,
        profile: NetProfile,
        faults: FaultPlan,
    ) {
        let name = wrapper.name().to_string();
        let waits = profile.sleep_scale > 0.0 || !faults.is_empty();
        let endpoint = Arc::new(Endpoint {
            jitter: Mutex::new(seeded(self.seed, &format!("net:{name}"))),
            wrapper,
            profile,
            faults,
            served: AtomicU64::new(0),
        });
        let worker = waits.then(|| Worker::spawn(Arc::clone(&endpoint)));
        self.hosted.insert(name, Hosted { endpoint, worker });
    }

    /// Total requests that reached an endpoint (including dropped ones)
    /// — used by fault tests to assert retry counts.
    pub fn requests_served(&self, endpoint: &str) -> u64 {
        self.hosted
            .get(endpoint)
            .map(|h| h.endpoint.served.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    fn hosted(&self, endpoint: &str) -> Result<&Hosted> {
        self.hosted
            .get(endpoint)
            .ok_or_else(|| DiscoError::Exec(format!("no transport endpoint named `{endpoint}`")))
    }
}

impl Default for ChannelTransport {
    fn default() -> Self {
        ChannelTransport::new()
    }
}

/// Client-side handle for a stream opened on a worker endpoint: pulls
/// frames off the worker's bounded reply channel.
struct WorkerStream {
    rx: Receiver<Reply>,
    endpoint: String,
}

impl FrameStream for WorkerStream {
    fn next_frame(&mut self, deadline: Duration) -> Result<FrameEnvelope> {
        match self.rx.recv_timeout(deadline) {
            Ok(reply) => Ok(FrameEnvelope {
                payload: reply.payload,
                comm_ms: reply.comm_ms,
            }),
            // A hung-up producer (dropped message fault) is, to the
            // consumer, the same silence as an overdue frame.
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => Err(
                DiscoError::Timeout(format!("no frame from `{}` within deadline", self.endpoint)),
            ),
        }
    }
}

/// A stream opened on a direct endpoint. Nothing has happened yet when
/// `call_stream` returns it: the first pull decodes the request and runs
/// the wrapper, and every pull encodes the one frame it returns, all on
/// the consumer's thread. Deadlines bound waits and there is none here,
/// so they are not consulted.
struct DirectStream {
    endpoint: Arc<Endpoint>,
    /// The request as shipped, until the first pull executes it.
    request: Option<Vec<u8>>,
    frames: Frames,
    exchange: Exchange,
}

impl FrameStream for DirectStream {
    fn next_frame(&mut self, _deadline: Duration) -> Result<FrameEnvelope> {
        if let Some(request) = self.request.take() {
            self.frames = self
                .endpoint
                .stream(Request::from_wire_bytes(&request), None);
        }
        let payload = self.frames.next().ok_or_else(|| {
            DiscoError::Timeout(format!(
                "no frame from `{}` after the end of its stream",
                self.endpoint.wrapper.name()
            ))
        })?;
        Ok(FrameEnvelope {
            comm_ms: self.exchange.comm_ms(&self.endpoint.profile, payload.len()),
            payload,
        })
    }
}

impl Transport for ChannelTransport {
    fn endpoints(&self) -> Vec<String> {
        self.hosted.keys().cloned().collect()
    }

    fn call(&self, endpoint: &str, request: &[u8], deadline: Duration) -> Result<Envelope> {
        let hosted = self.hosted(endpoint)?;
        let reply = match &hosted.worker {
            None => {
                let served = &hosted.endpoint;
                served.arrived();
                let mut exchange = Exchange::new(request.len(), served.jitter_draw(), None);
                let payload = served
                    .respond(Request::from_wire_bytes(request), None)
                    .to_wire_bytes();
                Reply {
                    comm_ms: exchange.comm_ms(&served.profile, payload.len()),
                    payload,
                }
            }
            Some(worker) => {
                let (reply_tx, reply_rx) = mpsc::channel();
                worker.send(endpoint, request, ReplyTo::Once(reply_tx))?;
                // A dropped reply channel means the message was lost
                // (fault injection) — indistinguishable, to a client,
                // from silence.
                reply_rx.recv_timeout(deadline).map_err(|_| {
                    DiscoError::Timeout(format!("no reply from `{endpoint}` within deadline"))
                })?
            }
        };
        Ok(Envelope {
            response_bytes: reply.payload.len(),
            payload: reply.payload,
            comm_ms: reply.comm_ms,
            request_bytes: request.len(),
        })
    }

    fn latency_floor_ms(&self, endpoint: &str) -> Option<f64> {
        let hosted = self.hosted.get(endpoint)?;
        Some(2.0 * hosted.endpoint.profile.latency_ms)
    }

    fn sleep_scale(&self, endpoint: &str) -> Option<f64> {
        Some(self.hosted.get(endpoint)?.endpoint.profile.sleep_scale)
    }

    fn call_stream(&self, endpoint: &str, request: &[u8]) -> Result<Box<dyn FrameStream>> {
        let hosted = self.hosted(endpoint)?;
        match &hosted.worker {
            None => {
                // The request has arrived: it is counted and takes its
                // jitter draw now, in call order, as a queue would
                // order it. The work waits for the first pull.
                let served = &hosted.endpoint;
                served.arrived();
                Ok(Box::new(DirectStream {
                    endpoint: Arc::clone(served),
                    request: Some(request.to_vec()),
                    frames: Frames::Done,
                    exchange: Exchange::new(request.len(), served.jitter_draw(), None),
                }))
            }
            Some(worker) => {
                let (reply_tx, reply_rx) = mpsc::sync_channel(STREAM_WINDOW);
                worker.send(endpoint, request, ReplyTo::Stream(reply_tx))?;
                Ok(Box::new(WorkerStream {
                    rx: reply_rx,
                    endpoint: endpoint.to_string(),
                }))
            }
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        // Close every job queue, then join the workers. Direct endpoints
        // live on in whatever streams still hold them.
        let joins: Vec<_> = std::mem::take(&mut self.hosted)
            .into_values()
            .filter_map(|h| h.worker)
            .map(|w| w.join) // drops the sender, ending the worker loop
            .collect();
        for j in joins {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
    use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
    use disco_wrapper::SourceWrapper;

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
                    .rows((0..100i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)])),
            )
            .unwrap();
        Box::new(SourceWrapper::new(name, store))
    }

    fn submit_bytes(name: &str) -> Vec<u8> {
        Request::Submit(
            PlanBuilder::scan(QualifiedName::new(name, "T"), schema())
                .select("id", CompareOp::Lt, 7i64)
                .submit(name)
                .build(),
        )
        .to_wire_bytes()
    }

    #[test]
    fn register_and_submit_round_trip_as_bytes() {
        let mut t = ChannelTransport::new();
        t.add_wrapper(wrapper("s"));
        assert_eq!(t.endpoints(), vec!["s".to_string()]);

        let env = t
            .call(
                "s",
                &Request::Register.to_wire_bytes(),
                Duration::from_secs(5),
            )
            .unwrap();
        let resp = Response::from_wire_bytes(&env.payload)
            .unwrap()
            .into_result()
            .unwrap();
        match resp {
            Response::Registration(reg) => assert_eq!(reg.collections.len(), 1),
            other => panic!("expected registration, got {other:?}"),
        }

        let env = t
            .call("s", &submit_bytes("s"), Duration::from_secs(5))
            .unwrap();
        // The seed charge: two 50 ms latencies plus bytes at 1000 B/ms.
        assert!(env.comm_ms >= 100.0);
        let resp = Response::from_wire_bytes(&env.payload)
            .unwrap()
            .into_result()
            .unwrap();
        match resp {
            Response::Answer(a) => assert_eq!(a.batch.len(), 7),
            other => panic!("expected answer, got {other:?}"),
        }
        assert_eq!(t.requests_served("s"), 2);
    }

    #[test]
    fn unknown_endpoint_is_a_config_error() {
        let t = ChannelTransport::new();
        let err = t
            .call(
                "ghost",
                &Request::Register.to_wire_bytes(),
                Duration::from_secs(1),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "exec");
    }

    #[test]
    fn dropped_submits_time_out_and_registration_is_exempt() {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(
            wrapper("s"),
            NetProfile::lan(),
            FaultPlan::first_n(FaultKind::Drop, 1),
        );
        // Registration does not consume the fault window…
        assert!(t
            .call(
                "s",
                &Request::Register.to_wire_bytes(),
                Duration::from_secs(5)
            )
            .is_ok());
        // …the first submit does, and times out…
        let err = t
            .call("s", &submit_bytes("s"), Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err.kind(), "timeout");
        assert!(err.is_transient());
        // …and the second submit succeeds.
        assert!(t
            .call("s", &submit_bytes("s"), Duration::from_secs(5))
            .is_ok());
    }

    #[test]
    fn unavailable_fault_crosses_the_wire_as_an_error() {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(
            wrapper("s"),
            NetProfile::lan(),
            FaultPlan::always(FaultKind::Unavailable),
        );
        let env = t
            .call("s", &submit_bytes("s"), Duration::from_secs(5))
            .unwrap();
        let err = Response::from_wire_bytes(&env.payload)
            .unwrap()
            .into_result()
            .unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(err.is_transient());
    }

    #[test]
    fn delay_fault_inflates_comm_time() {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(
            wrapper("s"),
            NetProfile::lan(),
            FaultPlan::first_n(FaultKind::Delay(500.0), 1),
        );
        let slow = t
            .call("s", &submit_bytes("s"), Duration::from_secs(5))
            .unwrap();
        let fast = t
            .call("s", &submit_bytes("s"), Duration::from_secs(5))
            .unwrap();
        assert!(slow.comm_ms > fast.comm_ms + 400.0);
    }

    fn submit_stream_bytes(name: &str, chunk_rows: u32) -> Vec<u8> {
        Request::SubmitStream {
            plan: PlanBuilder::scan(QualifiedName::new(name, "T"), schema())
                .select("id", CompareOp::Lt, 7i64)
                .submit(name)
                .build(),
            chunk_rows,
        }
        .to_wire_bytes()
    }

    #[test]
    fn streaming_submit_delivers_chunks_then_end() {
        use crate::wire::decode_frame;

        let mut t = ChannelTransport::new();
        t.add_wrapper(wrapper("s"));
        let mut stream = t.call_stream("s", &submit_stream_bytes("s", 3)).unwrap();
        let mut rows = 0;
        let mut chunks = 0;
        loop {
            let env = stream.next_frame(Duration::from_secs(5)).unwrap();
            match decode_frame(&env.payload).unwrap() {
                Frame::Chunk(a) => {
                    if chunks == 0 {
                        // First frame pays the round trip (2 × 50 ms)…
                        assert!(env.comm_ms >= 100.0);
                    } else {
                        // …later frames pay transfer only.
                        assert!(env.comm_ms < 100.0);
                    }
                    chunks += 1;
                    rows += a.batch.len();
                }
                Frame::End(stats) => {
                    assert!(stats.elapsed_ms > 0.0);
                    break;
                }
                Frame::Error { kind, message } => panic!("stream error {kind}: {message}"),
            }
        }
        assert_eq!(rows, 7);
        assert_eq!(chunks, 3); // 3 + 3 + 1 under chunk_rows = 3
    }

    #[test]
    fn dropped_stream_surfaces_as_first_frame_timeout() {
        let mut t = ChannelTransport::new();
        t.add_wrapper_with(
            wrapper("s"),
            NetProfile::lan(),
            FaultPlan::first_n(FaultKind::Drop, 1),
        );
        let mut stream = t.call_stream("s", &submit_stream_bytes("s", 8)).unwrap();
        let err = stream.next_frame(Duration::from_millis(50)).unwrap_err();
        assert_eq!(err.kind(), "timeout");
        assert!(err.is_transient());
        // The fault window is consumed: a retry streams normally.
        let mut stream = t.call_stream("s", &submit_stream_bytes("s", 8)).unwrap();
        assert!(stream.next_frame(Duration::from_secs(5)).is_ok());
    }

    #[test]
    fn abandoned_stream_releases_the_worker() {
        let mut t = ChannelTransport::new();
        t.add_wrapper(wrapper("s"));
        let mut stream = t.call_stream("s", &submit_stream_bytes("s", 1)).unwrap();
        // Take one frame of many, then hang up mid-stream.
        assert!(stream.next_frame(Duration::from_secs(5)).is_ok());
        drop(stream);
        // The worker must abandon the remaining frames and serve the
        // next request.
        assert!(t
            .call("s", &submit_bytes("s"), Duration::from_secs(5))
            .is_ok());
    }

    #[test]
    fn malformed_request_bytes_get_an_error_reply_not_a_crash() {
        let mut t = ChannelTransport::new();
        t.add_wrapper(wrapper("s"));
        let env = t.call("s", &[0xFF, 0x01], Duration::from_secs(5)).unwrap();
        let err = Response::from_wire_bytes(&env.payload)
            .unwrap()
            .into_result()
            .unwrap_err();
        assert_eq!(err.kind(), "parse");
    }
}
