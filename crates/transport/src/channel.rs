//! [`ChannelTransport`]: each wrapper on its own worker thread, reached
//! through mpsc channels carrying encoded bytes.
//!
//! This is the in-process stand-in for a real network stack, but it is an
//! honest one: requests and replies cross the boundary as bytes (decoded
//! and re-encoded by the worker), each endpoint has its own simulated
//! [`NetProfile`] and optional [`FaultPlan`], and a lost message surfaces
//! to the caller exactly as a deadline expiry would.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use disco_common::rng::{seeded, DEFAULT_SEED};
use disco_common::wire::{WireDecode, WireEncode};
use disco_common::{DiscoError, Result};
use disco_wrapper::Wrapper;

use crate::fault::{FaultKind, FaultPlan};
use crate::netsim::NetProfile;
use crate::wire::{Frame, Request, Response};
use crate::{Envelope, FrameEnvelope, FrameStream, Transport};

/// Per-stream reply channel capacity: the worker can run at most this
/// many frames ahead of the consumer before its `send` blocks. This is
/// the backpressure window of the streaming protocol.
const STREAM_WINDOW: usize = 4;

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

struct WorkerHandle {
    tx: Sender<Job>,
    join: Option<JoinHandle<()>>,
    served: Arc<AtomicU64>,
    profile: NetProfile,
}

/// A transport whose endpoints are worker threads, one per wrapper.
pub struct ChannelTransport {
    workers: BTreeMap<String, WorkerHandle>,
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
            workers: BTreeMap::new(),
            seed,
        }
    }

    /// Host a wrapper on a default (LAN, fault-free) endpoint.
    pub fn add_wrapper(&mut self, wrapper: Box<dyn Wrapper>) {
        self.add_wrapper_with(wrapper, NetProfile::default(), FaultPlan::none());
    }

    /// Host a wrapper with an explicit network profile and fault schedule.
    pub fn add_wrapper_with(
        &mut self,
        wrapper: Box<dyn Wrapper>,
        profile: NetProfile,
        faults: FaultPlan,
    ) {
        let name = wrapper.name().to_string();
        let served = Arc::new(AtomicU64::new(0));
        let served_in_worker = Arc::clone(&served);
        let endpoint_profile = profile.clone();
        let mut rng = seeded(self.seed, &format!("net:{name}"));
        let (tx, rx) = mpsc::channel::<Job>();
        let join = std::thread::Builder::new()
            .name(format!("wrapper-{name}"))
            .spawn(move || {
                // Submit sequence number for fault matching; registration
                // traffic is exempt so test schedules stay stable.
                let mut submit_seq: u64 = 0;
                while let Ok(job) = rx.recv() {
                    served_in_worker.fetch_add(1, Ordering::Relaxed);
                    let request_bytes = job.request.len();
                    let decoded = Request::from_wire_bytes(&job.request);
                    // Streaming submits consume the same fault sequence
                    // numbers as one-shot ones, so a schedule behaves
                    // identically under either execution mode.
                    let is_submit = matches!(
                        decoded,
                        Ok(Request::Submit(_)) | Ok(Request::SubmitStream { .. })
                    );
                    let action = if is_submit {
                        let a = faults.action_for(submit_seq);
                        submit_seq += 1;
                        a
                    } else {
                        None
                    };

                    if matches!(action, Some(FaultKind::Drop)) {
                        // Message lost: never reply. The caller's deadline
                        // (or the closed channel) reports the timeout.
                        continue;
                    }

                    if let ReplyTo::Stream(reply) = &job.reply {
                        serve_stream(
                            wrapper.as_ref(),
                            decoded,
                            action,
                            reply,
                            request_bytes,
                            &profile,
                            rng.gen_f64(),
                        );
                        continue;
                    }

                    let response = match (decoded, action) {
                        (Err(e), _) => Response::Error {
                            kind: e.kind().to_string(),
                            message: e.message().to_string(),
                        },
                        (Ok(_), Some(FaultKind::Unavailable)) => Response::Error {
                            kind: "unavailable".to_string(),
                            message: format!("endpoint `{}` is unavailable", wrapper.name()),
                        },
                        (Ok(req), _) => serve(wrapper.as_ref(), req),
                    };
                    let payload = response.to_wire_bytes();
                    let extra_ms = match action {
                        Some(FaultKind::Delay(ms)) => ms,
                        _ => 0.0,
                    };
                    let comm_ms =
                        profile.comm_ms(request_bytes, payload.len(), rng.gen_f64()) + extra_ms;
                    if profile.sleep_scale > 0.0 {
                        let sleep = comm_ms * profile.sleep_scale;
                        std::thread::sleep(Duration::from_micros((sleep * 1000.0) as u64));
                    }
                    // A caller that already gave up is not an error here.
                    let _ = match &job.reply {
                        ReplyTo::Once(tx) => tx.send(Reply { comm_ms, payload }).is_ok(),
                        ReplyTo::Stream(_) => unreachable!("handled above"),
                    };
                }
            })
            .expect("spawn wrapper worker thread");
        self.workers.insert(
            name,
            WorkerHandle {
                tx,
                join: Some(join),
                served,
                profile: endpoint_profile,
            },
        );
    }

    /// Total requests an endpoint's worker has picked up (including
    /// dropped ones) — used by fault tests to assert retry counts.
    pub fn requests_served(&self, endpoint: &str) -> u64 {
        self.workers
            .get(endpoint)
            .map(|w| w.served.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

impl Default for ChannelTransport {
    fn default() -> Self {
        ChannelTransport::new()
    }
}

/// Execute a decoded request against the hosted wrapper.
fn serve(wrapper: &dyn Wrapper, request: Request) -> Response {
    let result = match request {
        Request::Register => wrapper.registration().map(Response::Registration),
        Request::Submit(plan) => wrapper.execute(&plan).map(Response::Answer),
        Request::SubmitStream { .. } => Err(DiscoError::Exec(
            "streaming submit requires a streaming call".into(),
        )),
    };
    result.unwrap_or_else(|e| Response::Error {
        kind: e.kind().to_string(),
        message: e.message().to_string(),
    })
}

/// Execute a streaming submit, slicing the subanswer into chunk frames
/// pushed through the bounded `reply` channel. The first frame pays the
/// full round trip (latency + jitter + any injected delay); later frames
/// pay transfer time only, pipelined on the established exchange. A
/// receiver that hangs up releases the worker immediately — remaining
/// frames are never produced.
fn serve_stream(
    wrapper: &dyn Wrapper,
    decoded: Result<Request>,
    action: Option<FaultKind>,
    reply: &SyncSender<Reply>,
    request_bytes: usize,
    profile: &NetProfile,
    draw: f64,
) {
    let extra_ms = match action {
        Some(FaultKind::Delay(ms)) => ms,
        _ => 0.0,
    };
    let mut first = true;
    let mut send = |payload: Vec<u8>| -> bool {
        let comm_ms = if first {
            first = false;
            profile.comm_ms(request_bytes, payload.len(), draw) + extra_ms
        } else {
            profile.transfer_ms(payload.len())
        };
        if profile.sleep_scale > 0.0 {
            let sleep = comm_ms * profile.sleep_scale;
            std::thread::sleep(Duration::from_micros((sleep * 1000.0) as u64));
        }
        reply.send(Reply { comm_ms, payload }).is_ok()
    };

    let error_frame = |e: &DiscoError| {
        Frame::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
        }
        .to_wire_bytes()
    };

    let (plan, chunk_rows) = match (decoded, action) {
        (Err(e), _) => {
            send(error_frame(&e));
            return;
        }
        (Ok(_), Some(FaultKind::Unavailable)) => {
            send(error_frame(&DiscoError::Unavailable(format!(
                "endpoint `{}` is unavailable",
                wrapper.name()
            ))));
            return;
        }
        (Ok(Request::SubmitStream { plan, chunk_rows }), _) => (plan, chunk_rows),
        (Ok(_), _) => {
            send(error_frame(&DiscoError::Exec(
                "streaming call requires a streaming submit".into(),
            )));
            return;
        }
    };

    match wrapper.execute(&plan) {
        Err(e) => {
            send(error_frame(&e));
        }
        Ok(answer) => {
            // Chunks are slices of the wrapper's rows, encoded as they
            // stand. Always at least one, so an empty answer still ships
            // its schema before the end-of-stream frame.
            let mut chunks = answer.tuples.chunks((chunk_rows as usize).max(1));
            let mut rows = chunks.next().unwrap_or(&[]);
            loop {
                if !send(Frame::chunk_bytes(&answer.schema, rows)) {
                    return;
                }
                match chunks.next() {
                    Some(next) => rows = next,
                    None => break,
                }
            }
            send(Frame::End(answer.stats).to_wire_bytes());
        }
    }
}

/// Client-side handle for a stream opened on a [`ChannelTransport`]
/// endpoint: pulls frames off the worker's bounded reply channel.
struct ChannelFrameStream {
    rx: Receiver<Reply>,
    endpoint: String,
}

impl FrameStream for ChannelFrameStream {
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

impl Transport for ChannelTransport {
    fn endpoints(&self) -> Vec<String> {
        self.workers.keys().cloned().collect()
    }

    fn call(&self, endpoint: &str, request: &[u8], deadline: Duration) -> Result<Envelope> {
        let worker = self
            .workers
            .get(endpoint)
            .ok_or_else(|| DiscoError::Exec(format!("no transport endpoint named `{endpoint}`")))?;
        let (reply_tx, reply_rx) = mpsc::channel();
        worker
            .tx
            .send(Job {
                request: request.to_vec(),
                reply: ReplyTo::Once(reply_tx),
            })
            .map_err(|_| DiscoError::Unavailable(format!("endpoint `{endpoint}` is shut down")))?;
        match reply_rx.recv_timeout(deadline) {
            Ok(reply) => Ok(Envelope {
                response_bytes: reply.payload.len(),
                payload: reply.payload,
                comm_ms: reply.comm_ms,
                request_bytes: request.len(),
            }),
            // A dropped reply channel means the message was lost (fault
            // injection) — indistinguishable, to a client, from silence.
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => Err(
                DiscoError::Timeout(format!("no reply from `{endpoint}` within deadline")),
            ),
        }
    }

    fn latency_floor_ms(&self, endpoint: &str) -> Option<f64> {
        self.workers
            .get(endpoint)
            .map(|w| 2.0 * w.profile.latency_ms)
    }

    fn sleep_scale(&self, endpoint: &str) -> Option<f64> {
        self.workers.get(endpoint).map(|w| w.profile.sleep_scale)
    }

    fn call_stream(&self, endpoint: &str, request: &[u8]) -> Result<Box<dyn FrameStream>> {
        let worker = self
            .workers
            .get(endpoint)
            .ok_or_else(|| DiscoError::Exec(format!("no transport endpoint named `{endpoint}`")))?;
        let (reply_tx, reply_rx) = mpsc::sync_channel(STREAM_WINDOW);
        worker
            .tx
            .send(Job {
                request: request.to_vec(),
                reply: ReplyTo::Stream(reply_tx),
            })
            .map_err(|_| DiscoError::Unavailable(format!("endpoint `{endpoint}` is shut down")))?;
        Ok(Box::new(ChannelFrameStream {
            rx: reply_rx,
            endpoint: endpoint.to_string(),
        }))
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        // Close every job queue, then join the workers.
        let joins: Vec<_> = self
            .workers
            .values_mut()
            .filter_map(|w| w.join.take())
            .collect();
        self.workers.clear(); // drops the senders, ending the worker loops
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
            Response::Answer(a) => assert_eq!(a.tuples.len(), 7),
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
