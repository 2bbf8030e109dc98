//! The two ways a [`ChannelTransport`] endpoint is served — *direct*, on
//! the caller's thread, when its link has nothing to wait for, and by a
//! *worker* thread when it has — are one endpoint as far as a caller can
//! tell: the same bytes, the same simulated communication time, the same
//! accounting, and a wrapper that panics is an error reply on either.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use disco_algebra::{CompareOp, LogicalPlan, PlanBuilder};
use disco_common::wire::WireEncode;
use disco_common::{AttributeDef, DataType, QualifiedName, Result, Schema, Value};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore, SubAnswer};
use disco_transport::{
    decode_frame, BreakerState, ChannelTransport, FaultKind, FaultPlan, Frame, HedgeTarget,
    NetProfile, Request, SubmitOptions, SubmitStream, Transport, TransportClient,
};
use disco_wrapper::{Registration, SourceWrapper, Wrapper};

const PATIENCE: Duration = Duration::from_secs(5);
/// The constant that sets [`Probe`] off.
const MARK: i64 = 666;

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ])
}

/// A 100-row wrapper `s` that notes which thread ran it last and panics
/// on a plan that mentions [`MARK`].
struct Probe {
    inner: SourceWrapper<PagedStore>,
    ran_on: Arc<Mutex<Option<String>>>,
}

impl Wrapper for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn registration(&self) -> Result<Registration> {
        self.inner.registration()
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        *self.ran_on.lock().unwrap() = std::thread::current().name().map(str::to_string);
        if format!("{plan:?}").contains(&MARK.to_string()) {
            panic!("tripped over {MARK}");
        }
        self.inner.execute(plan)
    }
}

/// Force an endpoint onto a worker without changing what it does: a
/// fault window that no submit can ever fall into.
fn never_fires() -> FaultPlan {
    FaultPlan::none().window(u64::MAX, u64::MAX, FaultKind::Drop)
}

struct Hosted {
    transport: Arc<ChannelTransport>,
    ran_on: Arc<Mutex<Option<String>>>,
}

impl Hosted {
    fn ran_on(&self) -> Option<String> {
        self.ran_on.lock().unwrap().clone()
    }
}

fn host(profile: NetProfile, faults: FaultPlan) -> Hosted {
    let mut store = PagedStore::new("s", CostProfile::relational());
    store
        .add_collection(
            "T",
            CollectionBuilder::new(schema())
                .rows((0..100i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)])),
        )
        .unwrap();
    let ran_on = Arc::new(Mutex::new(None));
    let probe = Probe {
        inner: SourceWrapper::new("s", store),
        ran_on: Arc::clone(&ran_on),
    };
    let mut transport = ChannelTransport::new();
    transport.add_wrapper_with(Box::new(probe), profile, faults);
    Hosted {
        transport: Arc::new(transport),
        ran_on,
    }
}

fn below(wrapper: &str, bound: i64) -> LogicalPlan {
    PlanBuilder::scan(QualifiedName::new(wrapper, "T"), schema())
        .select("id", CompareOp::Lt, bound)
        .submit(wrapper)
        .build()
}

/// Open a stream of `plan` at endpoint `s`: begin and finish back to back.
fn open_stream(
    client: &TransportClient,
    plan: LogicalPlan,
    chunk_rows: u32,
) -> Result<SubmitStream> {
    let target = HedgeTarget {
        endpoint: "s".into(),
        plan,
        opts: SubmitOptions::default(),
    };
    let pending = client.begin_stream(vec![target], chunk_rows)?;
    client
        .finish_stream(pending, None, &mut 0)
        .map(|out| out.stream)
}

/// One step of the script: what was sent, and everything that came back.
#[derive(Debug, PartialEq)]
struct Exchange {
    what: &'static str,
    /// `(payload, comm_ms bits)` per reply or frame, in order.
    replies: Vec<(Vec<u8>, u64)>,
}

fn one_shot(t: &ChannelTransport, what: &'static str, request: &[u8]) -> Exchange {
    let env = t.call("s", request, PATIENCE).unwrap();
    assert_eq!(env.request_bytes, request.len());
    assert_eq!(env.response_bytes, env.payload.len());
    Exchange {
        what,
        replies: vec![(env.payload, env.comm_ms.to_bits())],
    }
}

fn streamed(t: &ChannelTransport, what: &'static str, request: &[u8]) -> Exchange {
    let mut stream = t.call_stream("s", request).unwrap();
    let mut replies = Vec::new();
    loop {
        let env = stream.next_frame(PATIENCE).unwrap();
        let last = !matches!(decode_frame(&env.payload).unwrap(), Frame::Chunk(_));
        replies.push((env.payload, env.comm_ms.to_bits()));
        if last {
            return Exchange { what, replies };
        }
    }
}

/// The script: every verb, both call shapes, the edge cases of each.
fn script(t: &ChannelTransport) -> Vec<Exchange> {
    let stream = |plan: LogicalPlan, chunk_rows: u32| {
        Request::SubmitStream { plan, chunk_rows }.to_wire_bytes()
    };
    let register = Request::Register.to_wire_bytes();
    let submit = Request::Submit(below("s", 7)).to_wire_bytes();
    vec![
        one_shot(t, "register", &register),
        one_shot(t, "submit", &submit),
        streamed(t, "stream, 1 row a chunk", &stream(below("s", 7), 1)),
        streamed(t, "stream, 3 rows a chunk", &stream(below("s", 7), 3)),
        streamed(t, "stream, 64 rows a chunk", &stream(below("s", 7), 64)),
        streamed(t, "stream, 0 rows a chunk", &stream(below("s", 7), 0)),
        streamed(t, "stream, empty answer", &stream(below("s", 0), 3)),
        one_shot(
            t,
            "submit, empty answer",
            &Request::Submit(below("s", 0)).to_wire_bytes(),
        ),
        one_shot(
            t,
            "submit, rejected plan",
            &Request::Submit(below("ghost", 7)).to_wire_bytes(),
        ),
        streamed(t, "stream, rejected plan", &stream(below("ghost", 7), 3)),
        one_shot(t, "malformed bytes", &[0xFF, 0x01]),
        streamed(t, "malformed bytes, streamed", &[0xFF, 0x01]),
        streamed(t, "register sent to call_stream", &register),
        streamed(t, "submit sent to call_stream", &submit),
        one_shot(t, "stream sent to call", &stream(below("s", 7), 3)),
        // After all that, the jitter sequence is still in step.
        one_shot(t, "submit again", &submit),
    ]
}

#[test]
fn direct_and_worker_endpoints_exchange_the_same_bytes_for_the_same_comm_ms() {
    // A WAN link: 40 ms of jitter, so every reply's `comm_ms` depends on
    // the endpoint's draws being taken once a request, in order.
    let direct = host(NetProfile::wan(), FaultPlan::none());
    let worker = host(NetProfile::wan(), never_fires());

    let on_direct = script(&direct.transport);
    let on_worker = script(&worker.transport);
    assert_eq!(on_direct.len(), on_worker.len());
    for (d, w) in on_direct.iter().zip(&on_worker) {
        assert_eq!(d, w, "`{}` differs between the two paths", d.what);
    }
    assert_eq!(
        direct.transport.requests_served("s"),
        worker.transport.requests_served("s")
    );
    assert_eq!(
        direct.transport.requests_served("s"),
        on_direct.len() as u64
    );

    // Jitter really was drawn: two identical submits cost differently.
    let (first, last) = (&on_direct[1], on_direct.last().unwrap());
    assert_eq!(first.replies[0].0, last.replies[0].0);
    assert_ne!(first.replies[0].1, last.replies[0].1);
    // The shapes the script relies on.
    let frames = |what: &str| {
        let step = on_direct.iter().find(|e| e.what == what).unwrap();
        step.replies.len()
    };
    assert_eq!(frames("stream, 1 row a chunk"), 7 + 1);
    assert_eq!(frames("stream, 3 rows a chunk"), 3 + 1);
    assert_eq!(frames("stream, 64 rows a chunk"), 1 + 1);
    assert_eq!(frames("stream, empty answer"), 1 + 1);
    assert_eq!(frames("stream, rejected plan"), 1);

    // And the two transports really took the two paths.
    let me = std::thread::current().name().map(str::to_string);
    assert_eq!(direct.ran_on(), me);
    assert_eq!(worker.ran_on().as_deref(), Some("wrapper-s"));
}

#[test]
fn a_direct_stream_does_nothing_until_it_is_pulled() {
    let direct = host(NetProfile::lan(), FaultPlan::none());
    let request = Request::SubmitStream {
        plan: below("s", 7),
        chunk_rows: 1,
    }
    .to_wire_bytes();
    let stream = direct.transport.call_stream("s", &request).unwrap();
    // The request has arrived and been counted; the wrapper has not run.
    assert_eq!(direct.transport.requests_served("s"), 1);
    assert_eq!(direct.ran_on(), None);
    drop(stream);
    assert_eq!(direct.ran_on(), None);

    let mut stream = direct.transport.call_stream("s", &request).unwrap();
    // No wait to bound, so even a zero deadline gets its frame.
    assert!(stream.next_frame(Duration::ZERO).is_ok());
    assert!(direct.ran_on().is_some());
}

#[test]
fn a_panicking_wrapper_is_an_error_reply_on_either_path() {
    for (path, faults) in [("direct", FaultPlan::none()), ("worker", never_fires())] {
        let hosted = host(NetProfile::lan(), faults);
        let client = TransportClient::new(Box::new(Arc::clone(&hosted.transport)));
        let served = || hosted.transport.requests_served("s");

        // One-shot and streamed, the marked plan fails as `exec` and
        // names the wrapper…
        let err = client.submit("s", &below("s", MARK)).unwrap_err();
        assert_eq!(err.kind(), "exec", "{path}: {err}");
        assert!(
            err.message().contains("wrapper `s` panicked") && err.message().contains("tripped"),
            "{path}: {err}"
        );
        // …is the wrapper's final word — one request, never retried, and
        // not a failure of the link, so the breaker does not count it…
        assert_eq!(served(), 1, "{path}");
        assert_eq!(client.breaker_state("s"), Some(BreakerState::Closed));
        let err = open_stream(&client, below("s", MARK), 3).unwrap_err();
        assert_eq!(err.kind(), "exec", "{path}: {err}");
        assert_eq!(served(), 2, "{path}");
        assert_eq!(client.breaker_state("s"), Some(BreakerState::Closed));

        // …and the endpoint is still there for the next query.
        let out = client.submit("s", &below("s", 9)).unwrap();
        assert_eq!(out.answer.batch.len(), 9, "{path}");
        let mut stream = open_stream(&client, below("s", 9), 4).unwrap();
        let mut rows = 0;
        while let Some(chunk) = stream.next_chunk().unwrap() {
            rows += chunk.batch.len();
        }
        assert_eq!(rows, 9, "{path}");
        assert_eq!(served(), 4, "{path}");
        assert!(client.register("s").is_ok(), "{path}");
    }
}
