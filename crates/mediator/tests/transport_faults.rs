//! Fault-injection tests for the transport runtime: the mediator keeps
//! answering queries while wrapper endpoints time out, go down, recover,
//! and trip circuit breakers.

use disco_catalog::Capabilities;
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_mediator::{Mediator, MediatorOptions};
use disco_sources::{CollectionBuilder, CostProfile, FlatFile, PagedStore};
use disco_transport::{
    BreakerPolicy, BreakerState, ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy,
    TransportClient,
};
use disco_wrapper::{SourceWrapper, Wrapper};

/// hr: Employee with an indexed id.
fn hr_store() -> PagedStore {
    let emp_schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("name", DataType::Str),
        AttributeDef::new("dept_id", DataType::Long),
    ]);
    let mut s = PagedStore::new("hr", CostProfile::object_store());
    s.add_collection(
        "Employee",
        CollectionBuilder::new(emp_schema)
            .rows((0..100i64).map(|i| {
                vec![
                    Value::Long(i),
                    Value::Str(format!("emp{i:03}")),
                    Value::Long(i % 10),
                ]
            }))
            .object_size(48)
            .index("id"),
    )
    .unwrap();
    s
}

/// files: a scan-only flat file of audit events.
fn audit_file() -> FlatFile {
    FlatFile::new(
        "files",
        "Audit",
        Schema::new(vec![
            AttributeDef::new("emp_id", DataType::Long),
            AttributeDef::new("action", DataType::Str),
        ]),
        (0..40i64).map(|i| vec![Value::Long(i % 10), Value::Str(format!("a{}", i % 4))]),
    )
}

/// Three attempts under a wall deadline no healthy (or immediately
/// `Unavailable`) endpoint can overrun on a loaded machine. Only a test
/// that must sit out dropped messages passes a shorter one.
fn retry(deadline_ms: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        deadline_ms,
        backoff_base_ms: 1,
        backoff_factor: 2.0,
    }
}

/// Mediator over a ChannelTransport: `hr` healthy, `files` under the
/// given fault plan.
fn federation(files_faults: FaultPlan, retry: RetryPolicy) -> Mediator {
    let mut t = ChannelTransport::new();
    t.add_wrapper(Box::new(SourceWrapper::new("hr", hr_store())));
    t.add_wrapper_with(
        Box::new(
            SourceWrapper::new("files", audit_file()).with_capabilities(Capabilities::scan_only()),
        ),
        NetProfile::lan(),
        files_faults,
    );
    let client = TransportClient::new(Box::new(t)).with_retry(retry);
    let mut m = Mediator::new();
    m.connect(client).unwrap();
    m
}

#[test]
fn registration_travels_the_wire() {
    let m = federation(FaultPlan::none(), retry(2_000));
    assert_eq!(m.catalog().collection_count(), 2);
    let stats = m
        .catalog()
        .stats(&QualifiedName::new("hr", "Employee"))
        .unwrap();
    assert_eq!(stats.extent.count_object, 100);
    assert!(stats.attribute("id").indexed);
}

#[test]
fn healthy_federation_answers_normally() {
    let mut m = federation(FaultPlan::none(), retry(2_000));
    let r = m.query("SELECT name FROM Employee WHERE id < 10").unwrap();
    assert_eq!(r.tuples.len(), 10);
    assert!(!r.is_partial());
    assert_eq!(r.trace.submits[0].attempts, 1);
    // The simulated network charged real communication time.
    assert!(r.trace.communication_ms >= 100.0);
}

#[test]
fn dropped_messages_are_retried_to_success() {
    // The first two submits to `files` vanish; the third attempt lands.
    let mut m = federation(FaultPlan::first_n(FaultKind::Drop, 2), retry(150));
    let r = m.query("SELECT action FROM Audit").unwrap();
    assert_eq!(r.tuples.len(), 40);
    assert!(!r.is_partial());
    assert_eq!(r.trace.submits.len(), 1);
    assert_eq!(r.trace.submits[0].attempts, 3);
    assert!(!r.trace.submits[0].failed);
}

#[test]
fn exhausted_retries_yield_a_partial_answer_not_an_error() {
    let mut m = federation(FaultPlan::always(FaultKind::Unavailable), retry(2_000));
    let r = m
        .query(
            "SELECT e.name, a.action FROM Employee e, Audit a \
             WHERE e.id = a.emp_id AND e.id < 5",
        )
        .unwrap();
    // The join executed; the dead wrapper contributed nothing.
    assert!(r.is_partial());
    assert_eq!(r.trace.missing, vec![QualifiedName::new("files", "Audit")]);
    assert_eq!(r.tuples.len(), 0);
    // Both submit sites are traced; exactly one failed.
    assert_eq!(r.trace.submits.len(), 2);
    let failed: Vec<&str> = r
        .trace
        .submits
        .iter()
        .filter(|s| s.failed)
        .map(|s| s.wrapper.as_str())
        .collect();
    assert_eq!(failed, vec!["files"]);
}

#[test]
fn union_survives_a_down_wrapper_with_the_healthy_tuples() {
    let mut m = federation(
        FaultPlan::always(FaultKind::Drop),
        RetryPolicy {
            max_attempts: 2,
            deadline_ms: 20,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
        },
    );
    let r = m
        .query(
            "SELECT name FROM Employee WHERE id < 2 \
             UNION ALL SELECT a.action FROM Audit a",
        )
        .unwrap();
    assert!(r.is_partial());
    // The healthy branch's tuples survive.
    assert_eq!(r.tuples.len(), 2);
    assert_eq!(r.trace.missing, vec![QualifiedName::new("files", "Audit")]);
}

#[test]
fn partial_answers_can_be_disabled() {
    let mut m = federation(FaultPlan::always(FaultKind::Unavailable), retry(2_000));
    m = m.with_options(MediatorOptions {
        partial_answers: false,
        ..Default::default()
    });
    let err = m.query("SELECT action FROM Audit").unwrap_err();
    assert_eq!(err.kind(), "unavailable");
    assert!(err.is_transient());
}

#[test]
fn circuit_breaker_opens_half_opens_and_closes() {
    // `files` is down for its first three submits, then recovers. One
    // attempt per query; breaker opens at 3 failures, cools down for 2
    // rejected calls, then probes.
    let mut t = ChannelTransport::new();
    t.add_wrapper(Box::new(SourceWrapper::new("hr", hr_store())));
    t.add_wrapper_with(
        Box::new(
            SourceWrapper::new("files", audit_file()).with_capabilities(Capabilities::scan_only()),
        ),
        NetProfile::lan(),
        FaultPlan::first_n(FaultKind::Unavailable, 3),
    );
    let client = TransportClient::new(Box::new(t))
        .with_retry(RetryPolicy {
            max_attempts: 1,
            deadline_ms: 2_000,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
        })
        .with_breaker(BreakerPolicy {
            failure_threshold: 3,
            cooldown_calls: 2,
        });
    let mut m = Mediator::new();
    m.connect(client).unwrap();

    let sql = "SELECT action FROM Audit";
    let state = |m: &Mediator| m.transport().unwrap().breaker_state("files").unwrap();

    // Three failing queries reach the threshold.
    for _ in 0..3 {
        assert!(m.query(sql).unwrap().is_partial());
    }
    assert_eq!(state(&m), BreakerState::Open);

    // While open, queries fail fast (still partial answers) without
    // touching the endpoint; two rejections burn the cooldown.
    for _ in 0..2 {
        assert!(m.query(sql).unwrap().is_partial());
        assert_eq!(state(&m), BreakerState::Open);
    }

    // Next query is the half-open probe; the wrapper has recovered, so
    // the breaker closes and the answer is complete.
    let r = m.query(sql).unwrap();
    assert!(!r.is_partial());
    assert_eq!(r.tuples.len(), 40);
    assert_eq!(state(&m), BreakerState::Closed);
}

#[test]
fn history_records_only_successful_submits() {
    let mut m = federation(FaultPlan::always(FaultKind::Unavailable), retry(2_000));
    m = m.with_options(MediatorOptions {
        record_history: true,
        ..Default::default()
    });
    let r = m
        .query(
            "SELECT e.name, a.action FROM Employee e, Audit a \
             WHERE e.id = a.emp_id AND e.id < 5",
        )
        .unwrap();
    assert!(r.is_partial());
    // Only the hr submit was measured; the failed files submit must not
    // poison the historical cost rules.
    assert!(m.history_recorded() <= 1);
}

/// Four single-collection wrappers behind `lan()` links sleeping
/// `sleep_scale` wall-clock ms per simulated ms.
fn sleepy_federation(sleep_scale: f64) -> Mediator {
    let mut t = ChannelTransport::new();
    for i in 0..4 {
        let name = format!("s{i}");
        let coll = format!("C{i}");
        let schema = Schema::new(vec![AttributeDef::new("x", DataType::Long)]);
        let mut store = PagedStore::new(&name, CostProfile::relational());
        store
            .add_collection(
                &coll,
                CollectionBuilder::new(schema).rows((0..50i64).map(|v| vec![Value::Long(v)])),
            )
            .unwrap();
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(&name, store)),
            NetProfile::lan().with_sleep_scale(sleep_scale),
            FaultPlan::none(),
        );
    }
    let mut m = Mediator::new();
    m.connect(TransportClient::new(Box::new(t))).unwrap();
    m
}

const FOUR_WAY_UNION: &str = "SELECT x FROM C0 UNION ALL SELECT x FROM C1 \
                              UNION ALL SELECT x FROM C2 UNION ALL SELECT x FROM C3";

#[test]
fn round_trips_overlap_on_the_wire() {
    // ~100 ms simulated round trip × 0.15 ≈ 15 ms of real sleep per site.
    let r = sleepy_federation(0.15).query(FOUR_WAY_UNION).unwrap();
    assert_eq!(r.tuples.len(), 200);
    assert_eq!(r.trace.submits.len(), 4);
    assert!(r.trace.concurrent);

    // Every request was sent before the first reply was awaited, so the
    // four sleeps overlap: one after another they would take ≥ 60 ms.
    assert!(
        r.trace.submit_wall_ms < 45.0,
        "fetch took {} ms, the four round trips did not overlap",
        r.trace.submit_wall_ms
    );
    for s in &r.trace.submits {
        assert_eq!(s.attempts, 1);
    }
    // The virtual clock agrees: the slowest subquery bounds the
    // response time, their sum is the total work.
    assert!(r.trace.predicted_parallel_ms() < r.trace.sequential_ms());
    assert!(r.trace.parallel_ms() < r.trace.sequential_ms());
}

#[test]
fn measured_ms_is_one_clock() {
    // `measured_ms` is virtual time only: how long the links really
    // sleep (and so how long the fetch takes on the wall) cannot move it.
    let instant = sleepy_federation(0.0).query(FOUR_WAY_UNION).unwrap();
    let sleepy = sleepy_federation(0.15).query(FOUR_WAY_UNION).unwrap();
    assert!(sleepy.trace.submit_wall_ms > instant.trace.submit_wall_ms);
    assert_eq!(
        instant.measured_ms.to_bits(),
        sleepy.measured_ms.to_bits(),
        "{} vs {}",
        instant.measured_ms,
        sleepy.measured_ms
    );
    assert_eq!(sleepy.measured_ms, sleepy.trace.sequential_ms());
}

/// A wrapper whose registration fails — connect() must surface it.
struct BadRegistration;

impl Wrapper for BadRegistration {
    fn name(&self) -> &str {
        "bad"
    }
    fn registration(&self) -> disco_common::Result<disco_wrapper::Registration> {
        Err(disco_common::DiscoError::Source("stats unavailable".into()))
    }
    fn execute(
        &self,
        _plan: &disco_algebra::LogicalPlan,
    ) -> disco_common::Result<disco_sources::SubAnswer> {
        unreachable!("never registered")
    }
}

#[test]
fn connect_surfaces_registration_failures() {
    let mut t = ChannelTransport::new();
    t.add_wrapper(Box::new(BadRegistration));
    let mut m = Mediator::new();
    let err = m.connect(TransportClient::new(Box::new(t))).unwrap_err();
    assert_eq!(err.kind(), "source");
}
