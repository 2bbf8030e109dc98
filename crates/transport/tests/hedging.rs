//! Hedged stream-open races over the channel transport: straggler hedges,
//! failover after failures, and the interaction with circuit breakers —
//! in particular that a hedge arriving at a half-open endpoint *is* the
//! breaker's single probe, not an extra one.

use disco_algebra::{LogicalPlan, PlanBuilder};
use disco_common::Result;
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{
    BreakerPolicy, BreakerState, ChannelTransport, FaultKind, FaultPlan, HedgeTarget,
    HedgedStreamOutcome, NetProfile, RetryPolicy, SubmitOptions, TransportClient,
};
use disco_wrapper::SourceWrapper;

fn replica_store(wrapper: &str) -> PagedStore {
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ]);
    let mut s = PagedStore::new(wrapper, CostProfile::relational());
    s.add_collection(
        "R",
        CollectionBuilder::new(schema)
            .rows((0..50i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)])),
    )
    .unwrap();
    s
}

/// Two replicas of `R` behind links that really sleep (~10 ms per
/// simulated round trip: 0.1 wall ms per simulated ms), `ra` under the
/// given fault plan.
fn replicated_transport(ra_faults: FaultPlan) -> ChannelTransport {
    let mut t = ChannelTransport::new();
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("ra", replica_store("ra"))),
        NetProfile::lan().with_sleep_scale(0.1),
        ra_faults,
    );
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("rb", replica_store("rb"))),
        NetProfile::lan().with_sleep_scale(0.1),
        FaultPlan::none(),
    );
    t
}

fn scan(wrapper: &str) -> LogicalPlan {
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ]);
    PlanBuilder::scan(QualifiedName::new(wrapper, "R"), schema).build()
}

fn target(endpoint: &str) -> HedgeTarget {
    HedgeTarget {
        endpoint: endpoint.into(),
        plan: scan("ra").retargeted(endpoint),
        opts: SubmitOptions::default(),
    }
}

fn targets() -> Vec<HedgeTarget> {
    vec![target("ra"), target("rb")]
}

/// Rows per chunk: the 50-row answers arrive as several frames, so the
/// race is decided by the first one.
const CHUNK_ROWS: u32 = 16;

/// Begin and finish one stream open back to back. `straggler_ms` is the
/// hedge threshold in simulated milliseconds.
fn open(
    client: &TransportClient,
    targets: Vec<HedgeTarget>,
    straggler_ms: Option<f64>,
    mut hedge_allowance: u32,
) -> Result<HedgedStreamOutcome> {
    let pending = client.begin_stream(targets, CHUNK_ROWS)?;
    client.finish_stream(pending, straggler_ms, &mut hedge_allowance)
}

/// Rows the winning stream delivers when drained to its end frame.
fn rows(mut h: HedgedStreamOutcome) -> usize {
    let mut rows = 0;
    while let Some(chunk) = h.stream.next_chunk().unwrap() {
        rows += chunk.batch.len();
    }
    assert!(h.stream.stats().is_some(), "drained to the end frame");
    rows
}

fn one_shot() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        deadline_ms: 2_000,
        backoff_base_ms: 1,
        backoff_factor: 2.0,
    }
}

#[test]
fn healthy_primary_wins_without_hedging() {
    let t = replicated_transport(FaultPlan::none());
    let client = TransportClient::new(Box::new(t)).with_retry(one_shot());
    // Generous straggler threshold (≈ 2 s of real sleep): the primary
    // answers well inside it.
    let h = open(&client, targets(), Some(20_000.0), 2).unwrap();
    assert_eq!(h.winner, 0);
    assert_eq!(h.hedges, 0);
    assert_eq!(rows(h), 50);
}

#[test]
fn straggling_primary_is_hedged_around() {
    // ~500 simulated ms of extra delay on `ra` ≈ 50 ms of real sleep;
    // `rb` answers in ~10 ms. Hedge after 200 simulated ms (20 ms): `rb`
    // wins the race.
    let t = replicated_transport(FaultPlan::always(FaultKind::Delay(500.0)));
    let client = TransportClient::new(Box::new(t)).with_retry(one_shot());
    let h = open(&client, targets(), Some(200.0), 2).unwrap();
    assert_eq!(h.winner, 1, "the hedge to rb must win");
    assert_eq!(h.hedges, 1);
    assert_eq!(rows(h), 50);
}

#[test]
fn exhausted_hedge_allowance_waits_for_the_primary() {
    let t = replicated_transport(FaultPlan::always(FaultKind::Delay(500.0)));
    let client = TransportClient::new(Box::new(t)).with_retry(one_shot());
    // Allowance 0: no straggler hedge may launch; the slow primary still
    // answers eventually.
    let h = open(&client, targets(), Some(200.0), 0).unwrap();
    assert_eq!(h.winner, 0);
    assert_eq!(h.hedges, 0);
}

#[test]
fn failed_primary_fails_over_without_spending_the_allowance() {
    let t = replicated_transport(FaultPlan::always(FaultKind::Unavailable));
    let client = TransportClient::new(Box::new(t)).with_retry(one_shot());
    // No straggler wait and zero allowance: failover after a *failure*
    // is always permitted.
    let h = open(&client, targets(), None, 0).unwrap();
    assert_eq!(h.winner, 1);
    assert_eq!(h.hedges, 0);
    assert_eq!(rows(h), 50);
}

#[test]
fn all_replicas_down_is_one_error() {
    let mut t = ChannelTransport::new();
    for name in ["ra", "rb"] {
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(name, replica_store(name))),
            NetProfile::lan().with_sleep_scale(0.1),
            FaultPlan::always(FaultKind::Unavailable),
        );
    }
    let client = TransportClient::new(Box::new(t)).with_retry(one_shot());
    let err = open(&client, targets(), None, 2).unwrap_err();
    assert!(err.is_transient());
}

#[test]
fn hedge_to_half_open_endpoint_is_the_single_probe() {
    // `ra` fails its first three submits, then recovers; `rb` is
    // permanently slow (~500 simulated ms ≈ 50 ms of real sleep).
    // Breaker policy: open at 3 failures, half-open after 2 rejections.
    let mut t = ChannelTransport::new();
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("ra", replica_store("ra"))),
        NetProfile::lan().with_sleep_scale(0.1),
        FaultPlan::first_n(FaultKind::Unavailable, 3),
    );
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("rb", replica_store("rb"))),
        NetProfile::lan().with_sleep_scale(0.1),
        FaultPlan::always(FaultKind::Delay(500.0)),
    );
    let client = TransportClient::new(Box::new(t))
        .with_retry(one_shot())
        .with_breaker(BreakerPolicy {
            failure_threshold: 3,
            cooldown_calls: 2,
        });

    // Trip the breaker on `ra`.
    for _ in 0..3 {
        assert!(open(&client, vec![target("ra")], None, 0).is_err());
    }
    assert_eq!(client.breaker_state("ra"), Some(BreakerState::Open));
    // Burn the cooldown with fast-rejected calls.
    for _ in 0..2 {
        assert!(open(&client, vec![target("ra")], None, 0).is_err());
        assert_eq!(client.breaker_state("ra"), Some(BreakerState::Open));
    }

    // Hedged submit with a *straggling* primary `rb` and replica `ra`:
    // the hedge reaches `ra` exactly once, as the breaker's half-open
    // probe. `ra` has recovered, so the probe succeeds and the breaker
    // closes — the hedge IS the probe, not a bypass of it.
    // Threshold 50 simulated ms ≈ 5 ms of real sleep.
    let h = open(&client, vec![target("rb"), target("ra")], Some(50.0), 2).unwrap();
    assert_eq!(h.winner, 1, "the probe submit to ra must win");
    assert_eq!(rows(h), 50);
    assert_eq!(client.breaker_state("ra"), Some(BreakerState::Closed));
}
