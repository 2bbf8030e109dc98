//! Chunking-invariance suite for the executor: across randomized seeded
//! federations — fault-free, fault-injected, and hedged — a chunked
//! (pipelined) execution must produce answers byte-identical to the
//! whole-answer (fetch-then-combine) one, degrade to the same partial
//! answers, and fail over to the same replicas. Only the *timing* story
//! may depend on the chunk size (first rows surface earlier, and an
//! abandoned stream ships fewer bytes), so the comparisons here cover
//! schema, tuples, completeness, missing collections, per-submit
//! failure flags and attempts — never `measured_ms` or byte counts.

use std::collections::BTreeSet;

use disco::common::rng::seeded;
use disco::common::{AttributeDef, DataType, Schema, Value};
use disco::mediator::{Mediator, MediatorOptions, QueryResult, ResiliencePolicy};
use disco::sources::{CollectionBuilder, CostProfile, PagedStore};
use disco::transport::{
    ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy, TransportClient,
};
use disco::wrapper::SourceWrapper;

/// Endpoints and the collection each serves. `R` is replicated (`ra`,
/// `rb`) so the hedging cases have a failover target.
const ENDPOINTS: &[(&str, &str)] = &[("ra", "R"), ("rb", "R"), ("sa", "S"), ("ua", "U")];

/// The query mix: scans, pushed selections, cross-wrapper joins, a
/// union, aggregation, and ORDER BY / LIMIT shapes (LIMIT also flips
/// the optimizer to the `TimeFirst` objective).
const QUERIES: &[&str] = &[
    "SELECT v FROM R",
    "SELECT id, v FROM R WHERE id < 23",
    "SELECT sid FROM S WHERE w = 2",
    "SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid",
    "SELECT r.id FROM R r, S s WHERE r.id = s.sid AND s.w < 4",
    "SELECT r.v, u.t FROM R r, U u WHERE r.id = u.uid ORDER BY r.v",
    "SELECT v FROM R UNION ALL SELECT w FROM S",
    "SELECT id FROM R WHERE v = 1 UNION SELECT uid FROM U",
    "SELECT v, COUNT(*) AS n FROM R GROUP BY v ORDER BY n DESC",
    "SELECT id, v FROM R ORDER BY id LIMIT 7",
    "SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid LIMIT 5",
];

fn schema_for(collection: &str) -> Schema {
    let (key, val) = match collection {
        "R" => ("id", "v"),
        "S" => ("sid", "w"),
        _ => ("uid", "t"),
    };
    Schema::new(vec![
        AttributeDef::new(key, DataType::Long),
        AttributeDef::new(val, DataType::Long),
    ])
}

/// Seeded rows — the same seed yields identical data on every replica
/// and in both federations under comparison.
fn rows_for(seed: u64, collection: &str) -> Vec<Vec<Value>> {
    let mut rng = seeded(seed, &format!("stream-eq:{collection}"));
    let count = rng.gen_range(10usize..60);
    let modulus = rng.gen_range(2i64..8);
    (0..count as i64)
        .map(|i| vec![Value::Long(i), Value::Long(i % modulus)])
        .collect()
}

/// The deterministic resilience posture of the chaos harness: simulated
/// deadlines catch delay faults, straggler hedges are refereed on
/// simulated first-frame times, and there is no query budget.
fn policy() -> ResiliencePolicy {
    ResiliencePolicy {
        predicted_deadlines: true,
        sim_deadlines: true,
        time_scale: 0.02,
        max_deadline_ms: 50.0,
        ..ResiliencePolicy::default()
    }
}

/// Rows per chunk on the chunked side: the 10–60-row collections span
/// several chunks.
const CHUNKED: Option<u32> = Some(7);

/// Build one federation over a `ChannelTransport`. Both sides get the
/// same data, profiles, and fault schedules; only `chunk_rows` differs.
fn federation<F: Fn(&str) -> FaultPlan>(seed: u64, faults: F, chunk_rows: Option<u32>) -> Mediator {
    let mut t = ChannelTransport::new();
    for (endpoint, collection) in ENDPOINTS {
        let mut s = PagedStore::new(*endpoint, CostProfile::relational());
        s.add_collection(
            *collection,
            CollectionBuilder::new(schema_for(collection)).rows(rows_for(seed, collection)),
        )
        .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(*endpoint, s)),
            NetProfile::lan(),
            faults(endpoint),
        );
    }
    let client = TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
        max_attempts: 2,
        deadline_ms: 200,
        backoff_base_ms: 1,
        backoff_factor: 2.0,
    });
    let mut m = Mediator::new().with_options(MediatorOptions {
        partial_answers: true,
        resilience: policy(),
        chunk_rows,
        ..MediatorOptions::default()
    });
    m.connect(client).expect("all wrappers register");
    m.declare_replicas("R", &["ra", "rb"]).expect("R replicas");
    m
}

/// Assert everything that must not depend on the chunk size for one
/// executed query. Timing fields (`measured_ms`, per-submit wall/comm
/// times, byte counts) are deliberately not compared.
fn assert_equivalent(sql: &str, ctx: &str, whole: &QueryResult, chunked: &QueryResult) {
    assert_eq!(whole.schema, chunked.schema, "{ctx} `{sql}`: schema");
    assert_eq!(whole.tuples, chunked.tuples, "{ctx} `{sql}`: answer");
    assert_eq!(
        whole.is_partial(),
        chunked.is_partial(),
        "{ctx} `{sql}`: completeness"
    );
    let missing = |r: &QueryResult| -> BTreeSet<String> {
        r.trace.missing.iter().map(|q| q.to_string()).collect()
    };
    assert_eq!(
        missing(whole),
        missing(chunked),
        "{ctx} `{sql}`: missing collections"
    );
    assert_eq!(
        whole.trace.submits.len(),
        chunked.trace.submits.len(),
        "{ctx} `{sql}`: submit count"
    );
    assert_eq!(
        whole.trace.hedges, chunked.trace.hedges,
        "{ctx} `{sql}`: hedges"
    );
    for (a, b) in whole.trace.submits.iter().zip(&chunked.trace.submits) {
        assert_eq!(a.wrapper, b.wrapper, "{ctx} `{sql}`: submit target");
        assert_eq!(a.failed, b.failed, "{ctx} `{sql}`: {} failed", a.wrapper);
        assert_eq!(
            a.attempts, b.attempts,
            "{ctx} `{sql}`: {} attempts",
            a.wrapper
        );
        assert_eq!(
            a.served_by, b.served_by,
            "{ctx} `{sql}`: {} served_by",
            a.wrapper
        );
    }
}

#[test]
fn fault_free_chunked_answers_are_byte_identical() {
    for seed in 0..12u64 {
        let mut whole = federation(seed, |_| FaultPlan::none(), None);
        let mut chunked = federation(seed, |_| FaultPlan::none(), CHUNKED);
        for sql in QUERIES {
            let a = whole.query(sql).unwrap();
            let b = chunked.query(sql).unwrap();
            assert!(!a.is_partial(), "seed {seed} `{sql}` degraded faultlessly");
            assert_equivalent(sql, &format!("seed {seed}"), &a, &b);
        }
    }
}

/// Seeded fault schedule: windows of unavailability, huge delays
/// (caught by the simulated deadline) and dropped messages, keyed off
/// per-endpoint submit sequence numbers, so both sides meet the same
/// faults at the same submits.
fn fault_schedule(seed: u64, endpoint: &str) -> FaultPlan {
    let mut rng = seeded(seed, &format!("stream-eq-fault:{endpoint}"));
    let mut plan = FaultPlan::none();
    for _ in 0..rng.gen_range(0usize..=2) {
        let from = rng.gen_range(0usize..25) as u64;
        let len = rng.gen_range(1usize..=4) as u64;
        let kind = match rng.gen_range(0usize..10) {
            0..=3 => FaultKind::Unavailable,
            4..=7 => FaultKind::Delay(1e6 * (1.0 + rng.gen_f64())),
            _ => FaultKind::Drop,
        };
        plan = plan.window(from, from.saturating_add(len), kind);
    }
    plan
}

#[test]
fn injected_faults_degrade_identically_at_either_chunking() {
    let mut hedged_seeds = 0;
    for seed in 0..10u64 {
        let mut whole = federation(seed, |e| fault_schedule(seed, e), None);
        let mut chunked = federation(seed, |e| fault_schedule(seed, e), CHUNKED);
        let mut hedges = 0;
        for (q, sql) in QUERIES.iter().cycle().take(2 * QUERIES.len()).enumerate() {
            let a = whole.query(sql).unwrap();
            let b = chunked.query(sql).unwrap();
            assert_equivalent(sql, &format!("seed {seed} query {q}"), &a, &b);
            hedges += b.trace.hedges;
        }
        hedged_seeds += usize::from(hedges > 0);
    }
    // Delay faults on `R`'s replicas must be hedged around, so the
    // comparison covers straggler hedges, not only failover.
    assert!(hedged_seeds > 0, "no seed ever hedged a straggler");
}

#[test]
fn hedged_failover_is_chunking_invariant() {
    // `ra` (the healthier-looking primary) is always down: every submit
    // of `R` must fail over to `rb` — identically at either chunking.
    let faults = |e: &str| {
        if e == "ra" {
            FaultPlan::always(FaultKind::Unavailable)
        } else {
            FaultPlan::none()
        }
    };
    let mut whole = federation(99, faults, None);
    let mut chunked = federation(99, faults, CHUNKED);
    let mut failovers = 0;
    for sql in QUERIES {
        let a = whole.query(sql).unwrap();
        let b = chunked.query(sql).unwrap();
        assert!(!a.is_partial(), "`{sql}`: replica must cover the outage");
        assert_equivalent(sql, "hedged", &a, &b);
        failovers += b
            .trace
            .submits
            .iter()
            .filter(|s| !s.failed && !s.served_by.is_empty() && s.served_by != s.wrapper)
            .count();
    }
    assert!(failovers > 0, "no submit ever failed over to `rb`");
}
