//! E12 — transport scaling: the executor's scatter-gather fetch against
//! one-at-a-time submission over the channel transport's simulated
//! network.
//!
//! Sweeps federations of 1–8 wrappers (one collection each, ~10 ms of
//! real sleep per round trip via `sleep_scale`) and measures the fetch
//! wall clock of a union query (every site's request on the wire before
//! the first reply is awaited) against this bin's own loop submitting
//! the same site plans one after another. Also runs a degraded 4-wrapper
//! federation with one endpoint permanently unavailable to demonstrate
//! partial answers, and a replicated straggler federation measuring
//! p50/p99 fetch latency with and without cost-model-driven hedging.
//! Besides the tables it writes `BENCH_transport.json`
//! (machine-readable, consumed by CI as an artifact).
//!
//! ```text
//! cargo run --release -p disco-bench --bin transport_scaling
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use disco_bench::Table;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{ExecutionTrace, Mediator, MediatorOptions, ResiliencePolicy};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, FaultKind, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

const MAX_WRAPPERS: usize = 8;
const ROWS_PER_COLLECTION: i64 = 200;

/// Real sleep per simulated round trip: lan() charges ~100 ms, scaled
/// to ~10 ms of wall clock so the sweep stays fast but measurable.
const SLEEP_SCALE: f64 = 0.1;

/// A federation of `n` single-collection wrappers `s0..s{n-1}`, the
/// wrapper named by `faulty` (if any) permanently unavailable.
fn federation(n: usize, faulty: Option<usize>) -> Mediator {
    let mut t = ChannelTransport::new();
    for i in 0..n {
        let schema = Schema::new(vec![
            AttributeDef::new("x", DataType::Long),
            AttributeDef::new("tag", DataType::Str),
        ]);
        let mut store = PagedStore::new(format!("s{i}"), CostProfile::relational());
        store
            .add_collection(
                format!("C{i}"),
                CollectionBuilder::new(schema).rows(
                    (0..ROWS_PER_COLLECTION)
                        .map(|v| vec![Value::Long(v), Value::Str(format!("w{i}r{v}"))]),
                ),
            )
            .expect("collection registers");
        let faults = if faulty == Some(i) {
            FaultPlan::always(FaultKind::Unavailable)
        } else {
            FaultPlan::none()
        };
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(format!("s{i}"), store)),
            NetProfile::lan().with_sleep_scale(SLEEP_SCALE),
            faults,
        );
    }
    let mut m = Mediator::new();
    m.connect(TransportClient::new(Box::new(t)))
        .expect("all wrappers register");
    m
}

/// `SELECT x FROM C0 UNION ALL ... UNION ALL SELECT x FROM C{n-1}`.
fn union_sql(n: usize) -> String {
    (0..n)
        .map(|i| format!("SELECT x FROM C{i}"))
        .collect::<Vec<_>>()
        .join(" UNION ALL ")
}

/// The sequential baseline: the site plans the executor just fetched,
/// submitted one after another — each round trip waited out before the
/// next request is sent. Returns the loop's wall clock in ms.
fn sequential_fetch_ms(m: &Mediator, trace: &ExecutionTrace) -> f64 {
    let client = m.transport().expect("federation is transport-connected");
    let started = Instant::now();
    for site in &trace.submits {
        let out = client
            .submit(&site.wrapper, &site.plan)
            .expect("submit succeeds");
        assert_eq!(out.answer.batch.len(), site.tuples);
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Extra simulated delay on the straggling replica `ra`: `lan()`
/// charges ~100 ms per round trip, so +900 ms makes it ~10× slower
/// than its healthy peer `rb`.
const STRAGGLER_DELAY_MS: f64 = 900.0;
const HEDGE_ITERATIONS: usize = 20;

/// `R` replicated on `ra` (straggling) and `rb` (healthy); the
/// optimizer plans to `ra` (declared first, identical cost), so every
/// fetch must either ride out the straggler or hedge around it.
fn replicated_federation(hedge: bool) -> Mediator {
    let mut t = ChannelTransport::new();
    for (name, faults) in [
        (
            "ra",
            FaultPlan::always(FaultKind::Delay(STRAGGLER_DELAY_MS)),
        ),
        ("rb", FaultPlan::none()),
    ] {
        let schema = Schema::new(vec![
            AttributeDef::new("x", DataType::Long),
            AttributeDef::new("tag", DataType::Str),
        ]);
        let mut store = PagedStore::new(name, CostProfile::relational());
        store
            .add_collection(
                "R",
                CollectionBuilder::new(schema).rows(
                    (0..ROWS_PER_COLLECTION)
                        .map(|v| vec![Value::Long(v), Value::Str(format!("{name}r{v}"))]),
                ),
            )
            .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(name, store)),
            NetProfile::lan().with_sleep_scale(SLEEP_SCALE),
            faults,
        );
    }
    let mut m = Mediator::new().with_options(MediatorOptions {
        resilience: ResiliencePolicy {
            hedge,
            // Wall deadlines/waits are derived from simulated
            // predictions; the endpoints sleep at SLEEP_SCALE. Hedge as
            // soon as a submit overruns its predicted TimeFirst — the
            // tail-latency posture this bench measures.
            straggler_factor: 1.0,
            time_scale: SLEEP_SCALE,
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    });
    m.connect(TransportClient::new(Box::new(t)))
        .expect("replicas register");
    m.declare_replicas("R", &["ra", "rb"]).expect("replica set");
    m
}

/// Latency samples for repeated single-scan queries against the
/// straggler federation; a fresh mediator per query keeps the adaptive
/// health penalty from re-planning to `rb` and hiding the straggler.
fn straggler_samples(hedge: bool) -> (Vec<f64>, u64) {
    let mut samples = Vec::with_capacity(HEDGE_ITERATIONS);
    let mut hedges = 0u64;
    for _ in 0..HEDGE_ITERATIONS {
        let mut m = replicated_federation(hedge);
        let r = m.query("SELECT x FROM R").expect("query succeeds");
        assert_eq!(r.tuples.len(), ROWS_PER_COLLECTION as usize);
        assert!(!r.is_partial());
        samples.push(r.trace.submit_wall_ms);
        hedges += u64::from(r.trace.hedges);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples, hedges)
}

/// Quantile of an ascending-sorted sample set (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let mut t = Table::new(&[
        "wrappers",
        "tuples",
        "seq fetch ms",
        "scatter fetch ms",
        "speedup",
        "predicted par ms",
        "measured par ms",
    ]);
    let mut json_rows = String::new();

    for n in 1..=MAX_WRAPPERS {
        let mut m = federation(n, None);
        let par = m.query(&union_sql(n)).expect("query succeeds");
        assert_eq!(par.tuples.len(), n * ROWS_PER_COLLECTION as usize);
        assert_eq!(par.trace.submits.len(), n);
        let seq_fetch_ms = sequential_fetch_ms(&m, &par.trace);
        assert_eq!(par.trace.concurrent, n > 1);
        let speedup = seq_fetch_ms / par.trace.submit_wall_ms.max(1e-9);
        if n > 1 {
            assert!(
                par.trace.submit_wall_ms < seq_fetch_ms,
                "scatter-gather fetch must beat sequential at n={n}: {} !< {seq_fetch_ms}",
                par.trace.submit_wall_ms,
            );
        }
        if n == MAX_WRAPPERS {
            assert!(
                speedup >= 4.0,
                "scatter-gather fetch must be at least 4x faster than \
                 sequential at {n} wrappers: {speedup:.1}x"
            );
        }
        t.row(vec![
            n.to_string(),
            par.tuples.len().to_string(),
            format!("{seq_fetch_ms:.2}"),
            format!("{:.2}", par.trace.submit_wall_ms),
            format!("{speedup:.1}x"),
            format!("{:.2}", par.trace.predicted_parallel_ms()),
            format!("{:.2}", par.trace.parallel_ms()),
        ]);
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        write!(
            json_rows,
            "\n    {{\"wrappers\": {n}, \"tuples\": {}, \
             \"sequential\": {{\"fetch_wall_ms\": {:.3}, \"response_ms\": {:.3}}}, \
             \"parallel\": {{\"fetch_wall_ms\": {:.3}, \"response_ms\": {:.3}, \
             \"predicted_ms\": {:.3}, \"concurrent\": {}}}, \
             \"speedup\": {:.3}}}",
            par.tuples.len(),
            seq_fetch_ms,
            par.trace.sequential_ms(),
            par.trace.submit_wall_ms,
            par.trace.parallel_ms(),
            par.trace.predicted_parallel_ms(),
            par.trace.concurrent,
            speedup,
        )
        .expect("write json row");
    }
    println!("{}", t.render());
    println!(
        "Sequential fetch pays each simulated round trip in turn; the \
         executor sends every request before it waits on a reply, so its \
         wall clock tracks the slowest wrapper instead of the sum."
    );

    // Degraded federation: 4 wrappers, one permanently down. The query
    // still answers, minus the dead wrapper's collection.
    let mut degraded = federation(4, Some(2));
    let r = degraded
        .query(&union_sql(4))
        .expect("partial answer, not error");
    assert!(r.is_partial(), "down wrapper must yield a partial answer");
    assert_eq!(r.tuples.len(), 3 * ROWS_PER_COLLECTION as usize);
    let missing: Vec<String> = r.trace.missing.iter().map(|q| q.to_string()).collect();
    println!(
        "\ndegraded federation (s2 down): {} tuples, partial answer, missing: {}",
        r.tuples.len(),
        missing.join(", ")
    );

    // Straggling replica: `ra` is ~10× slower than `rb`. Without
    // hedging every fetch rides out the straggler; with hedging the
    // predicted-`TimeFirst` timer fires and `rb` wins the race.
    let (plain, plain_hedges) = straggler_samples(false);
    let (hedged, hedged_hedges) = straggler_samples(true);
    assert_eq!(plain_hedges, 0, "hedging disabled must spend no hedges");
    assert!(hedged_hedges > 0, "the straggler must trigger hedges");
    let (plain_p50, plain_p99) = (quantile(&plain, 0.50), quantile(&plain, 0.99));
    let (hedged_p50, hedged_p99) = (quantile(&hedged, 0.50), quantile(&hedged, 0.99));
    let p99_improvement = plain_p99 / hedged_p99.max(1e-9);
    assert!(
        p99_improvement >= 2.0,
        "hedging must improve p99 fetch latency at least 2x under a \
         10x straggler: {plain_p99:.2} ms -> {hedged_p99:.2} ms \
         ({p99_improvement:.1}x)"
    );
    let mut ht = Table::new(&["mode", "p50 fetch ms", "p99 fetch ms", "hedges"]);
    ht.row(vec![
        "unhedged".into(),
        format!("{plain_p50:.2}"),
        format!("{plain_p99:.2}"),
        plain_hedges.to_string(),
    ]);
    ht.row(vec![
        "hedged".into(),
        format!("{hedged_p50:.2}"),
        format!("{hedged_p99:.2}"),
        hedged_hedges.to_string(),
    ]);
    println!(
        "\nstraggling replica (ra +{STRAGGLER_DELAY_MS} simulated ms, \
         {HEDGE_ITERATIONS} queries per mode):"
    );
    println!("{}", ht.render());
    println!("p99 improvement from hedging: {p99_improvement:.1}x");

    let json = format!(
        "{{\n  \"bench\": \"transport_scaling\",\n  \"workload\": \"union\",\n  \
         \"wrappers\": [1, {MAX_WRAPPERS}],\n  \"sleep_scale\": {SLEEP_SCALE},\n  \
         \"rows\": [{json_rows}\n  ],\n  \
         \"degraded\": {{\"wrappers\": 4, \"down\": \"s2\", \"partial\": {}, \
         \"tuples\": {}, \"missing\": [{}]}},\n  \
         \"hedging\": {{\"iterations\": {HEDGE_ITERATIONS}, \"straggler\": \"ra\", \
         \"straggler_delay_ms\": {STRAGGLER_DELAY_MS}, \
         \"unhedged\": {{\"p50_ms\": {plain_p50:.3}, \"p99_ms\": {plain_p99:.3}, \"hedges\": {plain_hedges}}}, \
         \"hedged\": {{\"p50_ms\": {hedged_p50:.3}, \"p99_ms\": {hedged_p99:.3}, \"hedges\": {hedged_hedges}}}, \
         \"p99_improvement\": {p99_improvement:.3}}}\n}}\n",
        r.is_partial(),
        r.tuples.len(),
        missing
            .iter()
            .map(|m| format!("\"{m}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write("BENCH_transport.json", &json).expect("write BENCH_transport.json");
    println!("wrote BENCH_transport.json");
}
