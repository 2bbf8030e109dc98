//! E16 — chunked (pipelined) execution: time-to-first-row vs
//! full-answer latency over slow simulated links.
//!
//! A three-wrapper federation sits behind a slow network profile
//! (50 ms latency, 50 bytes/ms, no jitter) whose simulated
//! communication time is partially slept (`sleep_scale`), so wall
//! clocks are real. The same queries run through the one executor with
//! whole answers (`chunk_rows: None`, fetch-then-combine) and with
//! `chunk_rows: Some(2048)` (pipelined):
//!
//! * **LIMIT workload** — an interactive `LIMIT` query (planned under
//!   the `TimeFirst` objective) whose chunked execution stops pulling
//!   after the first chunks. Asserts the chunked first row *and* the
//!   chunked complete answer arrive ≥ 3× sooner than the whole-answer
//!   run.
//! * **Full workload** — a full single-site scan, where chunking
//!   cannot skip any transfer. Asserts chunked throughput regresses
//!   < 5% against whole-answer.
//!
//! Writes `BENCH_streaming.json` (machine-readable, consumed by CI as
//! an artifact).
//!
//! ```text
//! cargo run --release -p disco-bench --bin streaming_latency
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use disco_bench::Table;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{Mediator, MediatorOptions};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

const WRAPPERS: usize = 3;
const ROWS_PER_COLLECTION: i64 = 20_000;
const CHUNKED: Option<u32> = Some(2_048);
const REPEATS: usize = 5;

/// Slow link: high latency, narrow pipe, deterministic (no jitter).
/// `sleep_scale` converts ~2% of simulated milliseconds into real
/// sleeps, so a full 20k-row transfer costs tens of real milliseconds.
fn slow_link() -> NetProfile {
    NetProfile {
        latency_ms: 50.0,
        bytes_per_ms: 50.0,
        jitter_ms: 0.0,
        sleep_scale: 0.02,
    }
}

/// `WRAPPERS` single-collection endpoints behind the slow profile.
fn federation(chunk_rows: Option<u32>) -> Mediator {
    let mut t = ChannelTransport::new();
    for i in 0..WRAPPERS {
        let schema = Schema::new(vec![
            AttributeDef::new("x", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let mut store = PagedStore::new(format!("s{i}"), CostProfile::relational());
        store
            .add_collection(
                format!("C{i}"),
                CollectionBuilder::new(schema).rows(
                    (0..ROWS_PER_COLLECTION).map(|x| vec![Value::Long(x), Value::Long(x % 97)]),
                ),
            )
            .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(format!("s{i}"), store)),
            slow_link(),
            disco_transport::FaultPlan::none(),
        );
    }
    let mut m = Mediator::new().with_options(MediatorOptions {
        chunk_rows,
        ..MediatorOptions::default()
    });
    m.connect(TransportClient::new(Box::new(t)))
        .expect("all wrappers register");
    m
}

/// One timed query on a fresh federation: (total wall ms, wall ms to
/// first answer row, rows).
fn timed(chunk_rows: Option<u32>, sql: &str) -> (f64, f64, usize) {
    let mut m = federation(chunk_rows);
    let start = Instant::now();
    let r = m.query(sql).expect("query succeeds");
    let wall = start.elapsed().as_secs_f64() * 1000.0;
    assert!(!r.is_partial());
    let first_row = r.trace.first_row_wall_ms.expect("non-empty answer");
    (wall, first_row, r.tuples.len())
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Workload {
    name: &'static str,
    sql: String,
    whole_ms: f64,
    chunked_ms: f64,
    first_row_ms: f64,
    rows: usize,
}

fn run_workload(name: &'static str, sql: String) -> Workload {
    let mut whole = Vec::new();
    let mut chunked = Vec::new();
    let mut first = Vec::new();
    let mut rows = 0;
    for _ in 0..REPEATS {
        let (wall, _, n) = timed(None, &sql);
        whole.push(wall);
        let (wall, first_row, n2) = timed(CHUNKED, &sql);
        assert_eq!(n, n2, "chunking changed the answer to `{sql}`");
        rows = n;
        chunked.push(wall);
        first.push(first_row);
    }
    Workload {
        name,
        sql,
        whole_ms: median(&mut whole),
        chunked_ms: median(&mut chunked),
        first_row_ms: median(&mut first),
        rows,
    }
}

fn main() {
    // Interactive: a LIMIT across the federation. Chunked execution
    // answers out of the first chunks and abandons the rest of every
    // stream; whole-answer execution ships all three collections before
    // truncating.
    let limit_sql = (0..WRAPPERS)
        .map(|i| format!("SELECT x FROM C{i}"))
        .collect::<Vec<_>>()
        .join(" UNION ALL ")
        + " LIMIT 10";
    let limit = run_workload("limit", limit_sql);

    // Throughput: one full scan — every byte must cross the slow link
    // either way, so chunking may only cost its framing overhead.
    let full = run_workload("full-scan", "SELECT x, v FROM C0".to_string());

    let first_row_improvement = limit.whole_ms / limit.first_row_ms.max(1e-9);
    let answer_improvement = limit.whole_ms / limit.chunked_ms.max(1e-9);
    let full_regression = full.chunked_ms / full.whole_ms.max(1e-9) - 1.0;

    let mut t = Table::new(&[
        "workload",
        "rows",
        "whole ms",
        "chunked ms",
        "first row ms",
        "first-row speedup",
    ]);
    for w in [&limit, &full] {
        t.row(vec![
            w.name.to_string(),
            w.rows.to_string(),
            format!("{:.2}", w.whole_ms),
            format!("{:.2}", w.chunked_ms),
            format!("{:.2}", w.first_row_ms),
            format!("{:.1}x", w.whole_ms / w.first_row_ms.max(1e-9)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "LIMIT workload: first row {first_row_improvement:.1}x sooner, complete \
         answer {answer_improvement:.1}x sooner than whole-answer; full-scan \
         throughput regression {:+.1}%.",
        full_regression * 100.0
    );

    assert!(
        first_row_improvement >= 3.0,
        "chunked first row must arrive >= 3x sooner on the LIMIT workload: \
         whole {:.2} ms vs first row {:.2} ms ({first_row_improvement:.1}x)",
        limit.whole_ms,
        limit.first_row_ms
    );
    assert!(
        answer_improvement >= 3.0,
        "chunked LIMIT answer must complete >= 3x sooner: whole {:.2} ms \
         vs chunked {:.2} ms ({answer_improvement:.1}x)",
        limit.whole_ms,
        limit.chunked_ms
    );
    assert!(
        full_regression < 0.05,
        "full-answer throughput must regress < 5%: whole {:.2} ms vs \
         chunked {:.2} ms ({:+.1}%)",
        full.whole_ms,
        full.chunked_ms,
        full_regression * 100.0
    );

    let mut json_rows = String::new();
    for w in [&limit, &full] {
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        write!(
            json_rows,
            "\n    {{\"workload\": \"{}\", \"sql\": \"{}\", \"rows\": {}, \
             \"whole_ms\": {:.3}, \"chunked_ms\": {:.3}, \
             \"first_row_ms\": {:.3}}}",
            w.name, w.sql, w.rows, w.whole_ms, w.chunked_ms, w.first_row_ms,
        )
        .expect("write json row");
    }
    let json = format!(
        "{{\n  \"bench\": \"streaming_latency\",\n  \"wrappers\": {WRAPPERS},\n  \
         \"rows_per_collection\": {ROWS_PER_COLLECTION},\n  \
         \"chunk_rows\": {},\n  \"repeats\": {REPEATS},\n  \
         \"link\": {{\"latency_ms\": 50.0, \"bytes_per_ms\": 50.0, \
         \"sleep_scale\": 0.02}},\n  \"workloads\": [{json_rows}\n  ],\n  \
         \"first_row_improvement\": {first_row_improvement:.3},\n  \
         \"answer_improvement\": {answer_improvement:.3},\n  \
         \"full_scan_regression\": {full_regression:.4}\n}}\n",
        CHUNKED.expect("a chunk size"),
    );
    std::fs::write("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
    println!("wrote BENCH_streaming.json");
}
