//! E18 — adaptive re-optimization under seeded cardinality skew.
//!
//! An adversarial three-site federation where the estimator's uniformity
//! assumption is catastrophically wrong for exactly one site: `S.k` has
//! 1 001 distinct values but one dominant value covering 87% of the
//! rows, so `WHERE s.k = 0` predicts `|S|/1001 ≈ 8` rows and observes
//! 7 000 — all carrying the same join value `y = 0` that `B`'s hot
//! partition also carries. Under the tiny prediction the static
//! optimizer joins `S` first and builds a ~7M-row intermediate; the
//! corrected cardinalities make `(A⋈B)`-first orders of magnitude
//! cheaper on the combine side. The adaptive executor detects the miss
//! as the subanswer arrives (whole, or mid-stream when chunked),
//! abandons the running order, and re-drives the combine from the
//! already-materialized subanswers.
//!
//! Asserted: adaptive ≥ 2× faster than static end-to-end at both
//! chunkings (10× is the target and the measured number is recorded),
//! identical answers, a visible re-plan event in EXPLAIN ANALYZE, zero
//! re-plans plus <5% regression on the uniform (no-skew) control.
//! Writes `BENCH_adaptive.json` (consumed by CI as an artifact) and
//! exits nonzero if any gate fails.
//!
//! ```text
//! cargo run --release -p disco-bench --bin adaptive_skew
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use disco_bench::Table;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{AdaptivePolicy, Mediator, MediatorOptions, QueryResult};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_wrapper::SourceWrapper;

const A_ROWS: i64 = 4_000;
const B_ROWS: i64 = 2_000;
const S_ROWS: i64 = 8_000;
/// Singleton `k` values that keep `count_distinct(S.k)` high while the
/// dominant `k = 0` holds the other 7 000 rows.
const S_MINORITY: i64 = 1_000;

const SKEW_SQL: &str = "SELECT a.x, b.y, s.k FROM A a, B b, S s \
     WHERE a.p = 2 AND a.x = b.x AND b.y = s.y AND s.k = 0";

fn long_schema(attrs: &[&str]) -> Schema {
    Schema::new(
        attrs
            .iter()
            .map(|a| AttributeDef::new(*a, DataType::Long))
            .collect(),
    )
}

/// Chain federation `A(x,p) ⋈ B(x,y) ⋈ S(y,k)`.
///
/// * `A`: `x` unique, `p = x mod 5` — the `a.p = 2` filter keeps 800
///   rows and is predicted exactly (no skew on `A`).
/// * `B`: 1 000 "hot" rows with out-of-domain `x` and `y = 0` — what the
///   bad join order multiplies against `S` and the good order discards —
///   plus 1 000 "cold" rows whose `x` overlaps `A` and whose `y` is
///   long-tail (one bridge row `x = 7, y = 0` keeps the answer
///   nonempty).
/// * `S` (skewed): 7 000 rows with `k = 0` and `y = 0`; 1 000 singleton
///   `k` values keep `count_distinct(k) = 1001`, so the estimator
///   predicts ~8 rows where 7 000 survive — every one joining `B`'s hot
///   partition.
/// * `S` (uniform control): `k = i mod 1001`, `y = i mod 97` — the same
///   prediction is now exactly right, so the checkpoint must stay
///   silent.
fn federation(skewed: bool, chunk_rows: Option<u32>, adaptive: AdaptivePolicy) -> Mediator {
    let mut a = PagedStore::new("a", CostProfile::relational());
    a.add_collection(
        "A",
        CollectionBuilder::new(long_schema(&["x", "p"]))
            .rows((0..A_ROWS).map(|i| vec![Value::Long(i), Value::Long(i % 5)]))
            .index("p"),
    )
    .unwrap();
    let mut b = PagedStore::new("b", CostProfile::relational());
    b.add_collection(
        "B",
        CollectionBuilder::new(long_schema(&["x", "y"])).rows((0..B_ROWS).map(|i| {
            if i < B_ROWS / 2 {
                vec![Value::Long(100_000 + i), Value::Long(0)]
            } else {
                let x = i - B_ROWS / 2;
                let y = if x == 7 { 0 } else { 4 + (x % 96) };
                vec![Value::Long(x), Value::Long(y)]
            }
        })),
    )
    .unwrap();
    let mut s = PagedStore::new("s", CostProfile::relational());
    s.add_collection(
        "S",
        CollectionBuilder::new(long_schema(&["y", "k"]))
            .rows((0..S_ROWS).map(|i| {
                if !skewed {
                    vec![Value::Long(i % 97), Value::Long(i % 1001)]
                } else if i < S_ROWS - S_MINORITY {
                    vec![Value::Long(0), Value::Long(0)]
                } else {
                    vec![
                        Value::Long(4 + (i % 96)),
                        Value::Long(i - (S_ROWS - S_MINORITY) + 1),
                    ]
                }
            }))
            .index("k"),
    )
    .unwrap();
    let mut m = Mediator::new().with_options(MediatorOptions {
        chunk_rows,
        adaptive,
        ..MediatorOptions::default()
    });
    m.register(Box::new(SourceWrapper::new("a", a))).unwrap();
    m.register(Box::new(SourceWrapper::new("b", b))).unwrap();
    m.register(Box::new(SourceWrapper::new("s", s))).unwrap();
    m
}

/// Order-insensitive answer digest: reordering permutes rows, never
/// content.
fn answer_key(r: &QueryResult) -> String {
    let mut rows: Vec<String> = r.tuples.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows.join("\n")
}

struct Run {
    result: QueryResult,
    wall_ms: f64,
}

fn run(skewed: bool, chunk_rows: Option<u32>, adaptive: AdaptivePolicy) -> Run {
    let mut m = federation(skewed, chunk_rows, adaptive);
    let start = Instant::now();
    let result = m.query(SKEW_SQL).expect("query");
    Run {
        result,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

struct WorkloadRow {
    chunking: &'static str,
    static_ms: f64,
    adaptive_ms: f64,
    speedup: f64,
    combine_speedup: f64,
    replans: usize,
    wall_static_ms: f64,
    wall_adaptive_ms: f64,
}

fn main() {
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            eprintln!("FAIL: {what}");
            failures.push(what);
        }
    };

    // --- seeded-skew federation, both chunkings -----------------------
    let oracle = answer_key(&run(true, None, AdaptivePolicy::default()).result);
    let mut rows: Vec<WorkloadRow> = Vec::new();
    for (chunking, chunk_rows) in [("whole", None), ("chunked_1024", Some(1024))] {
        let stat = run(true, chunk_rows, AdaptivePolicy::default());
        let adap = run(true, chunk_rows, AdaptivePolicy::enabled());
        check(
            answer_key(&stat.result) == oracle && answer_key(&adap.result) == oracle,
            format!("{chunking}: adaptive answer must be byte-identical to static"),
        );
        check(
            stat.result.trace.replans.is_empty(),
            format!("{chunking}: static run must not re-plan"),
        );
        check(
            adap.result.trace.replans.iter().any(|e| e.switched),
            format!("{chunking}: seeded skew must trigger a switched re-plan"),
        );
        let speedup = stat.result.measured_ms / adap.result.measured_ms;
        let combine_speedup = stat.result.trace.mediator_ms / adap.result.trace.mediator_ms;
        check(
            speedup >= 2.0,
            format!("{chunking}: adaptive must be >=2x faster end-to-end (got {speedup:.2}x)"),
        );
        rows.push(WorkloadRow {
            chunking,
            static_ms: stat.result.measured_ms,
            adaptive_ms: adap.result.measured_ms,
            speedup,
            combine_speedup,
            replans: adap.result.trace.replans.len(),
            wall_static_ms: stat.wall_ms,
            wall_adaptive_ms: adap.wall_ms,
        });
    }

    // --- no-skew control: dead zone respected, no regression ----------
    let ctrl_static = run(false, None, AdaptivePolicy::default());
    let ctrl_adaptive = run(false, None, AdaptivePolicy::enabled());
    check(
        answer_key(&ctrl_static.result) == answer_key(&ctrl_adaptive.result),
        "no-skew: answers must match".into(),
    );
    check(
        ctrl_adaptive.result.trace.replans.is_empty(),
        "no-skew: accurate predictions must trigger zero re-plans".into(),
    );
    let regression = ctrl_adaptive.result.measured_ms / ctrl_static.result.measured_ms - 1.0;
    check(
        regression < 0.05,
        format!(
            "no-skew: adaptive overhead must stay <5% (got {:+.2}%)",
            regression * 100.0
        ),
    );

    // --- EXPLAIN ANALYZE narrates the abandonment ---------------------
    let report = federation(true, None, AdaptivePolicy::enabled())
        .explain_analyze(SKEW_SQL)
        .expect("explain analyze");
    let text = report.render();
    check(
        text.contains("re-optimized: predicted"),
        "EXPLAIN ANALYZE must contain the re-plan event".into(),
    );

    let mut t = Table::new(&[
        "chunking",
        "static ms",
        "adaptive ms",
        "speedup",
        "combine speedup",
        "replans",
        "wall static ms",
        "wall adaptive ms",
    ]);
    for r in &rows {
        t.row(vec![
            r.chunking.to_string(),
            format!("{:.1}", r.static_ms),
            format!("{:.1}", r.adaptive_ms),
            format!("{:.2}x", r.speedup),
            format!("{:.1}x", r.combine_speedup),
            r.replans.to_string(),
            format!("{:.1}", r.wall_static_ms),
            format!("{:.1}", r.wall_adaptive_ms),
        ]);
    }
    println!("{}", t.render());
    println!(
        "no-skew control: static {:.1} ms, adaptive {:.1} ms ({:+.2}%), 0 re-plans",
        ctrl_static.result.measured_ms,
        ctrl_adaptive.result.measured_ms,
        regression * 100.0
    );
    println!("\nEXPLAIN ANALYZE (skew, adaptive) excerpt:");
    for line in text.lines().filter(|l| l.contains("re-optimized")) {
        println!("  {}", line.trim_start());
    }
    println!(
        "\nThe static plan trusts the uniformity assumption and joins the \
         skew-filtered S first (~8 rows predicted, 7 000 observed), \
         multiplying it against B's hot partition; the adaptive executor \
         abandons that order when the measured cardinality arrives and re-drives \
         the combine from the same materialized subanswers."
    );

    let mut json_rows = String::new();
    for r in &rows {
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        write!(
            json_rows,
            "\n    {{\"chunking\": \"{}\", \"static_ms\": {:.3}, \
             \"adaptive_ms\": {:.3}, \"speedup\": {:.3}, \
             \"combine_speedup\": {:.3}, \"replans\": {}, \
             \"wall_static_ms\": {:.3}, \"wall_adaptive_ms\": {:.3}}}",
            r.chunking,
            r.static_ms,
            r.adaptive_ms,
            r.speedup,
            r.combine_speedup,
            r.replans,
            r.wall_static_ms,
            r.wall_adaptive_ms,
        )
        .expect("write json row");
    }
    let pass = failures.is_empty();
    let json = format!(
        "{{\n  \"bench\": \"adaptive_skew\",\n  \
         \"rows\": {{\"A\": {A_ROWS}, \"B\": {B_ROWS}, \"S\": {S_ROWS}}},\n  \
         \"asserted_speedup\": 2.0,\n  \"target_speedup\": 10.0,\n  \
         \"workloads\": [{json_rows}\n  ],\n  \
         \"no_skew\": {{\"static_ms\": {:.3}, \"adaptive_ms\": {:.3}, \
         \"replans\": {}, \"regression\": {:.4}}},\n  \"pass\": {pass}\n}}\n",
        ctrl_static.result.measured_ms,
        ctrl_adaptive.result.measured_ms,
        ctrl_adaptive.result.trace.replans.len(),
        regression,
    );
    std::fs::write("BENCH_adaptive.json", &json).expect("write BENCH_adaptive.json");
    println!("wrote BENCH_adaptive.json");

    if !pass {
        eprintln!("{} gate(s) failed", failures.len());
        std::process::exit(1);
    }
}
