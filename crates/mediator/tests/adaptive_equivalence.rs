//! Differential tests for mid-query adaptive re-optimization: adaptive
//! runs must return exactly the same answers as static runs, with whole
//! answers and with chunked ones, while actually exercising the re-plan
//! path.
//!
//! The skew federation seeds a cardinality misestimate through the
//! estimator's own uniformity assumption (equality selectivity is
//! `1/count_distinct`): collection `S`'s filter attribute `k` has ~400
//! distinct values but one dominant value covering ~90% of the rows, so
//! `WHERE k = 0` predicts `|S|/400` rows and observes ~`0.9·|S|` — a
//! natural two-orders-of-magnitude error, no stale-statistics machinery
//! required. The join graph is the chain `A–B–S`, where `S` sits at the
//! end: under the tiny prediction the `(B⋈S)`-first order is cheapest,
//! under the observed truth `(A⋈B)`-first is — so a correct re-planner
//! must abandon the running order and switch.

use disco_common::rng::seeded;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{
    AdaptivePolicy, Mediator, MediatorOptions, PlanSource, QueryResult, SharedMediator,
};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_wrapper::SourceWrapper;

/// Order-insensitive answer digest (the chaos-soak convention): join
/// reordering legitimately permutes row order, never row content.
fn answer_key(r: &QueryResult) -> String {
    let mut rows: Vec<String> = r.tuples.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows.join("\n")
}

/// The chunked setting of every sweep: small enough that the 4k-row
/// sites span many chunks and the trigger fires mid-stream.
const CHUNKED: Option<u32> = Some(64);

fn long_schema(attrs: &[&str]) -> Schema {
    Schema::new(
        attrs
            .iter()
            .map(|a| AttributeDef::new(*a, DataType::Long))
            .collect(),
    )
}

/// `S(y, k)`: `k` is the skewed attribute — value 0 dominates while up
/// to 399 singleton values keep `count_distinct` high.
fn skew_rows(n: i64) -> Vec<Vec<Value>> {
    let minority = 399.min(n / 20);
    (0..n)
        .map(|i| {
            let k = if i < n - minority {
                0
            } else {
                i - (n - minority) + 1
            };
            vec![Value::Long(i % 100), Value::Long(k)]
        })
        .collect()
}

/// Chain federation: `A(x, p)` ⋈ `B(x, y)` ⋈ `S(y, k)`, with `S`
/// skew-filtered and `A` carrying an accurately-predicted filter of its
/// own (`p = 7` keeps 400 of 4k rows). `A.x` is unique while `B.x` has
/// 400 distinct values, so `A⋈B` stays at ~400 rows regardless of `S`:
/// under the tiny `S` prediction the `(B⋈S)`-first order is cheapest
/// (~80 rows), under the observed truth it builds a ~15k-row
/// intermediate that `(A⋈B)`-first avoids — the re-planner must switch.
fn federation_sized(n_s: i64, chunk_rows: Option<u32>, adaptive: AdaptivePolicy) -> Mediator {
    let mut a = PagedStore::new("a", CostProfile::relational());
    a.add_collection(
        "A",
        CollectionBuilder::new(long_schema(&["x", "p"]))
            .rows((0..4_000i64).map(|i| vec![Value::Long(i), Value::Long(i % 10)])),
    )
    .unwrap();
    let mut b = PagedStore::new("b", CostProfile::relational());
    b.add_collection(
        "B",
        CollectionBuilder::new(long_schema(&["x", "y"]))
            .rows((0..400i64).map(|i| vec![Value::Long(i), Value::Long(i % 100)])),
    )
    .unwrap();
    let mut s = PagedStore::new("s", CostProfile::relational());
    s.add_collection(
        "S",
        CollectionBuilder::new(long_schema(&["y", "k"])).rows(skew_rows(n_s)),
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

fn federation(chunk_rows: Option<u32>, adaptive: AdaptivePolicy) -> Mediator {
    federation_sized(4_000, chunk_rows, adaptive)
}

/// Chain join ending at the skew-filtered `S`: the optimizer predicts
/// ~20 rows out of `S` and joins it early; reality is ~3.8k rows.
const SKEW_SQL: &str = "SELECT a.x, b.y, s.k FROM A a, B b, S s \
     WHERE a.p = 7 AND a.x = b.x AND b.y = s.y AND s.k = 0";

#[test]
fn whole_answer_adaptive_switches_and_matches_static() {
    let want = answer_key(
        &federation(None, AdaptivePolicy::default())
            .query(SKEW_SQL)
            .unwrap(),
    );
    let r = federation(None, AdaptivePolicy::enabled())
        .query(SKEW_SQL)
        .unwrap();
    assert_eq!(answer_key(&r), want, "adaptive answer diverged from static");
    assert!(
        !r.trace.replans.is_empty(),
        "seeded ~190x misestimate must trigger a re-plan consideration"
    );
    let ev = &r.trace.replans[0];
    assert!(
        ev.switched,
        "re-planner kept the stale order despite the corrected cardinalities: {}",
        ev.render()
    );
    assert!(
        r.trace.final_plan.is_some(),
        "switched run must expose its final plan"
    );
    assert!(ev.observed_rows > ev.predicted_rows * 100.0);
}

#[test]
fn chunked_adaptive_aborts_pipeline_and_matches_static() {
    let want = answer_key(
        &federation(None, AdaptivePolicy::default())
            .query(SKEW_SQL)
            .unwrap(),
    );
    let r = federation(CHUNKED, AdaptivePolicy::enabled())
        .query(SKEW_SQL)
        .unwrap();
    assert_eq!(
        answer_key(&r),
        want,
        "chunked adaptive answer diverged from static whole-answer"
    );
    assert!(
        !r.trace.replans.is_empty(),
        "mid-stream trigger never fired"
    );
    // The re-drive consumes already-materialized subanswers: every site
    // still reports exactly one submit, none re-fetched.
    assert_eq!(r.trace.submits.len(), 3);
}

#[test]
fn uniform_data_never_replans() {
    // No skew: predictions hold, so the trigger must stay silent at
    // either chunking (zero re-plan events, not merely zero switches).
    for chunk_rows in [None, CHUNKED] {
        let mut m = federation(chunk_rows, AdaptivePolicy::enabled());
        let r = m
            .query("SELECT a.x, b.y FROM A a, B b WHERE a.x = b.x")
            .unwrap();
        assert!(
            r.trace.replans.is_empty(),
            "uniform workload re-planned under chunk_rows={chunk_rows:?}: {:?}",
            r.trace.replans
        );
    }
}

#[test]
fn explain_analyze_reports_replan_event() {
    let mut m = federation(None, AdaptivePolicy::enabled());
    let report = m.explain_analyze(SKEW_SQL).unwrap();
    let text = report.render();
    assert!(
        text.contains("re-optimized: predicted"),
        "EXPLAIN ANALYZE must narrate the re-plan, got:\n{text}"
    );
}

/// A switched re-plan invalidates the proof the plan cache rests on (the
/// cached decisions were wrong at runtime), so the serving layer must
/// evict the shape instead of replaying it — and count the eviction.
#[test]
fn switched_replan_evicts_serving_cache_entry() {
    disco_obs::set_enabled(true);
    let bypasses = disco_obs::counter(disco_obs::names::PLAN_CACHE_REPLAN_BYPASS, &[]);
    let before = bypasses.get();

    let shared = SharedMediator::new(federation(None, AdaptivePolicy::enabled()));
    let first = shared.query(SKEW_SQL).unwrap();
    assert_eq!(first.source, PlanSource::CacheMiss);
    assert!(
        first.result.trace.replans.iter().any(|r| r.switched),
        "serving run must re-plan on the skew query"
    );
    // The poisoned entry is gone: the same shape optimizes from scratch
    // instead of replaying the abandoned decisions.
    let second = shared.query(SKEW_SQL).unwrap();
    assert_eq!(
        second.source,
        PlanSource::CacheMiss,
        "re-planned shape must not be served from the plan cache"
    );
    assert!(
        bypasses.get() >= before + 2,
        "each switched re-plan must count a plan_cache_replan_bypass_total eviction"
    );

    // Control: with adaptive off the same shape caches and replays.
    let control = SharedMediator::new(federation(None, AdaptivePolicy::default()));
    control.query(SKEW_SQL).unwrap();
    assert_eq!(
        control.query(SKEW_SQL).unwrap().source,
        PlanSource::CacheHit
    );
}

/// Randomized differential sweep: seeded federations with varying
/// sizes and constants; for every seed the four chunking×policy
/// combinations must agree byte-for-byte, with an aggressive trigger so
/// re-plans actually occur along the way.
#[test]
fn randomized_differential_static_vs_adaptive_both_chunkings() {
    let aggressive = AdaptivePolicy {
        error_threshold: 1.5,
        min_rows: 1.0,
        ..AdaptivePolicy::enabled()
    };
    let mut replans_seen = 0usize;
    for seed in 0..6u64 {
        let mut rng = seeded(seed, "adaptive-diff");
        let n_s = 1_000 + rng.gen_range(0i64..4_000);
        // Filter constant: usually the dominant value (big misestimate),
        // sometimes a singleton (the opposite misestimate direction).
        let k = if rng.gen_range(0usize..4) == 0 { 1 } else { 0 };
        let sql = format!(
            "SELECT a.x, b.y, s.k FROM A a, B b, S s \
             WHERE a.p = 7 AND a.x = b.x AND b.y = s.y AND s.k = {k}"
        );
        let want = answer_key(
            &federation_sized(n_s, None, AdaptivePolicy::default())
                .query(&sql)
                .unwrap(),
        );
        for chunk_rows in [None, CHUNKED] {
            for policy in [AdaptivePolicy::default(), aggressive.clone()] {
                let enabled = policy.enabled;
                let r = federation_sized(n_s, chunk_rows, policy)
                    .query(&sql)
                    .unwrap();
                assert_eq!(
                    answer_key(&r),
                    want,
                    "seed {seed} chunk_rows={chunk_rows:?} adaptive={enabled} diverged"
                );
                if enabled {
                    replans_seen += r.trace.replans.len();
                } else {
                    assert!(r.trace.replans.is_empty());
                }
            }
        }
    }
    assert!(
        replans_seen >= 6,
        "differential sweep barely exercised the re-plan path ({replans_seen} events)"
    );
}
