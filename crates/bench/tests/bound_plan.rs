//! The plan cache's template hit path against the cold path.
//!
//! After its first hit a cached shape is a priced template: a hit binds
//! the statement's constants into it and runs the §4.2 evaluation phase
//! alone. For every shape of the point-lookup workload and of
//! `disco_bench::serving::mixed_sql`, and for seeded random constants, a
//! template hit must return what a cold `Mediator::plan` of the same
//! statement returns, bit for bit: the physical plan, the estimate and
//! the per-submit predictions. Shapes whose association or negotiation
//! changes with the constants keep replaying their decisions, and answer
//! as a cold plan does.

use disco_bench::serving;
use disco_catalog::Capabilities;
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_core::{NodeCost, Provenance};
use disco_mediator::analyze::analyze;
use disco_mediator::{
    parse_query, Mediator, MediatorOptions, OptimizedPlan, Optimizer, OptimizerOptions,
    PlanDecisions, PlanSource, SharedMediator, SitePrediction,
};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

fn long_schema(columns: &[&str]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|c| AttributeDef::new(*c, DataType::Long))
            .collect(),
    )
}

/// The point-lookup federation: sixteen one-table wrappers `w00..w15`
/// over a channel transport, each serving `Txx(id, k, v)` with 2 000 rows
/// indexed on `id` and a seeded random `v`.
fn point_federation(seed: u64) -> Mediator {
    let mut rng = seeded(seed, "bound-plan:point");
    let mut t = ChannelTransport::new();
    for i in 0..16 {
        let rows: Vec<Vec<Value>> = (0..2_000i64)
            .map(|id| {
                vec![
                    Value::Long(id),
                    Value::Long(id % 100),
                    Value::Long(rng.gen_range(0..1000i64)),
                ]
            })
            .collect();
        let mut store =
            PagedStore::new(format!("w{i:02}"), CostProfile::relational()).with_seed(seed);
        store
            .add_collection(
                format!("T{i:02}"),
                CollectionBuilder::new(long_schema(&["id", "k", "v"]))
                    .rows(rows)
                    .object_size(24)
                    .index("id"),
            )
            .unwrap();
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(format!("w{i:02}"), store)),
            NetProfile::default(),
            FaultPlan::none(),
        );
    }
    let mut m = Mediator::new();
    m.connect(TransportClient::new(Box::new(t))).unwrap();
    m
}

/// The plan's estimate and predictions as bit patterns, so that equal
/// means equal bit for bit.
fn bits(plan: &OptimizedPlan) -> (Vec<u64>, Vec<Option<[u64; 3]>>) {
    let c = &plan.estimated;
    let cost = [
        c.time_first,
        c.time_next,
        c.total_time,
        c.count_object,
        c.total_size,
    ];
    let predictions = plan
        .predictions
        .iter()
        .map(|p| p.map(|p| [p.total_ms, p.first_ms, p.rows].map(f64::to_bits)))
        .collect();
    (cost.iter().map(|x| x.to_bits()).collect(), predictions)
}

/// Plan `sql` through `shared` and check it was a template hit that
/// equals, bit for bit, replaying the shape's cached `decisions` (the
/// hit path before templates) and, when `cold` is set, a cold plan of
/// the same statement.
fn assert_bound(
    shared: &SharedMediator,
    decisions: &PlanDecisions,
    sql: &str,
    cold: bool,
) -> OptimizedPlan {
    let bound_before = shared.cache_stats().bound;
    let (hit, source) = shared.plan(sql).unwrap();
    assert_eq!(source, PlanSource::CacheHit, "{sql}");
    assert_eq!(
        shared.cache_stats().bound,
        bound_before + 1,
        "{sql}: served by the template"
    );
    let mut references = vec![shared.with_mediator(|m| replayed(m, decisions, sql))];
    if cold {
        references.push(shared.with_mediator(|m| m.plan(sql)).unwrap());
    }
    for reference in references {
        assert_eq!(hit.physical, reference.physical, "{sql}");
        assert_eq!(bits(&hit), bits(&reference), "{sql}");
        assert_eq!(hit.limit, reference.limit, "{sql}");
        assert_eq!(hit.negotiation, reference.negotiation, "{sql}");
    }
    assert_eq!(hit.predictions.len(), count_submits(&hit), "{sql}");
    hit
}

/// [`assert_bound`] against both references.
fn assert_bound_equals_cold(
    shared: &SharedMediator,
    decisions: &PlanDecisions,
    sql: &str,
) -> OptimizedPlan {
    assert_bound(shared, decisions, sql, true)
}

/// `decisions` replayed for `sql`, as a cache hit did before templates.
fn replayed(m: &Mediator, decisions: &PlanDecisions, sql: &str) -> OptimizedPlan {
    let q = analyze(&parse_query(sql).unwrap(), m.catalog()).unwrap();
    Optimizer::new(m.catalog(), m.registry(), OptimizerOptions::default())
        .with_health(Some(m.health()))
        .replay(&q, decisions)
        .unwrap()
}

fn count_submits(plan: &OptimizedPlan) -> usize {
    fn walk(p: &disco_algebra::PhysicalPlan) -> usize {
        matches!(p, disco_algebra::PhysicalPlan::SubmitRemote { .. }) as usize
            + p.children().iter().map(|c| walk(c)).sum::<usize>()
    }
    walk(&plan.physical)
}

/// Warm a shape: a miss caches its decisions, returned, and the first
/// hit upgrades them to a template.
fn warm(shared: &SharedMediator, sql: &str) -> PlanDecisions {
    let (miss, source) = shared.plan(sql).unwrap();
    assert_eq!(source, PlanSource::CacheMiss, "{sql}");
    assert_eq!(shared.plan(sql).unwrap().1, PlanSource::CacheHit, "{sql}");
    miss.decisions.expect("a cacheable shape")
}

/// Constants across the point workload's range (`id < c`, `c` in
/// `1..51`) plan as the cached decisions do, so a hit equals a cold plan;
/// far outside it, a cold plan may decide otherwise (say, filter at the
/// mediator when most rows qualify), and a hit equals the replay of the
/// cached decisions, as before templates.
#[test]
fn point_lookup_template_hits_equal_cold_plans() {
    for seed in [1, 2] {
        let shared = SharedMediator::new(point_federation(seed));
        let mut rng: StdRng = seeded(seed, "bound-plan:point-constants");
        for t in 0..16 {
            let decisions = warm(&shared, &format!("SELECT v FROM T{t:02} WHERE id < 10"));
            for _ in 0..6 {
                let c = rng.gen_range(1i64..51);
                let sql = format!("SELECT v FROM T{t:02} WHERE id < {c}");
                assert_bound_equals_cold(&shared, &decisions, &sql);
                let c = rng.gen_range(-5i64..2_100);
                let sql = format!("SELECT v FROM T{t:02} WHERE id < {c}");
                assert_bound(&shared, &decisions, &sql, false);
            }
        }
    }
}

#[test]
fn mixed_sql_template_hits_equal_cold_plans() {
    let shared = SharedMediator::new(serving::federation(0.0));
    let mut shapes = Vec::new();
    for t in 0..serving::TABLES {
        shapes.push(warm(&shared, &serving::interactive_sql(t, 10)));
        shapes.push(warm(&shared, &serving::analytical_sql(t, 500)));
    }
    let decisions = |sql: &str| {
        let t: usize = sql[sql.find("FROM T").unwrap() + 6..][..2].parse().unwrap();
        &shapes[2 * t + usize::from(sql.contains(" a, "))]
    };
    let mut rng: StdRng = seeded(7, "bound-plan:mixed");
    for _ in 0..96 {
        let sql = serving::mixed_sql(rng.gen_range(0usize..64), rng.gen_range(0usize..1_200));
        assert_bound_equals_cold(&shared, decisions(&sql), &sql);
    }
    // Every shape, interactive and analytical, with random constants.
    for t in 0..serving::TABLES {
        let sql = serving::interactive_sql(t, rng.gen_range(1i64..51));
        assert_bound_equals_cold(&shared, decisions(&sql), &sql);
        let sql = serving::analytical_sql(t, rng.gen_range(200i64..1001));
        assert_bound_equals_cold(&shared, decisions(&sql), &sql);
    }
}

/// `site_predictions`, which priced every submit again at execute time
/// before plans carried their predictions, returned these values for
/// these statements. `(TotalTime, TimeFirst, CountObject)` bit patterns.
#[allow(clippy::type_complexity)]
const PINNED: [(&str, bool, &[[u64; 3]]); 6] = [
    (
        "SELECT v FROM T00 WHERE id < 7",
        true,
        &[[0x407ca5f0604ddcea, 0x406ea0a3d70a3d71, 0x401c0395f685f47a]],
    ),
    (
        "SELECT v FROM T05 WHERE id < 33",
        true,
        &[[0x4094feffdf373213, 0x406ea0a3d70a3d71, 0x4040821cf145cb7f]],
    ),
    (
        "SELECT v FROM T15 WHERE id < 50",
        true,
        &[[0x409e0a9af51d53a0, 0x406ea0a3d70a3d71, 0x404903339c1c2c91]],
    ),
    (
        "SELECT v FROM T00 WHERE id < 5",
        false,
        &[[0x4078643dfba554a6, 0x406ea0a3d70a3d71, 0x4014028fb0168a0d]],
    ),
    (
        "SELECT a.id, b.v FROM T07 a, T08 b WHERE a.k = b.k AND a.v < 459",
        false,
        &[
            [0x40c17b59f2298375, 0x406b823d70a3d70a, 0x408cb759f2298376],
            [0x40d22d0000000000, 0x406b80a3d70a3d70, 0x409f400000000000],
        ],
    ),
    (
        "SELECT a.id, b.v FROM T04 a, T05 b WHERE a.k = b.k AND a.v < 755",
        false,
        &[
            [0x40cbf30e18168cf0, 0x406b823d70a3d70a, 0x40979e0bc9ac75e0],
            [0x40d22d0000000000, 0x406b80a3d70a3d70, 0x409f400000000000],
        ],
    ),
];

#[test]
fn plan_predictions_equal_the_pinned_execute_time_predictions() {
    let point = point_federation(1);
    let mixed = serving::federation(0.0);
    for (sql, on_point, want) in PINNED {
        let m = if on_point { &point } else { &mixed };
        let want: Vec<Option<[u64; 3]>> = want.iter().copied().map(Some).collect();
        assert_eq!(bits(&m.plan(sql).unwrap()).1, want, "cold: {sql}");
        let shared = SharedMediator::new(if on_point {
            point_federation(1)
        } else {
            serving::federation(0.0)
        });
        let decisions = warm(&shared, sql);
        assert_eq!(
            bits(&assert_bound_equals_cold(&shared, &decisions, sql)).1,
            want,
            "hit: {sql}"
        );
    }
}

/// An in-process mediator over one relational wrapper `w` serving
/// `T(id, k, v)` and `U(id, k, v)`, both indexed on `id`, exporting
/// `rules`.
fn local(rules: &str, record_history: bool) -> Mediator {
    let mut store = PagedStore::new("w", CostProfile::relational());
    for (name, n) in [("T", 500i64), ("U", 300)] {
        store
            .add_collection(
                name,
                CollectionBuilder::new(long_schema(&["id", "k", "v"]))
                    .rows((0..n).map(|id| {
                        vec![
                            Value::Long(id),
                            Value::Long(id % 20),
                            Value::Long(id * 7 % 100),
                        ]
                    }))
                    .object_size(24)
                    .index("id"),
            )
            .unwrap();
    }
    let mut m = Mediator::new().with_options(MediatorOptions {
        record_history,
        ..Default::default()
    });
    let mut wrapper = SourceWrapper::new("w", store);
    if !rules.is_empty() {
        wrapper = wrapper.with_cost_rules(rules);
    }
    m.register(Box::new(wrapper)).unwrap();
    m
}

/// Plan `sql` through `shared` and check it was a hit that replayed its
/// decisions, and that the hit answers as a cold plan does.
fn assert_replayed_like_cold(shared: &SharedMediator, sql: &str) {
    let before = shared.cache_stats();
    let served = shared.query(sql).unwrap();
    assert_eq!(served.source, PlanSource::CacheHit, "{sql}");
    let after = shared.cache_stats();
    assert_eq!(after.hits, before.hits + 1, "{sql}");
    assert_eq!(after.bound, before.bound, "{sql}: replayed, not bound");
    let (cold, cold_predicted) = shared.with_mediator(|m| {
        let plan = m.plan(sql).unwrap();
        (m.execute_plan_shared(plan.clone()).unwrap(), plan)
    });
    assert_eq!(served.result.tuples, cold.tuples, "{sql}");
    assert_eq!(
        served.predicted_ms.to_bits(),
        cold_predicted.estimated.total_time.to_bits(),
        "{sql}"
    );
}

#[test]
fn a_predicate_scope_rule_binding_a_constant_keeps_the_replay() {
    let shared = SharedMediator::new(local(
        "rule select(T, id < $V) { CountObject = $V; TotalTime = $V * 2; }",
        false,
    ));
    warm(&shared, "SELECT v FROM T WHERE id < 10");
    for c in [3, 40, 250] {
        assert_replayed_like_cold(&shared, &format!("SELECT v FROM T WHERE id < {c}"));
    }
    // The rule matches no constant of a selection on another collection,
    // or on another attribute of `T`: those shapes are bound.
    for (warm_sql, sql) in [
        (
            "SELECT v FROM U WHERE k < 10",
            "SELECT v FROM U WHERE k < 12",
        ),
        (
            "SELECT v FROM T WHERE k < 10",
            "SELECT v FROM T WHERE k < 12",
        ),
    ] {
        warm(&shared, warm_sql);
        let bound = shared.cache_stats().bound;
        let (hit, source) = shared.plan(sql).unwrap();
        assert_eq!(source, PlanSource::CacheHit, "{sql}");
        assert_eq!(shared.cache_stats().bound, bound + 1, "{sql}: bound");
        let cold = shared.with_mediator(|m| m.plan(sql)).unwrap();
        assert_eq!(hit.physical, cold.physical, "{sql}");
        assert_eq!(bits(&hit), bits(&cold), "{sql}");
    }
}

#[test]
fn a_query_scope_history_rule_keeps_the_replay() {
    let shared = SharedMediator::new(local("", true));
    let sql = "SELECT id, v FROM T WHERE id < 10";
    // The miss executes and records its submit as a query-scope rule,
    // which invalidates the entry; the next miss caches decisions
    // priced against that rule.
    assert_eq!(shared.query(sql).unwrap().source, PlanSource::CacheMiss);
    assert!(shared.with_mediator(|m| m.history_recorded()) > 0);
    assert_eq!(shared.plan(sql).unwrap().1, PlanSource::CacheMiss);
    shared.with_mediator(|m| {
        assert!(m.registry().count_in_scope(disco_core::Scope::Query) > 0);
    });
    let before = shared.cache_stats();
    let (hit, source) = shared.plan(sql).unwrap();
    assert_eq!(source, PlanSource::CacheHit);
    assert_eq!(shared.cache_stats().bound, before.bound);
    let cold = shared.with_mediator(|m| m.plan(sql)).unwrap();
    assert_eq!(hit.physical, cold.physical);
    assert_eq!(bits(&hit), bits(&cold));
}

#[test]
fn a_negotiating_join_keeps_the_replay() {
    let shared = SharedMediator::new(local("", false));
    let sql = |c: i64| format!("SELECT t.id, u.v FROM T t, U u WHERE t.k = u.id AND t.v < {c}");
    warm(&shared, &sql(50));
    let (plan, _) = shared.plan(&sql(60)).unwrap();
    // Both sides live on one join-capable wrapper: negotiation prices
    // fusing them, and pushes the join or keeps it by cost.
    assert!(
        plan.negotiation.iter().any(
            |n| n.starts_with("join") && (n.contains("pushed to `w`") || n.contains("by cost"))
        ),
        "{:?}",
        plan.negotiation
    );
    for c in [5, 70, 99] {
        assert_replayed_like_cold(&shared, &sql(c));
    }
}

/// Each submit of `plan` as the wrapper receives it, depth first.
fn submits(plan: &disco_algebra::PhysicalPlan) -> Vec<disco_algebra::LogicalPlan> {
    match plan {
        disco_algebra::PhysicalPlan::SubmitRemote { wrapper, plan, .. } => {
            vec![disco_algebra::LogicalPlan::Submit {
                wrapper: wrapper.clone(),
                input: Box::new(plan.clone()),
            }]
        }
        p => p.children().into_iter().flat_map(submits).collect(),
    }
}

/// A mediator rule that prices the output projection by constants never
/// reads the submit below it: the §4.2 cut-off leaves that submit
/// unevaluated, and its prediction is priced alone, on a cold plan and
/// on a hit.
#[test]
fn a_submit_the_cut_off_skipped_is_priced_alone() {
    let mut m = local("", false);
    let doc = disco_costlang::compile_document(
        &disco_costlang::parse_document(
            "rule project($C, [v]) { TimeFirst = 1; TimeNext = 1; TotalTime = 2; \
             CountObject = 3; TotalSize = 4; }",
        )
        .unwrap(),
    )
    .unwrap();
    for rule in doc.rules {
        m.registry_mut()
            .register_compiled(Provenance::Local, rule)
            .unwrap();
    }
    let shared = SharedMediator::new(m);
    let sql = |c: i64| format!("SELECT v FROM T WHERE id < {c}");
    let decisions = warm(&shared, &sql(10));
    for c in [1, 7, 30] {
        let plan = assert_bound_equals_cold(&shared, &decisions, &sql(c));
        assert_eq!(plan.estimated.total_time, 2.0, "the rule prices the root");
        let alone: Vec<Option<SitePrediction>> = shared.with_mediator(|m| {
            submits(&plan.physical)
                .iter()
                .map(|s| {
                    m.estimator()
                        .estimate(s)
                        .ok()
                        .map(|c: NodeCost| SitePrediction::of(&c))
                })
                .collect()
        });
        assert_eq!(plan.predictions, alone);
        assert!(alone.iter().all(|p| p.is_some_and(|p| p.total_ms > 2.0)));
    }
}

#[test]
fn scan_only_sources_bind_their_mediator_filter() {
    let mut store = PagedStore::new("f", CostProfile::relational());
    store
        .add_collection(
            "F",
            CollectionBuilder::new(long_schema(&["id", "v"]))
                .rows((0..200i64).map(|id| vec![Value::Long(id), Value::Long(id % 13)])),
        )
        .unwrap();
    let mut m = Mediator::new();
    m.register(Box::new(
        SourceWrapper::new("f", store).with_capabilities(Capabilities::scan_only()),
    ))
    .unwrap();
    let shared = SharedMediator::new(m);
    let sql = |a: i64, b: i64| format!("SELECT id FROM F WHERE v > {a} AND id < {b}");
    let decisions = warm(&shared, &sql(1, 2));
    for (a, b) in [(3, 150), (12, 7), (0, 300)] {
        assert_bound_equals_cold(&shared, &decisions, &sql(a, b));
    }
}
