//! Estimation counters under [`SharedMediator`] are per run: a cold plan
//! reports, and publishes to the metrics registry, exactly the work a
//! standalone [`Optimizer`] does for the same query — not the history of
//! every plan the process served before it.
//!
//! One test, in its own file: the `cache_lookups_total` counters are
//! process-wide, and no other test may plan while this one reads them.

use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::analyze::analyze;
use disco_mediator::{
    parse_query, Mediator, Optimizer, OptimizerOptions, PlanSource, SharedMediator,
};
use disco_obs::names;
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_wrapper::SourceWrapper;

/// Seven small `(id, k, v)` tables on one wrapper.
fn mediator() -> Mediator {
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("k", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ]);
    let mut store = PagedStore::new("db", CostProfile::object_store());
    for t in 0..7i64 {
        store
            .add_collection(
                format!("T{t}"),
                CollectionBuilder::new(schema.clone())
                    .rows(
                        (0..40 + 10 * t)
                            .map(|i| vec![Value::Long(i), Value::Long(i % 7), Value::Long(i * 3)]),
                    )
                    .object_size(32)
                    .index("id"),
            )
            .unwrap();
    }
    let mut m = Mediator::new();
    m.register(Box::new(SourceWrapper::new("db", store)))
        .unwrap();
    m
}

/// A 6-table chain starting at table `first` — wide enough for the DP
/// (and so the estimation cache) to run.
fn chain(first: usize) -> String {
    let from: Vec<String> = (0..6).map(|j| format!("T{} t{j}", first + j)).collect();
    let on: Vec<String> = (1..6).map(|j| format!("t{j}.k = t{}.id", j - 1)).collect();
    format!(
        "SELECT t0.v, t5.id FROM {} WHERE {} AND t0.v < 60",
        from.join(", "),
        on.join(" AND ")
    )
}

#[test]
fn cold_plans_report_and_publish_their_own_run() {
    let sm = SharedMediator::new(mediator());
    let counter = |name, cache| disco_obs::counter(name, &[("cache", cache)]);
    let counters = [
        counter(names::CACHE_LOOKUPS, "cost"),
        counter(names::CACHE_HITS, "cost"),
        counter(names::CACHE_LOOKUPS, "rules"),
        counter(names::CACHE_HITS, "rules"),
    ];
    let (first, second) = (chain(0), chain(1));

    // What one run publishes: its join search and its negotiation pass.
    let published = || counters.each_ref().map(|c| c.get());
    let delta = |before: [u64; 4], after: [u64; 4]| {
        std::array::from_fn::<u64, 4, _>(|i| after[i] - before[i])
    };
    let (standalone, standalone_published) = sm.with_mediator(|m| {
        let q = analyze(&parse_query(&second).unwrap(), m.catalog()).unwrap();
        let before = published();
        let plan = Optimizer::new(m.catalog(), m.registry(), OptimizerOptions::default())
            .optimize(&q)
            .unwrap();
        (plan, delta(before, published()))
    });
    assert!(!standalone.fast_path);
    assert!(standalone.memo_hits > 0 && standalone.rule_cache_hits > 0);
    // The registry agrees with the plan's own counters.
    let [_, cost_hits, _, rule_hits] = standalone_published;
    assert_eq!(cost_hits, standalone.memo_hits as u64);
    assert_eq!(rule_hits, standalone.rule_cache_hits as u64);

    assert_eq!(sm.plan(&first).unwrap().1, PlanSource::CacheMiss);
    let before = published();
    let (served, source) = sm.plan(&second).unwrap();
    let served_published = delta(before, published());
    assert_eq!(source, PlanSource::CacheMiss);

    assert_eq!(served.memo_hits, standalone.memo_hits);
    assert_eq!(served.rule_cache_hits, standalone.rule_cache_hits);
    assert_eq!(served.estimator_nodes, standalone.estimator_nodes);
    assert_eq!(served_published, standalone_published);
}
