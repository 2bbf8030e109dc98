//! The adaptive re-planner searches join orders with the optimizer's DP.
//! This differential test holds it to the exhaustive oracle: for the same
//! leaves under the same measured-cardinality overrides, the corrected
//! cost the re-planner chooses must equal, bitwise, the best over every
//! connected left-deep order ([`Replanner::consider_by_permutation`]).
//!
//! Cases: the E18 skew federation (`adaptive_skew`) and the six seeded
//! federations of `adaptive_equivalence`'s randomized sweep. The
//! observations are what a whole-answer execution measures; a live
//! adaptive run of the same query must record the same event.

use disco_algebra::LogicalPlan;
use disco_common::rng::seeded;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_core::Estimator;
use disco_mediator::{AdaptivePolicy, Mediator, MediatorOptions, Replanner, SiteObservation};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_wrapper::SourceWrapper;

fn long_schema(attrs: &[&str]) -> Schema {
    Schema::new(
        attrs
            .iter()
            .map(|a| AttributeDef::new(*a, DataType::Long))
            .collect(),
    )
}

fn mediator(stores: [PagedStore; 3], adaptive: AdaptivePolicy) -> Mediator {
    let mut m = Mediator::new().with_options(MediatorOptions {
        adaptive,
        ..MediatorOptions::default()
    });
    for (name, store) in ["a", "b", "s"].into_iter().zip(stores) {
        m.register(Box::new(SourceWrapper::new(name, store)))
            .unwrap();
    }
    m
}

/// E18's chain `A(x,p) ⋈ B(x,y) ⋈ S(y,k)`, `S` skewed (see
/// `crates/bench/src/bin/adaptive_skew.rs`).
fn e18(adaptive: AdaptivePolicy) -> Mediator {
    let mut a = PagedStore::new("a", CostProfile::relational());
    a.add_collection(
        "A",
        CollectionBuilder::new(long_schema(&["x", "p"]))
            .rows((0..4_000i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)]))
            .index("p"),
    )
    .unwrap();
    let mut b = PagedStore::new("b", CostProfile::relational());
    b.add_collection(
        "B",
        CollectionBuilder::new(long_schema(&["x", "y"])).rows((0..2_000i64).map(|i| {
            if i < 1_000 {
                vec![Value::Long(100_000 + i), Value::Long(0)]
            } else {
                let x = i - 1_000;
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
            .rows((0..8_000i64).map(|i| {
                if i < 7_000 {
                    vec![Value::Long(0), Value::Long(0)]
                } else {
                    vec![Value::Long(4 + (i % 96)), Value::Long(i - 7_000 + 1)]
                }
            }))
            .index("k"),
    )
    .unwrap();
    mediator([a, b, s], adaptive)
}

/// `adaptive_equivalence`'s chain federation with `n_s` rows in `S`.
fn sized(n_s: i64, adaptive: AdaptivePolicy) -> Mediator {
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
    let minority = 399.min(n_s / 20);
    let mut s = PagedStore::new("s", CostProfile::relational());
    s.add_collection(
        "S",
        CollectionBuilder::new(long_schema(&["y", "k"])).rows((0..n_s).map(|i| {
            let k = if i < n_s - minority {
                0
            } else {
                i - (n_s - minority) + 1
            };
            vec![Value::Long(i % 100), Value::Long(k)]
        })),
    )
    .unwrap();
    mediator([a, b, s], adaptive)
}

/// What a whole-answer execution of `sql` observes, site by site, with
/// the optimizer's predicted cardinality beside each measurement.
fn observations(m: &mut Mediator, sql: &str) -> Vec<SiteObservation> {
    let r = m.query(sql).unwrap();
    assert!(
        r.trace.final_plan.is_none(),
        "the static run must not re-plan"
    );
    let estimator = Estimator::new(m.registry(), m.catalog()).with_health(Some(m.health()));
    r.trace
        .submits
        .iter()
        .map(|s| {
            let submit = LogicalPlan::Submit {
                wrapper: s.wrapper.clone(),
                input: Box::new(s.plan.clone()),
            };
            SiteObservation {
                wrapper: s.wrapper.clone(),
                plan: s.plan.clone(),
                predicted_rows: estimator.estimate(&submit).ok().map(|c| c.count_object),
                observed_rows: s.tuples as f64,
                observed_bytes: s.bytes as f64,
                failed: s.failed,
            }
        })
        .collect()
}

/// The re-planner's choice equals the oracle's, and a live adaptive run
/// records the same event. Returns whether the trigger fired.
fn check(
    label: &str,
    build: impl Fn(AdaptivePolicy) -> Mediator,
    sql: &str,
    policy: &AdaptivePolicy,
) -> bool {
    let mut m = build(AdaptivePolicy::default());
    let plan = m.plan(sql).unwrap().physical;
    let obs = observations(&mut m, sql);
    let replanner = Replanner::new(m.registry(), m.catalog(), Some(m.health()), policy.clone());
    let dp = replanner.consider(&plan, &obs);
    let oracle = replanner.consider_by_permutation(&plan, &obs);
    let (Some(dp), Some(oracle)) = (dp, oracle) else {
        return false;
    };
    assert_eq!(
        dp.event.new_cost_ms.to_bits(),
        oracle.event.new_cost_ms.to_bits(),
        "{label}: DP chose {} ms, the best connected order costs {} ms",
        dp.event.new_cost_ms,
        oracle.event.new_cost_ms
    );
    assert_eq!(dp.event, oracle.event, "{label}");
    assert_eq!(dp.new_plan, oracle.new_plan, "{label}");

    let live = build(policy.clone()).query(sql).unwrap();
    assert_eq!(live.trace.replans.first(), Some(&dp.event), "{label}");
    true
}

#[test]
fn replanner_choice_equals_the_best_connected_order() {
    let e18_sql = "SELECT a.x, b.y, s.k FROM A a, B b, S s \
                   WHERE a.p = 2 AND a.x = b.x AND b.y = s.y AND s.k = 0";
    assert!(check("E18", e18, e18_sql, &AdaptivePolicy::enabled()));

    let aggressive = AdaptivePolicy {
        error_threshold: 1.5,
        min_rows: 1.0,
        ..AdaptivePolicy::enabled()
    };
    let mut fired = 0;
    for seed in 0..6u64 {
        let mut rng = seeded(seed, "adaptive-diff");
        let n_s = 1_000 + rng.gen_range(0i64..4_000);
        let k = if rng.gen_range(0usize..4) == 0 { 1 } else { 0 };
        let sql = format!(
            "SELECT a.x, b.y, s.k FROM A a, B b, S s \
             WHERE a.p = 7 AND a.x = b.x AND b.y = s.y AND s.k = {k}"
        );
        let label = format!("seed {seed}");
        fired += check(&label, |p| sized(n_s, p), &sql, &aggressive) as usize;
    }
    assert!(
        fired >= 4,
        "the sweep barely exercised the re-planner ({fired} of 6)"
    );
}
