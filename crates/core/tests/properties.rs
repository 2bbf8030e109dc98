//! Property tests on estimator invariants: seeded loops over random
//! plans and catalog scales, deterministic per seed.

use disco_algebra::{AggFunc, CompareOp, LogicalPlan, PlanBuilder};
use disco_catalog::{AttributeStats, Capabilities, Catalog, CollectionStats, ExtentStats};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_core::{EstimateOptions, Estimator, EstimatorCache, RuleRegistry};

const CASES: u64 = 256;

fn catalog(count: u64, distinct: u64, indexed: bool) -> Catalog {
    let mut c = Catalog::new();
    c.register_wrapper("w", Capabilities::full()).unwrap();
    let mut attr = AttributeStats::new(
        distinct.max(1),
        Value::Long(0),
        Value::Long(distinct.max(1) as i64 - 1),
    );
    attr.indexed = indexed;
    c.register_collection(
        "w",
        "T",
        schema(),
        CollectionStats::new(ExtentStats::of(count, 56)).with_attribute("a", attr),
    )
    .unwrap();
    c
}

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("a", DataType::Long),
        AttributeDef::new("b", DataType::Long),
    ])
}

fn coin(rng: &mut StdRng) -> bool {
    rng.gen_range(0usize..2) == 1
}

const OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
    CompareOp::Ne,
];

/// Up to three random selections, sorts and dedups over the one
/// collection; every step keeps attribute `a`.
fn random_steps(rng: &mut StdRng) -> PlanBuilder {
    let mut b = PlanBuilder::scan(QualifiedName::new("w", "T"), schema());
    for _ in 0..rng.gen_range(0usize..4) {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let v = rng.gen_range(-10i64..3_000);
        b = match rng.gen_range(0usize..6) {
            0..=2 => b.select("a", op, v),
            3 => b.select("b", op, v),
            4 => b.sort_asc(&["a"]),
            _ => b.dedup(),
        };
    }
    b
}

/// A random linear plan over the one collection.
fn random_plan(rng: &mut StdRng) -> LogicalPlan {
    let mut b = random_steps(rng);
    if coin(rng) {
        b = b.project_attrs(&["a"]);
    }
    if coin(rng) {
        b = b.aggregate(&[], vec![("n", AggFunc::Count, None)]);
    }
    b.build()
}

/// A random plan with mediator-level nodes (where the cost limit is
/// checked below the root too): a submitted linear plan, or a join of
/// two of them, under an optional sort or dedup.
fn random_mediator_plan(rng: &mut StdRng) -> LogicalPlan {
    let mut b = random_steps(rng).submit("w");
    if coin(rng) {
        // One time in four both sides are the same subtree, so the
        // second side is a memo hit inside the first walk.
        let right = if rng.gen_range(0usize..4) == 0 {
            b.clone()
        } else {
            random_steps(rng).submit("w")
        };
        b = b.join(right, "a", "a");
    }
    match rng.gen_range(0usize..3) {
        0 => b.sort_asc(&["a"]).build(),
        1 => b.dedup().build(),
        _ => b.build(),
    }
}

/// Estimates are always finite and non-negative, for every variable,
/// under arbitrary linear plans and catalog scales.
#[test]
fn estimates_are_finite_and_nonnegative() {
    let reg = RuleRegistry::with_default_model();
    for seed in 0..CASES {
        let mut rng = seeded(seed, "finite-nonnegative");
        let plan = random_plan(&mut rng);
        let count = rng.gen_range(1u64..200_000);
        let cat = catalog(count, rng.gen_range(1u64..10_000), coin(&mut rng));
        let c = Estimator::new(&reg, &cat).estimate(&plan).unwrap();
        for v in disco_costlang::CostVar::ALL {
            let x = c.get(v);
            assert!(x.is_finite(), "seed {seed}: {v} = {x} for {plan:?}");
            assert!(x >= 0.0, "seed {seed}: {v} = {x} for {plan:?}");
        }
        // Cardinality never exceeds the base collection.
        assert!(c.count_object <= count as f64 + 1e-6, "seed {seed}");
    }
}

/// Wrapping a plan in `submit` adds communication cost and preserves
/// the answer shape.
#[test]
fn submit_adds_cost_preserves_shape() {
    let reg = RuleRegistry::with_default_model();
    for seed in 0..CASES {
        let mut rng = seeded(seed, "submit-shape");
        let plan = random_plan(&mut rng);
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 7).max(1), true);
        let est = Estimator::new(&reg, &cat);
        let bare = est.estimate(&plan).unwrap();
        let sub = est
            .estimate(&PlanBuilder::from_plan(plan).submit("w").build())
            .unwrap();
        assert!(sub.total_time > bare.total_time, "seed {seed}");
        assert!(
            (sub.count_object - bare.count_object).abs() < 1e-6,
            "seed {seed}"
        );
    }
}

/// The cost limit behaves as a threshold at the root: limits above
/// the true cost keep the plan, limits below abandon it.
#[test]
fn cost_limit_is_a_threshold() {
    let reg = RuleRegistry::with_default_model();
    for seed in 0..CASES {
        let mut rng = seeded(seed, "limit-threshold");
        let plan = random_plan(&mut rng);
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 3).max(1), false);
        let est = Estimator::new(&reg, &cat);
        let full = est.estimate(&plan).unwrap();
        let limited = |limit| {
            let opts = EstimateOptions {
                cost_limit: Some(limit),
                ..Default::default()
            };
            est.estimate_report(&plan, &opts).unwrap()
        };
        assert!(
            limited(full.total_time * 1.01 + 1.0).is_some(),
            "seed {seed}"
        );
        assert!(
            limited(full.total_time * 0.99 - 1.0).is_none(),
            "seed {seed}"
        );
    }
}

/// Explain mode computes exactly the same cost as plain estimation
/// and attributes every variable of every node.
#[test]
fn explain_is_faithful() {
    fn check(n: &disco_core::ExplainNode) {
        assert_eq!(n.attributions.len(), 5, "{:?}", n.operator);
        for c in &n.children {
            check(c);
        }
    }
    let reg = RuleRegistry::with_default_model();
    for seed in 0..CASES {
        let mut rng = seeded(seed, "explain-faithful");
        let plan = random_plan(&mut rng);
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 5).max(1), true);
        let est = Estimator::new(&reg, &cat);
        let plain = est.estimate(&plan).unwrap();
        let node = est
            .explain(&plan, &EstimateOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(node.cost, plain, "seed {seed}");
        check(&node);
    }
}

/// Estimating through a fresh per-run cache is estimating: the same
/// `NodeCost` bit for bit, abandoned by the same limits, and asking the
/// same cache again returns the same answer for no more work.
#[test]
fn cached_estimates_equal_uncached() {
    let reg = RuleRegistry::with_default_model();
    let (mut pruned, mut kept) = (0, 0);
    for seed in 0..CASES {
        let mut rng = seeded(seed, "cached-equals-uncached");
        let plan = if coin(&mut rng) {
            random_plan(&mut rng)
        } else {
            random_mediator_plan(&mut rng)
        };
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 5).max(1), coin(&mut rng));
        let est = Estimator::new(&reg, &cat);
        let full = est.estimate(&plan).unwrap();
        // No limit one time in four; else one straddling the true cost.
        let opts = EstimateOptions {
            cost_limit: (rng.gen_range(0usize..4) > 0)
                .then(|| full.total_time * rng.gen_range(0.2f64..1.8)),
            ..Default::default()
        };

        let plain = est.estimate_report(&plan, &opts).unwrap();
        let cache = EstimatorCache::new();
        let first = est.estimate_report_cached(&plan, &opts, &cache).unwrap();
        let second = est.estimate_report_cached(&plan, &opts, &cache).unwrap();

        let cost = |r: &Option<disco_core::EstimateReport>| r.as_ref().map(|r| r.cost);
        assert_eq!(cost(&first), cost(&plain), "seed {seed}: {plan:?}");
        assert_eq!(cost(&second), cost(&plain), "seed {seed}: {plan:?}");
        match (&plain, &first, &second) {
            (Some(plain), Some(first), Some(second)) => {
                kept += 1;
                assert_eq!(first.cost, full, "seed {seed}");
                assert!(first.nodes_visited <= plain.nodes_visited, "seed {seed}");
                assert!(second.nodes_visited <= first.nodes_visited, "seed {seed}");
                assert_eq!(second.nodes_visited, 1, "seed {seed}: root is memoized");
            }
            _ => pruned += 1,
        }
    }
    // Both outcomes are exercised, not just one.
    assert!(pruned >= CASES / 8 && kept >= CASES / 8, "{pruned}/{kept}");
}
