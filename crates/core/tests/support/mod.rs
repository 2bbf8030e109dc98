//! Random plans and catalogs for the estimator properties, and the
//! cached-equals-uncached property itself. Shared by `tests/properties.rs`
//! and by the crate's unit tests, which run the property again with every
//! memo fingerprint forced into one bucket.

use disco_algebra::{AggFunc, CompareOp, LogicalPlan, PlanBuilder};
use disco_catalog::{AttributeStats, Capabilities, Catalog, CollectionStats, ExtentStats};
use disco_common::rng::StdRng;
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_core::{EstimateOptions, EstimateReport, Estimator, EstimatorCache, RuleRegistry};

pub fn catalog(count: u64, distinct: u64, indexed: bool) -> Catalog {
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

pub fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("a", DataType::Long),
        AttributeDef::new("b", DataType::Long),
    ])
}

pub fn coin(rng: &mut StdRng) -> bool {
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
pub fn random_plan(rng: &mut StdRng) -> LogicalPlan {
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
pub fn random_mediator_plan(rng: &mut StdRng) -> LogicalPlan {
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

/// Estimating through a fresh per-run cache is estimating: the same
/// `NodeCost` bit for bit, abandoned by the same limits, and asking the
/// same cache again returns the same answer for no more work.
pub fn cached_estimates_equal_uncached(cases: u64) {
    let reg = RuleRegistry::with_default_model();
    let (mut pruned, mut kept) = (0, 0);
    for seed in 0..cases {
        let mut rng = disco_common::rng::seeded(seed, "cached-equals-uncached");
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

        let cost = |r: &Option<EstimateReport>| r.as_ref().map(|r| r.cost);
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
    assert!(pruned >= cases / 8 && kept >= cases / 8, "{pruned}/{kept}");
}

/// One cache shared by many plans over one catalog, as an optimization
/// run shares it across its candidates, prices every plan exactly as
/// estimating that plan alone does.
pub fn shared_cache_prices_each_plan_alone(cases: u64) {
    let reg = RuleRegistry::with_default_model();
    for seed in 0..cases {
        let mut rng = disco_common::rng::seeded(seed, "shared-cache");
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 5).max(1), coin(&mut rng));
        let est = Estimator::new(&reg, &cat);
        let (cache, opts) = (EstimatorCache::new(), EstimateOptions::default());
        for _ in 0..8 {
            let plan = if coin(&mut rng) {
                random_plan(&mut rng)
            } else {
                random_mediator_plan(&mut rng)
            };
            let alone = est.estimate_report(&plan, &opts).unwrap();
            let shared = est.estimate_report_cached(&plan, &opts, &cache).unwrap();
            let cost = |r: Option<EstimateReport>| r.map(|r| r.cost);
            assert_eq!(cost(shared), cost(alone), "seed {seed}: {plan:?}");
        }
    }
}
