//! Property tests on estimator invariants: seeded loops over random
//! plans and catalog scales, deterministic per seed.

mod support;

use disco_algebra::PlanBuilder;
use disco_common::rng::seeded;
use disco_core::{EstimateOptions, Estimator, RuleRegistry};
use support::{catalog, coin, random_plan};

const CASES: u64 = 256;

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

#[test]
fn cached_estimates_equal_uncached() {
    support::cached_estimates_equal_uncached(CASES);
}

#[test]
fn shared_cache_prices_each_plan_alone() {
    support::shared_cache_prices_each_plan_alone(CASES);
}
