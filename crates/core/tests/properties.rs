//! Property tests on estimator invariants: seeded loops over random
//! plans and catalog scales, deterministic per seed.

mod support;

use disco_algebra::{AggFunc, CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::{seeded, StdRng};
use disco_common::{QualifiedName, Value};
use disco_core::{
    CardinalityOverrides, EstimateOptions, Estimator, EstimatorCache, ExplainNode, NodeCost,
    Payload, RuleRegistry, Scope,
};
use disco_costlang::CostVar;
use support::{catalog, coin, random_mediator_plan, random_plan};

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

/// The monotonicity the join search's Pareto pruning rests on: a
/// mediator operator over a submit whose observed `(rows, bytes)` rise
/// never gets a lower `TotalTime`, `TimeFirst` or `CountObject`. (Its
/// `TimeNext` may fall, and so may an aggregate's `TotalSize`; no ranking
/// reads them.) Each case is priced through both estimator entry points:
/// the plan tree, and the operator interned as one node over the
/// submits' ids, as the join search builds its candidates. Both agree bit
/// for bit.
#[test]
fn mediator_operators_are_monotone_in_their_input() {
    let reg = RuleRegistry::with_default_model();
    let mut rose = 0;
    for seed in 0..4 * CASES {
        let mut rng = seeded(seed, "monotone-parent");
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 5).max(1), coin(&mut rng));
        let input = random_plan(&mut rng);
        let site = PlanBuilder::from_plan(input.clone()).submit("w");
        // The other join input: the same site one time in four, so both
        // sides rise together.
        let other = if rng.gen_range(0usize..4) == 0 {
            site.clone()
        } else {
            PlanBuilder::from_plan(random_plan(&mut rng)).submit("w")
        };
        let op = rng.gen_range(0usize..6);
        let plan = match op {
            0 => site.join(other, "a", "a"),
            1 => site.sort_asc(&["a"]),
            2 => site.dedup(),
            3 => site.project_attrs(&["a"]),
            4 => site.aggregate(&["a"], vec![("n", AggFunc::Count, None)]),
            _ => site.aggregate(&[], vec![("n", AggFunc::Count, None)]),
        }
        .build();

        let base = Estimator::new(&reg, &cat)
            .estimate(&LogicalPlan::Submit {
                wrapper: "w".into(),
                input: Box::new(input.clone()),
            })
            .unwrap();
        let rows = base.count_object * rng.gen_range(0.01f64..4.0);
        let bytes = base.total_size * rng.gen_range(0.01f64..4.0);
        let (more_rows, more_bytes) = (
            rows * rng.gen_range(1.0f64..50.0),
            bytes * rng.gen_range(1.0f64..50.0),
        );
        let priced = |rows: f64, bytes: f64| {
            let mut overrides = CardinalityOverrides::new();
            overrides.insert("w", &input, rows, bytes);
            let est = Estimator::new(&reg, &cat).with_overrides(Some(&overrides));
            let by_tree = est.estimate(&plan).unwrap();
            (by_tree, by_id(&est, &plan))
        };
        let (low, low_id) = priced(rows, bytes);
        let (high, high_id) = priced(more_rows, more_bytes);
        let bits = |c: &NodeCost| disco_costlang::CostVar::ALL.map(|v| c.get(v).to_bits());
        assert_eq!(bits(&low_id), bits(&low), "seed {seed}: {plan:?}");
        assert_eq!(bits(&high_id), bits(&high), "seed {seed}: {plan:?}");
        for (what, l, h) in [
            ("TotalTime", low.total_time, high.total_time),
            ("TimeFirst", low.time_first, high.time_first),
            ("CountObject", low.count_object, high.count_object),
        ] {
            assert!(
                h >= l,
                "seed {seed}: {what} fell from {l} to {h} for {plan:?}"
            );
        }
        rose += (high.total_time > low.total_time) as u64;
    }
    // The observations reach the operator, on both entry points.
    assert!(rose >= 2 * CASES, "{rose} of {} cases rose", 4 * CASES);
}

/// `plan`'s root interned as one node over its inputs, themselves
/// interned as trees, and priced by id.
fn by_id(est: &Estimator<'_>, plan: &LogicalPlan) -> NodeCost {
    let cache = EstimatorCache::new();
    let opts = EstimateOptions::default();
    let inputs: Vec<_> = plan
        .children()
        .into_iter()
        .map(|c| cache.intern(c, &opts))
        .collect();
    let root = cache.intern_node(None, Payload::of(plan), &inputs);
    est.estimate_subtree(root, None, &cache)
        .unwrap()
        .expect("no limit")
        .cost
}

/// §4.2: each variable of a node takes its value from the most specific
/// scope that has a matching rule defining it, and equally specific
/// rules tie to the minimum. Random rule sets over the wrapper,
/// collection, predicate and query scopes (the default model below them
/// all) each define a random subset of the five variables with
/// constants; the query-scope head names one constant, so it matches one
/// plan in three. Checked on the selection a wrapper receives, both on
/// its value and on the scope EXPLAIN attributes it to.
#[test]
fn the_most_specific_scope_wins_per_variable() {
    const HEADS: [(Scope, &str); 4] = [
        (Scope::Wrapper, "select($C, $P)"),
        (Scope::Collection, "select(T, $P)"),
        (Scope::Predicate, "select(T, a < $V)"),
        (Scope::Query, "select(T, a < 1)"),
    ];
    let cat = catalog(5_000, 1_000, true);
    let mut from_scope = [0usize; 4];
    for seed in 0..CASES {
        let mut rng = seeded(seed, "most-specific-scope");
        let mut text = String::new();
        // Per scope and variable, the values its rules define.
        let mut defined: Vec<(Scope, CostVar, f64)> = Vec::new();
        for (scope, head) in HEADS {
            for _ in 0..rng.gen_range(0usize..3) {
                let mut body = String::new();
                for var in CostVar::ALL {
                    if coin(&mut rng) {
                        let v = rng.gen_range(1u64..4_000) as f64 / 4.0;
                        body.push_str(&format!("{} = {v}; ", var.name()));
                        defined.push((scope, var, v));
                    }
                }
                if !body.is_empty() {
                    text.push_str(&format!("rule {head} {{ {body}}}\n"));
                }
            }
        }
        let mut reg = RuleRegistry::with_default_model();
        let doc = disco_costlang::compile_document(&disco_costlang::parse_document(&text).unwrap())
            .unwrap();
        reg.register_document("w", &doc).unwrap();

        let k = rng.gen_range(0i64..3);
        let plan = PlanBuilder::scan(QualifiedName::new("w", "T"), support::schema())
            .select("a", CompareOp::Lt, k)
            .submit("w")
            .build();
        let est = Estimator::new(&reg, &cat);
        let root = est
            .explain(&plan, &EstimateOptions::default())
            .unwrap()
            .unwrap();
        let select = &root.children[0];
        let matches = |scope: Scope| scope != Scope::Query || k == 1;
        for var in CostVar::ALL {
            let winner = defined
                .iter()
                .filter(|(scope, v, _)| *v == var && matches(*scope))
                .map(|(scope, ..)| *scope)
                .max();
            let got = attribution(select, var);
            match winner {
                Some(scope) => {
                    let want = defined
                        .iter()
                        .filter(|(s, v, _)| *s == scope && *v == var)
                        .map(|(.., x)| *x)
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(got, (scope, want), "seed {seed}: {var} from\n{text}");
                    assert_eq!(select.cost.get(var), want, "seed {seed}: {var}");
                    from_scope[HEADS.iter().position(|(s, _)| *s == scope).unwrap()] += 1;
                }
                None => assert_eq!(got.0, Scope::Default, "seed {seed}: {var} from\n{text}"),
            }
        }
    }
    // Every scope wins some variable somewhere.
    assert!(from_scope.iter().all(|&n| n > 0), "{from_scope:?}");
}

/// The scope and value EXPLAIN attributes `var` of `node` to.
fn attribution(node: &ExplainNode, var: CostVar) -> (Scope, f64) {
    let a = node
        .attributions
        .iter()
        .find(|a| a.var == var)
        .expect("every variable is attributed");
    (a.scope, a.value)
}

/// `plan` with every selection constant replaced by a fresh one.
fn with_other_constants(plan: &LogicalPlan, rng: &mut StdRng) -> LogicalPlan {
    let mut plan = plan.clone();
    fn walk(p: &mut LogicalPlan, rng: &mut StdRng) {
        if let LogicalPlan::Select { predicate, .. } = p {
            for c in &mut predicate.conjuncts {
                c.value = Value::Long(rng.gen_range(-10i64..3_000));
            }
        }
        match p {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Dedup { input }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Submit { input, .. } => walk(input, rng),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
                walk(left, rng);
                walk(right, rng);
            }
        }
    }
    walk(&mut plan, rng);
    plan
}

/// Caching the association is sound: associating one plan and
/// evaluating another of the same shape, with other constants, prices
/// the other plan exactly as estimating it does, submit costs included.
/// The registry mixes the default model with compiled wrapper rules that
/// capture the selection predicate, which the bound path re-reads from
/// the evaluated plan.
#[test]
fn bound_evaluation_equals_estimation_for_any_constants() {
    let mut reg = RuleRegistry::with_default_model();
    let doc = disco_costlang::compile_document(
        &disco_costlang::parse_document(
            "rule select($C, $P) { TotalTime = $C.TotalTime + 7; }\n\
             rule scan(T) { TimeFirst = 3; }",
        )
        .unwrap(),
    )
    .unwrap();
    reg.register_document("w", &doc).unwrap();
    for seed in 0..CASES {
        let mut rng = seeded(seed, "bound-equals-estimate");
        let shape = if coin(&mut rng) {
            random_plan(&mut rng)
        } else {
            random_mediator_plan(&mut rng)
        };
        let count = rng.gen_range(1u64..50_000);
        let cat = catalog(count, (count / 5).max(1), coin(&mut rng));
        let est = Estimator::new(&reg, &cat);
        let assoc = est.associate(&shape).expect("no head binds a constant");
        for plan in [shape.clone(), with_other_constants(&shape, &mut rng)] {
            let bound = est.evaluate_bound(&plan, &assoc).unwrap();
            let want = est.estimate(&plan).unwrap();
            let bits = |c: &NodeCost| CostVar::ALL.map(|v| c.get(v).to_bits());
            assert_eq!(
                bits(&bound.report.cost),
                bits(&want),
                "seed {seed}: {plan:?}"
            );
            assert_eq!(bound.submits.len(), assoc.submits(), "seed {seed}");
            for (got, submit) in bound.submits.iter().zip(submits(&plan)) {
                let alone = est.estimate(submit).unwrap();
                assert_eq!(got.map(|c| bits(&c)), Some(bits(&alone)), "seed {seed}");
            }
        }
    }
}

/// The submits of `plan`, depth first.
fn submits(plan: &LogicalPlan) -> Vec<&LogicalPlan> {
    match plan {
        LogicalPlan::Submit { .. } => vec![plan],
        p => p.children().into_iter().flat_map(submits).collect(),
    }
}

/// A head that binds a constant makes the association depend on it.
#[test]
fn no_association_when_a_head_binds_a_constant() {
    let cat = catalog(5_000, 1_000, true);
    let plan = PlanBuilder::scan(QualifiedName::new("w", "T"), support::schema())
        .select("a", CompareOp::Lt, 5i64)
        .submit("w")
        .build();
    for rule in [
        "select(T, a < $V)",
        "select(T, a < 5)",
        "select($C, $A < $V)",
    ] {
        let mut reg = RuleRegistry::with_default_model();
        let text = format!("rule {rule} {{ TotalTime = 1; }}");
        let doc = disco_costlang::compile_document(&disco_costlang::parse_document(&text).unwrap())
            .unwrap();
        reg.register_document("w", &doc).unwrap();
        assert!(
            Estimator::new(&reg, &cat).associate(&plan).is_none(),
            "{rule}"
        );
    }
    // A head naming another collection, attribute or comparison matches
    // the selection for no constant, so it leaves the association alone.
    for rule in [
        "select(U, a < $V)",
        "select(T, b < $V)",
        "select(T, a > $V)",
        "",
    ] {
        let mut reg = RuleRegistry::with_default_model();
        if !rule.is_empty() {
            let text = format!("rule {rule} {{ TotalTime = 1; }}");
            let doc =
                disco_costlang::compile_document(&disco_costlang::parse_document(&text).unwrap())
                    .unwrap();
            reg.register_document("w", &doc).unwrap();
        }
        assert!(
            Estimator::new(&reg, &cat).associate(&plan).is_some(),
            "{rule}"
        );
    }
}
