//! DP-vs-permutation equivalence: on randomized acyclic join queries the
//! memoized subset-DP search — the optimizer's only join-order search,
//! run here under its default options — must choose a plan with exactly
//! the cost of the best plan found by the exhaustive permutation oracle
//! ([`Optimizer::optimize_by_permutation`]). The permutation sweep is the
//! pre-DP implementation, kept precisely so this property can be
//! asserted; cost estimates are deterministic, so the comparison is exact
//! (bitwise f64 equality, no tolerance).

use disco_catalog::{AttributeStats, Capabilities, Catalog, CollectionStats, ExtentStats};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_core::RuleRegistry;
use disco_mediator::analyze::analyze;
use disco_mediator::{parse_query, Optimizer, OptimizerOptions};

/// One random query: a spanning tree over `n` tables with random
/// cardinalities, random wrapper capabilities and random selections.
struct RandomCase {
    catalog: Catalog,
    sql: String,
}

fn random_case(rng: &mut StdRng) -> RandomCase {
    let n = rng.gen_range(2usize..=6);
    let mut catalog = Catalog::new();
    catalog
        .register_wrapper("full", Capabilities::full())
        .unwrap();
    catalog
        .register_wrapper("scan", Capabilities::scan_only())
        .unwrap();

    // Every table: an `id` plus enough fk columns to host tree edges.
    let mut attrs = vec![AttributeDef::new("id", DataType::Long)];
    for k in 1..n {
        attrs.push(AttributeDef::new(format!("f{k}"), DataType::Long));
    }
    let schema = Schema::new(attrs);

    for t in 0..n {
        let card = rng.gen_range(10u64..100_000);
        let wrapper = if rng.gen_range(0usize..2) == 0 {
            "full"
        } else {
            "scan"
        };
        let mut stats = CollectionStats::new(ExtentStats::of(card, 48));
        if rng.gen_range(0usize..2) == 0 {
            stats = stats.with_attribute(
                "id",
                AttributeStats::indexed(card, Value::Long(0), Value::Long(card as i64 - 1)),
            );
        }
        catalog
            .register_collection(wrapper, format!("T{t}"), schema.clone(), stats)
            .unwrap();
    }

    // Random spanning tree: child i joins a parent among 0..i.
    let mut conds = Vec::new();
    for i in 1..n {
        let parent = rng.gen_range(0usize..i);
        conds.push(format!("t{parent}.f{i} = t{i}.id"));
    }
    // A few random selections.
    for t in 0..n {
        if rng.gen_range(0usize..3) == 0 {
            let bound = rng.gen_range(1i64..50_000);
            conds.push(format!("t{t}.id < {bound}"));
        }
    }
    let from: Vec<String> = (0..n).map(|t| format!("T{t} t{t}")).collect();
    let sql = format!(
        "SELECT t0.id FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    );
    RandomCase { catalog, sql }
}

#[test]
fn dp_cost_equals_permutation_oracle_on_random_queries() {
    let registry = RuleRegistry::with_default_model();
    for seed in 0..40u64 {
        let mut rng = seeded(seed, "dp-equivalence");
        let case = random_case(&mut rng);
        let q = analyze(&parse_query(&case.sql).unwrap(), &case.catalog).unwrap();

        // Negotiation off on both sides:
        // the post-enumeration rewrite's benefit is not monotone in
        // enumerated cost, so equal-cost join trees may negotiate to
        // different final costs — the property under test is the
        // enumerator's.
        let dp = Optimizer::new(
            &case.catalog,
            &registry,
            OptimizerOptions {
                negotiation: false,
                ..Default::default()
            },
        )
        .optimize(&q)
        .unwrap_or_else(|e| panic!("DP failed on seed {seed} ({}): {e}", case.sql));
        let oracle = Optimizer::new(
            &case.catalog,
            &registry,
            OptimizerOptions {
                pruning: false,
                negotiation: false,
                ..Default::default()
            },
        )
        .optimize_by_permutation(&q)
        .unwrap_or_else(|e| panic!("oracle failed on seed {seed} ({}): {e}", case.sql));

        assert_eq!(
            dp.estimated.total_time, oracle.estimated.total_time,
            "seed {seed}: DP chose {} but oracle best is {} for {}",
            dp.estimated.total_time, oracle.estimated.total_time, case.sql
        );
        assert!(
            dp.estimator_nodes <= oracle.estimator_nodes,
            "seed {seed}: DP visited {} estimator nodes, oracle {} for {}",
            dp.estimator_nodes,
            oracle.estimator_nodes,
            case.sql
        );
    }
}

#[test]
fn dp_with_pruning_off_still_matches_oracle() {
    // Separates the memo/Pareto machinery from the §4.3.2 bound: even
    // without any cost limit the DP must land on the oracle's best cost.
    let registry = RuleRegistry::with_default_model();
    for seed in 40..55u64 {
        let mut rng = seeded(seed, "dp-equivalence");
        let case = random_case(&mut rng);
        let q = analyze(&parse_query(&case.sql).unwrap(), &case.catalog).unwrap();
        let dp = Optimizer::new(
            &case.catalog,
            &registry,
            OptimizerOptions {
                pruning: false,
                negotiation: false,
                ..Default::default()
            },
        )
        .optimize(&q)
        .unwrap();
        let oracle = Optimizer::new(
            &case.catalog,
            &registry,
            OptimizerOptions {
                pruning: false,
                negotiation: false,
                ..Default::default()
            },
        )
        .optimize_by_permutation(&q)
        .unwrap();
        assert_eq!(
            dp.estimated.total_time, oracle.estimated.total_time,
            "seed {seed}: {}",
            case.sql
        );
    }
}
