//! E11 — join-enumeration scaling: the optimizer's memoized subset DP vs
//! the exhaustive permutation oracle.
//!
//! Sweeps chain queries of 2–10 tables over a synthetic catalog with
//! skewed cardinalities and reports, for each width: complete plans
//! costed, estimator node visits, cache hits and wall time for the
//! default optimizer and for `Optimizer::optimize_by_permutation`, plus
//! the reduction factors. Besides the table it writes
//! `BENCH_optimizer.json` (machine-readable, consumed by CI as an
//! artifact).
//!
//! ```text
//! cargo run --release -p disco-bench --bin optimizer_scaling
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use disco_bench::Table;
use disco_catalog::{AttributeStats, Capabilities, Catalog, CollectionStats, ExtentStats};
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_core::RuleRegistry;
use disco_mediator::analyze::analyze;
use disco_mediator::{parse_query, OptimizedPlan, Optimizer, OptimizerOptions};

const MAX_TABLES: usize = 10;

/// Deterministic, deliberately skewed cardinalities: the optimizer has
/// real ordering decisions to make at every width.
const CARDS: [u64; MAX_TABLES] = [500, 120_000, 3_000, 45, 70_000, 900, 25_000, 10, 8_000, 300];

/// A catalog holding chain tables T0..T{n-1}: `T{i}.nxt` joins
/// `T{i+1}.id`.
fn chain_catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    c.register_wrapper("rel", Capabilities::full()).unwrap();
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("nxt", DataType::Long),
    ]);
    for (t, &card) in CARDS.iter().enumerate().take(n) {
        let mut stats = CollectionStats::new(ExtentStats::of(card, 48));
        // Every other table carries an index on `id` so access paths
        // differ too.
        if t % 2 == 0 {
            stats = stats.with_attribute(
                "id",
                AttributeStats::indexed(card, Value::Long(0), Value::Long(card as i64 - 1)),
            );
        }
        c.register_collection("rel", format!("T{t}"), schema.clone(), stats)
            .unwrap();
    }
    c
}

fn chain_sql(n: usize) -> String {
    let from: Vec<String> = (0..n).map(|t| format!("T{t} t{t}")).collect();
    let mut conds: Vec<String> = (0..n - 1)
        .map(|t| format!("t{t}.nxt = t{}.id", t + 1))
        .collect();
    conds.push("t0.id < 250".into());
    format!(
        "SELECT t0.id FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    )
}

struct Measured {
    plan: OptimizedPlan,
    wall_ms: f64,
}

/// Each cell's `wall_ms` is the median of `SAMPLES` timed `optimize`
/// calls after `WARMUP` untimed ones: a single cold call reads first-touch
/// page faults and allocator growth as a property of the enumerator.
const SAMPLES: usize = 31;
const WARMUP: usize = 3;

fn run(catalog: &Catalog, registry: &RuleRegistry, sql: &str, oracle: bool) -> Measured {
    let q = analyze(&parse_query(sql).unwrap(), catalog).unwrap();
    // The oracle runs unpruned: the from-scratch baseline.
    let opts = OptimizerOptions {
        pruning: !oracle,
        ..Default::default()
    };
    let optimizer = Optimizer::new(catalog, registry, opts);
    let timed = || {
        let start = Instant::now();
        let plan = if oracle {
            optimizer.optimize_by_permutation(&q)
        } else {
            optimizer.optimize(&q)
        }
        .expect("optimizes");
        (plan, start.elapsed().as_secs_f64() * 1e3)
    };
    for _ in 0..WARMUP {
        timed();
    }
    let mut runs: Vec<(OptimizedPlan, f64)> = (0..SAMPLES).map(|_| timed()).collect();
    runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (plan, wall_ms) = runs.swap_remove(SAMPLES / 2);
    Measured { plan, wall_ms }
}

fn main() {
    let registry = RuleRegistry::with_default_model();
    println!("E11 — join-enumeration scaling: subset DP vs permutation baseline\n");
    let mut t = Table::new(&[
        "tables",
        "plans (perm)",
        "plans (dp)",
        "nodes (perm)",
        "nodes (dp)",
        "node redux",
        "memo hits",
        "rule hits",
        "ms (perm)",
        "ms (dp)",
        "speedup",
    ]);
    let mut json_rows = String::new();
    for n in 2..=MAX_TABLES {
        let catalog = chain_catalog(n);
        let sql = chain_sql(n);
        let dp = run(&catalog, &registry, &sql, false);
        let perm = run(&catalog, &registry, &sql, true);
        assert_eq!(
            dp.plan.estimated.total_time, perm.plan.estimated.total_time,
            "DP and baseline disagree at n={n}"
        );
        let node_redux = perm.plan.estimator_nodes as f64 / dp.plan.estimator_nodes.max(1) as f64;
        let speedup = perm.wall_ms / dp.wall_ms.max(1e-9);
        t.row(vec![
            n.to_string(),
            perm.plan.plans_considered.to_string(),
            dp.plan.plans_considered.to_string(),
            perm.plan.estimator_nodes.to_string(),
            dp.plan.estimator_nodes.to_string(),
            format!("{node_redux:.1}x"),
            dp.plan.memo_hits.to_string(),
            dp.plan.rule_cache_hits.to_string(),
            format!("{:.2}", perm.wall_ms),
            format!("{:.2}", dp.wall_ms),
            format!("{speedup:.1}x"),
        ]);
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        write!(
            json_rows,
            "\n    {{\"tables\": {n}, \
             \"dp\": {{\"plans_considered\": {}, \"plans_pruned\": {}, \
             \"estimator_nodes\": {}, \"estimator_rules\": {}, \
             \"memo_hits\": {}, \"rule_cache_hits\": {}, \"wall_ms\": {:.3}}}, \
             \"permutation\": {{\"plans_considered\": {}, \"estimator_nodes\": {}, \
             \"estimator_rules\": {}, \"wall_ms\": {:.3}}}, \
             \"node_visit_reduction\": {:.3}, \"wall_speedup\": {:.3}}}",
            dp.plan.plans_considered,
            dp.plan.plans_pruned,
            dp.plan.estimator_nodes,
            dp.plan.estimator_rules,
            dp.plan.memo_hits,
            dp.plan.rule_cache_hits,
            dp.wall_ms,
            perm.plan.plans_considered,
            perm.plan.estimator_nodes,
            perm.plan.estimator_rules,
            perm.wall_ms,
            node_redux,
            speedup,
        )
        .expect("write json row");
    }
    println!("{}", t.render());
    println!(
        "DP prices each connected subset once (memo + rule cache); the \
         permutation baseline re-estimates every complete plan from scratch."
    );

    let json = format!(
        "{{\n  \"bench\": \"optimizer_scaling\",\n  \"workload\": \"chain\",\n  \
         \"tables\": [2, {MAX_TABLES}],\n  \"rows\": [{json_rows}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_optimizer.json", &json).expect("write BENCH_optimizer.json");
    println!("\nwrote BENCH_optimizer.json");
}
