//! E9 (extension) — estimate accuracy across the OO7 query suite.
//!
//! [GST96] validated its calibration "running the OO7 benchmark … that
//! real execution time are closely estimated by the calibrated formulas";
//! this binary produces the equivalent table for our reproduction: every
//! OO7-style query, measured (simulated) time vs the generic-model
//! estimate vs the blended (Figure 13 rules) estimate.
//!
//! ```text
//! cargo run --release -p disco-bench --bin oo7_suite
//! ```

use disco_bench::setup::oo7_env;
use disco_bench::{error_stats, Table};
use disco_core::Estimator;
use disco_oo7::{index_scan_selectivity, rules, Oo7Config, Oo7Query};
use disco_sources::DataSource;

fn main() {
    let config = Oo7Config::paper();
    let cal = oo7_env(&config, &rules::calibrated()).expect("setup");
    let yao = oo7_env(&config, &rules::yao_rules()).expect("setup");
    let cal_est = Estimator::new(&cal.registry, &cal.catalog);
    let yao_est = Estimator::new(&yao.registry, &yao.catalog);

    let queries: Vec<(String, disco_algebra::LogicalPlan)> = vec![
        (
            "Q1 exact-match Id".into(),
            Oo7Query::ExactMatch { id: 42_123 }.plan("oo7", &config),
        ),
        (
            "Q2 1% BuildDate".into(),
            Oo7Query::BuildDateRange {
                fraction_percent: 1,
            }
            .plan("oo7", &config),
        ),
        (
            "Q3 10% BuildDate".into(),
            Oo7Query::BuildDateRange {
                fraction_percent: 10,
            }
            .plan("oo7", &config),
        ),
        (
            "Q7 100% BuildDate".into(),
            Oo7Query::BuildDateRange {
                fraction_percent: 100,
            }
            .plan("oo7", &config),
        ),
        (
            "index scan 5%".into(),
            index_scan_selectivity("oo7", &config, 0.05),
        ),
        (
            "index scan 30%".into(),
            index_scan_selectivity("oo7", &config, 0.3),
        ),
        (
            "Q4 docs⋈composites".into(),
            Oo7Query::DocumentsOfComposites.plan("oo7", &config),
        ),
        (
            "Q8 atomic⋈documents".into(),
            Oo7Query::AtomicWithDocuments.plan("oo7", &config),
        ),
        (
            "connections of parts".into(),
            Oo7Query::ConnectionsOfParts { max_from_id: 1_000 }.plan("oo7", &config),
        ),
        (
            "parts per build date".into(),
            Oo7Query::PartsPerBuildDate.plan("oo7", &config),
        ),
    ];

    println!("E9 — OO7 suite: measured vs estimated response time (seconds)\n");
    let mut t = Table::new(&["query", "rows", "measured", "generic est", "blended est"]);
    let mut cal_pairs = Vec::new();
    let mut yao_pairs = Vec::new();
    for (name, plan) in &queries {
        let ans = cal.store.execute(plan).expect("runs");
        let measured = ans.stats.elapsed_ms / 1e3;
        let g = cal_est.estimate(plan).expect("est").total_time / 1e3;
        let b = yao_est.estimate(plan).expect("est").total_time / 1e3;
        cal_pairs.push((g, measured));
        yao_pairs.push((b, measured));
        t.row(vec![
            name.clone(),
            ans.batch.len().to_string(),
            format!("{measured:.1}"),
            format!("{g:.1}"),
            format!("{b:.1}"),
        ]);
    }
    println!("{}", t.render());
    let (gm, gx) = error_stats(&cal_pairs);
    let (bm, bx) = error_stats(&yao_pairs);
    println!(
        "generic model error: mean {:.0}%  max {:.0}%",
        gm * 100.0,
        gx * 100.0
    );
    println!(
        "blended model error: mean {:.0}%  max {:.0}%",
        bm * 100.0,
        bx * 100.0
    );
    println!(
        "\nThe blended rules only cover indexed `Id` selections — exactly where the\n\
         generic model is wrong; everything else estimates identically."
    );
}
