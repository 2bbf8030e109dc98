//! Experiment E1/E2 — Figure 12: "Validation on OO7: Index Scan".
//!
//! Response time of an index scan over `AtomicParts` as selectivity
//! varies, three series:
//!
//! * **Experiment** — the simulated ObjectStore actually executes the
//!   scan: the store fetches each qualifying object's page through a cold
//!   buffer pool (25 ms per fault) and delivers each object (9 ms);
//! * **Calibration** — the mediator's generic model, whose index-scan
//!   formula assumes pages fetched ∝ objects fetched;
//! * **Yao formula** — the wrapper-exported Figure 13 rule, parsed,
//!   compiled to bytecode and evaluated by the mediator's VM.

use disco_common::Result;
use disco_core::{Estimator, NodeCost};
use disco_oo7::{index_scan_selectivity, rules, Oo7Config};
use disco_sources::DataSource;

use crate::setup::oo7_env;

/// One row of the Figure 12 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    pub selectivity: f64,
    /// Measured (simulated execution) response time, seconds.
    pub experiment_s: f64,
    /// Generic calibrated estimate, seconds.
    pub calibration_s: f64,
    /// Wrapper Yao-rule estimate, seconds.
    pub yao_s: f64,
    /// Pages actually faulted by the run.
    pub pages_touched: u64,
    /// Yao's formula evaluated at the returned cardinality: the page
    /// count the cost model believes the run faulted.
    pub predicted_pages: f64,
    /// Relative error of `predicted_pages` against `pages_touched`
    /// (`None` when no page was touched but pages were predicted).
    pub pages_error: Option<f64>,
    /// Objects returned.
    pub objects: usize,
}

/// Run the Figure 12 sweep at the given selectivities.
pub fn run_fig12(config: &Oo7Config, selectivities: &[f64]) -> Result<Vec<Fig12Row>> {
    // Two registered environments over the same store: one with no
    // wrapper rules (pure calibration) and one with the Figure 13 rules.
    let cal = oo7_env(config, &rules::calibrated())?;
    let yao = oo7_env(config, &rules::yao_rules())?;
    let cal_est = Estimator::new(&cal.registry, &cal.catalog);
    let yao_est = Estimator::new(&yao.registry, &yao.catalog);

    let mut rows = Vec::with_capacity(selectivities.len());
    for &sel in selectivities {
        let plan = index_scan_selectivity("oo7", config, sel);
        let answer = cal.store.execute(&plan)?;
        let calibration = cal_est.estimate(&plan)?;
        let yao_cost: NodeCost = yao_est.estimate(&plan)?;
        let predicted_pages = disco_core::yao::yao_pages_exact(
            config.atomic_parts as u64,
            config.atomic_pages(),
            answer.batch.len() as u64,
        );
        rows.push(Fig12Row {
            selectivity: sel,
            experiment_s: answer.stats.elapsed_ms / 1_000.0,
            calibration_s: calibration.total_time / 1_000.0,
            yao_s: yao_cost.total_time / 1_000.0,
            pages_touched: answer.stats.pages_read,
            predicted_pages,
            pages_error: disco_core::relative_error(
                predicted_pages,
                answer.stats.pages_read as f64,
            ),
            objects: answer.batch.len(),
        });
    }
    Ok(rows)
}

/// The paper's x-axis: selectivity 0 → 0.7.
pub fn paper_selectivities() -> Vec<f64> {
    vec![0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::error_stats;

    /// The shape assertions of DESIGN.md §3 (E1), on the small config so
    /// the test stays fast.
    #[test]
    fn figure_12_shape_holds() {
        let config = Oo7Config::small();
        let rows = run_fig12(&config, &[0.005, 0.02, 0.1, 0.3, 0.5, 0.7]).unwrap();

        // Yao estimate tracks the experiment closely (< 5% mean error).
        let yao_pairs: Vec<(f64, f64)> = rows.iter().map(|r| (r.yao_s, r.experiment_s)).collect();
        let (yao_mean, _) = error_stats(&yao_pairs);
        assert!(yao_mean < 0.05, "Yao mean relative error {yao_mean}");

        // Calibration over-estimates grossly at high selectivity…
        let last = rows.last().unwrap();
        assert!(
            last.calibration_s > 2.0 * last.experiment_s,
            "calibration {} vs experiment {}",
            last.calibration_s,
            last.experiment_s
        );
        // …and its error grows with selectivity.
        let cal_errs: Vec<f64> = rows
            .iter()
            .map(|r| (r.calibration_s - r.experiment_s) / r.experiment_s)
            .collect();
        assert!(
            cal_errs.windows(2).all(|w| w[1] >= w[0] - 0.05),
            "calibration error not growing: {cal_errs:?}"
        );

        // Yao's page prediction lands within 15 % of the pages the
        // simulated random placement actually faulted, per selectivity.
        for r in &rows {
            let err = r.pages_error.expect("pages touched");
            assert!(
                err.abs() < 0.15,
                "sel {}: Yao predicted {:.1} pages, measured {} ({:+.1}%)",
                r.selectivity,
                r.predicted_pages,
                r.pages_touched,
                err * 100.0
            );
        }

        // The experiment curve is concave: page faults saturate, so the
        // per-selectivity slope before saturation (sel < 1/objects-per-
        // page regime) far exceeds the slope afterwards.
        assert!(rows.last().unwrap().pages_touched <= 100);
        let early_slope = (rows[1].experiment_s - rows[0].experiment_s) / (0.02 - 0.005);
        let late_slope = (rows[5].experiment_s - rows[4].experiment_s) / (0.7 - 0.5);
        assert!(
            early_slope > 1.5 * late_slope,
            "experiment curve not concave: early {early_slope}, late {late_slope}"
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let config = Oo7Config::small();
        let a = run_fig12(&config, &[0.2]).unwrap();
        let b = run_fig12(&config, &[0.2]).unwrap();
        assert_eq!(a, b);
    }
}
