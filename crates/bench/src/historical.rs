//! Experiment E6 — historical costs and parameter adjustment (§4.3.1).

use disco_common::Result;
use disco_core::{fit_param, Estimator, HistoryRecorder, NodeCost, ParamAdjuster};
use disco_oo7::{index_scan_selectivity, rules, Oo7Config};
use disco_sources::DataSource;

use crate::setup::oo7_env;

/// Error of the estimate for one subquery before and after the
/// subquery's real cost was recorded as a query-scope rule.
#[derive(Debug, Clone)]
pub struct HistoryRow {
    pub selectivity: f64,
    pub measured_s: f64,
    pub estimate_before_s: f64,
    /// Re-estimate after recording THIS subquery.
    pub estimate_after_s: f64,
    /// Estimate of a *perturbed* subquery (different constant) after
    /// recording — shows the cache does not generalize (the limitation
    /// the paper notes).
    pub perturbed_estimate_s: f64,
    pub perturbed_measured_s: f64,
}

/// Run the history experiment over a selectivity set.
pub fn run_history(config: &Oo7Config, selectivities: &[f64]) -> Result<Vec<HistoryRow>> {
    let mut env = oo7_env(config, &rules::calibrated())?;
    let mut recorder = HistoryRecorder::new();
    let mut rows = Vec::new();
    for &sel in selectivities {
        let plan = index_scan_selectivity("oo7", config, sel);
        let perturbed = index_scan_selectivity("oo7", config, sel * 0.9);

        let before = Estimator::new(&env.registry, &env.catalog).estimate(&plan)?;
        let answer = env.store.execute(&plan)?;
        let measured = NodeCost {
            time_first: answer.stats.time_first_ms,
            time_next: 0.0,
            total_time: answer.stats.elapsed_ms,
            count_object: answer.batch.len() as f64,
            total_size: answer.batch.byte_width() as f64,
        };
        recorder.record(&mut env.registry, "oo7", &plan, measured)?;

        let est = Estimator::new(&env.registry, &env.catalog);
        let after = est.estimate(&plan)?;
        let perturbed_est = est.estimate(&perturbed)?;
        let perturbed_ans = env.store.execute(&perturbed)?;

        rows.push(HistoryRow {
            selectivity: sel,
            measured_s: answer.stats.elapsed_ms / 1_000.0,
            estimate_before_s: before.total_time / 1_000.0,
            estimate_after_s: after.total_time / 1_000.0,
            perturbed_estimate_s: perturbed_est.total_time / 1_000.0,
            perturbed_measured_s: perturbed_ans.stats.elapsed_ms / 1_000.0,
        });
    }
    Ok(rows)
}

/// Parameter adjustment: fit the wrapper's `IO` parameter so the Figure 13
/// formula's estimate matches one observed execution, then report the
/// estimate error across the whole sweep with the adjusted parameter.
/// Returns (mean error before, mean error after).
pub fn run_param_adjustment(config: &Oo7Config) -> Result<(f64, f64)> {
    // Start from a *mis-calibrated* wrapper document: IO twice reality.
    let doc = rules::yao_rules().replace("let IO = 25.0;", "let IO = 50.0;");
    let mut env = oo7_env(config, &doc)?;

    let sweep = [0.05, 0.1, 0.2, 0.4, 0.6];
    let measure = |env: &crate::setup::Oo7Env, sel: f64| -> Result<(f64, f64)> {
        let plan = index_scan_selectivity("oo7", config, sel);
        let est = Estimator::new(&env.registry, &env.catalog).estimate(&plan)?;
        let ans = env.store.execute(&plan)?;
        Ok((est.total_time, ans.stats.elapsed_ms))
    };

    let mut before_pairs = Vec::new();
    for &sel in &sweep {
        before_pairs.push(measure(&env, sel)?);
    }

    // Observe one execution at sel = 0.2 and fit IO (the formula is
    // monotone in IO).
    let calib_sel = 0.2;
    let observed = {
        let plan = index_scan_selectivity("oo7", config, calib_sel);
        env.store.execute(&plan)?.stats.elapsed_ms
    };
    let fitted = fit_param(
        |io| {
            let mut trial = env.registry.clone();
            trial
                .wrapper_params_mut("oo7")
                .set("IO", disco_common::Value::Double(io));
            let plan = index_scan_selectivity("oo7", config, calib_sel);
            Estimator::new(&trial, &env.catalog)
                .estimate(&plan)
                .map(|c| c.total_time)
                .unwrap_or(f64::INFINITY)
        },
        observed,
        1.0,
        200.0,
    )
    .expect("bracket is valid");
    ParamAdjuster::store_param(&mut env.registry, "oo7", "IO", fitted);

    let mut after_pairs = Vec::new();
    for &sel in &sweep {
        after_pairs.push(measure(&env, sel)?);
    }

    let (before_err, _) = crate::report::error_stats(&before_pairs);
    let (after_err, _) = crate::report::error_stats(&after_pairs);
    Ok((before_err, after_err))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_subqueries_estimate_exactly() {
        let config = Oo7Config::small();
        let rows = run_history(&config, &[0.1, 0.4]).unwrap();
        for r in &rows {
            // After recording, the estimate IS the measurement.
            assert!((r.estimate_after_s - r.measured_s).abs() < 1e-9, "{r:?}");
            // The perturbed query is NOT served by the cache; its estimate
            // stays at calibration quality (over-estimate at these sels).
            assert!(
                (r.perturbed_estimate_s - r.perturbed_measured_s).abs()
                    > (r.estimate_after_s - r.measured_s).abs() + 1e-9,
                "{r:?}"
            );
        }
    }

    #[test]
    fn param_adjustment_reduces_error() {
        let config = Oo7Config::small();
        let (before, after) = run_param_adjustment(&config).unwrap();
        assert!(after < before, "before {before}, after {after}");
        assert!(after < 0.1, "adjusted error still {after}");
    }
}
