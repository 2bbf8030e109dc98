//! [`ResiliencePolicy`]: every knob of the cost-model-driven resilience
//! layer in one place.
//!
//! The paper's two-phase estimation (§4.2) predicts `TotalTime` and
//! `TimeFirst` for every wrapper submit; this policy turns those
//! predictions into transport behavior instead of constants:
//!
//! * **Predicted deadlines** — a submit's per-attempt deadline becomes
//!   `deadline_factor × predicted TotalTime × time_scale`, clamped to
//!   `[min_deadline_ms, max_deadline_ms]` and never below the
//!   endpoint's simulated latency floor.
//! * **Query budgets** — `query_budget_ms` bounds a whole query; when
//!   the budget runs out mid-execution the remaining submits are
//!   skipped and the query degrades to a partial answer.
//! * **Hedged submits** — once a submit's first frame is later than
//!   `straggler_factor × predicted TimeFirst` simulated milliseconds, a
//!   hedge is launched at the next replica (the earlier first frame in
//!   simulated time wins, at most `max_hedges_per_query` hedges per
//!   query).
//! * **Adaptive penalties** — the embedded [`HealthPolicy`] tunes the
//!   per-wrapper failure/latency EWMAs the estimator consults as a
//!   wrapper-scope penalty.
//!
//! Predicted deadlines are opt-in (`predicted_deadlines: false` by
//! default): the simulated transport's wall clock runs at
//! `NetProfile::sleep_scale` of simulated time, so callers enabling
//! them should set `time_scale` to the same scale (wall-clock
//! milliseconds per simulated millisecond).

use disco_common::HealthPolicy;

/// Tuning for cost-model-driven deadlines, budgets, hedging and
/// adaptive wrapper penalties. Lives on `MediatorOptions`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Derive per-submit deadlines from predicted `TotalTime` instead
    /// of the flat `RetryPolicy::deadline_ms`.
    pub predicted_deadlines: bool,
    /// `k` in `deadline = k × predicted TotalTime`.
    pub deadline_factor: f64,
    /// Lower clamp on a predicted wall-clock deadline, in milliseconds.
    pub min_deadline_ms: f64,
    /// Upper clamp on a predicted wall-clock deadline, in milliseconds.
    pub max_deadline_ms: f64,
    /// Also enforce the predicted deadline in *simulated* time: a reply
    /// whose simulated `comm_ms` exceeds the deadline counts as a
    /// timeout even if it arrived quickly on the wall clock. This makes
    /// delay faults deterministic under `sleep_scale = 0`.
    pub sim_deadlines: bool,
    /// Wall-clock milliseconds per simulated millisecond, used to turn
    /// simulated predictions into wall deadlines. Match this to the
    /// endpoints' `NetProfile::sleep_scale`.
    pub time_scale: f64,
    /// Launch hedges to replica wrappers for straggling submits.
    pub hedge: bool,
    /// Straggler threshold factor over predicted `TimeFirst`.
    pub straggler_factor: f64,
    /// Lower clamp on the straggler threshold, in wall-clock
    /// milliseconds (converted to simulated time at `time_scale`).
    pub min_straggler_wait_ms: f64,
    /// Hedges (straggler-triggered extra submits) allowed per query.
    /// Failover after a *failed* replica is always allowed and does not
    /// count against this cap.
    pub max_hedges_per_query: u32,
    /// Wall-clock budget for one whole query, in milliseconds. `None`
    /// means unbounded. An exhausted budget skips the remaining submits
    /// and degrades to a partial answer.
    pub query_budget_ms: Option<f64>,
    /// EWMA tuning for the per-wrapper health tracker behind the
    /// estimator's adaptive wrapper-scope penalties.
    pub health: HealthPolicy,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            predicted_deadlines: false,
            deadline_factor: 4.0,
            min_deadline_ms: 10.0,
            max_deadline_ms: 10_000.0,
            sim_deadlines: false,
            time_scale: 1.0,
            hedge: true,
            straggler_factor: 3.0,
            min_straggler_wait_ms: 5.0,
            max_hedges_per_query: 2,
            query_budget_ms: None,
            health: HealthPolicy::default(),
        }
    }
}

impl ResiliencePolicy {
    /// Predicted wall-clock deadline for a subplan, when enabled:
    /// `k × predicted × time_scale` clamped to the policy bounds.
    pub fn wall_deadline_ms(&self, predicted_total_ms: Option<f64>) -> Option<u64> {
        if !self.predicted_deadlines {
            return None;
        }
        let pred = predicted_total_ms?;
        if !pred.is_finite() || pred <= 0.0 {
            return None;
        }
        let ms = (self.deadline_factor * pred * self.time_scale)
            .clamp(self.min_deadline_ms.max(1.0), self.max_deadline_ms);
        Some(ms.ceil() as u64)
    }

    /// Predicted simulated-time deadline, when simulated enforcement is
    /// on: `k × predicted`, floored at `min_deadline_ms / time_scale`
    /// so the wall and simulated clamps agree.
    pub fn sim_deadline_ms(&self, predicted_total_ms: Option<f64>) -> Option<f64> {
        if !self.predicted_deadlines || !self.sim_deadlines {
            return None;
        }
        let pred = predicted_total_ms?;
        if !pred.is_finite() || pred <= 0.0 {
            return None;
        }
        let floor = if self.time_scale > 0.0 {
            self.min_deadline_ms / self.time_scale
        } else {
            self.min_deadline_ms
        };
        Some((self.deadline_factor * pred).max(floor))
    }

    /// Simulated-time straggler threshold before hedging, when enabled:
    /// `straggler_factor × predicted TimeFirst`, floored at
    /// `min_straggler_wait_ms / time_scale` so the wall and simulated
    /// clamps agree (as in [`sim_deadline_ms`](Self::sim_deadline_ms)).
    pub fn straggler_threshold_ms(&self, predicted_first_ms: Option<f64>) -> Option<f64> {
        if !self.hedge {
            return None;
        }
        let floor = if self.time_scale > 0.0 {
            self.min_straggler_wait_ms / self.time_scale
        } else {
            self.min_straggler_wait_ms
        };
        // No prediction: fall back to the floor so hedging still guards
        // against total silence.
        let first = predicted_first_ms.filter(|p| p.is_finite() && *p > 0.0);
        Some(first.map_or(floor, |first| (self.straggler_factor * first).max(floor)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_produces_no_deadlines() {
        let p = ResiliencePolicy::default();
        assert_eq!(p.wall_deadline_ms(Some(500.0)), None);
        assert_eq!(p.sim_deadline_ms(Some(500.0)), None);
    }

    #[test]
    fn deadlines_scale_and_clamp() {
        let p = ResiliencePolicy {
            predicted_deadlines: true,
            deadline_factor: 4.0,
            min_deadline_ms: 10.0,
            max_deadline_ms: 1_000.0,
            time_scale: 0.1,
            ..ResiliencePolicy::default()
        };
        // 4 × 500 × 0.1 = 200 ms.
        assert_eq!(p.wall_deadline_ms(Some(500.0)), Some(200));
        // Tiny prediction clamps to the floor.
        assert_eq!(p.wall_deadline_ms(Some(1.0)), Some(10));
        // Huge prediction clamps to the ceiling.
        assert_eq!(p.wall_deadline_ms(Some(1e9)), Some(1_000));
        // Garbage predictions fall back to the flat deadline.
        assert_eq!(p.wall_deadline_ms(Some(f64::NAN)), None);
        assert_eq!(p.wall_deadline_ms(None), None);
    }

    #[test]
    fn sim_deadline_mirrors_the_wall_clamp() {
        let p = ResiliencePolicy {
            predicted_deadlines: true,
            sim_deadlines: true,
            deadline_factor: 3.0,
            min_deadline_ms: 10.0,
            time_scale: 0.1,
            ..ResiliencePolicy::default()
        };
        assert_eq!(p.sim_deadline_ms(Some(500.0)), Some(1500.0));
        // 10 ms wall at 0.1 scale = 100 simulated ms floor.
        assert_eq!(p.sim_deadline_ms(Some(1.0)), Some(100.0));
    }

    #[test]
    fn straggler_wait_uses_time_first() {
        let p = ResiliencePolicy {
            straggler_factor: 3.0,
            min_straggler_wait_ms: 5.0,
            time_scale: 1.0,
            ..ResiliencePolicy::default()
        };
        assert_eq!(p.straggler_threshold_ms(Some(40.0)), Some(120.0));
        assert_eq!(p.straggler_threshold_ms(Some(0.5)), Some(5.0));
        assert_eq!(p.straggler_threshold_ms(None), Some(5.0));
        let off = ResiliencePolicy {
            hedge: false,
            ..ResiliencePolicy::default()
        };
        assert_eq!(off.straggler_threshold_ms(Some(40.0)), None);
    }
}
