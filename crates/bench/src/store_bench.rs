//! E15 — disco-store validation: Yao's formula against *actual* page
//! I/O.
//!
//! Everything before this experiment validated the cost model against a
//! simulated pager; here the AtomicParts extent lives in a real paged
//! file behind `disco-store`'s buffer pool, and `pages_read` counts
//! faults that physically happened. Four sweeps:
//!
//! * [`run_yao_validation`] — Figure 12's page axis re-run on disk:
//!   cold-pool index retrievals at increasing selectivity, measured
//!   faults vs `yao(n, m, k)` (uniform random placement — the regime
//!   Yao models);
//! * [`run_hit_rate_sweep`] — repeated point lookups under shrinking
//!   buffer pools: the measured hit rate climbs with capacity, the
//!   input for `CacheRegime::Warm` calibration;
//! * [`run_crossover`] — index retrieval vs sequential scan of the same
//!   qualifying set, wall-clock and modelled time: per-object page
//!   faults lose to one sequential pass once selectivity is high
//!   enough;
//! * [`run_clustered_divergence`] — the §7 blind spot: clustered
//!   placement faults a fraction of what Yao (which assumes random
//!   placement) predicts.

use std::time::Instant;

use disco_algebra::{CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::seeded;
use disco_common::{AttributeDef, DataType, QualifiedName, Result, Schema, Value};
use disco_core::yao::yao_pages_exact;
use disco_sources::{CostProfile, DataSource, StoreSource};
use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};

/// A disk-backed AtomicParts-like extent: `Id` uniform and indexed,
/// `V` an unindexed copy of `Id` so the same qualifying set can be
/// retrieved through the sequential-scan path.
pub struct StoreEnv {
    pub source: StoreSource,
    /// Objects in the extent (`n` of Yao's formula).
    pub objects: u64,
    /// Heap pages of the extent (`m` of Yao's formula).
    pub pages: u64,
}

fn env_schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("Id", DataType::Long),
        AttributeDef::new("V", DataType::Long),
    ])
}

/// Build the environment: `n` objects of 56 bytes on 4 KB pages at 96 %
/// fill (70 per page, matching the paper's layout), random or clustered
/// placement, with the given buffer-pool capacity in frames.
pub fn store_env(n: usize, clustered: bool, buffer_capacity: usize) -> Result<StoreEnv> {
    let mut collection = DiskCollectionBuilder::new(env_schema())
        .rows((0..n as i64).map(|i| vec![Value::Long(i), Value::Long(i)]))
        .object_size(56)
        .index("Id");
    if clustered {
        collection = collection.cluster_on("Id");
    }
    let store = DiskStoreBuilder::new("disk")
        .buffer_capacity(buffer_capacity)
        .collection("AtomicParts", collection)
        .build()?;
    let source = StoreSource::new(store, CostProfile::object_store());
    let c = source.store().collection("AtomicParts")?;
    Ok(StoreEnv {
        objects: c.rows() as u64,
        pages: c.pages(),
        source,
    })
}

fn atomic_scan() -> PlanBuilder {
    PlanBuilder::scan(QualifiedName::new("disk", "AtomicParts"), env_schema())
}

/// `select(scan, Id < k)` — served by the B+Tree index.
fn index_select(k: i64) -> LogicalPlan {
    atomic_scan().select("Id", CompareOp::Lt, k).build()
}

/// `select(scan, V < k)` — same qualifying set, but `V` is unindexed so
/// the source scans the whole extent sequentially and filters.
fn seq_select(k: i64) -> LogicalPlan {
    atomic_scan().select("V", CompareOp::Lt, k).build()
}

/// One selectivity point of the cold-pool Yao validation.
#[derive(Debug, Clone, PartialEq)]
pub struct YaoRow {
    pub selectivity: f64,
    /// Objects the retrieval returned (`k`).
    pub objects: u64,
    /// `yao(n, m, k)`.
    pub predicted_pages: f64,
    /// Data-page faults the cold run actually took.
    pub measured_pages: u64,
    /// `(predicted − measured) / measured`.
    pub error: f64,
}

/// Cold-pool index retrievals over uniform random placement: measured
/// faults next to Yao's prediction at each selectivity.
pub fn run_yao_validation(env: &StoreEnv, selectivities: &[f64]) -> Result<Vec<YaoRow>> {
    let mut rows = Vec::with_capacity(selectivities.len());
    for &sel in selectivities {
        let k = (sel.clamp(0.0, 1.0) * env.objects as f64).round() as i64;
        env.source.clear_cache()?;
        let answer = env.source.execute(&index_select(k))?;
        let objects = answer.batch.len() as u64;
        let predicted = yao_pages_exact(env.objects, env.pages, objects);
        rows.push(YaoRow {
            selectivity: sel,
            objects,
            predicted_pages: predicted,
            measured_pages: answer.stats.pages_read,
            error: (predicted - answer.stats.pages_read as f64)
                / (answer.stats.pages_read as f64).max(1.0),
        });
    }
    Ok(rows)
}

/// One buffer-pool capacity point of the hit-rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HitRateRow {
    /// Pool capacity in frames.
    pub capacity: usize,
    /// Point lookups measured (after an identical warm-up round).
    pub lookups: usize,
    pub hits: u64,
    pub faults: u64,
    /// `hits / (hits + faults)` over the measured round.
    pub hit_rate: f64,
}

/// Steady-state hit rate of repeated point lookups as pool capacity
/// varies: one warm-up round populates the pool, then the same lookup
/// sequence is replayed and its hits/faults measured. Capacities at or
/// above the working set approach a 100 % hit rate; small pools evict
/// between reuses.
pub fn run_hit_rate_sweep(
    n: usize,
    capacities: &[usize],
    lookups: usize,
) -> Result<Vec<HitRateRow>> {
    let mut rows = Vec::with_capacity(capacities.len());
    for &capacity in capacities {
        let env = store_env(n, false, capacity)?;
        let mut rng = seeded(capacity as u64, "store-hit-rate");
        let ids: Vec<i64> = (0..lookups).map(|_| rng.gen_range(0..n as i64)).collect();
        let lookup = |id: i64| atomic_scan().select("Id", CompareOp::Eq, id).build();
        for &id in &ids {
            env.source.execute(&lookup(id))?;
        }
        let before = env.source.pool_counters();
        for &id in &ids {
            env.source.execute(&lookup(id))?;
        }
        let delta = env.source.pool_counters().delta(&before);
        let total = delta.hits + delta.faults;
        rows.push(HitRateRow {
            capacity,
            lookups,
            hits: delta.hits,
            faults: delta.faults,
            hit_rate: delta.hits as f64 / (total as f64).max(1.0),
        });
    }
    Ok(rows)
}

/// One selectivity point of the index-vs-sequential comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    pub selectivity: f64,
    /// Objects both retrievals returned.
    pub objects: u64,
    /// Real wall-clock of the cold index retrieval, milliseconds.
    pub index_wall_ms: f64,
    /// Real wall-clock of the cold sequential scan + filter, ms.
    pub scan_wall_ms: f64,
    /// Modelled (virtual-clock) time of the index retrieval, ms.
    pub index_model_ms: f64,
    /// Modelled time of the sequential path, ms.
    pub scan_model_ms: f64,
    /// Data pages the index retrieval faulted.
    pub index_pages: u64,
}

/// Cold index retrieval vs cold sequential scan of the same qualifying
/// set, at each selectivity. Wall-clock is best-of-`reps` to damp
/// scheduler noise; the modelled times are deterministic.
pub fn run_crossover(
    env: &StoreEnv,
    selectivities: &[f64],
    reps: usize,
) -> Result<Vec<CrossoverRow>> {
    let mut rows = Vec::with_capacity(selectivities.len());
    for &sel in selectivities {
        let k = (sel.clamp(0.0, 1.0) * env.objects as f64).round() as i64;
        let best = |plan: &LogicalPlan| -> Result<(f64, f64, u64, u64)> {
            let mut wall = f64::INFINITY;
            let mut model = 0.0;
            let mut pages = 0;
            let mut objects = 0;
            for _ in 0..reps.max(1) {
                env.source.clear_cache()?;
                let start = Instant::now();
                let answer = env.source.execute(plan)?;
                wall = wall.min(start.elapsed().as_secs_f64() * 1e3);
                model = answer.stats.elapsed_ms;
                pages = answer.stats.pages_read;
                objects = answer.batch.len() as u64;
            }
            Ok((wall, model, pages, objects))
        };
        let (index_wall_ms, index_model_ms, index_pages, k_index) = best(&index_select(k))?;
        let (scan_wall_ms, scan_model_ms, _, k_scan) = best(&seq_select(k))?;
        debug_assert_eq!(k_index, k_scan, "paths disagree on the qualifying set");
        rows.push(CrossoverRow {
            selectivity: sel,
            objects: k_index,
            index_wall_ms,
            scan_wall_ms,
            index_model_ms,
            scan_model_ms,
            index_pages,
        });
    }
    Ok(rows)
}

/// First swept selectivity where the index retrieval's wall-clock is no
/// better than the sequential scan's — `None` if the index wins
/// everywhere in the sweep.
pub fn wall_crossover(rows: &[CrossoverRow]) -> Option<f64> {
    rows.iter()
        .find(|r| r.index_wall_ms >= r.scan_wall_ms)
        .map(|r| r.selectivity)
}

/// One selectivity point of the clustered-divergence sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredRow {
    pub selectivity: f64,
    pub objects: u64,
    /// What Yao (random placement) predicts.
    pub predicted_pages: f64,
    /// What the clustered layout actually faulted.
    pub measured_pages: u64,
    /// `measured / predicted` — well below 1 is the §7 effect.
    pub ratio: f64,
}

/// The §7 divergence measured on disk: `Id`-range retrievals over a
/// *clustered* extent fault `ceil(k / per-page)` contiguous pages, a
/// fraction of the random-placement count Yao assumes.
pub fn run_clustered_divergence(
    env: &StoreEnv,
    selectivities: &[f64],
) -> Result<Vec<ClusteredRow>> {
    let mut rows = Vec::with_capacity(selectivities.len());
    for &sel in selectivities {
        let k = (sel.clamp(0.0, 1.0) * env.objects as f64).round() as i64;
        env.source.clear_cache()?;
        let answer = env.source.execute(&index_select(k))?;
        let objects = answer.batch.len() as u64;
        let predicted = yao_pages_exact(env.objects, env.pages, objects);
        rows.push(ClusteredRow {
            selectivity: sel,
            objects,
            predicted_pages: predicted,
            measured_pages: answer.stats.pages_read,
            ratio: answer.stats.pages_read as f64 / predicted.max(1e-9),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small scale (7 000 objects, 100 pages), matching `Oo7Config::small`.
    const N: usize = 7_000;

    #[test]
    fn cold_faults_match_yao_within_15_percent_across_5_selectivities() {
        let env = store_env(N, false, 2_048).unwrap();
        assert_eq!(env.pages, 100);
        let rows = run_yao_validation(&env, &[0.05, 0.1, 0.2, 0.3, 0.5]).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.error.abs() < 0.15,
                "sel {}: predicted {:.1}, measured {} ({:+.1}%)",
                r.selectivity,
                r.predicted_pages,
                r.measured_pages,
                r.error * 100.0
            );
        }
        // Faults grow with selectivity and saturate at the extent size.
        assert!(rows
            .windows(2)
            .all(|w| w[1].measured_pages >= w[0].measured_pages));
        assert!(rows.last().unwrap().measured_pages <= env.pages);
    }

    #[test]
    fn hit_rate_climbs_with_pool_capacity() {
        let rows = run_hit_rate_sweep(N, &[10, 50, 200], 300).unwrap();
        assert!(
            rows.windows(2).all(|w| w[1].hit_rate > w[0].hit_rate),
            "{rows:?}"
        );
        // 200 frames hold the whole working set (100 heap + index pages):
        // the replayed round faults nothing.
        let top = rows.last().unwrap();
        assert_eq!(top.faults, 0, "{top:?}");
        assert!((top.hit_rate - 1.0).abs() < 1e-12);
        // A 10-frame pool under a 100-page working set thrashes.
        assert!(rows[0].hit_rate < 0.5, "{:?}", rows[0]);
    }

    #[test]
    fn index_beats_scan_at_low_selectivity_in_the_model() {
        let env = store_env(N, false, 2_048).unwrap();
        let rows = run_crossover(&env, &[0.001, 0.5], 1).unwrap();
        let low = &rows[0];
        // 7 qualifying objects: a handful of faults vs a 100-page pass.
        assert!(low.index_pages <= 10, "{low:?}");
        assert!(low.index_model_ms < low.scan_model_ms / 2.0, "{low:?}");
        // At 50 % the index touches nearly every page anyway.
        let high = &rows[1];
        assert!(high.index_pages >= 95, "{high:?}");
    }

    #[test]
    fn clustered_placement_faults_far_below_yao() {
        let env = store_env(N, true, 2_048).unwrap();
        let rows = run_clustered_divergence(&env, &[0.1]).unwrap();
        let r = &rows[0];
        // 700 contiguous objects sit on 10-11 pages; Yao assumes random
        // placement and predicts ~63.
        assert!(r.measured_pages <= 11, "{r:?}");
        assert!(r.ratio < 0.25, "{r:?}");
    }
}
