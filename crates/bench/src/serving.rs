//! Shared federation and workload for the multi-tenant serving layer
//! experiments: the `federation_server` bin, the `serving_load` bench
//! (`BENCH_serving.json`), and the CI serving smoke test.
//!
//! The federation spreads [`TABLES`] single-collection wrappers over a
//! channel transport so concurrent sessions genuinely overlap: each
//! endpoint has its own worker thread, and `sleep_scale` converts the
//! simulated communication time into real wall-clock sleeps for the
//! throughput sweeps (0 for the CPU-bound admission comparison).
//!
//! Two query classes, classified by the cost model's predicted
//! `TotalTime` (not by annotation — the whole point is that the
//! mediator's estimates drive scheduling):
//!
//! * **interactive** — an indexed point-range lookup on one table;
//!   predicted cheap, 1 submit, a handful of tuples;
//! * **analytical** — a two-table equijoin on the non-indexed cluster
//!   key with a weak value filter; predicted orders of magnitude more
//!   expensive (full shipping of both sides plus a fanout-20 join).

use std::sync::Arc;

use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{AdmissionPolicy, Mediator, SharedMediator};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

/// Endpoints (and collections) in the serving federation.
pub const TABLES: usize = 16;
/// Rows per collection.
pub const ROWS_PER_TABLE: i64 = 2000;
/// Distinct values of the join key `k` (fanout = rows / modulus).
pub const KEY_MODULUS: i64 = 100;
/// Tenants the load generators cycle through.
pub const TENANTS: usize = 8;

/// Collection served by endpoint `i`.
pub fn table_name(i: usize) -> String {
    format!("T{i:02}")
}

/// Endpoint name `i`.
pub fn wrapper_name(i: usize) -> String {
    format!("w{i:02}")
}

/// Tenant a client thread belongs to.
pub fn tenant_name(client: usize) -> String {
    format!("tenant{:02}", client % TENANTS)
}

/// Build the serving federation over a channel transport.
/// `sleep_scale` is the fraction of simulated communication time
/// actually slept per submit (see `NetProfile`).
pub fn federation(sleep_scale: f64) -> Mediator {
    let mut t = ChannelTransport::new();
    for i in 0..TABLES {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("k", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let mut store = PagedStore::new(wrapper_name(i), CostProfile::relational());
        store
            .add_collection(
                table_name(i),
                CollectionBuilder::new(schema)
                    .rows((0..ROWS_PER_TABLE).map(|id| {
                        vec![
                            Value::Long(id),
                            Value::Long(id % KEY_MODULUS),
                            Value::Long((id * 7) % 1000),
                        ]
                    }))
                    .object_size(24)
                    .index("id"),
            )
            .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(wrapper_name(i), store)),
            NetProfile::lan().with_sleep_scale(sleep_scale),
            FaultPlan::none(),
        );
    }
    let client = TransportClient::new(Box::new(t));
    let mut m = Mediator::new();
    m.connect(client).expect("all wrappers register");
    m
}

/// The federation wrapped for concurrent serving.
pub fn shared_federation(sleep_scale: f64) -> Arc<SharedMediator> {
    Arc::new(SharedMediator::new(federation(sleep_scale)))
}

/// Predicted-cheap lookup: indexed range on one table, `c` in 1..=50.
pub fn interactive_sql(table: usize, c: i64) -> String {
    format!(
        "SELECT v FROM {} WHERE id < {}",
        table_name(table % TABLES),
        c.clamp(1, 50)
    )
}

/// Predicted-expensive join: table `t` with its neighbor on the
/// non-indexed cluster key, weak filter `v < c` (`c` in 200..=1000).
pub fn analytical_sql(table: usize, c: i64) -> String {
    let a = table % TABLES;
    let b = (table + 1) % TABLES;
    format!(
        "SELECT a.id, b.v FROM {} a, {} b WHERE a.k = b.k AND a.v < {}",
        table_name(a),
        table_name(b),
        c.clamp(200, 1000)
    )
}

/// Deterministic mixed stream for one client: mostly interactive
/// lookups, one analytical join in eight.
pub fn mixed_sql(client: usize, j: usize) -> String {
    let t = (client * 7 + j) % TABLES;
    if j % 8 == 7 {
        analytical_sql(t, 200 + ((j as i64 * 37) % 600))
    } else {
        interactive_sql(t, 5 + ((client + j) as i64 % 40))
    }
}

/// Predicted `TotalTime` for one representative query of each class,
/// from the shared mediator's own cost model.
pub fn class_predictions(shared: &SharedMediator) -> (f64, f64) {
    shared.with_mediator(|m| {
        let cheap = m
            .plan(&interactive_sql(0, 10))
            .expect("interactive plans")
            .estimated
            .total_time;
        let heavy = m
            .plan(&analytical_sql(0, 500))
            .expect("analytical plans")
            .estimated
            .total_time;
        (cheap, heavy)
    })
}

/// Admission policy for the serving benches: the interactive threshold
/// is the geometric mean of the two class predictions, so the split is
/// robust to cost-model drift rather than hard-coded.
pub fn admission_policy(shared: &SharedMediator) -> AdmissionPolicy {
    let (cheap, heavy) = class_predictions(shared);
    assert!(
        heavy > cheap * 4.0,
        "cost model no longer separates the classes: \
         interactive={cheap:.1}ms analytical={heavy:.1}ms"
    );
    AdmissionPolicy {
        max_concurrent: 2,
        interactive_reserved: 4,
        interactive_threshold_ms: (cheap * heavy).sqrt(),
        per_tenant_inflight: 0,
    }
}

/// Prime the plan cache with every workload shape (one constant each;
/// later constants replay the same entries).
pub fn warm_plan_cache(shared: &SharedMediator) {
    for t in 0..TABLES {
        shared
            .plan(&interactive_sql(t, 10))
            .expect("interactive shape plans");
        shared
            .plan(&analytical_sql(t, 500))
            .expect("analytical shape plans");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_mediator::PlanSource;

    #[test]
    fn classes_are_separated_by_predicted_cost() {
        let sm = shared_federation(0.0);
        let policy = admission_policy(&sm);
        let (cheap, heavy) = class_predictions(&sm);
        assert!(cheap < policy.interactive_threshold_ms);
        assert!(heavy > policy.interactive_threshold_ms);
    }

    #[test]
    fn warmed_cache_serves_every_shape() {
        let sm = shared_federation(0.0);
        warm_plan_cache(&sm);
        for t in 0..TABLES {
            let (_, s) = sm.plan(&interactive_sql(t, 33)).unwrap();
            assert_eq!(s, PlanSource::CacheHit, "interactive shape {t}");
            let (_, s) = sm.plan(&analytical_sql(t, 777)).unwrap();
            assert_eq!(s, PlanSource::CacheHit, "analytical shape {t}");
        }
        let r = sm.query(&mixed_sql(3, 4)).unwrap();
        assert!(!r.result.tuples.is_empty());
    }
}
