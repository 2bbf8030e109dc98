//! Hedged federation: replicas absorb failures and stragglers, and the
//! cost model prices a sick wrapper out of the plan.
//!
//! `R` is served by two replica wrappers. The primary `ra` keeps
//! missing its predicted deadline, so: (1) each query still answers in
//! full, served by `rb` through a straggler hedge; (2) the health
//! tracker's wrapper-scope penalty makes the optimizer plan straight to
//! `rb`; (3) once `ra` heals and the penalty decays, the plan flips
//! back — all visible in EXPLAIN ANALYZE.
//!
//! ```text
//! cargo run --example hedged_federation
//! ```

use disco::common::{AttributeDef, DataType, Schema, Value};
use disco::mediator::{Mediator, MediatorOptions, ResiliencePolicy};
use disco::sources::{CollectionBuilder, CostProfile, PagedStore};
use disco::transport::{ChannelTransport, FaultKind, FaultPlan, NetProfile, TransportClient};
use disco::wrapper::SourceWrapper;

fn replica_store(name: &str) -> PagedStore {
    let mut s = PagedStore::new(name, CostProfile::relational());
    s.add_collection(
        "R",
        CollectionBuilder::new(Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]))
        .rows((0..200i64).map(|i| vec![Value::Long(i), Value::Long(i % 7)])),
    )
    .expect("collection registers");
    s
}

fn planned_wrapper(m: &Mediator, sql: &str) -> String {
    let plan = m.plan(sql).expect("plan");
    plan.physical.collections()[0].wrapper.clone()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two replicas of `R`. For its first twelve submits `ra` replies
    // with a huge (simulated) delay — long past any predicted deadline —
    // then it recovers.
    let mut transport = ChannelTransport::new();
    transport.add_wrapper_with(
        Box::new(SourceWrapper::new("ra", replica_store("ra"))),
        NetProfile::lan(),
        FaultPlan::first_n(FaultKind::Delay(1e6), 12),
    );
    transport.add_wrapper_with(
        Box::new(SourceWrapper::new("rb", replica_store("rb"))),
        NetProfile::lan(),
        FaultPlan::none(),
    );

    let mut mediator = Mediator::new().with_options(MediatorOptions {
        resilience: ResiliencePolicy {
            // Deadlines derived from predicted TotalTime, enforced in
            // simulated time so the delay fault is caught immediately.
            predicted_deadlines: true,
            sim_deadlines: true,
            ..ResiliencePolicy::default()
        },
        ..Default::default()
    });
    mediator.connect(TransportClient::new(Box::new(transport)))?;
    mediator.declare_replicas("R", &["ra", "rb"])?;

    let sql = "SELECT v FROM R WHERE id < 50";
    println!(
        "healthy start: plan targets `{}`",
        planned_wrapper(&mediator, sql)
    );

    // The delayed primary straggles past its hedge threshold: the hedge
    // to the declared replica lands first (in simulated time) and the
    // answer stays complete. The primary's late frame, past its
    // predicted deadline, is recorded as a failure.
    let report = mediator.explain_analyze(sql)?;
    let r = &report.result;
    assert!(!r.is_partial());
    println!(
        "\nfirst query: {} tuples, submit to `{}` served by `{}`",
        r.tuples.len(),
        r.trace.submits[0].wrapper,
        r.trace.submits[0].served_by,
    );
    println!("\n{}", report.render());

    // The recorded failures became a wrapper-scope penalty: the
    // optimizer now plans straight to the replica.
    println!(
        "after the failures: penalty(ra) = {:.2}, plan targets `{}`",
        mediator.health().penalty("ra"),
        planned_wrapper(&mediator, sql),
    );
    assert_eq!(planned_wrapper(&mediator, sql), "rb");

    // `ra` has recovered; queries flow to `rb` while the idle penalty
    // decays one tick per executed query, until `ra` wins the cost tie
    // back.
    let mut queries = 0usize;
    while planned_wrapper(&mediator, sql) != "ra" {
        mediator.query(sql)?;
        queries += 1;
        assert!(queries < 100, "penalty never decayed");
    }
    println!(
        "penalty decayed after {queries} healthy queries: plan is back on `ra` \
         (penalty {:.2})",
        mediator.health().penalty("ra"),
    );
    Ok(())
}
