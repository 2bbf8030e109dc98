//! Cost-model-driven resilience, end to end through the mediator:
//! predicted deadlines, query budgets, hedged replica submits and
//! adaptive wrapper-scope penalties that shift plan choice.

use disco_algebra::{LogicalPlan, PlanBuilder};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_mediator::{Mediator, MediatorOptions, ResiliencePolicy};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{
    ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy, TransportClient,
};
use disco_wrapper::SourceWrapper;

fn r_schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ])
}

fn replica_store(wrapper: &str) -> PagedStore {
    let mut s = PagedStore::new(wrapper, CostProfile::relational());
    s.add_collection(
        "R",
        CollectionBuilder::new(r_schema())
            .rows((0..50i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)])),
    )
    .unwrap();
    s
}

/// Mediator over `ra` (under the given faults) and `rb` (healthy), both
/// serving `R` and declared as a replica set.
fn replicated_federation(
    ra_faults: FaultPlan,
    sleep_scale: f64,
    options: MediatorOptions,
) -> Mediator {
    let mut t = ChannelTransport::new();
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("ra", replica_store("ra"))),
        NetProfile::lan().with_sleep_scale(sleep_scale),
        ra_faults,
    );
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("rb", replica_store("rb"))),
        NetProfile::lan().with_sleep_scale(sleep_scale),
        FaultPlan::none(),
    );
    let mut m = Mediator::new().with_options(options);
    m.connect(TransportClient::new(Box::new(t))).unwrap();
    m.declare_replicas("R", &["ra", "rb"]).unwrap();
    m
}

/// Mediator over a single wrapper `ra` under the given faults.
fn single_federation(ra_faults: FaultPlan, options: MediatorOptions) -> Mediator {
    let mut t = ChannelTransport::new();
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("ra", replica_store("ra"))),
        NetProfile::lan(),
        ra_faults,
    );
    let mut m = Mediator::new().with_options(options);
    m.connect(TransportClient::new(Box::new(t))).unwrap();
    m
}

/// The wrapper each submit of the optimized plan is addressed to.
fn planned_wrappers(m: &Mediator, sql: &str) -> Vec<String> {
    let plan = m.plan(sql).unwrap();
    plan.physical
        .collections()
        .iter()
        .map(|q| q.wrapper.clone())
        .collect()
}

#[test]
fn predicted_deadline_turns_a_huge_delay_into_a_timeout() {
    // A million simulated ms of delay. Without predicted deadlines the
    // reply is accepted (nothing really sleeps at scale 0); with them,
    // the simulated deadline `4 × predicted TotalTime` rejects it.
    let slow = FaultPlan::always(FaultKind::Delay(1e6));
    let mut lax = single_federation(slow.clone(), MediatorOptions::default());
    let r = lax.query("SELECT v FROM R").unwrap();
    assert_eq!(r.tuples.len(), 50);
    assert!(!r.is_partial());

    let strict = MediatorOptions {
        resilience: ResiliencePolicy {
            predicted_deadlines: true,
            sim_deadlines: true,
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    };
    let mut m = single_federation(slow, strict);
    let r = m.query("SELECT v FROM R").unwrap();
    assert!(r.is_partial(), "delayed replies must miss the deadline");
    assert_eq!(r.trace.missing, vec![QualifiedName::new("ra", "R")]);
    assert!(r.trace.submits[0].failed);
}

#[test]
fn exhausted_budget_degrades_to_a_partial_answer() {
    let options = MediatorOptions {
        resilience: ResiliencePolicy {
            query_budget_ms: Some(0.0),
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    };
    let mut m = single_federation(FaultPlan::none(), options);
    let report = m.explain_analyze("SELECT v FROM R").unwrap();
    let r = &report.result;
    assert!(r.trace.budget_exhausted);
    assert!(r.is_partial());
    assert_eq!(r.tuples.len(), 0);
    assert_eq!(r.trace.missing, vec![QualifiedName::new("ra", "R")]);
    // The skipped submit never went out.
    assert_eq!(r.trace.submits[0].attempts, 0);
    assert!(report.render().contains("query budget exhausted"));
}

#[test]
fn budget_expiring_on_a_sent_site_is_reported_as_budget_expiry() {
    // Both sites are sent at once, well inside the 20 ms budget. `fast`
    // answers immediately; `slow` really sleeps ~200 ms, so what ends
    // its wait is the budget — the cap on its deadline — not a deadline
    // of its own.
    let mut t = ChannelTransport::new();
    for (wrapper, collection, sleep_scale, faults) in [
        ("fast", "F", 0.0, FaultPlan::none()),
        (
            "slow",
            "S",
            0.1,
            FaultPlan::always(FaultKind::Delay(2_000.0)),
        ),
    ] {
        let mut store = PagedStore::new(wrapper, CostProfile::relational());
        store
            .add_collection(
                collection,
                CollectionBuilder::new(r_schema())
                    .rows((0..50i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)])),
            )
            .unwrap();
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(wrapper, store)),
            NetProfile::lan().with_sleep_scale(sleep_scale),
            faults,
        );
    }
    let client = TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    });
    let mut m = Mediator::new().with_options(MediatorOptions {
        resilience: ResiliencePolicy {
            query_budget_ms: Some(20.0),
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    });
    m.connect(client).unwrap();

    let r = m
        .query("SELECT v FROM F UNION ALL SELECT v FROM S")
        .unwrap();
    assert!(r.trace.budget_exhausted);
    assert!(r.is_partial());
    assert_eq!(r.tuples.len(), 50, "the fast site's rows are all there");
    assert_eq!(r.trace.missing, vec![QualifiedName::new("slow", "S")]);
    let slow = &r.trace.submits[1];
    assert_eq!(slow.wrapper, "slow");
    assert!(slow.failed);
}

#[test]
fn unbudgeted_query_is_unaffected() {
    let options = MediatorOptions {
        resilience: ResiliencePolicy {
            query_budget_ms: Some(60_000.0),
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    };
    let mut m = single_federation(FaultPlan::none(), options);
    let r = m.query("SELECT v FROM R").unwrap();
    assert_eq!(r.tuples.len(), 50);
    assert!(!r.trace.budget_exhausted);
    assert!(!r.is_partial());
}

#[test]
fn failover_to_a_declared_replica_avoids_the_partial_answer() {
    let mut m = replicated_federation(
        FaultPlan::always(FaultKind::Unavailable),
        0.0,
        MediatorOptions::default(),
    );
    let r = m.query("SELECT v FROM R").unwrap();
    // `ra` is dead, but its declared replica absorbed the submit: a
    // complete answer, not a degraded one.
    assert!(!r.is_partial(), "replica must absorb the failed submit");
    assert_eq!(r.tuples.len(), 50);
    assert_eq!(r.trace.submits[0].wrapper, "ra");
    assert_eq!(r.trace.submits[0].served_by, "rb");
}

#[test]
fn straggling_replica_is_hedged_around() {
    // `ra` really sleeps ~210 ms per reply; `rb` ~10 ms. The predicted
    // straggler threshold fires long before `ra` answers, and the hedge
    // to `rb` wins the race.
    let options = MediatorOptions {
        resilience: ResiliencePolicy {
            predicted_deadlines: true,
            // Generous deadlines: `ra` must straggle, not time out.
            deadline_factor: 1e6,
            max_deadline_ms: 60_000.0,
            time_scale: 0.1,
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    };
    let mut m = replicated_federation(FaultPlan::always(FaultKind::Delay(2_000.0)), 0.1, options);
    let r = m.query("SELECT v FROM R").unwrap();
    assert!(!r.is_partial());
    assert_eq!(r.tuples.len(), 50);
    assert_eq!(r.trace.hedges, 1);
    assert_eq!(r.trace.submits[0].wrapper, "ra");
    assert_eq!(r.trace.submits[0].served_by, "rb");
}

#[test]
fn repeated_timeouts_shift_the_plan_to_the_replica_and_decay_back() {
    let options = MediatorOptions {
        resilience: ResiliencePolicy {
            predicted_deadlines: true,
            sim_deadlines: true,
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    };
    let mut m = replicated_federation(FaultPlan::always(FaultKind::Delay(1e6)), 0.0, options);
    let sql = "SELECT v FROM R";

    // Healthy start: the declared-first replica gets the plan.
    assert_eq!(planned_wrappers(&m, sql), vec!["ra".to_string()]);

    // One query: every attempt to `ra` misses its predicted deadline
    // (recorded as failures), the submit fails over to `rb`.
    let r = m.query(sql).unwrap();
    assert!(!r.is_partial());
    assert_eq!(r.trace.submits[0].served_by, "rb");
    assert!(m.health().penalty("ra") > 1.0);

    // The wrapper-scope penalty now prices `ra` out: the optimizer
    // plans straight to the replica, and the penalty is visible in the
    // cost attribution.
    assert_eq!(planned_wrappers(&m, sql), vec!["rb".to_string()]);
    let submit = LogicalPlan::Submit {
        wrapper: "ra".into(),
        input: Box::new(PlanBuilder::scan(QualifiedName::new("ra", "R"), r_schema()).build()),
    };
    let explained = m
        .estimator()
        .explain(&submit, &Default::default())
        .unwrap()
        .expect("no cost limit");
    assert!(
        explained.render().contains("health ×"),
        "penalty missing from cost attribution:\n{}",
        explained.render()
    );

    // Queries now flow to `rb`; each executed query decays the idle
    // penalty one tick until `ra` wins the cost tie again.
    let mut flipped_back = false;
    for _ in 0..80 {
        let r = m.query(sql).unwrap();
        assert!(!r.is_partial());
        if planned_wrappers(&m, sql) == vec!["ra".to_string()] {
            flipped_back = true;
            break;
        }
    }
    assert!(flipped_back, "penalty never decayed back to ra");
    assert_eq!(m.health().penalty("ra"), 1.0);
}

#[test]
fn hedges_that_fail_are_charged_to_the_query_cap() {
    // Two sites, each replicated: the primaries `ha` and `ka` really
    // sleep ~1 s and time out at the 400 ms attempt deadline, their
    // replicas `hb` and `kb` are down. The first site's straggler hedge
    // spends the query's one hedge and fails with its primary; the
    // second site may then only fail over, not hedge.
    let mut t = ChannelTransport::new();
    for (wrapper, faults) in [
        ("ha", FaultPlan::always(FaultKind::Delay(10_000.0))),
        ("hb", FaultPlan::always(FaultKind::Unavailable)),
        ("ka", FaultPlan::always(FaultKind::Delay(10_000.0))),
        ("kb", FaultPlan::always(FaultKind::Unavailable)),
    ] {
        let collection = if wrapper.starts_with('h') { "H" } else { "K" };
        let mut store = PagedStore::new(wrapper, CostProfile::relational());
        store
            .add_collection(
                collection,
                CollectionBuilder::new(r_schema())
                    .rows((0..50i64).map(|i| vec![Value::Long(i), Value::Long(i % 5)])),
            )
            .unwrap();
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(wrapper, store)),
            NetProfile::lan().with_sleep_scale(0.1),
            faults,
        );
    }
    let client = TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
        max_attempts: 1,
        deadline_ms: 400,
        ..RetryPolicy::default()
    });
    let mut m = Mediator::new().with_options(MediatorOptions {
        resilience: ResiliencePolicy {
            time_scale: 0.1,
            max_hedges_per_query: 1,
            ..ResiliencePolicy::default()
        },
        ..MediatorOptions::default()
    });
    m.connect(client).unwrap();
    m.declare_replicas("H", &["ha", "hb"]).unwrap();
    m.declare_replicas("K", &["ka", "kb"]).unwrap();

    let hedges_to = |replica: &str| {
        disco_obs::counter(disco_obs::names::TRANSPORT_HEDGES, &[("wrapper", replica)]).get()
    };
    let r = m
        .query("SELECT v FROM H UNION ALL SELECT v FROM K")
        .unwrap();
    assert!(r.is_partial(), "every replica of both sites failed");
    let opened = hedges_to("hb") + hedges_to("kb");
    assert_eq!(opened, 1, "the cap allows one hedge per query");
    assert_eq!(r.trace.hedges, 1, "the trace reports the failed hedge");
    let [h, k] = &r.trace.submits[..] else {
        panic!("two submits, got {:?}", r.trace.submits);
    };
    assert!(h.failed && k.failed);
    assert_eq!((h.hedges, k.hedges), (1, 0));
}
