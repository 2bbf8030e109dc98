//! End-to-end mediator tests: registration → SQL → decomposition →
//! optimization → execution → combined answers, across heterogeneous
//! simulated sources.

use disco_catalog::Capabilities;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::analyze::analyze;
use disco_mediator::{
    parse_query, Mediator, MediatorOptions, OptimizedPlan, Optimizer, OptimizerOptions,
};
use disco_sources::{CollectionBuilder, CostProfile, FlatFile, PagedStore};
use disco_wrapper::SourceWrapper;

/// hr: object store with Employee (indexed id) and Dept.
fn hr_store() -> PagedStore {
    let emp_schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("name", DataType::Str),
        AttributeDef::new("salary", DataType::Long),
        AttributeDef::new("dept_id", DataType::Long),
    ]);
    let dept_schema = Schema::new(vec![
        AttributeDef::new("dept_id", DataType::Long),
        AttributeDef::new("dept_name", DataType::Str),
    ]);
    let mut s = PagedStore::new("hr", CostProfile::object_store());
    s.add_collection(
        "Employee",
        CollectionBuilder::new(emp_schema)
            .rows((0..500i64).map(|i| {
                vec![
                    Value::Long(i),
                    Value::Str(format!("emp{i:03}")),
                    Value::Long(1_000 + (i * 37) % 2_000),
                    Value::Long(i % 10),
                ]
            }))
            .object_size(64)
            .index("id"),
    )
    .unwrap();
    s.add_collection(
        "Dept",
        CollectionBuilder::new(dept_schema)
            .rows((0..10i64).map(|i| vec![Value::Long(i), Value::Str(format!("dept{i}"))]))
            .object_size(32)
            .index("dept_id"),
    )
    .unwrap();
    s
}

/// files: a scan-only flat file of audit events.
fn audit_file() -> FlatFile {
    FlatFile::new(
        "files",
        "Audit",
        Schema::new(vec![
            AttributeDef::new("emp_id", DataType::Long),
            AttributeDef::new("action", DataType::Str),
        ]),
        (0..200i64).map(|i| vec![Value::Long(i % 50), Value::Str(format!("a{}", i % 4))]),
    )
}

fn mediator() -> Mediator {
    let mut m = Mediator::new();
    m.register(Box::new(SourceWrapper::new("hr", hr_store())))
        .unwrap();
    m.register(Box::new(
        SourceWrapper::new("files", audit_file()).with_capabilities(Capabilities::scan_only()),
    ))
    .unwrap();
    m
}

/// Plan `sql` over the mediator's catalog and rules with the permutation
/// oracle and explicit optimizer options (the oracle is an optimizer
/// entry point, not a mediator one).
fn plan_by_permutation(m: &Mediator, sql: &str, options: OptimizerOptions) -> OptimizedPlan {
    let q = analyze(&parse_query(sql).unwrap(), m.catalog()).unwrap();
    Optimizer::new(m.catalog(), m.registry(), options)
        .optimize_by_permutation(&q)
        .unwrap()
}

#[test]
fn registration_populates_catalog_and_registry() {
    let m = mediator();
    assert_eq!(m.catalog().collection_count(), 3);
    assert_eq!(m.wrapper_names(), vec!["files", "hr"]);
    let stats = m
        .catalog()
        .stats(&disco_common::QualifiedName::new("hr", "Employee"))
        .unwrap();
    assert_eq!(stats.extent.count_object, 500);
    assert!(stats.attribute("id").indexed);
}

#[test]
fn single_table_selection() {
    let mut m = mediator();
    let r = m
        .query("SELECT name, salary FROM Employee WHERE id < 10")
        .unwrap();
    assert_eq!(r.tuples.len(), 10);
    assert_eq!(r.schema.arity(), 2);
    assert_eq!(r.schema.index_of("name"), Some(0));
    assert!(r.measured_ms > 0.0);
    assert!(r.estimated.total_time > 0.0);
    // One subquery to hr, selection pushed down (only 10 tuples shipped).
    assert_eq!(r.trace.submits.len(), 1);
    assert_eq!(r.trace.submits[0].tuples, 10);
}

#[test]
fn join_across_collections() {
    let mut m = mediator();
    let r = m
        .query(
            "SELECT e.name, d.dept_name FROM Employee e, Dept d \
             WHERE e.dept_id = d.dept_id AND e.id < 20 ORDER BY e.name",
        )
        .unwrap();
    assert_eq!(r.tuples.len(), 20);
    // Sorted by name.
    let names: Vec<String> = r
        .tuples
        .iter()
        .map(|t| t.get(0).unwrap().as_str().unwrap().to_owned())
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
    // Every employee matched its department.
    for t in &r.tuples {
        assert!(t.get(1).unwrap().as_str().unwrap().starts_with("dept"));
    }
}

#[test]
fn scan_only_wrapper_gets_mediator_compensation() {
    let mut m = mediator();
    let r = m
        .query("SELECT action FROM Audit WHERE emp_id = 7")
        .unwrap();
    assert_eq!(r.tuples.len(), 4);
    // The flat file cannot select: the full file is shipped and the
    // mediator filters.
    assert_eq!(r.trace.submits.len(), 1);
    assert_eq!(r.trace.submits[0].tuples, 200);
}

#[test]
fn cross_wrapper_join() {
    let mut m = mediator();
    let r = m
        .query(
            "SELECT e.name, a.action FROM Employee e, Audit a \
             WHERE e.id = a.emp_id AND e.id < 5",
        )
        .unwrap();
    // ids 0..5, each with 4 audit rows.
    assert_eq!(r.tuples.len(), 20);
    assert_eq!(r.trace.submits.len(), 2);
    let wrappers: Vec<&str> = r.trace.submits.iter().map(|s| s.wrapper.as_str()).collect();
    assert!(wrappers.contains(&"hr") && wrappers.contains(&"files"));
}

#[test]
fn aggregates_group_by() {
    let mut m = mediator();
    let r = m
        .query(
            "SELECT d.dept_name, COUNT(*) AS n, AVG(e.salary) AS pay \
             FROM Employee e, Dept d WHERE e.dept_id = d.dept_id \
             GROUP BY d.dept_name ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(r.tuples.len(), 10);
    // 500 employees over 10 departments.
    let total: i64 = r
        .tuples
        .iter()
        .map(|t| t.get(1).unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, 500);
    for t in &r.tuples {
        assert_eq!(t.get(1).unwrap().as_i64(), Some(50));
        let pay = t.get(2).unwrap().as_f64().unwrap();
        assert!(pay > 1_000.0 && pay < 3_000.0);
    }
}

#[test]
fn distinct_and_expressions() {
    let mut m = mediator();
    let r = m.query("SELECT DISTINCT dept_id FROM Employee").unwrap();
    assert_eq!(r.tuples.len(), 10);
    let r = m
        .query("SELECT salary * 2 AS pay2 FROM Employee WHERE id = 3")
        .unwrap();
    assert_eq!(r.tuples.len(), 1);
    let pay2 = r.tuples[0].get(0).unwrap().as_i64().unwrap();
    assert_eq!(pay2, 2 * (1_000 + 111));
}

#[test]
fn explain_renders_plan() {
    let m = mediator();
    let text = m
        .explain("SELECT e.name FROM Employee e WHERE e.id < 10")
        .unwrap();
    assert!(text.contains("submit -> hr"), "{text}");
    assert!(text.contains("estimated:"), "{text}");
}

#[test]
fn pruning_reduces_estimation_work() {
    // The exhaustive permutation oracle, so pruning is the only
    // difference (the DP has its own caches and counters).
    let sql = "SELECT e.name FROM Employee e, Dept d, Audit a \
               WHERE e.dept_id = d.dept_id AND e.id = a.emp_id AND e.id < 50";
    let m = mediator();
    let plan = |pruning| {
        plan_by_permutation(
            &m,
            sql,
            OptimizerOptions {
                pruning,
                ..Default::default()
            },
        )
    };
    let unpruned = plan(false);
    let pruned = plan(true);
    // Same chosen plan quality…
    assert!((pruned.estimated.total_time - unpruned.estimated.total_time).abs() < 1e-6);
    // …with plans abandoned and fewer estimator node visits.
    assert!(pruned.plans_pruned > 0, "{}", pruned.plans_pruned);
    assert!(pruned.estimator_nodes <= unpruned.estimator_nodes);
}

#[test]
fn default_dp_matches_permutation_oracle_end_to_end() {
    let sql = "SELECT e.name FROM Employee e, Dept d, Audit a \
               WHERE e.dept_id = d.dept_id AND e.id = a.emp_id AND e.id < 50";
    // The mediator plans every join with the DP, three tables included.
    let m = mediator();
    let dp = m.plan(sql).unwrap();
    assert!(!dp.fast_path);
    let oracle = plan_by_permutation(
        &m,
        sql,
        OptimizerOptions {
            pruning: false,
            ..Default::default()
        },
    );
    assert_eq!(dp.estimated.total_time, oracle.estimated.total_time);
    // The memoized DP prices fewer estimator nodes than the exhaustive
    // permutation sweep.
    assert!(dp.estimator_nodes <= oracle.estimator_nodes);
    assert!(dp.memo_hits > 0);
}

#[test]
fn history_recording_improves_reestimates() {
    let mut m = mediator().with_options(MediatorOptions {
        record_history: true,
        ..Default::default()
    });
    let sql = "SELECT name FROM Employee WHERE id < 10";
    let first = m.query(sql).unwrap();
    assert!(m.history_recorded() > 0);
    // Re-planning the identical query now uses the recorded real cost for
    // the wrapper subquery.
    let second = m.plan(sql).unwrap();
    let wrapper_measured = first.trace.submits[0].stats.elapsed_ms;
    // The new estimate's submit subtree is the measured value (plus
    // mediator-side terms) — it must be far closer to the measurement
    // than the pre-history estimate was, and match it within the
    // communication/local margin.
    let diff_after = (second.estimated.total_time - first.measured_ms).abs();
    assert!(
        diff_after < 0.5 * first.measured_ms,
        "estimate {} vs measured {} (wrapper {})",
        second.estimated.total_time,
        first.measured_ms,
        wrapper_measured
    );
}

#[test]
fn errors_surface_cleanly() {
    let mut m = mediator();
    assert_eq!(
        m.query("SELECT * FROM Ghost").unwrap_err().kind(),
        "catalog"
    );
    assert_eq!(m.query("SELECT FROM").unwrap_err().kind(), "parse");
    assert_eq!(
        m.query("SELECT e.name, a.action FROM Employee e, Audit a")
            .unwrap_err()
            .kind(),
        "unsupported" // cross product
    );
}

#[test]
fn unregister_then_requery_fails() {
    let mut m = mediator();
    m.unregister("files").unwrap();
    assert!(m.query("SELECT * FROM Audit").is_err());
    assert_eq!(m.catalog().collection_count(), 2);
}

#[test]
fn response_time_takes_the_slowest_subquery() {
    let sql = "SELECT e.name, a.action FROM Employee e, Audit a \
               WHERE e.id = a.emp_id AND e.id < 5";
    let r = mediator().query(sql).unwrap();
    // `measured_ms` is total work — the counterpart of the estimator's
    // `TotalTime`; the response-time view is bounded by the slowest
    // submit plus mediator work, strictly better with two wrappers.
    assert_eq!(r.measured_ms, r.trace.sequential_ms());
    assert!(r.trace.predicted_parallel_ms() < r.trace.sequential_ms());
    let slowest = r
        .trace
        .submits
        .iter()
        .map(|t| t.stats.elapsed_ms + t.comm_ms)
        .fold(0.0f64, f64::max);
    assert!((r.trace.parallel_ms() - (slowest + r.trace.mediator_ms)).abs() < 1e-6);
}

#[test]
fn explain_costs_shows_scope_attribution() {
    let m = mediator();
    let text = m
        .explain_costs("SELECT name FROM Employee WHERE id < 10")
        .unwrap();
    // Mediator-side operators price at local scope, wrapper subplans at
    // default scope (no wrapper rules registered here).
    assert!(text.contains("local scope"), "{text}");
    assert!(text.contains("default scope"), "{text}");
    assert!(text.contains("TotalTime"), "{text}");
}

/// A wrapper that fails during execution — failure injection for the
/// query phase.
struct FailingWrapper {
    inner: SourceWrapper<PagedStore>,
}

impl disco_wrapper::Wrapper for FailingWrapper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn registration(&self) -> disco_common::Result<disco_wrapper::Registration> {
        self.inner.registration()
    }
    fn execute(
        &self,
        _plan: &disco_algebra::LogicalPlan,
    ) -> disco_common::Result<disco_sources::SubAnswer> {
        Err(disco_common::DiscoError::Source(
            "simulated source outage".into(),
        ))
    }
}

#[test]
fn wrapper_execution_failure_surfaces_cleanly() {
    let mut m = Mediator::new();
    m.register(Box::new(FailingWrapper {
        inner: SourceWrapper::new("hr", hr_store()),
    }))
    .unwrap();
    // Planning works (registration succeeded)…
    assert!(m.plan("SELECT name FROM Employee WHERE id < 3").is_ok());
    // …execution reports the source failure without panicking.
    let err = m
        .query("SELECT name FROM Employee WHERE id < 3")
        .unwrap_err();
    assert_eq!(err.kind(), "source");
    assert!(err.message().contains("outage"));
}

#[test]
fn mediator_is_send() {
    fn assert_send<T: Send>(_: &T) {}
    let m = mediator();
    assert_send(&m);
    // And usable from another thread.
    let handle = std::thread::spawn(move || {
        let mut m = m;
        m.query("SELECT name FROM Employee WHERE id < 2")
            .unwrap()
            .tuples
            .len()
    });
    assert_eq!(handle.join().unwrap(), 2);
}

#[test]
fn union_all_concatenates() {
    let mut m = mediator();
    let r = m
        .query(
            "SELECT name FROM Employee WHERE id < 3 \
             UNION ALL SELECT name FROM Employee WHERE id < 5",
        )
        .unwrap();
    assert_eq!(r.tuples.len(), 8);
}

#[test]
fn union_deduplicates() {
    let mut m = mediator();
    let r = m
        .query(
            "SELECT name FROM Employee WHERE id < 3 \
             UNION SELECT name FROM Employee WHERE id < 5",
        )
        .unwrap();
    assert_eq!(r.tuples.len(), 5);
}

#[test]
fn union_across_wrappers_with_order_by() {
    let mut m = mediator();
    // Employee names and audit actions are disjoint string sets.
    let r = m
        .query(
            "SELECT name FROM Employee WHERE id < 2 \
             UNION SELECT a.action FROM Audit a WHERE a.emp_id = 1 \
             ORDER BY name DESC",
        )
        .unwrap();
    // 2 employee names + distinct actions of emp 1.
    assert!(r.tuples.len() >= 3);
    let names: Vec<&str> = r
        .tuples
        .iter()
        .map(|t| t.get(0).unwrap().as_str().unwrap())
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    sorted.reverse();
    assert_eq!(names, sorted);
    // Both wrappers contacted.
    assert_eq!(r.trace.submits.len(), 2);
}

#[test]
fn union_arity_mismatch_rejected() {
    let mut m = mediator();
    let e = m
        .query("SELECT name FROM Employee UNION SELECT name, salary FROM Employee")
        .unwrap_err();
    assert_eq!(e.kind(), "plan");
}

#[test]
fn union_order_by_in_middle_rejected() {
    let mut m = mediator();
    let e = m
        .query(
            "SELECT name FROM Employee ORDER BY name \
             UNION SELECT name FROM Employee",
        )
        .unwrap_err();
    assert_eq!(e.kind(), "parse");
}

#[test]
fn chunked_mediator_matches_whole_answer_mediator() {
    let queries = [
        "SELECT name, salary FROM Employee WHERE id < 10",
        "SELECT e.name, d.dept_name FROM Employee e, Dept d \
         WHERE e.dept_id = d.dept_id AND e.id < 20 ORDER BY e.name",
        "SELECT d.dept_name, COUNT(*) AS n FROM Employee e, Dept d \
         WHERE e.dept_id = d.dept_id GROUP BY d.dept_name ORDER BY n DESC",
        "SELECT name FROM Employee WHERE id < 3 \
         UNION SELECT name FROM Employee WHERE id < 5",
        "SELECT e.name, a.action FROM Employee e, Audit a \
         WHERE e.id = a.emp_id AND e.id < 5",
    ];
    for sql in queries {
        let mut whole = mediator();
        let mut chunked = mediator().with_options(MediatorOptions {
            chunk_rows: Some(7),
            ..Default::default()
        });
        let a = whole.query(sql).unwrap();
        let b = chunked.query(sql).unwrap();
        assert_eq!(a.schema, b.schema, "{sql}");
        assert_eq!(a.tuples, b.tuples, "{sql}");
        assert_eq!(a.trace.submits.len(), b.trace.submits.len(), "{sql}");
    }
}

#[test]
fn limit_caps_answers_at_either_chunking() {
    let sql = "SELECT name FROM Employee WHERE id < 50 ORDER BY name LIMIT 5";
    let plan = mediator().plan(sql).unwrap();
    assert_eq!(plan.limit, Some(5));
    let mut whole = mediator();
    let mut chunked = mediator().with_options(MediatorOptions {
        chunk_rows: Some(8),
        ..Default::default()
    });
    let a = whole.query(sql).unwrap();
    let b = chunked.query(sql).unwrap();
    assert_eq!(a.tuples.len(), 5);
    assert_eq!(a.tuples, b.tuples);
    // Either run records when the first rows surfaced.
    assert!(a.trace.first_row_wall_ms.is_some());
    assert!(b.trace.first_row_wall_ms.is_some());
}

/// A wrapper whose registration payload changes between calls (fresh
/// statistics each time) — exercises the §2.1 re-registration interface.
struct EvolvingWrapper {
    inner: SourceWrapper<PagedStore>,
    calls: std::sync::atomic::AtomicU64,
}

impl disco_wrapper::Wrapper for EvolvingWrapper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn registration(&self) -> disco_common::Result<disco_wrapper::Registration> {
        let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let mut reg = self.inner.registration()?;
        // Statistics "age": each refresh reports a larger extent.
        for (_, _, stats) in &mut reg.collections {
            stats.extent.count_object += n * 1_000;
        }
        Ok(reg)
    }
    fn execute(
        &self,
        plan: &disco_algebra::LogicalPlan,
    ) -> disco_common::Result<disco_sources::SubAnswer> {
        self.inner.execute(plan)
    }
}

#[test]
fn refresh_reregisters_statistics_and_rules() {
    let mut m = Mediator::new();
    m.register(Box::new(EvolvingWrapper {
        inner: SourceWrapper::new("hr", hr_store())
            .with_cost_rules("rule scan($C) { TotalTime = 42; }"),
        calls: std::sync::atomic::AtomicU64::new(0),
    }))
    .unwrap();
    let q = disco_common::QualifiedName::new("hr", "Employee");
    let before = m.catalog().stats(&q).unwrap().extent.count_object;
    let rules_before = m.registry().len();

    m.refresh("hr").unwrap();
    let after = m.catalog().stats(&q).unwrap().extent.count_object;
    assert_eq!(after, before + 1_000, "fresh statistics installed");
    // Rules replaced, not duplicated.
    assert_eq!(m.registry().len(), rules_before);
    // Queries still work after refresh.
    let mut m = m;
    assert_eq!(
        m.query("SELECT name FROM Employee WHERE id < 4")
            .unwrap()
            .tuples
            .len(),
        4
    );

    assert!(m.refresh("ghost").is_err());
}
