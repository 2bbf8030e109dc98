//! EXPLAIN ANALYZE differential tests: the zipped predicted/measured
//! tree must report exactly the cardinalities the executor produced, a
//! cost scope for every node, and — on the fault path — the collections
//! a downed wrapper failed to contribute.

use disco_catalog::{CacheRegime, Capabilities};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_mediator::{AnalyzeReport, Mediator, MediatorOptions};
use disco_sources::{CollectionBuilder, CostProfile, FlatFile, PagedStore, StoreSource};
use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};
use disco_transport::{
    ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy, TransportClient,
};
use disco_wrapper::SourceWrapper;

/// Random federation: `n` collections spread over a full-capability
/// object store and a scan-only relational store, a spanning tree of
/// equi-joins, and occasional selections. Deterministic per seed, so
/// two mediators built from the same seed hold identical data.
fn random_case(seed: u64) -> (Mediator, String) {
    let mut rng: StdRng = seeded(seed, "explain-analyze");
    let n = rng.gen_range(2usize..=4);
    let cards: Vec<i64> = (0..n).map(|_| rng.gen_range(8i64..60)).collect();

    let mut attrs = vec![AttributeDef::new("id", DataType::Long)];
    for k in 1..n {
        attrs.push(AttributeDef::new(format!("f{k}"), DataType::Long));
    }
    let schema = Schema::new(attrs);

    let mut alpha = PagedStore::new("alpha", CostProfile::object_store());
    let mut beta = PagedStore::new("beta", CostProfile::relational());
    for t in 0..n {
        let rows: Vec<Vec<Value>> = (0..cards[t])
            .map(|i| {
                let mut row = vec![Value::Long(i)];
                for &card in cards.iter().skip(1) {
                    // Foreign keys always land inside that table's id domain.
                    row.push(Value::Long((i * 7 + t as i64) % card));
                }
                row
            })
            .collect();
        let builder = CollectionBuilder::new(schema.clone())
            .rows(rows)
            .object_size(48)
            .index("id");
        if rng.gen_range(0usize..2) == 0 {
            alpha.add_collection(format!("T{t}"), builder).unwrap();
        } else {
            beta.add_collection(format!("T{t}"), builder).unwrap();
        }
    }

    // Spanning tree: table i joins a parent among 0..i.
    let mut conds = Vec::new();
    for i in 1..n {
        let parent = rng.gen_range(0usize..i);
        conds.push(format!("t{parent}.f{i} = t{i}.id"));
    }
    for (t, &card) in cards.iter().enumerate() {
        if rng.gen_range(0usize..3) == 0 {
            let bound = rng.gen_range(1i64..card);
            conds.push(format!("t{t}.id < {bound}"));
        }
    }
    let from: Vec<String> = (0..n).map(|t| format!("T{t} t{t}")).collect();
    let sql = format!(
        "SELECT t0.id FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    );

    let mut m = Mediator::new();
    m.register(Box::new(SourceWrapper::new("alpha", alpha)))
        .unwrap();
    m.register(Box::new(
        SourceWrapper::new("beta", beta).with_capabilities(Capabilities::scan_only()),
    ))
    .unwrap();
    (m, sql)
}

/// Multiset of executed submit nodes as (operator, rows), sorted.
fn submit_rows(report: &AnalyzeReport) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = report
        .root
        .nodes()
        .into_iter()
        .filter(|nd| nd.operator.starts_with("submit -> "))
        .filter_map(|nd| nd.measured.map(|m| (nd.operator.clone(), m.rows)))
        .collect();
    v.sort();
    v
}

#[test]
fn measured_cardinalities_match_executor_over_100_seeded_queries() {
    for seed in 0..100u64 {
        let (mut m, sql) = random_case(seed);
        let report = m
            .explain_analyze(&sql)
            .unwrap_or_else(|e| panic!("seed {seed} ({sql}): {e}"));

        // Root cardinality is exactly the answer size.
        let root = report.root.measured.expect("root node executed");
        assert_eq!(
            root.rows as usize,
            report.result.tuples.len(),
            "seed {seed} ({sql})"
        );
        assert!(!root.failed);

        // Every executed submit node reports exactly the tuple count the
        // executor's own submit trace recorded (compared as multisets —
        // a wrapper can be submitted to more than once).
        let from_tree = submit_rows(&report);
        let mut from_trace: Vec<(String, u64)> = report
            .result
            .trace
            .submits
            .iter()
            .map(|s| (format!("submit -> {}", s.wrapper), s.tuples as u64))
            .collect();
        from_trace.sort();
        assert_eq!(from_tree, from_trace, "seed {seed} ({sql})");

        // An independent, uninstrumented run over identical data agrees
        // on the answer cardinality.
        let (mut m2, sql2) = random_case(seed);
        assert_eq!(sql, sql2, "case generation must be deterministic");
        let plain = m2.query(&sql2).unwrap();
        assert_eq!(
            plain.tuples.len(),
            report.result.tuples.len(),
            "seed {seed}"
        );

        // Every node of the report — executed or wrapper-side predicted
        // only — carries a TotalTime scope attribution.
        for nd in report.root.nodes() {
            assert!(
                nd.scope().is_some(),
                "seed {seed}: node `{}` reports no scope",
                nd.operator
            );
        }

        // The rendering carries the predicted/measured/error lines for
        // every node.
        let text = report.render();
        assert_eq!(
            text.matches("predicted:").count(),
            report.root.nodes().len(),
            "seed {seed}:\n{text}"
        );
        assert!(text.contains("total: predicted="), "seed {seed}:\n{text}");
    }
}

#[test]
fn history_recording_shows_up_as_query_scope_on_the_second_run() {
    // A pushdown-capable wrapper, so the recorded subquery is a
    // selection with its constant bound — which derives query scope
    // (a recorded bare scan would only reach collection scope).
    let mut m = Mediator::new();
    m.register(Box::new(SourceWrapper::new("hr", hr_store())))
        .unwrap();
    let mut m = m.with_options(MediatorOptions {
        record_history: true,
        ..Default::default()
    });
    let sql = "SELECT name FROM Employee WHERE id < 5";
    let first = m.explain_analyze(sql).unwrap();
    // First run predicts from synthetic statistics: no query scope yet.
    assert!(first
        .root
        .nodes()
        .iter()
        .all(|nd| nd.scope() != Some(disco_core::Scope::Query)));
    assert!(m.history_recorded() > 0);

    // The recorded measurement now wins scope blending: the second
    // report attributes the recorded selection to query scope, and the
    // submit's predicted time collapses onto the measurement.
    let second = m.explain_analyze(sql).unwrap();
    let scopes: Vec<_> = second
        .root
        .nodes()
        .iter()
        .filter_map(|nd| nd.scope())
        .collect();
    assert!(
        scopes.contains(&disco_core::Scope::Query),
        "scopes after recording: {scopes:?}"
    );
    assert!(
        second.render().contains("time=query"),
        "{}",
        second.render()
    );
    let err_first = first.root.time_error().unwrap().abs();
    let err_second = second.root.time_error().unwrap().abs();
    assert!(
        err_second <= err_first,
        "recording must not worsen the root time error ({err_first} -> {err_second})"
    );
}

/// hr: Employee with an indexed id.
fn hr_store() -> PagedStore {
    let emp_schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("name", DataType::Str),
    ]);
    let mut s = PagedStore::new("hr", CostProfile::object_store());
    s.add_collection(
        "Employee",
        CollectionBuilder::new(emp_schema)
            .rows((0..100i64).map(|i| vec![Value::Long(i), Value::Str(format!("emp{i:03}"))]))
            .object_size(48)
            .index("id"),
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
        (0..40i64).map(|i| vec![Value::Long(i % 10), Value::Str(format!("a{}", i % 4))]),
    )
}

/// Mediator over a ChannelTransport: `hr` healthy, `files` down.
fn broken_federation() -> Mediator {
    let mut t = ChannelTransport::new();
    t.add_wrapper(Box::new(SourceWrapper::new("hr", hr_store())));
    t.add_wrapper_with(
        Box::new(
            SourceWrapper::new("files", audit_file()).with_capabilities(Capabilities::scan_only()),
        ),
        NetProfile::lan(),
        FaultPlan::always(FaultKind::Unavailable),
    );
    // `Unavailable` answers at once; the deadline only has to be long
    // enough that the healthy `hr` endpoint never misses it under load.
    let client = TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
        max_attempts: 2,
        deadline_ms: 2_000,
        backoff_base_ms: 1,
        backoff_factor: 2.0,
    });
    let mut m = Mediator::new();
    m.connect(client).unwrap();
    m
}

#[test]
fn downed_wrapper_reports_missing_collections_and_counts_unavailability() {
    let mut m = broken_federation();
    let unavailable = disco_obs::counter(
        disco_obs::names::WRAPPER_UNAVAILABLE,
        &[("wrapper", "files")],
    );
    let before = unavailable.get();

    // The Audit file appears twice in the plan (self-join) so the raw
    // missing list would repeat it; the trace must sort and deduplicate.
    let report = m
        .explain_analyze(
            "SELECT e.name FROM Employee e, Audit a, Audit b \
             WHERE e.id = a.emp_id AND a.emp_id = b.emp_id AND e.id < 5",
        )
        .unwrap();

    // Missing collections: in the trace, sorted and deduplicated…
    assert_eq!(
        report.result.trace.missing,
        vec![QualifiedName::new("files", "Audit")]
    );
    assert!(report.result.is_partial());

    // …and surfaced by the rendered EXPLAIN ANALYZE output.
    let text = report.render();
    assert!(
        text.contains("missing (wrapper unavailable): files.Audit"),
        "{text}"
    );
    assert!(text.contains("[no answer]"), "{text}");

    // The failed submits are flagged in the tree, with zero rows.
    let failed: Vec<_> = report
        .root
        .nodes()
        .into_iter()
        .filter(|nd| nd.measured.is_some_and(|m| m.failed))
        .collect();
    assert!(!failed.is_empty());
    for nd in &failed {
        assert!(
            nd.operator.starts_with("submit -> files"),
            "{}",
            nd.operator
        );
        assert_eq!(nd.measured.unwrap().rows, 0);
    }
    // Every node still reports a scope on the fault path.
    for nd in report.root.nodes() {
        assert!(nd.scope().is_some(), "node `{}`", nd.operator);
    }

    // The unavailability counter moved (two failed submit sites, each
    // exhausting its retry budget at least once).
    assert!(
        unavailable.get() >= before + 2,
        "counter before={before} after={}",
        unavailable.get()
    );
}

/// Disk-backed wrapper: two 7 000-object collections (70 objects per
/// 4 KB page → 100 pages each), one random placement, one clustered on
/// `id`. Returns the mediator plus a handle onto the shared buffer pool
/// for cold-cache resets.
fn disk_federation() -> (Mediator, StoreSource) {
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ]);
    let rows = || (0..7_000i64).map(|i| vec![Value::Long(i), Value::Long(i % 97)]);
    let store = DiskStoreBuilder::new("disk")
        .collection(
            "RParts",
            DiskCollectionBuilder::new(schema.clone())
                .rows(rows())
                .object_size(56)
                .index("id"),
        )
        .collection(
            "CParts",
            DiskCollectionBuilder::new(schema)
                .rows(rows())
                .object_size(56)
                .cluster_on("id")
                .index("id"),
        )
        .build()
        .unwrap();
    let source = StoreSource::new(store, CostProfile::object_store());
    let handle = source.clone();
    let mut m = Mediator::new();
    m.register(Box::new(SourceWrapper::new("disk", source)))
        .unwrap();
    (m, handle)
}

/// The executed submit node of a report (exactly one expected).
fn the_submit(report: &AnalyzeReport) -> disco_core::AnalyzeNode {
    let submits: Vec<_> = report
        .root
        .nodes()
        .into_iter()
        .filter(|nd| nd.operator.starts_with("submit ") && nd.measured.is_some())
        .cloned()
        .collect();
    assert_eq!(submits.len(), 1, "{}", report.render());
    submits.into_iter().next().unwrap()
}

#[test]
fn explain_analyze_reports_time_to_first_per_submit() {
    // Either chunking surfaces predicted vs measured time-to-first-row
    // on executed submit nodes; the chunked run measures the first
    // frame, the whole-answer run the whole reply.
    for chunk_rows in [None, Some(8)] {
        let mut m = Mediator::new();
        m.register(Box::new(SourceWrapper::new("hr", hr_store())))
            .unwrap();
        let mut m = m.with_options(MediatorOptions {
            chunk_rows,
            ..Default::default()
        });
        let report = m
            .explain_analyze("SELECT name FROM Employee WHERE id < 5")
            .unwrap();
        let submit = the_submit(&report);
        let measured = submit.measured.unwrap();
        let first = measured
            .first_row_ms
            .unwrap_or_else(|| panic!("chunk_rows={chunk_rows:?}: no first-row measurement"));
        assert!(
            first > 0.0 && first <= measured.elapsed_ms + 1e-9,
            "chunk_rows={chunk_rows:?}: first {first} vs elapsed {}",
            measured.elapsed_ms
        );
        assert!(submit.predicted.time_first > 0.0);
        assert!(
            submit.first_row_error().is_some(),
            "chunk_rows={chunk_rows:?}: relative error should be computable"
        );
        let text = report.render();
        assert!(
            text.contains("time to first: predicted="),
            "chunk_rows={chunk_rows:?}:\n{text}"
        );
        // Combine-phase operators carry no first-row measurement of
        // their own... except the root, which tracks when the first
        // answer rows surfaced.
        for nd in report.root.nodes() {
            if !nd.operator.starts_with("submit ") && nd.operator != report.root.operator {
                assert_eq!(nd.measured.and_then(|mm| mm.first_row_ms), None);
            }
        }
    }
}

#[test]
fn page_io_random_placement_matches_yao_and_clustered_beats_it() {
    let (mut m, pool) = disk_federation();
    let sql = |t: &str| format!("SELECT id FROM {t} WHERE id < 100");

    // Random placement, cold pool: ~100 qualifying objects spread over
    // 100 pages — Yao predicts ≈63.4 page faults, and the measured
    // faults of the real index retrieval must land within 15 %.
    pool.clear_cache().unwrap();
    let random = m.explain_analyze(&sql("RParts")).unwrap();
    let node = the_submit(&random);
    let predicted = node.predicted_pages.expect("Yao prediction filled");
    let measured = node.measured.unwrap().pages.expect("submit reports pages");
    assert!(
        (55.0..=72.0).contains(&predicted),
        "Yao(7000,100,~100) ≈ 63.4, got {predicted}"
    );
    let err = node.pages_error().expect("both sides present");
    assert!(
        err.abs() < 0.15,
        "random placement: predicted {predicted:.1} vs measured {measured} ({:+.1}%)",
        err * 100.0
    );
    // The rendering shows the page-I/O comparison.
    assert!(random.render().contains("page io:"), "{}", random.render());

    // Clustered placement, same query: the 100 qualifying objects sit on
    // ~2 consecutive pages. The wrapper doesn't export clustering (§5),
    // so the mediator still predicts with Yao — EXPLAIN ANALYZE is where
    // the §7 divergence becomes visible.
    pool.clear_cache().unwrap();
    let clustered = m.explain_analyze(&sql("CParts")).unwrap();
    let node = the_submit(&clustered);
    let predicted = node.predicted_pages.expect("Yao prediction filled");
    let measured = node.measured.unwrap().pages.expect("submit reports pages");
    assert!(
        (measured as f64) < predicted / 3.0,
        "clustered measured {measured} should fall far below Yao {predicted:.1}"
    );
    assert!(measured <= 4, "~100 clustered objects span ~2 pages");

    // Non-submit nodes carry no page measurement.
    for nd in random.root.nodes() {
        if !nd.operator.starts_with("submit ") {
            assert_eq!(nd.measured.and_then(|mm| mm.pages), None, "{}", nd.operator);
        }
    }
}

#[test]
fn warm_cache_regime_scales_the_page_prediction() {
    let (mut m, pool) = disk_federation();
    let sql = "SELECT id FROM RParts WHERE id < 100";

    pool.clear_cache().unwrap();
    let cold = the_submit(&m.explain_analyze(sql).unwrap());
    let cold_pages = cold.predicted_pages.unwrap();

    // Declare the wrapper's pool warm at 80 % hits: the prediction drops
    // to the miss fraction. The pool really is warm now (same pages just
    // faulted), so the measurement agrees with the scaled prediction
    // direction: far fewer faults than the cold run.
    m.set_cache_regime("disk", CacheRegime::Warm { hit_rate: 0.8 })
        .unwrap();
    let warm = the_submit(&m.explain_analyze(sql).unwrap());
    let warm_pages = warm.predicted_pages.unwrap();
    assert!(
        (warm_pages - 0.2 * cold_pages).abs() < 1e-9,
        "cold {cold_pages} warm {warm_pages}"
    );
    let warm_measured = warm.measured.unwrap().pages.unwrap();
    let cold_measured = cold.measured.unwrap().pages.unwrap();
    assert!(
        warm_measured < cold_measured / 2,
        "re-running warm must fault less: cold {cold_measured}, warm {warm_measured}"
    );
}

/// EXPLAIN ANALYZE reports on the plan, not on how it was arrived at: a
/// plan-cache hit bound from a priced template and a cold miss of the
/// same statement, each run on its own fresh federation, render the same
/// report.
#[test]
fn a_template_hit_and_a_cold_miss_explain_alike() {
    let federation = || {
        let mut t = ChannelTransport::new();
        t.add_wrapper(Box::new(SourceWrapper::new("hr", hr_store())));
        let mut m = Mediator::new();
        m.connect(TransportClient::new(Box::new(t))).unwrap();
        m
    };
    for c in [3, 41, 77] {
        let sql = format!("SELECT name FROM Employee WHERE id < {c}");
        let cold = federation().explain_analyze(&sql).unwrap();

        let shared = disco_mediator::SharedMediator::new(federation());
        // The miss caches decisions, the first hit prices the template.
        for _ in 0..2 {
            shared.plan(&sql).unwrap();
        }
        let bound = shared.cache_stats().bound;
        let (plan, source) = shared.plan(&sql).unwrap();
        assert_eq!(source, disco_mediator::PlanSource::CacheHit);
        assert_eq!(shared.cache_stats().bound, bound + 1, "a template hit");
        let hit = shared
            .with_mediator_mut(|m| m.explain_analyze_plan(plan))
            .unwrap();
        assert_eq!(hit.render(), cold.render(), "{sql}");
    }
}
