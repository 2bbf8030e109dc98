//! Capability-equivalence differential suite.
//!
//! The same seeded federation — a relational collection `R`, a second
//! relational collection `S` on another endpoint, and a semi-structured
//! document collection `Orders` — is served under *every* declared
//! capability profile, and every query must return byte-identical
//! answers regardless of which profile (and hence which pushdown split
//! between wrapper and mediator) produced them. Profiles change where
//! operators run; they must never change what a query means.
//!
//! Covered here, per the issue's acceptance criteria:
//!
//! * ≥ 15 seeds, all profiles, whole-answer *and* chunked execution;
//! * a mixed-profile join (scan-only endpoint joined with a fully
//!   relational one, in both orientations, plus a doc-relational join);
//! * a downed-wrapper partial answer that is identical across profiles
//!   and equal to the fault-free oracle with the dead collection
//!   emptied;
//! * EXPLAIN output for a scan-only wrapper showing the lifted
//!   select/join costed in the mediator's combine plan.

use std::collections::{BTreeMap, BTreeSet};

use disco_algebra::PhysicalPlan;
use disco_catalog::CapabilityProfile;
use disco_common::rng::seeded;
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_mediator::{Mediator, MediatorOptions, QueryResult};
use disco_sources::{CollectionBuilder, CostProfile, DocField, DocSource, DocValue, PagedStore};
use disco_transport::{
    ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy, TransportClient,
};
use disco_wrapper::SourceWrapper;

const SEEDS: u64 = 16;

/// The differential query mix: selections, projections, sorts, joins
/// (relational-relational and doc-relational), grouped aggregates and
/// unions, over all three wrappers.
const QUERIES: &[&str] = &[
    "SELECT v FROM R WHERE id < 17",
    "SELECT id, v FROM R WHERE grp = 2 ORDER BY id",
    "SELECT sid, w FROM S WHERE w < 4",
    "SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid",
    "SELECT r.id FROM R r, S s WHERE r.id = s.sid AND s.w < 3",
    "SELECT grp, COUNT(*) AS n FROM R GROUP BY grp ORDER BY grp",
    "SELECT v FROM R UNION ALL SELECT w FROM S",
    "SELECT id, zip FROM Orders WHERE zip = 10001",
    "SELECT zip, COUNT(*) AS n FROM Orders GROUP BY zip ORDER BY zip",
    "SELECT o.zip, r.v FROM Orders o, R r WHERE o.id = r.id",
];

fn r_store(seed: u64) -> PagedStore {
    let mut rng = seeded(seed, "capeq:R");
    let n = 40 + (seed % 20) as i64;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Long(i),
                Value::Long(rng.gen_range(0i64..7)),
                Value::Long(rng.gen_range(0i64..5)),
            ]
        })
        .collect();
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
        AttributeDef::new("grp", DataType::Long),
    ]);
    let mut s = PagedStore::new("alpha", CostProfile::relational());
    s.add_collection("R", CollectionBuilder::new(schema).rows(rows).index("id"))
        .unwrap();
    s
}

fn s_store(seed: u64) -> PagedStore {
    let mut rng = seeded(seed, "capeq:S");
    let rows: Vec<Vec<Value>> = (0..30i64)
        .map(|i| vec![Value::Long(i), Value::Long(rng.gen_range(0i64..7))])
        .collect();
    let schema = Schema::new(vec![
        AttributeDef::new("sid", DataType::Long),
        AttributeDef::new("w", DataType::Long),
    ]);
    let mut s = PagedStore::new("beta", CostProfile::relational());
    s.add_collection("S", CollectionBuilder::new(schema).rows(rows))
        .unwrap();
    s
}

/// Semi-structured orders: nested `customer.address.zip`, a nullable
/// `discount`, flattened through path expressions at the scan boundary.
fn doc_source(seed: u64, empty: bool) -> DocSource {
    let mut rng = seeded(seed, "capeq:Orders");
    let n = if empty { 0 } else { 15 + (seed % 10) as i64 };
    let docs: Vec<DocValue> = (0..n)
        .map(|i| {
            let zip = 10_000 + rng.gen_range(0i64..3);
            DocValue::obj([
                ("id", DocValue::Long(i)),
                (
                    "customer",
                    DocValue::obj([("address", DocValue::obj([("zip", DocValue::Long(zip))]))]),
                ),
                (
                    "discount",
                    if rng.gen_range(0i64..2) == 0 {
                        DocValue::Double(0.1)
                    } else {
                        DocValue::Null
                    },
                ),
            ])
        })
        .collect();
    let mut s = DocSource::new("docs");
    s.add_collection(
        "Orders",
        vec![
            DocField::scalar("id", "id", DataType::Long),
            DocField::scalar("zip", "customer.address.zip", DataType::Long),
            DocField::exists("has_discount", "discount"),
        ],
        docs,
    )
    .unwrap();
    s
}

/// The only fault injected here (`Unavailable`) answers at once, so the
/// wall deadline is never what a test waits for; it is generous so that
/// a healthy federation on a loaded machine cannot overrun it.
fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        deadline_ms: 2_000,
        backoff_base_ms: 1,
        backoff_factor: 2.0,
    }
}

/// Build the three-wrapper federation over a channel transport, with
/// one capability profile per endpoint, an optional fault plan on
/// `beta` (the `S` endpoint), and optionally `S` registered empty (the
/// oracle's mirror of a degraded answer).
fn federation(
    seed: u64,
    profiles: [CapabilityProfile; 3],
    chunk_rows: Option<u32>,
    beta_faults: FaultPlan,
    s_empty: bool,
) -> Mediator {
    let [pa, pb, pd] = profiles;
    let mut t = ChannelTransport::new();
    t.add_wrapper(Box::new(
        SourceWrapper::new("alpha", r_store(seed)).with_profile(pa),
    ));
    let mut beta = s_store(seed);
    if s_empty {
        beta = PagedStore::new("beta", CostProfile::relational());
        let schema = Schema::new(vec![
            AttributeDef::new("sid", DataType::Long),
            AttributeDef::new("w", DataType::Long),
        ]);
        beta.add_collection("S", CollectionBuilder::new(schema))
            .unwrap();
    }
    t.add_wrapper_with(
        Box::new(SourceWrapper::new("beta", beta).with_profile(pb)),
        NetProfile::lan(),
        beta_faults,
    );
    t.add_wrapper(Box::new(
        SourceWrapper::new("docs", doc_source(seed, false)).with_profile(pd),
    ));
    let client = TransportClient::new(Box::new(t)).with_retry(retry());
    let mut m = Mediator::new().with_options(MediatorOptions {
        partial_answers: true,
        chunk_rows,
        ..MediatorOptions::default()
    });
    m.connect(client).unwrap();
    m
}

/// Order-insensitive byte-exact digest of an answer: schema attribute
/// names plus every tuple's debug rendering, sorted.
fn answer_key(r: &QueryResult) -> String {
    let attrs: Vec<&str> = r
        .schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    let mut rows: Vec<String> = r.tuples.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    format!("[{}]\n{}", attrs.join(","), rows.join("\n"))
}

fn run_all(m: &mut Mediator) -> Vec<String> {
    QUERIES
        .iter()
        .map(|sql| {
            let r = m.query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
            assert!(!r.is_partial(), "`{sql}` degraded in a healthy federation");
            answer_key(&r)
        })
        .collect()
}

/// The headline differential: for ≥ 15 seeds, the whole query mix under
/// every capability profile (applied to all three endpoints at once),
/// at both chunk settings (whole answers, 8-row chunks), must match the
/// fully relational whole-answer baseline byte for byte.
#[test]
fn every_profile_and_chunking_answers_byte_identically() {
    for seed in 0..SEEDS {
        let baseline = run_all(&mut federation(
            seed,
            [CapabilityProfile::Relational; 3],
            None,
            FaultPlan::none(),
            false,
        ));
        for profile in CapabilityProfile::ALL {
            for chunk_rows in [None, Some(8)] {
                let got = run_all(&mut federation(
                    seed,
                    [profile; 3],
                    chunk_rows,
                    FaultPlan::none(),
                    false,
                ));
                for (i, (want, have)) in baseline.iter().zip(&got).enumerate() {
                    assert_eq!(
                        want,
                        have,
                        "seed {seed}, profile `{}`, chunk_rows {chunk_rows:?}: \
                         `{}` diverged from the relational baseline",
                        profile.name(),
                        QUERIES[i],
                    );
                }
            }
        }
    }
}

/// Mixed-profile joins: a scan-only endpoint joined with a fully
/// relational one (both orientations), and the document wrapper joined
/// with a relational endpoint — all equal to the uniform baseline.
#[test]
fn mixed_profile_joins_match_uniform_answers() {
    let join_queries = [
        "SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid",
        "SELECT r.id FROM R r, S s WHERE r.id = s.sid AND s.w < 3",
        "SELECT o.zip, r.v FROM Orders o, R r WHERE o.id = r.id",
    ];
    let mixes = [
        [
            CapabilityProfile::ScanOnly,
            CapabilityProfile::Relational,
            CapabilityProfile::Relational,
        ],
        [
            CapabilityProfile::Relational,
            CapabilityProfile::ScanOnly,
            CapabilityProfile::ScanOnly,
        ],
        [
            CapabilityProfile::NoJoin,
            CapabilityProfile::SelectPushdownOnly,
            CapabilityProfile::ScanOnly,
        ],
    ];
    for seed in 0..SEEDS {
        let mut base = federation(
            seed,
            [CapabilityProfile::Relational; 3],
            None,
            FaultPlan::none(),
            false,
        );
        for sql in join_queries {
            let want = answer_key(&base.query(sql).unwrap());
            for mix in mixes {
                let mut m = federation(seed, mix, None, FaultPlan::none(), false);
                let have = answer_key(&m.query(sql).unwrap());
                assert_eq!(
                    want,
                    have,
                    "seed {seed}, mix {:?}: `{sql}` diverged",
                    mix.map(|p| p.name()),
                );
            }
        }
    }
}

/// A downed endpoint must degrade the *same way* under every profile:
/// the partial answer equals the fault-free oracle with the dead
/// collection emptied, byte for byte, no matter which pushdown split
/// the profile induced.
#[test]
fn downed_wrapper_partial_answers_are_profile_independent() {
    let partial_queries = [
        "SELECT v FROM R UNION ALL SELECT w FROM S",
        "SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid",
    ];
    for seed in [0u64, 7, 13] {
        for sql in partial_queries {
            // Oracle: fault-free federation with `S` registered empty.
            let mut oracle = federation(
                seed,
                [CapabilityProfile::Relational; 3],
                None,
                FaultPlan::none(),
                true,
            );
            let want = answer_key(&oracle.query(sql).unwrap());
            let mut keys = BTreeSet::new();
            for profile in CapabilityProfile::ALL {
                let mut m = federation(
                    seed,
                    [profile; 3],
                    None,
                    FaultPlan::always(FaultKind::Unavailable),
                    false,
                );
                let r = m.query(sql).unwrap();
                assert!(
                    r.is_partial(),
                    "seed {seed}, profile `{}`: `{sql}` should degrade",
                    profile.name(),
                );
                assert_eq!(r.trace.missing, vec![QualifiedName::new("beta", "S")]);
                let have = answer_key(&r);
                assert_eq!(
                    want,
                    have,
                    "seed {seed}, profile `{}`: partial answer for `{sql}` \
                     diverged from the emptied-collection oracle",
                    profile.name(),
                );
                keys.insert(have);
            }
            assert_eq!(keys.len(), 1, "partial answers differed across profiles");
        }
    }
}

/// Walk an optimized plan and check every submitted subplan against
/// the profile its target wrapper declared: no forbidden operator may
/// ship. This is the static half of the pushdown-legality property;
/// the dynamic half is the wrapper boundary itself, which turns any
/// violation into a hard execution error.
fn assert_submits_legal(plan: &PhysicalPlan, profiles: &BTreeMap<&str, CapabilityProfile>) {
    let mut stack = vec![plan];
    while let Some(p) = stack.pop() {
        if let PhysicalPlan::SubmitRemote { wrapper, plan, .. } = p {
            let profile = profiles[wrapper.as_str()];
            let caps = profile.capabilities();
            let mut sub = vec![plan];
            while let Some(l) = sub.pop() {
                assert!(
                    caps.supports(l.kind()),
                    "a {} operator was planned into `{wrapper}` (profile `{}`)",
                    l.kind(),
                    profile.name(),
                );
                sub.extend(l.children());
            }
        }
        stack.extend(p.children());
    }
}

/// Deterministic pushdown-legality sweep: across seeds and profile
/// mixes, no planned submit ever carries an operator outside its
/// wrapper's declared profile, and executing the plan never trips the
/// wrapper-boundary check (no partials in a healthy federation).
#[test]
fn planned_submits_respect_declared_profiles() {
    let mixes = [
        [CapabilityProfile::Relational; 3],
        [CapabilityProfile::ScanOnly; 3],
        [
            CapabilityProfile::SelectPushdownOnly,
            CapabilityProfile::NoJoin,
            CapabilityProfile::AggregateCapable,
        ],
        [
            CapabilityProfile::NoJoin,
            CapabilityProfile::ScanOnly,
            CapabilityProfile::SelectPushdownOnly,
        ],
    ];
    for seed in 0..4 {
        for mix in mixes {
            let profiles: BTreeMap<&str, CapabilityProfile> =
                [("alpha", mix[0]), ("beta", mix[1]), ("docs", mix[2])]
                    .into_iter()
                    .collect();
            let mut m = federation(seed, mix, None, FaultPlan::none(), false);
            for sql in QUERIES {
                let plan = m.plan(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                assert_submits_legal(&plan.physical, &profiles);
                let r = m.query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                assert!(!r.is_partial(), "`{sql}` tripped the wrapper boundary");
            }
        }
    }
}

/// Generated federations (random seed, random profile per endpoint,
/// random query from the mix; 48 cases, deterministic per case) never
/// plan a forbidden operator into a submit, and never trip the wrapper's
/// capability boundary.
#[test]
fn pushdown_legality() {
    let profile = |rng: &mut disco_common::rng::StdRng| {
        CapabilityProfile::ALL[rng.gen_range(0..CapabilityProfile::ALL.len())]
    };
    for case in 0..48u64 {
        let mut rng = seeded(case, "capeq:pushdown-legality");
        let seed = rng.gen_range(0u64..10_000);
        let mix = [profile(&mut rng), profile(&mut rng), profile(&mut rng)];
        let sql = QUERIES[rng.gen_range(0..QUERIES.len())];
        let profiles: BTreeMap<&str, CapabilityProfile> =
            [("alpha", mix[0]), ("beta", mix[1]), ("docs", mix[2])]
                .into_iter()
                .collect();
        let mut m = federation(seed, mix, None, FaultPlan::none(), false);
        let plan = m
            .plan(sql)
            .unwrap_or_else(|e| panic!("case {case}: `{sql}`: {e}"));
        assert_submits_legal(&plan.physical, &profiles);
        let r = m
            .query(sql)
            .unwrap_or_else(|e| panic!("case {case}: `{sql}`: {e}"));
        assert!(
            !r.is_partial(),
            "case {case}, seed {seed}, mix {:?}: `{sql}` tripped the wrapper boundary",
            mix.map(|p| p.name()),
        );
    }
}

/// EXPLAIN for a scan-only wrapper: the select the profile refused is
/// lifted into the mediator's combine plan (a `filter` node *above* the
/// submit, not inside it) and the negotiation report says so; a
/// scan-only join likewise stays at the mediator.
#[test]
fn scan_only_explain_lifts_operators_into_the_combine_plan() {
    let m = federation(
        3,
        [CapabilityProfile::ScanOnly; 3],
        None,
        FaultPlan::none(),
        false,
    );

    let select = m.explain("SELECT v FROM R WHERE id < 17").unwrap();
    assert!(select.contains("negotiation:"), "{select}");
    assert!(select.contains("lifted"), "{select}");
    assert!(select.contains("scan-only"), "{select}");
    // The lifted filter sits in the mediator plan, above the submit.
    let filter_at = select.find("filter [").expect("combine-plan filter");
    let submit_at = select.find("submit -> alpha").expect("submit site");
    assert!(
        filter_at < submit_at,
        "filter must be in the combine plan, above the submit:\n{select}"
    );
    // The whole thing is costed: the estimate covers the lifted work.
    assert!(select.contains("estimated:"), "{select}");

    let join = m
        .explain("SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid")
        .unwrap();
    assert!(join.contains("-join ["), "{join}");
    assert!(join.contains("negotiation:"), "{join}");
    let join_at = join.find("-join [").unwrap();
    let first_submit = join.find("submit ->").unwrap();
    assert!(
        join_at < first_submit,
        "join must run at the mediator, above both submits:\n{join}"
    );
}
