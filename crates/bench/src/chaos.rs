//! Deterministic chaos-soak harness for the resilience layer.
//!
//! A seeded driver runs a stream of federated queries against a
//! five-wrapper federation (replicated `R` and `U`, single-homed `S`)
//! while each endpoint misbehaves according to a fault schedule derived
//! from the seed. Each endpoint also declares a seed-derived capability
//! profile (see [`capability_profile`]), so the optimizer's pushdown
//! split — and hence which operators run in the mediator's combine
//! plan — varies per seed; the oracle federations declare the same
//! profiles, so a profile-induced answer change would fail the digest
//! check just like a fault-induced one. Every answer is checked against an *oracle*: the same
//! query on a fault-free federation whose collections reported in
//! `trace.missing` are emptied. A run is correct when every answer
//! equals its oracle answer — degraded answers are allowed, silently
//! wrong ones are not.
//!
//! Everything is deterministic by construction:
//!
//! * endpoints run at `sleep_scale = 0` (no real sleeps) and submits
//!   are sequential, so no wall-clock race decides an outcome;
//! * delay faults are caught by *simulated* deadlines
//!   (`ResiliencePolicy::sim_deadlines`), not elapsed time;
//! * straggler hedges are refereed on simulated first-frame times: a
//!   delayed primary is hedged to its replica, and the earlier first
//!   frame wins, the same way on every run;
//! * fault schedules key off per-endpoint submit sequence numbers and
//!   are generated from `seeded(seed, "chaos:<endpoint>")`, and the
//!   query stream is drawn from `seeded(seed, "chaos:queries")`.
//!
//! Running the same seed twice must therefore produce byte-identical
//! transcripts; [`SeedReport::digest`] makes that checkable. A failing
//! seed is replayed with
//! `cargo run --release -p disco-bench --bin chaos_soak -- <seed>`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use disco_catalog::CapabilityProfile;
use disco_common::rng::seeded;
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{
    AdaptivePolicy, Mediator, MediatorOptions, QueryResult, ResiliencePolicy, SharedMediator,
    SubmitTrace,
};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{
    ChannelTransport, FaultKind, FaultPlan, NetProfile, RetryPolicy, TransportClient,
};
use disco_wrapper::SourceWrapper;

/// Every endpoint and the collection it serves. `R` and `U` are
/// replicated pairs; `S` has a single home (its failures degrade).
const ENDPOINTS: &[(&str, &str)] = &[
    ("ra", "R"),
    ("rb", "R"),
    ("sa", "S"),
    ("ua", "U"),
    ("ub", "U"),
];

/// The query mix the soak draws from: scans, selections, two-way joins
/// across wrappers, and unions.
pub const QUERIES: &[&str] = &[
    "SELECT v FROM R",
    "SELECT id, v FROM R WHERE id < 20",
    "SELECT w FROM S",
    "SELECT sid FROM S WHERE w = 3",
    "SELECT uid, t FROM U",
    "SELECT t FROM U WHERE uid < 10",
    "SELECT r.v, s.w FROM R r, S s WHERE r.id = s.sid",
    "SELECT r.id FROM R r, S s WHERE r.id = s.sid AND s.w < 3",
    "SELECT r.v, u.t FROM R r, U u WHERE r.id = u.uid",
    "SELECT v FROM R UNION ALL SELECT w FROM S",
    "SELECT id FROM R WHERE v = 2 UNION ALL SELECT uid FROM U",
    "SELECT s.w, u.t FROM S s, U u WHERE s.sid = u.uid",
];

/// Seeded capability profile for one endpoint. Keyed on the *collection*
/// the endpoint serves, not the endpoint name, so replicas of the same
/// collection always declare the same profile: failover resubmits the
/// already-planned subquery, and a replica with a narrower profile would
/// reject operators its twin accepted — a different failure mode than
/// the faults this soak injects.
pub fn capability_profile(seed: u64, endpoint: &str) -> CapabilityProfile {
    let collection = ENDPOINTS
        .iter()
        .find(|(e, _)| *e == endpoint)
        .map(|(_, c)| *c)
        .unwrap_or(endpoint);
    let mut rng = seeded(seed, &format!("chaos-caps:{collection}"));
    CapabilityProfile::ALL[rng.gen_range(0usize..CapabilityProfile::ALL.len())]
}

/// The seed's profile assignment, one `(collection, profile)` pair per
/// distinct collection — for reports and replay messages.
pub fn profile_assignment(seed: u64) -> Vec<(String, String)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (endpoint, collection) in ENDPOINTS {
        if seen.insert(*collection) {
            out.push((
                (*collection).to_string(),
                capability_profile(seed, endpoint).name().to_string(),
            ));
        }
    }
    out
}

fn schema_for(collection: &str) -> Schema {
    let (key, val) = match collection {
        "R" => ("id", "v"),
        "S" => ("sid", "w"),
        _ => ("uid", "t"),
    };
    Schema::new(vec![
        AttributeDef::new(key, DataType::Long),
        AttributeDef::new(val, DataType::Long),
    ])
}

/// Fixed, formula-generated rows — identical on every replica. `S.w` is
/// deliberately skewed (value 1 covers 75% of the rows while the full
/// 0..7 range keeps `count_distinct` at 7): the uniformity assumption
/// misestimates `w`-filtered queries ~2.5–3×, which is what lets the
/// adaptive soak's aggressive trigger actually fire mid-query.
fn rows_for(collection: &str) -> Vec<Vec<Value>> {
    let (count, modulus) = match collection {
        "R" => (50, 5),
        "S" => (40, 7),
        _ => (30, 3),
    };
    (0..count)
        .map(|i| {
            let v = if collection == "S" && i < 30 {
                1
            } else {
                i % modulus
            };
            vec![Value::Long(i), Value::Long(v)]
        })
        .collect()
}

/// The resilience posture under chaos: predicted deadlines enforced in
/// simulated time (delay faults become deterministic timeouts, or
/// straggler hedges when the hedge threshold comes first), and a tight
/// wall-clock ceiling so drop faults stay cheap.
fn chaos_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        predicted_deadlines: true,
        sim_deadlines: true,
        time_scale: 0.02,
        max_deadline_ms: 50.0,
        ..ResiliencePolicy::default()
    }
}

/// Build the five-wrapper federation; `faults` supplies each endpoint's
/// schedule, `caps` each endpoint's declared capability profile (the
/// oracle must be built with the *same* profiles as the run it checks),
/// `empty` names collections registered with zero rows (used by the
/// oracle to mirror a degraded answer). Whole answers, static plans —
/// what every oracle runs.
fn federation<F: Fn(&str) -> FaultPlan, C: Fn(&str) -> CapabilityProfile>(
    faults: F,
    caps: C,
    empty: &BTreeSet<String>,
) -> Mediator {
    federation_with(faults, caps, empty, None, AdaptivePolicy::default())
}

/// [`federation`] at a given executor chunk size and adaptive policy.
fn federation_with<F: Fn(&str) -> FaultPlan, C: Fn(&str) -> CapabilityProfile>(
    faults: F,
    caps: C,
    empty: &BTreeSet<String>,
    chunk_rows: Option<u32>,
    adaptive: AdaptivePolicy,
) -> Mediator {
    let mut t = ChannelTransport::new();
    for (endpoint, collection) in ENDPOINTS {
        let mut s = PagedStore::new(*endpoint, CostProfile::relational());
        let rows = if empty.contains(*collection) {
            Vec::new()
        } else {
            rows_for(collection)
        };
        s.add_collection(
            *collection,
            CollectionBuilder::new(schema_for(collection)).rows(rows),
        )
        .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(*endpoint, s).with_profile(caps(endpoint))),
            NetProfile::lan(),
            faults(endpoint),
        );
    }
    let client = TransportClient::new(Box::new(t)).with_retry(RetryPolicy {
        max_attempts: 2,
        deadline_ms: 200,
        backoff_base_ms: 1,
        backoff_factor: 2.0,
    });
    let mut m = Mediator::new().with_options(MediatorOptions {
        partial_answers: true,
        resilience: chaos_policy(),
        chunk_rows,
        adaptive,
        ..MediatorOptions::default()
    });
    m.connect(client).expect("all wrappers register");
    m.declare_replicas("R", &["ra", "rb"]).expect("R replicas");
    m.declare_replicas("U", &["ua", "ub"]).expect("U replicas");
    m
}

/// Seeded fault schedule for one endpoint: up to two windows over the
/// first ~40 submits, each a run of unavailability, huge delays (caught
/// by the simulated deadline) or dropped messages.
fn fault_schedule(seed: u64, endpoint: &str) -> FaultPlan {
    let mut rng = seeded(seed, &format!("chaos:{endpoint}"));
    let mut plan = FaultPlan::none();
    for _ in 0..rng.gen_range(0usize..=2) {
        let from = rng.gen_range(0usize..40) as u64;
        let len = rng.gen_range(1usize..=5) as u64;
        let kind = match rng.gen_range(0usize..10) {
            0..=3 => FaultKind::Unavailable,
            4..=7 => FaultKind::Delay(1e6 * (1.0 + rng.gen_f64())),
            _ => FaultKind::Drop,
        };
        plan = plan.window(from, from.saturating_add(len), kind);
    }
    plan
}

/// The submit was answered by a replica other than its planned wrapper.
fn served_by_replica(s: &SubmitTrace) -> bool {
    !s.failed && !s.served_by.is_empty() && s.served_by != s.wrapper
}

/// Order-insensitive digest of an answer's tuples.
fn answer_key(r: &QueryResult) -> String {
    let mut rows: Vec<String> = r.tuples.iter().map(|t| format!("{t:?}")).collect();
    rows.sort();
    rows.join("\n")
}

/// FNV-1a, for compact transcript digests.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Outcome of soaking one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedReport {
    pub seed: u64,
    /// Queries executed.
    pub queries: usize,
    /// Queries answered completely.
    pub complete: usize,
    /// Queries degraded to (oracle-correct) partial answers.
    pub partial: usize,
    /// Submits served by a replica other than the planned wrapper after
    /// a failure, with no straggler hedge.
    pub failovers: u64,
    /// Straggler hedges spent.
    pub hedges: u64,
    /// Submits served by a replica after a straggler hedge.
    pub hedge_wins: u64,
    /// Mid-query re-plans considered (only the adaptive soak produces
    /// them; answers must stay oracle-identical regardless).
    pub replans: u64,
    /// Answers that differed from their oracle, with descriptions.
    pub mismatches: Vec<String>,
    /// FNV digest of the full run transcript — equal digests mean
    /// byte-identical runs, which is how determinism is asserted.
    pub digest: String,
}

impl SeedReport {
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The chunked side of the soak: small chunks, so the 30–100-row
/// collections exercise the frame loop.
pub const CHUNKED: Option<u32> = Some(16);

/// Soak one seed: run `queries` federated queries under the seed's
/// fault schedules, checking every answer against its oracle.
pub fn run_seed(seed: u64, queries: usize) -> SeedReport {
    run_seed_chunked(seed, queries, None)
}

/// [`run_seed`] at a given chunk size (the oracle stays whole-answer
/// and fault-free): under faults, answers must degrade the same way
/// whatever the chunking.
pub fn run_seed_chunked(seed: u64, queries: usize, chunk_rows: Option<u32>) -> SeedReport {
    run_seed_with(seed, queries, chunk_rows, AdaptivePolicy::default())
}

/// [`run_seed`] with mid-query adaptive re-optimization armed on
/// chunked execution, under an aggressive trigger (low threshold, no dead
/// zone) so the query mix's natural estimate errors — and fault-emptied
/// subanswers — exercise the abandon/re-drive path while every answer is
/// still checked against the static fault-free oracle.
pub fn run_seed_adaptive(seed: u64, queries: usize) -> SeedReport {
    run_seed_with(
        seed,
        queries,
        CHUNKED,
        AdaptivePolicy {
            enabled: true,
            error_threshold: 1.5,
            min_rows: 1.0,
            switch_margin: 0.05,
            max_replans: 1,
        },
    )
}

fn run_seed_with(
    seed: u64,
    queries: usize,
    chunk_rows: Option<u32>,
    adaptive: AdaptivePolicy,
) -> SeedReport {
    let mut m = federation_with(
        |e| fault_schedule(seed, e),
        |e| capability_profile(seed, e),
        &BTreeSet::new(),
        chunk_rows,
        adaptive,
    );
    let mut oracles: BTreeMap<(usize, BTreeSet<String>), String> = BTreeMap::new();
    let mut report = SeedReport {
        seed,
        queries,
        complete: 0,
        partial: 0,
        failovers: 0,
        hedges: 0,
        hedge_wins: 0,
        replans: 0,
        mismatches: Vec::new(),
        digest: String::new(),
    };
    let mut transcript = String::new();
    let mut picks = seeded(seed, "chaos:queries");

    for q in 0..queries {
        let idx = picks.gen_range(0..QUERIES.len());
        let sql = QUERIES[idx];
        let r = match m.query(sql) {
            Ok(r) => r,
            Err(e) => {
                report.mismatches.push(format!(
                    "query {q} (`{sql}`) errored instead of degrading: {e}"
                ));
                transcript.push_str(&format!("{q}:error\n"));
                continue;
            }
        };
        // A partial answer must equal the fault-free answer with the
        // reported collections emptied — nothing more may be missing.
        let missing: BTreeSet<String> = r
            .trace
            .missing
            .iter()
            .map(|qn| qn.collection.clone())
            .collect();
        let got = answer_key(&r);
        let want = oracles.entry((idx, missing.clone())).or_insert_with(|| {
            let mut oracle = federation(
                |_| FaultPlan::none(),
                |e| capability_profile(seed, e),
                &missing,
            );
            let o = oracle.query(sql).expect("oracle query succeeds");
            assert!(!o.is_partial(), "oracle must never degrade");
            answer_key(&o)
        });
        if got != *want {
            report.mismatches.push(format!(
                "query {q} (`{sql}`): answer diverges from the fault-free \
                 oracle (missing: [{}]); got {} tuples",
                missing.iter().cloned().collect::<Vec<_>>().join(", "),
                r.tuples.len(),
            ));
        }
        if r.is_partial() {
            report.partial += 1;
        } else {
            report.complete += 1;
        }
        for s in r.trace.submits.iter().filter(|s| served_by_replica(s)) {
            if s.hedges > 0 {
                report.hedge_wins += 1;
            } else {
                report.failovers += 1;
            }
        }
        report.hedges += u64::from(r.trace.hedges);
        report.replans += r.trace.replans.len() as u64;
        transcript.push_str(&format!(
            "{q}:{:016x}:[{}]\n",
            fnv64(&got),
            missing.iter().cloned().collect::<Vec<_>>().join(",")
        ));
    }
    report.digest = format!("{:016x}", fnv64(&transcript));
    report
}

/// Outcome of soaking one seed through the shared concurrent mediator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentReport {
    pub seed: u64,
    /// Concurrent sessions driven through one [`SharedMediator`].
    pub sessions: usize,
    /// Total queries across all sessions.
    pub queries: usize,
    pub complete: usize,
    pub partial: usize,
    pub failovers: u64,
    /// Answers whose digest differed from the single-session oracle.
    pub mismatches: Vec<String>,
}

impl ConcurrentReport {
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Single-session fault-free oracle digest for `(query, missing)`,
/// memoized across sessions. Duplicate computation under contention is
/// harmless — both racers derive the same deterministic answer.
fn oracle_digest(
    oracles: &Mutex<BTreeMap<(usize, BTreeSet<String>), String>>,
    seed: u64,
    idx: usize,
    missing: &BTreeSet<String>,
) -> String {
    let key = (idx, missing.clone());
    if let Some(want) = oracles.lock().expect("oracle memo lock").get(&key) {
        return want.clone();
    }
    let mut oracle = federation(
        |_| FaultPlan::none(),
        |e| capability_profile(seed, e),
        missing,
    );
    let o = oracle.query(QUERIES[idx]).expect("oracle query succeeds");
    assert!(!o.is_partial(), "oracle must never degrade");
    let want = answer_key(&o);
    oracles
        .lock()
        .expect("oracle memo lock")
        .entry(key)
        .or_insert(want)
        .clone()
}

/// Soak one seed with `sessions` concurrent client threads sharing a
/// single [`SharedMediator`] over the chaos federation.
///
/// Interleaving shifts which submit lands in which fault window, so the
/// *transcript* is not expected to match the sequential run — but every
/// individual answer must still digest-equal the single-session
/// fault-free oracle for whatever degradation it reported. Each session
/// starts the query mix at a different offset so the streams overlap on
/// distinct shapes.
pub fn run_seed_concurrent(
    seed: u64,
    queries_per_session: usize,
    sessions: usize,
) -> ConcurrentReport {
    let shared = SharedMediator::new(federation(
        |e| fault_schedule(seed, e),
        |e| capability_profile(seed, e),
        &BTreeSet::new(),
    ));
    let oracles: Mutex<BTreeMap<(usize, BTreeSet<String>), String>> = Mutex::new(BTreeMap::new());
    let mut report = ConcurrentReport {
        seed,
        sessions,
        queries: queries_per_session * sessions,
        complete: 0,
        partial: 0,
        failovers: 0,
        mismatches: Vec::new(),
    };

    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let shared = &shared;
                let oracles = &oracles;
                scope.spawn(move || {
                    let mut complete = 0usize;
                    let mut partial = 0usize;
                    let mut failovers = 0u64;
                    let mut mismatches = Vec::new();
                    for q in 0..queries_per_session {
                        let idx = (q + s * 3) % QUERIES.len();
                        let sql = QUERIES[idx];
                        let r = match shared.query(sql) {
                            Ok(served) => served.result,
                            Err(e) => {
                                mismatches.push(format!(
                                    "session {s} query {q} (`{sql}`) errored \
                                     instead of degrading: {e}"
                                ));
                                continue;
                            }
                        };
                        let missing: BTreeSet<String> = r
                            .trace
                            .missing
                            .iter()
                            .map(|qn| qn.collection.clone())
                            .collect();
                        let got = answer_key(&r);
                        let want = oracle_digest(oracles, seed, idx, &missing);
                        if got != want {
                            mismatches.push(format!(
                                "session {s} query {q} (`{sql}`): answer diverges \
                                 from the fault-free oracle (missing: [{}]); got {} tuples",
                                missing.iter().cloned().collect::<Vec<_>>().join(", "),
                                r.tuples.len(),
                            ));
                        }
                        if r.is_partial() {
                            partial += 1;
                        } else {
                            complete += 1;
                        }
                        failovers += r
                            .trace
                            .submits
                            .iter()
                            .filter(|sub| served_by_replica(sub) && sub.hedges == 0)
                            .count() as u64;
                    }
                    (complete, partial, failovers, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak session joins"))
            .collect::<Vec<_>>()
    });
    for (complete, partial, failovers, mismatches) in outcomes {
        report.complete += complete;
        report.partial += partial;
        report.failovers += failovers;
        report.mismatches.extend(mismatches);
    }
    report
}
