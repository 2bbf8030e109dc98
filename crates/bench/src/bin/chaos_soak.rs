//! Chaos soak: seeded fault-schedule runs over a replicated federation
//! whose endpoints declare seed-derived capability profiles, every
//! answer checked against the fault-free oracle (see
//! `disco_bench::chaos`). Each seed is run twice and the transcript
//! digests compared, so nondeterminism fails the soak just like a wrong
//! answer does. Each seed is then soaked again with four concurrent
//! sessions through one `SharedMediator`; interleaving moves the fault
//! windows so transcripts differ, but every answer must still
//! digest-match the single-session fault-free oracle. Writes
//! `CHAOS_soak.json` (consumed by CI as an artifact) and exits nonzero
//! if any seed fails.
//!
//! ```text
//! cargo run --release -p disco-bench --bin chaos_soak            # full soak
//! cargo run --release -p disco-bench --bin chaos_soak -- <seed>  # replay one
//! ```

use std::fmt::Write as _;

use disco_bench::chaos;
use disco_bench::Table;

const QUERIES_PER_SEED: usize = 60;
/// Concurrent sessions sharing one mediator in the concurrent pass.
const SESSIONS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: Vec<u64> = if args.is_empty() {
        (1..=8).collect()
    } else {
        args.iter()
            .map(|a| a.parse().expect("seed must be a u64"))
            .collect()
    };

    let mut t = Table::new(&[
        "seed",
        "caps",
        "queries",
        "complete",
        "partial",
        "failovers",
        "hedges",
        "hedge wins",
        "mismatches",
        "deterministic",
        "digest",
        "conc mism",
        "chunk mism",
        "replans",
        "adapt mism",
    ]);
    let mut json_rows = String::new();
    let mut failed: Vec<u64> = Vec::new();

    for &seed in &seeds {
        let rep = chaos::run_seed(seed, QUERIES_PER_SEED);
        let replay = chaos::run_seed(seed, QUERIES_PER_SEED);
        let conc = chaos::run_seed_concurrent(seed, QUERIES_PER_SEED, SESSIONS);
        let chunked = chaos::run_seed_chunked(seed, QUERIES_PER_SEED, chaos::CHUNKED);
        let adaptive = chaos::run_seed_adaptive(seed, QUERIES_PER_SEED);
        let adaptive_replay = chaos::run_seed_adaptive(seed, QUERIES_PER_SEED);
        let deterministic = rep == replay && adaptive == adaptive_replay;
        let ok =
            rep.passed() && deterministic && conc.passed() && chunked.passed() && adaptive.passed();
        if !ok {
            failed.push(seed);
        }
        for m in rep.mismatches.iter().chain(&conc.mismatches) {
            eprintln!("seed {seed}: {m}");
        }
        for m in &chunked.mismatches {
            eprintln!("seed {seed} (chunked): {m}");
        }
        for m in &adaptive.mismatches {
            eprintln!("seed {seed} (adaptive): {m}");
        }
        if !deterministic {
            eprintln!(
                "seed {seed}: NONDETERMINISTIC — digests {} vs {}",
                rep.digest, replay.digest
            );
        }
        let profiles = chaos::profile_assignment(seed);
        let caps: String = profiles
            .iter()
            .map(|(c, p)| format!("{c}={p}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            seed.to_string(),
            caps,
            rep.queries.to_string(),
            rep.complete.to_string(),
            rep.partial.to_string(),
            rep.failovers.to_string(),
            rep.hedges.to_string(),
            rep.hedge_wins.to_string(),
            rep.mismatches.len().to_string(),
            deterministic.to_string(),
            rep.digest.clone(),
            conc.mismatches.len().to_string(),
            chunked.mismatches.len().to_string(),
            adaptive.replans.to_string(),
            adaptive.mismatches.len().to_string(),
        ]);
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        let profiles_json = profiles
            .iter()
            .map(|(c, p)| format!("\"{c}\": \"{p}\""))
            .collect::<Vec<_>>()
            .join(", ");
        write!(
            json_rows,
            "\n    {{\"seed\": {seed}, \"profiles\": {{{profiles_json}}}, \"queries\": {}, \"complete\": {}, \
             \"partial\": {}, \"failovers\": {}, \"hedges\": {}, \"hedge_wins\": {}, \
             \"mismatches\": {}, \"deterministic\": {deterministic}, \
             \"digest\": \"{}\", \"concurrent\": {{\"sessions\": {}, \
             \"queries\": {}, \"complete\": {}, \"partial\": {}, \
             \"failovers\": {}, \"mismatches\": {}}}, \
             \"chunked\": {{\"queries\": {}, \"complete\": {}, \
             \"partial\": {}, \"failovers\": {}, \"mismatches\": {}}}, \
             \"adaptive\": {{\"queries\": {}, \"complete\": {}, \
             \"partial\": {}, \"replans\": {}, \"mismatches\": {}}}}}",
            rep.queries,
            rep.complete,
            rep.partial,
            rep.failovers,
            rep.hedges,
            rep.hedge_wins,
            rep.mismatches.len(),
            rep.digest,
            conc.sessions,
            conc.queries,
            conc.complete,
            conc.partial,
            conc.failovers,
            conc.mismatches.len(),
            chunked.queries,
            chunked.complete,
            chunked.partial,
            chunked.failovers,
            chunked.mismatches.len(),
            adaptive.queries,
            adaptive.complete,
            adaptive.partial,
            adaptive.replans,
            adaptive.mismatches.len(),
        )
        .expect("write json row");
    }

    println!("{}", t.render());
    println!(
        "Every answer (including degraded ones) must equal the fault-free \
         oracle with the reported missing collections emptied; each seed \
         is run twice and must produce identical transcripts, then soaked \
         again with {SESSIONS} concurrent sessions through one shared \
         mediator (per-answer oracle check; transcripts are \
         interleaving-dependent there), once more with the executor \
         streaming 16-row chunks against the same whole-answer oracle, \
         and finally with mid-query adaptive re-optimization armed \
         (aggressive trigger) — re-planned answers must stay \
         oracle-identical and deterministic."
    );

    let pass = failed.is_empty();
    let json = format!(
        "{{\n  \"bench\": \"chaos_soak\",\n  \"queries_per_seed\": {QUERIES_PER_SEED},\n  \
         \"seeds\": [{json_rows}\n  ],\n  \"failed_seeds\": [{}],\n  \"pass\": {pass}\n}}\n",
        failed
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write("CHAOS_soak.json", &json).expect("write CHAOS_soak.json");
    println!("wrote CHAOS_soak.json");

    if !pass {
        for seed in &failed {
            eprintln!("replay: cargo run --release -p disco-bench --bin chaos_soak -- {seed}");
        }
        std::process::exit(1);
    }
}
