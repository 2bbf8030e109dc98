//! Tier-1 slice of the chaos soak: a small seed × query matrix runs on
//! every `cargo test`, the full 8-seed soak lives in the `chaos_soak`
//! binary (CI's `chaos` job).

use disco_bench::chaos;

#[test]
fn chaotic_answers_match_the_fault_free_oracle_at_either_chunking() {
    for seed in [1u64, 2] {
        let runs = [None, chaos::CHUNKED].map(|c| (c, chaos::run_seed_chunked(seed, 24, c)));
        for (chunk_rows, rep) in &runs {
            assert!(
                rep.passed(),
                "seed {seed} (chunk_rows {chunk_rows:?}) diverged from the oracle: {:#?}\nreplay: \
                 cargo run --release -p disco-bench --bin chaos_soak -- {seed}",
                rep.mismatches
            );
            assert_eq!(rep.complete + rep.partial, 24);
        }
        // Degradation does not depend on the chunking: same per-query
        // completeness, same failovers, same transcript.
        assert_eq!(runs[0].1, runs[1].1, "seed {seed}");
    }
}

#[test]
fn same_seed_produces_identical_transcripts() {
    let a = chaos::run_seed(7, 18);
    let b = chaos::run_seed(7, 18);
    assert_eq!(a, b, "chaos runs must be deterministic per seed");
}

#[test]
fn fault_free_seedless_run_is_fully_complete() {
    // Seed 0 may still draw fault windows, but every query matches its
    // oracle, and no straggler meets these queries: nothing hedges.
    let rep = chaos::run_seed(0, chaos::QUERIES.len());
    assert!(rep.passed(), "{:#?}", rep.mismatches);
    assert_eq!(rep.hedges, 0, "seed 0 meets no straggler in its queries");
}

#[test]
fn adaptive_chaotic_answers_match_the_fault_free_oracle() {
    for seed in [1u64, 2] {
        let rep = chaos::run_seed_adaptive(seed, 24);
        assert!(
            rep.passed(),
            "seed {seed} (adaptive) diverged from the oracle: {:#?}",
            rep.mismatches
        );
        assert_eq!(rep.complete + rep.partial, 24);
        // Determinism holds with the re-planner in the loop.
        assert_eq!(rep, chaos::run_seed_adaptive(seed, 24), "seed {seed}");
    }
}
