//! Seeded randomized round-trip tests for the metrics/trace JSON
//! encodings, through the registry (`prop_roundtrip.rs` builds the
//! snapshots directly, over arbitrary text).

use disco_common::rng::{seeded, StdRng};
use disco_obs::metrics::{MetricsRegistry, MetricsSnapshot};
use disco_obs::trace::TraceReport;
use disco_obs::{Json, Span};

/// Strings exercising escaping: quotes, backslashes, control chars,
/// non-ASCII, astral plane (surrogate pairs in \u encoding).
fn gen_string(rng: &mut StdRng) -> String {
    const POOL: &[&str] = &[
        "plain",
        "with space",
        "q\"uote",
        "back\\slash",
        "new\nline",
        "tab\there",
        "nul\u{0}byte",
        "läbel",
        "度量",
        "emoji \u{1F600}",
        "",
        "le",
        "{}",
        "a=\"b\"",
    ];
    let mut s = String::new();
    for _ in 0..rng.gen_range(1..4usize) {
        s.push_str(POOL[rng.gen_range(0..POOL.len())]);
    }
    s
}

fn gen_labels<'a>(
    rng: &mut StdRng,
    storage: &'a mut Vec<(String, String)>,
) -> Vec<(&'a str, &'a str)> {
    storage.clear();
    let n = rng.gen_range(0..3usize);
    for i in 0..n {
        // Distinct keys: duplicate label keys would collapse in the map.
        storage.push((format!("k{i}_{}", gen_string(rng)), gen_string(rng)));
    }
    storage
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect()
}

#[test]
fn metrics_snapshot_round_trips_randomized() {
    let mut rng = seeded(0xD15C0, "obs-metrics-roundtrip");
    for _ in 0..200 {
        let reg = MetricsRegistry::new();
        let mut storage = Vec::new();
        for _ in 0..rng.gen_range(0..4usize) {
            let name = gen_string(&mut rng);
            let labels = gen_labels(&mut rng, &mut storage);
            reg.counter(&name, &labels)
                .add(rng.gen_range(0..1_000_000u64));
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let name = gen_string(&mut rng);
            let labels = gen_labels(&mut rng, &mut storage);
            reg.gauge(&name, &labels).set(rng.gen_f64() * 1e6 - 5e5);
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let name = gen_string(&mut rng);
            let labels = gen_labels(&mut rng, &mut storage);
            let h = reg.histogram(&name, &labels);
            for _ in 0..rng.gen_range(0..20usize) {
                h.observe(rng.gen_f64() * 1e5);
            }
        }
        let snap = reg.snapshot();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text)
            .unwrap_or_else(|e| panic!("decode failed: {e}\n{text}"));
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text, "encode → decode → encode identity");
        // Exposition never panics, whatever the names/labels contain.
        let _ = snap.to_prometheus();
    }
}

fn gen_span(rng: &mut StdRng, depth: usize) -> Span {
    let events = (0..rng.gen_range(0..3usize))
        .map(|_| (gen_string(rng), gen_string(rng)))
        .collect();
    let children = if depth < 3 {
        (0..rng.gen_range(0..3usize))
            .map(|_| gen_span(rng, depth + 1))
            .collect()
    } else {
        Vec::new()
    };
    Span {
        name: gen_string(rng),
        start_us: rng.gen_range(0..10_000_000u64),
        dur_us: rng.gen_range(0..10_000_000u64),
        events,
        children,
    }
}

#[test]
fn trace_report_round_trips_randomized() {
    let mut rng = seeded(0xD15C0, "obs-trace-roundtrip");
    for _ in 0..200 {
        let report = TraceReport {
            spans: (0..rng.gen_range(0..4usize))
                .map(|_| gen_span(&mut rng, 0))
                .collect(),
        };
        let text = report.to_json();
        let back =
            TraceReport::from_json(&text).unwrap_or_else(|e| panic!("decode failed: {e}\n{text}"));
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "encode → decode → encode identity");
        let _ = report.render();
    }
}

#[test]
fn json_parser_rejects_garbage_without_panicking() {
    let mut rng = seeded(0xD15C0, "obs-json-garbage");
    for _ in 0..500 {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        // Must never panic; errors are fine.
        let _ = Json::parse(&text);
    }
}
