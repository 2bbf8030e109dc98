//! Property tests for the metrics/trace JSON encodings: encode → decode
//! → encode is the identity for snapshots and traces built directly
//! over arbitrary text, and neither the Prometheus exposition nor the
//! JSON parser panics on it. Seeded loops on `disco_common::rng`,
//! deterministic per seed; `roundtrip.rs` goes through the registry.

use disco_common::rng::{seeded, StdRng};
use disco_obs::metrics::{HistogramSample, MetricsSnapshot, Sample};
use disco_obs::trace::{Span, TraceReport};
use disco_obs::Json;

const CASES: usize = 256;

/// Any char but a newline: mostly ASCII (controls, quotes and
/// backslashes included), then other BMP code points and the astral
/// plane.
fn any_char(rng: &mut StdRng) -> char {
    let code = match rng.gen_range(0..4usize) {
        0 | 1 => rng.gen_range(0..0x80u64),
        2 => rng.gen_range(0x80..0x1_0000u64),
        _ => rng.gen_range(0x1_0000..0x11_0000u64),
    };
    match char::from_u32(code as u32) {
        Some('\n') | None => '\u{fffd}',
        Some(c) => c,
    }
}

fn any_string(rng: &mut StdRng, max: usize) -> String {
    (0..rng.gen_range(0..=max)).map(|_| any_char(rng)).collect()
}

/// A normal `f64` of any sign and magnitude.
fn any_normal(rng: &mut StdRng) -> f64 {
    loop {
        let d = f64::from_bits(rng.next_u64());
        if d.is_normal() {
            return d;
        }
    }
}

fn pairs(rng: &mut StdRng, n: usize, max: usize) -> Vec<(String, String)> {
    (0..rng.gen_range(0..n))
        .map(|_| (any_string(rng, max), any_string(rng, max)))
        .collect()
}

/// Labels as the registry stores them: sorted, keys unique.
fn labels(rng: &mut StdRng) -> Vec<(String, String)> {
    let mut ls = pairs(rng, 4, 16);
    ls.sort();
    ls.dedup_by(|a, b| a.0 == b.0);
    ls
}

fn sample(rng: &mut StdRng) -> Sample {
    Sample {
        name: any_string(rng, 24),
        labels: labels(rng),
        value: any_normal(rng),
    }
}

fn histogram(rng: &mut StdRng) -> HistogramSample {
    let (bounds, counts) = (0..rng.gen_range(0..8usize))
        .map(|_| (rng.gen_range(1.0..1e9), rng.gen_range(0..1_000u64)))
        .unzip();
    HistogramSample {
        name: any_string(rng, 24),
        labels: labels(rng),
        bounds,
        counts,
        sum: any_normal(rng),
        count: rng.gen_range(0..100_000u64),
    }
}

fn snapshot(rng: &mut StdRng) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: (0..rng.gen_range(0..5usize)).map(|_| sample(rng)).collect(),
        gauges: (0..rng.gen_range(0..5usize)).map(|_| sample(rng)).collect(),
        histograms: (0..rng.gen_range(0..3usize))
            .map(|_| histogram(rng))
            .collect(),
    }
}

/// A span with children down to `depth` further levels.
fn span(rng: &mut StdRng, depth: usize) -> Span {
    let children = if depth == 0 {
        Vec::new()
    } else {
        (0..rng.gen_range(0..3usize))
            .map(|_| span(rng, depth - 1))
            .collect()
    };
    Span {
        name: any_string(rng, 24),
        start_us: rng.next_u64() >> 32,
        dur_us: rng.next_u64() >> 32,
        events: pairs(rng, 3, 12),
        children,
    }
}

/// Run `check` on `CASES` seeded cases.
fn for_cases(purpose: &str, mut check: impl FnMut(&mut StdRng)) {
    let mut rng = seeded(0xD15C0, purpose);
    for _ in 0..CASES {
        check(&mut rng);
    }
}

#[test]
fn metrics_snapshot_roundtrip() {
    for_cases("prop-metrics", |rng| {
        let snap = snapshot(rng);
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text);
    });
}

#[test]
fn exposition_never_panics() {
    for_cases("prop-exposition", |rng| {
        let _ = snapshot(rng).to_prometheus();
    });
}

#[test]
fn trace_report_roundtrip() {
    for_cases("prop-trace", |rng| {
        let report = TraceReport {
            spans: (0..rng.gen_range(0..4usize))
                .map(|_| span(rng, 3))
                .collect(),
        };
        let text = report.to_json();
        let back = TraceReport::from_json(&text).expect("decode");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
        let _ = report.render();
    });
}

#[test]
fn json_parse_never_panics() {
    for_cases("prop-json", |rng| {
        let _ = Json::parse(&any_string(rng, 256));
    });
}
