//! Property tests for the transport wire format: encode → decode is the
//! identity for values, schemas, subanswers, and plans over the whole
//! value domain (any `i64`, any normal `f64`, any Unicode text), and
//! arbitrary byte soup never panics the decoders. Seeded loops on
//! `disco_common::rng`, deterministic per seed; `wire_roundtrip.rs` adds
//! typed rows, registrations and corrupted valid streams.

use disco_algebra::{CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::{seeded, StdRng};
use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Tuple, Value};
use disco_sources::{ExecStats, SubAnswer};
use disco_transport::wire::{decode_plan, encode_plan};
use disco_transport::{Request, Response};

const CASES: usize = 256;

/// Any char: mostly ASCII, then Latin-1, other BMP code points and the
/// astral plane.
fn any_char(rng: &mut StdRng) -> char {
    let code = match rng.gen_range(0..4usize) {
        0 | 1 => rng.gen_range(0..0x80u64),
        2 => rng.gen_range(0x80..0x800u64),
        _ => rng.gen_range(0x800..0x11_0000u64),
    };
    char::from_u32(code as u32).unwrap_or('\u{fffd}')
}

fn any_string(rng: &mut StdRng, max: usize) -> String {
    (0..rng.gen_range(0..=max)).map(|_| any_char(rng)).collect()
}

/// Between `min` and `max` characters drawn from `alphabet`.
fn word(rng: &mut StdRng, alphabet: &[u8], min: usize, max: usize) -> String {
    (0..rng.gen_range(min..=max))
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

fn any_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5usize) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(0..2usize) == 1),
        2 => Value::Long(rng.next_u64() as i64),
        // Normal doubles only: NaN breaks the PartialEq the assertion needs.
        3 => loop {
            let d = f64::from_bits(rng.next_u64());
            if d.is_normal() {
                break Value::Double(d);
            }
        },
        _ => Value::Str(any_string(rng, 24)),
    }
}

fn any_schema(rng: &mut StdRng) -> Schema {
    const TYPES: [DataType; 4] = [
        DataType::Bool,
        DataType::Long,
        DataType::Double,
        DataType::Str,
    ];
    Schema::new(
        (0..rng.gen_range(1..6usize))
            .map(|_| {
                let name = word(rng, LOWER, 1, 7);
                AttributeDef::new(name, TYPES[rng.gen_range(0..TYPES.len())])
            })
            .collect(),
    )
}

fn any_subanswer(rng: &mut StdRng) -> SubAnswer {
    let schema = any_schema(rng);
    let tuples = (0..rng.gen_range(0..12usize))
        .map(|_| {
            Tuple::new(
                (0..rng.gen_range(0..6usize))
                    .map(|_| any_value(rng))
                    .collect(),
            )
        })
        .collect();
    SubAnswer {
        schema,
        tuples,
        stats: ExecStats {
            elapsed_ms: rng.gen_range(0.0..1.0e6),
            time_first_ms: rng.gen_range(0.0..1.0e5),
            pages_read: rng.next_u64() >> 32,
            buffer_hits: rng.next_u64() >> 32,
            objects_scanned: rng.next_u64() >> 32,
        },
    }
}

/// A structurally random plan of at most `depth` operator levels.
fn any_plan(rng: &mut StdRng, depth: usize) -> LogicalPlan {
    if depth == 0 || rng.gen_range(0..4usize) == 0 {
        let wrapper = word(rng, LOWER, 1, 6);
        let collection = word(rng, b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 1, 1) + &word(rng, LOWER, 0, 6);
        return PlanBuilder::scan(QualifiedName::new(wrapper, collection), any_schema(rng)).build();
    }
    let input = PlanBuilder::from_plan(any_plan(rng, depth - 1));
    match rng.gen_range(0..6usize) {
        0 => input.select(word(rng, LOWER, 1, 6), CompareOp::Le, any_value(rng)),
        1 => input.project_attrs(&[&word(rng, LOWER, 1, 6)]),
        2 => input.dedup(),
        3 => {
            let right = PlanBuilder::from_plan(any_plan(rng, depth - 1));
            input.join(right, word(rng, LOWER, 1, 4), word(rng, LOWER, 1, 4))
        }
        4 => input.union(PlanBuilder::from_plan(any_plan(rng, depth - 1))),
        _ => input.submit(word(rng, LOWER, 1, 6)),
    }
    .build()
}

/// Run `check` on `CASES` seeded cases.
fn for_cases(purpose: &str, mut check: impl FnMut(&mut StdRng)) {
    let mut rng = seeded(0x7AB5_0010, purpose);
    for _ in 0..CASES {
        check(&mut rng);
    }
}

#[test]
fn values_round_trip() {
    for_cases("values", |rng| {
        let v = any_value(rng);
        assert_eq!(v, Value::from_wire_bytes(&v.to_wire_bytes()).unwrap());
    });
}

#[test]
fn schemas_round_trip() {
    for_cases("schemas", |rng| {
        let s = any_schema(rng);
        assert_eq!(s, Schema::from_wire_bytes(&s.to_wire_bytes()).unwrap());
    });
}

#[test]
fn subanswers_round_trip() {
    for_cases("subanswers", |rng| {
        let a = any_subanswer(rng);
        assert_eq!(a, SubAnswer::from_wire_bytes(&a.to_wire_bytes()).unwrap());
    });
}

#[test]
fn plans_round_trip() {
    for_cases("plans", |rng| {
        let p = any_plan(rng, 3);
        let mut w = WireWriter::new();
        encode_plan(&p, &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_plan(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(p, back);
    });
}

#[test]
fn requests_round_trip() {
    for_cases("requests", |rng| {
        let req = Request::Submit(any_plan(rng, 3));
        assert_eq!(req, Request::from_wire_bytes(&req.to_wire_bytes()).unwrap());
    });
}

#[test]
fn responses_round_trip() {
    for_cases("responses", |rng| {
        let resp = Response::Answer(any_subanswer(rng));
        assert_eq!(
            resp,
            Response::from_wire_bytes(&resp.to_wire_bytes()).unwrap()
        );
    });
}

/// Arbitrary bytes never panic any top-level decoder.
#[test]
fn byte_soup_never_panics() {
    for_cases("byte-soup", |rng| {
        let bytes: Vec<u8> = (0..rng.gen_range(0..256usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let _ = Request::from_wire_bytes(&bytes);
        let _ = Response::from_wire_bytes(&bytes);
        let _ = SubAnswer::from_wire_bytes(&bytes);
        let mut r = WireReader::new(&bytes);
        let _ = decode_plan(&mut r);
    });
}
