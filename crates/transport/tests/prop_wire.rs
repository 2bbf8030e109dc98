//! Property tests for the transport wire format: encode → decode is the
//! identity for values, schemas, subanswers, and plans over the whole
//! value domain (any `i64`, any normal `f64`, any Unicode text), and
//! arbitrary byte soup never panics the decoders, and a chunk encoded
//! from columns is the row encoding byte for byte. Seeded loops on
//! `disco_common::rng`, deterministic per seed; `wire_roundtrip.rs` adds
//! typed rows, registrations and corrupted valid streams.

use disco_algebra::{CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::{seeded, StdRng};
use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{AttributeDef, Batch, DataType, QualifiedName, Schema, Tuple, Value};
use disco_sources::{ExecStats, SubAnswer};
use disco_transport::wire::{decode_plan, encode_plan};
use disco_transport::{Frame, Request, Response};

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
    let tuples: Vec<Tuple> = (0..rng.gen_range(0..12usize))
        .map(|_| Tuple::new((0..schema.arity()).map(|_| any_value(rng)).collect()))
        .collect();
    SubAnswer {
        batch: Batch::from_tuples(schema.arity(), &tuples),
        schema,
        stats: ExecStats {
            elapsed_ms: rng.gen_range(0.0..1.0e6),
            time_first_ms: rng.gen_range(0.0..1.0e5),
            pages_read: rng.next_u64() >> 32,
            buffer_hits: rng.next_u64() >> 32,
            objects_scanned: rng.next_u64() >> 32,
        },
    }
}

/// One cell of a column kind: 0 long, 1 double (NaNs of both signs,
/// both zeroes), 2 bool, 3 string from a small dictionary, 4 any of
/// those; in a nullable column, one in five is null.
fn column_cell(rng: &mut StdRng, kind: usize, nullable: bool) -> Value {
    if nullable && rng.gen_range(0..5usize) == 0 {
        return Value::Null;
    }
    match kind {
        0 => Value::Long(rng.next_u64() as i64 >> rng.gen_range(0..64u64)),
        1 => [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::from_bits(rng.next_u64()),
        ][rng.gen_range(0..5usize)]
        .into(),
        2 => Value::Bool(rng.gen_range(0..2usize) == 1),
        3 => Value::Str(["", "a", "ß", "日本", "a|b"][rng.gen_range(0..5usize)].into()),
        _ => {
            let kind = rng.gen_range(0..4usize);
            column_cell(rng, kind, nullable)
        }
    }
}

/// The row encoding of a chunk frame, one tuple at a time: the
/// reference the column encoder must reproduce.
fn row_chunk_bytes(schema: &Schema, rows: &[Tuple]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(0);
    schema.encode(&mut w);
    ExecStats::default().encode(&mut w);
    w.put_len(rows.len());
    for t in rows {
        t.encode(&mut w);
    }
    w.into_bytes()
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

/// A chunk frame written from a batch's columns is the row encoder's
/// bytes for the same rows, for every row range, and the cells' widths
/// add up as the rows' do. Columns with and without nulls, so both the
/// per-cell and the fixed-width stride paths are held.
#[test]
fn chunk_bytes_are_the_row_encoding() {
    for_cases("column-encoder", |rng| {
        let kinds: Vec<(usize, bool)> = (0..rng.gen_range(0..5usize))
            .map(|_| (rng.gen_range(0..5usize), rng.gen_range(0..2usize) == 0))
            .collect();
        let schema = Schema::new(
            (0..kinds.len())
                .map(|i| AttributeDef::new(format!("c{i}"), DataType::Str))
                .collect(),
        );
        let rows: Vec<Tuple> = (0..rng.gen_range(0..40usize))
            .map(|_| {
                let cells = kinds
                    .iter()
                    .map(|&(k, nullable)| column_cell(rng, k, nullable));
                Tuple::new(cells.collect())
            })
            .collect();
        let batch = Batch::from_tuples(kinds.len(), &rows);
        for _ in 0..4 {
            let from = rng.gen_range(0..=rows.len());
            let until = rng.gen_range(from..=rows.len());
            assert_eq!(
                Frame::chunk_bytes(&schema, &batch, from..until),
                row_chunk_bytes(&schema, &rows[from..until]),
                "kinds {kinds:?} rows {from}..{until}"
            );
        }
        let cells: u64 = batch
            .columns()
            .iter()
            .flat_map(|c| (0..c.len()).map(|row| c.value_ref(row).width()))
            .sum();
        let tuples: u64 = rows.iter().map(Tuple::width).sum();
        assert_eq!(cells, tuples, "kinds {kinds:?}");
        assert_eq!(batch.byte_width(), tuples, "kinds {kinds:?}");
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
