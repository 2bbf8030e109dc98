//! Deterministic randomized round-trip tests for the transport wire
//! format: hundreds of seeded random plans, subanswers, and
//! request/response envelopes must survive encode → decode byte-for-byte,
//! and arbitrary corruption of valid streams must never panic.
//!
//! The generator is the workspace's seeded PRNG; `prop_wire.rs` covers
//! the whole value domain and arbitrary byte soup.

use disco_algebra::{AggFunc, CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::StdRng;
use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{AttributeDef, Batch, DataType, QualifiedName, Schema, Tuple, Value};
use disco_sources::{ExecStats, SubAnswer};
use disco_transport::wire::{decode_plan, encode_plan};
use disco_transport::{Request, Response};

const CASES: usize = 200;

fn rand_type(rng: &mut StdRng) -> DataType {
    match rng.gen_range(0..4usize) {
        0 => DataType::Bool,
        1 => DataType::Long,
        2 => DataType::Double,
        _ => DataType::Str,
    }
}

fn rand_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| char::from(b'a' + (rng.gen_range(0..26usize) as u8)))
        .collect()
}

fn rand_value(rng: &mut StdRng, ty: DataType) -> Value {
    if rng.gen_range(0..10usize) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Bool => Value::Bool(rng.gen_range(0..2usize) == 1),
        DataType::Long => Value::Long(rng.gen_range(-1_000_000i64..1_000_000i64)),
        DataType::Double => Value::Double(rng.gen_range(-1.0e6..1.0e6)),
        DataType::Str => Value::Str(rand_string(rng)),
    }
}

fn rand_schema(rng: &mut StdRng) -> Schema {
    let arity = rng.gen_range(1..=5usize);
    Schema::new(
        (0..arity)
            .map(|i| AttributeDef::new(format!("a{i}"), rand_type(rng)))
            .collect(),
    )
}

/// A structurally random (not necessarily semantically meaningful)
/// logical plan — the wire format only promises structural fidelity.
fn rand_plan(rng: &mut StdRng, depth: usize) -> LogicalPlan {
    let leaf = |rng: &mut StdRng| {
        PlanBuilder::scan(
            QualifiedName::new(rand_string(rng), rand_string(rng)),
            rand_schema(rng),
        )
    };
    if depth == 0 {
        return leaf(rng).build();
    }
    let b = match rng.gen_range(0..8usize) {
        0 => leaf(rng),
        1 => {
            let op = match rng.gen_range(0..6usize) {
                0 => CompareOp::Eq,
                1 => CompareOp::Ne,
                2 => CompareOp::Lt,
                3 => CompareOp::Le,
                4 => CompareOp::Gt,
                _ => CompareOp::Ge,
            };
            let ty = rand_type(rng);
            let value = rand_value(rng, ty);
            PlanBuilder::from_plan(rand_plan(rng, depth - 1)).select(rand_string(rng), op, value)
        }
        2 => PlanBuilder::from_plan(rand_plan(rng, depth - 1))
            .project_attrs(&[&rand_string(rng), &rand_string(rng)]),
        3 => PlanBuilder::from_plan(rand_plan(rng, depth - 1)).sort_asc(&[&rand_string(rng)]),
        4 => PlanBuilder::from_plan(rand_plan(rng, depth - 1)).join(
            PlanBuilder::from_plan(rand_plan(rng, depth - 1)),
            rand_string(rng),
            rand_string(rng),
        ),
        5 => PlanBuilder::from_plan(rand_plan(rng, depth - 1))
            .union(PlanBuilder::from_plan(rand_plan(rng, depth - 1))),
        6 => PlanBuilder::from_plan(rand_plan(rng, depth - 1)).dedup(),
        _ => PlanBuilder::from_plan(rand_plan(rng, depth - 1)).aggregate(
            &[&rand_string(rng)],
            vec![("n", AggFunc::Count, None), ("m", AggFunc::Max, Some("a0"))],
        ),
    };
    if rng.gen_range(0..3usize) == 0 {
        b.submit(rand_string(rng)).build()
    } else {
        b.build()
    }
}

fn rand_subanswer(rng: &mut StdRng) -> SubAnswer {
    let schema = rand_schema(rng);
    let types: Vec<DataType> = schema.attributes().iter().map(|a| a.ty).collect();
    let tuples: Vec<Tuple> = (0..rng.gen_range(0..20usize))
        .map(|_| Tuple::new(types.iter().map(|t| rand_value(rng, *t)).collect()))
        .collect();
    SubAnswer {
        batch: Batch::from_tuples(schema.arity(), &tuples),
        schema,
        stats: ExecStats {
            elapsed_ms: rng.gen_range(0.0..1.0e4),
            time_first_ms: rng.gen_range(0.0..1.0e3),
            pages_read: rng.gen_range(0u64..10_000),
            buffer_hits: rng.gen_range(0u64..10_000),
            objects_scanned: rng.gen_range(0u64..100_000),
        },
    }
}

#[test]
fn random_plans_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7AB5_0001);
    for _ in 0..CASES {
        let plan = rand_plan(&mut rng, 3);
        let mut w = WireWriter::new();
        encode_plan(&plan, &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_plan(&mut r).expect("valid plan bytes must decode");
        r.expect_end().unwrap();
        assert_eq!(plan, back);
    }
}

#[test]
fn random_subanswers_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7AB5_0002);
    for _ in 0..CASES {
        let ans = rand_subanswer(&mut rng);
        let bytes = ans.to_wire_bytes();
        let back = SubAnswer::from_wire_bytes(&bytes).expect("valid subanswer must decode");
        assert_eq!(ans, back);
    }
}

#[test]
fn random_requests_and_responses_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7AB5_0003);
    for i in 0..CASES {
        let req = if i % 4 == 0 {
            Request::Register
        } else {
            Request::Submit(rand_plan(&mut rng, 2))
        };
        let bytes = req.to_wire_bytes();
        assert_eq!(req, Request::from_wire_bytes(&bytes).unwrap());

        let resp = match i % 3 {
            0 => Response::Answer(rand_subanswer(&mut rng)),
            1 => Response::Error {
                kind: rand_string(&mut rng),
                message: rand_string(&mut rng),
            },
            _ => Response::Answer(rand_subanswer(&mut rng)),
        };
        let bytes = resp.to_wire_bytes();
        assert_eq!(resp, Response::from_wire_bytes(&bytes).unwrap());
    }
}

#[test]
fn random_registrations_round_trip() {
    use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
    use disco_transport::wire::{decode_registration, encode_registration};
    use disco_wrapper::{SourceWrapper, Wrapper};

    let mut rng = StdRng::seed_from_u64(0x7AB5_0005);
    for case in 0..20 {
        let profile = if case % 2 == 0 {
            CostProfile::relational()
        } else {
            CostProfile::object_store()
        };
        let mut store = PagedStore::new(format!("s{case}"), profile);
        for c in 0..rng.gen_range(1..=3usize) {
            let schema = rand_schema(&mut rng);
            let types: Vec<DataType> = schema.attributes().iter().map(|a| a.ty).collect();
            let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..40usize))
                .map(|_| types.iter().map(|t| rand_value(&mut rng, *t)).collect())
                .collect();
            store
                .add_collection(format!("C{c}"), CollectionBuilder::new(schema).rows(rows))
                .unwrap();
        }
        let reg = SourceWrapper::new(format!("s{case}"), store)
            .registration()
            .unwrap();
        let mut w = WireWriter::new();
        encode_registration(&reg, &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_registration(&mut r).expect("valid registration must decode");
        r.expect_end().unwrap();
        assert_eq!(reg, back);
    }
}

/// Corruption never panics: every truncation of a valid stream and a
/// large sample of single-byte mutations decode to `Ok` or `Err`, never
/// a crash or a hostile allocation.
#[test]
fn corrupted_streams_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x7AB5_0004);
    for _ in 0..40 {
        let req = Request::Submit(rand_plan(&mut rng, 2));
        let bytes = req.to_wire_bytes();
        for cut in 0..bytes.len() {
            let _ = Request::from_wire_bytes(&bytes[..cut]);
        }
        for _ in 0..64 {
            let mut mutated = bytes.clone();
            let pos = rng.gen_range(0..mutated.len());
            mutated[pos] ^= (rng.gen_range(1..256usize)) as u8;
            let _ = Request::from_wire_bytes(&mutated);
        }

        let resp = Response::Answer(rand_subanswer(&mut rng));
        let bytes = resp.to_wire_bytes();
        for cut in 0..bytes.len() {
            let _ = Response::from_wire_bytes(&bytes[..cut]);
        }
        for _ in 0..64 {
            let mut mutated = bytes.clone();
            let pos = rng.gen_range(0..mutated.len());
            mutated[pos] ^= (rng.gen_range(1..256usize)) as u8;
            let _ = Response::from_wire_bytes(&mutated);
        }
    }
}
