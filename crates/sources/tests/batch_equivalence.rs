//! Randomized row/batch equivalence: every vectorized operator in
//! [`disco_sources::vexec`] must produce exactly the tuples — same
//! values, same order — as its row-at-a-time reference in
//! `support/exec.rs`, across random schemas, random data with nulls and
//! mixed types, and random operator parameters.

use disco_algebra::expr::ArithOp;
use disco_algebra::logical::AggExpr;
use disco_algebra::{AggFunc, CompareOp, JoinPredicate, Predicate, ScalarExpr, SelectPredicate};
use disco_common::rng::{seeded, StdRng};
use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{AttributeDef, Batch, DataType, Schema, Tuple, Value};
use disco_sources::{vexec, ExecStats, SubAnswer};

#[path = "support/exec.rs"]
mod exec;

const SEEDS: u64 = 25;

/// The string domain includes `|`, `:` and `∅` — what a flat composite
/// grouping key would use as separators and its NULL mark — so rows like
/// `("a|s:b", "c")` and `("a", "b|s:c")` must stay distinct groups on
/// both paths.
const STRS: [&str; 12] = [
    "s0", "s1", "s2", "s3", "s4", "s5", "a", "c", "a|s:b", "b|s:c", "∅", "|:",
];

/// Column shapes: homogeneous columns exercise the typed fast paths,
/// `Mixed` forces the `Any` fallback.
#[derive(Clone, Copy)]
enum ColKind {
    Long,
    Double,
    Bool,
    Str,
    Mixed,
}

const KINDS: [ColKind; 5] = [
    ColKind::Long,
    ColKind::Double,
    ColKind::Bool,
    ColKind::Str,
    ColKind::Mixed,
];

/// Doubles whose bits matter: both zeroes, which keys fold together,
/// and NaNs of both signs and two payloads, which keys tell apart by
/// their bits, as the row reference does.
const ODD_DOUBLES: [f64; 5] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_0001),
];

fn random_value(rng: &mut StdRng, kind: ColKind) -> Value {
    if rng.gen_range(0..8i64) == 0 {
        return Value::Null;
    }
    match kind {
        ColKind::Long => Value::Long(rng.gen_range(-20..20i64)),
        ColKind::Double => match rng.gen_range(0..8usize) {
            0 => Value::Double(ODD_DOUBLES[rng.gen_range(0..ODD_DOUBLES.len())]),
            // The same range as `Long`, so a Long and a Double of one
            // number meet in joins, groups and dedup.
            1 | 2 => Value::Double(rng.gen_range(-20..20i64) as f64),
            _ => Value::Double(rng.gen_range(-20..20i64) as f64 / 2.0),
        },
        ColKind::Bool => Value::Bool(rng.gen_range(0..2i64) == 1),
        ColKind::Str => Value::Str(STRS[rng.gen_range(0..STRS.len())].into()),
        ColKind::Mixed => {
            let k = KINDS[rng.gen_range(0..4usize)];
            random_value(rng, k)
        }
    }
}

/// A cell compared by its bits, so that a NaN equals itself and `-0.0`
/// differs from `0.0`: the kernels must return exactly the row
/// reference's values.
#[derive(Debug, PartialEq)]
enum Cell {
    Double(u64),
    Other(Value),
}

fn cells(rows: &[Tuple]) -> Vec<Vec<Cell>> {
    rows.iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| match v {
                    Value::Double(d) => Cell::Double(d.to_bits()),
                    v => Cell::Other(v.clone()),
                })
                .collect()
        })
        .collect()
}

struct Case {
    schema: Schema,
    kinds: Vec<ColKind>,
    tuples: Vec<Tuple>,
    batch: Batch,
}

fn random_case(rng: &mut StdRng, prefix: &str) -> Case {
    let cols = rng.gen_range(1..5usize);
    let rows = rng.gen_range(0..60usize);
    let kinds: Vec<ColKind> = (0..cols).map(|_| KINDS[rng.gen_range(0..5usize)]).collect();
    case_of(rng, prefix, kinds, rows)
}

fn case_of(rng: &mut StdRng, prefix: &str, kinds: Vec<ColKind>, rows: usize) -> Case {
    let cols = kinds.len();
    let schema = Schema::new(
        (0..cols)
            .map(|c| AttributeDef::new(format!("{prefix}{c}"), DataType::Str))
            .collect(),
    );
    let tuples: Vec<Tuple> = (0..rows)
        .map(|_| Tuple::new(kinds.iter().map(|&k| random_value(rng, k)).collect()))
        .collect();
    let batch = Batch::from_tuples(cols, &tuples);
    Case {
        schema,
        kinds,
        tuples,
        batch,
    }
}

/// `case` with about a third of its strings replaced by strings only
/// this side holds (tagged with its attribute prefix), so a join's build
/// and probe dictionaries each hold strings the other lacks.
fn own_strings(case: Case, rng: &mut StdRng) -> Case {
    let tag = &case.schema.attributes()[0].name[..1];
    let tuples: Vec<Tuple> = case
        .tuples
        .iter()
        .map(|t| {
            let own = |v: &Value| match v {
                Value::Str(s) if rng.gen_range(0..3i64) == 0 => Value::Str(format!("{s}.{tag}")),
                v => v.clone(),
            };
            Tuple::new(t.values().iter().map(own).collect())
        })
        .collect();
    Case {
        batch: Batch::from_tuples(case.schema.arity(), &tuples),
        tuples,
        ..case
    }
}

fn attr(case: &Case, rng: &mut StdRng) -> (String, usize) {
    let i = rng.gen_range(0..case.schema.arity());
    (case.schema.attributes()[i].name.clone(), i)
}

fn random_op(rng: &mut StdRng) -> CompareOp {
    [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ][rng.gen_range(0..6usize)]
}

#[test]
fn tuple_batch_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-roundtrip");
        let case = random_case(&mut rng, "a");
        assert_eq!(
            cells(&case.batch.to_tuples()),
            cells(&case.tuples),
            "seed {seed}"
        );
        assert_eq!(case.batch.len(), case.tuples.len());
    }
}

#[test]
fn wire_round_trip_matches_row_decode() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-wire");
        let case = random_case(&mut rng, "a");
        let answer = SubAnswer {
            schema: case.schema.clone(),
            batch: case.batch.clone(),
            stats: ExecStats::default(),
        };
        let bytes = answer.to_wire_bytes();
        // The reference: rows encoded one tuple at a time, then decoded
        // one tuple at a time.
        let mut w = WireWriter::new();
        case.schema.encode(&mut w);
        ExecStats::default().encode(&mut w);
        w.put_len(case.tuples.len());
        for t in &case.tuples {
            t.encode(&mut w);
        }
        assert_eq!(bytes, w.into_bytes(), "seed {seed}");
        let mut r = WireReader::new(&bytes);
        assert_eq!(Schema::decode(&mut r).unwrap(), case.schema);
        assert_eq!(ExecStats::decode(&mut r).unwrap(), ExecStats::default());
        let rows: Vec<Tuple> = (0..r.get_len().unwrap())
            .map(|_| Tuple::decode(&mut r).unwrap())
            .collect();
        r.expect_end().unwrap();
        let batch = SubAnswer::from_wire_bytes(&bytes).unwrap();
        assert_eq!(cells(&batch.batch.to_tuples()), cells(&rows), "seed {seed}");
        assert_eq!(batch.to_wire_bytes(), bytes, "seed {seed}");
    }
}

#[test]
fn filter_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-filter");
        let case = random_case(&mut rng, "a");
        let conjuncts = (0..rng.gen_range(1..3usize))
            .map(|_| {
                let (name, i) = attr(&case, &mut rng);
                SelectPredicate::new(
                    name,
                    random_op(&mut rng),
                    random_value(&mut rng, case.kinds[i]),
                )
            })
            .collect();
        let pred = Predicate::all(conjuncts);
        let rows = exec::filter(&case.schema, &case.tuples, &pred).unwrap();
        let batch = vexec::filter(&case.schema, &case.batch, &pred).unwrap();
        assert_eq!(
            cells(&batch.to_tuples()),
            cells(&rows),
            "seed {seed} pred {pred}"
        );

        // A wider all-`Mixed` table, one conjunct on its middle column,
        // the right-hand side of any kind whatever the column holds.
        let rows = rng.gen_range(0..80usize);
        let case = case_of(&mut rng, "a", vec![ColKind::Mixed; 3], rows);
        let pred = Predicate::all(vec![SelectPredicate::new(
            "a1",
            random_op(&mut rng),
            random_value(&mut rng, ColKind::Mixed),
        )]);
        let rows = exec::filter(&case.schema, &case.tuples, &pred).unwrap();
        let batch = vexec::filter(&case.schema, &case.batch, &pred).unwrap();
        assert_eq!(
            cells(&batch.to_tuples()),
            cells(&rows),
            "seed {seed} pred {pred}"
        );
    }
}

/// A random arithmetic expression over `case`'s attributes and
/// constants, nested at most `depth` deep. Operands may be strings,
/// booleans or nulls, and divisors zero, so evaluation can fail.
fn random_arith(rng: &mut StdRng, case: &Case, depth: usize) -> ScalarExpr {
    let operand = |rng: &mut StdRng| match rng.gen_range(0..6usize) {
        0 if depth > 0 => random_arith(rng, case, depth - 1),
        1 => ScalarExpr::Const(Value::Long(0)),
        2 => ScalarExpr::Const(random_value(rng, ColKind::Mixed)),
        _ => ScalarExpr::attr(attr(case, rng).0),
    };
    let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(0..4usize)];
    ScalarExpr::Binary {
        op,
        left: Box::new(operand(rng)),
        right: Box::new(operand(rng)),
    }
}

#[test]
fn project_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-project");
        let case = random_case(&mut rng, "a");
        let columns: Vec<(String, ScalarExpr)> = (0..rng.gen_range(1..4usize))
            .map(|o| {
                let e = match rng.gen_range(0..8i64) {
                    0 | 1 => ScalarExpr::Const(random_value(&mut rng, ColKind::Mixed)),
                    2..=4 => random_arith(&mut rng, &case, 1),
                    _ => ScalarExpr::attr(attr(&case, &mut rng).0),
                };
                (format!("c{o}"), e)
            })
            .collect();
        // The same rows, or the same first error.
        match (
            exec::project(&case.schema, &case.tuples, &columns),
            vexec::project(&case.schema, &case.batch, &columns),
        ) {
            (Ok((rs, rows)), Ok((bs, batch))) => {
                assert_eq!(bs, rs, "seed {seed}");
                assert_eq!(cells(&batch.to_tuples()), cells(&rows), "seed {seed}");
            }
            (Err(r), Err(b)) => assert_eq!(b.to_string(), r.to_string(), "seed {seed}"),
            (r, b) => panic!("seed {seed}: row {r:?}, batch {b:?}"),
        }
    }
}

#[test]
fn join_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-join");
        let left = own_strings(random_case(&mut rng, "l"), &mut rng);
        let right = own_strings(random_case(&mut rng, "r"), &mut rng);
        let (ln, _) = attr(&left, &mut rng);
        let (rn, _) = attr(&right, &mut rng);
        let pred = JoinPredicate::equi(ln.clone(), rn.clone());
        let rows = exec::hash_join(
            &left.schema,
            &left.tuples,
            &right.schema,
            &right.tuples,
            &pred,
        )
        .unwrap();
        let batch = vexec::hash_join(
            &left.schema,
            &left.batch,
            &right.schema,
            &right.batch,
            &pred,
        )
        .unwrap();
        assert_eq!(
            cells(&batch.to_tuples()),
            cells(&rows),
            "seed {seed} hash {pred}"
        );

        // Nested loop with a random (possibly non-equality) operator.
        let pred = JoinPredicate {
            left_attr: ln,
            op: random_op(&mut rng),
            right_attr: rn,
        };
        let rows = exec::nested_loop_join(
            &left.schema,
            &left.tuples,
            &right.schema,
            &right.tuples,
            &pred,
        )
        .unwrap();
        let batch = vexec::nested_loop_join(
            &left.schema,
            &left.batch,
            &right.schema,
            &right.batch,
            &pred,
        )
        .unwrap();
        assert_eq!(
            cells(&batch.to_tuples()),
            cells(&rows),
            "seed {seed} nl {pred}"
        );
    }
}

#[test]
fn dedup_sort_union_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-misc");
        let case = random_case(&mut rng, "a");

        let rows = exec::dedup(&case.tuples);
        assert_eq!(
            cells(&vexec::dedup(&case.batch).to_tuples()),
            cells(&rows),
            "seed {seed}"
        );

        let keys: Vec<(String, bool)> = (0..rng.gen_range(1..3usize))
            .map(|_| {
                let (name, _) = attr(&case, &mut rng);
                (name, rng.gen_range(0..2i64) == 0)
            })
            .collect();
        let mut rows = case.tuples.clone();
        exec::sort(&case.schema, &mut rows, &keys).unwrap();
        let batch = vexec::sort(&case.schema, &case.batch, &keys).unwrap();
        assert_eq!(
            cells(&batch.to_tuples()),
            cells(&rows),
            "seed {seed} keys {keys:?}"
        );

        // Union with a second batch of the same arity.
        let mut other_rng = seeded(seed, "batch-misc-other");
        let mut other = random_case(&mut other_rng, "a");
        while other.schema.arity() != case.schema.arity() {
            other = random_case(&mut other_rng, "a");
        }
        let mut rows = case.tuples.clone();
        rows.extend(other.tuples.clone());
        let batch = vexec::union(&case.batch, &other.batch).unwrap();
        assert_eq!(cells(&batch.to_tuples()), cells(&rows), "seed {seed}");
    }
}

#[test]
fn aggregate_equivalence() {
    for seed in 0..SEEDS {
        let mut rng = seeded(seed, "batch-agg");
        let case = random_case(&mut rng, "a");
        let group_by: Vec<String> = if rng.gen_range(0..4i64) == 0 {
            Vec::new() // global aggregate, including the empty-input row
        } else {
            (0..rng.gen_range(1..3usize))
                .map(|_| attr(&case, &mut rng).0)
                .collect()
        };
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let aggs: Vec<AggExpr> = (0..rng.gen_range(1..4usize))
            .map(|o| {
                let func = funcs[rng.gen_range(0..5usize)];
                let arg = (func != AggFunc::Count || rng.gen_range(0..2i64) == 0)
                    .then(|| attr(&case, &mut rng).0);
                AggExpr {
                    name: format!("g{o}"),
                    func,
                    arg,
                }
            })
            .collect();
        let rows = exec::aggregate(&case.schema, &case.tuples, &group_by, &aggs).unwrap();
        let batch = vexec::aggregate(&case.schema, &case.batch, &group_by, &aggs).unwrap();
        assert_eq!(
            cells(&batch.to_tuples()),
            cells(&rows),
            "seed {seed} group_by {group_by:?} aggs {aggs:?}"
        );
    }
}
