//! Workspace-level property tests: the user-facing text interfaces never
//! panic, and query answers agree with reference filtering under random
//! predicates. Seeded loops on `disco_common::rng`, deterministic per
//! seed.

use disco::algebra::CompareOp;
use disco::common::rng::{seeded, StdRng};
use disco::common::{AttributeDef, DataType, Schema, Value};
use disco::costlang::parse_document;
use disco::mediator::{parse_query, Mediator};
use disco::sources::{CollectionBuilder, CostProfile, PagedStore};
use disco::wrapper::SourceWrapper;

/// Characters arbitrary input is drawn from: printable ASCII most of the
/// time, then controls, multi-byte code points and the quote and comment
/// characters a lexer must not trip over.
fn random_char(rng: &mut StdRng) -> char {
    const ODD: [char; 12] = [
        '\t', '\r', '\0', '\u{7f}', 'é', 'λ', '€', '𝄞', '\u{feff}', '"', '\'', '\\',
    ];
    if rng.gen_range(0usize..4) == 0 {
        ODD[rng.gen_range(0..ODD.len())]
    } else {
        char::from(rng.gen_range(0x20u64..0x7f) as u8)
    }
}

/// Up to 200 random characters.
fn random_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0usize..=200);
    (0..len).map(|_| random_char(rng)).collect()
}

/// The cost-language parser returns errors, never panics, on arbitrary
/// input.
#[test]
fn cost_parser_never_panics() {
    for seed in 0..256 {
        let _ = parse_document(&random_text(&mut seeded(seed, "cost-parser")));
    }
}

/// Same for the SQL parser.
#[test]
fn sql_parser_never_panics() {
    for seed in 0..256 {
        let _ = parse_query(&random_text(&mut seeded(seed, "sql-parser")));
    }
}

/// Near-miss documents built from language fragments also never panic.
#[test]
fn cost_parser_handles_fragment_soup() {
    const PARTS: [&str; 20] = [
        "rule",
        "select",
        "($C",
        ", $A = $V)",
        "{",
        "}",
        "TotalTime",
        "=",
        "1",
        ";",
        "interface",
        "cardinality",
        "extent",
        "let",
        "min(",
        ")",
        "$C.TotalSize",
        "/",
        "\"str\"",
        "77",
    ];
    for seed in 0..256 {
        let mut rng = seeded(seed, "fragment-soup");
        let parts: Vec<&str> = (0..rng.gen_range(0usize..24))
            .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
            .collect();
        let _ = parse_document(&parts.join(" "));
    }
}

fn tiny_mediator(rows: &[(i64, i64)]) -> Mediator {
    let mut store = PagedStore::new("s", CostProfile::relational());
    store
        .add_collection(
            "T",
            CollectionBuilder::new(Schema::new(vec![
                AttributeDef::new("a", DataType::Long),
                AttributeDef::new("b", DataType::Long),
            ]))
            .rows(
                rows.iter()
                    .map(|(a, b)| vec![Value::Long(*a), Value::Long(*b)]),
            )
            .object_size(16)
            .index("a"),
        )
        .unwrap();
    let mut m = Mediator::new();
    m.register(Box::new(SourceWrapper::new("s", store)))
        .unwrap();
    m
}

/// `len` in `lens` random rows `(a, b)` with `a` in `a_range`, `b` in
/// `b_range`.
fn random_rows(
    rng: &mut StdRng,
    lens: std::ops::Range<usize>,
    a_range: std::ops::Range<i64>,
    b_range: std::ops::Range<i64>,
) -> Vec<(i64, i64)> {
    (0..rng.gen_range(lens))
        .map(|_| {
            (
                rng.gen_range(a_range.clone()),
                rng.gen_range(b_range.clone()),
            )
        })
        .collect()
}

/// Mediator answers equal reference filtering for random data and random
/// single-attribute predicates, through the whole pipeline (pushdown,
/// index or scan access, execution).
#[test]
fn selection_agrees_with_reference() {
    let ops = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ];
    for seed in 0..48 {
        let mut rng = seeded(seed, "selection-reference");
        let rows = random_rows(&mut rng, 1..120, 0..50, -20..20);
        let use_a = rng.gen_range(0usize..2) == 0;
        let op = ops[rng.gen_range(0..ops.len())];
        let value = rng.gen_range(-25i64..60);
        let col = if use_a { "a" } else { "b" };
        let mut m = tiny_mediator(&rows);
        let sql = format!("SELECT a, b FROM T WHERE {col} {} {value}", op.symbol());
        let result = m.query(&sql).unwrap();
        let mut want: Vec<(i64, i64)> = rows
            .iter()
            .filter(|(a, b)| {
                let lhs = if use_a { *a } else { *b };
                op.eval(&Value::Long(lhs), &Value::Long(value))
            })
            .copied()
            .collect();
        // Multiset equality.
        let mut got: Vec<(i64, i64)> = result
            .tuples
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_i64().unwrap(),
                    t.get(1).unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "seed {seed}: {sql}");
    }
}

/// Self-joins agree with the quadratic reference.
#[test]
fn join_agrees_with_reference() {
    for seed in 0..48 {
        let mut rng = seeded(seed, "join-reference");
        let rows = random_rows(&mut rng, 1..40, 0..12, -5..5);
        let mut m = tiny_mediator(&rows);
        let result = m.query("SELECT x.a FROM T x, T y WHERE x.a = y.b").unwrap();
        let expected = rows
            .iter()
            .flat_map(|(a, _)| rows.iter().filter(move |(_, b2)| a == b2))
            .count();
        assert_eq!(result.tuples.len(), expected, "seed {seed}");
    }
}
