//! Property test: every syntactically valid document survives a
//! print → parse round trip unchanged. Seeded loops on
//! `disco_common::rng`, deterministic per seed.

use disco_algebra::{CompareOp, OperatorKind};
use disco_common::rng::{seeded, StdRng};
use disco_common::{DataType, Value};
use disco_costlang::ast::{
    AttrTerm, BinOp, CardAttribute, CardExtent, CollTerm, CostVar, Document, Expr, FuncDef,
    HeadArg, InterfaceDef, LetDef, PathBase, PathSeg, PredRhs, RuleDef, RuleHead, Stmt,
};
use disco_costlang::{parse_document, print_document};

const CASES: u64 = 192;

/// Words the lexer reserves: keywords, operator names and builtins.
const RESERVED: &[&str] = &[
    "rule",
    "let",
    "interface",
    "attribute",
    "cardinality",
    "extent",
    "indexed",
    "unindexed",
    "null",
    "true",
    "false",
    "scan",
    "select",
    "project",
    "sort",
    "join",
    "union",
    "dedup",
    "aggregate",
    "submit",
    "input",
    "left",
    "right",
    "min",
    "max",
    "exp",
    "ln",
    "log2",
    "log10",
    "sqrt",
    "pow",
    "ceil",
    "floor",
    "abs",
];

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const LOWER_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
const MIXED_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

fn coin(rng: &mut StdRng) -> bool {
    rng.gen_range(0..2usize) == 1
}

/// `n` items, `n` drawn from `lo..hi`.
fn many<T>(rng: &mut StdRng, lo: usize, hi: usize, f: impl Fn(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(lo..hi)).map(|_| f(rng)).collect()
}

/// One character of `first`, then up to `max_rest` of `rest`.
fn word(rng: &mut StdRng, first: &[u8], rest: &[u8], max_rest: usize) -> String {
    let mut w = String::from(char::from(pick(rng, first)));
    for _ in 0..rng.gen_range(0..=max_rest) {
        w.push(char::from(pick(rng, rest)));
    }
    w
}

/// An identifier that cannot collide with a keyword: `[a-z][a-z0-9_]{0,6}`.
fn ident(rng: &mut StdRng) -> String {
    loop {
        let w = word(rng, LOWER, LOWER_REST, 6);
        if !RESERVED.contains(&w.as_str()) {
            return w;
        }
    }
}

/// A variable name, not a reserved result name: `[A-Z][a-zA-Z0-9]{0,6}`.
fn upper_ident(rng: &mut StdRng) -> String {
    loop {
        let w = word(rng, UPPER, MIXED_REST, 6);
        if CostVar::parse(&w).is_none() && w != "String" {
            return w;
        }
    }
}

/// A whole number, or a double rounded to three decimals.
fn num(rng: &mut StdRng) -> f64 {
    if coin(rng) {
        rng.gen_range(0..1_000_000u64) as f64
    } else {
        (rng.gen_range(0.0..1e6) * 1e3).round() / 1e3
    }
}

/// Printable ASCII without backslashes; the printer escapes quotes.
fn string_lit(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..=12usize))
        .map(|_| match char::from(rng.gen_range(0x20..0x7fu64) as u8) {
            '\\' => 'x',
            c => c,
        })
        .collect()
}

const COMPARE_OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

fn path_seg(rng: &mut StdRng) -> PathSeg {
    if coin(rng) {
        PathSeg::Ident(ident(rng))
    } else {
        PathSeg::Var(upper_ident(rng))
    }
}

/// An expression at most `depth` operators deep.
fn expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..3usize) == 0 {
        return match rng.gen_range(0..5usize) {
            0 => Expr::Num(num(rng)),
            1 => Expr::Str(string_lit(rng)),
            2 => Expr::Ident(ident(rng)),
            3 => Expr::Var(upper_ident(rng)),
            _ => Expr::Path {
                base: if coin(rng) {
                    PathBase::Ident(ident(rng))
                } else {
                    PathBase::Var(upper_ident(rng))
                },
                segs: many(rng, 1, 3, path_seg),
            },
        };
    }
    match rng.gen_range(0..3usize) {
        0 => Expr::Neg(Box::new(expr(rng, depth - 1))),
        1 => {
            let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
            let l = expr(rng, depth - 1);
            Expr::Bin(op, Box::new(l), Box::new(expr(rng, depth - 1)))
        }
        _ => {
            let f = ident(rng);
            Expr::Call(f, many(rng, 0, 3, |rng| expr(rng, depth - 1)))
        }
    }
}

fn coll_term(rng: &mut StdRng) -> CollTerm {
    if coin(rng) {
        CollTerm::Named(ident(rng))
    } else {
        CollTerm::Var(upper_ident(rng))
    }
}

fn attr_term(rng: &mut StdRng) -> AttrTerm {
    if coin(rng) {
        AttrTerm::Named(ident(rng))
    } else {
        AttrTerm::Var(upper_ident(rng))
    }
}

fn select_pred(rng: &mut StdRng) -> HeadArg {
    let left = attr_term(rng);
    let op = pick(rng, &COMPARE_OPS);
    let right = match rng.gen_range(0..3usize) {
        0 => {
            let n = num(rng);
            PredRhs::Const(if n.fract() == 0.0 {
                Value::Long(n as i64)
            } else {
                Value::Double(n)
            })
        }
        1 => PredRhs::Const(Value::Str(string_lit(rng))),
        _ => PredRhs::Var(upper_ident(rng)),
    };
    HeadArg::Pred { left, op, right }
}

fn join_pred(rng: &mut StdRng) -> HeadArg {
    let left = attr_term(rng);
    let op = pick(rng, &COMPARE_OPS);
    let right = if coin(rng) {
        PredRhs::Ident(ident(rng))
    } else {
        PredRhs::Var(upper_ident(rng))
    };
    HeadArg::Pred { left, op, right }
}

fn head(rng: &mut StdRng) -> RuleHead {
    let coll = |rng: &mut StdRng| HeadArg::Coll(coll_term(rng));
    let any_pred = |rng: &mut StdRng| HeadArg::AnyPred(upper_ident(rng));
    let (op, args) = match rng.gen_range(0..9usize) {
        0 => (OperatorKind::Scan, vec![coll(rng)]),
        1 => {
            let c = coll(rng);
            let p = if coin(rng) {
                select_pred(rng)
            } else {
                any_pred(rng)
            };
            (OperatorKind::Select, vec![c, p])
        }
        2 => {
            let c = coll(rng);
            let p = if coin(rng) {
                HeadArg::AttrList(many(rng, 1, 4, ident))
            } else {
                any_pred(rng)
            };
            (OperatorKind::Project, vec![c, p])
        }
        3 => {
            let c = coll(rng);
            (OperatorKind::Sort, vec![c, HeadArg::Attr(attr_term(rng))])
        }
        4 => {
            let (a, b) = (coll(rng), coll(rng));
            let p = if coin(rng) {
                join_pred(rng)
            } else {
                any_pred(rng)
            };
            (OperatorKind::Join, vec![a, b, p])
        }
        5 => (OperatorKind::Union, vec![coll(rng), coll(rng)]),
        6 => (OperatorKind::Dedup, vec![coll(rng)]),
        7 => (OperatorKind::Aggregate, vec![coll(rng)]),
        _ => (OperatorKind::Submit, vec![coll(rng)]),
    };
    RuleHead { op, args }
}

fn stmt(rng: &mut StdRng) -> Stmt {
    if coin(rng) {
        Stmt::Let {
            name: ident(rng),
            expr: expr(rng, 3),
        }
    } else {
        Stmt::Assign {
            var: pick(rng, &CostVar::ALL),
            expr: expr(rng, 3),
        }
    }
}

fn rule(rng: &mut StdRng) -> RuleDef {
    RuleDef {
        head: head(rng),
        body: many(rng, 0, 5, stmt),
    }
}

fn interface(rng: &mut StdRng) -> InterfaceDef {
    const TYPES: [DataType; 4] = [
        DataType::Long,
        DataType::Double,
        DataType::Str,
        DataType::Bool,
    ];
    InterfaceDef {
        name: upper_ident(rng),
        attributes: many(rng, 0, 4, |rng| (ident(rng), pick(rng, &TYPES))),
        extent: coin(rng).then(|| CardExtent {
            count_object: rng.gen_range(0..1_000_000u64),
            total_size: rng.gen_range(0..100_000_000u64),
            object_size: rng.gen_range(1..10_000u64),
        }),
        attribute_cards: many(rng, 0, 3, |rng| CardAttribute {
            attribute: ident(rng),
            indexed: coin(rng),
            count_distinct: rng.gen_range(1..100_000u64),
            min: Value::Long(rng.gen_range(-1_000..1_000i64)),
            max: Value::Long(rng.gen_range(0..1_000_000i64)),
        }),
        rules: many(rng, 0, 2, rule),
    }
}

fn document(rng: &mut StdRng) -> Document {
    Document {
        lets: many(rng, 0, 3, |rng| LetDef {
            name: ident(rng),
            expr: expr(rng, 3),
        }),
        funcs: many(rng, 0, 2, |rng| FuncDef {
            name: ident(rng),
            params: many(rng, 0, 3, upper_ident),
            body: expr(rng, 3),
        }),
        rules: many(rng, 0, 4, rule),
        interfaces: many(rng, 0, 2, interface),
    }
}

#[test]
fn print_parse_round_trip() {
    for seed in 0..CASES {
        let doc = document(&mut seeded(seed, "costlang-roundtrip"));
        let printed = print_document(&doc);
        let reparsed = parse_document(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: reparse failed: {e}\n--- printed ---\n{printed}")
        });
        assert_eq!(doc, reparsed, "seed {seed}\n--- printed ---\n{printed}");
    }
}
