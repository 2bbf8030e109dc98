//! Property test: the bytecode VM computes exactly what a direct AST
//! interpreter computes, for generated rule bodies. Seeded loops on
//! `disco_common::rng`, deterministic per seed.

use std::collections::HashMap;

use disco_common::rng::{seeded, StdRng};
use disco_common::Value;
use disco_costlang::ast::{BinOp, CostVar, Expr, PathLeaf, Stmt};
use disco_costlang::bytecode::{AttrSpec, CollSpec};
use disco_costlang::{compile_body, eval_program, EvalEnv};

const CASES: u64 = 512;

/// Fixed environment both evaluators see.
struct FixedEnv;

const PARAMS: [(&str, f64); 3] = [("p0", 4096.0), ("p1", 25.0), ("p2", 0.5)];
const BINDINGS: [(&str, f64); 2] = [("V", 77.0), ("W", -3.0)];
const SELF_VARS: [(CostVar, f64); 5] = [
    (CostVar::TimeFirst, 1.0),
    (CostVar::TimeNext, 2.0),
    (CostVar::TotalTime, 3.0),
    (CostVar::CountObject, 40.0),
    (CostVar::TotalSize, 500.0),
];

impl EvalEnv for FixedEnv {
    fn path(&self, _c: &CollSpec, _a: Option<&AttrSpec>, leaf: PathLeaf) -> Option<Value> {
        // Deterministic per-leaf values.
        let v = match leaf {
            PathLeaf::Stat(s) => 100.0 + format!("{s:?}").len() as f64,
            PathLeaf::Cost(c) => 200.0 + c.name().len() as f64,
        };
        Some(Value::Double(v))
    }
    fn binding(&self, name: &str) -> Option<Value> {
        BINDINGS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| Value::Double(*v))
    }
    fn param(&self, name: &str) -> Option<Value> {
        PARAMS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| Value::Double(*v))
    }
    fn self_var(&self, var: CostVar) -> Option<f64> {
        SELF_VARS.iter().find(|(v, _)| *v == var).map(|(_, x)| *x)
    }
    fn call(&self, func: &str, args: &[Value]) -> Option<Value> {
        if func == "extfn" {
            let sum: f64 = args.iter().filter_map(Value::as_f64).sum();
            Some(Value::Double(sum + 1.0))
        } else {
            None
        }
    }
}

/// Reference AST interpreter mirroring the VM's semantics.
fn eval_ref(
    e: &Expr,
    locals: &HashMap<String, f64>,
    assigned: &HashMap<CostVar, f64>,
) -> Option<f64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Str(_) => None, // strings in arithmetic are errors either way
        Expr::Ident(name) => {
            if let Some(v) = locals.get(name) {
                return Some(*v);
            }
            if let Some(var) = CostVar::parse(name) {
                // Locals shadow; otherwise the node's self variable.
                if let Some(v) = assigned.get(&var) {
                    return Some(*v);
                }
                return FixedEnv.self_var(var);
            }
            FixedEnv.param(name).and_then(|v| v.as_f64())
        }
        Expr::Var(v) => FixedEnv.binding(v).and_then(|v| v.as_f64()),
        Expr::Path { .. } => None, // handled only via fixed leaf table; skipped in strategy
        Expr::Neg(inner) => Some(-eval_ref(inner, locals, assigned)?),
        Expr::Bin(op, l, r) => {
            let (a, b) = (
                eval_ref(l, locals, assigned)?,
                eval_ref(r, locals, assigned)?,
            );
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
            })
        }
        Expr::Call(f, args) => {
            let vals: Vec<f64> = args
                .iter()
                .map(|a| eval_ref(a, locals, assigned))
                .collect::<Option<_>>()?;
            match f.as_str() {
                "min" => Some(vals[0].min(vals[1])),
                "max" => Some(vals[0].max(vals[1])),
                "exp" => Some(vals[0].exp()),
                "ln" => Some(vals[0].ln()),
                "sqrt" => Some(vals[0].sqrt()),
                "abs" => Some(vals[0].abs()),
                "ceil" => Some(vals[0].ceil()),
                "floor" => Some(vals[0].floor()),
                "extfn" => Some(vals.iter().sum::<f64>() + 1.0),
                _ => None,
            }
        }
    }
}

/// Run a body through the reference interpreter.
fn run_ref(body: &[Stmt]) -> Option<Vec<(CostVar, f64)>> {
    let mut locals: HashMap<String, f64> = HashMap::new();
    let mut assigned: HashMap<CostVar, f64> = HashMap::new();
    let mut outputs = Vec::new();
    for s in body {
        match s {
            Stmt::Let { name, expr } => {
                let v = eval_ref(expr, &locals, &assigned)?;
                locals.insert(name.clone(), v);
            }
            Stmt::Assign { var, expr } => {
                let v = eval_ref(expr, &locals, &assigned)?;
                // VM stores assigned vars as locals named after the var.
                locals.insert(var.name().to_owned(), v);
                assigned.insert(*var, v);
                outputs.push((*var, v));
            }
        }
    }
    Some(outputs)
}

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

const LOCALS: [&str; 3] = ["x", "y", "z"];
const BIN_OPS: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];

/// A leaf: a number, a parameter, a head binding, a self variable or
/// one of the locals `defined` so far.
fn leaf(rng: &mut StdRng, defined: &[&str]) -> Expr {
    match rng.gen_range(0..4 + usize::from(!defined.is_empty())) {
        0 => Expr::Num(rng.gen_range(0.0..1000.0)),
        1 => Expr::Ident(pick(rng, &["p0", "p1", "p2"]).to_string()),
        2 => Expr::Var(pick(rng, &["V", "W"]).to_string()),
        3 => Expr::Ident(pick(rng, &CostVar::ALL).name().to_string()),
        _ => Expr::Ident(pick(rng, defined).to_string()),
    }
}

/// An expression at most `depth` operators deep: negation, arithmetic,
/// `min`/`max`, one-argument builtins and an external function.
fn expr(rng: &mut StdRng, defined: &[&str], depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..3usize) == 0 {
        return leaf(rng, defined);
    }
    let sub = |rng: &mut StdRng| Box::new(expr(rng, defined, depth - 1));
    match rng.gen_range(0..5usize) {
        0 => Expr::Neg(sub(rng)),
        1 => {
            let op = pick(rng, &BIN_OPS);
            Expr::Bin(op, sub(rng), sub(rng))
        }
        2 => {
            let f = pick(rng, &["min", "max"]).to_string();
            Expr::Call(f, vec![*sub(rng), *sub(rng)])
        }
        3 => {
            let f = pick(rng, &["exp", "abs", "ceil", "floor"]).to_string();
            Expr::Call(f, vec![*sub(rng)])
        }
        _ => Expr::Call("extfn".to_string(), vec![*sub(rng), *sub(rng)]),
    }
}

/// Statements built in order, so later expressions may read earlier
/// locals.
fn body(rng: &mut StdRng) -> Vec<Stmt> {
    let (n1, n2, n3) = (pick(rng, &LOCALS), pick(rng, &LOCALS), pick(rng, &LOCALS));
    let e1 = expr(rng, &[], 3);
    let e2 = expr(rng, &[n1], 3);
    let e3 = expr(rng, &[n1, n2], 3);
    let (v1, v2) = (pick(rng, &CostVar::ALL), pick(rng, &CostVar::ALL));
    vec![
        Stmt::Let {
            name: n1.to_string(),
            expr: e1,
        },
        Stmt::Assign { var: v1, expr: e2 },
        Stmt::Let {
            name: n2.to_string(),
            expr: e3.clone(),
        },
        Stmt::Assign { var: v2, expr: e3 },
        Stmt::Let {
            name: n3.to_string(),
            expr: Expr::Num(1.0),
        },
    ]
}

/// Bodies that once diverged: a local shadowing a variable assigned
/// twice.
fn regressions() -> Vec<Vec<Stmt>> {
    let let_x = |expr| Stmt::Let {
        name: "x".into(),
        expr,
    };
    let minus_v = || {
        Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Neg(Box::new(Expr::Var("V".into())))),
            Box::new(Expr::Num(0.0)),
        )
    };
    vec![
        vec![
            let_x(Expr::Num(0.0)),
            Stmt::Assign {
                var: CostVar::TimeFirst,
                expr: Expr::Num(0.0),
            },
            let_x(minus_v()),
            Stmt::Assign {
                var: CostVar::TimeFirst,
                expr: minus_v(),
            },
            let_x(Expr::Num(1.0)),
        ],
        vec![
            let_x(Expr::Num(0.0)),
            Stmt::Assign {
                var: CostVar::TimeNext,
                expr: Expr::Num(407.6101084759291),
            },
            let_x(Expr::Num(0.0)),
            Stmt::Assign {
                var: CostVar::TimeNext,
                expr: Expr::Num(0.0),
            },
            let_x(Expr::Num(1.0)),
        ],
    ]
}

fn check(body: &[Stmt]) {
    let compiled = compile_body(body, &disco_costlang::compile::HeadVars::of(&["V", "W"])).unwrap();
    let vm = eval_program(&compiled.program, &FixedEnv);
    let reference = run_ref(body);
    match (vm, reference) {
        (Ok(locals), Some(expected)) => {
            // Last assignment per variable wins (matches output_slot).
            let mut last: HashMap<CostVar, f64> = HashMap::new();
            for (var, v) in expected {
                last.insert(var, v);
            }
            for (var, want) in last {
                let slot = compiled.output_slot(var).unwrap();
                let got = locals[slot as usize].as_f64().unwrap();
                // NaN == NaN for this comparison; exact bits otherwise.
                assert!(
                    got == want || (got.is_nan() && want.is_nan()),
                    "{var}: vm {got} != ref {want} for {body:?}"
                );
            }
        }
        (Err(_), None) => {} // both fail (division by zero)
        (vm, reference) => {
            panic!("divergence: vm {vm:?} vs ref {reference:?} for {body:?}");
        }
    }
}

#[test]
fn vm_matches_reference_interpreter() {
    for body in regressions() {
        check(&body);
    }
    for seed in 0..CASES {
        check(&body(&mut seeded(seed, "vm-reference")));
    }
}
