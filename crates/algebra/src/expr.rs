//! Scalar expressions and aggregate function descriptors.
//!
//! Projection lists and aggregate operators need a small expression
//! vocabulary: attribute references, constants, and arithmetic. This stays
//! deliberately minimal — the paper's algebra projects attributes and
//! computes classical aggregates (`sum`, `average`, …); anything richer
//! belongs to the data sources themselves.

use std::fmt;

use disco_common::{DiscoError, Result, Schema, Tuple, Value, ValueRef};

/// Aggregate functions of the paper's aggregate operator (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Lower-case SQL-ish name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar expression over the attributes of one input schema.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Reference to an attribute by name.
    Attr(String),
    /// Literal constant.
    Const(Value),
    /// Arithmetic on two numeric subexpressions.
    Binary {
        op: ArithOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
}

/// Arithmetic operators available in projection expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

impl ScalarExpr {
    /// Attribute reference.
    pub fn attr(name: impl Into<String>) -> Self {
        ScalarExpr::Attr(name.into())
    }

    /// Constant.
    pub fn constant(v: impl Into<Value>) -> Self {
        ScalarExpr::Const(v.into())
    }

    /// Attribute names referenced by this expression, appended to `out`.
    pub fn collect_attrs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ScalarExpr::Attr(n) => out.push(n),
            ScalarExpr::Const(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.collect_attrs(out);
                right.collect_attrs(out);
            }
        }
    }

    /// Evaluate against a tuple with the given schema.
    ///
    /// Arithmetic is numeric: non-numeric operands are an [`DiscoError::Exec`]
    /// error, as is division by zero.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<Value> {
        self.eval_cells(schema, &|i| {
            tuple.get(i).map_or(ValueRef::Null, ValueRef::from_value)
        })
    }

    /// [`Self::eval`] over a row read cell by cell: `cell(i)` is the row's
    /// value of attribute `i`, so a columnar row needs no [`Tuple`].
    pub fn eval_cells<'a>(
        &self,
        schema: &Schema,
        cell: &dyn Fn(usize) -> ValueRef<'a>,
    ) -> Result<Value> {
        match self {
            ScalarExpr::Attr(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| DiscoError::Exec(format!("unknown attribute `{name}`")))?;
                Ok(cell(idx).to_value())
            }
            ScalarExpr::Const(v) => Ok(v.clone()),
            ScalarExpr::Binary { op, left, right } => {
                let l = left.eval_cells(schema, cell)?;
                let r = right.eval_cells(schema, cell)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                let (a, b) = match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return Err(DiscoError::Exec(format!(
                            "arithmetic on non-numeric values {l} {} {r}",
                            op.symbol()
                        )))
                    }
                };
                let out = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => {
                        if b == 0.0 {
                            return Err(DiscoError::Exec("division by zero".into()));
                        }
                        a / b
                    }
                };
                // Keep integral results integral when both inputs were Longs.
                if matches!(
                    (&l, &r, op),
                    (Value::Long(_), Value::Long(_), ArithOp::Add)
                        | (Value::Long(_), Value::Long(_), ArithOp::Sub)
                        | (Value::Long(_), Value::Long(_), ArithOp::Mul)
                ) {
                    Ok(Value::Long(out as i64))
                } else {
                    Ok(Value::Double(out))
                }
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Attr(n) => f.write_str(n),
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::{AttributeDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("x", DataType::Long),
            AttributeDef::new("y", DataType::Double),
        ])
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![Value::Long(4), Value::Double(2.5)])
    }

    #[test]
    fn attr_and_const() {
        let s = schema();
        let t = tuple();
        assert_eq!(ScalarExpr::attr("x").eval(&s, &t).unwrap(), Value::Long(4));
        assert_eq!(
            ScalarExpr::constant(7i64).eval(&s, &t).unwrap(),
            Value::Long(7)
        );
    }

    #[test]
    fn integer_arithmetic_stays_integral() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Mul,
            left: Box::new(ScalarExpr::attr("x")),
            right: Box::new(ScalarExpr::constant(3i64)),
        };
        assert_eq!(e.eval(&schema(), &tuple()).unwrap(), Value::Long(12));
    }

    #[test]
    fn mixed_arithmetic_is_double() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::attr("x")),
            right: Box::new(ScalarExpr::attr("y")),
        };
        assert_eq!(e.eval(&schema(), &tuple()).unwrap(), Value::Double(6.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::attr("x")),
            right: Box::new(ScalarExpr::constant(0i64)),
        };
        assert_eq!(e.eval(&schema(), &tuple()).unwrap_err().kind(), "exec");
    }

    #[test]
    fn unknown_attribute_errors() {
        let e = ScalarExpr::attr("zz");
        assert_eq!(e.eval(&schema(), &tuple()).unwrap_err().kind(), "exec");
    }

    #[test]
    fn null_propagates() {
        let s = schema();
        let t = Tuple::new(vec![Value::Null, Value::Double(1.0)]);
        let e = ScalarExpr::Binary {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::attr("x")),
            right: Box::new(ScalarExpr::attr("y")),
        };
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Null);
    }

    #[test]
    fn collect_attrs_walks_tree() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Add,
            left: Box::new(ScalarExpr::attr("x")),
            right: Box::new(ScalarExpr::Binary {
                op: ArithOp::Mul,
                left: Box::new(ScalarExpr::attr("y")),
                right: Box::new(ScalarExpr::constant(2i64)),
            }),
        };
        let mut attrs = Vec::new();
        e.collect_attrs(&mut attrs);
        assert_eq!(attrs, vec!["x", "y"]);
    }

    #[test]
    fn display_nested() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Div,
            left: Box::new(ScalarExpr::attr("x")),
            right: Box::new(ScalarExpr::constant(2i64)),
        };
        assert_eq!(e.to_string(), "(x / 2)");
    }
}
