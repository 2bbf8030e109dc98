//! The polymorphic value type shared by data tuples, predicates and the cost
//! communication language.
//!
//! The paper encodes attribute minima/maxima in "a special polymorphic
//! `Constant` object" (Figure 4). [`Value`] plays that role here, and doubles
//! as the cell type for tuples so that predicate evaluation, statistics and
//! cost formulas all agree on one representation.

use std::cmp::Ordering;
use std::fmt;

use crate::batch::ValueRef;

/// Elementary types of the exported IDL interfaces (paper §3.1).
///
/// The paper's IDL subset has built-in elementary types; complex types
/// (tuple/sequence constructors) are represented structurally by the schema
/// layer, so only scalars appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean flag (e.g. the `Indexed` statistic).
    Bool,
    /// 64-bit signed integer; covers the IDL `short`/`long` family.
    Long,
    /// 64-bit IEEE float; used for measures and derived statistics.
    Double,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "boolean",
            DataType::Long => "long",
            DataType::Double => "double",
            DataType::Str => "string",
        };
        f.write_str(s)
    }
}

/// A polymorphic constant: the paper's `Constant` object.
///
/// `Value` is totally ordered *within* a type family (numbers order across
/// `Long`/`Double`); comparisons across incompatible families return `None`
/// from [`Value::partial_cmp_value`] and predicates treat them as
/// not-satisfied rather than panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent value (outer joins, missing statistics).
    Null,
    Bool(bool),
    Long(i64),
    Double(f64),
    Str(String),
}

impl Value {
    /// The runtime type of the value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Long(_) => Some(DataType::Long),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Numeric view of the value, if it is a number.
    ///
    /// The cost language is untyped-numeric: `Long` promotes to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Long(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view, truncating doubles with integral values.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Long(v) => Some(*v),
            Value::Double(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `true` if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compare two values where comparable.
    ///
    /// Numbers compare across `Long`/`Double`. `Null` compares equal to
    /// `Null` and less than everything else (a total order convenient for
    /// sorting); cross-family comparisons of non-null values yield `None`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order used for sorting tuples: extends
    /// [`partial_cmp_value`](Self::partial_cmp_value) by ranking
    /// incomparable families in a fixed order (`Null < Bool < numbers < Str`)
    /// and treating `NaN` as greater than all numbers.
    pub fn total_cmp_value(&self, other: &Value) -> Ordering {
        if let Some(ord) = self.partial_cmp_value(other) {
            return ord;
        }
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Long(_) | Value::Double(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => {
                // Same (numeric) rank but partial_cmp failed: NaN involved.
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
            ord => ord,
        }
    }

    /// Approximate serialized width in bytes, used by size statistics when a
    /// source does not export `ObjectSize`.
    pub fn width(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Long(_) => 8,
            Value::Double(_) => 8,
            Value::Str(s) => s.len() as u64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ValueRef::from_value(self).fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Long(3).partial_cmp_value(&Value::Double(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Long(2).partial_cmp_value(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(10.0).partial_cmp_value(&Value::Long(4)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incompatible_families_are_incomparable() {
        assert_eq!(
            Value::Long(1).partial_cmp_value(&Value::Str("1".into())),
            None
        );
        assert_eq!(Value::Bool(true).partial_cmp_value(&Value::Long(1)), None);
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(
            Value::Null.partial_cmp_value(&Value::Long(-100)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Null.partial_cmp_value(&Value::Null),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_order_handles_mixed_families() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Long(5),
            Value::Null,
            Value::Bool(false),
            Value::Double(1.5),
        ];
        vals.sort_by(|a, b| a.total_cmp_value(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[4], Value::Str("a".into()));
    }

    #[test]
    fn total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.total_cmp_value(&Value::Double(1.0)), Ordering::Greater);
        assert_eq!(nan.total_cmp_value(&nan), Ordering::Equal);
    }

    #[test]
    fn conversions_and_views() {
        assert_eq!(Value::from(3i64).as_i64(), Some(3));
        assert_eq!(Value::from(2.0).as_i64(), Some(2));
        assert_eq!(Value::from(2.5).as_i64(), None);
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(7i64).as_f64(), Some(7.0));
    }

    #[test]
    fn widths() {
        assert_eq!(Value::Long(1).width(), 8);
        assert_eq!(Value::Str("abcd".into()).width(), 4);
        assert_eq!(Value::Null.width(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Long(42).to_string(), "42");
        assert_eq!(Value::Str("x".into()).to_string(), "\"x\"");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
