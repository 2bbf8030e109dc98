//! The benchmark's own evaluator: naive filter, hash join, group-by and
//! multiset comparison over plain rows. It shares no code with the
//! program's engines, so agreeing with it means the answer is right, not
//! merely that two engines of the program agree with each other.

use std::collections::{BTreeMap, HashMap};

use disco_common::{Tuple, Value};

pub type Row = Vec<Value>;

fn long(row: &Row, col: usize) -> i64 {
    row[col]
        .as_i64()
        .expect("oracle inputs are integral in every compared column")
}

/// Rows with `row[col] < bound`.
pub fn filter_lt(rows: &[Row], col: usize, bound: i64) -> Vec<Row> {
    rows.iter()
        .filter(|r| long(r, col) < bound)
        .cloned()
        .collect()
}

/// Equijoin on integral keys; output rows are `left ++ right`.
pub fn hash_join(left: &[Row], lcol: usize, right: &[Row], rcol: usize) -> Vec<Row> {
    let mut index: HashMap<i64, Vec<&Row>> = HashMap::new();
    for r in right {
        index.entry(long(r, rcol)).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left {
        for r in index.get(&long(l, lcol)).into_iter().flatten() {
            out.push(l.iter().chain(r.iter()).cloned().collect());
        }
    }
    out
}

/// The given columns of every row, in the given order.
pub fn project(rows: &[Row], cols: &[usize]) -> Vec<Row> {
    rows.iter()
        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
        .collect()
}

/// `SELECT key, COUNT(*), SUM(sum_col) … GROUP BY key`. The program's
/// `SUM` yields a double, so the oracle's does too.
pub fn group_count_sum(rows: &[Row], key: usize, sum_col: usize) -> Vec<Row> {
    let mut groups: BTreeMap<String, (Value, i64, i64)> = BTreeMap::new();
    for r in rows {
        let g = groups
            .entry(format!("{:?}", r[key]))
            .or_insert_with(|| (r[key].clone(), 0, 0));
        g.1 += 1;
        g.2 += long(r, sum_col);
    }
    groups
        .into_values()
        .map(|(k, n, sum)| vec![k, Value::Long(n), Value::Double(sum as f64)])
        .collect()
}

/// A cell reduced to something totally ordered. Integral doubles and
/// longs compare equal, as they do in the program's own comparisons.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    /// Bit pattern of a non-integral double.
    Float(u64),
    Str(String),
}

fn cell(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Bool(b) => Cell::Bool(*b),
        Value::Long(n) => Cell::Int(*n),
        Value::Double(d) if d.fract() == 0.0 && d.abs() < 9e15 => Cell::Int(*d as i64),
        Value::Double(d) => Cell::Float(d.to_bits()),
        Value::Str(s) => Cell::Str(s.clone()),
    }
}

fn sorted_cells<'a>(rows: impl Iterator<Item = &'a [Value]>) -> Vec<Vec<Cell>> {
    let mut out: Vec<Vec<Cell>> = rows.map(|r| r.iter().map(cell).collect()).collect();
    out.sort();
    out
}

/// `sub` ⊆ `sup` as multisets, both ascending.
fn sorted_sub_multiset<T: Ord>(sub: &[T], sup: &[T]) -> bool {
    let mut rest = sup.iter();
    sub.iter().all(|x| rest.by_ref().any(|y| y == x))
}

/// What the oracle expects of one answer.
#[derive(Debug, Clone)]
pub struct Expected {
    pub rows: Vec<Row>,
    /// `LIMIT n` without `ORDER BY`: any `min(n, |rows|)` of the rows.
    pub limit: Option<usize>,
}

impl Expected {
    /// Rows a correct answer holds.
    pub fn count(&self) -> usize {
        self.limit
            .map_or(self.rows.len(), |n| n.min(self.rows.len()))
    }

    /// Compare an answer as a sorted multiset.
    pub fn matches(&self, got: &[Tuple]) -> bool {
        if got.len() != self.count() {
            return false;
        }
        let got = sorted_cells(got.iter().map(Tuple::values));
        let want = sorted_cells(self.rows.iter().map(Vec::as_slice));
        match self.limit {
            None => got == want,
            Some(_) => sorted_sub_multiset(&got, &want),
        }
    }

    /// Compare an answer rendered by `federation_server` (`ROW` lines of
    /// tab-separated `{:?}` values).
    pub fn matches_rendered(&self, got: &[String]) -> bool {
        let mut got = got.to_vec();
        got.sort();
        let mut want: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|v| format!("{v:?}")).collect();
                cells.join("\t")
            })
            .collect();
        want.sort();
        got == want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten rows `(i, i % 3, 10 * i)`.
    fn ten() -> Vec<Row> {
        (0..10)
            .map(|i| vec![Value::Long(i), Value::Long(i % 3), Value::Long(10 * i)])
            .collect()
    }

    fn tuples(rows: &[Row]) -> Vec<Tuple> {
        rows.iter().cloned().map(Tuple::new).collect()
    }

    #[test]
    fn filter_project_on_ten_rows() {
        let got = project(&filter_lt(&ten(), 0, 3), &[2]);
        assert_eq!(
            got,
            vec![
                vec![Value::Long(0)],
                vec![Value::Long(10)],
                vec![Value::Long(20)]
            ]
        );
        assert!(filter_lt(&ten(), 2, 0).is_empty());
    }

    #[test]
    fn hash_join_on_ten_rows() {
        // Join the ten rows with three dimension rows on `i % 3`.
        let dims: Vec<Row> = (0..3)
            .map(|k| vec![Value::Long(k), Value::Str(format!("z{k}"))])
            .collect();
        let joined = hash_join(&ten(), 1, &dims, 0);
        assert_eq!(joined.len(), 10);
        assert!(joined.iter().all(|r| r.len() == 5 && r[1] == r[3]));
        // A key with no partner drops out; a repeated key multiplies.
        let twice = [dims[1].clone(), dims[1].clone()];
        assert_eq!(hash_join(&ten(), 1, &twice, 0).len(), 6);
    }

    #[test]
    fn group_by_on_ten_rows() {
        let got = group_count_sum(&ten(), 1, 2);
        // Keys 0,1,2 hold {0,3,6,9}, {1,4,7}, {2,5,8}.
        assert_eq!(
            got,
            vec![
                vec![Value::Long(0), Value::Long(4), Value::Double(180.0)],
                vec![Value::Long(1), Value::Long(3), Value::Double(120.0)],
                vec![Value::Long(2), Value::Long(3), Value::Double(150.0)],
            ]
        );
    }

    #[test]
    fn multiset_comparison_ignores_order_not_multiplicity() {
        let rows = project(&ten(), &[1]);
        let want = Expected {
            rows: rows.clone(),
            limit: None,
        };
        let mut shuffled = tuples(&rows);
        shuffled.reverse();
        assert!(want.matches(&shuffled));
        // Same length, one value swapped for another: multiplicities differ.
        shuffled[0] = Tuple::new(vec![Value::Long(1)]);
        assert!(!want.matches(&shuffled));
        // A long and an integral double are the same cell.
        let sum = Expected {
            rows: vec![vec![Value::Double(30.0)]],
            limit: None,
        };
        assert!(sum.matches(&[Tuple::new(vec![Value::Long(30)])]));
    }

    #[test]
    fn limit_accepts_any_subset_of_the_right_size() {
        let want = Expected {
            rows: project(&ten(), &[0]),
            limit: Some(4),
        };
        assert_eq!(want.count(), 4);
        let pick = |ids: &[i64]| -> Vec<Tuple> {
            ids.iter()
                .map(|&i| Tuple::new(vec![Value::Long(i)]))
                .collect()
        };
        assert!(want.matches(&pick(&[9, 0, 4, 2])));
        assert!(!want.matches(&pick(&[9, 0, 4])), "too few rows");
        assert!(!want.matches(&pick(&[9, 9, 4, 2])), "a row taken twice");
        assert!(
            !want.matches(&pick(&[9, 0, 4, 12])),
            "a row not in the answer"
        );
        let short = Expected {
            rows: project(&filter_lt(&ten(), 0, 2), &[0]),
            limit: Some(4),
        };
        assert_eq!(short.count(), 2);
        assert!(short.matches(&pick(&[1, 0])));
    }

    #[test]
    fn rendered_rows_compare_as_the_server_prints_them() {
        let want = Expected {
            rows: project(&filter_lt(&ten(), 0, 2), &[0, 2]),
            limit: None,
        };
        let got = vec![
            "Long(1)\tLong(10)".to_string(),
            "Long(0)\tLong(0)".to_string(),
        ];
        assert!(want.matches_rendered(&got));
        assert!(!want.matches_rendered(&got[..1]));
    }
}
