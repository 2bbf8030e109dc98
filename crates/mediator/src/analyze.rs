//! Semantic analysis: resolve a parsed query against the catalog.
//!
//! Produces the mediator's internal form: table bindings, per-table
//! selections, cross-table join conditions, the final projection (over
//! `alias.column`-qualified names, which keeps attribute names unique
//! after joins), optional aggregation, and per-table column requirements
//! (for projection pushdown).

use disco_algebra::expr::ArithOp;
use disco_algebra::logical::AggExpr;
use disco_algebra::{CompareOp, ScalarExpr, SelectPredicate};
use disco_catalog::Catalog;
use disco_common::{DiscoError, QualifiedName, Result, Schema};

use crate::sql::{ArithTok, ColRef, Condition, Query, SqlExpr};

/// One FROM-clause table resolved against the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBinding {
    /// Alias (or collection name) used to qualify columns.
    pub alias: String,
    /// Registered collection address.
    pub qname: QualifiedName,
    /// The collection's schema (raw attribute names).
    pub schema: Schema,
}

/// A cross-table join condition (raw attribute names on both sides).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCond {
    pub left_table: usize,
    pub left_attr: String,
    pub op: CompareOp,
    pub right_table: usize,
    pub right_attr: String,
}

/// The analyzed query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    pub tables: Vec<TableBinding>,
    /// Per-table restrictions, raw attribute names.
    pub selections: Vec<(usize, SelectPredicate)>,
    /// Cross-table joins.
    pub joins: Vec<JoinCond>,
    /// Final projection over qualified (`alias.column`) names.
    pub output: Vec<(String, ScalarExpr)>,
    /// Group-by keys (qualified names); meaningful when `aggs` is
    /// non-empty or `group_by` was written explicitly.
    pub group_by: Vec<String>,
    /// Aggregate outputs (arguments use qualified names).
    pub aggs: Vec<AggExpr>,
    pub distinct: bool,
    /// Order-by over *output* column names.
    pub order_by: Vec<(String, bool)>,
    /// `LIMIT n` cap on the answer, if written.
    pub limit: Option<u64>,
    /// Raw columns needed from each table (projection pushdown).
    pub needed: Vec<Vec<String>>,
}

impl AnalyzedQuery {
    /// `true` when the query aggregates.
    pub fn is_aggregate(&self) -> bool {
        !self.aggs.is_empty() || !self.group_by.is_empty()
    }
}

/// Analyze a parsed query against the catalog.
pub fn analyze(query: &Query, catalog: &Catalog) -> Result<AnalyzedQuery> {
    // --- FROM: resolve tables -----------------------------------------
    // The optimizer's join graph keeps one bit per table in a `u64`.
    if query.from.len() > 64 {
        return Err(DiscoError::Unsupported(format!(
            "queries over more than 64 tables are not supported ({} given)",
            query.from.len()
        )));
    }
    let mut tables: Vec<TableBinding> = Vec::with_capacity(query.from.len());
    for t in &query.from {
        let qname = match &t.wrapper {
            Some(w) => {
                let q = QualifiedName::new(w.clone(), t.collection.clone());
                catalog.collection(&q)?;
                q
            }
            None => catalog.resolve(&t.collection)?,
        };
        let schema = catalog.collection(&qname)?.schema.clone();
        let alias = t.binding_name().to_owned();
        if tables.iter().any(|b| b.alias == alias) {
            return Err(DiscoError::Catalog(format!(
                "duplicate table alias `{alias}` in FROM"
            )));
        }
        tables.push(TableBinding {
            alias,
            qname,
            schema,
        });
    }

    let resolver = Resolver { tables: &tables };

    // --- WHERE: classify conditions ------------------------------------
    let mut selections = Vec::new();
    let mut joins = Vec::new();
    for cond in &query.where_ {
        match cond {
            Condition::Restriction { col, op, value } => {
                let (t, attr) = resolver.resolve(col)?;
                selections.push((t, SelectPredicate::new(attr, *op, value.clone())));
            }
            Condition::ColCompare { left, op, right } => {
                let (lt, la) = resolver.resolve(left)?;
                let (rt, ra) = resolver.resolve(right)?;
                if lt == rt {
                    return Err(DiscoError::Unsupported(format!(
                        "same-table column comparison `{left} {op} {right}` is not supported"
                    )));
                }
                // Normalize so left_table < right_table.
                let jc = if lt < rt {
                    JoinCond {
                        left_table: lt,
                        left_attr: la,
                        op: *op,
                        right_table: rt,
                        right_attr: ra,
                    }
                } else {
                    JoinCond {
                        left_table: rt,
                        left_attr: ra,
                        op: op.flipped(),
                        right_table: lt,
                        right_attr: la,
                    }
                };
                joins.push(jc);
            }
        }
    }

    // --- SELECT list ----------------------------------------------------
    let mut output: Vec<(String, ScalarExpr)> = Vec::new();
    let mut aggs: Vec<AggExpr> = Vec::new();
    let group_by: Vec<String> = query
        .group_by
        .iter()
        .map(|c| resolver.qualified(c))
        .collect::<Result<_>>()?;

    match &query.select {
        None => {
            // SELECT *: every column of every table; bare names when
            // unique, qualified otherwise.
            for (ti, b) in tables.iter().enumerate() {
                for a in b.schema.attributes() {
                    let unique = tables
                        .iter()
                        .enumerate()
                        .filter(|(tj, o)| *tj != ti && o.schema.index_of(&a.name).is_some())
                        .count()
                        == 0;
                    let out_name = if unique {
                        a.name.clone()
                    } else {
                        format!("{}.{}", b.alias, a.name)
                    };
                    let qualified = format!("{}.{}", b.alias, a.name);
                    output.push((out_name, ScalarExpr::attr(qualified)));
                }
            }
            if !group_by.is_empty() {
                return Err(DiscoError::Unsupported(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ));
            }
        }
        Some(items) => {
            let has_agg = items.iter().any(|i| matches!(i.expr, SqlExpr::Agg(..)));
            for (i, item) in items.iter().enumerate() {
                match &item.expr {
                    SqlExpr::Agg(func, arg) => {
                        let arg_q = match arg {
                            Some(c) => Some(resolver.qualified(c)?),
                            None => None,
                        };
                        let name = item.alias.clone().unwrap_or_else(|| match &arg_q {
                            Some(a) => format!("{}_{}", func.name(), a.replace('.', "_")),
                            None => func.name().to_owned(),
                        });
                        aggs.push(AggExpr {
                            name: name.clone(),
                            func: *func,
                            arg: arg_q,
                        });
                        // Projection keeps the aggregate output by name.
                        output.push((name.clone(), ScalarExpr::attr(name)));
                    }
                    expr => {
                        let scalar = resolver.scalar(expr)?;
                        let name = item.alias.clone().unwrap_or_else(|| match expr {
                            SqlExpr::Col(c) => c.column.clone(),
                            _ => format!("col{}", i + 1),
                        });
                        if has_agg || !group_by.is_empty() {
                            // Non-aggregate items must be group-by keys.
                            let q = match expr {
                                SqlExpr::Col(c) => resolver.qualified(c)?,
                                _ => {
                                    return Err(DiscoError::Unsupported(
                                        "non-column expressions beside aggregates must appear \
                                         in GROUP BY"
                                            .into(),
                                    ))
                                }
                            };
                            if !group_by.contains(&q) {
                                return Err(DiscoError::Plan(format!(
                                    "`{q}` appears in SELECT but not in GROUP BY"
                                )));
                            }
                            output.push((name, ScalarExpr::attr(q)));
                        } else {
                            output.push((name, scalar));
                        }
                    }
                }
            }
            if !group_by.is_empty() && !has_agg && aggs.is_empty() {
                // GROUP BY without aggregates behaves like DISTINCT on keys;
                // model with a count we drop at projection time? Keep strict:
                return Err(DiscoError::Unsupported(
                    "GROUP BY without aggregates is not supported; use DISTINCT".into(),
                ));
            }
        }
    }

    // Duplicate output names are ambiguous downstream.
    for (i, (n, _)) in output.iter().enumerate() {
        if output.iter().skip(i + 1).any(|(m, _)| m == n) {
            return Err(DiscoError::Plan(format!("duplicate output column `{n}`")));
        }
    }

    // --- ORDER BY: must name an output column ---------------------------
    let mut order_by = Vec::new();
    for (col, asc) in &query.order_by {
        let name = resolve_order_col(col, &output, &resolver)?;
        order_by.push((name, *asc));
    }

    // --- needed columns per table ---------------------------------------
    let mut needed: Vec<Vec<String>> = vec![Vec::new(); tables.len()];
    let need = |t: usize, col: &str, needed: &mut Vec<Vec<String>>| {
        if !needed[t].iter().any(|c| c == col) {
            needed[t].push(col.to_owned());
        }
    };
    for (t, p) in &selections {
        need(*t, &p.attribute, &mut needed);
    }
    for j in &joins {
        need(j.left_table, &j.left_attr, &mut needed);
        need(j.right_table, &j.right_attr, &mut needed);
    }
    // Qualified references in output, group-by and aggregates.
    let mut qualified_refs: Vec<String> = Vec::new();
    for (_, e) in &output {
        let mut attrs = Vec::new();
        e.collect_attrs(&mut attrs);
        qualified_refs.extend(attrs.iter().map(|s| (*s).to_owned()));
    }
    qualified_refs.extend(group_by.iter().cloned());
    qualified_refs.extend(aggs.iter().filter_map(|a| a.arg.clone()));
    for q in qualified_refs {
        if let Some((alias, col)) = q.split_once('.') {
            if let Some(t) = tables.iter().position(|b| b.alias == alias) {
                if tables[t].schema.index_of(col).is_some() {
                    need(t, col, &mut needed);
                }
            }
        }
    }

    Ok(AnalyzedQuery {
        tables,
        selections,
        joins,
        output,
        group_by,
        aggs,
        distinct: query.distinct,
        order_by,
        limit: query.limit,
        needed,
    })
}

fn resolve_order_col(
    col: &ColRef,
    output: &[(String, ScalarExpr)],
    resolver: &Resolver<'_>,
) -> Result<String> {
    // A bare name matching an output column wins.
    if col.table.is_none() && output.iter().any(|(n, _)| *n == col.column) {
        return Ok(col.column.clone());
    }
    // Otherwise the column must be projected; find the output whose
    // expression is exactly that attribute.
    let q = resolver.qualified(col)?;
    if let Some((name, _)) = output
        .iter()
        .find(|(_, e)| matches!(e, ScalarExpr::Attr(a) if *a == q))
    {
        return Ok(name.clone());
    }
    Err(DiscoError::Plan(format!(
        "ORDER BY column `{col}` must appear in the SELECT list"
    )))
}

struct Resolver<'a> {
    tables: &'a [TableBinding],
}

impl Resolver<'_> {
    /// Resolve to `(table index, raw attribute name)`.
    fn resolve(&self, col: &ColRef) -> Result<(usize, String)> {
        match &col.table {
            Some(alias) => {
                let t = self
                    .tables
                    .iter()
                    .position(|b| b.alias == *alias)
                    .ok_or_else(|| DiscoError::Catalog(format!("unknown table alias `{alias}`")))?;
                if self.tables[t].schema.index_of(&col.column).is_none() {
                    return Err(DiscoError::Catalog(format!(
                        "collection `{}` has no attribute `{}`",
                        self.tables[t].qname, col.column
                    )));
                }
                Ok((t, col.column.clone()))
            }
            None => {
                let matches: Vec<usize> = self
                    .tables
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.schema.index_of(&col.column).is_some())
                    .map(|(i, _)| i)
                    .collect();
                match matches.as_slice() {
                    [t] => Ok((*t, col.column.clone())),
                    [] => Err(DiscoError::Catalog(format!(
                        "unknown column `{}`",
                        col.column
                    ))),
                    _ => Err(DiscoError::Catalog(format!(
                        "column `{}` is ambiguous across tables; qualify it",
                        col.column
                    ))),
                }
            }
        }
    }

    /// Fully qualified (`alias.column`) name.
    fn qualified(&self, col: &ColRef) -> Result<String> {
        let (t, attr) = self.resolve(col)?;
        Ok(format!("{}.{attr}", self.tables[t].alias))
    }

    /// Convert a scalar SQL expression (no aggregates) to a plan
    /// expression over qualified names.
    fn scalar(&self, e: &SqlExpr) -> Result<ScalarExpr> {
        match e {
            SqlExpr::Col(c) => Ok(ScalarExpr::attr(self.qualified(c)?)),
            SqlExpr::Const(v) => Ok(ScalarExpr::Const(v.clone())),
            SqlExpr::Agg(..) => Err(DiscoError::Unsupported(
                "aggregates cannot be nested inside expressions".into(),
            )),
            SqlExpr::Arith { op, left, right } => Ok(ScalarExpr::Binary {
                op: match op {
                    ArithTok::Add => ArithOp::Add,
                    ArithTok::Sub => ArithOp::Sub,
                    ArithTok::Mul => ArithOp::Mul,
                    ArithTok::Div => ArithOp::Div,
                },
                left: Box::new(self.scalar(left)?),
                right: Box::new(self.scalar(right)?),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_query;
    use disco_catalog::{Capabilities, CollectionStats, ExtentStats};
    use disco_common::{AttributeDef, DataType};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_wrapper("hr", Capabilities::full()).unwrap();
        c.register_wrapper("fin", Capabilities::full()).unwrap();
        c.register_collection(
            "hr",
            "Employee",
            Schema::new(vec![
                AttributeDef::new("id", DataType::Long),
                AttributeDef::new("name", DataType::Str),
                AttributeDef::new("salary", DataType::Long),
                AttributeDef::new("dept_id", DataType::Long),
            ]),
            CollectionStats::new(ExtentStats::of(1000, 64)),
        )
        .unwrap();
        c.register_collection(
            "fin",
            "Dept",
            Schema::new(vec![
                AttributeDef::new("id", DataType::Long),
                AttributeDef::new("budget", DataType::Long),
            ]),
            CollectionStats::new(ExtentStats::of(50, 32)),
        )
        .unwrap();
        c
    }

    fn analyze_str(sql: &str) -> Result<AnalyzedQuery> {
        analyze(&parse_query(sql).unwrap(), &catalog())
    }

    #[test]
    fn resolves_tables_selections_joins() {
        let a = analyze_str(
            "SELECT e.name FROM Employee e, Dept d WHERE e.dept_id = d.id AND e.salary > 100",
        )
        .unwrap();
        assert_eq!(a.tables.len(), 2);
        assert_eq!(a.tables[0].qname, QualifiedName::new("hr", "Employee"));
        assert_eq!(a.tables[1].qname, QualifiedName::new("fin", "Dept"));
        assert_eq!(a.selections.len(), 1);
        assert_eq!(a.selections[0].0, 0);
        assert_eq!(a.joins.len(), 1);
        let j = &a.joins[0];
        assert_eq!((j.left_table, j.right_table), (0, 1));
        assert_eq!(j.left_attr, "dept_id");
        // Needed columns include join + selection + output attributes.
        assert!(a.needed[0].contains(&"name".to_string()));
        assert!(a.needed[0].contains(&"dept_id".to_string()));
        assert!(a.needed[0].contains(&"salary".to_string()));
        assert_eq!(a.needed[1], vec!["id".to_string()]);
    }

    #[test]
    fn join_condition_normalized() {
        // Written right-to-left: d.id = e.dept_id.
        let a =
            analyze_str("SELECT e.name FROM Employee e, Dept d WHERE d.id = e.dept_id").unwrap();
        let j = &a.joins[0];
        assert_eq!(j.left_table, 0);
        assert_eq!(j.left_attr, "dept_id");
        assert_eq!(j.right_attr, "id");
    }

    #[test]
    fn unqualified_unique_columns_resolve() {
        let a = analyze_str("SELECT name FROM Employee e WHERE salary > 10").unwrap();
        assert_eq!(a.output[0].0, "name");
        // `id` exists in both tables → ambiguous.
        let e = analyze_str("SELECT id FROM Employee e, Dept d WHERE e.dept_id = d.id");
        assert!(e.unwrap_err().message().contains("ambiguous"));
    }

    #[test]
    fn select_star_qualifies_duplicates() {
        let a = analyze_str("SELECT * FROM Employee e, Dept d WHERE e.dept_id = d.id").unwrap();
        assert_eq!(a.output.len(), 6);
        // `id` appears in both → qualified; `name` unique → bare.
        assert!(a.output.iter().any(|(n, _)| n == "e.id"));
        assert!(a.output.iter().any(|(n, _)| n == "d.id"));
        assert!(a.output.iter().any(|(n, _)| n == "name"));
    }

    #[test]
    fn aggregates_with_group_by() {
        let a = analyze_str(
            "SELECT d.id, COUNT(*) AS n, SUM(e.salary) FROM Employee e, Dept d \
             WHERE e.dept_id = d.id GROUP BY d.id",
        )
        .unwrap();
        assert!(a.is_aggregate());
        assert_eq!(a.group_by, vec!["d.id".to_string()]);
        assert_eq!(a.aggs.len(), 2);
        assert_eq!(a.aggs[0].name, "n");
        assert_eq!(a.aggs[1].arg.as_deref(), Some("e.salary"));
        assert_eq!(a.output.len(), 3);
    }

    #[test]
    fn non_grouped_select_item_rejected() {
        let e = analyze_str(
            "SELECT e.name, COUNT(*) FROM Employee e, Dept d WHERE e.dept_id = d.id \
             GROUP BY d.id",
        );
        assert!(e.unwrap_err().message().contains("GROUP BY"));
    }

    #[test]
    fn order_by_output_names() {
        let a = analyze_str("SELECT e.name AS who FROM Employee e ORDER BY who").unwrap();
        assert_eq!(a.order_by, vec![("who".to_string(), true)]);
        let a = analyze_str("SELECT e.name FROM Employee e ORDER BY e.name DESC").unwrap();
        assert_eq!(a.order_by, vec![("name".to_string(), false)]);
        let e = analyze_str("SELECT e.name FROM Employee e ORDER BY e.salary");
        assert!(e.is_err());
    }

    #[test]
    fn same_table_compare_rejected() {
        let e = analyze_str("SELECT e.name FROM Employee e WHERE e.id = e.dept_id");
        assert_eq!(e.unwrap_err().kind(), "unsupported");
    }

    #[test]
    fn duplicate_alias_rejected() {
        let e = analyze_str("SELECT 1 FROM Employee e, Dept e");
        assert!(e.unwrap_err().message().contains("duplicate"));
    }

    #[test]
    fn wrapper_qualified_table() {
        let a = analyze_str("SELECT name FROM hr.Employee").unwrap();
        assert_eq!(a.tables[0].qname.wrapper, "hr");
        assert!(analyze_str("SELECT name FROM fin.Employee").is_err());
    }

    #[test]
    fn expression_output() {
        let a = analyze_str("SELECT e.salary * 2 AS pay FROM Employee e").unwrap();
        assert_eq!(a.output[0].0, "pay");
        assert!(matches!(a.output[0].1, ScalarExpr::Binary { .. }));
        assert!(a.needed[0].contains(&"salary".to_string()));
    }
}
