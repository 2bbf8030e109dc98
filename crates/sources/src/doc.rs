//! A semi-structured document source (Tout-XML lineage).
//!
//! Collections hold nested documents — objects, arrays, scalars — and
//! the wrapper exposes them to the mediator through a *flattening
//! boundary*: each collection declares a set of path expressions
//! ([`DocField`]) that project the documents onto a flat relational
//! schema — straight into columns, once, when the collection is added —
//! and every `Scan` shares those columns, after which the ordinary
//! operator kernels (the mediator's own) apply unchanged.
//! Three path semantics cover the paper-adjacent predicate classes:
//!
//! * `Scalar` — `a.b.c = k`: the value at the path, `Null` when any
//!   step is missing;
//! * `Exists` — existence tests: a `Bool` column, `true` iff the path
//!   resolves to a non-null value;
//! * `Unnest` — array containment: one output row per element of the
//!   array at the path (no rows for an empty or missing array), so
//!   `array contains k` becomes an ordinary equality selection on the
//!   unnested column.
//!
//! Costs are navigation-dominated: every document pays one pointer
//! chase per path step, which is what [`DocSource::path_cost_rules`]
//! exports to the mediator as wrapper cost rules — a cost shape the
//! generic page-I/O model cannot express.

use std::convert::Infallible;
use std::sync::Arc;

use disco_algebra::LogicalPlan;
use disco_catalog::{CollectionStats, ExtentStats};
use disco_common::{
    AttributeDef, Batch, ColumnBuilder, DataType, DiscoError, Result, Schema, ValueRef,
};

use crate::clock::{CostProfile, VirtualClock};
use crate::source::{DataSource, SubAnswer};
use crate::walk::{self, Leaves};

/// A nested document value. Objects keep declaration order, which makes
/// flattening (and therefore every downstream answer) deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum DocValue {
    Null,
    Bool(bool),
    Long(i64),
    Double(f64),
    Str(String),
    Array(Vec<DocValue>),
    Object(Vec<(String, DocValue)>),
}

impl DocValue {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, DocValue)>) -> DocValue {
        DocValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array constructor.
    pub fn arr(items: impl IntoIterator<Item = DocValue>) -> DocValue {
        DocValue::Array(items.into_iter().collect())
    }

    /// Scalar view for the flat boundary; composites and `Null`
    /// flatten to a null cell.
    fn scalar(&self) -> ValueRef<'_> {
        match self {
            DocValue::Bool(b) => ValueRef::Bool(*b),
            DocValue::Long(n) => ValueRef::Long(*n),
            DocValue::Double(d) => ValueRef::Double(*d),
            DocValue::Str(s) => ValueRef::Str(s),
            DocValue::Null | DocValue::Array(_) | DocValue::Object(_) => ValueRef::Null,
        }
    }
}

impl From<i64> for DocValue {
    fn from(v: i64) -> Self {
        DocValue::Long(v)
    }
}
impl From<f64> for DocValue {
    fn from(v: f64) -> Self {
        DocValue::Double(v)
    }
}
impl From<&str> for DocValue {
    fn from(v: &str) -> Self {
        DocValue::Str(v.into())
    }
}
impl From<bool> for DocValue {
    fn from(v: bool) -> Self {
        DocValue::Bool(v)
    }
}

/// How a declared path flattens into a column.
#[derive(Debug, Clone, PartialEq)]
pub enum PathKind {
    /// The scalar at the path; `Null` when missing.
    Scalar(DataType),
    /// `true` iff the path resolves to a non-null value.
    Exists,
    /// One row per element of the array at the path.
    Unnest(DataType),
}

/// One declared path expression: exported column `name`, navigated
/// dotted `path`, flattening semantics `kind`.
#[derive(Debug, Clone, PartialEq)]
pub struct DocField {
    pub name: String,
    pub path: String,
    pub kind: PathKind,
}

impl DocField {
    pub fn scalar(name: impl Into<String>, path: impl Into<String>, ty: DataType) -> Self {
        DocField {
            name: name.into(),
            path: path.into(),
            kind: PathKind::Scalar(ty),
        }
    }

    pub fn exists(name: impl Into<String>, path: impl Into<String>) -> Self {
        DocField {
            name: name.into(),
            path: path.into(),
            kind: PathKind::Exists,
        }
    }

    pub fn unnest(name: impl Into<String>, path: impl Into<String>, ty: DataType) -> Self {
        DocField {
            name: name.into(),
            path: path.into(),
            kind: PathKind::Unnest(ty),
        }
    }

    fn ty(&self) -> DataType {
        match &self.kind {
            PathKind::Scalar(ty) | PathKind::Unnest(ty) => *ty,
            PathKind::Exists => DataType::Bool,
        }
    }

    fn depth(&self) -> usize {
        self.path.split('.').count()
    }
}

/// One document collection with its flattening declaration, and the
/// columns its documents flattened into once, when it was added.
#[derive(Debug, Clone)]
struct DocCollection {
    name: String,
    fields: Vec<DocField>,
    doc_count: usize,
    flat: Batch,
}

impl DocCollection {
    fn schema(&self) -> Schema {
        Schema::new(
            self.fields
                .iter()
                .map(|f| AttributeDef::new(f.name.clone(), f.ty()))
                .collect::<Vec<_>>(),
        )
    }

    /// Navigated path steps per document (what navigation cost scales
    /// with).
    fn nav_depth(&self) -> usize {
        self.fields.iter().map(DocField::depth).sum()
    }
}

/// Flatten every document through the declared paths, straight into
/// one column per path.
fn flatten(fields: &[DocField], docs: &[DocValue]) -> Batch {
    let mut columns: Vec<ColumnBuilder> = fields.iter().map(|_| ColumnBuilder::new()).collect();
    let mut push = |row: &[ValueRef<'_>]| {
        for (column, &v) in columns.iter_mut().zip(row) {
            column.push_ref(v);
        }
    };
    let unnest = fields
        .iter()
        .position(|f| matches!(f.kind, PathKind::Unnest(_)));
    for doc in docs {
        let mut row: Vec<ValueRef<'_>> = fields
            .iter()
            .map(|f| match &f.kind {
                PathKind::Scalar(_) => {
                    navigate(doc, &f.path).map_or(ValueRef::Null, DocValue::scalar)
                }
                PathKind::Exists => ValueRef::Bool(!matches!(
                    navigate(doc, &f.path),
                    None | Some(DocValue::Null)
                )),
                // Placeholder; replaced per element below.
                PathKind::Unnest(_) => ValueRef::Null,
            })
            .collect();
        match unnest {
            None => push(&row),
            Some(u) => {
                // One row per array element; no array (or an empty
                // one) contributes no rows.
                let Some(DocValue::Array(items)) = navigate(doc, &fields[u].path) else {
                    continue;
                };
                for item in items {
                    row[u] = item.scalar();
                    push(&row);
                }
            }
        }
    }
    let columns = columns.into_iter().map(|c| Arc::new(c.finish())).collect();
    Batch::from_columns(columns).expect("every row fills every column")
}

/// Descend a dotted path through object fields. Arrays and scalars met
/// before the final step end the navigation (the path is missing).
fn navigate<'a>(doc: &'a DocValue, path: &str) -> Option<&'a DocValue> {
    let mut cur = doc;
    for step in path.split('.') {
        let DocValue::Object(pairs) = cur else {
            return None;
        };
        cur = pairs.iter().find(|(k, _)| k == step).map(|(_, v)| v)?;
    }
    Some(cur)
}

/// The document source: nested collections behind a flattening
/// relational boundary.
#[derive(Debug, Clone)]
pub struct DocSource {
    name: String,
    collections: Vec<DocCollection>,
    /// `overhead_ms` is the cost to open a collection, `cpu_scan_ms` one
    /// path-navigation step on one document; there are no pages and no
    /// indexes, so `io_ms` and `probe_ms` are zero.
    pub(crate) profile: CostProfile,
}

impl DocSource {
    pub fn new(name: impl Into<String>) -> Self {
        DocSource {
            name: name.into(),
            collections: Vec::new(),
            profile: CostProfile {
                io_ms: 0.0,
                output_ms: 9.0,
                cpu_pred_ms: 0.05,
                cpu_scan_ms: 0.02,
                cpu_hash_ms: 0.02,
                probe_ms: 0.0,
                sort_factor_ms: 0.02,
                overhead_ms: 80.0,
            },
        }
    }

    /// Add a collection of documents with its flattening declaration.
    pub fn add_collection(
        &mut self,
        name: impl Into<String>,
        fields: Vec<DocField>,
        docs: Vec<DocValue>,
    ) -> Result<()> {
        let name = name.into();
        if fields.is_empty() {
            return Err(DiscoError::Source(format!(
                "document collection `{name}` declares no paths"
            )));
        }
        for f in &fields {
            if f.name.contains('.') {
                return Err(DiscoError::Source(format!(
                    "exported column `{}` must not contain dots",
                    f.name
                )));
            }
        }
        let unnests = fields
            .iter()
            .filter(|f| matches!(f.kind, PathKind::Unnest(_)))
            .count();
        if unnests > 1 {
            return Err(DiscoError::Source(format!(
                "document collection `{name}` declares {unnests} unnest paths; at most one \
                 is supported"
            )));
        }
        if self.collections.iter().any(|c| c.name == name) {
            return Err(DiscoError::Source(format!(
                "duplicate document collection `{name}`"
            )));
        }
        let flat = flatten(&fields, &docs);
        self.collections.push(DocCollection {
            name,
            fields,
            doc_count: docs.len(),
            flat,
        });
        Ok(())
    }

    fn collection(&self, name: &str) -> Result<&DocCollection> {
        self.collections
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| DiscoError::Source(format!("unknown document collection `{name}`")))
    }

    /// Wrapper cost rules describing path navigation: scans pay one
    /// pointer chase per document per path step instead of page I/O.
    /// The exported `DocDepth` is the worst declared depth, keeping the
    /// rule a single wrapper-scope formula (§3's interface documents
    /// could refine this per collection).
    pub fn path_cost_rules(&self) -> String {
        let depth = self
            .collections
            .iter()
            .map(DocCollection::nav_depth)
            .max()
            .unwrap_or(1);
        format!(
            "let DocOpen = {open};\n\
             let NavMs = {nav};\n\
             let DocDepth = {depth};\n\
             let DocOutput = {output};\n\
             rule scan($C) {{\n\
                 TimeFirst = DocOpen + NavMs * DocDepth + DocOutput;\n\
                 TotalTime = DocOpen + $C.CountObject * (NavMs * DocDepth + DocOutput);\n\
             }}\n",
            open = self.profile.overhead_ms,
            nav = self.profile.cpu_scan_ms,
            output = self.profile.output_ms,
        )
    }
}

/// The document source's one access path: flatten a collection.
struct DocLeaves<'a> {
    source: &'a DocSource,
    /// The query's start-up opened the first collection; every further
    /// one scanned pays `overhead_ms` again.
    opened: bool,
}

impl Leaves for DocLeaves<'_> {
    type Rid = Infallible;

    fn schema(&self, collection: &str) -> Result<Schema> {
        Ok(self.source.collection(collection)?.schema())
    }

    fn scan(&mut self, collection: &str, clock: &mut VirtualClock) -> Result<(Batch, u64)> {
        let c = self.source.collection(collection)?;
        let p = &self.source.profile;
        if std::mem::replace(&mut self.opened, true) {
            clock.charge(p.overhead_ms);
        }
        clock.charge(c.doc_count as f64 * c.nav_depth() as f64 * p.cpu_scan_ms);
        Ok((c.flat.clone(), c.doc_count as u64))
    }

    fn fetch(&mut self, _: &str, rids: &[Infallible], _: f64, _: &mut VirtualClock) -> Result<()> {
        match rids.first() {
            Some(&rid) => match rid {},
            None => Ok(()),
        }
    }

    fn gather(&mut self, collection: &str) -> Result<Batch> {
        // Nothing is ever fetched: documents have no index.
        Ok(Batch::empty(self.schema(collection)?.arity()))
    }
}

impl DataSource for DocSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn collections(&self) -> Vec<(String, Schema)> {
        self.collections
            .iter()
            .map(|c| (c.name.clone(), c.schema()))
            .collect()
    }

    fn statistics(&self, collection: &str) -> Option<CollectionStats> {
        let c = self.collection(collection).ok()?;
        let batch = &c.flat;
        let n = batch.len() as u64;
        let total = batch.byte_width();
        let extent = ExtentStats {
            count_object: n,
            total_size: total,
            object_size: (total / n.max(1)).max(1),
            count_page: None,
        };
        Some(walk::attribute_stats(
            extent,
            &c.schema(),
            batch,
            |_| false,
            None,
        ))
    }

    fn execute(&self, plan: &LogicalPlan) -> Result<SubAnswer> {
        let leaves = DocLeaves {
            source: self,
            opened: false,
        };
        walk::answer(&self.name, &self.profile, plan, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{QualifiedName, Value};

    fn orders() -> DocSource {
        let mut s = DocSource::new("docs");
        let docs: Vec<DocValue> = (0..20i64)
            .map(|i| {
                DocValue::obj([
                    ("id", DocValue::Long(i)),
                    (
                        "customer",
                        DocValue::obj([
                            ("name", DocValue::Str(format!("c{}", i % 5))),
                            (
                                "address",
                                DocValue::obj([("zip", DocValue::Long(10_000 + i % 3))]),
                            ),
                        ]),
                    ),
                    (
                        "tags",
                        DocValue::arr((0..(i % 4)).map(|t| DocValue::Str(format!("t{t}")))),
                    ),
                    (
                        "discount",
                        if i % 2 == 0 {
                            DocValue::Double(0.1)
                        } else {
                            DocValue::Null
                        },
                    ),
                ])
            })
            .collect();
        s.add_collection(
            "Orders",
            vec![
                DocField::scalar("id", "id", DataType::Long),
                DocField::scalar("zip", "customer.address.zip", DataType::Long),
                DocField::exists("has_discount", "discount"),
            ],
            docs.clone(),
        )
        .unwrap();
        s.add_collection(
            "OrderTags",
            vec![
                DocField::scalar("id", "id", DataType::Long),
                DocField::unnest("tag", "tags", DataType::Str),
            ],
            docs,
        )
        .unwrap();
        s
    }

    fn scan(s: &DocSource, coll: &str) -> PlanBuilder {
        let schema = s
            .collections()
            .into_iter()
            .find(|(n, _)| n == coll)
            .unwrap()
            .1;
        PlanBuilder::scan(QualifiedName::new("docs", coll), schema)
    }

    #[test]
    fn scalar_paths_flatten_with_nulls_for_missing() {
        let s = orders();
        let a = s.execute(&scan(&s, "Orders").build()).unwrap();
        assert_eq!(a.batch.len(), 20);
        // Deep path resolved.
        assert_eq!(a.batch.tuple_at(0).get(1), Some(&Value::Long(10_000)));
        // Existence column reflects the null discount on odd ids.
        assert_eq!(a.batch.tuple_at(0).get(2), Some(&Value::Bool(true)));
        assert_eq!(a.batch.tuple_at(1).get(2), Some(&Value::Bool(false)));
        assert_eq!(a.stats.objects_scanned, 20);
        assert!(a.stats.elapsed_ms > 0.0);
    }

    #[test]
    fn unnest_emits_one_row_per_element_and_none_for_empty() {
        let s = orders();
        let a = s.execute(&scan(&s, "OrderTags").build()).unwrap();
        // i % 4 tags per doc: 20/4 * (0+1+2+3) = 30 rows.
        assert_eq!(a.batch.len(), 30);
        // Array containment as equality on the unnested column.
        let contains = s
            .execute(
                &scan(&s, "OrderTags")
                    .select("tag", CompareOp::Eq, Value::Str("t2".into()))
                    .build(),
            )
            .unwrap();
        assert_eq!(contains.batch.len(), 5);
        for t in &contains.batch.to_tuples() {
            assert_eq!(t.get(1), Some(&Value::Str("t2".into())));
        }
    }

    #[test]
    fn path_predicates_and_aggregates_run_source_side() {
        let s = orders();
        let a = s
            .execute(
                &scan(&s, "Orders")
                    .select("zip", CompareOp::Eq, 10_001i64)
                    .build(),
            )
            .unwrap();
        assert!(!a.batch.is_empty());
        for t in &a.batch.to_tuples() {
            assert_eq!(t.get(1), Some(&Value::Long(10_001)));
        }
        let g = s
            .execute(
                &scan(&s, "Orders")
                    .aggregate(&["zip"], vec![("n", disco_algebra::AggFunc::Count, None)])
                    .build(),
            )
            .unwrap();
        assert_eq!(g.batch.len(), 3);
    }

    #[test]
    fn statistics_derive_from_flattened_rows() {
        let s = orders();
        let st = s.statistics("OrderTags").unwrap();
        assert_eq!(st.extent.count_object, 30);
        assert_eq!(st.attribute("tag").count_distinct, 3);
        let st = s.statistics("Orders").unwrap();
        assert_eq!(st.attribute("zip").min, Value::Long(10_000));
        assert_eq!(st.attribute("zip").max, Value::Long(10_002));
    }

    #[test]
    fn cost_rules_parse_and_reflect_navigation() {
        let s = orders();
        let text = s.path_cost_rules();
        let doc = disco_costlang::parse_document(&text).unwrap();
        let compiled = disco_costlang::compile_document(&doc).unwrap();
        assert_eq!(compiled.rules.len(), 1);
        // Depth: Orders navigates 1 + 3 + 1 = 5 steps/doc, OrderTags 2.
        assert!(text.contains("let DocDepth = 5"));
    }

    #[test]
    fn declaration_is_validated() {
        let mut s = DocSource::new("docs");
        assert!(s.add_collection("Empty", vec![], vec![]).is_err());
        assert!(s
            .add_collection(
                "Dotted",
                vec![DocField::scalar("a.b", "a.b", DataType::Long)],
                vec![],
            )
            .is_err());
        assert!(s
            .add_collection(
                "TwoUnnests",
                vec![
                    DocField::unnest("x", "xs", DataType::Long),
                    DocField::unnest("y", "ys", DataType::Long),
                ],
                vec![],
            )
            .is_err());
    }
}
