//! Columnar batches: how sources hold rows, how subanswers ship and how
//! the mediator combines them.
//!
//! The row representation ([`Tuple`]) keeps every cell as a heap
//! [`Value`] — convenient for loading a source and for the final
//! answer, but slow for operators, where a select touches one column
//! and a join clones whole rows. A [`Batch`] stores the same rows
//! column-major:
//!
//! * numbers and booleans live in flat `Vec<i64>` / `Vec<f64>` /
//!   `Vec<bool>` vectors;
//! * strings are dictionary-encoded (`u32` codes into a shared,
//!   `Arc`-ed dictionary), so equality and hashing touch fixed-width
//!   codes and gathers never copy string bytes;
//! * nulls are tracked in a validity [`Bitmap`]; a column with mixed
//!   type families degrades to an exact [`Value`] vector
//!   ([`ColumnData::Any`]) so no cell is ever coerced.
//!
//! Columns are shared via `Arc`: projection to attributes is a
//! re-slice, and union of same-typed batches extends vectors without
//! touching individual cells. Operators select rows with *selection
//! vectors* (`&[u32]` row ids) and materialize [`Tuple`]s only at the
//! final answer boundary.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{DiscoError, Result};
use crate::tuple::Tuple;
use crate::value::Value;

// ---------------------------------------------------------------------------
// Validity bitmap
// ---------------------------------------------------------------------------

/// A packed bitmap; bit `i` set means row `i` is valid (non-null).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// A bitmap of `len` set (valid) bits.
    pub fn new_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit at `i`. Panics if out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (valid) bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if every stored bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut b = Bitmap::new();
        for bit in iter {
            b.push(bit);
        }
        b
    }
}

// ---------------------------------------------------------------------------
// Cell views: ValueRef
// ---------------------------------------------------------------------------

/// A borrowed view of one cell — what [`Value`] is to a row, `ValueRef`
/// is to a column, without owning string storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    Null,
    Bool(bool),
    Long(i64),
    Double(f64),
    Str(&'a str),
}

impl<'a> ValueRef<'a> {
    /// Borrow a [`Value`] as a `ValueRef`.
    pub fn from_value(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Long(n) => ValueRef::Long(*n),
            Value::Double(d) => ValueRef::Double(*d),
            Value::Str(s) => ValueRef::Str(s),
        }
    }

    /// Materialize an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Long(n) => Value::Long(n),
            ValueRef::Double(d) => Value::Double(d),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// `true` for `Null`.
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Numeric view, mirroring [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Long(n) => Some(n as f64),
            ValueRef::Double(d) => Some(d),
            _ => None,
        }
    }

    /// Mirror of [`Value::partial_cmp_value`]: numbers compare across
    /// `Long`/`Double`, `Null` orders first, cross-family is `None`.
    pub fn partial_cmp_ref(self, other: ValueRef<'_>) -> Option<Ordering> {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Bool(a), Bool(b)) => Some(a.cmp(&b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Mirror of [`Value::total_cmp_value`]: the same total order the
    /// row-at-a-time sort uses (`Null < Bool < numbers < Str`, `NaN`
    /// greatest among numbers).
    pub fn total_cmp_ref(self, other: ValueRef<'_>) -> Ordering {
        if let Some(ord) = self.partial_cmp_ref(other) {
            return ord;
        }
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Bool(_) => 1,
                ValueRef::Long(_) | ValueRef::Double(_) => 2,
                ValueRef::Str(_) => 3,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.total_cmp(&b)
            }
            ord => ord,
        }
    }

    /// Mirror of [`Value::width`].
    pub fn width(self) -> u64 {
        match self {
            ValueRef::Null => 1,
            ValueRef::Bool(_) => 1,
            ValueRef::Long(_) => 8,
            ValueRef::Double(_) => 8,
            ValueRef::Str(s) => s.len() as u64,
        }
    }
}

/// The same text as [`Value`]'s `Display`, which formats through this.
impl std::fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueRef::Null => f.write_str("null"),
            ValueRef::Bool(b) => write!(f, "{b}"),
            ValueRef::Long(v) => write!(f, "{v}"),
            ValueRef::Double(v) => write!(f, "{v}"),
            ValueRef::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

// ---------------------------------------------------------------------------
// Columns
// ---------------------------------------------------------------------------

/// Physical storage of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Long(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings: `codes[row]` indexes into `dict`.
    /// The dictionary is shared (`Arc`), so gathers and re-slices copy
    /// only the fixed-width codes.
    Str {
        dict: Arc<Vec<String>>,
        codes: Vec<u32>,
    },
    /// Exact fallback for columns mixing type families (or all-null
    /// columns): plain [`Value`]s, so nothing is coerced.
    Any(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Long(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Any(v) => v.len(),
        }
    }
}

/// One column of a [`Batch`]: typed storage plus an optional validity
/// bitmap (`None` means every row is valid). Invalid rows hold an
/// arbitrary placeholder in the typed vectors and `Value::Null` in
/// [`ColumnData::Any`].
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
}

impl Column {
    /// Build from storage and validity. Panics if lengths disagree.
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Self {
        if let Some(v) = &validity {
            assert_eq!(v.len(), data.len(), "validity/data length mismatch");
        }
        Column { data, validity }
    }

    /// Build a column from owned values (type inference included).
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Self {
        let mut b = ColumnBuilder::new();
        for v in values {
            b.push_value(v);
        }
        b.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical storage (for vectorized fast paths).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Validity bitmap; `None` means all rows valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// `true` if row `i` is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            Some(bm) => bm.get(i),
            None => true,
        }
    }

    /// Borrowed view of the cell at `row`.
    pub fn value_ref(&self, row: usize) -> ValueRef<'_> {
        if !self.is_valid(row) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Long(v) => ValueRef::Long(v[row]),
            ColumnData::Double(v) => ValueRef::Double(v[row]),
            ColumnData::Bool(v) => ValueRef::Bool(v[row]),
            ColumnData::Str { dict, codes } => ValueRef::Str(&dict[codes[row] as usize]),
            ColumnData::Any(v) => ValueRef::from_value(&v[row]),
        }
    }

    /// Owned cell at `row`.
    pub fn value(&self, row: usize) -> Value {
        self.value_ref(row).to_value()
    }

    /// Gather the rows named by `sel` (in order) into a new column.
    pub fn take(&self, sel: &[u32]) -> Column {
        let validity = self
            .validity
            .as_ref()
            .map(|bm| sel.iter().map(|&i| bm.get(i as usize)).collect::<Bitmap>());
        let validity = match validity {
            Some(bm) if bm.all_set() => None,
            other => other,
        };
        let data = match &self.data {
            ColumnData::Long(v) => ColumnData::Long(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Double(v) => {
                ColumnData::Double(sel.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Bool(v) => ColumnData::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
            },
            ColumnData::Any(v) => {
                ColumnData::Any(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }

    /// Serialized width of all cells, matching the sum of
    /// [`Value::width`] over the materialized rows.
    pub fn byte_width(&self) -> u64 {
        let nulls = self
            .validity
            .as_ref()
            .map(|bm| (bm.len() - bm.count_set()) as u64)
            .unwrap_or(0);
        match &self.data {
            ColumnData::Long(v) => (v.len() as u64 - nulls) * 8 + nulls,
            ColumnData::Double(v) => (v.len() as u64 - nulls) * 8 + nulls,
            ColumnData::Bool(v) => v.len() as u64,
            ColumnData::Str { dict, codes } => {
                let mut total = nulls;
                for (row, &c) in codes.iter().enumerate() {
                    if self.is_valid(row) {
                        total += dict[c as usize].len() as u64;
                    }
                }
                total
            }
            ColumnData::Any(v) => v.iter().map(Value::width).sum(),
        }
    }
}

// ---------------------------------------------------------------------------
// Column builder
// ---------------------------------------------------------------------------

/// Incremental column constructor with type inference.
///
/// The builder starts untyped; the first non-null value fixes the
/// storage kind (earlier nulls are back-filled as invalid rows). A
/// later value of a different family degrades the column to
/// [`ColumnData::Any`], rematerializing what was pushed so far —
/// including a `Long` column seeing a `Double` (and vice versa), so
/// numeric cells keep their exact row-path representation.
#[derive(Debug)]
pub struct ColumnBuilder {
    kind: BuilderKind,
    validity: Bitmap,
    any_invalid: bool,
    len: usize,
    /// Rows to reserve for when the first value fixes the kind.
    cap: usize,
}

#[derive(Debug)]
enum BuilderKind {
    /// Only nulls so far.
    Untyped,
    Long(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    Str {
        dict: Vec<String>,
        codes: Vec<u32>,
        interner: HashMap<String, u32>,
    },
    Any(Vec<Value>),
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A builder with row capacity reserved once the kind is known: the
    /// storage is allocated once, at its final size, when the first
    /// value fixes its kind.
    pub fn with_capacity(cap: usize) -> Self {
        ColumnBuilder {
            kind: BuilderKind::Untyped,
            validity: Bitmap::new(),
            any_invalid: false,
            len: 0,
            cap,
        }
    }

    /// Storage for the first typed value: the `len` rows pushed so far
    /// (all null) as `fill`, with room for the reserved capacity.
    fn typed_storage<T: Clone>(&self, fill: T) -> Vec<T> {
        let mut v = Vec::with_capacity(self.cap.max(self.len + 1));
        v.resize(self.len, fill);
        v
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a null cell.
    pub fn push_null(&mut self) {
        self.validity.push(false);
        self.any_invalid = true;
        match &mut self.kind {
            BuilderKind::Untyped => {}
            BuilderKind::Long(v) => v.push(0),
            BuilderKind::Double(v) => v.push(0.0),
            BuilderKind::Bool(v) => v.push(false),
            BuilderKind::Str { codes, .. } => codes.push(0),
            BuilderKind::Any(v) => v.push(Value::Null),
        }
        self.len += 1;
    }

    /// Append a long cell.
    pub fn push_long(&mut self, n: i64) {
        match &mut self.kind {
            BuilderKind::Untyped => {
                let mut v = self.typed_storage(0);
                v.push(n);
                self.kind = BuilderKind::Long(v);
            }
            BuilderKind::Long(v) => v.push(n),
            BuilderKind::Any(v) => v.push(Value::Long(n)),
            _ => {
                self.degrade_to_any();
                self.push_long(n);
                return;
            }
        }
        self.validity.push(true);
        self.len += 1;
    }

    /// Append a double cell.
    pub fn push_double(&mut self, d: f64) {
        match &mut self.kind {
            BuilderKind::Untyped => {
                let mut v = self.typed_storage(0.0);
                v.push(d);
                self.kind = BuilderKind::Double(v);
            }
            BuilderKind::Double(v) => v.push(d),
            BuilderKind::Any(v) => v.push(Value::Double(d)),
            _ => {
                self.degrade_to_any();
                self.push_double(d);
                return;
            }
        }
        self.validity.push(true);
        self.len += 1;
    }

    /// Append a bool cell.
    pub fn push_bool(&mut self, b: bool) {
        match &mut self.kind {
            BuilderKind::Untyped => {
                let mut v = self.typed_storage(false);
                v.push(b);
                self.kind = BuilderKind::Bool(v);
            }
            BuilderKind::Bool(v) => v.push(b),
            BuilderKind::Any(v) => v.push(Value::Bool(b)),
            _ => {
                self.degrade_to_any();
                self.push_bool(b);
                return;
            }
        }
        self.validity.push(true);
        self.len += 1;
    }

    /// Append a string cell, interning it in the dictionary. Accepts a
    /// borrowed `&str` so wire decoding can push without an extra
    /// allocation for already-seen strings.
    pub fn push_str(&mut self, s: &str) {
        match &mut self.kind {
            BuilderKind::Untyped => {
                self.kind = BuilderKind::Str {
                    dict: Vec::new(),
                    codes: self.typed_storage(0),
                    interner: HashMap::new(),
                };
                self.push_str(s);
                return;
            }
            BuilderKind::Str {
                dict,
                codes,
                interner,
            } => {
                let code = match interner.get(s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(s.to_owned());
                        interner.insert(s.to_owned(), c);
                        c
                    }
                };
                codes.push(code);
            }
            BuilderKind::Any(v) => v.push(Value::Str(s.to_owned())),
            _ => {
                self.degrade_to_any();
                self.push_str(s);
                return;
            }
        }
        self.validity.push(true);
        self.len += 1;
    }

    /// Append an owned [`Value`].
    pub fn push_value(&mut self, v: Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Bool(b) => self.push_bool(b),
            Value::Long(n) => self.push_long(n),
            Value::Double(d) => self.push_double(d),
            Value::Str(s) => self.push_str(&s),
        }
    }

    /// Append a borrowed cell view.
    pub fn push_ref(&mut self, v: ValueRef<'_>) {
        match v {
            ValueRef::Null => self.push_null(),
            ValueRef::Bool(b) => self.push_bool(b),
            ValueRef::Long(n) => self.push_long(n),
            ValueRef::Double(d) => self.push_double(d),
            ValueRef::Str(s) => self.push_str(s),
        }
    }

    /// Append every row of an existing column, merging storage directly
    /// when the kinds line up (dictionary codes are remapped once per
    /// distinct string rather than per row).
    pub fn append_column(&mut self, col: &Column) {
        // Fast paths only when self is already the same kind (or empty
        // with no pending nulls); otherwise fall back to per-row pushes.
        let same_kind = match (&self.kind, col.data()) {
            (BuilderKind::Long(_), ColumnData::Long(_)) => true,
            (BuilderKind::Double(_), ColumnData::Double(_)) => true,
            (BuilderKind::Bool(_), ColumnData::Bool(_)) => true,
            (BuilderKind::Str { .. }, ColumnData::Str { .. }) => true,
            (BuilderKind::Untyped, _) if self.len == 0 => true,
            _ => false,
        };
        if !same_kind {
            for row in 0..col.len() {
                self.push_ref(col.value_ref(row));
            }
            return;
        }
        if matches!(self.kind, BuilderKind::Untyped) {
            // Seed the kind from the incoming column, then merge below.
            match col.data() {
                ColumnData::Long(_) => self.kind = BuilderKind::Long(Vec::new()),
                ColumnData::Double(_) => self.kind = BuilderKind::Double(Vec::new()),
                ColumnData::Bool(_) => self.kind = BuilderKind::Bool(Vec::new()),
                ColumnData::Str { .. } => {
                    self.kind = BuilderKind::Str {
                        dict: Vec::new(),
                        codes: Vec::new(),
                        interner: HashMap::new(),
                    }
                }
                ColumnData::Any(_) => self.kind = BuilderKind::Any(Vec::new()),
            }
        }
        match (&mut self.kind, col.data()) {
            (BuilderKind::Long(dst), ColumnData::Long(src)) => dst.extend_from_slice(src),
            (BuilderKind::Double(dst), ColumnData::Double(src)) => dst.extend_from_slice(src),
            (BuilderKind::Bool(dst), ColumnData::Bool(src)) => dst.extend_from_slice(src),
            (
                BuilderKind::Str {
                    dict,
                    codes,
                    interner,
                },
                ColumnData::Str {
                    dict: src_dict,
                    codes: src_codes,
                },
            ) => {
                // Remap the source dictionary once, then bulk-copy codes.
                let remap: Vec<u32> = src_dict
                    .iter()
                    .map(|s| match interner.get(s.as_str()) {
                        Some(&c) => c,
                        None => {
                            let c = dict.len() as u32;
                            dict.push(s.clone());
                            interner.insert(s.clone(), c);
                            c
                        }
                    })
                    .collect();
                codes.extend(src_codes.iter().map(|&c| remap[c as usize]));
            }
            (BuilderKind::Any(dst), ColumnData::Any(src)) => dst.extend_from_slice(src),
            _ => unreachable!("kind agreement checked above"),
        }
        match col.validity() {
            Some(bm) => {
                self.any_invalid = self.any_invalid || !bm.all_set();
                for i in 0..bm.len() {
                    self.validity.push(bm.get(i));
                }
            }
            None => {
                for _ in 0..col.len() {
                    self.validity.push(true);
                }
            }
        }
        self.len += col.len();
    }

    /// Rematerialize the typed storage as exact [`Value`]s.
    fn degrade_to_any(&mut self) {
        let values: Vec<Value> = match &self.kind {
            BuilderKind::Untyped => vec![Value::Null; self.len],
            BuilderKind::Long(v) => v
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    if self.validity.get(i) {
                        Value::Long(n)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderKind::Double(v) => v
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    if self.validity.get(i) {
                        Value::Double(d)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderKind::Bool(v) => v
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    if self.validity.get(i) {
                        Value::Bool(b)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderKind::Str { dict, codes, .. } => codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    if self.validity.get(i) {
                        Value::Str(dict[c as usize].clone())
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderKind::Any(_) => return,
        };
        self.kind = BuilderKind::Any(values);
    }

    /// Finish the column. All-null columns finish as
    /// [`ColumnData::Any`]; the validity bitmap is dropped when every
    /// row is valid.
    pub fn finish(self) -> Column {
        let validity = if self.any_invalid {
            Some(self.validity)
        } else {
            None
        };
        let data = match self.kind {
            BuilderKind::Untyped => ColumnData::Any(vec![Value::Null; self.len]),
            BuilderKind::Long(v) => ColumnData::Long(v),
            BuilderKind::Double(v) => ColumnData::Double(v),
            BuilderKind::Bool(v) => ColumnData::Bool(v),
            BuilderKind::Str { dict, codes, .. } => ColumnData::Str {
                dict: Arc::new(dict),
                codes,
            },
            BuilderKind::Any(v) => ColumnData::Any(v),
        };
        Column { data, validity }
    }
}

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

/// A column-major block of rows. Columns are `Arc`-shared, so cloning
/// a batch or re-slicing its columns is O(arity).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    len: usize,
    columns: Vec<Arc<Column>>,
}

impl Batch {
    /// An empty batch of the given arity.
    pub fn empty(arity: usize) -> Batch {
        Batch {
            len: 0,
            columns: (0..arity)
                .map(|_| Arc::new(ColumnBuilder::new().finish()))
                .collect(),
        }
    }

    /// Assemble a batch from columns. Errors if lengths disagree.
    pub fn from_columns(columns: Vec<Arc<Column>>) -> Result<Batch> {
        let len = columns.first().map(|c| c.len()).unwrap_or(0);
        if let Some(c) = columns.iter().find(|c| c.len() != len) {
            return Err(DiscoError::Exec(format!(
                "batch column length mismatch: {} vs {}",
                c.len(),
                len
            )));
        }
        Ok(Batch { len, columns })
    }

    /// Columnarize rows. Rows shorter than `arity` are null-padded;
    /// cells beyond `arity` are ignored.
    pub fn from_tuples(arity: usize, tuples: &[Tuple]) -> Batch {
        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
        for t in tuples {
            for (i, b) in builders.iter_mut().enumerate() {
                match t.get(i) {
                    Some(v) => b.push_ref(ValueRef::from_value(v)),
                    None => b.push_null(),
                }
            }
        }
        Batch {
            len: tuples.len(),
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
        }
    }

    /// Materialize every row as a [`Tuple`] — the final answer
    /// boundary; nothing inside the combine pipeline calls this.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len).map(|row| self.tuple_at(row)).collect()
    }

    /// Materialize the row at `row`.
    pub fn tuple_at(&self, row: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Borrowed view of the cell at (`row`, `col`).
    pub fn value_ref(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.columns[col].value_ref(row)
    }

    /// Gather the rows named by `sel` (in order) across all columns.
    pub fn take(&self, sel: &[u32]) -> Batch {
        Batch {
            len: sel.len(),
            columns: self.columns.iter().map(|c| Arc::new(c.take(sel))).collect(),
        }
    }

    /// Re-slice to the columns at `indices` (Arc clones, no copying).
    pub fn select_columns(&self, indices: &[usize]) -> Batch {
        Batch {
            len: self.len,
            columns: indices
                .iter()
                .map(|&i| Arc::clone(&self.columns[i]))
                .collect(),
        }
    }

    /// Column-wise concatenation of two equal-length batches (join
    /// output shape: left columns then right columns).
    pub fn hstack(&self, other: &Batch) -> Result<Batch> {
        if self.len != other.len {
            return Err(DiscoError::Exec(format!(
                "hstack length mismatch: {} vs {}",
                self.len, other.len
            )));
        }
        let mut columns = Vec::with_capacity(self.columns.len() + other.columns.len());
        columns.extend(self.columns.iter().cloned());
        columns.extend(other.columns.iter().cloned());
        Ok(Batch {
            len: self.len,
            columns,
        })
    }

    /// Row-wise concatenation (union). Errors on arity mismatch. When a
    /// column position has the same storage kind in every part, the
    /// vectors are merged directly (dictionary codes remapped once per
    /// distinct string).
    pub fn concat(parts: &[&Batch]) -> Result<Batch> {
        let Some(first) = parts.first() else {
            return Ok(Batch::empty(0));
        };
        let arity = first.arity();
        if let Some(p) = parts.iter().find(|p| p.arity() != arity) {
            return Err(DiscoError::Exec(format!(
                "union arity mismatch: {} vs {}",
                arity,
                p.arity()
            )));
        }
        let mut columns = Vec::with_capacity(arity);
        let mut len = 0;
        for col in 0..arity {
            let mut b = ColumnBuilder::new();
            for p in parts {
                b.append_column(&p.columns[col]);
            }
            columns.push(Arc::new(b.finish()));
        }
        for p in parts {
            len += p.len;
        }
        Ok(Batch { len, columns })
    }

    /// Serialized width of all rows: equals the sum of
    /// [`Tuple::width`] over [`Self::to_tuples`] without materializing.
    pub fn byte_width(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_width()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Long(1),
                Value::Str("a".into()),
                Value::Double(0.5),
            ]),
            Tuple::new(vec![Value::Long(2), Value::Str("b".into()), Value::Null]),
            Tuple::new(vec![
                Value::Long(3),
                Value::Str("a".into()),
                Value::Double(2.5),
            ]),
        ]
    }

    #[test]
    fn bitmap_roundtrip() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_set(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(Bitmap::new_set(67).all_set());
        assert_eq!(Bitmap::new_set(67).len(), 67);
    }

    #[test]
    fn tuple_batch_roundtrip_is_identity() {
        let ts = rows();
        let b = Batch::from_tuples(3, &ts);
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 3);
        assert_eq!(b.to_tuples(), ts);
    }

    #[test]
    fn strings_are_dictionary_encoded() {
        let b = Batch::from_tuples(3, &rows());
        match b.column(1).data() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.as_slice(), &["a".to_string(), "b".to_string()]);
                assert_eq!(codes, &[0, 1, 0]);
            }
            other => panic!("expected dict column, got {other:?}"),
        }
    }

    #[test]
    fn mixed_family_column_degrades_to_any() {
        let col = Column::from_values(vec![Value::Long(1), Value::Str("x".into()), Value::Null]);
        match col.data() {
            ColumnData::Any(v) => {
                assert_eq!(v, &[Value::Long(1), Value::Str("x".into()), Value::Null]);
            }
            other => panic!("expected Any column, got {other:?}"),
        }
        assert_eq!(col.value(0), Value::Long(1));
        assert!(!col.is_valid(2));
    }

    #[test]
    fn mixed_numerics_stay_exact() {
        // Long + Double in one column must keep their distinct
        // representations, not coerce to f64.
        let col = Column::from_values(vec![Value::Long(2), Value::Double(2.0)]);
        assert_eq!(col.value(0), Value::Long(2));
        assert_eq!(col.value(1), Value::Double(2.0));
    }

    #[test]
    fn leading_nulls_backfill_typed_columns() {
        let col = Column::from_values(vec![Value::Null, Value::Null, Value::Long(7)]);
        assert!(matches!(col.data(), ColumnData::Long(_)));
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.value(2), Value::Long(7));
    }

    #[test]
    fn reserved_builder_allocates_its_storage_once() {
        // The decoder knows an answer's row count up front: the storage
        // the first value creates must hold every row, so the column is
        // never regrown on the way (nor its cells changed by the reserve).
        let cells = [Value::Null, Value::Long(3), Value::Str("x".into())];
        for first in &cells[1..] {
            let mut b = ColumnBuilder::with_capacity(1000);
            b.push_null();
            b.push_value(first.clone());
            let reserved = match &b.kind {
                BuilderKind::Long(v) => v.capacity(),
                BuilderKind::Str { codes, .. } => codes.capacity(),
                other => panic!("unexpected builder kind {other:?}"),
            };
            assert!(reserved >= 1000, "reserved {reserved} rows");
            let col = b.finish();
            assert_eq!(col, Column::from_values(vec![Value::Null, first.clone()]));
        }
    }

    #[test]
    fn all_null_column_roundtrips() {
        let col = Column::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.value(1), Value::Null);
    }

    #[test]
    fn take_gathers_and_drops_full_validity() {
        let b = Batch::from_tuples(3, &rows());
        let g = b.take(&[2, 0]);
        assert_eq!(g.to_tuples(), vec![rows()[2].clone(), rows()[0].clone()]);
        // Column 2 had a null only at row 1, which was not gathered.
        assert!(g.column(2).validity().is_none());
    }

    #[test]
    fn concat_merges_dictionaries() {
        let a = Batch::from_tuples(1, &[Tuple::new(vec![Value::Str("x".into())])]);
        let b = Batch::from_tuples(
            1,
            &[
                Tuple::new(vec![Value::Str("y".into())]),
                Tuple::new(vec![Value::Str("x".into())]),
            ],
        );
        let u = Batch::concat(&[&a, &b]).unwrap();
        assert_eq!(u.len(), 3);
        match u.column(0).data() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.as_slice(), &["x".to_string(), "y".to_string()]);
                assert_eq!(codes, &[0, 1, 0]);
            }
            other => panic!("expected dict column, got {other:?}"),
        }
    }

    #[test]
    fn concat_arity_mismatch_errors() {
        let a = Batch::empty(2);
        let b = Batch::empty(3);
        assert!(Batch::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn concat_mixed_kinds_degrades() {
        let a = Batch::from_tuples(1, &[Tuple::new(vec![Value::Long(1)])]);
        let b = Batch::from_tuples(1, &[Tuple::new(vec![Value::Str("s".into())])]);
        let u = Batch::concat(&[&a, &b]).unwrap();
        assert_eq!(
            u.to_tuples(),
            vec![
                Tuple::new(vec![Value::Long(1)]),
                Tuple::new(vec![Value::Str("s".into())]),
            ]
        );
    }

    #[test]
    fn byte_width_matches_row_widths() {
        let ts = rows();
        let b = Batch::from_tuples(3, &ts);
        let expect: u64 = ts.iter().map(Tuple::width).sum();
        assert_eq!(b.byte_width(), expect);
    }

    #[test]
    fn hstack_concatenates_columns() {
        let l = Batch::from_tuples(1, &[Tuple::new(vec![Value::Long(1)])]);
        let r = Batch::from_tuples(1, &[Tuple::new(vec![Value::Str("z".into())])]);
        let j = l.hstack(&r).unwrap();
        assert_eq!(
            j.to_tuples(),
            vec![Tuple::new(vec![Value::Long(1), Value::Str("z".into())])]
        );
        assert!(l.hstack(&Batch::empty(1)).is_err());
    }

    #[test]
    fn value_ref_cmp_mirrors_value_cmp() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Long(2),
            Value::Double(2.0),
            Value::Double(f64::NAN),
            Value::Str("a".into()),
        ];
        for a in &vals {
            for b in &vals {
                let (ra, rb) = (ValueRef::from_value(a), ValueRef::from_value(b));
                assert_eq!(ra.partial_cmp_ref(rb), a.partial_cmp_value(b), "{a} vs {b}");
                assert_eq!(ra.total_cmp_ref(rb), a.total_cmp_value(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn short_rows_null_pad() {
        let b = Batch::from_tuples(2, &[Tuple::new(vec![Value::Long(1)]), Tuple::new(vec![])]);
        assert_eq!(
            b.to_tuples(),
            vec![
                Tuple::new(vec![Value::Long(1), Value::Null]),
                Tuple::new(vec![Value::Null, Value::Null]),
            ]
        );
    }
}
