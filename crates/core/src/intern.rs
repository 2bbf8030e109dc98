//! Hash-consing of logical subplans: the keys of the estimator's per-run
//! caches, and the facts the estimator reads of each interned subtree.
//!
//! A plan enters a run's tables in one of two ways. [`Interner::intern_plan`]
//! walks a whole tree bottom-up (children before parents, like the §4.2
//! evaluation phase). [`Interner::intern_node`] adds one node over children
//! that are interned already: the join-order search builds every candidate
//! that way, one `Join` over a memoized prefix and a leaf, so no candidate
//! is ever a tree. Either way a node's *subtree id* is determined by three
//! things: its wrapper execution context, its shallow [`Payload`] (operator
//! kind plus the node's own fields — collection and schema, predicate,
//! columns, keys, join kind, aggregates, wrapper) and its children's
//! subtree ids. Equal ids therefore mean structurally equal subtrees under
//! equal contexts, by induction, and the subplan cost memo is a vector
//! indexed by subtree id.
//!
//! Each subtree also gets a *signature id*: what rule association
//! ([`crate::pattern::match_head`]) can observe of the node — context,
//! kind, payload (a scan's collection only), each child's base collection
//! and the set of collections the subtree reads. Nodes with equal
//! signatures resolve to the same rules with the same bindings.
//!
//! Stored per subtree id are the *child facts*: what a formula reads of a
//! node when the node is somebody's input — its base collection, the set
//! of collections it reads and the arity of its output (its stored
//! payload says whether it is a bare `Scan`). They are derived once, from
//! the children's, so no node walks its subtree again. A [`NodeView`] is
//! the estimator's one way of reading a node: over an interned id it
//! reads these facts, over a plain tree (the uncached entry point) it
//! derives the same facts from the child plans, and over a tree bound to
//! a cached association (the bound entry point) it does the same and
//! also knows the node's pre-order position in that association.
//!
//! A 64-bit fingerprint only picks the bucket. Membership is decided by
//! equality of the stored key, and a payload's equality compares
//! `Value::Double`s by `to_bits`, so `0.0` and `-0.0` are different
//! subplans although `Value`'s own equality calls them equal. A collision
//! costs a comparison, never a wrong cost. The tables hold shallow
//! payloads and ids, never a subtree.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;

use disco_algebra::logical::AggExpr;
use disco_algebra::{JoinKind, JoinPredicate, LogicalPlan, OperatorKind, Predicate, ScalarExpr};
use disco_common::{QualifiedName, Schema, Value};

use crate::estimator::Association;

/// The absent id: no child, no base collection, no context.
const NONE: u32 = u32::MAX;

/// A node's own fields, without its children. Borrowed from the plan
/// while it is interned, owned once stored.
#[derive(Debug, Clone)]
pub enum Payload<'p> {
    Scan {
        collection: Cow<'p, QualifiedName>,
        schema: Cow<'p, Schema>,
    },
    Select(Cow<'p, Predicate>),
    Project(Cow<'p, [(String, ScalarExpr)]>),
    Sort(Cow<'p, [(String, bool)]>),
    Join(Cow<'p, JoinPredicate>, JoinKind),
    Union,
    Dedup,
    Aggregate(Cow<'p, [String]>, Cow<'p, [AggExpr]>),
    Submit(Cow<'p, str>),
}

impl<'p> Payload<'p> {
    /// The fields of `plan`'s root, borrowed.
    pub fn of(plan: &'p LogicalPlan) -> Self {
        match plan {
            LogicalPlan::Scan { collection, schema } => Payload::Scan {
                collection: Cow::Borrowed(collection),
                schema: Cow::Borrowed(schema),
            },
            LogicalPlan::Select { predicate, .. } => Payload::Select(Cow::Borrowed(predicate)),
            LogicalPlan::Project { columns, .. } => Payload::Project(Cow::Borrowed(columns)),
            LogicalPlan::Sort { keys, .. } => Payload::Sort(Cow::Borrowed(keys)),
            LogicalPlan::Join {
                predicate, kind, ..
            } => Payload::Join(Cow::Borrowed(predicate), *kind),
            LogicalPlan::Union { .. } => Payload::Union,
            LogicalPlan::Dedup { .. } => Payload::Dedup,
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                Payload::Aggregate(Cow::Borrowed(group_by), Cow::Borrowed(aggs))
            }
            LogicalPlan::Submit { wrapper, .. } => Payload::Submit(Cow::Borrowed(wrapper)),
        }
    }

    /// The operator.
    pub fn kind(&self) -> OperatorKind {
        match self {
            Payload::Scan { .. } => OperatorKind::Scan,
            Payload::Select(_) => OperatorKind::Select,
            Payload::Project(_) => OperatorKind::Project,
            Payload::Sort(_) => OperatorKind::Sort,
            Payload::Join(..) => OperatorKind::Join,
            Payload::Union => OperatorKind::Union,
            Payload::Dedup => OperatorKind::Dedup,
            Payload::Aggregate(..) => OperatorKind::Aggregate,
            Payload::Submit(_) => OperatorKind::Submit,
        }
    }

    /// The same fields, borrowed from `self`.
    fn reborrow(&self) -> Payload<'_> {
        fn b<B: ToOwned + ?Sized>(c: &B) -> Cow<'_, B> {
            Cow::Borrowed(c)
        }
        match self {
            Payload::Scan { collection, schema } => Payload::Scan {
                collection: b(collection),
                schema: b(schema),
            },
            Payload::Select(p) => Payload::Select(b(p)),
            Payload::Project(c) => Payload::Project(b(c)),
            Payload::Sort(k) => Payload::Sort(b(k)),
            Payload::Join(p, kind) => Payload::Join(b(p), *kind),
            Payload::Union => Payload::Union,
            Payload::Dedup => Payload::Dedup,
            Payload::Aggregate(g, a) => Payload::Aggregate(b(g), b(a)),
            Payload::Submit(w) => Payload::Submit(b(w)),
        }
    }

    /// Arity of the node's output, given its inputs' (`input(0)`,
    /// `input(1)`): the structure of `LogicalPlan::output_schema`, without
    /// its validation.
    fn output_arity(&self, input: impl Fn(usize) -> usize) -> usize {
        match self {
            Payload::Scan { schema, .. } => schema.arity(),
            Payload::Project(columns) => columns.len(),
            Payload::Join(..) => input(0) + input(1),
            Payload::Aggregate(group_by, aggs) => group_by.len() + aggs.len(),
            Payload::Select(_)
            | Payload::Sort(_)
            | Payload::Union
            | Payload::Dedup
            | Payload::Submit(_) => input(0),
        }
    }

    fn into_owned(self) -> Payload<'static> {
        fn own<B: ToOwned + ?Sized>(c: Cow<'_, B>) -> Cow<'static, B> {
            Cow::Owned(c.into_owned())
        }
        match self {
            Payload::Scan { collection, schema } => Payload::Scan {
                collection: own(collection),
                schema: own(schema),
            },
            Payload::Select(p) => Payload::Select(own(p)),
            Payload::Project(c) => Payload::Project(own(c)),
            Payload::Sort(k) => Payload::Sort(own(k)),
            Payload::Join(p, kind) => Payload::Join(own(p), kind),
            Payload::Union => Payload::Union,
            Payload::Dedup => Payload::Dedup,
            Payload::Aggregate(g, a) => Payload::Aggregate(own(g), own(a)),
            Payload::Submit(w) => Payload::Submit(own(w)),
        }
    }
}

impl PartialEq for Payload<'_> {
    fn eq(&self, other: &Self) -> bool {
        use Payload::*;
        match (self, other) {
            (
                Scan {
                    collection: c1,
                    schema: s1,
                },
                Scan {
                    collection: c2,
                    schema: s2,
                },
            ) => c1 == c2 && s1 == s2,
            (Select(a), Select(b)) => {
                a.conjuncts.len() == b.conjuncts.len()
                    && a.conjuncts.iter().zip(&b.conjuncts).all(|(x, y)| {
                        x.attribute == y.attribute && x.op == y.op && same_value(&x.value, &y.value)
                    })
            }
            (Project(a), Project(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((n1, e1), (n2, e2))| n1 == n2 && same_expr(e1, e2))
            }
            (Sort(a), Sort(b)) => a == b,
            (Join(p1, k1), Join(p2, k2)) => p1 == p2 && k1 == k2,
            (Union, Union) | (Dedup, Dedup) => true,
            (Aggregate(g1, a1), Aggregate(g2, a2)) => g1 == g2 && a1 == a2,
            (Submit(w1), Submit(w2)) => w1 == w2,
            _ => false,
        }
    }
}

// Reflexive: a double equals itself bit for bit, NaN included.
impl Eq for Payload<'_> {}

// The fingerprint reads fewer fields than equality does — a scan's
// schema only by arity, a projection's expressions not at all — which
// keeps equal payloads in one bucket and hashes less on every visit.
impl Hash for Payload<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Payload::Scan { collection, schema } => {
                collection.hash(h);
                schema.arity().hash(h);
            }
            Payload::Select(p) => {
                for c in &p.conjuncts {
                    c.attribute.hash(h);
                    c.op.hash(h);
                    hash_value(&c.value, h);
                }
            }
            Payload::Project(columns) => {
                for (name, _) in columns.iter() {
                    name.hash(h);
                }
            }
            Payload::Sort(keys) => keys.hash(h),
            Payload::Join(p, kind) => {
                p.left_attr.hash(h);
                p.op.hash(h);
                p.right_attr.hash(h);
                kind.hash(h);
            }
            Payload::Union | Payload::Dedup => {}
            Payload::Aggregate(group_by, aggs) => {
                group_by.hash(h);
                for a in aggs.iter() {
                    a.name.hash(h);
                    a.func.hash(h);
                    a.arg.hash(h);
                }
            }
            Payload::Submit(w) => w.hash(h),
        }
    }
}

/// Value identity as the memo sees it: doubles by bit pattern.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn same_expr(a: &ScalarExpr, b: &ScalarExpr) -> bool {
    match (a, b) {
        (ScalarExpr::Const(x), ScalarExpr::Const(y)) => same_value(x, y),
        (
            ScalarExpr::Binary {
                op: o1,
                left: l1,
                right: r1,
            },
            ScalarExpr::Binary {
                op: o2,
                left: l2,
                right: r2,
            },
        ) => o1 == o2 && same_expr(l1, l2) && same_expr(r1, r2),
        _ => a == b,
    }
}

fn hash_value<H: Hasher>(v: &Value, h: &mut H) {
    std::mem::discriminant(v).hash(h);
    match v {
        Value::Null => {}
        Value::Bool(b) => b.hash(h),
        Value::Long(n) => n.hash(h),
        Value::Double(x) => x.to_bits().hash(h),
        Value::Str(s) => s.hash(h),
    }
}

/// What a node reads: a collection (a leaf), or one or two inputs.
enum Inputs<'p> {
    Leaf,
    One(&'p LogicalPlan),
    Two(&'p LogicalPlan, &'p LogicalPlan),
}

fn inputs(plan: &LogicalPlan) -> Inputs<'_> {
    match plan {
        LogicalPlan::Scan { .. } => Inputs::Leaf,
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Dedup { input }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Submit { input, .. } => Inputs::One(input),
        LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right } => {
            Inputs::Two(left, right)
        }
    }
}

/// Input `i` of `plan`, if it has one.
fn input(plan: &LogicalPlan, i: usize) -> Option<&LogicalPlan> {
    match (inputs(plan), i) {
        (Inputs::One(x), 0) | (Inputs::Two(x, _), 0) | (Inputs::Two(_, x), 1) => Some(x),
        _ => None,
    }
}

/// Structural equality of two whole plans, with the memo's bit-exact
/// payload comparison.
pub(crate) fn same_plan(a: &LogicalPlan, b: &LogicalPlan) -> bool {
    Payload::of(a) == Payload::of(b)
        && match (inputs(a), inputs(b)) {
            (Inputs::Leaf, Inputs::Leaf) => true,
            (Inputs::One(x), Inputs::One(y)) => same_plan(x, y),
            (Inputs::Two(x1, x2), Inputs::Two(y1, y2)) => same_plan(x1, y1) && same_plan(x2, y2),
            _ => false,
        }
}

/// The fingerprint hasher: an Fx-style rotate-xor-multiply over 64-bit
/// words, finished with the MurmurHash3 avalanche so that the bucket
/// bits depend on every word.
#[derive(Debug, Default)]
struct Fingerprint(u64);

impl Fingerprint {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Fingerprint {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.word(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.word(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        #[cfg(test)]
        if ONE_BUCKET.with(std::cell::Cell::get) {
            return 0;
        }
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

#[cfg(test)]
thread_local! {
    /// Files every fingerprint of this thread under one bucket, so tests
    /// can show that no answer rests on the hash.
    pub(crate) static ONE_BUCKET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Keys and their `u32` ids, bucketed by fingerprint.
type Ids<K> = HashMap<K, u32, BuildHasherDefault<Fingerprint>>;

/// The id of `key`, inserting it when new; ids are numbered densely from
/// 0 in insertion order.
fn intern_key<K: Copy + Eq + Hash>(ids: &mut Ids<K>, key: K) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

/// A subtree interned in one [`crate::EstimatorCache`]: equal ids are
/// structurally equal subtrees executing under equal contexts. Meaningful
/// only to the cache that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubtreeId(pub(crate) u32);

/// Subtree key: context, payload and children, all as ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeKey {
    ctx: u32,
    payload: u32,
    kids: [u32; 2],
}

/// What association observes of a node's own fields: a scan only its
/// collection, every other operator its whole payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Head {
    Scan(u32),
    Payload(u32),
}

/// Signature key: context, head, each child's base collection and the
/// subtree's collection set, all as ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SigKey {
    ctx: u32,
    head: Head,
    bases: [u32; 2],
    colls: u32,
}

/// Ids a payload implies, worked out once, when it is first stored.
#[derive(Debug, Clone, Copy)]
struct Implied {
    /// A scan's collection and the set holding only it; [`NONE`] for
    /// other operators, whose collections come from their inputs.
    collection: u32,
    set: u32,
    /// A submit's wrapper, the context its input executes under;
    /// [`NONE`] for other operators, whose input inherits theirs.
    submit_to: u32,
}

/// What the tables know of one subtree, indexed by its id.
#[derive(Debug, Clone, Copy)]
struct Facts {
    key: NodeKey,
    /// Signature id: the rule-resolution cache's index.
    sig: u32,
    /// The single base collection the subtree reads, if it is a linear
    /// pipeline over one scan (`LogicalPlan::base_collection`).
    base: u32,
    /// Id of the set of collections the subtree reads.
    colls: u32,
    /// Arity of the subtree's output.
    arity: u32,
}

/// The hash-consing tables of one run.
#[derive(Debug)]
pub(crate) struct Interner {
    /// Wrapper names, as execution contexts.
    names: Ids<Rc<str>>,
    name_list: Vec<Rc<str>>,
    collections: Ids<Rc<QualifiedName>>,
    collection_list: Vec<Rc<QualifiedName>>,
    /// Collection sets: sorted, duplicate-free collection ids.
    sets: Ids<Rc<[u32]>>,
    set_list: Vec<Rc<[u32]>>,
    /// The union of two sets, by their ids (not a dense numbering).
    unions: Ids<[u32; 2]>,
    payloads: Ids<Rc<Payload<'static>>>,
    /// Indexed by payload id.
    payload_list: Vec<Rc<Payload<'static>>>,
    implied: Vec<Implied>,
    nodes: Ids<NodeKey>,
    /// Indexed by subtree id.
    facts: Vec<Facts>,
    sigs: Ids<SigKey>,
    /// Scratch for set unions.
    merged: Vec<u32>,
}

/// Room every table starts with: a two-table run interns a few dozen
/// subtrees, so none of them grows before the run has amortized it.
pub(crate) const INITIAL_CAPACITY: usize = 64;

fn sized<K>() -> Ids<K> {
    Ids::with_capacity_and_hasher(INITIAL_CAPACITY, Default::default())
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            names: Ids::default(),
            name_list: Vec::new(),
            collections: Ids::default(),
            collection_list: Vec::new(),
            sets: sized(),
            set_list: Vec::with_capacity(INITIAL_CAPACITY),
            unions: sized(),
            payloads: sized(),
            payload_list: Vec::with_capacity(INITIAL_CAPACITY),
            implied: Vec::with_capacity(INITIAL_CAPACITY),
            nodes: sized(),
            facts: Vec::with_capacity(INITIAL_CAPACITY),
            sigs: sized(),
            merged: Vec::new(),
        }
    }
}

impl Interner {
    /// Intern `plan`, executing under `ctx`, bottom-up. Returns the root's
    /// subtree id.
    pub(crate) fn intern_plan(&mut self, plan: &LogicalPlan, ctx: Option<&str>) -> SubtreeId {
        let ctx = ctx.map_or(NONE, |w| self.name(w));
        SubtreeId(self.walk(plan, ctx))
    }

    /// Intern one node, executing under `ctx`, over already interned
    /// inputs (none for a scan, one or two otherwise). Each input must
    /// execute under the context the node gives its inputs: a submit's
    /// wrapper, `ctx` otherwise.
    pub(crate) fn intern_node(
        &mut self,
        ctx: Option<&str>,
        payload: Payload<'_>,
        inputs: &[SubtreeId],
    ) -> SubtreeId {
        debug_assert_eq!(
            inputs.len(),
            match payload.kind() {
                OperatorKind::Scan => 0,
                OperatorKind::Join | OperatorKind::Union => 2,
                _ => 1,
            }
        );
        let ctx = ctx.map_or(NONE, |w| self.name(w));
        let (payload, implied) = self.payload(payload);
        let mut kids = [NONE; 2];
        for (kid, input) in kids.iter_mut().zip(inputs) {
            *kid = input.0;
        }
        debug_assert!(kids.iter().filter(|&&k| k != NONE).all(|&k| {
            let child_ctx = match implied.submit_to {
                NONE => ctx,
                wrapper => wrapper,
            };
            self.facts[k as usize].key.ctx == child_ctx
        }));
        SubtreeId(self.node(ctx, payload, implied, kids))
    }

    /// Distinct subtrees interned so far.
    #[cfg(test)]
    pub(crate) fn subtrees(&self) -> usize {
        self.nodes.len()
    }

    fn walk(&mut self, plan: &LogicalPlan, ctx: u32) -> u32 {
        let (payload, implied) = self.payload(Payload::of(plan));
        let child_ctx = match implied.submit_to {
            NONE => ctx,
            wrapper => wrapper,
        };
        let kids = match inputs(plan) {
            Inputs::Leaf => [NONE, NONE],
            Inputs::One(input) => [self.walk(input, child_ctx), NONE],
            Inputs::Two(left, right) => [self.walk(left, child_ctx), self.walk(right, child_ctx)],
        };
        self.node(ctx, payload, implied, kids)
    }

    /// The subtree id of `payload` over `kids`, storing its facts, derived
    /// from the children's, when it is new.
    fn node(&mut self, ctx: u32, payload: u32, implied: Implied, kids: [u32; 2]) -> u32 {
        let key = NodeKey { ctx, payload, kids };
        if let Some(&id) = self.nodes.get(&key) {
            return id;
        }
        let kid = kids.map(|k| (k != NONE).then(|| self.facts[k as usize]));
        let (base, colls) = match kid {
            [None, _] => (implied.collection, implied.set),
            [Some(k), None] => (k.base, k.colls),
            [Some(l), Some(r)] => (NONE, self.union(l.colls, r.colls)),
        };
        let own = &self.payload_list[payload as usize];
        let arity = own.output_arity(|i| kid[i].map_or(0, |k| k.arity as usize)) as u32;
        let head = match **own {
            Payload::Scan { .. } => Head::Scan(base),
            _ => Head::Payload(payload),
        };
        let bases = kid.map(|k| k.map_or(NONE, |k| k.base));
        let sig = intern_key(
            &mut self.sigs,
            SigKey {
                ctx,
                head,
                bases,
                colls,
            },
        );
        let id = self.facts.len() as u32;
        self.nodes.insert(key, id);
        self.facts.push(Facts {
            key,
            sig,
            base,
            colls,
            arity,
        });
        id
    }

    fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.name_list.len() as u32;
        let name: Rc<str> = name.into();
        self.name_list.push(Rc::clone(&name));
        self.names.insert(name, id);
        id
    }

    fn collection(&mut self, q: &QualifiedName) -> u32 {
        if let Some(&id) = self.collections.get(q) {
            return id;
        }
        let id = self.collection_list.len() as u32;
        let q = Rc::new(q.clone());
        self.collection_list.push(Rc::clone(&q));
        self.collections.insert(q, id);
        id
    }

    fn set(&mut self, members: &[u32]) -> u32 {
        if let Some(&id) = self.sets.get(members) {
            return id;
        }
        let id = self.set_list.len() as u32;
        let set: Rc<[u32]> = members.into();
        self.set_list.push(Rc::clone(&set));
        self.sets.insert(set, id);
        id
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        if let Some(&id) = self.unions.get(&[a, b]) {
            return id;
        }
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        merged.extend_from_slice(&self.set_list[a as usize]);
        merged.extend_from_slice(&self.set_list[b as usize]);
        merged.sort_unstable();
        merged.dedup();
        let id = self.set(&merged);
        self.merged = merged;
        self.unions.insert([a, b], id);
        id
    }

    /// The payload's id, and what it implies.
    fn payload(&mut self, payload: Payload<'_>) -> (u32, Implied) {
        // Stored payloads are `'static`; a map is covariant in its keys,
        // so the borrowed one can be looked up without being cloned.
        let stored: &Ids<Rc<Payload<'_>>> = &self.payloads;
        if let Some(&id) = stored.get(&payload) {
            return (id, self.implied[id as usize]);
        }
        let mut implied = Implied {
            collection: NONE,
            set: NONE,
            submit_to: NONE,
        };
        match &payload {
            Payload::Scan { collection, .. } => {
                implied.collection = self.collection(collection);
                implied.set = self.set(&[implied.collection]);
            }
            Payload::Submit(wrapper) => implied.submit_to = self.name(wrapper),
            _ => {}
        }
        let id = self.payload_list.len() as u32;
        let payload = Rc::new(payload.into_owned());
        self.payload_list.push(Rc::clone(&payload));
        self.payloads.insert(payload, id);
        self.implied.push(implied);
        (id, implied)
    }
}

/// One plan node as the estimator reads it: its own fields
/// ([`NodeView::payload`]), and through [`NodeView::input`] the facts of
/// each input that formulas observe — base collection, output arity, bare
/// scan or not. Over an interned subtree every fact is a table lookup;
/// over a plain tree the same facts are derived from the child plans.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'v>(Origin<'v>);

#[derive(Debug, Clone, Copy)]
enum Origin<'v> {
    Tree(&'v LogicalPlan),
    Interned(&'v Interner, u32),
    /// A plan node and its pre-order position in the cached association
    /// of a plan of the same shape.
    Bound(&'v LogicalPlan, &'v Association, u32),
}

impl<'v> NodeView<'v> {
    /// The root of `plan`.
    pub fn of(plan: &'v LogicalPlan) -> Self {
        NodeView(Origin::Tree(plan))
    }

    pub(crate) fn interned(interner: &'v Interner, id: SubtreeId) -> Self {
        NodeView(Origin::Interned(interner, id.0))
    }

    /// `plan`, the node at pre-order position `at` of the shape `assoc`
    /// was made for.
    pub(crate) fn bound(plan: &'v LogicalPlan, assoc: &'v Association, at: u32) -> Self {
        NodeView(Origin::Bound(plan, assoc, at))
    }

    fn facts(interner: &'v Interner, id: u32) -> &'v Facts {
        &interner.facts[id as usize]
    }

    /// The node's own fields.
    pub fn payload(&self) -> Payload<'v> {
        match self.0 {
            Origin::Tree(plan) | Origin::Bound(plan, ..) => Payload::of(plan),
            Origin::Interned(t, id) => {
                let payload: &'v Payload<'static> =
                    &t.payload_list[Self::facts(t, id).key.payload as usize];
                payload.reborrow()
            }
        }
    }

    /// The operator.
    pub fn kind(&self) -> OperatorKind {
        self.payload().kind()
    }

    /// Input `i` (0 the input or left, 1 the right), if the node has it.
    pub fn input(&self, i: usize) -> Option<NodeView<'v>> {
        match self.0 {
            Origin::Tree(plan) => input(plan, i).map(NodeView::of),
            Origin::Bound(plan, assoc, at) => {
                let child = input(plan, i)?;
                let at = if i == 0 { at + 1 } else { assoc.right(at) };
                Some(NodeView(Origin::Bound(child, assoc, at)))
            }
            Origin::Interned(t, id) => match Self::facts(t, id).key.kids.get(i) {
                Some(&kid) if kid != NONE => Some(NodeView(Origin::Interned(t, kid))),
                _ => None,
            },
        }
    }

    /// The single base collection the subtree reads, if it is a linear
    /// pipeline over one scan.
    pub fn base_collection(&self) -> Option<&'v QualifiedName> {
        match self.0 {
            Origin::Tree(plan) | Origin::Bound(plan, ..) => plan.base_collection(),
            Origin::Interned(t, id) => match Self::facts(t, id).base {
                NONE => None,
                base => Some(&t.collection_list[base as usize]),
            },
        }
    }

    /// Whether the subtree reads a collection named `collection` (in any
    /// wrapper).
    pub fn reads(&self, collection: &str) -> bool {
        match self.0 {
            Origin::Tree(plan) | Origin::Bound(plan, ..) => plan
                .collections()
                .iter()
                .any(|c| c.collection == collection),
            Origin::Interned(t, id) => t.set_list[Self::facts(t, id).colls as usize]
                .iter()
                .any(|&c| t.collection_list[c as usize].collection == collection),
        }
    }

    /// Arity of the node's output, counted over the operators' structure
    /// (a projection's columns, a join's two sides), without validating
    /// attribute names.
    pub fn output_arity(&self) -> usize {
        match self.0 {
            Origin::Tree(plan) | Origin::Bound(plan, ..) => Payload::of(plan)
                .output_arity(|i| input(plan, i).map_or(0, |c| NodeView::of(c).output_arity())),
            Origin::Interned(t, id) => Self::facts(t, id).arity as usize,
        }
    }

    /// The wrapper a submit ships its input to.
    pub fn submit_to(&self) -> Option<&'v str> {
        match self.0 {
            Origin::Tree(LogicalPlan::Submit { wrapper, .. })
            | Origin::Bound(LogicalPlan::Submit { wrapper, .. }, ..) => Some(wrapper),
            Origin::Tree(_) | Origin::Bound(..) => None,
            Origin::Interned(t, id) => {
                match &*t.payload_list[Self::facts(t, id).key.payload as usize] {
                    Payload::Submit(wrapper) => Some(wrapper),
                    _ => None,
                }
            }
        }
    }

    /// Whether the node is a bare `Scan`.
    pub fn is_scan(&self) -> bool {
        matches!(self.payload(), Payload::Scan { .. })
    }

    /// The plan node, on the tree entry point.
    pub(crate) fn plan(&self) -> Option<&'v LogicalPlan> {
        match self.0 {
            Origin::Tree(plan) | Origin::Bound(plan, ..) => Some(plan),
            Origin::Interned(..) => None,
        }
    }

    /// Subtree and signature id, on the interned entry point.
    pub(crate) fn ids(&self) -> Option<(u32, u32)> {
        match self.0 {
            Origin::Interned(t, id) => Some((id, Self::facts(t, id).sig)),
            Origin::Tree(_) | Origin::Bound(..) => None,
        }
    }

    /// The cached association and the node's position in it, on the
    /// bound entry point.
    pub(crate) fn association(&self) -> Option<(&'v Association, u32)> {
        match self.0 {
            Origin::Bound(_, assoc, at) => Some((assoc, at)),
            Origin::Tree(_) | Origin::Interned(..) => None,
        }
    }

    /// The execution context an interned subtree was interned under.
    pub(crate) fn context(&self) -> Option<&'v str> {
        match self.0 {
            Origin::Tree(_) | Origin::Bound(..) => None,
            Origin::Interned(t, id) => match Self::facts(t, id).key.ctx {
                NONE => None,
                ctx => Some(&t.name_list[ctx as usize]),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CardinalityOverrides, EstimateOptions, Estimator, EstimatorCache, RuleRegistry};
    use disco_algebra::{CompareOp, PlanBuilder};
    use disco_common::{AttributeDef, DataType};

    /// The collection of `crate::support::catalog`, over `columns`.
    fn t(columns: &[&str]) -> PlanBuilder {
        let attrs = columns
            .iter()
            .map(|c| AttributeDef::new(*c, DataType::Long))
            .collect();
        PlanBuilder::scan(QualifiedName::new("w", "T"), Schema::new(attrs))
    }

    fn over_zero(zero: f64) -> LogicalPlan {
        t(&["a", "b"]).select("a", CompareOp::Gt, zero).build()
    }

    fn join(kind: JoinKind) -> LogicalPlan {
        let LogicalPlan::Join {
            left,
            right,
            predicate,
            ..
        } = t(&["a", "b"]).join(t(&["a", "b"]), "a", "b").build()
        else {
            unreachable!("join builds a join")
        };
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        }
    }

    /// Subtree id of `plan`'s root, executing under `ctx`.
    fn id(interner: &mut Interner, plan: &LogicalPlan, ctx: Option<&str>) -> SubtreeId {
        interner.intern_plan(plan, ctx)
    }

    /// Run `check` with real fingerprints, then with every fingerprint in
    /// one bucket, where only equality keeps keys apart.
    fn in_both_bucketings(check: impl Fn()) {
        check();
        ONE_BUCKET.with(|b| b.set(true));
        check();
        ONE_BUCKET.with(|b| b.set(false));
    }

    #[test]
    fn plans_that_differ_only_in_one_field_get_distinct_ids() {
        let pairs = [
            (
                "scan schema",
                t(&["a", "b"]).build(),
                t(&["a", "c"]).build(),
            ),
            ("0.0 vs -0.0", over_zero(0.0), over_zero(-0.0)),
            (
                "join kind",
                join(JoinKind::Inner),
                join(JoinKind::LeftOuter),
            ),
            (
                "a child deep down",
                t(&["a", "b"])
                    .select("a", CompareOp::Lt, 1i64)
                    .dedup()
                    .build(),
                t(&["a", "b"])
                    .select("a", CompareOp::Lt, 2i64)
                    .dedup()
                    .build(),
            ),
        ];
        // `Value`'s own equality cannot tell the two zeros apart.
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
        in_both_bucketings(|| {
            let mut interner = Interner::default();
            for (what, x, y) in &pairs {
                assert_ne!(
                    id(&mut interner, x, None),
                    id(&mut interner, y, None),
                    "{what}"
                );
            }
            let plan = t(&["a", "b"]).build();
            assert_ne!(
                id(&mut interner, &plan, None),
                id(&mut interner, &plan, Some("w")),
                "execution context"
            );
        });
    }

    #[test]
    fn equal_plans_built_apart_share_one_id_and_one_memo_entry() {
        let build = || {
            t(&["a", "b"])
                .select("a", CompareOp::Lt, 0.5)
                .submit("w")
                .join(t(&["a", "b"]).submit("w"), "a", "a")
                .dedup()
                .build()
        };
        let (x, y) = (build(), build());
        let mut interner = Interner::default();
        assert_eq!(id(&mut interner, &x, None), id(&mut interner, &y, None));

        let reg = RuleRegistry::with_default_model();
        let cat = crate::support::catalog(10_000, 500, true);
        let est = Estimator::new(&reg, &cat);
        let (cache, opts) = (EstimatorCache::new(), EstimateOptions::default());
        let first = est.estimate_report_cached(&x, &opts, &cache).unwrap();
        let (subtrees, hits) = (cache.subtrees(), cache.cost_hits());
        let second = est.estimate_report_cached(&y, &opts, &cache).unwrap();
        assert_eq!(cache.subtrees(), subtrees, "no new subtree was interned");
        assert_eq!(cache.cost_hits(), hits + 1, "the root hit its one entry");
        assert_eq!(second.as_ref().map(|r| r.nodes_visited), Some(1));
        assert_eq!(second.map(|r| r.cost), first.map(|r| r.cost));
    }

    #[test]
    fn a_node_stacked_on_interned_inputs_is_the_tree_interned_whole() {
        let plan = t(&["a", "b"])
            .select("a", CompareOp::Lt, 0.5)
            .submit("w")
            .join(
                t(&["a", "b", "c"]).project_attrs(&["c"]).submit("w"),
                "a",
                "c",
            )
            .dedup()
            .build();
        let LogicalPlan::Dedup { input: join } = &plan else {
            unreachable!("dedup on top")
        };
        let LogicalPlan::Join { left, right, .. } = &**join else {
            unreachable!("a join below")
        };
        in_both_bucketings(|| {
            let mut interner = Interner::default();
            let inputs = [left, right].map(|p| interner.intern_plan(p, None));
            let stacked = interner.intern_node(None, Payload::of(join), &inputs);
            let top = interner.intern_node(None, Payload::of(&plan), &[stacked]);
            assert_eq!(top, id(&mut interner, &plan, None));

            // Both entry points read the same facts of every input.
            let facts = |v: NodeView<'_>| {
                (
                    v.kind(),
                    v.base_collection().cloned(),
                    v.output_arity(),
                    v.is_scan(),
                    v.submit_to().map(str::to_owned),
                    v.reads("T"),
                )
            };
            let mut pairs = vec![(NodeView::interned(&interner, top), NodeView::of(&plan))];
            while let Some((by_id, by_tree)) = pairs.pop() {
                assert_eq!(facts(by_id), facts(by_tree));
                for i in 0..2 {
                    match (by_id.input(i), by_tree.input(i)) {
                        (Some(a), Some(b)) => pairs.push((a, b)),
                        (a, b) => assert_eq!(a.is_none(), b.is_none()),
                    }
                }
            }
        });
    }

    #[test]
    fn cached_estimates_equal_uncached_with_every_fingerprint_in_one_bucket() {
        ONE_BUCKET.with(|b| b.set(true));
        let fingerprint = |s: &str| {
            let mut h = Fingerprint::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(fingerprint("a"), fingerprint("b"), "one bucket for all");
        crate::support::cached_estimates_equal_uncached(256);
        crate::support::shared_cache_prices_each_plan_alone(256);
        ONE_BUCKET.with(|b| b.set(false));
    }

    #[test]
    fn overrides_recognize_a_submit_site_by_structure() {
        let mut overrides = CardinalityOverrides::new();
        overrides.insert("w", &over_zero(0.0), 5.0, 40.0);
        assert_eq!(overrides.get("w", &over_zero(0.0)), Some((5.0, 40.0)));
        assert_eq!(overrides.get("w", &over_zero(-0.0)), None);
        assert_eq!(overrides.get("v", &over_zero(0.0)), None);
        overrides.insert("w", &over_zero(0.0), 6.0, 48.0);
        assert_eq!(overrides.len(), 1);
        assert_eq!(overrides.get("w", &over_zero(0.0)), Some((6.0, 48.0)));
    }
}
