//! Hash-consing of logical subplans: the keys of the estimator's per-run
//! caches.
//!
//! An estimate on the cached path interns its plan once, bottom-up
//! (children before parents, like the §4.2 evaluation phase), and gets
//! back one [`Slot`] per node. A node's *subtree id* is determined by
//! three things: its wrapper execution context, its shallow [`Payload`]
//! (operator kind plus the node's own fields — collection and schema,
//! predicate, columns, keys, join kind, aggregates, wrapper) and its
//! children's subtree ids. Equal ids therefore mean structurally equal
//! subtrees under equal contexts, by induction, and the subplan cost memo
//! is a vector indexed by subtree id.
//!
//! The same pass gives each node a *signature id*: what rule association
//! ([`crate::pattern::match_head`]) can observe of the node — context,
//! kind, payload (a scan's collection only), each child's base collection
//! and the set of collections the subtree reads. Nodes with equal
//! signatures resolve to the same rules with the same bindings. Base
//! collections and collection sets are derived during the pass, from the
//! children's, so no node walks its subtree again.
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
use disco_algebra::{JoinKind, JoinPredicate, LogicalPlan, Predicate, ScalarExpr};
use disco_common::{QualifiedName, Schema, Value};

/// The absent id: no child, no base collection, no context.
const NONE: u32 = u32::MAX;

/// A node's own fields, without its children. Borrowed from the plan
/// while it is interned, owned once stored.
#[derive(Debug, Clone)]
enum Payload<'p> {
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
    fn of(plan: &'p LogicalPlan) -> Self {
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

/// Where one node of an interned plan sits in the run's tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Subtree id: the subplan cost memo's index.
    pub node: u32,
    /// Signature id: the rule-resolution cache's index.
    pub sig: u32,
    /// Positions of the children's slots; post-order puts them first.
    pub kids: [u32; 2],
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

/// What the bottom-up pass knows of an interned subtree.
#[derive(Clone, Copy)]
struct Facts {
    pos: u32,
    node: u32,
    /// The single base collection the subtree reads, if it is a linear
    /// pipeline over one scan (`LogicalPlan::base_collection`).
    base: u32,
    /// Id of the set of collections the subtree reads.
    colls: u32,
}

/// The hash-consing tables of one run.
#[derive(Debug)]
pub(crate) struct Interner {
    /// Wrapper names, as execution contexts.
    names: Ids<Box<str>>,
    collections: Ids<QualifiedName>,
    /// Collection sets: sorted, duplicate-free collection ids.
    sets: Ids<Rc<[u32]>>,
    set_list: Vec<Rc<[u32]>>,
    /// The union of two sets, by their ids (not a dense numbering).
    unions: Ids<[u32; 2]>,
    payloads: Ids<Payload<'static>>,
    /// Indexed by payload id.
    implied: Vec<Implied>,
    nodes: Ids<NodeKey>,
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
            collections: Ids::default(),
            sets: sized(),
            set_list: Vec::with_capacity(INITIAL_CAPACITY),
            unions: sized(),
            payloads: sized(),
            implied: Vec::with_capacity(INITIAL_CAPACITY),
            nodes: sized(),
            sigs: sized(),
            merged: Vec::new(),
        }
    }
}

impl Interner {
    /// Intern `plan`, executing under `ctx`, bottom-up: one slot per node
    /// is appended to `slots`, children first. Returns the root's
    /// position.
    pub(crate) fn intern_plan(
        &mut self,
        plan: &LogicalPlan,
        ctx: Option<&str>,
        slots: &mut Vec<Slot>,
    ) -> usize {
        let ctx = ctx.map_or(NONE, |w| self.name(w));
        self.walk(plan, ctx, slots).pos as usize
    }

    /// Distinct subtrees interned so far.
    #[cfg(test)]
    pub(crate) fn subtrees(&self) -> usize {
        self.nodes.len()
    }

    fn walk(&mut self, plan: &LogicalPlan, ctx: u32, slots: &mut Vec<Slot>) -> Facts {
        let (payload, implied) = self.payload(Payload::of(plan));
        let child_ctx = match implied.submit_to {
            NONE => ctx,
            wrapper => wrapper,
        };
        let (kids, base, colls) = match inputs(plan) {
            Inputs::Leaf => ([None, None], implied.collection, implied.set),
            Inputs::One(input) => {
                let f = self.walk(input, child_ctx, slots);
                ([Some(f), None], f.base, f.colls)
            }
            Inputs::Two(left, right) => {
                let l = self.walk(left, child_ctx, slots);
                let r = self.walk(right, child_ctx, slots);
                ([Some(l), Some(r)], NONE, self.union(l.colls, r.colls))
            }
        };
        let of = |pick: fn(Facts) -> u32| kids.map(|k| k.map_or(NONE, pick));

        let node = intern_key(
            &mut self.nodes,
            NodeKey {
                ctx,
                payload,
                kids: of(|f| f.node),
            },
        );
        let head = match plan {
            LogicalPlan::Scan { .. } => Head::Scan(base),
            _ => Head::Payload(payload),
        };
        let sig = intern_key(
            &mut self.sigs,
            SigKey {
                ctx,
                head,
                bases: of(|f| f.base),
                colls,
            },
        );
        slots.push(Slot {
            node,
            sig,
            kids: of(|f| f.pos),
        });
        Facts {
            pos: slots.len() as u32 - 1,
            node,
            base,
            colls,
        }
    }

    fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.insert(name.into(), id);
        id
    }

    fn collection(&mut self, q: &QualifiedName) -> u32 {
        if let Some(&id) = self.collections.get(q) {
            return id;
        }
        let id = self.collections.len() as u32;
        self.collections.insert(q.clone(), id);
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
        let stored: &Ids<Payload<'_>> = &self.payloads;
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
        let id = self.payloads.len() as u32;
        self.payloads.insert(payload.into_owned(), id);
        self.implied.push(implied);
        (id, implied)
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
    fn id(interner: &mut Interner, plan: &LogicalPlan, ctx: Option<&str>) -> u32 {
        let mut slots = Vec::new();
        let root = interner.intern_plan(plan, ctx, &mut slots);
        slots[root].node
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
