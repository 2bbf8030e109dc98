//! A from-scratch B+-tree index.
//!
//! Keys are [`Value`]s under the total order of
//! [`Value::total_cmp_value`]; each key maps to the row ids holding it.
//! Leaves are chained for range scans. The tree supports insertion and
//! lookup — the simulated stores build indexes at load time and the
//! workloads are read-only, so deletion is intentionally out of scope.

use std::cmp::Ordering;

use disco_algebra::CompareOp;
use disco_common::Value;

/// Maximum keys per node before splitting.
const ORDER: usize = 64;

/// Key newtype giving [`Value`] a total order.
#[derive(Debug, Clone, PartialEq)]
pub struct Key(pub Value);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp_value(&other.0)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<Key>,
        /// Row ids per key, parallel to `keys`.
        rids: Vec<Vec<u32>>,
        next: Option<usize>,
    },
    Inner {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]`.
        keys: Vec<Key>,
        children: Vec<usize>,
    },
}

/// The B+-tree.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
    height: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// Empty tree.
    pub fn new() -> Self {
        BPlusTree {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                rids: Vec::new(),
                next: None,
            }],
            root: 0,
            len: 0,
            height: 1,
        }
    }

    /// Build from `(value, rid)` pairs.
    pub fn build(entries: impl IntoIterator<Item = (Value, u32)>) -> Self {
        let mut t = BPlusTree::new();
        for (v, r) in entries {
            t.insert(v, r);
        }
        t
    }

    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Insert one entry.
    pub fn insert(&mut self, value: Value, rid: u32) {
        let key = Key(value);
        if let Some((mid_key, right)) = self.insert_at(self.root, key, rid) {
            // Root split: grow a level.
            let new_root = Node::Inner {
                keys: vec![mid_key],
                children: vec![self.root, right],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
            self.height += 1;
        }
        self.len += 1;
    }

    /// Insert below node `idx`; returns `(separator, new right node)` if
    /// the node split.
    fn insert_at(&mut self, idx: usize, key: Key, rid: u32) -> Option<(Key, usize)> {
        // Route first with a short-lived borrow; recurse outside it.
        let child = match &self.nodes[idx] {
            Node::Inner { keys, children } => {
                let pos = match keys.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                Some(children[pos])
            }
            Node::Leaf { .. } => None,
        };
        if let Some(child) = child {
            let (mid, right) = self.insert_at(child, key, rid)?;
            let needs_split = {
                let Node::Inner { keys, children } = &mut self.nodes[idx] else {
                    unreachable!("node kind is stable");
                };
                let i = match keys.binary_search(&mid) {
                    Ok(i) => i,
                    Err(i) => i,
                };
                keys.insert(i, mid);
                children.insert(i + 1, right);
                keys.len() > ORDER
            };
            return needs_split.then(|| self.split_inner(idx));
        }
        let needs_split = {
            let Node::Leaf { keys, rids, .. } = &mut self.nodes[idx] else {
                unreachable!("routed to a leaf");
            };
            match keys.binary_search(&key) {
                Ok(i) => {
                    rids[i].push(rid);
                    false
                }
                Err(i) => {
                    keys.insert(i, key);
                    rids.insert(i, vec![rid]);
                    keys.len() > ORDER
                }
            }
        };
        needs_split.then(|| self.split_leaf(idx))
    }

    fn split_leaf(&mut self, idx: usize) -> (Key, usize) {
        let new_idx = self.nodes.len();
        let Node::Leaf { keys, rids, next } = &mut self.nodes[idx] else {
            unreachable!("split_leaf on leaf");
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_rids = rids.split_off(mid);
        let sep = right_keys[0].clone();
        let right = Node::Leaf {
            keys: right_keys,
            rids: right_rids,
            next: *next,
        };
        *next = Some(new_idx);
        self.nodes.push(right);
        (sep, new_idx)
    }

    fn split_inner(&mut self, idx: usize) -> (Key, usize) {
        let new_idx = self.nodes.len();
        let Node::Inner { keys, children } = &mut self.nodes[idx] else {
            unreachable!("split_inner on inner");
        };
        let mid = keys.len() / 2;
        let sep = keys[mid].clone();
        let right_keys = keys.split_off(mid + 1);
        keys.pop(); // the separator moves up
        let right_children = children.split_off(mid + 1);
        self.nodes.push(Node::Inner {
            keys: right_keys,
            children: right_children,
        });
        (sep, new_idx)
    }

    /// Row ids with exactly `value`.
    pub fn lookup(&self, value: &Value) -> &[u32] {
        let key = Key(value.clone());
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Inner { keys, children } => {
                    let pos = match keys.binary_search(&key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    idx = children[pos];
                }
                Node::Leaf { keys, rids, .. } => {
                    return match keys.binary_search(&key) {
                        Ok(i) => &rids[i],
                        Err(_) => &[],
                    };
                }
            }
        }
    }

    /// Row ids matching `op value`, in key order. `Ne` is unsupported
    /// (an index gives no benefit) and returns `None`, as does any
    /// comparison a B+-tree cannot serve.
    pub fn scan(&self, op: CompareOp, value: &Value) -> Option<Vec<u32>> {
        let key = Key(value.clone());
        let mut out = Vec::new();
        match op {
            CompareOp::Eq => {
                out.extend_from_slice(self.lookup(value));
            }
            CompareOp::Ne => return None,
            CompareOp::Lt | CompareOp::Le => {
                let mut leaf = self.first_leaf();
                'walk: while let Some(idx) = leaf {
                    let Node::Leaf { keys, rids, next } = &self.nodes[idx] else {
                        unreachable!("leaf chain holds leaves");
                    };
                    for (k, r) in keys.iter().zip(rids) {
                        let ord = k.cmp(&key);
                        let keep = match op {
                            CompareOp::Lt => ord == Ordering::Less,
                            _ => ord != Ordering::Greater,
                        };
                        if keep {
                            out.extend_from_slice(r);
                        } else {
                            break 'walk;
                        }
                    }
                    leaf = *next;
                }
            }
            CompareOp::Gt | CompareOp::Ge => {
                let mut idx = self.leaf_for(&key);
                loop {
                    let Node::Leaf { keys, rids, next } = &self.nodes[idx] else {
                        unreachable!("leaf chain holds leaves");
                    };
                    for (k, r) in keys.iter().zip(rids) {
                        let ord = k.cmp(&key);
                        let keep = match op {
                            CompareOp::Gt => ord == Ordering::Greater,
                            _ => ord != Ordering::Less,
                        };
                        if keep {
                            out.extend_from_slice(r);
                        }
                    }
                    match next {
                        Some(n) => idx = *n,
                        None => break,
                    }
                }
            }
        }
        Some(out)
    }

    fn first_leaf(&self) -> Option<usize> {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Inner { children, .. } => idx = children[0],
                Node::Leaf { .. } => return Some(idx),
            }
        }
    }

    fn leaf_for(&self, key: &Key) -> usize {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Inner { keys, children } => {
                    let pos = match keys.binary_search(key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    idx = children[pos];
                }
                Node::Leaf { .. } => return idx,
            }
        }
    }

    /// All distinct keys, in order (diagnostics and statistics export).
    pub fn distinct_keys(&self) -> usize {
        let mut count = 0;
        let mut leaf = self.first_leaf();
        while let Some(idx) = leaf {
            let Node::Leaf { keys, next, .. } = &self.nodes[idx] else {
                unreachable!("leaf chain holds leaves");
            };
            count += keys.len();
            leaf = *next;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_tree(n: i64) -> BPlusTree {
        BPlusTree::build((0..n).map(|i| (Value::Long(i), i as u32)))
    }

    #[test]
    fn lookup_finds_inserted() {
        let t = long_tree(10_000);
        assert_eq!(t.len(), 10_000);
        assert!(t.height() > 1);
        assert_eq!(t.lookup(&Value::Long(1234)), &[1234]);
        assert_eq!(t.lookup(&Value::Long(-5)), &[] as &[u32]);
        assert_eq!(t.lookup(&Value::Long(10_000)), &[] as &[u32]);
    }

    #[test]
    fn duplicate_keys_accumulate_rids() {
        let t = BPlusTree::build((0..100u32).map(|i| (Value::Long((i % 10) as i64), i)));
        let rids = t.lookup(&Value::Long(3));
        assert_eq!(rids.len(), 10);
        assert!(rids.iter().all(|r| r % 10 == 3));
    }

    #[test]
    fn range_scans() {
        let t = long_tree(1_000);
        let le = t.scan(CompareOp::Le, &Value::Long(99)).unwrap();
        assert_eq!(le.len(), 100);
        let lt = t.scan(CompareOp::Lt, &Value::Long(99)).unwrap();
        assert_eq!(lt.len(), 99);
        let ge = t.scan(CompareOp::Ge, &Value::Long(990)).unwrap();
        assert_eq!(ge.len(), 10);
        let gt = t.scan(CompareOp::Gt, &Value::Long(990)).unwrap();
        assert_eq!(gt.len(), 9);
        let eq = t.scan(CompareOp::Eq, &Value::Long(5)).unwrap();
        assert_eq!(eq, vec![5]);
        assert!(t.scan(CompareOp::Ne, &Value::Long(5)).is_none());
    }

    #[test]
    fn range_scan_returns_key_order() {
        let t = BPlusTree::build((0..1000u32).rev().map(|i| (Value::Long(i as i64), i)));
        let all = t.scan(CompareOp::Ge, &Value::Long(0)).unwrap();
        assert_eq!(all.len(), 1000);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn string_keys() {
        let t = BPlusTree::build(
            ["delta", "alpha", "charlie", "bravo"]
                .iter()
                .enumerate()
                .map(|(i, s)| (Value::Str((*s).into()), i as u32)),
        );
        assert_eq!(t.lookup(&Value::Str("charlie".into())), &[2]);
        let le = t.scan(CompareOp::Le, &Value::Str("bravo".into())).unwrap();
        assert_eq!(le.len(), 2);
    }

    #[test]
    fn distinct_key_count() {
        let t = BPlusTree::build((0..500u32).map(|i| (Value::Long((i % 50) as i64), i)));
        assert_eq!(t.distinct_keys(), 50);
    }

    /// Random insert sequences against a `BTreeMap` model: point lookups
    /// on every key of the domain and `<=` range scans at a few pivots.
    #[test]
    fn matches_btreemap_model() {
        use std::collections::BTreeMap;
        for seed in 0..64u64 {
            let mut rng = disco_common::rng::seeded(seed, "btree-model");
            let ops: Vec<(i64, u32)> = (0..rng.gen_range(0..600usize))
                .map(|_| {
                    (
                        rng.gen_range(0..200i64),
                        rng.gen_range(0..10_000usize) as u32,
                    )
                })
                .collect();
            let mut model: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
            let mut tree = BPlusTree::new();
            for &(k, r) in &ops {
                model.entry(k).or_default().push(r);
                tree.insert(Value::Long(k), r);
            }
            assert_eq!(tree.len(), ops.len(), "seed {seed}");
            for k in 0i64..200 {
                let expect = model.get(&k).cloned().unwrap_or_default();
                assert_eq!(
                    tree.lookup(&Value::Long(k)),
                    &expect[..],
                    "seed {seed}, key {k}"
                );
            }
            for pivot in [0i64, 50, 137, 199] {
                // Both are key-ordered; rid order within a key is insertion order.
                let expect: Vec<u32> = model
                    .range(..=pivot)
                    .flat_map(|(_, v)| v.iter().copied())
                    .collect();
                let got = tree.scan(CompareOp::Le, &Value::Long(pivot)).unwrap();
                assert_eq!(got, expect, "seed {seed}, pivot {pivot}");
            }
        }
    }
}
