//! Index paths never serve a NULL key: on both engines, an index select
//! on a nullable `Long` or `Double` column answers what a scan and a
//! filter answer, for every comparison an index serves and for a NULL
//! constant, and an index join answers what a hash join answers.
//!
//! NULL sorts lowest in an index's key order but compares true with
//! nothing, so a range below a constant starts after the NULL keys, and
//! a NULL constant or a NULL outer key probes nothing.

use disco_algebra::{CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_sources::{
    CollectionBuilder, CostProfile, DataSource, PagedStore, StoreSource, SubAnswer,
};
use disco_store::codec::encode_tuple;
use disco_store::DiskStoreBuilder;

const SEEDS: u64 = 6;

/// Served by an index: every comparison but `Ne`.
const SERVED: [CompareOp; 5] = [
    CompareOp::Eq,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("k", DataType::Long),
        AttributeDef::new("d", DataType::Double),
    ])
}

/// A NULL in about one row of four, else a value from a small domain,
/// so that keys repeat and a join meets several rows per key.
fn cell(rng: &mut StdRng, value: impl FnOnce(&mut StdRng) -> Value) -> Value {
    if rng.gen_range(0..4usize) == 0 {
        Value::Null
    } else {
        value(rng)
    }
}

fn rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n as i64)
        .map(|i| {
            let k = cell(rng, |r| Value::Long(r.gen_range(-5..15i64)));
            let d = cell(rng, |r| Value::Double(r.gen_range(-8..8i64) as f64 / 2.0));
            vec![Value::Long(i), k, d]
        })
        .collect()
}

/// Both engines over one store `s` of the same rows twice: `I` with an
/// index on `k` and on `d`, `U` with none.
fn engines(seed: u64) -> Vec<(&'static str, Box<dyn DataSource>)> {
    let mut rng = seeded(seed, "null-keys");
    let n = rng.gen_range(40..240usize);
    let data = rows(&mut rng, n);
    let plain = CollectionBuilder::new(schema()).rows(data).object_size(48);
    let indexed = plain.clone().index("k").index("d");

    let mut sim = PagedStore::new("s", CostProfile::object_store()).with_seed(seed);
    sim.add_collection("I", indexed.clone()).unwrap();
    sim.add_collection("U", plain.clone()).unwrap();
    let disk = DiskStoreBuilder::new("s")
        .seed(seed)
        .collection("I", indexed)
        .collection("U", plain)
        .build()
        .unwrap();
    vec![
        ("page model", Box::new(sim)),
        (
            "disk",
            Box::new(StoreSource::new(disk, CostProfile::object_store())),
        ),
    ]
}

fn scan(collection: &str) -> PlanBuilder {
    PlanBuilder::scan(QualifiedName::new("s", collection), schema())
}

/// An answer as a multiset: its rows' record bytes, sorted.
fn rows_of(answer: &SubAnswer) -> Vec<Vec<u8>> {
    let mut rows: Vec<Vec<u8>> = answer.batch.to_tuples().iter().map(encode_tuple).collect();
    rows.sort();
    rows
}

fn run(source: &dyn DataSource, plan: &LogicalPlan, at: &str) -> SubAnswer {
    source.execute(plan).unwrap_or_else(|e| panic!("{at}: {e}"))
}

/// Constants for `attr`: one in the domain, one on its edge, one below
/// it, and NULL.
fn constants(attr: &str) -> [Value; 4] {
    match attr {
        "k" => [
            Value::Long(4),
            Value::Long(-5),
            Value::Long(-100),
            Value::Null,
        ],
        _ => [
            Value::Double(0.5),
            Value::Double(-4.0),
            Value::Double(-100.0),
            Value::Null,
        ],
    }
}

#[test]
fn an_index_select_on_a_nullable_column_answers_what_scan_and_filter_do() {
    for seed in 0..SEEDS {
        for (engine, source) in engines(seed) {
            for attr in ["k", "d"] {
                for op in SERVED {
                    for value in constants(attr) {
                        let at = format!("seed {seed}, {engine}: {attr} {} {value}", op.symbol());
                        let via_index = scan("I").select(attr, op, value.clone()).build();
                        let via_filter = scan("U").select(attr, op, value.clone()).build();
                        let index = run(&*source, &via_index, &at);
                        let filter = run(&*source, &via_filter, &at);
                        assert_eq!(rows_of(&index), rows_of(&filter), "{at}");
                        // The index path examined only the rows it served.
                        assert_eq!(
                            index.stats.objects_scanned,
                            index.batch.len() as u64,
                            "{at}"
                        );
                        assert!(
                            filter.stats.objects_scanned > filter.batch.len() as u64,
                            "{at}: the unindexed side must scan"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn an_index_join_on_a_nullable_column_answers_what_a_hash_join_does() {
    for seed in 0..SEEDS {
        for (engine, source) in engines(seed) {
            for attr in ["k", "d"] {
                let at = format!("seed {seed}, {engine}: join on {attr}");
                let index_join = scan("U").join(scan("I"), attr, attr).build();
                let hash_join = scan("U").join(scan("U"), attr, attr).build();
                let index = run(&*source, &index_join, &at);
                let hash = run(&*source, &hash_join, &at);
                assert_eq!(index.schema, hash.schema, "{at}");
                assert_eq!(rows_of(&index), rows_of(&hash), "{at}");
                assert!(!index.batch.is_empty(), "{at}: some keys must meet");
            }
        }
    }
}
