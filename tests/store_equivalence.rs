//! Randomized differential suite: a disco-store-backed collection must
//! return *byte-identical* answers to the in-memory simulated source,
//! for the same seed, across sequential scans, index point lookups,
//! index range scans, non-indexed (scan + filter) selects, projections
//! and aggregates over selects, and index joins.
//!
//! Both engines load one collection builder under one placement seed,
//! and take their layout from its one layout step, so they hold the
//! same objects on the same modelled pages. Answers are compared through
//! the store's own record codec — tuple-for-tuple byte equality, not
//! just `PartialEq` — and, cold, the two pagers must report the *same
//! fault count*: the engine faults exactly the pages the model counts.
//! Both run the one plan walker, so they also examine the same objects
//! and, at the same profile, take the same virtual time.

use disco_algebra::{AggFunc, CompareOp, LogicalPlan, PlanBuilder};
use disco_common::rng::{seeded, StdRng};
use disco_common::{AttributeDef, DataType, QualifiedName, Schema, Value};
use disco_sources::{CollectionBuilder, CostProfile, DataSource, PagedStore, StoreSource};
use disco_store::codec::encode_tuple;
use disco_store::DiskStoreBuilder;

const SEEDS: u64 = 15;

fn schema() -> Schema {
    Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("grp", DataType::Long),
        AttributeDef::new("name", DataType::Str),
        AttributeDef::new("score", DataType::Double),
    ])
}

/// Random rows: unique uniform `id`, low-cardinality `grp`, strings of
/// varying length, doubles (some negative), occasional NULL score.
fn rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n as i64)
        .map(|i| {
            let score = if rng.gen_range(0..10usize) == 0 {
                Value::Null
            } else {
                Value::Double(rng.gen_f64() * 200.0 - 100.0)
            };
            vec![
                Value::Long(i),
                Value::Long(rng.gen_range(0..7i64)),
                Value::Str(format!(
                    "row-{i:04}-{}",
                    "x".repeat(rng.gen_range(0..9usize))
                )),
                score,
            ]
        })
        .collect()
}

struct Pair {
    sim: PagedStore,
    disk: StoreSource,
    n: usize,
}

/// Build the page model and the disk engine from one builder and one
/// seed. Both use store name `s` and collection `T`, so the object→page
/// map is identical.
fn build_pair(seed: u64) -> Pair {
    let mut rng = seeded(seed, "store-equivalence");
    let n = rng.gen_range(60..400usize);
    let clustered = seed.is_multiple_of(3);
    let data = rows(&mut rng, n);
    // The modelled object size must cover the largest encoded record
    // (plus its 4-byte slot entry), or the physical page fills before
    // the modelled per-page count and the build rejects the layout.
    let encoded_max = data
        .iter()
        .map(|r| encode_tuple(&disco_common::Tuple::new(r.clone())).len() as u64 + 4)
        .max()
        .unwrap_or(0);
    let object_size = rng.gen_range(24..120u64).max(encoded_max);

    let mut builder = CollectionBuilder::new(schema())
        .rows(data)
        .object_size(object_size)
        .index("id");
    if clustered {
        builder = builder.cluster_on("id");
    }

    let mut sim = PagedStore::new("s", CostProfile::object_store()).with_seed(seed);
    sim.add_collection("T", builder.clone()).unwrap();
    let disk = DiskStoreBuilder::new("s")
        .seed(seed)
        .collection("T", builder)
        .build()
        .unwrap();
    Pair {
        sim,
        disk: StoreSource::new(disk, CostProfile::object_store()),
        n,
    }
}

fn scan() -> PlanBuilder {
    PlanBuilder::scan(QualifiedName::new("s", "T"), schema())
}

/// The query mix for one seeded pair: full scan, every comparison the
/// index serves (point lookups and range scans, including empty and
/// total ranges), the `Ne` fallback, non-indexed selects on both a Long
/// and a Str column, a projection and an aggregate over an index range,
/// and an index join (a selective left side probing the `id` index).
fn queries(rng: &mut StdRng, n: usize) -> Vec<(String, LogicalPlan)> {
    let mut qs: Vec<(String, LogicalPlan)> = vec![("scan".into(), scan().build())];
    for op in [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ] {
        // In-domain, below-domain, and above-domain bounds.
        let bounds = [
            rng.gen_range(0..n as i64),
            -1,
            n as i64 + rng.gen_range(0..5i64),
        ];
        for v in bounds {
            qs.push((
                format!("id {} {v}", op.symbol()),
                scan().select("id", op, v).build(),
            ));
        }
    }
    qs.push((
        "grp = 3 (unindexed)".into(),
        scan().select("grp", CompareOp::Eq, 3i64).build(),
    ));
    qs.push((
        "name >= row-0100 (unindexed)".into(),
        scan()
            .select("name", CompareOp::Ge, Value::Str("row-0100".into()))
            .build(),
    ));
    let hi = rng.gen_range(1..n as i64);
    qs.push((
        format!("project(id<{hi})"),
        scan()
            .select("id", CompareOp::Lt, hi)
            .project_attrs(&["name", "score"])
            .build(),
    ));
    let lo = rng.gen_range(0..n as i64);
    qs.push((
        format!("count, max(score) by grp over id>={lo}"),
        scan()
            .select("id", CompareOp::Ge, lo)
            .aggregate(
                &["grp"],
                vec![
                    ("n", AggFunc::Count, None),
                    ("hi", AggFunc::Max, Some("score")),
                ],
            )
            .build(),
    ));
    let few = rng.gen_range(1..20i64);
    qs.push((
        format!("(id<{few}) index-join T on id"),
        scan()
            .select("id", CompareOp::Lt, few)
            .join(scan(), "id", "id")
            .build(),
    ));
    qs
}

fn tuple_bytes(tuples: &[disco_common::Tuple]) -> Vec<Vec<u8>> {
    tuples.iter().map(encode_tuple).collect()
}

#[test]
fn disk_engine_answers_are_byte_identical_to_the_simulated_engine() {
    for seed in 0..SEEDS {
        let pair = build_pair(seed);
        let mut rng = seeded(seed, "store-equivalence-queries");
        for (label, plan) in queries(&mut rng, pair.n) {
            pair.disk.clear_cache().unwrap();
            let sim = pair.sim.execute(&plan).unwrap();
            let disk = pair.disk.execute(&plan).unwrap();
            assert_eq!(
                sim.schema, disk.schema,
                "seed {seed}, query `{label}`: schemas diverge"
            );
            assert_eq!(
                tuple_bytes(&sim.batch.to_tuples()),
                tuple_bytes(&disk.batch.to_tuples()),
                "seed {seed}, query `{label}`: answers diverge"
            );
            // Identical placement, cold pools on both sides: the real
            // engine faults exactly the pages the simulation modelled.
            assert_eq!(
                sim.stats.pages_read, disk.stats.pages_read,
                "seed {seed}, query `{label}`: fault counts diverge"
            );
            assert_eq!(
                sim.stats.objects_scanned, disk.stats.objects_scanned,
                "seed {seed}, query `{label}`: objects examined diverge"
            );
            // The simulated pool charges each fault as it happens, the
            // disk engine all of them at the end: the same terms in a
            // different order.
            assert!(
                (sim.stats.elapsed_ms - disk.stats.elapsed_ms).abs() < 1e-6,
                "seed {seed}, query `{label}`: elapsed {} vs {}",
                sim.stats.elapsed_ms,
                disk.stats.elapsed_ms
            );
        }
    }
}

#[test]
fn warm_disk_answers_match_cold_answers() {
    let pair = build_pair(1);
    let plan = scan().select("id", CompareOp::Le, 50i64).build();
    pair.disk.clear_cache().unwrap();
    let cold = pair.disk.execute(&plan).unwrap();
    let warm = pair.disk.execute(&plan).unwrap();
    assert_eq!(
        tuple_bytes(&cold.batch.to_tuples()),
        tuple_bytes(&warm.batch.to_tuples())
    );
    assert!(cold.stats.pages_read > 0);
    assert_eq!(warm.stats.pages_read, 0, "everything resident second time");
    assert!(warm.stats.buffer_hits > 0);
}
