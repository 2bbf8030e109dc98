//! E8 (extension) — histogram statistics for skewed data.
//!
//! The paper's rule bodies may call an ad-hoc `selectivity(A, V)` that
//! "could handle, for example, histogram statistics \[IP95, PIHS96\]"
//! (§3.3.2). This experiment quantifies the benefit: cardinality
//! estimates for equality selections on a Zipf-skewed attribute, with the
//! wrapper exporting (a) only `CountDistinct`/`Min`/`Max` — the uniform
//! assumption — vs (b) equi-depth histograms.
//!
//! ```text
//! cargo run --release -p disco-bench --bin skew_selectivity
//! ```

use disco_algebra::{CompareOp, PlanBuilder};
use disco_bench::Table;
use disco_catalog::Catalog;
use disco_common::QualifiedName;
use disco_common::{rng, AttributeDef, DataType, Schema, Value};
use disco_core::{Estimator, RuleRegistry};
use disco_sources::{CollectionBuilder, CostProfile, DataSource, PagedStore};

const N: usize = 50_000;
const DOMAIN: i64 = 1_000;

/// Zipf-ish skew: value v drawn with probability ∝ 1/(v+1).
fn skewed_rows(seed: u64) -> Vec<Vec<Value>> {
    let mut r = rng::seeded(seed, "zipf");
    let weights: Vec<f64> = (0..DOMAIN).map(|v| 1.0 / (v as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    (0..N)
        .map(|i| {
            let mut x = r.gen_range(0.0..total);
            let mut v = 0i64;
            for (j, w) in weights.iter().enumerate() {
                if x < *w {
                    v = j as i64;
                    break;
                }
                x -= w;
            }
            vec![Value::Long(i as i64), Value::Long(v)]
        })
        .collect()
}

fn setup(with_histograms: bool) -> (Catalog, RuleRegistry, PagedStore) {
    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ]);
    let mut store = PagedStore::new("s", CostProfile::relational());
    if with_histograms {
        store = store.with_histograms(64);
    }
    store
        .add_collection(
            "T",
            CollectionBuilder::new(schema.clone())
                .rows(skewed_rows(7))
                .object_size(16)
                .index("id"),
        )
        .expect("load");
    let mut catalog = Catalog::new();
    catalog
        .register_wrapper("s", disco_catalog::Capabilities::full())
        .expect("reg");
    catalog
        .register_collection("s", "T", schema, store.statistics("T").expect("stats"))
        .expect("reg");
    (catalog, RuleRegistry::with_default_model(), store)
}

fn main() {
    let (cat_u, reg_u, store) = setup(false);
    let (cat_h, reg_h, _) = setup(true);
    let est_u = Estimator::new(&reg_u, &cat_u);
    let est_h = Estimator::new(&reg_h, &cat_h);

    let schema = Schema::new(vec![
        AttributeDef::new("id", DataType::Long),
        AttributeDef::new("v", DataType::Long),
    ]);

    println!("E8 — cardinality estimates on a Zipf-skewed attribute (n = {N})\n");
    let mut t = Table::new(&["predicate", "actual rows", "uniform est", "histogram est"]);
    let mut uniform_err = 0.0f64;
    let mut hist_err = 0.0f64;
    let mut cases = 0;
    for v in [0i64, 1, 5, 50, 500] {
        for op in [CompareOp::Eq, CompareOp::Le] {
            let plan = PlanBuilder::scan(QualifiedName::new("s", "T"), schema.clone())
                .select("v", op, v)
                .build();
            let actual = store.execute(&plan).expect("runs").batch.len() as f64;
            let u = est_u.estimate(&plan).expect("est").count_object;
            let h = est_h.estimate(&plan).expect("est").count_object;
            if actual > 0.0 {
                uniform_err += ((u - actual) / actual).abs();
                hist_err += ((h - actual) / actual).abs();
                cases += 1;
            }
            t.row(vec![
                format!("v {} {v}", op.symbol()),
                format!("{actual:.0}"),
                format!("{u:.0}"),
                format!("{h:.0}"),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "mean relative cardinality error: uniform {:.0}%, histogram {:.0}%",
        uniform_err / cases as f64 * 100.0,
        hist_err / cases as f64 * 100.0
    );
}
