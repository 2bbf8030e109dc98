//! Micro-bench of the simulated source substrate: subplan execution.

use disco_bench::micro::Micro;

use disco_oo7::{index_scan_selectivity, Oo7Config};
use disco_sources::DataSource;

fn bench_index_scan(c: &mut Micro) {
    let config = Oo7Config::small();
    let store = disco_oo7::build_store(&config).unwrap();
    let plan = index_scan_selectivity("oo7", &config, 0.1);
    c.bench_function("paged_store_index_scan_10pct", |b| {
        b.iter(|| store.execute(&plan).unwrap().stats.pages_read)
    });
}

fn main() {
    let mut c = Micro::from_args();
    bench_index_scan(&mut c);
}
