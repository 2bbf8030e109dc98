//! Micro-benches of the source substrate: subplan execution on the
//! simulated store, and pin/unpin on the disk engine's buffer pool, one
//! page at a time and in runs.

use disco_bench::micro::{BenchmarkId, Micro};

use disco_oo7::{index_scan_selectivity, Oo7Config};
use disco_sources::DataSource;
use disco_store::{BufferPool, PageFile, PageId, PageKind};

fn bench_index_scan(c: &mut Micro) {
    let config = Oo7Config::small();
    let store = disco_oo7::build_store(&config).unwrap();
    let plan = index_scan_selectivity("oo7", &config, 0.1);
    c.bench_function("paged_store_index_scan_10pct", |b| {
        b.iter(|| store.execute(&plan).unwrap().stats.pages_read)
    });
}

/// Pins each thread makes per iteration of the pool benches: the time
/// per iteration over this is the time of one pin and unpin on one
/// thread while the others pin alongside it.
const PINS_PER_THREAD: u64 = 20_000;

/// Pin and unpin pages of a 1 000-page file drawn by xorshift64, on one
/// and on two threads sharing the pool: with as many frames as pages
/// (every pin a hit once warm) and with 256 frames (`store_probe`'s
/// geometry, about three pins in four a fault).
fn bench_pool_pins(c: &mut Micro) {
    let mut group = c.benchmark_group("pool_pin_unpin_x20000");
    for (frames, label) in [(1_000, "resident"), (256, "store_probe")] {
        let pool = BufferPool::new(PageFile::create_temp("bench-pool").unwrap(), frames);
        let ids: Vec<PageId> = (0..1_000)
            .map(|_| pool.allocate(PageKind::Heap).unwrap())
            .collect();
        pool.clear_cache().unwrap();
        for threads in [1u64, 2] {
            let id = BenchmarkId::from_parameter(format!("{label}/{threads}_threads"));
            group.bench_with_input(id, &threads, |b, &threads| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..threads {
                            let (pool, ids) = (&pool, &ids);
                            scope.spawn(move || {
                                let mut x = 88_172_645_463_325_252u64 + t;
                                for _ in 0..PINS_PER_THREAD {
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    drop(pool.pin(ids[(x % 1_000) as usize]).unwrap());
                                }
                            });
                        }
                    })
                })
            });
        }
    }
    group.finish();
}

/// Pins of one run in [`bench_pool_runs`]: what an index select of a
/// few hundred rids hands the pool at a time.
const RUN: usize = 32;

/// The same xorshift64 trace as [`bench_pool_pins`] at `store_probe`'s
/// geometry, pinned through [`BufferPool::pin_each`] in runs of
/// [`RUN`]: per run, one block of ticks, one pool lock at its first
/// miss and one update of the fault counters.
fn bench_pool_runs(c: &mut Micro) {
    let mut group = c.benchmark_group("pool_pin_each_x20000");
    let pool = BufferPool::new(PageFile::create_temp("bench-pool").unwrap(), 256);
    let ids: Vec<PageId> = (0..1_000)
        .map(|_| pool.allocate(PageKind::Heap).unwrap())
        .collect();
    pool.clear_cache().unwrap();
    for threads in [1u64, 2] {
        let id = BenchmarkId::from_parameter(format!("store_probe/{threads}_threads"));
        group.bench_with_input(id, &threads, |b, &threads| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let (pool, ids) = (&pool, &ids);
                        scope.spawn(move || {
                            let mut x = 88_172_645_463_325_252u64 + t;
                            let mut run = [0; RUN];
                            for _ in 0..PINS_PER_THREAD as usize / RUN {
                                for id in &mut run {
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    *id = ids[(x % 1_000) as usize];
                                }
                                pool.pin_each(&run, |_, _| Ok(())).unwrap();
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = Micro::from_args();
    bench_index_scan(&mut c);
    bench_pool_pins(&mut c);
    bench_pool_runs(&mut c);
}
