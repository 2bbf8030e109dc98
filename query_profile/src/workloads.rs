//! The six workloads: seed-derived data, one query template each, the
//! oracle's expectation for every query, and the federation each runs on.
//!
//! Federations are what a user gets: `Mediator::new()` with default
//! options, `TransportClient::new` defaults over a `ChannelTransport`.
//! The program sees only the generated SQL.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use disco_bench::serving;
use disco_common::rng::{permutation, sample_distinct, seeded, StdRng};
use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{AdmissionController, AdmissionPolicy, Mediator, SharedMediator};
use disco_sources::{
    CollectionBuilder, CostProfile, DocField, DocSource, DocValue, PagedStore, StoreSource,
};
use disco_store::{DiskCollectionBuilder, DiskStoreBuilder};
use disco_transport::{ChannelTransport, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::{SourceWrapper, Wrapper};

use crate::oracle::{self, Expected, Row};
use crate::server::{Conn, Server};

/// Workload names, in the order they run.
pub const NAMES: [&str; 6] = [
    "point_cached",
    "join_analytic",
    "plan_cold",
    "fanout_net",
    "store_probe",
    "serve_tcp",
];

// point_cached: 16 one-table wrappers, so the 16 shapes fit the plan cache.
const POINT_TABLES: usize = 16;
const POINT_ROWS: i64 = 2_000;
// join_analytic: two 20k-row relational tables and a 200-document collection.
const EVENT_ROWS: i64 = 20_000;
const ACCOUNT_ROWS: i64 = 20_000;
const REGION_DOCS: i64 = 200;
const ZONES: i64 = 12;
// plan_cold: twelve 100-row tables on four wrappers, six joined per query.
const COLD_TABLES: usize = 12;
const COLD_WRAPPERS: usize = 4;
const COLD_ROWS: i64 = 100;
const COLD_JOINED: usize = 6;
// fanout_net: eight 2k-row wrappers; 1.5 % of the simulated 100 ms round
// trip is slept, which keeps a query near 18 ms and so 200 samples in a
// 2.4 s segment of two clients.
const FANOUT_TABLES: usize = 8;
const FANOUT_ROWS: i64 = 2_000;
const FANOUT_LIMIT: usize = 20;
const FANOUT_SLEEP_SCALE: f64 = 0.015;
// store_probe: 70 000 x 56 B objects = 1 000 pages behind 256 frames, so
// the data is four times the pool; every other workload's data fits.
const PROBE_ROWS: i64 = 70_000;
const PROBE_FRAMES: usize = 256;
/// Distinct queries of a pooled workload; the slow templates take fewer
/// so the verify pass stays short.
const POOL: usize = 64;
const SLOW_POOL: usize = 32;
/// `mixed_sql` repeats with this period in `j`.
const SERVE_PERIOD: u64 = 1_200;
/// How many of its verify set's first statements `serve_tcp` also sends
/// to the server; the rest are checked in process only. `mixed_sql`'s
/// lookups repeat with this period (40 constants, 16 tables, a join
/// every 8th statement), so it is 70 distinct lookups and 10 joins.
pub const SERVE_LAP: usize = 80;
/// Query streams: two timed clients, verify, and the traced pass's plain,
/// stepwise and allocation-counted queries.
pub const STREAMS: usize = 6;
pub const VERIFY_STREAM: usize = 2;
pub const PLAIN_STREAM: usize = 3;
pub const STEPWISE_STREAM: usize = 4;
pub const COUNTED_STREAM: usize = 5;

pub type Tables = BTreeMap<String, Vec<Row>>;

/// One 6-table join graph of `plan_cold`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdQuery {
    /// The joined tables, bound to aliases `t0..t5` in this order.
    pub tables: Vec<usize>,
    /// For alias `j >= 1`: `t<j>.k<col> = t<parent>.id`, parent < j, so
    /// the graph is a tree and connected.
    pub edges: Vec<(usize, usize)>,
    /// Projected `(alias, column)` pairs.
    pub select: Vec<(usize, usize)>,
    /// `t0.v < c`.
    pub c: i64,
}

const COLD_COLUMNS: [&str; 4] = ["id", "k1", "k2", "v"];

/// One generated query, as the oracle sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// `SELECT v FROM <table> WHERE id < c` over `(id, k, v)`.
    Point {
        table: String,
        c: i64,
    },
    /// `SELECT a.id, b.v FROM <a> a, <b> b WHERE a.k = b.k AND a.v < c`.
    KeyJoin {
        a: String,
        b: String,
        c: i64,
    },
    /// Events ⋈ Accounts ⋈ Regions, `e.v < c`, grouped by zone.
    Analytic {
        c: i64,
    },
    Cold(ColdQuery),
    /// `UNION ALL` of `SELECT id, v FROM F<i> WHERE v < c`, `LIMIT`.
    Fanout {
        c: i64,
    },
    /// `SELECT Id FROM AtomicParts WHERE Id < k`.
    Probe {
        k: i64,
    },
}

fn point_table(i: usize) -> String {
    format!("T{i:02}")
}

fn cold_table(i: usize) -> String {
    format!("P{i:02}")
}

fn fanout_table(i: usize) -> String {
    format!("F{i}")
}

impl Spec {
    pub fn sql(&self) -> String {
        match self {
            Spec::Point { table, c } => format!("SELECT v FROM {table} WHERE id < {c}"),
            Spec::KeyJoin { a, b, c } => {
                format!("SELECT a.id, b.v FROM {a} a, {b} b WHERE a.k = b.k AND a.v < {c}")
            }
            Spec::Analytic { c } => format!(
                "SELECT r.zone, COUNT(*) AS n, SUM(e.v) AS total \
                 FROM Events e, Accounts a, Regions r \
                 WHERE e.cust = a.cust AND a.region = r.code AND e.v < {c} GROUP BY r.zone"
            ),
            Spec::Cold(q) => {
                let select: Vec<String> = q
                    .select
                    .iter()
                    .enumerate()
                    .map(|(n, &(t, col))| format!("t{t}.{} AS o{n}", COLD_COLUMNS[col]))
                    .collect();
                let from: Vec<String> = q
                    .tables
                    .iter()
                    .enumerate()
                    .map(|(j, &t)| format!("{} t{j}", cold_table(t)))
                    .collect();
                let mut conds: Vec<String> = q
                    .edges
                    .iter()
                    .enumerate()
                    .map(|(j, &(parent, col))| {
                        format!("t{}.{} = t{parent}.id", j + 1, COLD_COLUMNS[col])
                    })
                    .collect();
                conds.push(format!("t0.v < {}", q.c));
                format!(
                    "SELECT {} FROM {} WHERE {}",
                    select.join(", "),
                    from.join(", "),
                    conds.join(" AND ")
                )
            }
            Spec::Fanout { c } => {
                let branches: Vec<String> = (0..FANOUT_TABLES)
                    .map(|i| format!("SELECT id, v FROM {} WHERE v < {c}", fanout_table(i)))
                    .collect();
                format!("{} LIMIT {FANOUT_LIMIT}", branches.join(" UNION ALL "))
            }
            Spec::Probe { k } => format!("SELECT Id FROM AtomicParts WHERE Id < {k}"),
        }
    }
}

fn table<'t>(tables: &'t Tables, name: &str) -> &'t [Row] {
    tables
        .get(name)
        .unwrap_or_else(|| panic!("oracle has no table `{name}`"))
}

/// What a correct answer to `spec` over `tables` is.
pub fn expected(tables: &Tables, spec: &Spec) -> Expected {
    let rows = match spec {
        Spec::Point { table: t, c } => {
            oracle::project(&oracle::filter_lt(table(tables, t), 0, *c), &[2])
        }
        Spec::KeyJoin { a, b, c } => {
            let left = oracle::filter_lt(table(tables, a), 2, *c);
            oracle::project(&oracle::hash_join(&left, 1, table(tables, b), 1), &[0, 5])
        }
        Spec::Analytic { c } => {
            // Events (id, cust, v) ++ Accounts (cust, region, tier) ++ Regions (code, zone).
            let events = oracle::filter_lt(table(tables, "Events"), 2, *c);
            let with_accounts = oracle::hash_join(&events, 1, table(tables, "Accounts"), 0);
            let with_regions = oracle::hash_join(&with_accounts, 4, table(tables, "Regions"), 0);
            oracle::group_count_sum(&with_regions, 7, 2)
        }
        Spec::Cold(q) => {
            let width = COLD_COLUMNS.len();
            let mut joined = oracle::filter_lt(table(tables, &cold_table(q.tables[0])), 3, q.c);
            for (j, &(parent, col)) in q.edges.iter().enumerate() {
                let right = table(tables, &cold_table(q.tables[j + 1]));
                joined = oracle::hash_join(&joined, parent * width, right, col);
            }
            let cols: Vec<usize> = q.select.iter().map(|&(t, col)| t * width + col).collect();
            oracle::project(&joined, &cols)
        }
        Spec::Fanout { c } => (0..FANOUT_TABLES)
            .flat_map(|i| oracle::filter_lt(table(tables, &fanout_table(i)), 1, *c))
            .collect(),
        Spec::Probe { k } => oracle::project(
            &oracle::filter_lt(table(tables, "AtomicParts"), 0, *k),
            &[0],
        ),
    };
    Expected {
        rows,
        limit: matches!(spec, Spec::Fanout { .. }).then_some(FANOUT_LIMIT),
    }
}

/// Rows of a correct answer, without building them where that is cheap
/// to avoid: `serve_tcp` counts every query of its stream up front.
fn expected_count(tables: &Tables, spec: &Spec) -> usize {
    match spec {
        Spec::Point { table: t, c } => oracle::filter_lt(table(tables, t), 0, *c).len(),
        Spec::KeyJoin { a, b, c } => {
            let mut per_key: HashMap<i64, usize> = HashMap::new();
            for r in table(tables, b) {
                *per_key
                    .entry(r[1].as_i64().expect("integral key"))
                    .or_default() += 1;
            }
            oracle::filter_lt(table(tables, a), 2, *c)
                .iter()
                .map(|r| {
                    per_key
                        .get(&r[1].as_i64().expect("integral key"))
                        .copied()
                        .unwrap_or(0)
                })
                .sum()
        }
        other => expected(tables, other).count(),
    }
}

/// The `Spec` of a statement `disco_bench::serving::mixed_sql` produced:
/// its table names and its trailing constant.
fn serve_spec(sql: &str) -> Spec {
    let tokens: Vec<&str> = sql.split_whitespace().collect();
    let tables: Vec<String> = tokens
        .iter()
        .map(|t| t.trim_end_matches(','))
        .filter(|t| {
            t.len() == 3 && t.starts_with('T') && t[1..].bytes().all(|b| b.is_ascii_digit())
        })
        .map(str::to_string)
        .collect();
    let c: i64 = tokens
        .last()
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("serving statement without a trailing constant: {sql}"));
    match tables.as_slice() {
        [table] => Spec::Point {
            table: table.clone(),
            c,
        },
        [a, b] => Spec::KeyJoin {
            a: a.clone(),
            b: b.clone(),
            c,
        },
        _ => panic!("serving statement over {} tables: {sql}", tables.len()),
    }
}

/// One value from each of `n` equal strata of `[lo, hi)`, in random
/// order: the constants differ from seed to seed, their distribution —
/// and so the latency distribution — hardly does.
fn stratified(rng: &mut StdRng, lo: i64, hi: i64, n: usize) -> Vec<i64> {
    let width = (hi - lo) as f64 / n as f64;
    let order = permutation(rng, n);
    order
        .into_iter()
        .map(|s| {
            let at = lo as f64 + (s as f64 + rng.gen_f64()) * width;
            (at as i64).clamp(lo, hi - 1)
        })
        .collect()
}

fn longs(values: impl IntoIterator<Item = i64>) -> Row {
    values.into_iter().map(Value::Long).collect()
}

fn long_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| AttributeDef::new(*n, DataType::Long))
            .collect(),
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointCached,
    JoinAnalytic,
    PlanCold,
    FanoutNet,
    StoreProbe,
    ServeTcp,
}

impl Kind {
    /// The workload of that name; kinds are declared in [`NAMES`]' order.
    pub fn parse(name: &str) -> Option<Kind> {
        use Kind::*;
        std::iter::zip(
            NAMES,
            [
                PointCached,
                JoinAnalytic,
                PlanCold,
                FanoutNet,
                StoreProbe,
                ServeTcp,
            ],
        )
        .find_map(|(n, kind)| (n == name).then_some(kind))
    }
}

/// What the timed pass needs of one query.
pub struct Query {
    pub sql: String,
    /// Rows a correct answer holds.
    pub rows: usize,
}

struct Pooled {
    spec: Spec,
    sql: String,
    rows: usize,
}

/// One workload's inputs, all derived from the seed.
pub struct Workload {
    pub kind: Kind,
    seed: u64,
    /// Every collection as flat rows: what the stores are loaded with and
    /// what the oracle evaluates over.
    tables: Tables,
    /// The distinct queries of a pooled workload (empty for `plan_cold`
    /// and `serve_tcp`, which generate per position).
    pool: Vec<Pooled>,
    /// `serve_tcp`: answer sizes of every statement of every stream.
    serve_rows: HashMap<String, usize>,
    /// `serve_tcp`: where in `mixed_sql`'s client and position space the
    /// streams start.
    serve_origin: (usize, u64),
}

/// Wrappers of one federation, with the network each sits behind.
pub struct Federation {
    pub endpoints: Vec<(Box<dyn Wrapper>, NetProfile)>,
    /// `store_probe`: a handle sharing the disk store's buffer pool.
    pub store: Option<StoreSource>,
}

/// One set-up system under test.
pub struct Built {
    pub shared: Arc<SharedMediator>,
    pub admission: AdmissionController,
    pub store: Option<StoreSource>,
    pub server: Option<Server>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = seeded(seed, "query_profile:data");
        let mut tables = Tables::new();
        let mut specs: Vec<Spec> = Vec::new();
        match kind {
            Kind::PointCached => {
                for t in 0..POINT_TABLES {
                    let rows = (0..POINT_ROWS)
                        .map(|id| longs([id, id % 100, rng.gen_range(0..1000i64)]))
                        .collect();
                    tables.insert(point_table(t), rows);
                }
                specs = stratified(&mut rng, 1, 51, POOL)
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| Spec::Point {
                        table: point_table(i % POINT_TABLES),
                        c,
                    })
                    .collect();
            }
            Kind::JoinAnalytic => {
                let events = (0..EVENT_ROWS)
                    .map(|id| {
                        longs([
                            id,
                            rng.gen_range(0..ACCOUNT_ROWS),
                            rng.gen_range(0..1000i64),
                        ])
                    })
                    .collect();
                let accounts = (0..ACCOUNT_ROWS)
                    .map(|cust| {
                        longs([cust, rng.gen_range(0..REGION_DOCS), rng.gen_range(0..4i64)])
                    })
                    .collect();
                let regions = (0..REGION_DOCS)
                    .map(|code| {
                        let zone = rng.gen_range(0..ZONES);
                        vec![Value::Long(code), Value::Str(format!("zone-{zone:02}"))]
                    })
                    .collect();
                tables.insert("Events".into(), events);
                tables.insert("Accounts".into(), accounts);
                tables.insert("Regions".into(), regions);
                specs = stratified(&mut rng, 450, 550, SLOW_POOL)
                    .into_iter()
                    .map(|c| Spec::Analytic { c })
                    .collect();
            }
            Kind::PlanCold => {
                for t in 0..COLD_TABLES {
                    let rows = (0..COLD_ROWS)
                        .map(|id| {
                            longs([
                                id,
                                rng.gen_range(0..COLD_ROWS),
                                rng.gen_range(0..COLD_ROWS),
                                rng.gen_range(0..1000i64),
                            ])
                        })
                        .collect();
                    tables.insert(cold_table(t), rows);
                }
            }
            Kind::FanoutNet => {
                for t in 0..FANOUT_TABLES {
                    let rows = (0..FANOUT_ROWS)
                        .map(|id| longs([id, rng.gen_range(0..1000i64)]))
                        .collect();
                    tables.insert(fanout_table(t), rows);
                }
                specs = stratified(&mut rng, 100, 400, SLOW_POOL)
                    .into_iter()
                    .map(|c| Spec::Fanout { c })
                    .collect();
            }
            Kind::StoreProbe => {
                let rows = (0..PROBE_ROWS)
                    .map(|id| longs([id, rng.gen_range(0..1000i64)]))
                    .collect();
                tables.insert("AtomicParts".into(), rows);
                // 0.5 % to 2 % of the extent.
                specs = stratified(&mut rng, PROBE_ROWS / 200, PROBE_ROWS / 50, POOL)
                    .into_iter()
                    .map(|k| Spec::Probe { k })
                    .collect();
            }
            Kind::ServeTcp => {
                // The shipped federation's data is fixed; the seed picks
                // where the clients enter `mixed_sql`'s stream.
                for t in 0..serving::TABLES {
                    let rows = (0..serving::ROWS_PER_TABLE)
                        .map(|id| longs([id, id % serving::KEY_MODULUS, (id * 7) % 1000]))
                        .collect();
                    tables.insert(serving::table_name(t), rows);
                }
            }
        }
        let pool = specs
            .into_iter()
            .map(|spec| Pooled {
                sql: spec.sql(),
                rows: expected_count(&tables, &spec),
                spec,
            })
            .collect();
        let mut w = Workload {
            kind,
            seed,
            tables,
            pool,
            serve_rows: HashMap::new(),
            serve_origin: (
                rng.gen_range(0..serving::TENANTS),
                rng.gen_range(0..SERVE_PERIOD),
            ),
        };
        if kind == Kind::ServeTcp {
            for stream in 0..STREAMS {
                for i in 0..SERVE_PERIOD {
                    let sql = w.serve_sql(stream, i);
                    if !w.serve_rows.contains_key(&sql) {
                        let rows = expected_count(&w.tables, &serve_spec(&sql));
                        w.serve_rows.insert(sql, rows);
                    }
                }
            }
        }
        w
    }

    fn serve_sql(&self, stream: usize, i: u64) -> String {
        let (client, start) = self.serve_origin;
        serving::mixed_sql(client + stream, ((start + i) % SERVE_PERIOD) as usize)
    }

    /// `serve_tcp`: tenant of a stream's connection.
    pub fn tenant(&self, stream: usize) -> String {
        serving::tenant_name(self.serve_origin.0 + stream)
    }

    fn cold_query(&self, stream: usize, i: u64) -> ColdQuery {
        let mut rng = seeded(self.seed, &format!("plan_cold:{stream}:{i}"));
        let tables = sample_distinct(&mut rng, COLD_TABLES, COLD_JOINED);
        let edges = (1..COLD_JOINED)
            .map(|j| (rng.gen_range(0..j), rng.gen_range(1..3usize)))
            .collect();
        let select = (0..rng.gen_range(2..5usize))
            .map(|_| {
                (
                    rng.gen_range(0..COLD_JOINED),
                    rng.gen_range(0..COLD_COLUMNS.len()),
                )
            })
            .collect();
        ColdQuery {
            tables,
            edges,
            select,
            c: rng.gen_range(300..900i64),
        }
    }

    /// Streams walk the pool half a lap apart, so two clients never ask
    /// for the same query at the same time.
    fn pooled(&self, stream: usize, i: u64) -> &Pooled {
        let n = self.pool.len() as u64;
        &self.pool[((stream as u64 * n / 2 + i) % n) as usize]
    }

    /// Query `i` of a stream, as text and as the oracle sees it.
    pub fn spec(&self, stream: usize, i: u64) -> (String, Spec) {
        match self.kind {
            Kind::PlanCold => {
                let spec = Spec::Cold(self.cold_query(stream, i));
                (spec.sql(), spec)
            }
            Kind::ServeTcp => {
                let sql = self.serve_sql(stream, i);
                let spec = serve_spec(&sql);
                (sql, spec)
            }
            _ => {
                let p = self.pooled(stream, i);
                (p.sql.clone(), p.spec.clone())
            }
        }
    }

    /// Query `i` of a stream, with its answer's size.
    pub fn query(&self, stream: usize, i: u64) -> Query {
        if !self.pool.is_empty() {
            let p = self.pooled(stream, i);
            return Query {
                sql: p.sql.clone(),
                rows: p.rows,
            };
        }
        let (sql, spec) = self.spec(stream, i);
        let rows = match self.serve_rows.get(&sql) {
            Some(rows) => *rows,
            None => expected_count(&self.tables, &spec),
        };
        Query { sql, rows }
    }

    /// Whether the timed pass starts every segment on a fresh federation.
    /// `plan_cold` does: `SharedMediator` keeps an estimator-cache entry
    /// for every shape it has planned (about 0.3 MB each), and past some
    /// 2 500 shapes (700 MB, 7 s at two clients) a plan takes 7.4 ms, not
    /// 5.1 ms. One federation for the whole pass put that knee in the
    /// third, fourth or fifth segment, and the median over segments on
    /// either side of it from run to run.
    pub fn fresh_each_segment(&self) -> bool {
        self.kind == Kind::PlanCold
    }

    /// The queries the verify pass checks against the oracle.
    pub fn verify_set(&self) -> Vec<(String, Spec)> {
        match self.kind {
            Kind::PlanCold => (0..POOL as u64)
                .map(|i| self.spec(VERIFY_STREAM, i))
                .collect(),
            Kind::ServeTcp => {
                // The whole period of the stream. The cost model's error
                // grows with the lookup's constant and the joins' cost
                // with theirs, so a set that stopped mid-period would
                // move both virtual-clock metrics with where the seed
                // enters the stream.
                (0..SERVE_PERIOD)
                    .map(|i| self.spec(VERIFY_STREAM, i))
                    .collect()
            }
            _ => self
                .pool
                .iter()
                .map(|p| (p.sql.clone(), p.spec.clone()))
                .collect(),
        }
    }

    pub fn expected(&self, spec: &Spec) -> Expected {
        expected(&self.tables, spec)
    }

    fn rows(&self, name: &str) -> Vec<Row> {
        table(&self.tables, name).to_vec()
    }

    fn paged(&self, wrapper: &str, collections: &[(String, &[&str])]) -> Box<dyn Wrapper> {
        let mut store = PagedStore::new(wrapper, CostProfile::relational()).with_seed(self.seed);
        for (name, columns) in collections {
            store
                .add_collection(
                    name.clone(),
                    CollectionBuilder::new(long_schema(columns))
                        .rows(self.rows(name))
                        .object_size(8 * columns.len() as u64)
                        .index(columns[0]),
                )
                .expect("generated collection loads");
        }
        Box::new(SourceWrapper::new(wrapper, store))
    }

    /// A fresh set of this workload's wrappers. Called once for the
    /// system under test and once for the traced pass's twin set.
    pub fn federation(&self) -> Federation {
        let lan = NetProfile::default;
        let mut store = None;
        let endpoints: Vec<(Box<dyn Wrapper>, NetProfile)> = match self.kind {
            Kind::PointCached => (0..POINT_TABLES)
                .map(|t| {
                    let w = self.paged(&format!("w{t:02}"), &[(point_table(t), &["id", "k", "v"])]);
                    (w, lan())
                })
                .collect(),
            Kind::ServeTcp => (0..serving::TABLES)
                .map(|t| {
                    let name = serving::wrapper_name(t);
                    let w = self.paged(&name, &[(serving::table_name(t), &["id", "k", "v"])]);
                    (w, lan())
                })
                .collect(),
            Kind::JoinAnalytic => {
                let mut docs = DocSource::new("docs");
                let regions = self
                    .rows("Regions")
                    .into_iter()
                    .map(|r| {
                        let zone = r[1].as_str().expect("zone is a string").to_string();
                        DocValue::obj([
                            (
                                "code",
                                DocValue::Long(r[0].as_i64().expect("code is a long")),
                            ),
                            ("geo", DocValue::obj([("zone", DocValue::Str(zone))])),
                        ])
                    })
                    .collect();
                docs.add_collection(
                    "Regions",
                    vec![
                        DocField::scalar("code", "code", DataType::Long),
                        DocField::scalar("zone", "geo.zone", DataType::Str),
                    ],
                    regions,
                )
                .expect("generated documents load");
                let rules = docs.path_cost_rules();
                vec![
                    (
                        self.paged("ev", &[("Events".into(), &["id", "cust", "v"])]),
                        lan(),
                    ),
                    (
                        self.paged("acct", &[("Accounts".into(), &["cust", "region", "tier"])]),
                        lan(),
                    ),
                    (
                        Box::new(SourceWrapper::new("docs", docs).with_cost_rules(rules)),
                        lan(),
                    ),
                ]
            }
            Kind::PlanCold => (0..COLD_WRAPPERS)
                .map(|w| {
                    let collections: Vec<(String, &[&str])> = (0..COLD_TABLES)
                        .filter(|t| t % COLD_WRAPPERS == w)
                        .map(|t| (cold_table(t), &COLD_COLUMNS[..]))
                        .collect();
                    (self.paged(&format!("pw{w}"), &collections), lan())
                })
                .collect(),
            Kind::FanoutNet => (0..FANOUT_TABLES)
                .map(|t| {
                    let w = self.paged(&format!("fw{t}"), &[(fanout_table(t), &["id", "v"])]);
                    (w, NetProfile::lan().with_sleep_scale(FANOUT_SLEEP_SCALE))
                })
                .collect(),
            Kind::StoreProbe => {
                let parts = DiskCollectionBuilder::new(long_schema(&["Id", "V"]))
                    .rows(self.rows("AtomicParts"))
                    .object_size(56)
                    .index("Id");
                let disk = DiskStoreBuilder::new("disk")
                    .buffer_capacity(PROBE_FRAMES)
                    .seed(self.seed)
                    .collection("AtomicParts", parts)
                    .build()
                    .expect("disk store builds");
                let source = StoreSource::new(disk, CostProfile::object_store());
                store = Some(source.clone());
                vec![(Box::new(SourceWrapper::new("disk", source)), lan())]
            }
        };
        Federation { endpoints, store }
    }

    /// Queries run once at set-up so that lazy work is done and every
    /// cacheable shape is planned before anything is timed.
    fn warm_up(&self) -> Vec<String> {
        let n = match self.kind {
            Kind::PointCached => POINT_TABLES,
            _ => 4,
        };
        (0..n as u64).map(|i| self.query(0, i).sql).collect()
    }

    /// Build the system under test: what `setup_s` times. For `serve_tcp`
    /// that is the server child (spawned, awaited and warmed over TCP)
    /// plus the in-process federation the virtual-clock metrics and the
    /// traced layers come from.
    pub fn set_up(&self, server_bin: Option<&Path>) -> Result<Built, String> {
        let fail = |e: disco_common::DiscoError| format!("set-up failed: {e}");
        if self.kind == Kind::ServeTcp {
            let bin = server_bin.ok_or("serve_tcp needs the server binary")?;
            let server = Server::spawn(bin)?;
            let mut conn = Conn::open(server.addr, "warmup")?;
            for t in 0..serving::TABLES {
                conn.query(&serving::interactive_sql(t, 10), false)?;
                conn.query(&serving::analytical_sql(t, 500), false)?;
            }
            let shared = serving::shared_federation(0.0);
            serving::warm_plan_cache(&shared);
            let admission = AdmissionController::new(serving::admission_policy(&shared));
            return Ok(Built {
                shared,
                admission,
                store: None,
                server: Some(server),
            });
        }
        let federation = self.federation();
        let mut transport = ChannelTransport::new();
        for (wrapper, net) in federation.endpoints {
            transport.add_wrapper_with(wrapper, net, FaultPlan::none());
        }
        let mut mediator = Mediator::new();
        mediator
            .connect(TransportClient::new(Box::new(transport)))
            .map_err(fail)?;
        let shared = Arc::new(SharedMediator::new(mediator));
        for sql in self.warm_up() {
            shared.query(&sql).map_err(fail)?;
        }
        Ok(Built {
            shared,
            admission: AdmissionController::new(AdmissionPolicy::default()),
            store: federation.store,
            server: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten rows `(id, id % 3, 100 * (id % 5))` per named table.
    fn ten_row_tables(names: &[&str]) -> Tables {
        names
            .iter()
            .map(|n| {
                let rows = (0..10)
                    .map(|id| longs([id, id % 3, 100 * (id % 5)]))
                    .collect();
                (n.to_string(), rows)
            })
            .collect()
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Vec<i64>> {
        rows.sort_by_key(|r| format!("{r:?}"));
        let mut out: Vec<Vec<i64>> = rows
            .iter()
            .map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn point_oracle_on_ten_rows() {
        let tables = ten_row_tables(&["T00"]);
        let spec = Spec::Point {
            table: "T00".into(),
            c: 3,
        };
        assert_eq!(spec.sql(), "SELECT v FROM T00 WHERE id < 3");
        assert_eq!(sorted(expected(&tables, &spec).rows), [[0], [100], [200]]);
        assert_eq!(expected_count(&tables, &spec), 3);
    }

    #[test]
    fn key_join_oracle_on_ten_rows() {
        let tables = ten_row_tables(&["T00", "T01"]);
        let spec = Spec::KeyJoin {
            a: "T00".into(),
            b: "T01".into(),
            c: 100,
        };
        // a.v < 100 keeps ids 0 and 5 (k 0 and 2); T01 has k=0 at ids
        // {0,3,6,9} (v 0,300,100,400) and k=2 at {2,5,8} (v 200,0,300).
        let want = [
            [0, 0],
            [0, 100],
            [0, 300],
            [0, 400],
            [5, 0],
            [5, 200],
            [5, 300],
        ];
        assert_eq!(sorted(expected(&tables, &spec).rows), want);
        assert_eq!(expected_count(&tables, &spec), want.len());
    }

    #[test]
    fn analytic_oracle_on_ten_rows() {
        let mut tables = Tables::new();
        // Events (id, cust, v): cust = id % 5, v = 10 * id.
        let events = (0..10).map(|id| longs([id, id % 5, 10 * id])).collect();
        // Accounts (cust, region, tier): region = cust % 2.
        let accounts = (0..5).map(|c| longs([c, c % 2, 0])).collect();
        let regions = (0..2)
            .map(|code| vec![Value::Long(code), Value::Str(format!("z{code}"))])
            .collect();
        tables.insert("Events".into(), events);
        tables.insert("Accounts".into(), accounts);
        tables.insert("Regions".into(), regions);
        // v < 60 keeps ids 0..=5, custs 0,1,2,3,4,0: regions 0,1,0,1,0,0.
        let got = expected(&tables, &Spec::Analytic { c: 60 }).rows;
        assert_eq!(
            got,
            vec![
                vec![
                    Value::Str("z0".into()),
                    Value::Long(4),
                    Value::Double(110.0)
                ],
                vec![Value::Str("z1".into()), Value::Long(2), Value::Double(40.0)],
            ]
        );
    }

    #[test]
    fn cold_oracle_on_ten_rows() {
        // Ten rows (id, k1 = (id + 1) % 10, k2 = id / 2, v = 100 * id).
        let rows: Vec<Row> = (0..10)
            .map(|id| longs([id, (id + 1) % 10, id / 2, 100 * id]))
            .collect();
        let tables: Tables = (0..3).map(|t| (cold_table(t), rows.clone())).collect();
        let q = ColdQuery {
            tables: vec![2, 0, 1],
            // t1.k1 = t0.id and t2.k2 = t0.id.
            edges: vec![(0, 1), (0, 2)],
            select: vec![(0, 0), (1, 0), (2, 0)],
            c: 300,
        };
        assert_eq!(
            Spec::Cold(q.clone()).sql(),
            "SELECT t0.id AS o0, t1.id AS o1, t2.id AS o2 FROM P02 t0, P00 t1, P01 t2 \
             WHERE t1.k1 = t0.id AND t2.k2 = t0.id AND t0.v < 300"
        );
        // t0 in {0,1,2}; t1 is the row whose id+1 is t0.id (9 for 0);
        // t2 the two rows with id/2 == t0.id.
        let want = [
            [0, 9, 0],
            [0, 9, 1],
            [1, 0, 2],
            [1, 0, 3],
            [2, 1, 4],
            [2, 1, 5],
        ];
        assert_eq!(sorted(expected(&tables, &Spec::Cold(q)).rows), want);
    }

    #[test]
    fn fanout_oracle_on_ten_rows() {
        let tables: Tables = (0..FANOUT_TABLES)
            .map(|t| {
                let rows = (0..10).map(|id| longs([id, 100 * id + t as i64])).collect();
                (fanout_table(t), rows)
            })
            .collect();
        let want = expected(&tables, &Spec::Fanout { c: 250 });
        // Ids 0, 1, 2 of each of the eight tables; any twenty of them.
        assert_eq!(want.rows.len(), 3 * FANOUT_TABLES);
        assert_eq!(want.count(), FANOUT_LIMIT);
        let sql = Spec::Fanout { c: 250 }.sql();
        assert_eq!(sql.matches("UNION ALL").count(), FANOUT_TABLES - 1);
        assert!(sql.ends_with("WHERE v < 250 LIMIT 20"), "{sql}");
    }

    #[test]
    fn probe_oracle_on_ten_rows() {
        let rows = (0..10).map(|id| longs([id, 7])).collect();
        let tables: Tables = [("AtomicParts".to_string(), rows)].into();
        let got = expected(&tables, &Spec::Probe { k: 4 });
        assert_eq!(sorted(got.rows), [[0], [1], [2], [3]]);
    }

    #[test]
    fn serving_statements_parse_back_to_their_spec() {
        assert_eq!(
            serve_spec(&serving::interactive_sql(3, 17)),
            Spec::Point {
                table: "T03".into(),
                c: 17
            }
        );
        let join = serving::analytical_sql(15, 640);
        let spec = serve_spec(&join);
        assert_eq!(
            spec,
            Spec::KeyJoin {
                a: "T15".into(),
                b: "T00".into(),
                c: 640
            }
        );
        assert_eq!(spec.sql(), join);
    }

    #[test]
    fn strata_cover_the_range_once_each() {
        let mut rng = seeded(7, "t");
        let mut got = stratified(&mut rng, 100, 200, 10);
        got.sort();
        for (i, v) in got.iter().enumerate() {
            let lo = 100 + 10 * i as i64;
            assert!((lo..lo + 10).contains(v), "{got:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let a = Workload::new(Kind::PlanCold, 11);
        let b = Workload::new(Kind::PlanCold, 11);
        assert_eq!(a.query(0, 5).sql, b.query(0, 5).sql);
        assert_ne!(a.query(0, 5).sql, a.query(1, 5).sql);
        assert_ne!(
            a.query(0, 5).sql,
            Workload::new(Kind::PlanCold, 12).query(0, 5).sql
        );
        // Pooled streams are half a lap apart and wrap.
        let p = Workload::new(Kind::PointCached, 11);
        assert_eq!(p.query(0, (POOL / 2) as u64).sql, p.query(1, 0).sql);
        assert_eq!(p.query(0, POOL as u64).sql, p.query(0, 0).sql);
        assert_eq!(p.verify_set().len(), POOL);
    }
}
