//! Shared federation and workload for the multi-tenant serving layer
//! experiments: the `federation_server` bin, the `serving_load` bench
//! (`BENCH_serving.json`), and the CI serving smoke test.
//!
//! The federation spreads [`TABLES`] single-collection wrappers over a
//! channel transport so concurrent sessions genuinely overlap:
//! `sleep_scale` converts the simulated communication time into real
//! wall-clock sleeps for the throughput sweeps, which puts a worker
//! thread behind each endpoint; at 0 (the CPU-bound admission
//! comparison and `federation_server`) every endpoint is served on the
//! calling session's thread.
//!
//! Two query classes, classified by the cost model's predicted
//! `TotalTime` (not by annotation — the whole point is that the
//! mediator's estimates drive scheduling):
//!
//! * **interactive** — an indexed point-range lookup on one table;
//!   predicted cheap, 1 submit, a handful of tuples;
//! * **analytical** — a two-table equijoin on the non-indexed cluster
//!   key with a weak value filter; predicted orders of magnitude more
//!   expensive (full shipping of both sides plus a fanout-20 join).
//!
//! The module also holds the server's line protocol
//! ([`serve_connection`]) over any reader/writer pair, so it is testable
//! without a socket; `federation_server` adds only the accept loop.

use std::io::{self, BufRead, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use disco_common::{AttributeDef, DataType, Schema, Value};
use disco_mediator::{AdmissionController, AdmissionPolicy, Mediator, SharedMediator};
use disco_sources::{CollectionBuilder, CostProfile, PagedStore};
use disco_transport::{ChannelTransport, FaultPlan, NetProfile, TransportClient};
use disco_wrapper::SourceWrapper;

/// Endpoints (and collections) in the serving federation.
pub const TABLES: usize = 16;
/// Rows per collection.
pub const ROWS_PER_TABLE: i64 = 2000;
/// Distinct values of the join key `k` (fanout = rows / modulus).
pub const KEY_MODULUS: i64 = 100;
/// Tenants the load generators cycle through.
pub const TENANTS: usize = 8;

/// Collection served by endpoint `i`.
pub fn table_name(i: usize) -> String {
    format!("T{i:02}")
}

/// Endpoint name `i`.
pub fn wrapper_name(i: usize) -> String {
    format!("w{i:02}")
}

/// Tenant a client thread belongs to.
pub fn tenant_name(client: usize) -> String {
    format!("tenant{:02}", client % TENANTS)
}

/// Build the serving federation over a channel transport.
/// `sleep_scale` is the fraction of simulated communication time
/// actually slept per submit (see `NetProfile`).
pub fn federation(sleep_scale: f64) -> Mediator {
    let mut t = ChannelTransport::new();
    for i in 0..TABLES {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("k", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ]);
        let mut store = PagedStore::new(wrapper_name(i), CostProfile::relational());
        store
            .add_collection(
                table_name(i),
                CollectionBuilder::new(schema)
                    .rows((0..ROWS_PER_TABLE).map(|id| {
                        vec![
                            Value::Long(id),
                            Value::Long(id % KEY_MODULUS),
                            Value::Long((id * 7) % 1000),
                        ]
                    }))
                    .object_size(24)
                    .index("id"),
            )
            .expect("collection registers");
        t.add_wrapper_with(
            Box::new(SourceWrapper::new(wrapper_name(i), store)),
            NetProfile::lan().with_sleep_scale(sleep_scale),
            FaultPlan::none(),
        );
    }
    let client = TransportClient::new(Box::new(t));
    let mut m = Mediator::new();
    m.connect(client).expect("all wrappers register");
    m
}

/// The federation wrapped for concurrent serving.
pub fn shared_federation(sleep_scale: f64) -> Arc<SharedMediator> {
    Arc::new(SharedMediator::new(federation(sleep_scale)))
}

/// Predicted-cheap lookup: indexed range on one table, `c` in 1..=50.
pub fn interactive_sql(table: usize, c: i64) -> String {
    format!(
        "SELECT v FROM {} WHERE id < {}",
        table_name(table % TABLES),
        c.clamp(1, 50)
    )
}

/// Predicted-expensive join: table `t` with its neighbor on the
/// non-indexed cluster key, weak filter `v < c` (`c` in 200..=1000).
pub fn analytical_sql(table: usize, c: i64) -> String {
    let a = table % TABLES;
    let b = (table + 1) % TABLES;
    format!(
        "SELECT a.id, b.v FROM {} a, {} b WHERE a.k = b.k AND a.v < {}",
        table_name(a),
        table_name(b),
        c.clamp(200, 1000)
    )
}

/// Deterministic mixed stream for one client: mostly interactive
/// lookups, one analytical join in eight.
pub fn mixed_sql(client: usize, j: usize) -> String {
    let t = (client * 7 + j) % TABLES;
    if j % 8 == 7 {
        analytical_sql(t, 200 + ((j as i64 * 37) % 600))
    } else {
        interactive_sql(t, 5 + ((client + j) as i64 % 40))
    }
}

/// Predicted `TotalTime` for one representative query of each class,
/// from the shared mediator's own cost model.
pub fn class_predictions(shared: &SharedMediator) -> (f64, f64) {
    shared.with_mediator(|m| {
        let cheap = m
            .plan(&interactive_sql(0, 10))
            .expect("interactive plans")
            .estimated
            .total_time;
        let heavy = m
            .plan(&analytical_sql(0, 500))
            .expect("analytical plans")
            .estimated
            .total_time;
        (cheap, heavy)
    })
}

/// Admission policy for the serving benches: the interactive threshold
/// is the geometric mean of the two class predictions, so the split is
/// robust to cost-model drift rather than hard-coded.
pub fn admission_policy(shared: &SharedMediator) -> AdmissionPolicy {
    let (cheap, heavy) = class_predictions(shared);
    assert!(
        heavy > cheap * 4.0,
        "cost model no longer separates the classes: \
         interactive={cheap:.1}ms analytical={heavy:.1}ms"
    );
    AdmissionPolicy {
        max_concurrent: 2,
        interactive_reserved: 4,
        interactive_threshold_ms: (cheap * heavy).sqrt(),
        per_tenant_inflight: 0,
    }
}

/// Prime the plan cache with every workload shape (one constant each;
/// later constants replay the same entries).
pub fn warm_plan_cache(shared: &SharedMediator) {
    for t in 0..TABLES {
        shared
            .plan(&interactive_sql(t, 10))
            .expect("interactive shape plans");
        shared
            .plan(&analytical_sql(t, 500))
            .expect("analytical shape plans");
    }
}

/// Capacity of a connection's reply buffer. Fixed, so the buffer and not
/// the answer bounds what a reply adds to the server's memory: a reply
/// larger than this leaves in several writes of about this size.
pub const REPLY_BUFFER_BYTES: usize = 64 * 1024;
/// Longest request line accepted, terminator excluded.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// What the connections of one server share: the mediator, the admission
/// controller in front of it, and the shutdown flag the accept loop
/// watches.
pub struct ServerState {
    mediator: Arc<SharedMediator>,
    admission: AdmissionController,
    shutdown: AtomicBool,
    served: AtomicU64,
}

impl ServerState {
    /// A server over [`shared_federation`] with [`admission_policy`].
    pub fn new(sleep_scale: f64) -> ServerState {
        let mediator = shared_federation(sleep_scale);
        let admission = AdmissionController::new(admission_policy(&mediator));
        ServerState {
            mediator,
            admission,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
        }
    }

    pub fn mediator(&self) -> &SharedMediator {
        &self.mediator
    }

    /// Queries answered with `OK` so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Whether a connection has sent `SHUTDOWN`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Answer one SQL line: plan (through the shared cache), classify by
    /// the prediction, admit, execute, render.
    fn serve_sql(&self, tenant: &str, sql: &str, out: &mut impl Write) -> io::Result<()> {
        let (plan, source) = match self.mediator.plan(sql) {
            Ok(p) => p,
            Err(e) => return writeln!(out, "ERR {e}"),
        };
        let class = self.admission.policy().classify(plan.estimated.total_time);
        let permit = self.admission.admit(tenant, class);
        let served = match self.mediator.execute(plan) {
            Ok(s) => s,
            Err(e) => return writeln!(out, "ERR {e}"),
        };
        let waited = permit.waited_ms();
        drop(permit);
        self.served.fetch_add(1, Ordering::Relaxed);
        writeln!(
            out,
            "OK {} {:?} {} {:.2}",
            served.result.tuples.len(),
            source,
            class.label(),
            waited
        )?;
        for row in &served.result.tuples {
            out.write_all(b"ROW ")?;
            for (i, v) in row.values().iter().enumerate() {
                if i > 0 {
                    out.write_all(b"\t")?;
                }
                write!(out, "{v:?}")?;
            }
            out.write_all(b"\n")?;
        }
        out.write_all(b"END\n")
    }
}

/// Serve one connection's requests until end of input, `SHUTDOWN`, an
/// over-long line or an I/O error. The protocol is the one in
/// `federation_server`'s module doc.
///
/// Replies go through one [`REPLY_BUFFER_BYTES`] buffer that is flushed
/// once per request, so a reply that fits leaves in a single write.
/// Requests are read into one reused buffer of at most
/// [`MAX_REQUEST_LINE_BYTES`]; a longer line is answered `ERR line too
/// long` and ends the connection (the rest of it cannot be told from a
/// new request), a line that is not UTF-8 is answered `ERR invalid utf-8`
/// and the connection goes on.
pub fn serve_connection<R: BufRead, W: Write>(
    state: &ServerState,
    mut reader: R,
    writer: W,
) -> io::Result<()> {
    let mut out = BufWriter::with_capacity(REPLY_BUFFER_BYTES, writer);
    let mut line = Vec::new();
    let mut tenant = "default".to_string();
    // One byte past the limit tells a line of exactly the limit plus its
    // terminator from one that is too long.
    let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
    loop {
        line.clear();
        if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        if line.len() > MAX_REQUEST_LINE_BYTES && line.last() != Some(&b'\n') {
            out.write_all(b"ERR line too long\n")?;
            return out.flush();
        }
        match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => continue,
            Ok("SHUTDOWN") => {
                out.write_all(b"OK bye\n")?;
                out.flush()?;
                state.shutdown.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Ok(request) => {
                if let Some(name) = request.strip_prefix("TENANT ") {
                    tenant = name.trim().to_string();
                    writeln!(out, "OK tenant {tenant}")?;
                } else {
                    state.serve_sql(&tenant, request, &mut out)?;
                }
            }
            Err(_) => out.write_all(b"ERR invalid utf-8\n")?,
        }
        out.flush()?;
    }
}

/// [`serve_connection`] over an accepted socket. `TCP_NODELAY` because a
/// reply larger than the buffer is several writes, and with Nagle's
/// algorithm on, each short tail would wait for the client's delayed ACK.
pub fn serve_stream(state: &ServerState, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    serve_connection(state, io::BufReader::new(stream), stream)
}

/// Send one request line as a client should: line and terminator in one
/// write, so they leave in one segment.
pub fn send_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    out.write_all(format!("{line}\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_mediator::PlanSource;

    #[test]
    fn classes_are_separated_by_predicted_cost() {
        let sm = shared_federation(0.0);
        let policy = admission_policy(&sm);
        let (cheap, heavy) = class_predictions(&sm);
        assert!(cheap < policy.interactive_threshold_ms);
        assert!(heavy > policy.interactive_threshold_ms);
    }

    #[test]
    fn warmed_cache_serves_every_shape() {
        let sm = shared_federation(0.0);
        warm_plan_cache(&sm);
        for t in 0..TABLES {
            let (_, s) = sm.plan(&interactive_sql(t, 33)).unwrap();
            assert_eq!(s, PlanSource::CacheHit, "interactive shape {t}");
            let (_, s) = sm.plan(&analytical_sql(t, 777)).unwrap();
            assert_eq!(s, PlanSource::CacheHit, "analytical shape {t}");
        }
        let r = sm.query(&mixed_sql(3, 4)).unwrap();
        assert!(!r.result.tuples.is_empty());
    }
}
