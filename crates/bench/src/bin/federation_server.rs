//! Multi-tenant federation server: a TCP front end over the shared
//! concurrent mediator ([`disco_mediator::SharedMediator`]) with the
//! cost-driven admission controller gating every query.
//!
//! The protocol itself is `disco_bench::serving::serve_connection`; this
//! file is the accept loop and the smoke driver.
//!
//! Line protocol (one request per line, UTF-8, at most 64 KiB):
//!
//! * `TENANT <name>` — set the connection's tenant (default `default`);
//!   reply `OK tenant <name>`.
//! * `SHUTDOWN` — reply `OK bye`, then stop accepting connections and
//!   drain in-flight handlers.
//! * anything else — treated as SQL. Reply `OK <rows> <plan-source>
//!   <class> <wait-ms>` followed by one `ROW <tab-separated values>`
//!   line per tuple and a final `END`, or `ERR <message>`.
//! * a blank line is skipped; a line that is not UTF-8 answers `ERR
//!   invalid utf-8`; a line over the limit answers `ERR line too long`
//!   and closes the connection.
//!
//! Wire discipline: one reply is one flush of a fixed 64 KiB buffer on a
//! `TCP_NODELAY` socket, and clients send a request in one write — a
//! reply or request that leaves in pieces has its second piece held by
//! Nagle's algorithm until the peer's delayed ACK, 40 ms later
//! (DESIGN.md §10).
//!
//! Modes:
//!
//! * `federation_server --port <n>` — serve on 127.0.0.1:<n> until a
//!   client sends `SHUTDOWN`.
//! * `federation_server --smoke` — bind an ephemeral port, drive four
//!   concurrent clients through a short mixed workload over real TCP,
//!   check the median interactive round trip is under 10 ms, shut down
//!   cleanly, and exit 0 (used by the CI serving smoke job).

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use disco_bench::serving::{mixed_sql, send_line, serve_stream, tenant_name, ServerState};

/// Accept loop; returns once `SHUTDOWN` has been seen and all
/// connection handlers have drained.
fn run(state: &Arc<ServerState>, listener: TcpListener) {
    let addr = listener.local_addr().expect("listener has an address");
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.shutdown_requested() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // A long-running server keeps handles of live connections only.
        handlers.retain(|h| !h.is_finished());
        let state = Arc::clone(state);
        handlers.push(std::thread::spawn(move || {
            let _ = serve_stream(&state, &stream);
            // The shutdown connection unblocks the accept loop so it
            // can observe the flag (a no-op while serving normally).
            if state.shutdown_requested() {
                let _ = TcpStream::connect(addr);
            }
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// A client connection: `TCP_NODELAY`, one write per request.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let out = TcpStream::connect(addr).expect("client connects");
    out.set_nodelay(true).expect("TCP_NODELAY sets");
    let reader = BufReader::new(out.try_clone().expect("stream clones"));
    (out, reader)
}

/// Smoke client: one tenant, `queries` mixed statements, counting rows
/// and verifying every reply completes with `END`. Also returns the
/// round trip (send to `END`) of every interactive query.
fn smoke_client(addr: SocketAddr, client: usize, queries: usize) -> (u64, u64, Vec<Duration>) {
    let (mut out, reader) = connect(addr);
    let mut lines = reader.lines();
    let mut next = || {
        lines
            .next()
            .expect("server keeps the connection open")
            .expect("line reads")
    };
    send_line(&mut out, &format!("TENANT {}", tenant_name(client))).expect("request sends");
    assert!(next().starts_with("OK tenant"), "tenant handshake");
    let (mut ok, mut rows) = (0u64, 0u64);
    let mut interactive = Vec::new();
    for j in 0..queries {
        let sent = Instant::now();
        send_line(&mut out, &mixed_sql(client, j)).expect("request sends");
        let head = next();
        assert!(head.starts_with("OK "), "query {j} failed: {head}");
        ok += 1;
        loop {
            let line = next();
            if line == "END" {
                break;
            }
            assert!(line.starts_with("ROW "), "unexpected body line: {line}");
            rows += 1;
        }
        if head.contains(" interactive ") {
            interactive.push(sent.elapsed());
        }
    }
    (ok, rows, interactive)
}

fn run_smoke() {
    let state = Arc::new(ServerState::new(0.0));
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let accept = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || run(&state, listener))
    };

    const CLIENTS: usize = 4;
    const QUERIES: usize = 32;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| std::thread::spawn(move || smoke_client(addr, c, QUERIES)))
        .collect();
    let (mut ok, mut rows) = (0u64, 0u64);
    let mut interactive = Vec::new();
    for h in clients {
        let (o, r, i) = h.join().expect("smoke client joins");
        ok += o;
        rows += r;
        interactive.extend(i);
    }

    let (mut shut, mut reader) = connect(addr);
    send_line(&mut shut, "SHUTDOWN").expect("request sends");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply reads");
    assert_eq!(reply.trim(), "OK bye", "shutdown acknowledged");
    accept.join().expect("accept loop joins");

    let stats = state.mediator().cache_stats();
    assert_eq!(ok, (CLIENTS * QUERIES) as u64, "every query answered OK");
    assert!(rows > 0, "queries returned rows");
    assert!(state.served() >= ok, "server counted the served queries");
    // A segment held back by Nagle's algorithm waits out the peer's
    // delayed ACK, which the kernel sets at 40 ms: a median round trip
    // near that means one end of the socket has stopped sending a request
    // or a reply in one piece.
    interactive.sort();
    let median = interactive[interactive.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median interactive round trip {median:?}: a reply or request waits for a delayed ACK"
    );
    println!(
        "serving smoke: {CLIENTS} clients x {QUERIES} queries over {addr}, \
         {rows} rows, plan cache hit rate {:.3}, median interactive round trip {:.0} us, \
         clean shutdown",
        stats.hit_rate(),
        median.as_secs_f64() * 1e6
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => run_smoke(),
        Some("--port") => {
            let port: u16 = args
                .get(1)
                .and_then(|p| p.parse().ok())
                .expect("usage: federation_server --port <n> | --smoke");
            let state = Arc::new(ServerState::new(0.0));
            let listener = TcpListener::bind(("127.0.0.1", port)).expect("port binds");
            println!(
                "federation server listening on {} ({} wrappers behind admission)",
                listener.local_addr().unwrap(),
                disco_bench::serving::TABLES
            );
            run(&state, listener);
            println!(
                "federation server shut down after {} queries",
                state.served()
            );
        }
        _ => {
            eprintln!("usage: federation_server --port <n> | --smoke");
            std::process::exit(2);
        }
    }
}
