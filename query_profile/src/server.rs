//! The shipped `federation_server` as a child process, and a client for
//! its line protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned server may take to accept its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a server may take to exit after acknowledging `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Build `federation_server` with the repository's own release profile
/// and return the executable's path. Run from the repository root; a
/// no-op when the binary is fresh.
pub fn build_server_binary() -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "disco-bench", "--bin", "federation_server"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building federation_server failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("federation_server");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// A running server child. Dropping it kills the process if it is still
/// alive; [`Server::shutdown`] is the orderly way out.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Pick a free port, spawn `bin --port <port>` and wait until it
    /// accepts a connection. Another process can take the port between
    /// the pick and the child's bind, so a child that exits early is
    /// retried on a fresh port.
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut last = String::new();
        for _ in 0..5 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let child = Command::new(bin)
                .args(["--port", &port.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
            let mut server = Server {
                child,
                addr: SocketAddr::from(([127, 0, 0, 1], port)),
            };
            match server.await_ready() {
                Ok(()) => return Ok(server),
                Err(e) => last = e,
            }
        }
        Err(format!("server never became ready: {last}"))
    }

    fn await_ready(&mut self) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed() < READY_TIMEOUT {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if TcpStream::connect(self.addr).is_ok() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("timed out waiting for the server to listen".into())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to stop and wait for it; every client connection
    /// must be closed first, because the server drains its handlers.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn =
            TcpStream::connect(self.addr).map_err(|e| format!("shutdown connect: {e}"))?;
        writeln!(conn, "SHUTDOWN").map_err(|e| format!("shutdown send: {e}"))?;
        let mut reply = String::new();
        BufReader::new(conn)
            .read_line(&mut reply)
            .map_err(|e| format!("shutdown reply: {e}"))?;
        if reply.trim() != "OK bye" {
            return Err(format!("server answered SHUTDOWN with `{}`", reply.trim()));
        }
        let start = Instant::now();
        while start.elapsed() < EXIT_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not exit after SHUTDOWN".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors mean the child is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a process: its peak resident set since it started or since
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// Reset a process's `VmHWM` to its current resident set (Linux:
/// `5` into `clear_refs`). Where that is refused the mark keeps its
/// lifetime meaning, which is still a valid, if coarser, peak.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// One reply to a SQL line.
#[derive(Debug, Default)]
pub struct Reply {
    /// `ROW` lines received.
    pub rows: usize,
    /// The `ROW` payloads, when asked for.
    pub kept: Vec<String>,
    /// `<plan-source>` of the `OK` line (`CacheHit`, `CacheMiss`, …).
    pub plan_source: String,
    /// `<wait-ms>` of the `OK` line: time queued at admission.
    pub wait_ms: f64,
    /// Send → `OK` line.
    pub header: Duration,
    /// `OK` line → `END`.
    pub body: Duration,
    /// Reply bytes, line terminators included.
    pub bytes: usize,
}

/// A client connection: one request at a time, as every caller of the
/// server waits for its reply.
pub struct Conn {
    out: TcpStream,
    lines: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr, tenant: &str) -> Result<Conn, String> {
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        out.set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let lines = BufReader::new(out.try_clone().map_err(|e| format!("clone stream: {e}"))?);
        let mut conn = Conn {
            out,
            lines,
            line: String::new(),
        };
        conn.send(&format!("TENANT {tenant}"))?;
        if !conn.read()?.starts_with("OK tenant") {
            return Err(format!(
                "tenant handshake answered `{}`",
                conn.line.trim_end()
            ));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        // One write per request: the line and its terminator leave in the
        // same segment.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.out.write_all(&buf).map_err(|e| format!("send: {e}"))
    }

    fn read(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.lines.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end_matches('\n')),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Send one SQL line and read the reply to its `END`. An `ERR` reply
    /// is an error, as is anything malformed.
    pub fn query(&mut self, sql: &str, keep_rows: bool) -> Result<Reply, String> {
        let sent = Instant::now();
        self.send(sql)?;
        let mut reply = Reply::default();
        let head = self.read()?;
        reply.header = sent.elapsed();
        reply.bytes = head.len() + 1;
        // `OK <rows> <plan-source> <class> <wait-ms>`
        let fields: Vec<&str> = head.split(' ').collect();
        let announced: usize = match fields.as_slice() {
            ["OK", rows, source, _class, wait] => {
                reply.plan_source = source.to_string();
                reply.wait_ms = wait
                    .parse()
                    .map_err(|_| format!("bad wait-ms in `{head}`"))?;
                rows.parse()
                    .map_err(|_| format!("bad row count in `{head}`"))?
            }
            _ => return Err(format!("server answered `{head}`")),
        };
        let headed = Instant::now();
        loop {
            let line = self.read()?;
            let len = line.len() + 1;
            if line == "END" {
                reply.bytes += len;
                break;
            }
            let Some(row) = line.strip_prefix("ROW ") else {
                return Err(format!("unexpected body line `{line}`"));
            };
            if keep_rows {
                let row = row.to_string();
                reply.kept.push(row);
            }
            reply.rows += 1;
            reply.bytes += len;
        }
        reply.body = headed.elapsed();
        if reply.rows != announced {
            return Err(format!("{announced} rows announced, {} sent", reply.rows));
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_rss() {
        let mb = peak_rss_mb(std::process::id()).unwrap();
        assert!(mb > 0.5 && mb < 1e6, "{mb}");
        assert!(peak_rss_mb(u32::MAX).is_err());
    }

    /// A stand-in server answering one query, to pin the reply parser.
    #[test]
    fn parses_a_reply_and_rejects_err() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            let mut lines = BufReader::new(stream).lines();
            assert_eq!(lines.next().unwrap().unwrap(), "TENANT t");
            writeln!(out, "OK tenant t").unwrap();
            assert_eq!(lines.next().unwrap().unwrap(), "SELECT 1");
            write!(
                out,
                "OK 2 CacheHit interactive 0.25\nROW Long(1)\nROW Long(2)\nEND\n"
            )
            .unwrap();
            assert_eq!(lines.next().unwrap().unwrap(), "SELECT 2");
            writeln!(out, "ERR no such table").unwrap();
        });
        let mut conn = Conn::open(addr, "t").unwrap();
        let reply = conn.query("SELECT 1", true).unwrap();
        assert_eq!(reply.rows, 2);
        assert_eq!(reply.kept, ["Long(1)", "Long(2)"]);
        assert_eq!(reply.plan_source, "CacheHit");
        assert_eq!(reply.wait_ms, 0.25);
        assert_eq!(
            reply.bytes,
            "OK 2 CacheHit interactive 0.25\nROW Long(1)\nROW Long(2)\nEND\n".len()
        );
        assert!(conn
            .query("SELECT 2", false)
            .unwrap_err()
            .contains("ERR no such table"));
        server.join().unwrap();
    }
}
