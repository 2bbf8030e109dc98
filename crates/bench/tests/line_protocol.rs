//! The server's line protocol over in-memory readers and writers — reply
//! bytes, write counts, hostile request lines — and its round trip over a
//! loopback socket.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use disco_bench::serving::{
    analytical_sql, interactive_sql, send_line, serve_connection, serve_stream, ServerState,
    MAX_REQUEST_LINE_BYTES, REPLY_BUFFER_BYTES,
};

/// Everything the server writes for `input` on one connection.
fn serve(state: &ServerState, input: &[u8]) -> Vec<u8> {
    let mut reply = Vec::new();
    serve_connection(state, input, &mut reply).expect("in-memory I/O does not fail");
    reply
}

/// `reply` as text with the `<wait-ms>` of every `OK <rows> …` line
/// replaced by `_`: it is a wall-clock reading, `0.00` or `0.01` here.
fn masked(reply: &[u8]) -> String {
    let text = std::str::from_utf8(reply).expect("replies are UTF-8");
    text.split_inclusive('\n')
        .map(|line| {
            let fields: Vec<&str> = line.trim_end().split(' ').collect();
            match fields.as_slice() {
                ["OK", rows, source, class, wait] => {
                    let (_, decimals) = wait.split_once('.').expect("wait-ms has a point");
                    assert_eq!(decimals.len(), 2, "wait-ms is printed {{:.2}}: {line}");
                    wait.parse::<f64>().expect("wait-ms is a number");
                    format!("OK {rows} {source} {class} _\n")
                }
                _ => line.to_string(),
            }
        })
        .collect()
}

/// The reply body as the server rendered it before it buffered: one
/// `String` per value, joined, one `writeln!` per row.
fn reference_body(state: &ServerState, sql: &str) -> String {
    let served = state.mediator().query(sql).expect("query answers");
    let mut body = String::new();
    for row in &served.result.tuples {
        let rendered: Vec<String> = row.values().iter().map(|v| format!("{v:?}")).collect();
        body.push_str(&format!("ROW {}\n", rendered.join("\t")));
    }
    body
}

/// The expected strings are what the server of the parent commit sent
/// over TCP for the same requests.
#[test]
fn replies_are_byte_identical_to_the_unbuffered_server() {
    let state = ServerState::new(0.0);
    let join = "SELECT a.id, b.v FROM T00 a, T01 b WHERE a.k = b.k AND a.v < 200";

    let head = serve(
        &state,
        b"TENANT acme\n\nSELECT v FROM T03 WHERE id < 4\n   \r\n",
    );
    assert_eq!(
        masked(&head),
        "OK tenant acme\n\
         OK 4 CacheMiss interactive _\n\
         ROW Long(0)\nROW Long(7)\nROW Long(14)\nROW Long(21)\nEND\n"
    );

    let joined = masked(&serve(&state, format!("{join}\n").as_bytes()));
    assert_eq!(joined.len(), 194_378 - "0.00".len() + "_".len());
    assert!(joined.starts_with(
        "OK 8000 CacheMiss analytical _\nROW Long(0)\tLong(0)\nROW Long(0)\tLong(700)\n"
    ));
    assert!(joined.ends_with("ROW Long(1885)\tLong(195)\nROW Long(1885)\tLong(895)\nEND\n"));
    assert_eq!(
        joined,
        format!(
            "OK 8000 CacheMiss analytical _\n{}END\n",
            reference_body(&state, join)
        )
    );

    let tail = serve(
        &state,
        b"SELECT v FROM Nope WHERE id < 4\nSELEC\nTENANT\nTENANT   spaced  \n\
          SELECT v FROM T03 WHERE id < 7\nSHUTDOWN\nSELECT v FROM T03 WHERE id < 2\n",
    );
    assert_eq!(
        masked(&tail),
        "ERR catalog error: unknown collection `Nope`\n\
         ERR parse error: expected `SELECT`, found Ident(\"SELEC\")\n\
         ERR parse error: expected `SELECT`, found Ident(\"TENANT\")\n\
         OK tenant spaced\n\
         OK 7 CacheHit interactive _\n\
         ROW Long(0)\nROW Long(7)\nROW Long(14)\nROW Long(21)\nROW Long(28)\nROW Long(35)\n\
         ROW Long(42)\nEND\n\
         OK bye\n"
    );
    assert!(state.shutdown_requested());
    assert_eq!(state.served(), 3, "nothing after SHUTDOWN is served");
}

/// A sink that records the size of every write it is handed.
#[derive(Default)]
struct CountingSink {
    writes: Vec<usize>,
    lines: usize,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.len());
        self.lines += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_reply_reaches_the_socket_in_one_write_per_buffer() {
    let state = ServerState::new(0.0);

    let mut sink = CountingSink::default();
    let point = format!("{}\n", interactive_sql(2, 9));
    serve_connection(&state, point.as_bytes(), &mut sink).unwrap();
    assert_eq!(sink.writes.len(), 1, "point reply: {:?}", sink.writes);
    assert_eq!(sink.lines, 9 + 2);

    let mut sink = CountingSink::default();
    let requests = format!("TENANT t\n{point}SELECT\n");
    serve_connection(&state, requests.as_bytes(), &mut sink).unwrap();
    assert_eq!(sink.writes.len(), 3, "one write per request");

    let mut sink = CountingSink::default();
    let join = format!("{}\n", analytical_sql(0, 500));
    serve_connection(&state, join.as_bytes(), &mut sink).unwrap();
    let bytes: usize = sink.writes.iter().sum();
    assert!(sink.lines >= 10_000 + 2, "{} lines", sink.lines);
    assert!(
        sink.writes.len() <= bytes.div_ceil(REPLY_BUFFER_BYTES) + 1,
        "{bytes} bytes in {} writes",
        sink.writes.len()
    );
    assert!(sink.writes.iter().all(|&w| w <= REPLY_BUFFER_BYTES));
}

#[test]
fn hostile_lines_get_an_error_and_never_unbounded_memory() {
    let state = ServerState::new(0.0);
    let point = interactive_sql(1, 3);
    let answer = masked(&serve(&state, point.as_bytes()));
    assert!(
        answer.starts_with("OK 3 ") && answer.ends_with("END\n"),
        "a final line without a terminator is served: {answer}"
    );
    let answer = answer.replace("CacheMiss", "CacheHit");

    // Not UTF-8: an error, and the connection keeps serving.
    let mut input = b"SELECT \xff\xfe FROM T00\n".to_vec();
    input.extend_from_slice(format!("{point}\n").as_bytes());
    assert_eq!(
        masked(&serve(&state, &input)),
        format!("ERR invalid utf-8\n{answer}")
    );

    // A line of exactly the limit is a request like any other.
    let mut input = vec![b'x'; MAX_REQUEST_LINE_BYTES];
    input.extend_from_slice(format!("\n{point}\n").as_bytes());
    let reply = masked(&serve(&state, &input));
    assert!(reply.starts_with("ERR parse error"), "{reply}");
    assert!(reply.ends_with(&answer), "{reply}");

    // One byte more: an error, and the connection is closed.
    let mut input = vec![b'x'; MAX_REQUEST_LINE_BYTES + 1];
    input.extend_from_slice(format!("\n{point}\n").as_bytes());
    assert_eq!(serve(&state, &input), b"ERR line too long\n");

    // A peer that never ends its line is cut off at the limit.
    let endless = BufReader::new(std::io::repeat(b'x'));
    let mut reply = Vec::new();
    serve_connection(&state, endless, &mut reply).unwrap();
    assert_eq!(reply, b"ERR line too long\n");
}

/// A reply or request that leaves in pieces has its second piece held
/// until the peer's delayed ACK, which the kernel sets at 40 ms; sent
/// whole, a point query over loopback takes well under a millisecond.
#[test]
fn point_queries_over_loopback_do_not_wait_for_a_delayed_ack() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let state = ServerState::new(0.0);
        let (stream, _) = listener.accept().unwrap();
        serve_stream(&state, &stream).unwrap();
        state.served()
    });

    let mut out = TcpStream::connect(addr).unwrap();
    out.set_nodelay(true).unwrap();
    let mut lines = BufReader::new(out.try_clone().unwrap()).lines();
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|j| {
            let sent = Instant::now();
            send_line(&mut out, &interactive_sql(j, 5 + j as i64)).unwrap();
            let head = lines.next().unwrap().unwrap();
            assert!(head.starts_with("OK "), "{head}");
            while lines.next().unwrap().unwrap() != "END" {}
            sent.elapsed()
        })
        .collect();
    send_line(&mut out, "SHUTDOWN").unwrap();
    assert_eq!(lines.next().unwrap().unwrap(), "OK bye");
    assert_eq!(server.join().unwrap(), 50);

    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(10), "median {median:?}");
}
