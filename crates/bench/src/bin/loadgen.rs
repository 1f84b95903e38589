//! Load generator for the solve daemon (`fair-submod-service`): drives
//! a daemon with a mixed read/solve workload over many concurrent
//! keep-alive connections and writes p50/p95/p99/max latency,
//! throughput, and error/shed counts to `BENCH_service.json`.
//!
//! The client is itself event-driven (one thread, readiness loop over
//! the workspace `polling` shim), so it can hold 1k+ concurrent
//! connections without a thread per connection — the same architecture
//! as the server under test, which keeps the measurement from being
//! client-bound at high concurrency.
//!
//! The workload rotates three instance recipes (MC `c=2`, MC `c=4`,
//! FL `c=2`) across three solvers, interleaved with `/healthz` and
//! `/registry` reads — roughly 60% solves, 30% health checks, 10%
//! registry listings. A warmup pass touches every recipe once so the
//! timed phase measures the *resident* serving path (instance-cache
//! hits), which is the daemon's whole point; the JSON notes the
//! store's hit/miss counters so the cache effectiveness is part of the
//! artifact.
//!
//! Usage:
//!
//! ```text
//! # against a running daemon, 256 keep-alive connections
//! cargo run -p fair-submod-bench --release --bin loadgen -- \
//!     --addr 127.0.0.1:7878 --connections 256
//! # CI: spawn a daemon, sweep 16/256/1024 connections, gate
//! cargo run -p fair-submod-bench --release --bin loadgen -- \
//!     --quick --spawn --sweep --min-rps 700 --max-p99-ms 2000
//! ```
//!
//! Flags:
//!
//! - `--addr HOST:PORT` target a running daemon / `--spawn` start one
//! - `--connections N` concurrent connections (default 16)
//! - `--sweep` run at 16, 256, and 1024 connections instead of one N
//! - `--keepalive` / `--no-keepalive` reuse connections (default on)
//! - `--pipeline D` keep D requests in flight per connection (default 1)
//! - `--mode closed|open` closed-loop (issue-on-completion) or
//!   open-loop (issue on a fixed schedule; latencies count queueing
//!   from the scheduled instant, so there is no coordinated omission)
//! - `--rate R` open-loop arrival rate in requests/second
//! - `--requests N` requests per run, `--quick`, `--out PATH`
//! - `--min-rps F` / `--max-p99-ms F` CI gates on the
//!   largest-connection-count run (non-zero exit when violated)

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use polling::{Interest, Poller};
use serde::json::{obj, parse_bytes, Value};

// ── Blocking HTTP/1.1 helper (warmup + counters only) ────────────────

struct Reply {
    status: u16,
    body: Vec<u8>,
}

fn http_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Reply, String> {
    let _ = stream.set_nodelay(true);
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body.as_bytes());
    stream
        .write_all(&message)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write: {e}"))?;

    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("header: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-headers".into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    Ok(Reply { status, body })
}

// ── Workload ─────────────────────────────────────────────────────────

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Solve,
    Healthz,
    Registry,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Solve => "solve",
            Class::Healthz => "healthz",
            Class::Registry => "registry",
        }
    }
}

fn solve_bodies(quick: bool) -> Vec<String> {
    let n = if quick { 80 } else { 300 };
    let recipes = [
        (
            format!(r#"{{"kind": "rand_mc", "c": 2, "n": {n}}}"#),
            "coverage",
        ),
        (
            format!(r#"{{"kind": "rand_mc", "c": 4, "n": {n}}}"#),
            "coverage",
        ),
        (r#"{"kind": "rand_fl", "c": 2}"#.to_string(), "facility"),
    ];
    let solvers = ["Greedy", "BSM-TSGreedy", "BSM-Saturate"];
    let mut bodies = Vec::new();
    for (recipe, substrate) in &recipes {
        for solver in solvers {
            bodies.push(format!(
                r#"{{"dataset": {recipe}, "substrate": "{substrate}", "solver": "{solver}", "params": {{"k": 5, "tau": 0.8}}}}"#
            ));
        }
    }
    bodies
}

/// Deterministic 60/30/10 request mix by global request index.
fn class_for(index: usize) -> Class {
    match index % 10 {
        0..=5 => Class::Solve,
        6..=8 => Class::Healthz,
        _ => Class::Registry,
    }
}

// ── Stats ────────────────────────────────────────────────────────────

fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] * 1e3
}

fn class_stats(label: &str, latencies: &mut Vec<f64>) -> Value {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    obj([
        ("class", Value::Str(label.into())),
        ("count", Value::Num(latencies.len() as f64)),
        ("p50_ms", Value::Num(percentile_ms(latencies, 0.50))),
        ("p95_ms", Value::Num(percentile_ms(latencies, 0.95))),
        ("p99_ms", Value::Num(percentile_ms(latencies, 0.99))),
        ("mean_ms", Value::Num(mean * 1e3)),
        (
            "max_ms",
            Value::Num(latencies.last().copied().unwrap_or(0.0) * 1e3),
        ),
    ])
}

// ── Event-driven client ──────────────────────────────────────────────

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Closed,
    Open,
}

#[derive(Clone)]
struct LoadOpts {
    connections: usize,
    pipeline: usize,
    keepalive: bool,
    mode: Mode,
    /// Open-loop arrival rate across the whole pool (requests/second).
    rate: f64,
    total: usize,
}

struct RunResult {
    samples: Vec<(Class, f64)>,
    errors: usize,
    shed: usize,
    wall_seconds: f64,
}

/// Incremental HTTP/1.1 response scan: `Ok(Some((status, consumed)))`
/// once a full head + `Content-Length` body is buffered.
fn try_parse_response(buf: &[u8]) -> Result<Option<(u16, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    let total = head_end + 4 + content_length;
    Ok((buf.len() >= total).then_some((status, total)))
}

struct ClientConn {
    stream: TcpStream,
    write_buf: Vec<u8>,
    write_pos: usize,
    read_buf: Vec<u8>,
    /// FIFO of in-flight requests: (class, latency clock start).
    outstanding: VecDeque<(Class, Instant)>,
    interest: Interest,
    /// Open-loop: when this connection issues its next request.
    next_due: Instant,
}

fn connect_nonblocking(addr: &str) -> ClientConn {
    // Retry briefly: a concurrent burst of connects can overflow the
    // listener backlog while the server drains its accept queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    stream.set_nodelay(true).expect("nodelay");
    stream.set_nonblocking(true).expect("nonblocking");
    ClientConn {
        stream,
        write_buf: Vec::new(),
        write_pos: 0,
        read_buf: Vec::new(),
        outstanding: VecDeque::new(),
        interest: Interest::READABLE,
        next_due: Instant::now(),
    }
}

impl ClientConn {
    fn encode(&mut self, class: Class, bodies: &[String], index: usize, keepalive: bool) {
        let (method, path, body): (&str, &str, &str) = match class {
            Class::Solve => ("POST", "/solve", &bodies[index % bodies.len()]),
            Class::Healthz => ("GET", "/healthz", ""),
            Class::Registry => ("GET", "/registry", ""),
        };
        let connection = if keepalive { "keep-alive" } else { "close" };
        self.write_buf.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        self.write_buf.extend_from_slice(body.as_bytes());
    }

    /// Writes as much buffered request data as the socket accepts.
    /// `false` on a fatal transport error.
    fn flush(&mut self) -> bool {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        true
    }

    fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

/// Drives `opts.total` requests through `opts.connections` concurrent
/// connections with a single-threaded readiness loop.
fn run_load(addr: &str, bodies: &[String], opts: &LoadOpts) -> RunResult {
    let mut poller = Poller::new().expect("poller");
    let mut conns: Vec<ClientConn> = (0..opts.connections)
        .map(|_| connect_nonblocking(addr))
        .collect();
    for (token, conn) in conns.iter_mut().enumerate() {
        poller
            .register(conn.stream.as_raw_fd(), token, conn.interest)
            .expect("register");
    }

    let started = Instant::now();
    let mut cursor = 0usize; // next global request index
    let mut samples: Vec<(Class, f64)> = Vec::with_capacity(opts.total);
    let mut errors = 0usize;
    let mut shed = 0usize;
    let deadline = started + Duration::from_secs(600);

    // Open-loop: stagger each connection's schedule across one period
    // so arrivals spread evenly instead of beating.
    if opts.mode == Mode::Open {
        let period = Duration::from_secs_f64(opts.connections as f64 / opts.rate.max(1e-9));
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.next_due = started + period.mul_f64(i as f64 / opts.connections as f64);
        }
    }

    // A connection's slot in the poller is its index; interest changes
    // are applied lazily after each burst of work.
    let mut events = Vec::new();
    macro_rules! issue_on {
        ($conn:expr, $clock:expr) => {
            if cursor < opts.total {
                let class = class_for(cursor);
                $conn.encode(class, bodies, cursor, opts.keepalive);
                $conn.outstanding.push_back((class, $clock));
                cursor += 1;
            }
        };
    }

    // Prime the closed loop: `pipeline` requests in flight per
    // connection (the open loop issues purely on schedule).
    if opts.mode == Mode::Closed {
        for conn in conns.iter_mut() {
            for _ in 0..opts.pipeline {
                issue_on!(conn, Instant::now());
            }
        }
    }

    let mut dead: Vec<usize> = Vec::new();
    loop {
        let completed = samples.len() + errors + shed;
        if completed >= opts.total {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "loadgen run wedged: {completed}/{} after 600s",
            opts.total
        );

        // Flush pending writes and sync interest before sleeping.
        for (token, conn) in conns.iter_mut().enumerate() {
            if conn.wants_write() && !conn.flush() {
                dead.push(token);
                continue;
            }
            let desired = if conn.wants_write() {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            if desired != conn.interest {
                conn.interest = desired;
                poller
                    .modify(conn.stream.as_raw_fd(), token, desired)
                    .expect("modify");
            }
        }

        let timeout = match opts.mode {
            Mode::Closed => Duration::from_millis(1000),
            Mode::Open => conns
                .iter()
                .filter(|c| !c.outstanding.is_empty() || cursor < opts.total)
                .map(|c| c.next_due.saturating_duration_since(Instant::now()))
                .min()
                .unwrap_or(Duration::from_millis(1000))
                .min(Duration::from_millis(1000)),
        };
        events.clear();
        poller.wait(&mut events, Some(timeout)).expect("poll");

        for event in events.drain(..) {
            let token = event.token;
            let conn = &mut conns[token];
            if event.writable && !conn.flush() {
                dead.push(token);
                continue;
            }
            if !event.readable {
                continue;
            }
            let mut eof = false;
            let mut tmp = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.read_buf.extend_from_slice(&tmp[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            // Settle every complete response in the buffer.
            loop {
                match try_parse_response(&conn.read_buf) {
                    Ok(Some((status, consumed))) => {
                        conn.read_buf.drain(..consumed);
                        let (class, issued_at) =
                            conn.outstanding.pop_front().expect("tracked request");
                        match status {
                            200 => samples.push((class, issued_at.elapsed().as_secs_f64())),
                            429 | 503 => shed += 1,
                            _ => errors += 1,
                        }
                        if opts.mode == Mode::Closed && opts.keepalive {
                            issue_on!(conn, Instant::now());
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            if eof || (!opts.keepalive && conn.outstanding.is_empty()) {
                if eof {
                    // In-flight requests died with the connection.
                    errors += conn.outstanding.len();
                    conn.outstanding.clear();
                }
                dead.push(token);
            }
        }

        // Open-loop arrivals: issue every request whose scheduled
        // instant has passed, clocking latency from the schedule (not
        // the send), so queueing under overload is charged honestly.
        if opts.mode == Mode::Open {
            let period = Duration::from_secs_f64(opts.connections as f64 / opts.rate.max(1e-9));
            for conn in conns.iter_mut() {
                while cursor < opts.total && Instant::now() >= conn.next_due {
                    issue_on!(conn, conn.next_due);
                    conn.next_due += period;
                }
            }
        }

        // Replace torn-down connections (non-keepalive churn, EOFs,
        // transport errors) while work remains.
        for token in dead.drain(..) {
            let more_work = cursor < opts.total
                || opts.mode == Mode::Closed && samples.len() + errors + shed < opts.total;
            let old_fd = conns[token].stream.as_raw_fd();
            let _ = poller.deregister(old_fd);
            if !more_work {
                continue;
            }
            let next_due = conns[token].next_due;
            let mut fresh = connect_nonblocking(addr);
            fresh.next_due = next_due;
            if opts.mode == Mode::Closed && fresh.outstanding.is_empty() {
                let mut primed = 0;
                while primed < opts.pipeline && cursor < opts.total {
                    let class = class_for(cursor);
                    fresh.encode(class, bodies, cursor, opts.keepalive);
                    fresh.outstanding.push_back((class, Instant::now()));
                    cursor += 1;
                    primed += 1;
                }
            }
            poller
                .register(fresh.stream.as_raw_fd(), token, fresh.interest)
                .expect("re-register");
            conns[token] = fresh;
        }
    }

    for conn in &conns {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
    RunResult {
        samples,
        errors,
        shed,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

// ── Daemon spawning / readiness ──────────────────────────────────────

/// Kill-on-drop handle for the spawned daemon: whether loadgen exits
/// cleanly or panics mid-run (failed warmup, wedged run), the child is
/// reaped — CI must never be left with an orphaned release daemon.
struct DaemonGuard(std::process::Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cargo run -p fair-submod-service` and parses the bound
/// address off its stdout handshake line. The admission queue is sized
/// above the largest sweep so a healthy run sees zero shed; shedding
/// behavior itself is covered by the service integration tests.
fn spawn_daemon(quick: bool) -> (DaemonGuard, String) {
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.args([
        "run",
        "-p",
        "fair-submod-service",
        "--release",
        "--",
        "--addr",
        "127.0.0.1:0",
        "--queue-capacity",
        "4096",
        "--max-connections",
        "8192",
    ]);
    if quick {
        cmd.arg("--quick");
    }
    // Guard the child before the fallible handshake below, so even a
    // panic while waiting for it reaps the process.
    let mut child = DaemonGuard(
        cmd.stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn fair-submod-service"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read daemon stdout");
        assert!(n > 0, "daemon exited before its listening handshake");
        if let Some(addr) = line
            .trim()
            .strip_prefix("fair-submod-service listening on ")
        {
            return (child, addr.to_string());
        }
    }
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            if let Ok(reply) = http_request(&mut stream, "GET", "/healthz", "") {
                if reply.status == 200 {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon at {addr} not ready within 60s"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Warmup: touch every solve body once so the timed phase measures the
/// resident (instance-cache-hit) path.
fn warm(addr: &str, bodies: &[String]) {
    let mut stream = TcpStream::connect(addr).expect("connect for warmup");
    for body in bodies {
        let reply = http_request(&mut stream, "POST", "/solve", body)
            .unwrap_or_else(|e| panic!("warmup solve failed: {e}"));
        assert_eq!(
            reply.status,
            200,
            "warmup solve rejected: {}",
            String::from_utf8_lossy(&reply.body)
        );
    }
}

fn cache_counters(addr: &str) -> (u64, u64, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect for counters");
    let reply = http_request(&mut stream, "GET", "/instances", "").expect("GET /instances");
    let body = parse_bytes(&reply.body).expect("instances JSON");
    (
        body.get("hits").and_then(Value::as_u64).unwrap_or(0),
        body.get("misses").and_then(Value::as_u64).unwrap_or(0),
        body.get("len").and_then(Value::as_u64).unwrap_or(0),
    )
}

/// The daemon's self-reported peak RSS (`peak_rss_mib` in the
/// `/instances` view — fetched over HTTP because a `--spawn`ed daemon
/// sits behind a wrapper process, so its PID is not ours to inspect).
/// `None` when the daemon runs off Linux.
fn daemon_peak_rss_mib(addr: &str) -> Option<f64> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let reply = http_request(&mut stream, "GET", "/instances", "").ok()?;
    parse_bytes(&reply.body)
        .ok()?
        .get("peak_rss_mib")
        .and_then(Value::as_f64)
}

// ── Main ─────────────────────────────────────────────────────────────

fn run_to_json(connections: usize, opts: &LoadOpts, result: &RunResult) -> (f64, f64, Value) {
    let mut overall: Vec<f64> = result.samples.iter().map(|&(_, s)| s).collect();
    let mut classes: Vec<Value> = Vec::new();
    for class in [Class::Solve, Class::Healthz, Class::Registry] {
        let mut latencies: Vec<f64> = result
            .samples
            .iter()
            .filter(|&&(c, _)| c == class)
            .map(|&(_, s)| s)
            .collect();
        classes.push(class_stats(class.label(), &mut latencies));
    }
    let throughput = result.samples.len() as f64 / result.wall_seconds.max(1e-9);
    let overall_stats = class_stats("overall", &mut overall);
    let p99_ms = overall_stats
        .get("p99_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let json = obj([
        ("connections", Value::Num(connections as f64)),
        ("requests", Value::Num(opts.total as f64)),
        ("ok", Value::Num(result.samples.len() as f64)),
        ("errors", Value::Num(result.errors as f64)),
        ("shed", Value::Num(result.shed as f64)),
        ("wall_seconds", Value::Num(result.wall_seconds)),
        ("throughput_rps", Value::Num(throughput)),
        ("overall", overall_stats),
        ("classes", Value::Arr(classes)),
    ]);
    (throughput, p99_ms, json)
}

/// What a sweep of one daemon produced.
struct Outcome {
    /// The report's `runs` and daemon-counter fields.
    fields: Vec<(&'static str, Value)>,
    /// (throughput_rps, p99_ms) of the largest-connection run.
    at_max: (f64, f64),
    errors: usize,
}

fn sweep_daemon(
    addr: &str,
    bodies: &[String],
    points: &[usize],
    opts: &LoadOpts,
    spawned: bool,
) -> Outcome {
    warm(addr, bodies);
    let mut runs = Vec::new();
    let mut at_max = (0.0, 0.0);
    let mut errors = 0;
    let mut shed = 0;
    for &connections in points {
        let opts = LoadOpts {
            connections,
            ..opts.clone()
        };
        eprintln!(
            "[loadgen] {connections} connections, {} requests, {:?} loop ...",
            opts.total, opts.mode
        );
        let result = run_load(addr, bodies, &opts);
        let (rps, p99, json) = run_to_json(connections, &opts, &result);
        eprintln!(
            "[loadgen] {} ok / {} errors / {} shed in {:.2}s ({rps:.0} req/s, p99 {p99:.1}ms)",
            result.samples.len(),
            result.errors,
            result.shed,
            result.wall_seconds,
        );
        at_max = (rps, p99);
        errors += result.errors;
        shed += result.shed;
        runs.push(json);
    }
    let (hits, misses, resident) = cache_counters(addr);
    assert!(
        !spawned || hits > 0,
        "repeated recipes never hit the instance cache"
    );
    let rss = daemon_peak_rss_mib(addr);
    Outcome {
        fields: vec![
            ("runs", Value::Arr(runs)),
            ("cache_hits", Value::Num(hits as f64)),
            ("cache_misses", Value::Num(misses as f64)),
            ("resident_instances", Value::Num(resident as f64)),
            ("daemon_peak_rss_mib", rss.map_or(Value::Null, Value::Num)),
            ("total_errors", Value::Num(errors as f64)),
            ("total_shed", Value::Num(shed as f64)),
        ],
        at_max,
        errors,
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut spawn = false;
    let mut quick = false;
    let mut sweep = false;
    let mut connections = 16usize;
    let mut pipeline = 1usize;
    let mut keepalive = true;
    let mut mode = Mode::Closed;
    let mut rate: Option<f64> = None;
    let mut requests: Option<usize> = None;
    let mut out_path = String::from("BENCH_service.json");
    let mut min_rps: Option<f64> = None;
    let mut max_p99_ms: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        fn int(flag: &str, raw: String) -> usize {
            raw.parse()
                .unwrap_or_else(|_| panic!("{flag} takes an integer"))
        }
        fn num(flag: &str, raw: String) -> f64 {
            raw.parse()
                .unwrap_or_else(|_| panic!("{flag} takes a number"))
        }
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--spawn" => spawn = true,
            "--quick" => quick = true,
            "--sweep" => sweep = true,
            "--connections" => connections = int("--connections", value("--connections")).max(1),
            "--pipeline" => pipeline = int("--pipeline", value("--pipeline")).max(1),
            "--keepalive" => keepalive = true,
            "--no-keepalive" => keepalive = false,
            "--mode" => {
                mode = match value("--mode").as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    other => panic!("--mode takes closed|open, not {other:?}"),
                }
            }
            "--rate" => rate = Some(num("--rate", value("--rate"))),
            "--requests" => requests = Some(int("--requests", value("--requests"))),
            "--out" => out_path = value("--out"),
            "--min-rps" => min_rps = Some(num("--min-rps", value("--min-rps"))),
            "--max-p99-ms" => max_p99_ms = Some(num("--max-p99-ms", value("--max-p99-ms"))),
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    let total = requests.unwrap_or(if quick { 1_500 } else { 10_000 });
    let opts = LoadOpts {
        connections,
        pipeline,
        keepalive,
        mode,
        rate: rate.unwrap_or(if quick { 500.0 } else { 2_000.0 }),
        total,
    };
    let points: Vec<usize> = if sweep {
        vec![16, 256, 1024]
    } else {
        vec![connections]
    };

    let bodies = solve_bodies(quick);
    let (_daemon, target) = match addr {
        Some(addr) => (None, addr),
        None => {
            assert!(spawn, "need --addr HOST:PORT or --spawn");
            let (child, addr) = spawn_daemon(quick);
            (Some(child), addr)
        }
    };
    eprintln!("[loadgen] target daemon at {target}");
    wait_ready(&target);
    let outcome = sweep_daemon(&target, &bodies, &points, &opts, spawn);
    let (max_rps, max_p99) = outcome.at_max;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut top = vec![
        ("generated_by", Value::Str("loadgen".into())),
        ("quick", Value::Bool(quick)),
        ("cores", Value::Num(cores as f64)),
        (
            "threads_default",
            Value::Num(rayon::current_num_threads() as f64),
        ),
        (
            "mode",
            Value::Str(
                match opts.mode {
                    Mode::Closed => "closed",
                    Mode::Open => "open",
                }
                .into(),
            ),
        ),
        ("keepalive", Value::Bool(opts.keepalive)),
        ("pipeline", Value::Num(opts.pipeline as f64)),
        (
            "connection_sweep",
            Value::Arr(points.iter().map(|&p| Value::Num(p as f64)).collect()),
        ),
    ];
    top.extend(outcome.fields);
    let report = obj(top);
    std::fs::write(&out_path, report.to_pretty_string()).expect("write BENCH_service.json");
    eprintln!(
        "[loadgen] at {} connections {max_rps:.0} req/s, p99 {max_p99:.1}ms",
        points.last().unwrap(),
    );
    eprintln!("[loadgen] wrote {out_path}");

    // Gates: a healthy daemon sized above the sweep must never error
    // or shed; the floors/ceilings catch regressions in CI.
    assert_eq!(
        outcome.errors, 0,
        "daemon saw transport errors or non-200/429/503 statuses"
    );
    if let Some(floor) = min_rps {
        assert!(
            max_rps >= floor,
            "throughput gate: {max_rps:.0} req/s < floor {floor:.0}"
        );
    }
    if let Some(ceiling) = max_p99_ms {
        assert!(
            max_p99 <= ceiling,
            "p99 gate: {max_p99:.1}ms > ceiling {ceiling:.1}ms"
        );
    }
}
