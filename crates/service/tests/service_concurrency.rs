//! Socket-level tests for the event-driven server's concurrency
//! behavior — keep-alive reuse, pipelining, request-size and slowloris
//! limits, admission-control shedding, tenant quotas — plus the golden
//! transcript: a fixed request script over the whole endpoint surface
//! whose answers, once volatile timing and host fields are normalized,
//! must match `tests/golden/surface.jsonl` byte for byte.

use std::io::{BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use serde::json::{obj, parse_bytes, Value};

use fair_submod_service::http::{read_response, Request, Response};
use fair_submod_service::{
    serve_with, EventConfig, EventServer, InstanceConfig, QuotaConfig, ServiceState,
};

fn quick_state() -> Arc<ServiceState> {
    Arc::new(ServiceState::new(4, InstanceConfig::default().quick()))
}

/// Event-driven daemon with explicit knobs, serving for the rest of
/// the process.
fn spawn_event(state: Arc<ServiceState>, config: EventConfig) -> SocketAddr {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        serve_with("127.0.0.1:0", state, config, move |addr| {
            tx.send(addr).expect("report bound address");
        })
        .expect("daemon serves");
    });
    rx.recv().expect("daemon binds")
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Value {
        parse_bytes(&self.body).unwrap_or_else(|e| {
            panic!(
                "non-JSON body ({e}): {:?}",
                String::from_utf8_lossy(&self.body)
            )
        })
    }
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream.flush().unwrap();
}

fn read_reply(stream: &TcpStream) -> Reply {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, headers, body) = read_response(&mut reader).unwrap();
    Reply {
        status,
        headers,
        body,
    }
}

fn request(stream: &mut TcpStream, method: &str, path: &str, body: Option<&str>) -> Reply {
    request_h(stream, method, path, body, &[])
}

fn request_h(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> Reply {
    send_request(stream, method, path, body.unwrap_or(""), extra_headers);
    read_reply(stream)
}

const SOLVE_BODY: &str = r#"{
    "dataset": {"kind": "rand_mc", "c": 2, "n": 60},
    "substrate": "coverage",
    "solver": "BSM-TSGreedy",
    "params": {"k": 3, "tau": 0.8}
}"#;

#[test]
fn keep_alive_connection_reuses_instance_cache() {
    let addr = spawn_event(quick_state(), EventConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();

    // Two solves over ONE connection: the socket stays open between
    // them (keep-alive), and the second hits the instance cache.
    let first = request(&mut conn, "POST", "/solve", Some(SOLVE_BODY));
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(first.header("x-instance-cache"), Some("miss"));
    assert_eq!(first.header("connection"), Some("keep-alive"));

    let second = request(&mut conn, "POST", "/solve", Some(SOLVE_BODY));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-instance-cache"), Some("hit"));

    // The daemon saw exactly one connection for both requests.
    let health = request(&mut conn, "GET", "/healthz", None);
    assert_eq!(
        health.json().get("requests").and_then(Value::as_usize),
        Some(3),
        "all three requests flowed over the same kept-alive socket"
    );
}

#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let addr = spawn_event(quick_state(), EventConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();

    // Four requests in ONE write, no reads in between: a pipelined
    // burst. Responses must come back in request order even though the
    // solve takes far longer than the metadata reads behind it.
    let mut burst = Vec::new();
    for (method, path, body) in [
        ("GET", "/healthz", ""),
        ("POST", "/solve", SOLVE_BODY),
        ("GET", "/registry", ""),
        ("GET", "/instances", ""),
    ] {
        burst.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    conn.write_all(&burst).unwrap();
    conn.flush().unwrap();

    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut replies = Vec::new();
    for _ in 0..4 {
        let (status, headers, body) = read_response(&mut reader).unwrap();
        replies.push(Reply {
            status,
            headers,
            body,
        });
    }
    assert!(replies.iter().all(|r| r.status == 200));
    // Body shapes identify which endpoint answered at each position.
    assert_eq!(
        replies[0].json().get("status").and_then(Value::as_str),
        Some("ok"),
        "healthz first"
    );
    assert_eq!(
        replies[1].json().get("solver").and_then(Value::as_str),
        Some("BSM-TSGreedy"),
        "solve report second"
    );
    assert!(
        replies[2]
            .json()
            .get("solvers")
            .and_then(Value::as_arr)
            .is_some(),
        "registry third"
    );
    assert_eq!(
        replies[3].json().get("len").and_then(Value::as_usize),
        Some(1),
        "instances view fourth, already reflecting the pipelined solve"
    );
}

#[test]
fn oversized_request_body_draws_413_and_close() {
    let addr = spawn_event(quick_state(), EventConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();

    // The Content-Length alone convicts the request: no body bytes are
    // ever sent, and the server must not wait for them.
    conn.write_all(b"POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let reply = read_reply(&conn);
    assert_eq!(reply.status, 413);
    let error = reply.json();
    let message = error.get("error").and_then(Value::as_str).unwrap();
    assert!(message.contains("999999999"), "echoes the offending length");
    assert_eq!(reply.header("connection"), Some("close"));

    // The server closed the connection after answering.
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

#[test]
fn idle_and_slow_header_connections_are_reaped() {
    let config = EventConfig {
        idle_timeout: Duration::from_millis(150),
        read_timeout: Duration::from_millis(250),
        ..EventConfig::default()
    };
    let addr = spawn_event(quick_state(), config);

    // A connection that never sends a byte is reaped at idle_timeout.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    idle.read_to_end(&mut buf).expect("server closes, not us");
    assert!(buf.is_empty(), "reaped without a response");

    // A slowloris connection trickling header bytes is reaped at
    // read_timeout even though it is never strictly idle.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    slow.write_all(b"GET /healthz HT").unwrap();
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(60));
        // Keep feeding bytes so last_activity keeps advancing.
        let _ = slow.write_all(b"T");
    }
    let mut buf = Vec::new();
    slow.read_to_end(&mut buf).expect("server closes, not us");
    assert!(buf.is_empty(), "slowloris reaped mid-head, no response");

    // A well-behaved connection on the same server still works.
    let mut ok = TcpStream::connect(addr).unwrap();
    assert_eq!(request(&mut ok, "GET", "/healthz", None).status, 200);
}

#[test]
fn saturated_admission_queue_sheds_503_with_retry_after() {
    // One worker, one queue slot. The handler holds the worker on a
    // gate so saturation is deterministic: request 1 executes (gate
    // held), request 2 fills the queue, request 3 must be shed.
    let state = quick_state();
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let handler = move |request: &Request| -> Response {
        if request.path == "/gate" {
            started_tx.send(()).ok();
            gate_rx.lock().unwrap().recv().ok();
            return Response::json(200, &obj([("gate", Value::Str("open".into()))]));
        }
        state.handle(request)
    };
    let config = EventConfig {
        worker_threads: 1,
        queue_capacity: 1,
        ..EventConfig::default()
    };
    let server = EventServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run(Arc::new(handler)).unwrap());

    let mut held = TcpStream::connect(addr).unwrap();
    send_request(&mut held, "GET", "/gate", "", &[]);
    started_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("worker picked up the gated request");

    // The worker is now provably busy; this one parks in the queue.
    let mut queued = TcpStream::connect(addr).unwrap();
    send_request(&mut queued, "GET", "/gate", "", &[]);
    std::thread::sleep(Duration::from_millis(200));

    // Queue full: shed on the loop thread, no worker involved.
    let mut shed = TcpStream::connect(addr).unwrap();
    let reply = request(&mut shed, "GET", "/healthz", None);
    assert_eq!(reply.status, 503);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(reply
        .json()
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("overloaded"));

    // Releasing the gate drains the held and queued requests in order.
    gate_tx.send(()).unwrap();
    gate_tx.send(()).unwrap();
    assert_eq!(read_reply(&held).status, 200);
    assert_eq!(read_reply(&queued).status, 200);
}

#[test]
fn tenant_solve_rate_quota_draws_429_with_retry_after() {
    let quotas = QuotaConfig {
        solve_rate: 1e-9, // effectively never refills inside the test
        solve_burst: 2.0,
        ..QuotaConfig::unlimited()
    };
    let state =
        Arc::new(ServiceState::new(4, InstanceConfig::default().quick()).with_quotas(quotas));
    let addr = spawn_event(state, EventConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();
    let alice = [("X-Tenant", "alice")];

    // Burst of 2 admits two solves, then the bucket is dry.
    for _ in 0..2 {
        let ok = request_h(&mut conn, "POST", "/solve", Some(SOLVE_BODY), &alice);
        assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
    }
    let refused = request_h(&mut conn, "POST", "/solve", Some(SOLVE_BODY), &alice);
    assert_eq!(refused.status, 429);
    assert!(refused.header("retry-after").is_some());
    let body = refused.json();
    assert_eq!(body.get("tenant").and_then(Value::as_str), Some("alice"));
    assert!(body
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("rate limit"));

    // Another tenant has an independent bucket, and GET endpoints are
    // never rate-limited.
    let bob = [("X-Tenant", "bob")];
    let other = request_h(&mut conn, "POST", "/solve", Some(SOLVE_BODY), &bob);
    assert_eq!(other.status, 200);
    assert_eq!(other.header("x-instance-cache"), Some("hit"));
    assert_eq!(request(&mut conn, "GET", "/healthz", None).status, 200);
}

#[test]
fn tenant_instance_occupancy_quota_draws_429() {
    let quotas = QuotaConfig {
        max_instances: 1,
        ..QuotaConfig::unlimited()
    };
    let state =
        Arc::new(ServiceState::new(4, InstanceConfig::default().quick()).with_quotas(quotas));
    let addr = spawn_event(state, EventConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();
    let alice = [("X-Tenant", "alice")];

    // First instance fills alice's quota.
    let first = request_h(&mut conn, "POST", "/solve", Some(SOLVE_BODY), &alice);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-instance-cache"), Some("miss"));

    // A second, distinct recipe would need a second store slot: 429.
    let other_recipe = SOLVE_BODY.replace("\"n\": 60", "\"n\": 80");
    let refused = request_h(&mut conn, "POST", "/solve", Some(&other_recipe), &alice);
    assert_eq!(refused.status, 429);
    let body = refused.json();
    assert!(body
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("instance quota"));
    assert_eq!(body.get("limit").and_then(Value::as_usize), Some(1));

    // Cache hits on the held instance stay free; other tenants are
    // unaffected by alice's occupancy.
    let again = request_h(&mut conn, "POST", "/solve", Some(SOLVE_BODY), &alice);
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-instance-cache"), Some("hit"));
    let bob = request_h(
        &mut conn,
        "POST",
        "/solve",
        Some(&other_recipe),
        &[("X-Tenant", "bob")],
    );
    assert_eq!(bob.status, 200, "{}", String::from_utf8_lossy(&bob.body));
}

// ---------------------------------------------------------------------------
// Golden transcript
// ---------------------------------------------------------------------------

/// The daemon's answers to [`drive_surface`], one JSON line per
/// exchange. Every line up to `malformed-400` was recorded from the
/// thread-per-connection server the event loop replaced; the
/// nested-body exchanges after it were appended with the parser's
/// depth cap.
const GOLDEN: &str = include_str!("golden/surface.jsonl");

/// Zeroes wall-clock and host-level fields (`seconds` in reports,
/// `uptime_seconds` and the solve pool's `threads` in healthz,
/// `build_seconds` and the self-reported `peak_rss_mib` in the
/// instances view) anywhere in the document; everything else in a
/// response is deterministic given an identical request history.
fn normalize(value: &mut Value) {
    match value {
        Value::Obj(pairs) => {
            for (key, val) in pairs.iter_mut() {
                if key == "seconds"
                    || key == "uptime_seconds"
                    || key == "threads"
                    || key == "build_seconds"
                    || key == "peak_rss_mib"
                {
                    *val = Value::Num(0.0);
                } else {
                    normalize(val);
                }
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(normalize),
        _ => {}
    }
}

/// One observed exchange as its transcript line: the label, status,
/// the deterministic headers, and the normalized body.
fn observe(label: &str, reply: Reply) -> String {
    const KEPT: [&str; 5] = [
        "content-type",
        "x-instance-cache",
        "x-instance-key",
        "x-instance-cache-hits",
        "retry-after",
    ];
    let headers = reply
        .headers
        .iter()
        .filter(|(n, _)| KEPT.contains(&n.as_str()))
        .map(|(n, v)| Value::Arr(vec![Value::Str(n.clone()), Value::Str(v.clone())]))
        .collect();
    let mut body = reply.json();
    normalize(&mut body);
    obj([
        ("exchange", Value::Str(label.into())),
        ("status", Value::Num(f64::from(reply.status))),
        ("headers", Value::Arr(headers)),
        ("body", body),
    ])
    .to_compact_string()
}

/// One request on a fresh connection, billed to the `eq` tenant.
fn one_exchange(
    out: &mut Vec<String>,
    addr: SocketAddr,
    label: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let reply = request_h(&mut conn, method, path, body, &[("X-Tenant", "eq")]);
    out.push(observe(label, reply));
}

/// Replays the whole endpoint surface against `addr` — happy paths,
/// every error class, a full anytime-session lifecycle, the
/// parser-level rejections, and a body nested past the JSON depth cap
/// — and returns the transcript lines.
fn drive_surface(addr: SocketAddr) -> Vec<String> {
    let mut out = Vec::new();
    macro_rules! one {
        ($label:expr, $method:expr, $path:expr, $body:expr) => {
            one_exchange(&mut out, addr, $label, $method, $path, $body)
        };
    }

    one!("healthz", "GET", "/healthz", None);
    one!("registry", "GET", "/registry", None);
    one!("solve-miss", "POST", "/solve", Some(SOLVE_BODY));
    one!("solve-hit", "POST", "/solve", Some(SOLVE_BODY));
    one!(
        "solve-unknown-solver",
        "POST",
        "/solve",
        Some(&SOLVE_BODY.replace("BSM-TSGreedy", "NoSuchSolver"))
    );
    one!(
        "solve-capability-gap",
        "POST",
        "/solve",
        Some(
            &SOLVE_BODY
                .replace("\"c\": 2", "\"c\": 4")
                .replace("BSM-TSGreedy", "SMSC")
        )
    );
    one!("solve-bad-json", "POST", "/solve", Some("{\"nope\": 1}"));
    one!(
        "batch",
        "POST",
        "/batch",
        Some(
            r#"{
                "dataset": {"kind": "rand_mc", "c": 2, "n": 60},
                "substrate": "coverage",
                "solvers": ["Greedy", "Saturate"],
                "ks": [2, 3],
                "taus": [0.8]
            }"#
        )
    );
    one!("instances", "GET", "/instances", None);
    one!("not-found", "GET", "/nope", None);
    one!("method-not-allowed", "POST", "/healthz", None);

    // Anytime lifecycle: open (2-round chunks on a k=6 greedy solve
    // cannot finish in one), resume to completion, then a stale resume.
    // Handles are deterministic (`anyt-<key>-<serial>`), so the resume
    // requests themselves are part of what the transcript pins.
    let open_body = r#"{
        "dataset": {"kind": "rand_mc", "c": 2, "n": 60, "seed_offset": 7},
        "substrate": "coverage",
        "solver": "Greedy",
        "params": {"k": 6, "tau": 0.5},
        "max_rounds": 2
    }"#;
    let mut conn = TcpStream::connect(addr).unwrap();
    let opened = request_h(&mut conn, "POST", "/solve/anytime", Some(open_body), &[]);
    let handle = opened
        .json()
        .get("session")
        .and_then(Value::as_str)
        .expect("k=6 in 2-round chunks parks a session")
        .to_string();
    out.push(observe("anytime-open", opened));
    for round in 0..8 {
        let resume = format!(r#"{{"session": "{handle}", "max_rounds": 2}}"#);
        let reply = request_h(&mut conn, "POST", "/solve/anytime", Some(&resume), &[]);
        let done = reply.json().get("done").and_then(Value::as_bool) == Some(true);
        out.push(observe(&format!("anytime-resume-{round}"), reply));
        if done {
            break;
        }
    }
    let stale = format!(r#"{{"session": "{handle}"}}"#);
    one!("anytime-stale", "POST", "/solve/anytime", Some(&stale));

    // Parser-level rejections, produced by the I/O layer rather than
    // the handler.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    out.push(observe("oversize-413", read_reply(&conn)));
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET\r\n\r\n").unwrap();
    out.push(observe("malformed-400", read_reply(&conn)));

    // 1 MB of `[` is under the body cap but nested far past the JSON
    // depth cap: a typed 400, after which the same daemon still
    // answers. An unbounded recursive parser overflows the worker's
    // stack here and aborts the process.
    let nested = "[".repeat(1_000_000);
    one!("solve-nested-400", "POST", "/solve", Some(&nested));
    one!("healthz-after-nested", "GET", "/healthz", None);

    out
}

/// The `exchange` label of a transcript line.
fn exchange_label(line: &str) -> String {
    let label = serde::json::parse(line).ok().and_then(|v| {
        v.get("exchange")
            .and_then(Value::as_str)
            .map(str::to_string)
    });
    label.unwrap_or_default()
}

#[test]
fn event_server_replays_the_golden_transcript() {
    let observed = drive_surface(spawn_event(quick_state(), EventConfig::default()));
    let observed: Vec<&str> = observed.iter().map(String::as_str).collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let Some(i) = (0..observed.len().max(golden.len())).find(|&i| observed.get(i) != golden.get(i))
    else {
        return;
    };
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("surface.jsonl");
    std::fs::write(&path, observed.join("\n") + "\n").expect("write observed transcript");
    let end = "<end of transcript>";
    let (want, got) = (
        golden.get(i).unwrap_or(&end),
        observed.get(i).unwrap_or(&end),
    );
    panic!(
        "exchange {i} ({}) diverged from tests/golden/surface.jsonl\n\
         golden:   {want}\nobserved: {got}\nobserved transcript written to {}",
        exchange_label(golden.get(i).or(observed.get(i)).unwrap_or(&end)),
        path.display()
    );
}
