//! End-to-end integration test: spawn the daemon on an ephemeral port,
//! round-trip the endpoints over a real TCP connection, and prove that
//! a repeated-recipe solve skips rematerialization (observable through
//! the `X-Instance-Cache` header and the `/instances` counters).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};

use serde::json::{parse_bytes, Value};

use fair_submod_service::http::read_response;
use fair_submod_service::{serve, InstanceConfig, ServiceState};

/// Starts the daemon on 127.0.0.1:0 in a background thread and returns
/// the bound address. The thread serves for the rest of the process.
fn spawn_daemon() -> SocketAddr {
    let state = Arc::new(ServiceState::new(4, InstanceConfig::default().quick()));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        serve("127.0.0.1:0", state, move |addr| {
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

/// One request on a (kept-alive) connection; the response is parsed by
/// the crate's own [`read_response`] so the wire format lives in one
/// place.
fn request(stream: &mut TcpStream, method: &str, path: &str, body: Option<&str>) -> Reply {
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, headers, body) = read_response(&mut reader).unwrap();
    Reply {
        status,
        headers,
        body,
    }
}

const SOLVE_BODY: &str = r#"{
    "dataset": {"kind": "rand_mc", "c": 2, "n": 60},
    "substrate": "coverage",
    "solver": "BSM-TSGreedy",
    "params": {"k": 3, "tau": 0.8}
}"#;

#[test]
fn daemon_round_trips_and_caches_instances() {
    let addr = spawn_daemon();
    let mut conn = TcpStream::connect(addr).unwrap();

    // /healthz
    let health = request(&mut conn, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let body = health.json();
    assert_eq!(body.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(body.get("solvers").and_then(Value::as_usize), Some(16));
    assert_eq!(body.get("instances").and_then(Value::as_usize), Some(0));

    // /registry lists every solver with capability flags, including
    // the session-layer `resumable` flag per solver.
    let registry = request(&mut conn, "GET", "/registry", None);
    assert_eq!(registry.status, 200);
    let solvers = registry.json();
    let solvers = solvers.get("solvers").and_then(Value::as_arr).unwrap();
    assert_eq!(solvers.len(), 16);
    let names: Vec<&str> = solvers
        .iter()
        .filter_map(|v| v.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"Greedy") && names.contains(&"BSM-Saturate"));
    let resumable_of = |name: &str| {
        solvers
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|v| v.get("capabilities"))
            .and_then(|c| c.get("resumable"))
            .and_then(Value::as_bool)
            .unwrap_or_else(|| panic!("{name} must expose a resumable flag"))
    };
    for native in ["Greedy", "Saturate", "BSM-Saturate", "BSM-TSGreedy"] {
        assert!(resumable_of(native), "{native} has a native session");
    }
    for one_shot in ["MWU", "Random", "SMSC", "BruteForce"] {
        assert!(!resumable_of(one_shot), "{one_shot} is one-shot");
    }
    // The pre-session flags are still present alongside it.
    assert!(solvers.iter().any(|v| {
        v.get("name").and_then(Value::as_str) == Some("SMSC")
            && v.get("capabilities")
                .and_then(|c| c.get("requires_two_groups"))
                .and_then(Value::as_bool)
                == Some(true)
    }));

    // First solve: instance cache miss, full report.
    let first = request(&mut conn, "POST", "/solve", Some(SOLVE_BODY));
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(first.header("x-instance-cache"), Some("miss"));
    let key = first.header("x-instance-key").unwrap().to_string();
    let report = first.json();
    assert_eq!(
        report.get("solver").and_then(Value::as_str),
        Some("BSM-TSGreedy")
    );
    let items = report.get("items").and_then(Value::as_arr).unwrap();
    assert!(!items.is_empty() && items.len() <= 3);
    let f = report.get("f").and_then(Value::as_f64).unwrap();
    assert!(f > 0.0 && f <= 1.0);

    // Second solve on the same recipe (different solver, different
    // params): must hit the instance cache — no rematerialization.
    let second_body = SOLVE_BODY
        .replace("BSM-TSGreedy", "Greedy")
        .replace("\"k\": 3", "\"k\": 5");
    let second = request(&mut conn, "POST", "/solve", Some(&second_body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-instance-cache"), Some("hit"));
    assert_eq!(second.header("x-instance-key"), Some(key.as_str()));
    assert_eq!(
        second.header("x-instance-cache-hits"),
        Some("1"),
        "cumulative store hits exposed in headers"
    );

    // /instances shows one registered, built instance with one hit.
    let instances = request(&mut conn, "GET", "/instances", None);
    assert_eq!(instances.status, 200);
    let body = instances.json();
    assert_eq!(body.get("len").and_then(Value::as_usize), Some(1));
    assert_eq!(body.get("hits").and_then(Value::as_usize), Some(1));
    assert_eq!(body.get("misses").and_then(Value::as_usize), Some(1));
    let rows = body.get("instances").and_then(Value::as_arr).unwrap();
    assert_eq!(rows[0].get("key").and_then(Value::as_str), Some(&key[..]));
    assert_eq!(rows[0].get("built").and_then(Value::as_bool), Some(true));

    // /batch reuses the same cached instance for a whole grid.
    let batch_body = r#"{
        "dataset": {"kind": "rand_mc", "c": 2, "n": 60},
        "substrate": "coverage",
        "solvers": ["Greedy", "Saturate"],
        "ks": [2, 3],
        "taus": [0.8]
    }"#;
    let batch = request(&mut conn, "POST", "/batch", Some(batch_body));
    assert_eq!(
        batch.status,
        200,
        "{}",
        String::from_utf8_lossy(&batch.body)
    );
    assert_eq!(batch.header("x-instance-cache"), Some("hit"));
    let body = batch.json();
    assert_eq!(body.get("ok_cells").and_then(Value::as_usize), Some(4));

    // A fresh connection still sees the warm cache (state is shared
    // across connections, not per-connection).
    let mut conn2 = TcpStream::connect(addr).unwrap();
    let third = request(&mut conn2, "POST", "/solve", Some(SOLVE_BODY));
    assert_eq!(third.status, 200);
    assert_eq!(third.header("x-instance-cache"), Some("hit"));

    // Bad requests come back as JSON errors, and the daemon survives.
    let bad = request(&mut conn2, "POST", "/solve", Some("{\"nope\": 1}"));
    assert_eq!(bad.status, 400);
    assert!(bad.json().get("error").is_some());
    let after = request(&mut conn2, "GET", "/healthz", None);
    assert_eq!(after.status, 200);
}

#[test]
fn anytime_sessions_chunk_across_requests_and_match_one_shot() {
    let addr = spawn_daemon();
    let mut conn = TcpStream::connect(addr).unwrap();

    // The one-shot answer the chunked session must reproduce.
    let one_shot_body = r#"{
        "dataset": {"kind": "rand_mc", "c": 2, "n": 60, "seed_offset": 7},
        "substrate": "coverage",
        "solver": "Greedy",
        "params": {"k": 6, "tau": 0.5}
    }"#;
    let one_shot = request(&mut conn, "POST", "/solve", Some(one_shot_body));
    assert_eq!(one_shot.status, 200);
    let one_shot = one_shot.json();

    // Open an anytime session, 2 rounds per chunk: k = 6 greedy rounds
    // cannot finish in the first chunk.
    let open_body = r#"{
        "dataset": {"kind": "rand_mc", "c": 2, "n": 60, "seed_offset": 7},
        "substrate": "coverage",
        "solver": "Greedy",
        "params": {"k": 6, "tau": 0.5},
        "max_rounds": 2
    }"#;
    let first = request(&mut conn, "POST", "/solve/anytime", Some(open_body));
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(first.header("x-instance-cache"), Some("hit"));
    let first = first.json();
    assert_eq!(first.get("done").and_then(Value::as_bool), Some(false));
    let handle = first
        .get("session")
        .and_then(Value::as_str)
        .expect("unfinished chunk returns a session handle")
        .to_string();
    // The handle is instance-store-friendly: it embeds the cache key.
    let progress = first.get("progress").and_then(Value::as_arr).unwrap();
    assert_eq!(progress.len(), 2, "one row per round");
    assert_eq!(progress[0].get("round").and_then(Value::as_usize), Some(1));
    assert!(progress[0]
        .get("group_sums")
        .and_then(Value::as_arr)
        .is_some());
    assert!(progress[0]
        .get("objective")
        .and_then(Value::as_f64)
        .is_some());
    // Objectives are monotone for greedy rounds.
    let objectives: Vec<f64> = progress
        .iter()
        .filter_map(|p| p.get("objective").and_then(Value::as_f64))
        .collect();
    assert!(objectives[1] >= objectives[0]);

    // Resume (even from another connection) until done.
    let mut conn2 = TcpStream::connect(addr).unwrap();
    let mut report = None;
    for _ in 0..8 {
        let resume_body = format!(r#"{{"session": "{handle}", "max_rounds": 2}}"#);
        let next = request(&mut conn2, "POST", "/solve/anytime", Some(&resume_body));
        assert_eq!(next.status, 200);
        let next = next.json();
        if next.get("done").and_then(Value::as_bool) == Some(true) {
            report = next.get("report").cloned();
            break;
        }
    }
    let report = report.expect("session finishes within the chunk budget");
    // The chunked result is the one-shot result (items, objective,
    // oracle calls; seconds differ by construction).
    assert_eq!(report.get("items"), one_shot.get("items"));
    assert_eq!(report.get("objective"), one_shot.get("objective"));
    assert_eq!(report.get("oracle_calls"), one_shot.get("oracle_calls"));
    assert_eq!(report.get("f"), one_shot.get("f"));

    // The handle died with the final report.
    let stale = request(
        &mut conn2,
        "POST",
        "/solve/anytime",
        Some(&format!(r#"{{"session": "{handle}"}}"#)),
    );
    assert_eq!(stale.status, 404);

    // Non-resumable solvers complete in one chunk by construction.
    let one_chunk = request(
        &mut conn,
        "POST",
        "/solve/anytime",
        Some(&one_shot_body.replace("Greedy", "MWU")),
    );
    assert_eq!(one_chunk.status, 200);
    let one_chunk = one_chunk.json();
    assert_eq!(one_chunk.get("done").and_then(Value::as_bool), Some(true));
    assert!(one_chunk.get("report").is_some());
    assert!(one_chunk.get("session").is_none());
}

/// A report body with the wall-clock field removed — everything else
/// must be byte-identical between the sharded and centralized paths.
fn sans_seconds(body: &[u8]) -> String {
    let Value::Obj(pairs) = parse_bytes(body).unwrap_or_else(|e| panic!("non-JSON body: {e}"))
    else {
        panic!("report bodies are objects")
    };
    Value::Obj(pairs.into_iter().filter(|(k, _)| k != "seconds").collect()).to_compact_string()
}

/// A GreeDi recipe over the same dataset, centralized (`shards: None`)
/// or served through the sharded tier (`shards: Some(p)`). The
/// in-params shard count is fixed so the centralized notes match the
/// sharded run's.
fn greedi_body(shards: Option<usize>) -> String {
    let top = shards.map_or(String::new(), |p| format!("\"shards\": {p},"));
    format!(
        r#"{{
            "dataset": {{"kind": "rand_mc", "c": 2, "n": 48, "seed_offset": 11}},
            "substrate": "coverage",
            "solver": "GreeDi",
            {top}
            "params": {{"k": 4, "tau": 0.8, "shards": 3}}
        }}"#
    )
}

#[test]
fn sharded_solves_round_trip_over_http() {
    let addr = spawn_daemon();
    let mut conn = TcpStream::connect(addr).unwrap();

    // The centralized GreeDi reference answer.
    let central = request(&mut conn, "POST", "/solve", Some(&greedi_body(None)));
    assert_eq!(
        central.status,
        200,
        "{}",
        String::from_utf8_lossy(&central.body)
    );

    // Sharded solve of the same recipe: byte-identical modulo seconds.
    // The central entry is warm but the three shard entries are not, so
    // the combined cache status is a miss.
    let sharded = request(&mut conn, "POST", "/solve", Some(&greedi_body(Some(3))));
    assert_eq!(
        sharded.status,
        200,
        "{}",
        String::from_utf8_lossy(&sharded.body)
    );
    assert_eq!(sharded.header("x-instance-cache"), Some("miss"));
    assert_eq!(sans_seconds(&sharded.body), sans_seconds(&central.body));

    // Repeating the recipe reuses every per-shard cache entry — the
    // combined status only reports a hit when central AND all shards
    // skip rematerialization.
    let again = request(&mut conn, "POST", "/solve", Some(&greedi_body(Some(3))));
    assert_eq!(again.status, 200);
    assert_eq!(again.header("x-instance-cache"), Some("hit"));
    assert_eq!(sans_seconds(&again.body), sans_seconds(&central.body));

    // /instances shows the central entry plus the three shard entries.
    let instances = request(&mut conn, "GET", "/instances", None);
    assert_eq!(instances.status, 200);
    assert_eq!(
        instances.json().get("len").and_then(Value::as_usize),
        Some(4)
    );

    // Malformed shard counts are typed 4xx JSON, and the daemon
    // survives them.
    for bad_body in [
        greedi_body(Some(0)),
        greedi_body(Some(65)),
        greedi_body(Some(49)), // more shards than items
        greedi_body(Some(2)).replace("GreeDi", "Greedy"), // non-mergeable solver
    ] {
        let bad = request(&mut conn, "POST", "/solve", Some(&bad_body));
        assert_eq!(bad.status, 400, "{bad_body}");
        assert_eq!(
            bad.json().get("kind").and_then(Value::as_str),
            Some("invalid_params"),
            "{bad_body}"
        );
    }
    let alive = request(&mut conn, "GET", "/healthz", None);
    assert_eq!(alive.status, 200);

    // Sharded anytime: one shard per chunked round, resumable across
    // connections, and the final report equals the one-shot sharded
    // solve (which equals the centralized one, above).
    let open_body = greedi_body(Some(3)).replacen('{', "{\"max_rounds\": 2,", 1);
    let first = request(&mut conn, "POST", "/solve/anytime", Some(&open_body));
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    let first = first.json();
    assert_eq!(first.get("done").and_then(Value::as_bool), Some(false));
    let handle = first
        .get("session")
        .and_then(Value::as_str)
        .expect("unfinished sharded chunk returns a session handle")
        .to_string();

    let mut conn2 = TcpStream::connect(addr).unwrap();
    let mut report = None;
    for _ in 0..8 {
        let resume_body = format!(r#"{{"session": "{handle}", "max_rounds": 2}}"#);
        let next = request(&mut conn2, "POST", "/solve/anytime", Some(&resume_body));
        assert_eq!(next.status, 200);
        let next = next.json();
        if next.get("done").and_then(Value::as_bool) == Some(true) {
            report = next.get("report").cloned();
            break;
        }
    }
    let report = report.expect("sharded session finishes within the chunk budget");
    let one_shot = parse_bytes(&central.body).unwrap();
    assert_eq!(report.get("items"), one_shot.get("items"));
    assert_eq!(report.get("f"), one_shot.get("f"));
    assert_eq!(report.get("oracle_calls"), one_shot.get("oracle_calls"));
}

fn bsm_saturate_body(tau: f64) -> String {
    format!(
        r#"{{
            "dataset": {{"kind": "rand_mc", "c": 2, "n": 60, "seed_offset": 7}},
            "substrate": "coverage",
            "solver": "BSM-Saturate",
            "params": {{"k": 4, "tau": {tau}}}
        }}"#
    )
}

fn header_names(reply: &Reply) -> Vec<&str> {
    reply
        .headers
        .iter()
        .map(|(name, _)| name.as_str())
        .collect()
}

/// Stage reuse is invisible on the wire: a τ = 0.8 solve served after a
/// τ = 0.2 solve filled the instance's stage memo returns the same body
/// (apart from `seconds`) and the same header names as the same solve
/// on a fresh daemon — no memo-hit note, field or header.
#[test]
fn memo_fed_solves_are_byte_identical_to_fresh_ones() {
    let warm_addr = spawn_daemon();
    let mut warm = TcpStream::connect(warm_addr).unwrap();
    let first = request(&mut warm, "POST", "/solve", Some(&bsm_saturate_body(0.2)));
    assert_eq!(first.status, 200);
    let second = request(&mut warm, "POST", "/solve", Some(&bsm_saturate_body(0.8)));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Instance-Cache"), Some("hit"));

    let fresh_addr = spawn_daemon();
    let mut fresh = TcpStream::connect(fresh_addr).unwrap();
    let alone = request(&mut fresh, "POST", "/solve", Some(&bsm_saturate_body(0.8)));
    assert_eq!(alone.status, 200);
    assert_eq!(alone.header("X-Instance-Cache"), Some("miss"));

    assert_eq!(sans_seconds(&second.body), sans_seconds(&alone.body));
    assert_eq!(header_names(&second), header_names(&alone));
    assert_ne!(
        sans_seconds(&first.body),
        sans_seconds(&second.body),
        "the two τ must give different reports"
    );
}
