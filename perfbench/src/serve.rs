//! The online workload: the release daemon under an open-loop request
//! stream with seeded Poisson arrivals, climbed through a fixed rate
//! ladder, from one client process with two threads (a scheduled sender
//! and a readiness-driven receiver) over two keep-alive pipelined
//! connections.
//!
//! Every request is timed from the instant it was *due*, so a stall in
//! the daemon is charged to every request scheduled behind it; the
//! sender's own lateness and the backlog at the end of each rung are
//! reported so a rung the client could not drive honestly is marked
//! invalid rather than counted.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polling::{Interest, Poller};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{parse_bytes, Value};

use fair_submod_service::http::{Request, Response};
use fair_submod_service::{EventConfig, EventServer, InstanceConfig, ServiceState};

use crate::stats::{median, summarize, Summary};
use crate::sweep::Knobs;
use crate::trace::{self, tracer};
use crate::{Metrics, Outcome};

/// The rate ladder and the limits a rung must meet, frozen in
/// `BENCHMARK.json`.
#[derive(Clone, Debug, Default)]
pub struct LoadPlan {
    /// Offered rates in requests/second, ascending; the first is the
    /// nominal rung the latency metrics are read at.
    pub ladder: Vec<f64>,
    /// A rung passes only if its warm-solve tail latency stays at or
    /// under this limit.
    pub p99_limit_ms: f64,
    /// A rung whose sender ran later than this at p99 is invalid.
    pub max_lag_ms: f64,
    /// A rung with more requests outstanding than this at its end (or
    /// at any point while sending) has a growing backlog.
    pub max_backlog: usize,
}

/// Daemon instance-store capacity: the five resident recipes, the four
/// shard entries of the sharded recipe, and three slots that the fresh
/// recipes churn through (so every fresh build evicts another fresh
/// build, not a resident).
const STORE_CAPACITY: usize = 12;
/// Daemon spawns whose set-up is timed; the last one serves the load.
const SETUP_REPEATS: usize = 5;
/// Keep-alive connections: one for the solve classes, one for reads.
const CONNECTIONS: usize = 2;
/// How long a rung may take to drain after its last scheduled send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Share of the measured window spent at the nominal rung.
const NOMINAL_SHARE: f64 = 0.7;
/// Windows the nominal rung's latency figures are summarized over.
const NOMINAL_WINDOWS: usize = 3;
/// Period of the liveness prober that runs beside the mix: enough
/// `/healthz` samples for a tail at the nominal rung without the probes'
/// own wake-ups crowding the solves.
const PROBE_PERIOD_S: f64 = 0.05;

/// Request classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Warm `/solve` on a resident recipe.
    Solve,
    /// `/solve` with `"shards": 4` (GreeDi).
    Sharded,
    /// `/solve/anytime` opening request.
    AnytimeOpen,
    /// `/solve/anytime` resume of a parked session.
    AnytimeResume,
    /// `/solve` on a fresh recipe: store miss, build, LRU eviction.
    Build,
    /// `GET /healthz` drawn from the mix.
    Healthz,
    /// `GET /healthz` from the fixed-period liveness prober.
    Probe,
    /// `GET /registry`.
    Registry,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Solve => "solve",
            Class::Sharded => "sharded",
            Class::AnytimeOpen => "anytime_open",
            Class::AnytimeResume => "anytime_resume",
            Class::Build => "build",
            Class::Healthz => "healthz",
            Class::Probe => "probe",
            Class::Registry => "registry",
        }
    }
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// Seconds after the rung starts that the request is due.
    pub at: f64,
    /// Its class.
    pub class: Class,
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Request path.
    pub path: &'static str,
    /// JSON body (empty for `GET`).
    pub body: String,
    /// The `/solve` body whose answer this request's answer must equal
    /// (`None` for reads).
    pub check: Option<String>,
}

/// The resident recipes: `(dataset, substrate, groups)`.
fn residents(seed: u64) -> Vec<(String, &'static str, usize)> {
    let offset = seed % 1_000_000;
    vec![
        (
            r#"{"kind":"facebook_like","c":2}"#.into(),
            r#""coverage""#,
            2,
        ),
        (
            r#"{"kind":"facebook_like","c":2}"#.into(),
            r#"{"influence_p":0.01}"#,
            2,
        ),
        (
            format!(r#"{{"kind":"rand_mc","c":2,"n":100,"seed_offset":{offset}}}"#),
            r#"{"influence_p":0.1}"#,
            2,
        ),
        (
            format!(r#"{{"kind":"rand_fl","c":2,"seed_offset":{offset}}}"#),
            r#""facility""#,
            2,
        ),
        (
            r#"{"kind":"adult_like","variant":"small_race"}"#.into(),
            r#""facility""#,
            5,
        ),
    ]
}

fn solve_body(
    dataset: &str,
    substrate: &str,
    solver: &str,
    k: usize,
    tau: f64,
    extra: &str,
) -> String {
    format!(
        r#"{{"dataset":{dataset},"substrate":{substrate},"solver":"{solver}",{extra}"params":{{"k":{k},"tau":{tau}}}}}"#
    )
}

const PAPER_SOLVERS: &[&str] = &["Greedy", "Saturate", "SMSC", "BSM-TSGreedy", "BSM-Saturate"];
const KS: &[usize] = &[5, 10, 20];
const TAUS: &[f64] = &[0.2, 0.5, 0.8];

/// The set-up requests: one warm-up solve per resident recipe plus the
/// sharded recipe's shard builds.
fn setup_requests(seed: u64) -> Vec<Planned> {
    let mut out: Vec<Planned> = residents(seed)
        .iter()
        .map(|(d, s, _)| post(Class::Solve, solve_body(d, s, "Greedy", 5, 0.8, "")))
        .collect();
    let (d, s, _) = &residents(seed)[0];
    out.push(post(
        Class::Sharded,
        solve_body(d, s, "GreeDi", 5, 0.8, r#""shards":4,"#),
    ));
    out
}

fn post(class: Class, body: String) -> Planned {
    let path = match class {
        Class::AnytimeOpen | Class::AnytimeResume => "/solve/anytime",
        _ => "/solve",
    };
    Planned {
        at: 0.0,
        class,
        method: "POST",
        path,
        check: Some(body.clone()),
        body,
    }
}

fn get(class: Class, path: &'static str) -> Planned {
    Planned {
        at: 0.0,
        class,
        method: "GET",
        path,
        body: String::new(),
        check: None,
    }
}

/// Request classes per block of 100 arrivals: 60 warm solves, 5
/// sharded, 10 anytime openings, 3 fresh-recipe builds, 17 `/healthz`,
/// 5 `/registry`.
const MIX: &[(Class, usize)] = &[
    (Class::Solve, 60),
    (Class::Sharded, 5),
    (Class::AnytimeOpen, 10),
    (Class::Build, 3),
    (Class::Healthz, 17),
    (Class::Registry, 5),
];

/// Every distinct warm-solve request: resident × solver × `k` × `τ`
/// (SMSC only on the two-group recipes).
fn solve_combos(seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for (d, s, groups) in residents(seed) {
        for solver in PAPER_SOLVERS
            .iter()
            .filter(|&&name| name != "SMSC" || groups == 2)
        {
            for &k in KS {
                for &tau in TAUS {
                    out.push(solve_body(&d, s, solver, k, tau, ""));
                }
            }
        }
    }
    out
}

/// Every distinct anytime opening: `(opening body, matching /solve body)`.
fn anytime_combos(seed: u64) -> Vec<(String, String)> {
    let residents = residents(seed);
    let mut out = Vec::new();
    for pick in [0, 1, 3] {
        let (d, s, _) = &residents[pick];
        for solver in ["Greedy", "BSM-TSGreedy"] {
            for k in [10, 20] {
                for &tau in TAUS {
                    let extra = format!(r#""max_rounds":{},"#, k / 2);
                    out.push((
                        solve_body(d, s, solver, k, tau, &extra),
                        solve_body(d, s, solver, k, tau, ""),
                    ));
                }
            }
        }
    }
    out
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The seeded request stream of one rung: `round(rate · duration)`
/// arrivals of a Poisson process conditioned on that count (sorted
/// uniform instants). Classes follow [`MIX`] exactly within every block
/// of 100 arrivals, and each class cycles through its distinct requests
/// in a seeded order, so every seed offers the same work in a different
/// order and timing. `fresh_base` numbers the fresh recipes so no two
/// builds of one run share a recipe.
pub fn schedule(seed: u64, rung: usize, rate: f64, duration: f64, fresh_base: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rung as u64);
    let count = (rate * duration).round() as usize;
    let mut instants: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * duration).collect();
    instants.sort_by(f64::total_cmp);
    let mut classes: Vec<Class> = Vec::with_capacity(count + 100);
    while classes.len() < count {
        let mut block: Vec<Class> = MIX
            .iter()
            .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
            .collect();
        shuffle(&mut rng, &mut block);
        classes.extend(block);
    }
    let mut solves = solve_combos(seed);
    shuffle(&mut rng, &mut solves);
    let mut anytime = anytime_combos(seed);
    shuffle(&mut rng, &mut anytime);
    let (sharded_d, sharded_s, _) = &residents(seed)[0];
    let mut sharded: Vec<String> = KS
        .iter()
        .flat_map(|&k| TAUS.iter().map(move |&tau| (k, tau)))
        .map(|(k, tau)| solve_body(sharded_d, sharded_s, "GreeDi", k, tau, r#""shards":4,"#))
        .collect();
    shuffle(&mut rng, &mut sharded);
    let mut seen: BTreeMap<Class, usize> = BTreeMap::new();
    let mut fresh = fresh_base;
    let mut planned: Vec<Planned> = instants
        .into_iter()
        .zip(classes)
        .map(|(at, class)| {
            let n = seen.entry(class).or_insert(0);
            *n += 1;
            let i = *n - 1;
            let mut planned = match class {
                Class::Solve => post(class, solves[i % solves.len()].clone()),
                Class::Sharded => post(class, sharded[i % sharded.len()].clone()),
                Class::AnytimeOpen => {
                    let (open, check) = &anytime[i % anytime.len()];
                    let mut planned = post(class, open.clone());
                    planned.check = Some(check.clone());
                    planned
                }
                Class::Build => {
                    fresh += 1;
                    let d = format!(r#"{{"kind":"rand_mc","c":2,"n":500,"seed_offset":{fresh}}}"#);
                    post(class, solve_body(&d, r#""coverage""#, "Greedy", 5, 0.8, ""))
                }
                Class::Registry => get(class, "/registry"),
                Class::Healthz | Class::Probe | Class::AnytimeResume => {
                    get(Class::Healthz, "/healthz")
                }
            };
            planned.at = at;
            planned
        })
        .collect();
    let probes = (duration / PROBE_PERIOD_S).floor() as usize;
    planned.extend((0..probes).map(|j| Planned {
        at: (j as f64 + 0.5) * PROBE_PERIOD_S,
        ..get(Class::Probe, "/healthz")
    }));
    planned.sort_by(|a, b| a.at.total_cmp(&b.at));
    planned
}

/// Reads go to their own connection, as a liveness prober's would, so
/// their latency is the daemon's queueing, not head-of-line blocking
/// behind pipelined solves.
fn connection_for(class: Class) -> usize {
    match class {
        Class::Healthz | Class::Probe | Class::Registry => 1,
        _ => 0,
    }
}

/// One answered (or failed) request.
#[derive(Clone, Debug)]
struct Done {
    seq: u64,
    class: Class,
    /// Seconds after the rung started that the request was due.
    due_s: f64,
    latency_ms: f64,
    status: u16,
    body: Vec<u8>,
    check: Option<String>,
}

/// A request written to a connection, waiting for its response.
struct Pending {
    seq: u64,
    class: Class,
    due: Instant,
    check: Option<String>,
}

/// A resume the receiver asks the sender to send.
struct Resume {
    conn: usize,
    body: String,
    check: Option<String>,
    due: Instant,
}

/// Shared state of one rung's sender and receiver.
struct Wire {
    pending: Vec<Mutex<VecDeque<Pending>>>,
    outstanding: AtomicUsize,
    sender_done: AtomicBool,
    /// Set when the receiver gives up, so the sender stops too.
    receiver_failed: AtomicBool,
    done: Mutex<Vec<Done>>,
    next_seq: AtomicU64,
}

/// What one rung measured.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    duration: f64,
    wall_s: f64,
    sent: usize,
    lag_ms: Vec<f64>,
    backlog_at_end: usize,
    aborted: bool,
    drained: bool,
    done: Vec<Done>,
}

impl Rung {
    fn latencies(&self, class: Class) -> Vec<f64> {
        self.latencies_of(&[class])
    }

    fn latencies_of(&self, classes: &[Class]) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| classes.contains(&d.class) && d.status == 200)
            .map(|d| d.latency_ms)
            .collect()
    }

    fn failures(&self) -> usize {
        let lost = self.sent.saturating_sub(self.done.len());
        lost + self.done.iter().filter(|d| d.status != 200).count()
    }

    /// Per-window summaries of the classes' latencies, and the medians
    /// of the windows' p50s and tails: a burst confined to one window
    /// cannot move the result. A rung cut short by its backlog leaves
    /// windows empty; it is summarized whole instead.
    fn windowed(&self, classes: &[Class]) -> Result<(f64, f64, Summary), String> {
        let answered = || {
            self.done
                .iter()
                .filter(|d| classes.contains(&d.class) && d.status == 200)
        };
        let pooled = summarize(&answered().map(|d| d.latency_ms).collect::<Vec<_>>())
            .ok_or_else(|| format!("no answered {classes:?} requests"))?;
        let width = self.duration / NOMINAL_WINDOWS as f64;
        let mut windows = vec![Vec::new(); NOMINAL_WINDOWS];
        for d in answered() {
            let w = ((d.due_s / width) as usize).min(NOMINAL_WINDOWS - 1);
            windows[w].push(d.latency_ms);
        }
        let Some(sums) = windows
            .iter()
            .map(|w| summarize(w))
            .collect::<Option<Vec<_>>>()
        else {
            return Ok((pooled.p50, pooled.tail, pooled));
        };
        let p50 = median(&sums.iter().map(|s| s.p50).collect::<Vec<_>>());
        let tail = median(&sums.iter().map(|s| s.tail).collect::<Vec<_>>());
        Ok((p50, tail, sums[0]))
    }

    fn ok(&self) -> usize {
        self.done.iter().filter(|d| d.status == 200).count()
    }

    /// Answered requests of the mix (no prober reads, no resumes).
    fn ok_offered(&self) -> usize {
        self.done
            .iter()
            .filter(|d| d.status == 200 && !matches!(d.class, Class::Probe | Class::AnytimeResume))
            .count()
    }

    fn lag(&self) -> Summary {
        summarize(&self.lag_ms).unwrap_or(Summary {
            samples: 0,
            p50: 0.0,
            tail_percentile: 0.0,
            tail: 0.0,
        })
    }

    /// Valid: the generator kept to its schedule.
    fn valid(&self, plan: &LoadPlan) -> bool {
        self.lag().tail <= plan.max_lag_ms
    }

    /// Passes: valid, no failures, no growing backlog, and the warm-solve
    /// tail within the limit.
    fn passes(&self, plan: &LoadPlan) -> bool {
        let tail = summarize(&self.latencies(Class::Solve)).map_or(f64::INFINITY, |s| s.tail);
        self.valid(plan)
            && !self.aborted
            && self.drained
            && self.failures() == 0
            && self.backlog_at_end <= plan.max_backlog
            && tail <= plan.p99_limit_ms
    }

    /// Answered mix requests per second over the rung, counted until
    /// the last response — comparable with the offered rate.
    fn achieved_rps(&self) -> f64 {
        self.ok_offered() as f64 / self.wall_s.max(self.duration)
    }
}

fn write_all(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    let mut at = 0;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while at < bytes.len() {
        match stream.write(&bytes[at..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => at += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn encode(method: &str, path: &str, seq: u64, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nX-Bench-Seq: {seq}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Parses one complete response off the front of `buf`:
/// `(status, body, bytes consumed)`.
fn take_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| format!("response head: {e}"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad length {value:?}"))?;
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, buf[head_end + 4..total].to_vec(), total)))
}

/// The session handle of an unfinished anytime response.
fn session_handle(body: &[u8]) -> Option<String> {
    let value = parse_bytes(body).ok()?;
    if value.get("done").and_then(Value::as_bool) == Some(true) {
        return None;
    }
    value
        .get("session")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// The receiver thread: reads both connections as they become readable,
/// matches responses to pending requests in order, and turns unfinished
/// anytime openings into resume requests for the sender.
fn receive(
    wire: &Wire,
    start: Instant,
    mut streams: Vec<TcpStream>,
    resumes: mpsc::Sender<Resume>,
) -> Result<(), String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (token, stream) in streams.iter().enumerate() {
        poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .map_err(|e| format!("register: {e}"))?;
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if wire.sender_done.load(Ordering::SeqCst) && wire.outstanding.load(Ordering::SeqCst) == 0 {
            return Ok(());
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| format!("poll: {e}"))?;
        for event in &events {
            let conn = event.token;
            loop {
                match streams[conn].read(&mut chunk) {
                    Ok(0) => return Err(format!("connection {conn} closed by the daemon")),
                    Ok(n) => bufs[conn].extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            while let Some((status, body, used)) = take_response(&bufs[conn])? {
                bufs[conn].drain(..used);
                let now = Instant::now();
                let pending = wire.pending[conn]
                    .lock()
                    .expect("pending queue poisoned")
                    .pop_front()
                    .ok_or("a response arrived with no request pending")?;
                if pending.class == Class::AnytimeOpen && status == 200 {
                    if let Some(handle) = session_handle(&body) {
                        // Count the resume before this request completes,
                        // so the rung cannot look drained in between.
                        wire.outstanding.fetch_add(1, Ordering::SeqCst);
                        let resume = Resume {
                            conn,
                            body: format!(r#"{{"session":"{handle}","max_rounds":100000}}"#),
                            check: pending.check.clone(),
                            due: now,
                        };
                        resumes.send(resume).map_err(|_| "sender hung up")?;
                    }
                }
                let keep_body = pending.check.is_some() || pending.class == Class::Registry;
                wire.done.lock().expect("done list poisoned").push(Done {
                    seq: pending.seq,
                    class: pending.class,
                    due_s: pending.due.saturating_duration_since(start).as_secs_f64(),
                    latency_ms: (now - pending.due).as_secs_f64() * 1e3,
                    status,
                    body: if keep_body { body } else { Vec::new() },
                    check: pending.check,
                });
                wire.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Drives one rung: sends `plan` on schedule (and resumes as they are
/// asked for), then drains.
fn run_rung(
    addr: SocketAddr,
    requests: &[Planned],
    rate: f64,
    duration: f64,
    plan: &LoadPlan,
) -> Result<Rung, String> {
    let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let wire = Wire {
        pending: (0..CONNECTIONS)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect(),
        outstanding: AtomicUsize::new(0),
        sender_done: AtomicBool::new(false),
        receiver_failed: AtomicBool::new(false),
        done: Mutex::new(Vec::new()),
        next_seq: AtomicU64::new(0),
    };
    let (resume_tx, resume_rx) = mpsc::channel::<Resume>();
    let mut rung = Rung {
        rate,
        duration,
        ..Rung::default()
    };
    let start = Instant::now();
    // Resumes were counted as outstanding by the receiver already.
    let send = |streams: &mut Vec<TcpStream>,
                conn: usize,
                class: Class,
                method: &str,
                path: &str,
                body: &str,
                check: Option<String>,
                due: Instant|
     -> Result<(), String> {
        let seq = wire.next_seq.fetch_add(1, Ordering::SeqCst);
        if class != Class::AnytimeResume {
            wire.outstanding.fetch_add(1, Ordering::SeqCst);
        }
        wire.pending[conn]
            .lock()
            .expect("pending queue poisoned")
            .push_back(Pending {
                seq,
                class,
                due,
                check,
            });
        write_all(&mut streams[conn], &encode(method, path, seq, body))
            .map_err(|e| format!("write: {e}"))
    };
    let result = std::thread::scope(|scope| -> Result<(), String> {
        let receiver = scope.spawn(|| {
            let received = receive(&wire, start, readers, resume_tx);
            if received.is_err() {
                wire.receiver_failed.store(true, Ordering::SeqCst);
            }
            received
        });
        let mut sent_error = None;
        let mut resumes_sent = 0usize;
        let mut send_resume = |streams: &mut Vec<TcpStream>, r: Resume| {
            resumes_sent += 1;
            send(
                streams,
                r.conn,
                Class::AnytimeResume,
                "POST",
                "/solve/anytime",
                &r.body,
                r.check,
                r.due,
            )
        };
        for req in requests {
            let due = start + Duration::from_secs_f64(req.at);
            // Serve resumes while waiting for the next due instant.
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                match resume_rx.recv_timeout(due - now) {
                    Ok(r) => {
                        if let Err(e) = send_resume(&mut streams, r) {
                            sent_error = Some(e);
                        }
                    }
                    Err(_) => break,
                }
            }
            if sent_error.is_some() || wire.receiver_failed.load(Ordering::SeqCst) {
                break;
            }
            if wire.outstanding.load(Ordering::SeqCst) > plan.max_backlog {
                rung.aborted = true;
                break;
            }
            let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            rung.lag_ms.push(lag);
            if let Err(e) = send(
                &mut streams,
                connection_for(req.class),
                req.class,
                req.method,
                req.path,
                &req.body,
                req.check.clone(),
                due,
            ) {
                sent_error = Some(e);
                break;
            }
            rung.sent += 1;
        }
        let end = start + Duration::from_secs_f64(duration);
        if let Some(wait) = end.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        rung.backlog_at_end = wire.outstanding.load(Ordering::SeqCst);
        // Drain: keep sending resumes until nothing is outstanding.
        let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
        rung.drained = loop {
            if wire.outstanding.load(Ordering::SeqCst) == 0 {
                break true;
            }
            if Instant::now() > drain_deadline
                || sent_error.is_some()
                || wire.receiver_failed.load(Ordering::SeqCst)
            {
                break false;
            }
            if let Ok(r) = resume_rx.recv_timeout(Duration::from_millis(5)) {
                if let Err(e) = send_resume(&mut streams, r) {
                    sent_error = Some(e);
                }
            }
        };
        rung.sent += resumes_sent;
        wire.sender_done.store(true, Ordering::SeqCst);
        if !rung.drained {
            // Wake the receiver out of its wait on a stuck daemon.
            wire.outstanding.store(0, Ordering::SeqCst);
        }
        let received = receiver.join().map_err(|_| "receiver panicked")?;
        match (sent_error, received) {
            (Some(e), _) | (None, Err(e)) => Err(e),
            (None, Ok(())) => Ok(()),
        }
    });
    rung.wall_s = start.elapsed().as_secs_f64();
    rung.done = wire.done.into_inner().expect("done list poisoned");
    rung.done.sort_by_key(|d| d.seq);
    if let Err(e) = result {
        eprintln!("perfbench: rung at {rate} rps: {e}");
        rung.drained = false;
    }
    Ok(rung)
}

/// One blocking request on a fresh connection (set-up and counters).
fn blocking(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(&encode(method, path, u64::MAX, body))
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (status, _, body) =
        fair_submod_service::http::read_response(&mut reader).map_err(|e| format!("read: {e}"))?;
    Ok((status, body))
}

/// Builds every resident recipe (and the sharded recipe's shards)
/// through the daemon, one request at a time.
fn warm_up(addr: SocketAddr, seed: u64) -> Result<(), String> {
    for req in setup_requests(seed) {
        let (status, body) = blocking(addr, req.method, req.path, &req.body)?;
        if status != 200 {
            return Err(format!(
                "set-up request {} answered {status}: {}",
                req.body,
                String::from_utf8_lossy(&body)
            ));
        }
    }
    Ok(())
}

/// A spawned daemon, killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(path: &str, knobs: Knobs) -> Result<Daemon, String> {
    let mut child = Command::new(path)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--capacity",
            &STORE_CAPACITY.to_string(),
            "--rr-sets",
            &knobs.rr_sets.to_string(),
            "--mc-runs",
            &knobs.mc_runs.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {path}: {e}"))?;
    let stdout = child.stdout.take().ok_or("daemon stdout")?;
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("daemon did not report its address (got {line:?})"))
        }
    }
}

/// The `/solve` answer with the wall-clock `seconds` removed — the only
/// field two solves of one request may differ in.
fn without_seconds(value: &Value) -> String {
    match value {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "seconds")
                .cloned()
                .collect(),
        )
        .to_compact_string(),
        other => other.to_compact_string(),
    }
}

/// Fields a finished anytime report shares with the one-shot `/solve`.
fn report_identity(report: &Value) -> String {
    [
        "items",
        "f",
        "g",
        "objective",
        "group_utilities",
        "oracle_calls",
    ]
    .iter()
    .map(|k| {
        report
            .get(k)
            .map_or("null".into(), Value::to_compact_string)
    })
    .collect::<Vec<_>>()
    .join("|")
}

/// Compares every distinct answer with an in-process solve of the same
/// request; returns one line per wrong answer.
fn verify(done: &[&Done], knobs: Knobs) -> Vec<String> {
    let state = ServiceState::new(
        4096,
        InstanceConfig {
            rr_sets: knobs.rr_sets,
            mc_runs: knobs.mc_runs,
            ..InstanceConfig::default()
        },
    );
    let mut expected: BTreeMap<String, Option<Value>> = BTreeMap::new();
    let mut problems = Vec::new();
    for d in done {
        if d.status != 200 {
            continue;
        }
        if d.class == Class::Registry {
            let count = parse_bytes(&d.body)
                .ok()
                .and_then(|v| v.get("count").and_then(Value::as_usize));
            if count != Some(state.registry.len()) {
                problems.push(format!("/registry listed {count:?} solvers"));
            }
            continue;
        }
        let Some(check) = &d.check else { continue };
        if d.class == Class::AnytimeOpen && session_handle(&d.body).is_some() {
            continue; // Checked on its resume.
        }
        let want = expected.entry(check.clone()).or_insert_with(|| {
            let response = state.handle(&Request {
                method: "POST".into(),
                path: "/solve".into(),
                query: None,
                headers: Vec::new(),
                body: check.clone().into_bytes(),
            });
            (response.status == 200)
                .then(|| parse_bytes(&response.body).ok())
                .flatten()
        });
        let got = parse_bytes(&d.body).ok();
        let same = match (d.class, want, &got) {
            (_, None, _) | (_, _, None) => false,
            (Class::AnytimeOpen | Class::AnytimeResume, Some(w), Some(g)) => g
                .get("report")
                .is_some_and(|r| report_identity(r) == report_identity(w)),
            (_, Some(w), Some(g)) => without_seconds(w) == without_seconds(g),
        };
        if !same {
            problems.push(format!(
                "{} answer differs from an in-process solve of {check}",
                d.class.label()
            ));
        }
    }
    problems
}

/// The rungs' request streams, numbered so fresh recipes never repeat.
fn plans(
    seed: u64,
    seconds: f64,
    plan: &LoadPlan,
    only_nominal: bool,
) -> Vec<(f64, f64, Vec<Planned>)> {
    let rungs = if only_nominal { 1 } else { plan.ladder.len() };
    let rest = (1.0 - NOMINAL_SHARE) * seconds / (plan.ladder.len() - 1).max(1) as f64;
    let mut fresh = 0u64;
    (0..rungs)
        .map(|i| {
            let duration = if i == 0 {
                NOMINAL_SHARE * seconds
            } else {
                rest
            };
            let requests = schedule(seed, i, plan.ladder[i], duration, fresh);
            fresh += requests.iter().filter(|r| r.class == Class::Build).count() as u64;
            (plan.ladder[i], duration, requests)
        })
        .collect()
}

/// Climbs the ladder; stops after the first rung that does not pass.
fn climb(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    plan: &LoadPlan,
    only_nominal: bool,
) -> Result<Vec<Rung>, String> {
    let mut rungs = Vec::new();
    for (rate, duration, requests) in plans(seed, seconds, plan, only_nominal) {
        let rung = run_rung(addr, &requests, rate, duration, plan)?;
        let passed = rung.passes(plan);
        eprintln!(
            "perfbench: rung {rate} rps: sent {} ok {} lag p99 {:.2} ms backlog {} solve tail {:.1} ms -> {}",
            rung.sent,
            rung.ok(),
            rung.lag().tail,
            rung.backlog_at_end,
            summarize(&rung.latencies(Class::Solve)).map_or(f64::NAN, |s| s.tail),
            if passed { "pass" } else { "stop" }
        );
        rungs.push(rung);
        if !passed {
            break;
        }
    }
    Ok(rungs)
}

/// Runs the online workload.
pub fn run(
    daemon: &str,
    seed: u64,
    seconds: f64,
    trace_run: bool,
    knobs: Knobs,
    plan: &LoadPlan,
) -> Result<Outcome, String> {
    if trace_run {
        return traced(daemon, seed, seconds, knobs, plan);
    }
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon_proc = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let d = spawn_daemon(daemon, knobs)?;
        warm_up(d.addr, seed)?;
        setups.push(start.elapsed().as_secs_f64());
        daemon_proc = Some(d); // The previous daemon is killed here.
    }
    let d = daemon_proc.expect("at least one set-up");
    let rungs = climb(d.addr, seed, seconds, plan, false)?;
    let (_, instances) = blocking(d.addr, "GET", "/instances", "")?;
    let instances = parse_bytes(&instances).map_err(|e| format!("/instances: {e}"))?;
    drop(d);

    // A late sender marks the rung invalid in the stamped rung table; it
    // says the host could not drive the schedule, not that an answer
    // was wrong.
    let nominal = &rungs[0];
    for rung in &rungs {
        outcome.attempted += rung.sent as u64;
        outcome.failed += rung.failures() as u64;
    }
    let answered: Vec<&Done> = rungs.iter().flat_map(|r| r.done.iter()).collect();
    let wrong = verify(&answered, knobs);
    outcome.failed += wrong.len() as u64;
    outcome.problems.extend(wrong);

    let (solve_p50, solve_tail, solve) = nominal.windowed(&[Class::Solve])?;
    let (_, healthz_tail, healthz) = nominal.windowed(&[Class::Healthz, Class::Probe])?;
    let build = summarize(&nominal.latencies(Class::Build)).ok_or("no answered builds")?;
    let passing: Vec<&Rung> = rungs.iter().take_while(|r| r.passes(plan)).collect();
    let max_rps = passing
        .last()
        .map_or(nominal.achieved_rps(), |r| r.achieved_rps());
    let mut m = Metrics::default();
    m.push("wall_s", nominal.wall_s, "s");
    m.push("setup_s", median(&setups), "s");
    m.push(
        "peak_rss_mib",
        instances
            .get("peak_rss_mib")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        "MiB",
    );
    m.push("solve_p50_ms", solve_p50, "ms");
    m.push("solve_p99_ms", solve_tail, "ms");
    m.push("build_p50_ms", build.p50, "ms");
    m.push("max_rps", max_rps, "1/s");
    outcome.end_to_end = m;
    outcome.context.extend(rung_context(&rungs, plan));
    outcome
        .context
        .push(("solve_samples_per_window", Value::Num(solve.samples as f64)));
    outcome
        .context
        .push(("solve_tail_percentile", Value::Num(solve.tail_percentile)));
    outcome
        .context
        .push(("healthz_p99_ms", Value::Num(healthz_tail)));
    outcome.context.push((
        "healthz_samples_per_window",
        Value::Num(healthz.samples as f64),
    ));
    outcome.context.push((
        "healthz_tail_percentile",
        Value::Num(healthz.tail_percentile),
    ));
    outcome
        .context
        .push(("build_samples", Value::Num(build.samples as f64)));
    Ok(outcome)
}

fn rung_context(rungs: &[Rung], plan: &LoadPlan) -> Vec<(&'static str, Value)> {
    let rows = rungs
        .iter()
        .map(|r| {
            let lag = r.lag();
            serde::json::obj([
                ("offered_rps", Value::Num(r.rate)),
                ("achieved_rps", Value::Num(r.achieved_rps())),
                ("sent", Value::Num(r.sent as f64)),
                ("failed", Value::Num(r.failures() as f64)),
                ("send_lag_p50_ms", Value::Num(lag.p50)),
                ("send_lag_p99_ms", Value::Num(lag.tail)),
                ("backlog_at_end", Value::Num(r.backlog_at_end as f64)),
                ("valid", Value::Bool(r.valid(plan))),
                ("passed", Value::Bool(r.passes(plan))),
                (
                    "solve_tail_ms",
                    Value::Num(summarize(&r.latencies(Class::Solve)).map_or(0.0, |s| s.tail)),
                ),
            ])
        })
        .collect();
    vec![
        ("rungs", Value::Arr(rows)),
        ("p99_limit_ms", Value::Num(plan.p99_limit_ms)),
        ("max_lag_ms", Value::Num(plan.max_lag_ms)),
        ("max_backlog", Value::Num(plan.max_backlog as f64)),
    ]
}

/// The traced run: half the window drives the spawned daemon untraced at
/// the nominal rate; the other half drives an in-process event server
/// whose handler wraps `ServiceState::handle` and whose registry is the
/// timing registry. The difference is the tracing overhead.
fn traced(
    daemon: &str,
    seed: u64,
    seconds: f64,
    knobs: Knobs,
    plan: &LoadPlan,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let plain = {
        let d = spawn_daemon(daemon, knobs)?;
        warm_up(d.addr, seed)?;
        climb(d.addr, seed, seconds / 2.0, plan, true)?.remove(0)
    };

    let mut state = ServiceState::new(
        STORE_CAPACITY,
        InstanceConfig {
            rr_sets: knobs.rr_sets,
            mc_runs: knobs.mc_runs,
            ..InstanceConfig::default()
        },
    );
    let (registry, engine) = trace::timing_registry();
    state.registry = registry;
    let state = Arc::new(state);
    let server = EventServer::bind("127.0.0.1:0", EventConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let loop_metrics = server.metrics();
    let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
    let handler_ms: Arc<Mutex<BTreeMap<u64, f64>>> = Arc::default();
    let handler = {
        let state = Arc::clone(&state);
        let handler_ms = Arc::clone(&handler_ms);
        move |request: &Request| -> Response {
            let seq: u64 = request
                .header("X-Bench-Seq")
                .and_then(|s| s.parse().ok())
                .unwrap_or(u64::MAX);
            let span = tracer().span(
                "service.handle",
                format!("{} {} #{seq}", request.method, request.path),
            );
            let response = state.handle(request);
            if let Ok(mut times) = handler_ms.lock() {
                times.insert(seq, span.elapsed() * 1e3);
            }
            response
        }
    };
    let server_thread = std::thread::spawn(move || server.run(Arc::new(handler)));
    let run = (|| {
        warm_up(addr, seed)?;
        climb(addr, seed, seconds / 2.0, plan, true).map(|mut r| r.remove(0))
    })();
    shutdown.shutdown();
    let stopped = server_thread.join().map_err(|_| "server thread panicked")?;
    let rung = run?;
    stopped.map_err(|e| format!("server: {e}"))?;

    for r in [&plain, &rung] {
        outcome.attempted += r.sent as u64;
        outcome.failed += r.failures() as u64;
    }
    let answered: Vec<&Done> = plain.done.iter().chain(&rung.done).collect();
    let wrong = verify(&answered, knobs);
    outcome.failed += wrong.len() as u64;
    outcome.problems.extend(wrong);
    let handler_ms = handler_ms.lock().expect("handler times poisoned").clone();
    let mut m = Metrics::default();
    let snapshot = state.store.snapshot_json();
    let rows = snapshot
        .get("instances")
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    let build_s: f64 = rows
        .iter()
        .filter_map(|r| {
            r.get("instance")
                .and_then(|i| i.get("build_seconds"))
                .and_then(Value::as_f64)
        })
        .sum();
    let stats = state.store.stats();
    m.push("datasets.build_s", build_s, "s");
    m.push("datasets.builds", stats.misses as f64, "count");
    let engine_s = crate::push_engine(&mut m, &engine, 1.0);
    // The service's oracles are not behind the counting proxy, so the
    // engine's own time is its whole time here.
    m.push("engine.self_s", engine_s, "s");
    for class in [
        Class::Solve,
        Class::Sharded,
        Class::AnytimeOpen,
        Class::Build,
        Class::Healthz,
    ] {
        let times: Vec<f64> = rung
            .done
            .iter()
            .filter(|d| d.class == class || (class == Class::Healthz && d.class == Class::Probe))
            .filter_map(|d| handler_ms.get(&d.seq).copied())
            .collect();
        let s = summarize(&times);
        let label = match class {
            Class::AnytimeOpen => "anytime",
            other => other.label(),
        };
        m.push(
            &format!("service.handler_ms.{label}.p50"),
            s.map_or(0.0, |s| s.p50),
            "ms",
        );
        m.push(
            &format!("service.handler_ms.{label}.p99"),
            s.map_or(0.0, |s| s.tail),
            "ms",
        );
    }
    let healthz = summarize(&rung.latencies_of(&[Class::Healthz, Class::Probe]));
    m.push(
        "service.healthz_ms.p50",
        healthz.map_or(0.0, |s| s.p50),
        "ms",
    );
    m.push(
        "service.healthz_ms.p99",
        healthz.map_or(0.0, |s| s.tail),
        "ms",
    );
    let waits: Vec<f64> = rung
        .done
        .iter()
        .filter_map(|d| handler_ms.get(&d.seq).map(|h| (d.latency_ms - h).max(0.0)))
        .collect();
    let wait = summarize(&waits);
    m.push("service.wait_ms.p50", wait.map_or(0.0, |s| s.p50), "ms");
    m.push("service.wait_ms.p99", wait.map_or(0.0, |s| s.tail), "ms");
    m.push("service.store.hits", stats.hits as f64, "count");
    m.push("service.store.misses", stats.misses as f64, "count");
    m.push("service.store.evictions", stats.evictions as f64, "count");
    m.push(
        "service.store.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    m.push(
        "service.loop.accepted",
        trace::count(&loop_metrics.accepted),
        "count",
    );
    m.push(
        "service.loop.shed_503",
        trace::count(&loop_metrics.shed_503),
        "count",
    );
    m.push(
        "service.loop.malformed_400",
        trace::count(&loop_metrics.malformed_400),
        "count",
    );
    let p50 = |r: &Rung| summarize(&r.latencies(Class::Solve)).map_or(0.0, |s| s.p50);
    m.push("trace.overhead_wall_s", rung.wall_s - plain.wall_s, "s");
    m.push(
        "trace.overhead_solve_p50_ms",
        p50(&rung) - p50(&plain),
        "ms",
    );
    m.push("trace.spans", tracer().span_count() as f64, "count");
    outcome.per_layer = m;
    outcome.context.extend(rung_context(&[plain, rung], plan));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_seed_deterministic() {
        let a = schedule(5, 0, 100.0, 10.0, 0);
        assert_eq!(a, schedule(5, 0, 100.0, 10.0, 0));
        assert_ne!(a, schedule(6, 0, 100.0, 10.0, 0));
        assert_ne!(a, schedule(5, 1, 100.0, 10.0, 0));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|r| (0.0..10.0).contains(&r.at)));
        // The prober polls every 50 ms beside the 1000 mix arrivals,
        // whose classes follow the mix exactly.
        let count = |c: Class| a.iter().filter(|r| r.class == c).count();
        assert_eq!(count(Class::Probe), 200);
        assert_eq!(a.len(), 1200);
        for &(class, per_hundred) in MIX {
            assert_eq!(count(class), 10 * per_hundred, "{class:?}");
        }
    }

    #[test]
    fn fresh_recipes_never_repeat_across_rungs() {
        let plan = LoadPlan {
            ladder: vec![50.0, 100.0, 200.0],
            p99_limit_ms: 100.0,
            max_lag_ms: 20.0,
            max_backlog: 64,
        };
        let bodies: Vec<String> = plans(3, 12.0, &plan, false)
            .into_iter()
            .flat_map(|(_, _, reqs)| reqs)
            .filter(|r| r.class == Class::Build)
            .map(|r| r.body)
            .collect();
        let mut unique = bodies.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), bodies.len());
        assert!(!bodies.is_empty());
    }

    #[test]
    fn responses_parse_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 503 X\r\nContent-Length: 0\r\n\r\n";
        for cut in 0..40 {
            assert_eq!(take_response(&wire[..cut]).unwrap(), None);
        }
        let (status, body, used) = take_response(wire).unwrap().unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"ok"[..]));
        let (status, _, _) = take_response(&wire[used..]).unwrap().unwrap();
        assert_eq!(status, 503);
    }
}
