//! The event-driven server: a single readiness loop owning every
//! connection, with handler execution pushed onto a bounded worker
//! pool.
//!
//! ## Shape
//!
//! One thread runs [`EventServer::run`]: it polls a [`polling::Poller`]
//! over the listener, a completion-wake pipe, a shutdown pipe, and all
//! live connections (nonblocking, slab-indexed). Each connection is a
//! small state machine — bytes in `read_buf`, the incremental
//! [`crate::http::parse_request`] carving requests off its front,
//! encoded responses accumulating in `write_buf` — so ten thousand
//! idle keep-alive connections cost ten thousand slab entries, not ten
//! thousand parked threads (the failure mode of the thread-per-connection
//! server this loop replaced; DESIGN.md §10).
//!
//! Parsed requests are dispatched to a [`WorkerPool`] with a **bounded
//! queue**: when the queue is at its high-water mark the request is
//! answered `503` + `Retry-After` immediately from the loop thread —
//! overload sheds cheap early rejections instead of stacking latency
//! onto everything behind it. Responses complete out of order across
//! connections but are emitted **in request order within** each
//! connection (HTTP/1.1 pipelining), via per-request sequence numbers
//! and a small reorder buffer.
//!
//! Robustness machinery: per-connection idle and read-header deadlines
//! driven by a hashed timer wheel (a slowloris trickle keeps resetting
//! activity but never finishes a head, so the head deadline still
//! fires), a request-body cap answered with `413`, a connection cap at
//! accept, and graceful shutdown (stop accepting, drain in-flight,
//! then join the pool) triggered by a [`ShutdownHandle`] — which can be
//! wired to SIGINT/SIGTERM through `polling::signals`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polling::{Interest, Poller};
use serde::json::Value;

use crate::http::{
    encode_response, parse_request, payload_too_large, ParseError, Request, Response,
    MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::workers::WorkerPool;

/// Tuning knobs of the event-driven server.
#[derive(Clone, Debug)]
pub struct EventConfig {
    /// Handler threads; `0` picks a small default from the detected
    /// parallelism (at least 2, so one long solve cannot starve
    /// health checks).
    pub worker_threads: usize,
    /// Bounded handler-queue depth — the admission-control high-water
    /// mark. Submissions past it are answered `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// Maximum simultaneously open connections; accepts beyond it are
    /// immediately closed.
    pub max_connections: usize,
    /// A connection with no request in progress is closed after this
    /// long without traffic.
    pub idle_timeout: Duration,
    /// A connection must deliver a complete request head within this
    /// long of its first byte — the slowloris guard (trickling bytes
    /// resets idleness but never this deadline).
    pub read_timeout: Duration,
    /// Maximum pipelined requests in flight per connection; reading
    /// pauses (TCP backpressure) until responses drain.
    pub max_pipeline: usize,
    /// On shutdown, how long to wait for in-flight requests to finish
    /// and flush before forcing connections closed.
    pub drain_timeout: Duration,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            worker_threads: 0,
            queue_capacity: 256,
            max_connections: 4096,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
            max_pipeline: 32,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl EventConfig {
    fn resolved_threads(&self) -> usize {
        if self.worker_threads > 0 {
            self.worker_threads
        } else {
            rayon::current_num_threads().max(2)
        }
    }
}

/// Counters the loop maintains; all monotonic, readable from any
/// thread (exposed for tests, the CLI, and load-shedding diagnosis).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections refused because `max_connections` was reached.
    pub rejected_at_capacity: AtomicU64,
    /// Requests handed to the worker pool.
    pub dispatched: AtomicU64,
    /// Requests answered `503` because the handler queue was full.
    pub shed_503: AtomicU64,
    /// Requests answered `413` for an oversized body.
    pub oversize_413: AtomicU64,
    /// Connections answered `400` for a malformed request.
    pub malformed_400: AtomicU64,
    /// Connections reaped by the idle/read deadline.
    pub reaped: AtomicU64,
}

impl ServerMetrics {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Requests a graceful stop of a running [`EventServer`] (also the
/// hook point for signal handlers, via [`Self::notify_fd`]).
pub struct ShutdownHandle {
    pipe: UnixStream,
}

impl ShutdownHandle {
    /// Asks the loop to stop accepting, drain in-flight work, and
    /// return. Idempotent; safe from any thread.
    pub fn shutdown(&self) {
        let _ = (&self.pipe).write(&[b'q']);
    }

    /// The raw descriptor a byte must be written to in order to wake
    /// the loop into shutdown — pass to
    /// [`polling::signals::notify_on_terminate`] to make SIGINT and
    /// SIGTERM drain gracefully.
    pub fn notify_fd(&self) -> std::os::fd::RawFd {
        self.pipe.as_raw_fd()
    }

    /// A second handle to the same loop.
    pub fn try_clone(&self) -> std::io::Result<Self> {
        Ok(Self {
            pipe: self.pipe.try_clone()?,
        })
    }
}

// Poller tokens: three fixed ones, then one per connection slot.
const TOKEN_LISTENER: usize = 0;
const TOKEN_COMPLETIONS: usize = 1;
const TOKEN_SHUTDOWN: usize = 2;
const FIRST_CONN_TOKEN: usize = 3;

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Out-of-order completions waiting for their turn: `(seq, bytes,
    /// close_after)`.
    reorder: Vec<(u64, Vec<u8>, bool)>,
    /// Sequence number the next parsed request gets.
    next_assign: u64,
    /// Sequence number of the next response to emit.
    next_emit: u64,
    /// Requests dispatched whose responses are not yet emitted.
    in_flight: usize,
    /// Set once no further requests should be parsed (client asked to
    /// close, or an error response is ending the connection).
    stop_reading: bool,
    /// Close the socket once `write_buf` fully flushes.
    close_when_flushed: bool,
    /// Peer closed its write half (serve out responses, then close).
    read_closed: bool,
    last_activity: Instant,
    /// When the currently-incomplete request head started arriving.
    head_started: Option<Instant>,
    interest: Interest,
}

impl Conn {
    fn has_unwritten(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// The instant this connection should be reaped, if it is sitting
    /// in a reapable state (nothing in flight, nothing to write).
    fn deadline(&self, config: &EventConfig) -> Option<Instant> {
        if self.in_flight > 0 || self.has_unwritten() {
            return None;
        }
        match self.head_started {
            Some(started) => Some(started + config.read_timeout),
            None => Some(self.last_activity + config.idle_timeout),
        }
    }
}

/// Slab of connections: stable indices, freed slots recycled, a
/// generation counter catching completions for connections that died
/// while their request was still executing.
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            live: 0,
        }
    }

    fn insert(&mut self, stream: TcpStream, now: Instant) -> usize {
        self.next_gen += 1;
        let conn = Conn {
            stream,
            gen: self.next_gen,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            reorder: Vec::new(),
            next_assign: 0,
            next_emit: 0,
            in_flight: 0,
            stop_reading: false,
            close_when_flushed: false,
            read_closed: false,
            last_activity: now,
            head_started: None,
            interest: Interest::READABLE,
        };
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(conn);
                self.live += 1;
                slot
            }
            None => {
                self.slots.push(Some(conn));
                self.live += 1;
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot)?.take();
        if conn.is_some() {
            self.free.push(slot);
            self.live -= 1;
        }
        conn
    }
}

/// Hashed timer wheel over `(slot, gen)` entries with lazy
/// cancellation: entries are never removed early, just re-validated
/// against the connection's actual deadline when their bucket fires.
struct TimerWheel {
    buckets: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    cursor: usize,
    cursor_start: Instant,
}

impl TimerWheel {
    const BUCKETS: usize = 64;

    fn new(tick: Duration, now: Instant) -> Self {
        Self {
            buckets: (0..Self::BUCKETS).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            cursor_start: now,
        }
    }

    fn schedule(&mut self, deadline: Instant, slot: usize, gen: u64, now: Instant) {
        let until = deadline.saturating_duration_since(now);
        // Far-future deadlines clamp to the wheel horizon and lazily
        // re-schedule when their bucket fires.
        let offset = (until.as_nanos() / self.tick.as_nanos().max(1)) as usize + 1;
        let offset = offset.min(Self::BUCKETS - 1).max(1);
        let bucket = (self.cursor + offset) % Self::BUCKETS;
        self.buckets[bucket].push((slot, gen));
    }

    /// Time until the next bucket boundary (the poll timeout while any
    /// entries exist).
    fn next_wake(&self, now: Instant) -> Option<Duration> {
        if self.buckets.iter().all(Vec::is_empty) {
            return None;
        }
        let next = self.cursor_start + self.tick;
        Some(
            next.saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        )
    }

    /// Drains every bucket whose tick has elapsed into `fired`.
    fn advance(&mut self, now: Instant, fired: &mut Vec<(usize, u64)>) {
        if self.buckets.iter().all(Vec::is_empty) {
            // Nothing scheduled: snap forward instead of replaying a
            // long idle stretch tick by tick.
            self.cursor_start = now;
            return;
        }
        while now.saturating_duration_since(self.cursor_start) >= self.tick {
            self.cursor = (self.cursor + 1) % Self::BUCKETS;
            self.cursor_start += self.tick;
            fired.append(&mut self.buckets[self.cursor]);
        }
    }
}

/// A finished response on its way back to the loop thread.
struct Completion {
    slot: usize,
    gen: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// The daemon's HTTP server: a readiness loop over every connection,
/// running a `Fn(&Request) -> Response` handler on a worker pool.
pub struct EventServer {
    listener: TcpListener,
    config: EventConfig,
    metrics: Arc<ServerMetrics>,
    shutdown_rx: UnixStream,
    shutdown_tx: UnixStream,
}

impl EventServer {
    /// Binds the listener (port 0 for ephemeral) with the given knobs.
    pub fn bind(addr: impl ToSocketAddrs, config: EventConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let (shutdown_tx, shutdown_rx) = UnixStream::pair()?;
        shutdown_rx.set_nonblocking(true)?;
        shutdown_tx.set_nonblocking(true)?;
        Ok(Self {
            listener,
            config,
            metrics: Arc::new(ServerMetrics::default()),
            shutdown_rx,
            shutdown_tx,
        })
    }

    /// The bound address (reports the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The loop's counters (live; updated while running).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle that gracefully stops [`Self::run`]. Obtain before
    /// calling `run`, which consumes the server.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            pipe: self.shutdown_tx.try_clone()?,
        })
    }

    /// Runs the readiness loop until a [`ShutdownHandle`] fires, then
    /// drains and returns. Never returns under normal traffic.
    pub fn run<H>(self, handler: Arc<H>) -> std::io::Result<()>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Loop::new(self, handler)?.run()
    }
}

/// Everything the running loop owns.
struct Loop<H> {
    listener: TcpListener,
    config: EventConfig,
    metrics: Arc<ServerMetrics>,
    handler: Arc<H>,
    poller: Poller,
    slab: Slab,
    wheel: TimerWheel,
    pool: WorkerPool,
    completions: Arc<Mutex<Vec<Completion>>>,
    completion_rx: UnixStream,
    completion_tx: Arc<UnixStream>,
    shutdown_rx: UnixStream,
    /// Kept alive so the read half never sees EOF while no
    /// [`ShutdownHandle`] exists (EOF would read as a shutdown).
    _shutdown_tx: UnixStream,
    draining: Option<Instant>,
}

impl<H> Loop<H>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn new(server: EventServer, handler: Arc<H>) -> std::io::Result<Self> {
        let EventServer {
            listener,
            config,
            metrics,
            shutdown_rx,
            shutdown_tx,
        } = server;
        listener.set_nonblocking(true)?;
        let (completion_tx, completion_rx) = UnixStream::pair()?;
        completion_rx.set_nonblocking(true)?;
        completion_tx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(
            completion_rx.as_raw_fd(),
            TOKEN_COMPLETIONS,
            Interest::READABLE,
        )?;
        poller.register(shutdown_rx.as_raw_fd(), TOKEN_SHUTDOWN, Interest::READABLE)?;
        let tick = (config.idle_timeout.min(config.read_timeout) / 16)
            .clamp(Duration::from_millis(5), Duration::from_millis(250));
        let now = Instant::now();
        let pool = WorkerPool::new(config.resolved_threads(), config.queue_capacity);
        Ok(Self {
            listener,
            config,
            metrics,
            handler,
            poller,
            slab: Slab::new(),
            wheel: TimerWheel::new(tick, now),
            pool,
            completions: Arc::new(Mutex::new(Vec::new())),
            completion_rx,
            completion_tx: Arc::new(completion_tx),
            shutdown_rx,
            _shutdown_tx: shutdown_tx,
            draining: None,
        })
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events = Vec::new();
        let mut fired = Vec::new();
        loop {
            let now = Instant::now();
            let mut timeout = self.wheel.next_wake(now);
            if let Some(deadline) = self.draining {
                let left = deadline.saturating_duration_since(now);
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
            self.poller.wait(&mut events, timeout)?;

            // Split borrows: copy the tokens out so handlers can take
            // &mut self.
            let batch: Vec<polling::Event> = events.drain(..).collect();
            for event in batch {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_COMPLETIONS => self.drain_completions(),
                    TOKEN_SHUTDOWN => self.begin_drain(),
                    token => {
                        let slot = token - FIRST_CONN_TOKEN;
                        if event.readable {
                            self.conn_readable(slot);
                        }
                        if event.writable {
                            self.conn_writable(slot);
                        }
                    }
                }
            }

            let now = Instant::now();
            self.wheel.advance(now, &mut fired);
            for (slot, gen) in fired.drain(..) {
                self.timer_fired(slot, gen, now);
            }

            if let Some(deadline) = self.draining {
                if self.slab.live == 0 {
                    break;
                }
                if now >= deadline {
                    let slots: Vec<usize> = (0..self.slab.slots.len())
                        .filter(|&s| self.slab.slots[s].is_some())
                        .collect();
                    for slot in slots {
                        self.close_conn(slot);
                    }
                    break;
                }
            }
        }
        // In-flight handler jobs were already awaited connection by
        // connection (or abandoned at the drain deadline); give the
        // pool the remaining budget, then join its threads.
        self.pool.drain(self.config.drain_timeout);
        self.pool.shutdown();
        Ok(())
    }

    // ── Accept path ──────────────────────────────────────────────────

    fn accept_ready(&mut self) {
        if self.draining.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.slab.live >= self.config.max_connections {
                        ServerMetrics::bump(&self.metrics.rejected_at_capacity);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let fd = stream.as_raw_fd();
                    let slot = self.slab.insert(stream, now);
                    let gen = self.slab.get_mut(slot).expect("just inserted").gen;
                    if self
                        .poller
                        .register(fd, FIRST_CONN_TOKEN + slot, Interest::READABLE)
                        .is_err()
                    {
                        self.slab.remove(slot);
                        continue;
                    }
                    ServerMetrics::bump(&self.metrics.accepted);
                    self.wheel
                        .schedule(now + self.config.idle_timeout, slot, gen, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("[service] accept error (continuing): {e}");
                    break;
                }
            }
        }
    }

    // ── Connection I/O ───────────────────────────────────────────────

    fn conn_readable(&mut self, slot: usize) {
        enum Step {
            Parse,
            Retry,
            Stop,
            Close,
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut peer_closed = false;
        loop {
            let step = {
                let Some(conn) = self.slab.get_mut(slot) else {
                    return;
                };
                if conn.stop_reading
                    || conn.read_closed
                    || conn.in_flight >= self.config.max_pipeline
                {
                    Step::Stop // backpressure / close pending: stop reading
                } else {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            peer_closed = true;
                            Step::Stop
                        }
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&chunk[..n]);
                            conn.last_activity = Instant::now();
                            Step::Parse
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => Step::Stop,
                        Err(e) if e.kind() == ErrorKind::Interrupted => Step::Retry,
                        Err(_) => Step::Close,
                    }
                }
            };
            match step {
                Step::Parse => self.parse_available(slot),
                Step::Retry => continue,
                Step::Stop => break,
                Step::Close => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        if peer_closed {
            let drop_now = {
                let Some(conn) = self.slab.get_mut(slot) else {
                    return;
                };
                conn.read_closed = true;
                conn.in_flight == 0 && !conn.has_unwritten()
            };
            if drop_now {
                self.close_conn(slot);
                return;
            }
        }
        self.after_progress(slot);
    }

    fn conn_writable(&mut self, slot: usize) {
        self.flush_conn(slot);
        self.after_progress(slot);
    }

    /// Parses as many complete requests as pipelining allows off the
    /// connection's buffer and dispatches them.
    fn parse_available(&mut self, slot: usize) {
        enum Action {
            Dispatch {
                gen: u64,
                seq: u64,
                request: Box<Request>,
                keep_alive: bool,
            },
            NeedMore,
            Malformed(String),
            TooLarge(usize),
        }
        loop {
            let action = {
                let Some(conn) = self.slab.get_mut(slot) else {
                    return;
                };
                if conn.stop_reading || conn.in_flight >= self.config.max_pipeline {
                    return;
                }
                match parse_request(&conn.read_buf, MAX_HEAD_BYTES, MAX_BODY_BYTES) {
                    Ok(Some((request, consumed))) => {
                        conn.read_buf.drain(..consumed);
                        conn.head_started = None;
                        let seq = conn.next_assign;
                        conn.next_assign += 1;
                        conn.in_flight += 1;
                        let keep_alive = !request.wants_close();
                        if !keep_alive {
                            conn.stop_reading = true;
                        }
                        Action::Dispatch {
                            gen: conn.gen,
                            seq,
                            request: Box::new(request),
                            keep_alive,
                        }
                    }
                    Ok(None) => {
                        if conn.read_buf.is_empty() {
                            conn.head_started = None;
                        } else if conn.head_started.is_none() {
                            conn.head_started = Some(Instant::now());
                        }
                        Action::NeedMore
                    }
                    Err(ParseError::Malformed(message)) => Action::Malformed(message),
                    Err(ParseError::BodyTooLarge { length }) => Action::TooLarge(length),
                }
            };
            match action {
                Action::Dispatch {
                    gen,
                    seq,
                    request,
                    keep_alive,
                } => self.dispatch(slot, gen, seq, *request, keep_alive),
                Action::NeedMore => return,
                Action::Malformed(message) => {
                    ServerMetrics::bump(&self.metrics.malformed_400);
                    let body = serde::json::obj([("error", Value::Str(message))]);
                    self.reject_inline(slot, Response::json(400, &body), true);
                    return;
                }
                Action::TooLarge(length) => {
                    ServerMetrics::bump(&self.metrics.oversize_413);
                    self.reject_inline(slot, payload_too_large(length), true);
                    return;
                }
            }
        }
    }

    /// Synthesizes a response on the loop thread (no handler), in
    /// sequence with any in-flight pipeline.
    fn reject_inline(&mut self, slot: usize, response: Response, close: bool) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let seq = conn.next_assign;
        conn.next_assign += 1;
        conn.in_flight += 1;
        if close {
            conn.stop_reading = true;
            conn.read_buf.clear();
        }
        let bytes = encode_response(&response, !close);
        self.settle(slot, seq, bytes, close);
    }

    /// Hands a request to the worker pool; a full queue becomes the
    /// `503` + `Retry-After` admission rejection.
    fn dispatch(&mut self, slot: usize, gen: u64, seq: u64, request: Request, keep_alive: bool) {
        let handler = Arc::clone(&self.handler);
        let completions = Arc::clone(&self.completions);
        let waker = Arc::clone(&self.completion_tx);
        let job = Box::new(move || {
            let response = handler(&request);
            let bytes = encode_response(&response, keep_alive);
            completions.lock().unwrap().push(Completion {
                slot,
                gen,
                seq,
                bytes,
                close: !keep_alive,
            });
            let _ = (&*waker).write(&[b'c']);
        });
        match self.pool.try_submit(job) {
            Ok(()) => ServerMetrics::bump(&self.metrics.dispatched),
            Err(_rejected) => {
                ServerMetrics::bump(&self.metrics.shed_503);
                let body = serde::json::obj([(
                    "error",
                    Value::Str("server overloaded; retry shortly".into()),
                )]);
                let response = Response::json(503, &body).with_header("Retry-After", "1");
                let bytes = encode_response(&response, keep_alive);
                self.settle(slot, seq, bytes, !keep_alive);
            }
        }
    }

    // ── Completion path ──────────────────────────────────────────────

    fn drain_completions(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.completion_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
        let batch: Vec<Completion> = std::mem::take(&mut *self.completions.lock().unwrap());
        let mut touched: Vec<usize> = Vec::with_capacity(batch.len());
        for completion in batch {
            let Some(conn) = self.slab.get_mut(completion.slot) else {
                continue; // connection died while the request ran
            };
            if conn.gen != completion.gen {
                continue; // slot recycled under a stale completion
            }
            self.settle(
                completion.slot,
                completion.seq,
                completion.bytes,
                completion.close,
            );
            if !touched.contains(&completion.slot) {
                touched.push(completion.slot);
            }
        }
        for slot in touched {
            // Responses drained pipeline slots; buffered pipelined
            // bytes may now be parseable again.
            self.parse_available(slot);
            self.after_progress(slot);
        }
    }

    /// Queues one finished response and promotes everything now in
    /// order into the write buffer.
    fn settle(&mut self, slot: usize, seq: u64, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        conn.reorder.push((seq, bytes, close));
        loop {
            let Some(at) = conn
                .reorder
                .iter()
                .position(|(s, _, _)| *s == conn.next_emit)
            else {
                break;
            };
            let (_, bytes, close) = conn.reorder.swap_remove(at);
            conn.write_buf.extend_from_slice(&bytes);
            conn.next_emit += 1;
            conn.in_flight -= 1;
            if close {
                conn.close_when_flushed = true;
            }
        }
        self.flush_conn(slot);
    }

    // ── Write path / lifecycle ───────────────────────────────────────

    fn flush_conn(&mut self, slot: usize) {
        let draining = self.draining.is_some();
        let should_close = {
            let Some(conn) = self.slab.get_mut(slot) else {
                return;
            };
            let mut fatal = false;
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        fatal = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            if fatal {
                true
            } else if conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                conn.close_when_flushed
                    || (conn.read_closed && conn.in_flight == 0)
                    || (draining && conn.in_flight == 0)
            } else {
                false
            }
        };
        if should_close {
            self.close_conn(slot);
        }
    }

    /// After any I/O or completion progress: refresh poller interest
    /// and the connection's timer.
    fn after_progress(&mut self, slot: usize) {
        let config_max_pipeline = self.config.max_pipeline;
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let want = Interest {
            readable: !conn.stop_reading
                && !conn.read_closed
                && conn.in_flight < config_max_pipeline,
            writable: conn.has_unwritten(),
        };
        if (want.readable, want.writable) != (conn.interest.readable, conn.interest.writable) {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, FIRST_CONN_TOKEN + slot, want);
        }
        let gen = conn.gen;
        if let Some(deadline) = conn.deadline(&self.config) {
            let now = Instant::now();
            self.wheel.schedule(deadline, slot, gen, now);
        }
    }

    fn timer_fired(&mut self, slot: usize, gen: u64, now: Instant) {
        let config = self.config.clone();
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        if conn.gen != gen {
            return; // stale entry for a recycled slot
        }
        match conn.deadline(&config) {
            Some(deadline) if deadline <= now => {
                ServerMetrics::bump(&self.metrics.reaped);
                self.close_conn(slot);
            }
            Some(deadline) => self.wheel.schedule(deadline, slot, gen, now),
            // Busy (request executing / response flushing): check back
            // in a while rather than dropping timer coverage.
            None => self
                .wheel
                .schedule(now + config.idle_timeout, slot, gen, now),
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.slab.remove(slot) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            // Dropping the stream closes the socket.
        }
    }

    // ── Shutdown ─────────────────────────────────────────────────────

    fn begin_drain(&mut self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = (&self.shutdown_rx).read(&mut sink) {
            if n == 0 {
                break;
            }
        }
        if self.draining.is_some() {
            return;
        }
        self.draining = Some(Instant::now() + self.config.drain_timeout);
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        // Close every connection with nothing in flight and nothing to
        // flush; the rest drain out through flush_conn.
        let slots: Vec<usize> = (0..self.slab.slots.len())
            .filter(|&s| self.slab.slots[s].is_some())
            .collect();
        for slot in slots {
            let Some(conn) = self.slab.get_mut(slot) else {
                continue;
            };
            if conn.in_flight == 0 && !conn.has_unwritten() {
                self.close_conn(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io::BufReader;
    use std::sync::mpsc;

    type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

    fn echo_handler() -> Handler {
        Box::new(|req: &Request| {
            let body = serde::json::obj([
                ("path", Value::Str(req.path.clone())),
                ("body_len", Value::Num(req.body.len() as f64)),
            ]);
            Response::json(200, &body)
        })
    }

    struct Running {
        addr: SocketAddr,
        handle: ShutdownHandle,
        thread: std::thread::JoinHandle<std::io::Result<()>>,
        metrics: Arc<ServerMetrics>,
    }

    fn start(config: EventConfig, handler: Handler) -> Running {
        let server = EventServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let metrics = server.metrics();
        let thread = std::thread::spawn(move || server.run(Arc::new(handler)));
        Running {
            addr,
            handle,
            thread,
            metrics,
        }
    }

    impl Running {
        fn stop(self) {
            self.handle.shutdown();
            self.thread.join().unwrap().unwrap();
        }
    }

    fn get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let server = start(EventConfig::default(), echo_handler());
        let stream = TcpStream::connect(server.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for path in ["/a", "/b", "/c"] {
            writer.write_all(get(path).as_bytes()).unwrap();
            let (status, _, body) = read_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            assert!(String::from_utf8(body).unwrap().contains(path));
        }
        drop((writer, reader));
        server.stop();
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        // Handler sleeps longer for earlier requests, so out-of-order
        // completion is likely; responses must still arrive in request
        // order.
        let handler: Handler = Box::new(|req: &Request| {
            let delay = match req.path.as_str() {
                "/p0" => 60,
                "/p1" => 30,
                _ => 0,
            };
            std::thread::sleep(Duration::from_millis(delay));
            Response::json(
                200,
                &serde::json::obj([("path", Value::Str(req.path.clone()))]),
            )
        });
        let config = EventConfig {
            worker_threads: 3,
            ..EventConfig::default()
        };
        let server = start(config, handler);
        let stream = TcpStream::connect(server.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let burst: String = ["/p0", "/p1", "/p2"].iter().map(|p| get(p)).collect();
        writer.write_all(burst.as_bytes()).unwrap();
        for expected in ["/p0", "/p1", "/p2"] {
            let (status, _, body) = read_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            assert!(
                String::from_utf8(body).unwrap().contains(expected),
                "responses out of order"
            );
        }
        drop((writer, reader));
        server.stop();
    }

    #[test]
    fn oversized_body_draws_413_and_close() {
        let server = start(EventConfig::default(), echo_handler());
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 413);
        // Server closes: next read sees EOF.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(server.metrics.oversize_413.load(Ordering::Relaxed), 1);
        server.stop();
    }

    #[test]
    fn malformed_request_draws_400_and_close() {
        let server = start(EventConfig::default(), echo_handler());
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 400);
        server.stop();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let config = EventConfig {
            idle_timeout: Duration::from_millis(120),
            read_timeout: Duration::from_millis(120),
            ..EventConfig::default()
        };
        let server = start(config, echo_handler());
        let mut stream = TcpStream::connect(server.addr).unwrap();
        // Half a request head, then silence: the slowloris profile.
        stream.write_all(b"GET /healthz HTT").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        let mut sink = Vec::new();
        stream.read_to_end(&mut sink).unwrap(); // EOF once reaped
        assert!(started.elapsed() < Duration::from_secs(8));
        assert_eq!(server.metrics.reaped.load(Ordering::Relaxed), 1);
        server.stop();
    }

    #[test]
    fn saturated_queue_sheds_503_with_retry_after() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let handler: Handler = Box::new(move |req: &Request| {
            if req.path == "/slow" {
                started_tx.send(()).unwrap();
                gate_rx.lock().unwrap().recv().unwrap();
            }
            Response::json(200, &serde::json::obj([("ok", Value::Bool(true))]))
        });
        let config = EventConfig {
            worker_threads: 1,
            queue_capacity: 1,
            ..EventConfig::default()
        };
        let server = start(config, handler);

        // Conn 1: a request the single worker parks on. Wait until the
        // worker has actually *started* it, so the queue slot is free.
        let mut slow1 = TcpStream::connect(server.addr).unwrap();
        slow1.write_all(get("/slow").as_bytes()).unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Conn 2: fills the one queue slot (worker is busy).
        let mut slow2 = TcpStream::connect(server.addr).unwrap();
        slow2.write_all(get("/slow").as_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics.dispatched.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < deadline, "dispatches never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Conn 3: over the high-water mark → immediate 503.
        let mut shed = TcpStream::connect(server.addr).unwrap();
        shed.write_all(get("/fast").as_bytes()).unwrap();
        let mut reader = BufReader::new(shed.try_clone().unwrap());
        let (status, headers, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 503);
        assert!(headers.iter().any(|(n, v)| n == "retry-after" && v == "1"));
        assert!(server.metrics.shed_503.load(Ordering::Relaxed) >= 1);

        // Release the gate; the parked requests complete normally.
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        for stream in [&mut slow1, &mut slow2] {
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let (status, _, _) = read_response(&mut r).unwrap();
            assert_eq!(status, 200);
        }
        server.stop();
    }

    #[test]
    fn graceful_shutdown_finishes_in_flight_requests() {
        let handler: Handler = Box::new(|_req: &Request| {
            std::thread::sleep(Duration::from_millis(80));
            Response::json(200, &serde::json::obj([("done", Value::Bool(true))]))
        });
        let server = start(EventConfig::default(), handler);
        let mut stream = TcpStream::connect(server.addr).unwrap();
        stream.write_all(get("/solve").as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(20)); // let it dispatch
        server.handle.shutdown();
        // The in-flight request still completes...
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("done"));
        // ...and the loop exits.
        server.thread.join().unwrap().unwrap();
        // New connections are refused (listener closed with the loop).
        assert!(
            TcpStream::connect(server.addr).is_err() || {
                let mut s = TcpStream::connect(server.addr).unwrap();
                s.write_all(get("/healthz").as_bytes()).unwrap();
                let mut sink = Vec::new();
                s.read_to_end(&mut sink).unwrap();
                sink.is_empty()
            }
        );
    }
}
