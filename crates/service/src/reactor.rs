//! The std-only readiness reactor: one event-loop thread multiplexes
//! every connection over POSIX `poll(2)` (via the vendored [`polling`]
//! shim), and the worker pool executes only **ready, fully-parsed**
//! requests. This replaces the thread-per-connection front where one
//! pool worker owned one keep-alive connection for its lifetime —
//! connection capacity is now bounded by file descriptors, and
//! `--workers` bounds *in-flight requests* instead.
//!
//! ```text
//!                        ┌───────────────────────────────┐
//!   accept ──────────────►          reactor thread       │
//!   readable ────────────► poll(2) → read → RequestParser│──ready Job──► worker pool
//!   writable ────────────► resume partial response writes│◄──Done+wake── (route → format)
//!   timer wheel ─────────► reap idle keep-alive conns    │
//!   waker (UnixStream) ──► instant shutdown / completions│
//!                        └───────────────────────────────┘
//! ```
//!
//! Per connection the reactor holds a `Conn`: the resumable
//! [`RequestParser`] with its partial header/body state, an input
//! spillover buffer for pipelined bytes, and a write buffer with
//! partial-write resumption. Requests on one connection are strictly
//! serial (HTTP/1.1 semantics): while a request executes, the
//! connection is not polled for reads, so a flooding peer is
//! backpressured into its kernel socket buffer rather than into server
//! memory. A response is either written completely or the connection
//! dies — after any transport error mid-response the connection is
//! closed, never reused with a fresh response on top of a half-written
//! one.
//!
//! Idle keep-alive expiry lives in a hashed `TimerWheel` owned by
//! the loop: every byte of transport progress (read or write)
//! refreshes the connection's activity clock, so an *active* mid-body
//! upload is never reaped, while a connection sitting between requests
//! (or stalled mid-message) past the deadline is closed server-side.
//!
//! Shutdown is event-driven: [`crate::server::ServerHandle::shutdown`]
//! writes one byte to the waker, the loop observes the flag on the
//! same iteration, stops accepting, closes idle connections
//! immediately and lets in-flight requests finish their response
//! writes — a no-session drain completes in milliseconds, with no
//! polling tick between the shutdown call and the flag being noticed.

use crate::http::{self, Parsed, RequestParser};
use crate::metrics::{self, Metrics, RequestLog, Route};
use crate::{api, pool};
use polling::{PollFd, POLLIN, POLLOUT};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor tuning: how many request executors, how long a connection
/// may sit without transport progress before the timer wheel reaps it,
/// and where (if anywhere) to report what happened.
#[derive(Clone)]
pub(crate) struct Config {
    /// Worker threads executing ready requests — bounds in-flight
    /// requests, **not** connections.
    pub workers: usize,
    /// Keep-alive/stall deadline enforced by the timer wheel.
    pub idle_timeout: Duration,
    /// Shared metrics registry; request latency is measured around the
    /// worker's handler call and counted only once the response bytes
    /// exist (a `/metrics` scrape never counts itself).
    pub metrics: Option<Arc<Metrics>>,
    /// Structured request log (one line per executed request).
    pub log: Option<Arc<RequestLog>>,
}

/// A ready, fully-parsed request handed to the worker pool.
struct Job {
    token: usize,
    generation: u64,
    request: http::Request,
}

/// A serialized response handed back to the reactor for nonblocking
/// write. Empty `bytes` means "write nothing" (an injected connection
/// drop); `close` forces the connection shut after the flush.
struct Done {
    token: usize,
    generation: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Read size per readiness event.
const READ_CHUNK: usize = 16 * 1024;
/// Timer-wheel granularity; idle reaping is accurate to ±one tick.
const WHEEL_TICK: Duration = Duration::from_millis(50);
/// Timer-wheel slots; deadlines beyond `WHEEL_TICK × WHEEL_SLOTS`
/// (51.2 s) cascade on wrap-around.
const WHEEL_SLOTS: usize = 1024;

/// One multiplexed connection and everything resumable about it.
struct Conn {
    stream: TcpStream,
    /// Resumable request decoder (partial line/header/body state).
    parser: RequestParser,
    /// Bytes read but not yet consumed by the parser — pipelined
    /// requests wait here while the current one executes.
    inbuf: Vec<u8>,
    /// The response being written, and how much of it already was.
    out: Vec<u8>,
    written: usize,
    /// A request is executing on the worker pool; reads pause.
    busy: bool,
    /// Close once `out` flushes (parse errors, `Connection: close`,
    /// drain, injected torn writes).
    close_after_flush: bool,
    /// The peer half-closed its write side. Responses already owed
    /// (and pipelined requests already buffered) still complete; the
    /// connection closes once nothing remains.
    read_closed: bool,
    /// Stale-event fence: slab tokens are reused, generations are not.
    generation: u64,
    /// Last transport progress (accepted / bytes read / bytes
    /// written); the timer wheel reaps against this.
    last_activity: Instant,
}

impl Conn {
    /// Poll for reads only between responses and while no request is
    /// in flight — serial HTTP semantics plus kernel-level
    /// backpressure against floods.
    fn wants_read(&self) -> bool {
        !self.busy && self.out.is_empty() && !self.read_closed
    }

    fn wants_write(&self) -> bool {
        self.written < self.out.len()
    }
}

/// A hashed timer wheel: O(1) arm, expiry amortized over ticks.
/// Entries are lazily cancelled — a fired `(token, generation)` that
/// no longer matches a live connection is simply ignored.
struct TimerWheel {
    slots: Vec<Vec<(usize, u64, Instant)>>,
    cursor: usize,
    /// Wall time of the current cursor slot's start.
    cursor_time: Instant,
    armed: usize,
}

impl TimerWheel {
    fn new(now: Instant) -> Self {
        Self {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            cursor_time: now,
            armed: 0,
        }
    }

    /// Arms `(token, generation)` to fire at `deadline` (never in the
    /// current slot: the minimum delay is one tick).
    fn arm(&mut self, deadline: Instant, token: usize, generation: u64) {
        let ahead = deadline.saturating_duration_since(self.cursor_time);
        let ticks = (ahead.as_nanos() / WHEEL_TICK.as_nanos()).max(1) as usize;
        let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push((token, generation, deadline));
        self.armed += 1;
    }

    /// Advances the cursor up to `now`, returning every due entry.
    /// Entries whose deadline is still ahead (cascaded long timers)
    /// are re-armed instead of fired.
    fn expired(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let mut fired = Vec::new();
        while now.saturating_duration_since(self.cursor_time) >= WHEEL_TICK {
            self.cursor_time += WHEEL_TICK;
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            let due = std::mem::take(&mut self.slots[self.cursor]);
            self.armed -= due.len();
            for (token, generation, deadline) in due {
                if deadline <= now {
                    fired.push((token, generation));
                } else {
                    self.arm(deadline, token, generation);
                }
            }
        }
        fired
    }

    /// How long `poll` may sleep before the next slot with entries is
    /// due. `None` when nothing is armed (sleep until a waker byte).
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        for ahead in 1..=WHEEL_SLOTS {
            if !self.slots[(self.cursor + ahead) % WHEEL_SLOTS].is_empty() {
                let due = self.cursor_time + WHEEL_TICK * ahead as u32;
                return Some(due.saturating_duration_since(now).max(WHEEL_TICK / 5));
            }
        }
        None
    }
}

/// The reactor front door. Owns the listener and every connection;
/// `handler` routes one decoded request to `(status, body,
/// retry_after)` on a worker thread; `begin_drain` runs exactly once,
/// on the loop iteration that observes the shutdown flag, *before* any
/// connection is torn down (so refused requests see drain 503s, not
/// resets). Returns once every connection is closed and all workers
/// have exited — the caller then runs the manager's persistence drain
/// with no request racing it.
///
/// `wake_rx`/`wake_tx` are the two ends of a `UnixStream::pair`: the
/// loop polls `wake_rx`; [`crate::server::ServerHandle::shutdown`] and
/// the workers (on completion) write a byte to `wake_tx`.
pub(crate) fn serve<F>(
    listener: TcpListener,
    wake_rx: &UnixStream,
    wake_tx: &UnixStream,
    shutdown: &AtomicBool,
    config: Config,
    begin_drain: impl FnOnce(),
    handler: F,
) where
    F: Fn(&http::Request) -> (u16, String, Option<u64>) + Sync,
{
    let (job_tx, job_rx) = channel::<Job>();
    let (done_tx, done_rx) = channel::<Done>();
    let _ = wake_tx.set_nonblocking(true);
    let worker_count = config.workers;
    let worker_metrics = config.metrics.clone();
    let worker_log = config.log.clone();
    crossbeam::scope(|scope| {
        let workers = scope.spawn(|_| {
            run_workers(
                worker_count,
                job_rx,
                &handler,
                &done_tx,
                wake_tx,
                worker_metrics.as_deref(),
                worker_log.as_deref(),
            );
        });
        event_loop(
            listener,
            wake_rx,
            shutdown,
            config,
            begin_drain,
            job_tx,
            &done_rx,
        );
        workers.join().expect("reactor worker pool");
    })
    .expect("reactor scope");
}

/// The worker side: drain ready requests, route them, serialize the
/// response, record metrics and the structured log line, hand the
/// bytes back, nudge the reactor awake.
fn run_workers<F>(
    workers: usize,
    jobs: Receiver<Job>,
    handler: &F,
    done_tx: &Sender<Done>,
    waker: &UnixStream,
    metrics_reg: Option<&Metrics>,
    log: Option<&RequestLog>,
) where
    F: Fn(&http::Request) -> (u16, String, Option<u64>) + Sync,
{
    pool::run_pool(workers, jobs, |job: Job| {
        let keep_alive = job.request.keep_alive;
        let route = Route::classify(&job.request.method, &job.request.path);
        let started = Instant::now();
        let (status, body, retry_after) = handler(&job.request);
        let mut extra: Vec<(&str, String)> = Vec::new();
        if let Some(secs) = retry_after {
            extra.push(("Retry-After", secs.to_string()));
        }
        // Everything the service answers is JSON except a successful
        // metrics scrape, which speaks the Prometheus text format.
        let content_type = if route == Route::Metrics && status == 200 {
            "text/plain; version=0.0.4"
        } else {
            "application/json"
        };
        // Failpoint `conn.write`: the response dies *after* the
        // manager already applied the operation — torn sends a prefix,
        // drop sends nothing, and either way the connection closes, so
        // the client's lost-response retry path is exercised.
        #[cfg(feature = "fault-injection")]
        let injected = crate::fault::check(crate::fault::site::CONN_WRITE);
        #[cfg(not(feature = "fault-injection"))]
        let injected: Option<crate::fault::FaultAction> = None;
        let done = match injected {
            Some(crate::fault::FaultAction::Crash) => std::process::abort(),
            Some(crate::fault::FaultAction::Torn(n)) => {
                let mut bytes =
                    http::format_response_with(status, &body, keep_alive, content_type, &extra);
                bytes.truncate(n);
                Done {
                    token: job.token,
                    generation: job.generation,
                    bytes,
                    close: true,
                }
            }
            Some(_) => Done {
                token: job.token,
                generation: job.generation,
                bytes: Vec::new(),
                close: true,
            },
            None => Done {
                token: job.token,
                generation: job.generation,
                bytes: http::format_response_with(status, &body, keep_alive, content_type, &extra),
                close: !keep_alive,
            },
        };
        // Counted only now, with the response bytes already built: a
        // /metrics scrape observes every request but its own, so the
        // scraped totals reconcile exactly with client-side truth.
        let elapsed = started.elapsed();
        if let Some(reg) = metrics_reg {
            reg.record_request(route, status, elapsed.as_nanos() as u64, body.len() as u64);
        }
        if let Some(log) = log {
            if log.would_log(status) {
                let identity = request_identity(route, &job.request);
                log.record(&metrics::LogEntry {
                    unix_millis: metrics::unix_millis_now(),
                    route: route.name(),
                    tenant: identity.tenant.as_deref(),
                    session: identity.session.as_deref(),
                    status,
                    bytes: body.len() as u64,
                    micros: elapsed.as_micros() as u64,
                    worker: metrics::worker_id(),
                });
            }
        }
        if done_tx.send(done).is_ok() {
            // A full waker pipe already guarantees a wake-up; ignore
            // WouldBlock (and a torn-down reactor) here.
            let mut waker = waker;
            let _ = waker.write(&[1]);
        }
    });
}

/// Who a request was about, for log lines. Session ids normally sit in
/// the path; a create carries both its id and tenant in the body.
#[derive(Default)]
struct RequestIdentity {
    session: Option<String>,
    tenant: Option<String>,
}

fn request_identity(route: Route, request: &http::Request) -> RequestIdentity {
    if route == Route::SessionCreate {
        let Some(spec) = std::str::from_utf8(&request.body)
            .ok()
            .and_then(|text| crate::json::parse(text).ok())
        else {
            return RequestIdentity::default();
        };
        let field = |key: &str| spec.get(key).and_then(|v| v.as_str()).map(str::to_string);
        return RequestIdentity {
            session: field("id"),
            tenant: field("tenant"),
        };
    }
    RequestIdentity {
        session: metrics::session_id_of(&request.path).map(str::to_string),
        tenant: None,
    }
}

/// Everything the event-loop thread owns.
struct Loop {
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_generation: u64,
    wheel: TimerWheel,
    idle_timeout: Duration,
    draining: bool,
    job_tx: Option<Sender<Job>>,
    /// Gauge/counter home for connection-lifecycle observability.
    metrics: Option<Arc<Metrics>>,
}

fn event_loop(
    listener: TcpListener,
    wake_rx: &UnixStream,
    shutdown: &AtomicBool,
    config: Config,
    begin_drain: impl FnOnce(),
    job_tx: Sender<Job>,
    done_rx: &Receiver<Done>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let _ = wake_rx.set_nonblocking(true);
    let mut listener = Some(listener);
    let mut begin_drain = Some(begin_drain);
    let mut state = Loop {
        slab: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_generation: 0,
        wheel: TimerWheel::new(Instant::now()),
        idle_timeout: config.idle_timeout,
        draining: false,
        job_tx: Some(job_tx),
        metrics: config.metrics.clone(),
    };
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<usize> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) && !state.draining {
            state.draining = true;
            if let Some(hook) = begin_drain.take() {
                hook();
            }
            // Stop accepting: pending backlog connections are reset.
            listener = None;
            // Idle connections close now; in-flight requests finish
            // their response write first.
            for token in 0..state.slab.len() {
                let close_now = match &mut state.slab[token] {
                    Some(conn) if conn.busy || conn.wants_write() => {
                        conn.close_after_flush = true;
                        false
                    }
                    Some(_) => true,
                    None => false,
                };
                if close_now {
                    state.close(token);
                }
            }
        }
        if state.draining && state.live == 0 {
            // Dropping the job sender lets the workers drain and exit.
            state.job_tx = None;
            return;
        }

        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        let listener_at = listener.as_ref().map(|l| {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            fds.len() - 1
        });
        let conns_at = fds.len();
        for (token, slot) in state.slab.iter().enumerate() {
            if let Some(conn) = slot {
                let mut events = 0;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    tokens.push(token);
                }
            }
        }

        let timeout = state.wheel.next_timeout(Instant::now());
        if polling::wait(&mut fds, timeout).is_err() {
            // poll(2) failing is unrecoverable for the loop: fall into
            // the drain path with what we hold rather than spin.
            shutdown.store(true, Ordering::SeqCst);
            continue;
        }

        if fds[0].readable() {
            if let Some(reg) = &state.metrics {
                reg.waker_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            drain_waker(wake_rx);
        }
        while let Ok(done) = done_rx.try_recv() {
            state.complete(done);
        }
        if let (Some(at), Some(l)) = (listener_at, listener.as_ref()) {
            if fds[at].readable() {
                state.accept_all(l);
            }
        }
        for (i, &token) in tokens.iter().enumerate() {
            let fd = fds[conns_at + i];
            if fd.writable() && state.slab[token].is_some() {
                state.on_writable(token);
            }
            if fd.readable() && state.slab[token].is_some() {
                state.on_readable(token);
            }
        }
        let now = Instant::now();
        for (token, generation) in state.wheel.expired(now) {
            state.on_timer(token, generation, now);
        }
    }
}

fn drain_waker(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    let mut wake_rx = wake_rx;
    while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
}

/// What [`Loop::drive_parser`] decided about the buffered bytes.
enum ParseStep {
    Dispatch(http::Request, u64),
    Reject(u16, &'static str),
    Kill,
}

impl Loop {
    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.register(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient (ECONNABORTED, EMFILE, ...): retry on the
                // next readiness round instead of spinning here.
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let now = Instant::now();
        self.next_generation += 1;
        let conn = Conn {
            stream,
            parser: RequestParser::new(),
            inbuf: Vec::new(),
            out: Vec::new(),
            written: 0,
            busy: false,
            close_after_flush: false,
            read_closed: false,
            generation: self.next_generation,
            last_activity: now,
        };
        let token = match self.free.pop() {
            Some(token) => {
                self.slab[token] = Some(conn);
                token
            }
            None => {
                self.slab.push(Some(conn));
                self.slab.len() - 1
            }
        };
        self.live += 1;
        if let Some(reg) = &self.metrics {
            reg.connections_open.fetch_add(1, Ordering::Relaxed);
            reg.slab_high_water
                .fetch_max(self.slab.len() as u64, Ordering::Relaxed);
        }
        self.wheel
            .arm(now + self.idle_timeout, token, self.next_generation);
    }

    fn close(&mut self, token: usize) {
        if self.slab[token].take().is_some() {
            self.live -= 1;
            self.free.push(token);
            if let Some(reg) = &self.metrics {
                reg.connections_open.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn on_readable(&mut self, token: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.drive_parser(token);
        self.check_read_closed(token);
    }

    /// Feeds buffered bytes to the resumable parser: dispatch at most
    /// one request (serial per connection), or reject the message.
    fn drive_parser(&mut self, token: usize) {
        let step = {
            let draining = self.draining;
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            if conn.busy
                || !conn.out.is_empty()
                || conn.close_after_flush
                || draining
                || conn.inbuf.is_empty()
            {
                return;
            }
            match conn.parser.feed(&conn.inbuf) {
                Ok((consumed, Parsed::NeedMore)) => {
                    conn.inbuf.drain(..consumed);
                    return;
                }
                Ok((consumed, Parsed::Complete(request))) => {
                    conn.inbuf.drain(..consumed);
                    ParseStep::Dispatch(request, conn.generation)
                }
                Err(http::HttpError::TooLarge(what)) => ParseStep::Reject(413, what),
                Err(http::HttpError::Malformed(why)) => ParseStep::Reject(400, why),
                Err(_) => ParseStep::Kill,
            }
        };
        match step {
            ParseStep::Dispatch(request, generation) => {
                // Failpoint `conn.read`: the request is discarded
                // before it reaches the manager — the client sees a
                // dead connection and must retry an operation that was
                // never applied.
                #[cfg(feature = "fault-injection")]
                if let Some(action) = crate::fault::check(crate::fault::site::CONN_READ) {
                    match action {
                        crate::fault::FaultAction::Crash => std::process::abort(),
                        _ => {
                            self.close(token);
                            return;
                        }
                    }
                }
                if let Some(conn) = &mut self.slab[token] {
                    conn.busy = true;
                }
                let job = Job {
                    token,
                    generation,
                    request,
                };
                let sent = self.job_tx.as_ref().is_some_and(|tx| tx.send(job).is_ok());
                if !sent {
                    self.close(token);
                }
            }
            ParseStep::Reject(status, msg) => {
                self.respond(
                    token,
                    http::format_response(status, &api::error_body(msg), false, &[]),
                    true,
                );
            }
            ParseStep::Kill => self.close(token),
        }
    }

    /// Settles a half-closed connection once nothing is owed: the
    /// parser's end-of-stream verdict is the blocking decoder's —
    /// clean [`http::HttpError::Closed`] between messages, a
    /// best-effort 400 when the peer died mid-message.
    fn check_read_closed(&mut self, token: usize) {
        let verdict = {
            let Some(conn) = &self.slab[token] else {
                return;
            };
            if !conn.read_closed || conn.busy || !conn.out.is_empty() || !conn.inbuf.is_empty() {
                return;
            }
            conn.parser.eof()
        };
        match verdict {
            http::HttpError::Malformed(why) => {
                self.respond(
                    token,
                    http::format_response(400, &api::error_body(why), false, &[]),
                    true,
                );
            }
            _ => self.close(token),
        }
    }

    /// A worker finished a request: stage the serialized response (or
    /// the injected absence of one) for nonblocking write.
    fn complete(&mut self, done: Done) {
        let injected_drop = {
            let Some(conn) = &mut self.slab[done.token] else {
                return; // connection died while the request executed
            };
            if conn.generation != done.generation {
                return; // token was reused; response belongs to a ghost
            }
            conn.busy = false;
            done.bytes.is_empty()
        };
        if injected_drop {
            // The operation was applied; the response evaporates.
            self.close(done.token);
            return;
        }
        self.respond(done.token, done.bytes, done.close);
    }

    /// Stages `bytes` as the connection's response and attempts the
    /// write immediately (most responses flush in one syscall without
    /// another poll round).
    fn respond(&mut self, token: usize, bytes: Vec<u8>, close: bool) {
        {
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            debug_assert!(conn.out.is_empty(), "one response at a time");
            conn.out = bytes;
            conn.written = 0;
            conn.close_after_flush |= close;
        }
        self.on_writable(token);
    }

    /// Resumes a partial response write; on completion either closes
    /// or re-enters keep-alive (and parses any pipelined bytes already
    /// buffered).
    fn on_writable(&mut self, token: usize) {
        enum Outcome {
            Flushed,
            Pending,
            Dead,
        }
        let outcome = {
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            loop {
                if conn.written >= conn.out.len() {
                    let _ = conn.stream.flush();
                    conn.out = Vec::new();
                    conn.written = 0;
                    conn.last_activity = Instant::now();
                    break Outcome::Flushed;
                }
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => break Outcome::Dead,
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break Outcome::Pending,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // A half-written response cannot be resumed on a
                    // broken transport and must never be followed by
                    // another response: the connection dies here.
                    Err(_) => break Outcome::Dead,
                }
            }
        };
        match outcome {
            Outcome::Pending => {}
            Outcome::Dead => self.close(token),
            Outcome::Flushed => {
                let (close_now, deadline, generation) = {
                    let Some(conn) = &self.slab[token] else {
                        return;
                    };
                    (
                        conn.close_after_flush,
                        conn.last_activity + self.idle_timeout,
                        conn.generation,
                    )
                };
                if close_now || self.draining {
                    self.close(token);
                    return;
                }
                self.wheel.arm(deadline, token, generation);
                self.drive_parser(token);
                self.check_read_closed(token);
            }
        }
    }

    /// A timer fired for `(token, generation)`: reap if the connection
    /// has genuinely stalled, otherwise re-arm for the remainder.
    fn on_timer(&mut self, token: usize, generation: u64, now: Instant) {
        let rearm_at = {
            let Some(conn) = &self.slab[token] else {
                return;
            };
            if conn.generation != generation {
                return;
            }
            if conn.busy {
                // The server owes a response; the executor's latency
                // is not the peer's idleness. Check again in a while.
                Some(now + self.idle_timeout)
            } else {
                let deadline = conn.last_activity + self.idle_timeout;
                if now >= deadline {
                    // Idle past the keep-alive deadline, or stalled
                    // mid-message / mid-response with no transport
                    // progress for a full timeout: reclaim the fd.
                    None
                } else {
                    Some(deadline)
                }
            }
        };
        match rearm_at {
            Some(deadline) => self.wheel.arm(deadline, token, generation),
            None => {
                if let Some(reg) = &self.metrics {
                    reg.timer_reaps.fetch_add(1, Ordering::Relaxed);
                }
                self.close(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_once_due_and_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.arm(t0 + Duration::from_millis(120), 3, 7);
        assert!(wheel.expired(t0 + Duration::from_millis(60)).is_empty());
        assert_eq!(
            wheel.expired(t0 + Duration::from_millis(200)),
            vec![(3, 7)],
            "due entries fire exactly once"
        );
        assert!(wheel.expired(t0 + Duration::from_millis(400)).is_empty());
        assert_eq!(wheel.armed, 0);
    }

    #[test]
    fn wheel_cascades_deadlines_beyond_the_span() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        let far = WHEEL_TICK * (WHEEL_SLOTS as u32 * 2);
        wheel.arm(t0 + far, 1, 1);
        // Sweeping half the horizon must re-arm (cascade), not fire.
        assert!(wheel.expired(t0 + far / 2).is_empty());
        assert_eq!(wheel.armed, 1);
        assert_eq!(wheel.expired(t0 + far + WHEEL_TICK), vec![(1, 1)]);
    }

    #[test]
    fn wheel_sleeps_toward_the_nearest_entry() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        assert_eq!(
            wheel.next_timeout(t0),
            None,
            "nothing armed: sleep on waker"
        );
        wheel.arm(t0 + Duration::from_millis(500), 0, 1);
        wheel.arm(t0 + Duration::from_millis(150), 1, 2);
        let sleep = wheel
            .next_timeout(t0)
            .expect("armed entries bound the sleep");
        assert!(
            sleep <= Duration::from_millis(200),
            "must wake near the 150 ms entry, got {sleep:?}"
        );
    }
}
