//! `hard-serve`: a long-running TCP race-detection service.
//!
//! The batch harness answers "what does HARD do on this corpus?";
//! this crate answers the production question the ROADMAP and the
//! HardRace line of work pose — race detection *as a service*. A
//! [`Server`] accepts framed `HARDCRP1` corpus streams (the exact
//! format `hard-exp record` writes and `hard-exp replay`
//! consumes) from concurrent clients and answers each session with a
//! structured JSON [`hard_harness::ReportBody`]. The server and the
//! offline replay run the same code: [`hard_harness::execute_streamed`]
//! is a [`hard_harness::StreamFeeder`] fed file chunks, and the server
//! feeds the same feeder wire chunks, whose split points cannot change
//! the result. So a served report is byte-identical to `hard-exp
//! replay` on the same file — CI diffs the two outputs directly.
//!
//! # Async, incremental architecture
//!
//! Since PR 10 the server is asynchronous end to end, built on the
//! in-tree [`hard_aio`] runtime (an epoll reactor plus a small task
//! executor — the registry-free stand-in for tokio):
//!
//! * **One multiplexed runtime** replaces the thread-per-connection
//!   model: every connection is a task, so ten thousand concurrent
//!   sessions cost ten thousand small state machines, not ten
//!   thousand OS threads.
//! * **Incremental detection**: each `Data` frame is fed straight
//!   into the session's [`hard_harness::StreamFeeder`] as it arrives.
//!   Per-session memory is one frame plus detector state — never the
//!   whole trace — and by the time `End` arrives most of the
//!   detection work is already done.
//! * **A detection gate** (an async semaphore with `workers` permits)
//!   bounds concurrent detector CPU. Sessions over the limit park
//!   without holding an executor thread; `workers + queue_depth`
//!   keeps its old meaning as the admission-control capacity behind
//!   `Busy` sheds and the `pool_load`/`pool_capacity` health fields.
//! * **A slow uploader holds nothing** but its own task: it parks in
//!   the reactor between frames while other sessions' chunks flow
//!   through the gate.
//!
//! Production concerns handled end to end:
//!
//! * **Framing** — the [`hard_trace::wire`] protocol: version-bearing
//!   handshake, length-prefixed frames reassembled by the push-style
//!   [`hard_trace::wire::FrameAssembler`], hostile length prefixes
//!   rejected before allocation.
//! * **Ingest verification** — the `HARDCRP1` header checksum and
//!   thread limit are checked as soon as the header bytes arrive,
//!   every record by [`hard_trace::Validator`] as it arrives, and the
//!   payload FNV after replay; a corrupt or malformed upload gets a
//!   client-visible `Error` frame at `End`, never a panic.
//! * **Limits** — [`ServeConfig`] bounds concurrent sessions, bytes
//!   per session, events per session, and global in-flight bytes.
//! * **Overload shedding** — admission control: a session arriving
//!   while the detection gate is saturated, the session slots are
//!   exhausted, or the in-flight byte budget is spent is answered
//!   with an explicit `Busy` frame carrying a retry-after hint, never
//!   left blocking.
//! * **Health probes** — a `Health` frame is answered with a JSON
//!   `Healthy` snapshot of the admission state (sessions, in-flight
//!   bytes, gate load, readiness) without starting a session.
//! * **Timeouts** — an idle client is cut off with an `Error` frame
//!   after [`ServeConfig::idle_timeout`]; response writes are bounded
//!   by the same clock, so a client that stops reading cannot wedge
//!   the drain.
//! * **Graceful shutdown** — a `Shutdown` frame (or `max_conns`)
//!   stops the accept loop; every open connection then receives an
//!   explicit verdict: sessions mid-upload get an `Error` frame,
//!   idle connections get `Bye`, and sessions whose `End` already
//!   arrived finish with their `Report`. No client is left staring at
//!   a silent close.
//! * **Observability** — `hard_serve_*` counters, in-flight gauges,
//!   per-stage latency histograms, and trace-tagged spans flow into
//!   the installed [`hard_obs`] recorder; the binary exposes them via
//!   `--serve-metrics` (plus `/healthz` for load balancers).
//! * **Session tracing** — every session carries a 64-bit trace ID
//!   (client-generated via the `Begin` extension, server-assigned
//!   otherwise) that is echoed on `Report`/`Error`/`Busy` payloads,
//!   tags the `serve:accept → handshake → upload → queue-wait →
//!   detect → render → flush` span timeline in the JSONL stream, keys
//!   the slow-session log, and labels the recent-session ring exposed
//!   to scrapers. Stage spans measured across many task polls (queue
//!   wait, incremental detect) are accumulated per session and
//!   emitted once at `End`, so the reconstructed timeline keeps its
//!   one-span-per-stage shape.
//!
//! # Example
//!
//! ```no_run
//! use hard_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })
//! .expect("bind");
//! println!("listening on {}", server.local_addr().expect("addr"));
//! server.run().expect("serve");
//! ```

#![warn(missing_docs)]

use hard_harness::corpus::{parse_header, StreamHeader, CORPUS_MAGIC};
use hard_harness::service::send_frame;
use hard_harness::{DetectorKind, ReportBody, StreamFeeder};
use hard_obs::{CounterId, Event, GaugeId, HistId, ObsHandle};
use hard_trace::codec::{fnv1a_update, FNV1A_INIT};
use hard_trace::wire::{
    decode_begin, encode_busy, encode_traced, read_handshake, write_handshake, FrameAssembler,
    FrameKind, WireError, MAX_FRAME_BYTES,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs and limits for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7140` (`:0` for an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Detection-gate permits: sessions running detector work
    /// concurrently. Also sizes the async executor (`workers + 2`
    /// threads, so I/O keeps flowing while every permit is busy).
    pub workers: usize,
    /// Sessions that may wait at the detection gate beyond the
    /// running ones before new sessions are shed with a `Busy` frame
    /// (the overload bound).
    pub queue_depth: usize,
    /// Concurrent client sessions; further connections are answered
    /// with a `Busy` frame and closed.
    pub max_sessions: usize,
    /// Upload bytes one session may send.
    pub max_session_bytes: u64,
    /// Events one session's trace may contain.
    pub max_session_events: u64,
    /// Upload bytes admitted across *all* in-flight sessions;
    /// connections that would exceed it are shed with a `Busy` frame.
    pub max_inflight_bytes: u64,
    /// How long a connection may sit idle between received bytes
    /// before it is cut off with an `Error` frame. Also bounds each
    /// response write, so a client that stops reading cannot stall
    /// the shutdown drain.
    pub idle_timeout: Duration,
    /// Answer a repeated upload (same detector, same bytes) from an
    /// in-memory report cache instead of re-running detection. Hit
    /// and miss responses are byte-identical; hits show up only in
    /// the `hard_serve_cache_hits_total` counter. (With incremental
    /// detection the content key is only complete at `End`, so a hit
    /// discards already-done work — the win is response identity and
    /// attribution, not saved cycles.)
    pub report_cache: bool,
    /// Exit the accept loop after this many accepted connections
    /// (used by CI and tests; `None` serves until a `Shutdown`
    /// frame).
    pub max_conns: Option<usize>,
    /// The retry-after hint carried by `Busy` shed frames.
    pub busy_retry_after: Duration,
    /// Sessions whose `Begin`→response wall time exceeds this
    /// threshold bump `hard_serve_slow_sessions_total`, emit a
    /// `slow_session` JSONL event, and are logged to stderr keyed by
    /// trace ID. `None` disables the check.
    pub slow_session: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7140".into(),
            workers: 2,
            queue_depth: 8,
            max_sessions: 32,
            max_session_bytes: 256 << 20,
            max_session_events: 1 << 26,
            max_inflight_bytes: 1 << 30,
            idle_timeout: Duration::from_secs(30),
            report_cache: true,
            max_conns: None,
            busy_retry_after: Duration::from_millis(250),
            slow_session: None,
        }
    }
}

/// Report-cache entries kept before the cache is flushed wholesale
/// (bounding memory without LRU bookkeeping — uploads are large and
/// repeats are bursty, so a flush is cheap relative to one session).
const REPORT_CACHE_CAP: usize = 256;

/// Completed sessions retained in the recent-session ring behind
/// [`ServeStats::recent_sessions`] (the binary renders them as
/// trace-labelled scrape samples).
const RECENT_SESSIONS_CAP: usize = 512;

/// Socket-read chunk size. This, plus one reassembled frame, bounds a
/// connection's buffering — the "memory per session is one chunk"
/// claim (detector state aside).
const READ_CHUNK: usize = 64 << 10;

/// How long an over-capacity connection waits for vacating sessions
/// to finish their bookkeeping before it is shed. A client that
/// closes one connection and immediately opens the next can reach the
/// server ahead of the closed session's cleanup task (on a single-CPU
/// host the cleanup sits runnable for a scheduler quantum); without
/// the grace it would be bounced off its own just-freed slot.
const ADMIT_GRACE: Duration = Duration::from_millis(25);

/// Cadence of the admission-grace and health-settle re-checks. Each
/// tick parks the task, which on a saturated scheduler is exactly
/// what lets the vacating sessions' cleanup run.
const SETTLE_TICK: Duration = Duration::from_millis(1);

/// Bound on the pre-snapshot settle of a `Health` probe: while the
/// session count is still falling, the snapshot waits (up to this
/// long) so just-closed sessions are not reported as active.
const HEALTH_SETTLE: Duration = Duration::from_millis(10);

/// One completed session in the recent-session ring.
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// The session's trace ID (client-supplied or server-assigned).
    pub trace: u64,
    /// How the session ended: `"report"` (fresh detection), `"cache"`
    /// (report-cache hit), `"error"`, or `"busy"`.
    pub verdict: &'static str,
    /// Wall time from `Begin` receipt to the response, in µs.
    pub wall_us: u64,
}

/// A cached report body, tagged with the trace ID of the session that
/// produced it so hits stay attributable after the creator is gone.
struct CachedReport {
    body: String,
    origin_trace: u64,
}

/// Bounds concurrent detector CPU without dedicated worker threads:
/// an async semaphore whose `load` (running + waiting sessions)
/// drives the same saturation shed the old bounded pool did.
struct DetectGate {
    sem: hard_aio::Semaphore,
    load: AtomicUsize,
    capacity: usize,
}

impl DetectGate {
    fn new(workers: usize, queue_depth: usize) -> DetectGate {
        DetectGate {
            sem: hard_aio::Semaphore::new(workers),
            load: AtomicUsize::new(0),
            capacity: workers + queue_depth,
        }
    }

    /// Sessions running or waiting to run detector work.
    fn load(&self) -> usize {
        self.load.load(Ordering::Acquire)
    }

    /// `workers + queue_depth`, the admission-control bound.
    fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shed signal: the gate cannot take another session's work
    /// without the wait queue growing past the configured depth.
    fn is_saturated(&self) -> bool {
        self.load() >= self.capacity
    }
}

struct Shared {
    cfg: ServeConfig,
    obs: ObsHandle,
    shutdown: AtomicBool,
    /// The async shutdown broadcast: set together with `shutdown`,
    /// wakes every task parked on a read so it can deliver its
    /// explicit `Error`/`Bye` verdict.
    stop: hard_aio::Event,
    active_sessions: AtomicUsize,
    inflight_bytes: AtomicU64,
    gate: DetectGate,
    report_cache: Mutex<HashMap<u64, CachedReport>>,
    /// Sequence behind server-assigned trace IDs (splitmix-scrambled
    /// so assigned IDs spread across the space without a clock or
    /// RNG).
    trace_seq: AtomicU64,
    /// Ring of recently completed sessions, oldest first.
    recent: Mutex<VecDeque<SessionSummary>>,
}

/// Releases a session's global in-flight byte reservation on drop, so
/// every exit path — clean report, error frame, client disconnect,
/// task teardown — returns its budget.
struct InflightGuard {
    shared: Arc<Shared>,
    held: u64,
}

impl InflightGuard {
    fn new(shared: Arc<Shared>) -> InflightGuard {
        InflightGuard { shared, held: 0 }
    }

    /// Reserves `n` more bytes against the global budget.
    fn grow(&mut self, n: u64) -> Result<(), String> {
        let prev = self.shared.inflight_bytes.fetch_add(n, Ordering::Relaxed);
        if prev + n > self.shared.cfg.max_inflight_bytes {
            self.shared.inflight_bytes.fetch_sub(n, Ordering::Relaxed);
            return Err(format!(
                "server in-flight budget exhausted ({} bytes)",
                self.shared.cfg.max_inflight_bytes
            ));
        }
        self.held += n;
        self.shared
            .obs
            .gauge_add(GaugeId::ServeInflightBytes, clamp_i64(n));
        Ok(())
    }

    /// Returns the whole reservation (used between sessions on one
    /// connection).
    fn release(&mut self) {
        self.shared
            .inflight_bytes
            .fetch_sub(self.held, Ordering::Relaxed);
        self.shared
            .obs
            .gauge_sub(GaugeId::ServeInflightBytes, clamp_i64(self.held));
        self.held = 0;
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.release();
    }
}

/// The `hard-serve` TCP server.
pub struct Server {
    listener: std::net::TcpListener,
    shared: Arc<Shared>,
    runtime: hard_aio::Runtime,
}

/// A cloneable view of a server's admission accounting, usable while
/// (and after) [`Server::run`] consumes the server. Tests use it to
/// assert that session slots and the in-flight byte budget drain back
/// to zero — the no-leak half of the chaos invariant.
#[derive(Clone)]
pub struct ServeStats {
    shared: Arc<Shared>,
}

impl ServeStats {
    /// Sessions currently holding a slot.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.shared.active_sessions.load(Ordering::Relaxed)
    }

    /// Upload bytes currently reserved against the global budget.
    #[must_use]
    pub fn inflight_bytes(&self) -> u64 {
        self.shared.inflight_bytes.load(Ordering::Relaxed)
    }

    /// Sessions running or waiting at the detection gate.
    #[must_use]
    pub fn pool_load(&self) -> usize {
        self.shared.gate.load()
    }

    /// The most recently completed sessions, oldest first, each
    /// carrying its trace ID, verdict, and wall time. Bounded by an
    /// internal ring; the binary renders these as trace-labelled
    /// `hard_serve_recent_session` scrape samples.
    #[must_use]
    pub fn recent_sessions(&self) -> Vec<SessionSummary> {
        self.shared
            .recent
            .lock()
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Whether the server would admit a new session right now — the
    /// same readiness predicate `Health` frames report, usable by the
    /// `/healthz` HTTP probe.
    #[must_use]
    pub fn ready(&self) -> bool {
        readiness(
            &self.shared,
            self.shared.active_sessions.load(Ordering::Relaxed),
        )
    }

    /// The admission snapshot as JSON — the same body a `Healthy`
    /// frame carries, except no probing connection's slot is excluded
    /// (an HTTP probe does not hold one).
    #[must_use]
    pub fn health_json(&self) -> String {
        health_snapshot(&self.shared, false)
    }
}

impl Server {
    /// Binds the listener and spawns the async runtime (`workers + 2`
    /// executor threads plus the process-wide reactor).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = std::net::TcpListener::bind(&cfg.addr)?;
        let workers = cfg.workers.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        // Two threads beyond the permit count keep connection I/O
        // moving while every permit runs detector CPU inline.
        let runtime = hard_aio::Runtime::new(workers + 2);
        Ok(Server {
            listener,
            runtime,
            shared: Arc::new(Shared {
                obs: hard_obs::installed(),
                shutdown: AtomicBool::new(false),
                stop: hard_aio::Event::new(),
                active_sessions: AtomicUsize::new(0),
                inflight_bytes: AtomicU64::new(0),
                gate: DetectGate::new(workers, queue_depth),
                report_cache: Mutex::new(HashMap::new()),
                trace_seq: AtomicU64::new(0),
                recent: Mutex::new(VecDeque::new()),
                cfg,
            }),
        })
    }

    /// The bound address (reports the kernel-chosen port after an
    /// `:0` bind).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Concurrent sessions currently open (for tests asserting that
    /// none leak).
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.shared.active_sessions.load(Ordering::Relaxed)
    }

    /// A cloneable accounting view that outlives [`Server::run`].
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until a client sends `Shutdown` or
    /// `max_conns` connections have been accepted, then drains: every
    /// open connection receives an explicit verdict (`Report` for
    /// sessions past `End`, `Error` for sessions mid-upload, `Bye`
    /// for idle connections), their tasks finish, and the runtime is
    /// torn down.
    ///
    /// # Errors
    ///
    /// Returns fatal accept-loop errors; per-connection failures are
    /// answered on that connection and never take the server down.
    pub fn run(self) -> Result<(), String> {
        let Server {
            listener,
            shared,
            runtime,
        } = self;
        let listener =
            hard_aio::TcpListener::from_std(listener).map_err(|e| format!("accept failed: {e}"))?;
        let handle = runtime.handle();
        let accept_done = Arc::new(hard_aio::Event::new());
        let fatal: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        {
            let shared = Arc::clone(&shared);
            let accept_done = Arc::clone(&accept_done);
            let fatal = Arc::clone(&fatal);
            let conn_handle = handle.clone();
            runtime.spawn(async move {
                let mut accepted = 0usize;
                loop {
                    if shared.shutdown.load(Ordering::Relaxed)
                        || shared.cfg.max_conns.is_some_and(|m| accepted >= m)
                    {
                        break;
                    }
                    match hard_aio::race(listener.accept(), shared.stop.wait()).await {
                        hard_aio::Either::Left(Ok((stream, _peer))) => {
                            accepted += 1;
                            shared.obs.counter(CounterId::ServeConnections, 1);
                            let shared = Arc::clone(&shared);
                            conn_handle.spawn(async move {
                                handle_connection(stream, shared).await;
                            });
                        }
                        hard_aio::Either::Left(Err(e))
                            if e.kind() == std::io::ErrorKind::Interrupted => {}
                        hard_aio::Either::Left(Err(e)) => {
                            if let Ok(mut f) = fatal.lock() {
                                *f = Some(format!("accept failed: {e}"));
                            }
                            // A dead listener still drains politely:
                            // open connections get their verdicts.
                            shared.stop.set();
                            break;
                        }
                        hard_aio::Either::Right(()) => break,
                    }
                }
                accept_done.set();
            });
        }
        // Drain: the accept task has exited and every connection task
        // has delivered its verdict and finished.
        while !(accept_done.is_set() && handle.live_tasks() == 0) {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(runtime);
        if let Some(e) = fatal.lock().ok().and_then(|mut f| f.take()) {
            return Err(e);
        }
        Ok(())
    }
}

/// Waits (up to `grace`) for the admitted-session count to fall to
/// `limit` or below, parking between re-checks so vacating sessions'
/// cleanup tasks get scheduled. Returns whether the count settled
/// within the bound. Aborts early once the stop broadcast fires — a
/// draining server sheds straight away instead of stalling verdicts.
async fn settle_below(shared: &Arc<Shared>, limit: usize, grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    loop {
        if shared.active_sessions.load(Ordering::Relaxed) <= limit {
            return true;
        }
        if Instant::now() >= deadline || shared.stop.is_set() {
            return false;
        }
        hard_aio::sleep(SETTLE_TICK).await;
    }
}

/// Lets a *falling* session count settle before a health snapshot, so
/// sessions whose sockets already closed (cleanup still queued behind
/// this probe on the scheduler) are not reported as active. A stable
/// or rising count returns immediately; an idle server (just the
/// probe itself) skips the wait entirely.
async fn settle_health(shared: &Arc<Shared>) {
    let deadline = Instant::now() + HEALTH_SETTLE;
    let mut last = shared.active_sessions.load(Ordering::Relaxed);
    while last > 1 && Instant::now() < deadline {
        hard_aio::sleep(SETTLE_TICK).await;
        let cur = shared.active_sessions.load(Ordering::Relaxed);
        if cur >= last {
            return;
        }
        last = cur;
    }
}

/// Decrements the active-session count and gauge on every exit path.
struct SessionSlot<'a>(&'a Shared);

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::Relaxed);
        self.0.obs.gauge_sub(GaugeId::ServeActiveSessions, 1);
    }
}

/// Wall times measured before the first `Begin`, when no trace ID
/// exists yet. The session loop replays them as traced spans once the
/// first session opens, so the reconstructed timeline starts at
/// accept.
struct PreSession {
    accept: Duration,
    handshake: Duration,
}

/// What the frame pump produced.
enum NextFrame {
    /// A complete frame.
    Frame(hard_trace::wire::Frame),
    /// No bytes arrived within the idle window.
    Timeout,
    /// The peer closed (or the socket failed) — nobody left to talk
    /// to.
    Disconnect,
    /// The peer sent bytes the protocol rejects.
    Bad(WireError),
    /// The server's stop event fired while waiting.
    Stopped,
}

/// Pumps socket bytes through the [`FrameAssembler`] until a frame,
/// an idle timeout, a disconnect, or the stop broadcast. Every read
/// that makes progress refreshes the idle clock, mirroring the old
/// per-read socket timeout (a slow-loris drip keeps its connection,
/// but silence is cut off).
async fn next_frame(
    stream: &hard_aio::TcpStream,
    asm: &mut FrameAssembler,
    rbuf: &mut [u8],
    frame_cap: u32,
    idle: Duration,
    stop: &hard_aio::Event,
) -> NextFrame {
    loop {
        match asm.next_frame(frame_cap) {
            Ok(Some(f)) => return NextFrame::Frame(f),
            Ok(None) => {}
            Err(e) => return NextFrame::Bad(e),
        }
        if stop.is_set() {
            return NextFrame::Stopped;
        }
        let deadline = Instant::now() + idle;
        match hard_aio::race(stream.read(rbuf, Some(deadline)), stop.wait()).await {
            hard_aio::Either::Left(Ok(0)) => return NextFrame::Disconnect,
            hard_aio::Either::Left(Ok(n)) => asm.push(&rbuf[..n]),
            hard_aio::Either::Left(Err(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                return NextFrame::Timeout
            }
            hard_aio::Either::Left(Err(_)) => return NextFrame::Disconnect,
            hard_aio::Either::Right(()) => return NextFrame::Stopped,
        }
    }
}

/// How reading the client's 8 handshake bytes ended.
enum Handshake {
    /// Magic matched; any surplus bytes were pushed to the assembler.
    Ok,
    /// Eight bytes arrived but they are not the protocol magic.
    BadMagic(WireError),
    /// Disconnect, I/O failure, or idle timeout before eight bytes.
    Gone,
    /// The stop broadcast fired first.
    Stopped,
}

async fn read_client_handshake(
    stream: &hard_aio::TcpStream,
    asm: &mut FrameAssembler,
    rbuf: &mut [u8],
    idle: Duration,
    stop: &hard_aio::Event,
) -> Handshake {
    let mut got: Vec<u8> = Vec::with_capacity(16);
    while got.len() < 8 {
        let deadline = Instant::now() + idle;
        match hard_aio::race(stream.read(rbuf, Some(deadline)), stop.wait()).await {
            hard_aio::Either::Left(Ok(0)) | hard_aio::Either::Left(Err(_)) => {
                return Handshake::Gone
            }
            hard_aio::Either::Left(Ok(n)) => got.extend_from_slice(&rbuf[..n]),
            hard_aio::Either::Right(()) => return Handshake::Stopped,
        }
    }
    // A pipelining client may send frames in the same packet as its
    // handshake; hand the surplus to the frame assembler.
    asm.push(&got[8..]);
    match read_handshake(&mut std::io::Cursor::new(&got[..8])) {
        Ok(()) => Handshake::Ok,
        Err(e) => Handshake::BadMagic(e),
    }
}

async fn handle_connection(stream: hard_aio::TcpStream, shared: Arc<Shared>) {
    let conn_start = Instant::now();
    let obs = shared.obs.clone();
    let idle = shared.cfg.idle_timeout;
    let mut asm = FrameAssembler::new();
    let mut rbuf = vec![0u8; READ_CHUNK];

    // Capacity gate before any protocol work: a connection beyond the
    // session limit gets the handshake echo (so the client's reader is
    // in a defined state) and a Busy shed with a retry-after hint.
    let prev = shared.active_sessions.fetch_add(1, Ordering::Relaxed);
    obs.gauge_add(GaugeId::ServeActiveSessions, 1);
    let _slot = SessionSlot(&shared);
    if prev >= shared.cfg.max_sessions
        && !settle_below(&shared, shared.cfg.max_sessions, ADMIT_GRACE).await
    {
        obs.counter(CounterId::ServeRejected, 1);
        let mut out = Vec::new();
        let _ = write_handshake(&mut out);
        push_busy(
            &mut out,
            &shared,
            &obs,
            None,
            ShedReason::Slots,
            &format!("server at capacity ({} sessions)", shared.cfg.max_sessions),
        );
        let _ = stream.write_all(&out, Some(Instant::now() + idle)).await;
        return;
    }

    let accept = conn_start.elapsed();
    let hs_start = Instant::now();
    match read_client_handshake(&stream, &mut asm, &mut rbuf, idle, &shared.stop).await {
        Handshake::Ok => {}
        Handshake::BadMagic(e) => {
            // Bad magic still gets a spec-shaped reply; a raw
            // disconnect gets nothing (there is no one to talk to).
            let mut out = Vec::new();
            let _ = write_handshake(&mut out);
            push_error(&mut out, &obs, None, &format!("handshake rejected: {e}"));
            let _ = stream.write_all(&out, Some(Instant::now() + idle)).await;
            return;
        }
        Handshake::Gone => {
            obs.counter(CounterId::ServeErrors, 1);
            return;
        }
        Handshake::Stopped => return,
    }
    let mut echo = Vec::new();
    let _ = write_handshake(&mut echo);
    if stream
        .write_all(&echo, Some(Instant::now() + idle))
        .await
        .is_err()
    {
        obs.counter(CounterId::ServeErrors, 1);
        return;
    }
    let handshake = hs_start.elapsed();
    obs.histogram(HistId::ServeStageHandshakeUs, as_us(handshake));

    run_session_loop(
        &stream,
        &shared,
        &obs,
        &mut asm,
        &mut rbuf,
        PreSession { accept, handshake },
    )
    .await;
}

/// One open session's identity: the detector it runs, the trace ID
/// every response/span/log line for it carries, and when it began.
struct SessionCtx {
    kind: DetectorKind,
    trace: u64,
    started: Instant,
}

async fn run_session_loop(
    stream: &hard_aio::TcpStream,
    shared: &Arc<Shared>,
    obs: &ObsHandle,
    asm: &mut FrameAssembler,
    rbuf: &mut [u8],
    pre: PreSession,
) {
    let idle = shared.cfg.idle_timeout;
    let mut session: Option<SessionCtx> = None;
    let mut ingest: Option<Ingest> = None;
    let mut pre = Some(pre);
    let mut guard = InflightGuard::new(Arc::clone(shared));
    let frame_cap = u32::try_from(shared.cfg.max_session_bytes.min(u64::from(MAX_FRAME_BYTES)))
        .unwrap_or(MAX_FRAME_BYTES);
    loop {
        let open_trace = session.as_ref().map(|s| s.trace);
        let frame = match next_frame(stream, asm, rbuf, frame_cap, idle, &shared.stop).await {
            NextFrame::Frame(f) => f,
            NextFrame::Timeout => {
                send_error(
                    stream,
                    obs,
                    idle,
                    open_trace,
                    "idle timeout: no frame received in time",
                )
                .await;
                return;
            }
            NextFrame::Disconnect => {
                // Mid-session (after Begin) it is an abandoned upload;
                // between sessions it is a normal close.
                if session.is_some() {
                    obs.counter(CounterId::ServeErrors, 1);
                }
                return;
            }
            NextFrame::Bad(e) => {
                send_error(
                    stream,
                    obs,
                    idle,
                    open_trace,
                    &format!("protocol error: {e}"),
                )
                .await;
                return;
            }
            NextFrame::Stopped => {
                // The explicit-verdict drain: a session mid-upload is
                // aborted with an Error frame, an idle connection is
                // dismissed with Bye — nobody sees a silent close.
                match session.take() {
                    Some(sess) => {
                        send_error(
                            stream,
                            obs,
                            idle,
                            Some(sess.trace),
                            "server shutting down before the session completed",
                        )
                        .await;
                        close_session(shared, obs, &sess, "error");
                    }
                    None => {
                        let mut out = Vec::new();
                        let _ = send_frame(&mut out, FrameKind::Bye, &[]);
                        let _ = stream.write_all(&out, Some(Instant::now() + idle)).await;
                    }
                }
                return;
            }
        };
        match frame.kind {
            FrameKind::Begin => {
                if session.is_some() {
                    send_error(
                        stream,
                        obs,
                        idle,
                        open_trace,
                        "protocol error: Begin inside an open session",
                    )
                    .await;
                    return;
                }
                // The session's trace ID is fixed here: the client's
                // if the Begin extension carried one, server-assigned
                // otherwise. Every response, span, and log line for
                // this session carries it from now on.
                let (label, client_trace) = decode_begin(&frame.payload);
                let trace = client_trace.unwrap_or_else(|| assign_trace(shared));
                // Admission control: shed *before* accepting the
                // upload when the detection gate could not take the
                // session's work anyway. Cheaper for both sides than
                // streaming megabytes only to shed later.
                if shared.gate.is_saturated() {
                    send_busy(
                        stream,
                        shared,
                        obs,
                        Some(trace),
                        ShedReason::Queue,
                        "detection queue saturated",
                    )
                    .await;
                    return;
                }
                let kind = match DetectorKind::parse(&label) {
                    Ok(k) => k,
                    Err(e) => {
                        send_error(stream, obs, idle, Some(trace), &e).await;
                        return;
                    }
                };
                // The connection's timeline started at accept, before
                // any trace ID existed; replay those stages as traced
                // spans now that the first session owns them.
                if let Some(p) = pre.take() {
                    obs.span_external(Some(trace), || "serve:accept".into(), p.accept, 0);
                    obs.span_external(Some(trace), || "serve:handshake".into(), p.handshake, 0);
                }
                ingest = Some(Ingest::new(shared.cfg.report_cache, kind.label()));
                session = Some(SessionCtx {
                    kind,
                    trace,
                    started: Instant::now(),
                });
            }
            FrameKind::Data => {
                let Some(sess) = session.as_ref() else {
                    send_error(stream, obs, idle, None, "protocol error: Data before Begin").await;
                    return;
                };
                let ing = ingest
                    .as_mut()
                    .expect("ingest lives while a session is open");
                let n = frame.payload.len() as u64;
                if ing.bytes + n > shared.cfg.max_session_bytes {
                    send_error(
                        stream,
                        obs,
                        idle,
                        Some(sess.trace),
                        &format!(
                            "session exceeds {} upload bytes",
                            shared.cfg.max_session_bytes
                        ),
                    )
                    .await;
                    return;
                }
                if let Err(e) = guard.grow(n) {
                    // A spent global budget is load, not client error:
                    // shed so the client retries after the drain.
                    send_busy(stream, shared, obs, Some(sess.trace), ShedReason::Bytes, &e).await;
                    return;
                }
                obs.counter(CounterId::ServeBytesIn, n);
                ing.accept(&frame.payload, sess, shared, obs).await;
            }
            FrameKind::End => {
                let Some(sess) = session.take() else {
                    send_error(stream, obs, idle, None, "protocol error: End before Begin").await;
                    return;
                };
                let ing = ingest.take().expect("ingest lives while a session is open");
                let upload = sess.started.elapsed();
                obs.histogram(HistId::ServeStageUploadUs, as_us(upload));
                obs.span_external(Some(sess.trace), || "serve:upload".into(), upload, 0);
                match finish_session(shared, obs, &sess, ing).await {
                    Ok(finished) => {
                        obs.counter(CounterId::ServeSessions, 1);
                        let flush_start = Instant::now();
                        let payload = encode_traced(Some(sess.trace), finished.body.as_bytes());
                        let mut out = Vec::new();
                        let _ = send_frame(&mut out, FrameKind::Report, &payload);
                        if stream
                            .write_all(&out, Some(Instant::now() + idle))
                            .await
                            .is_err()
                        {
                            obs.counter(CounterId::ServeErrors, 1);
                            return;
                        }
                        let flush = flush_start.elapsed();
                        obs.histogram(HistId::ServeStageFlushUs, as_us(flush));
                        obs.span_external(Some(sess.trace), || "serve:flush".into(), flush, 0);
                        let verdict = if finished.cache_hit {
                            "cache"
                        } else {
                            "report"
                        };
                        close_session(shared, obs, &sess, verdict);
                    }
                    Err(e) => {
                        send_error(stream, obs, idle, Some(sess.trace), &e).await;
                        close_session(shared, obs, &sess, "error");
                        return;
                    }
                }
                guard.release();
            }
            FrameKind::Health => {
                obs.counter(CounterId::ServeHealthProbes, 1);
                settle_health(shared).await;
                let snapshot = health_snapshot(shared, true);
                let mut out = Vec::new();
                let _ = send_frame(&mut out, FrameKind::Healthy, snapshot.as_bytes());
                if stream
                    .write_all(&out, Some(Instant::now() + idle))
                    .await
                    .is_err()
                {
                    obs.counter(CounterId::ServeErrors, 1);
                    return;
                }
            }
            FrameKind::Shutdown => {
                shared.shutdown.store(true, Ordering::Relaxed);
                shared.stop.set();
                let mut out = Vec::new();
                let _ = send_frame(&mut out, FrameKind::Bye, &[]);
                let _ = stream.write_all(&out, Some(Instant::now() + idle)).await;
                return;
            }
            FrameKind::Report
            | FrameKind::Error
            | FrameKind::Bye
            | FrameKind::Busy
            | FrameKind::Healthy => {
                send_error(
                    stream,
                    obs,
                    idle,
                    open_trace,
                    &format!("protocol error: client sent server frame {:?}", frame.kind),
                )
                .await;
                return;
            }
        }
    }
}

/// Where a session's upload stands in the incremental pipeline.
enum IngestState {
    /// Accumulating bytes until the `HARDCRP1` header is complete.
    Head(Vec<u8>),
    /// Header validated; payload bytes stream through the feeder.
    Streaming {
        header: StreamHeader,
        feeder: Box<StreamFeeder>,
    },
    /// The upload already failed; remaining frames are drained (and
    /// still metered) so the error is delivered at `End`, preserving
    /// the buffered server's client-visible ordering.
    Failed(String),
}

/// One session's incremental ingest: detection state plus the
/// accumulated stage timings emitted as spans at `End`.
struct Ingest {
    state: IngestState,
    /// Total upload bytes received this session (the per-session cap).
    bytes: u64,
    /// Running report-cache key (`label · 0x00 · upload bytes`), kept
    /// incrementally so the lookup at `End` costs nothing extra.
    cache_fnv: Option<u64>,
    /// Time spent parked at the detection gate, summed across chunks.
    queue_wait: Duration,
    /// Time spent inside the detector, summed across chunks.
    detect: Duration,
}

impl Ingest {
    fn new(report_cache: bool, label: &str) -> Ingest {
        let cache_fnv = report_cache.then(|| {
            let fnv = fnv1a_update(FNV1A_INIT, label.as_bytes());
            fnv1a_update(fnv, &[0])
        });
        Ingest {
            state: IngestState::Head(Vec::new()),
            bytes: 0,
            cache_fnv,
            queue_wait: Duration::ZERO,
            detect: Duration::ZERO,
        }
    }

    /// Absorbs one `Data` payload: metered always, fed into detection
    /// once the header is through.
    async fn accept(
        &mut self,
        chunk: &[u8],
        sess: &SessionCtx,
        shared: &Arc<Shared>,
        obs: &ObsHandle,
    ) {
        self.bytes += chunk.len() as u64;
        if let Some(fnv) = &mut self.cache_fnv {
            *fnv = fnv1a_update(*fnv, chunk);
        }
        let head = match &mut self.state {
            IngestState::Failed(_) => return,
            IngestState::Streaming { .. } => {
                self.feed_gated(chunk, shared, obs).await;
                return;
            }
            IngestState::Head(head) => {
                head.extend_from_slice(chunk);
                if head.len() >= CORPUS_MAGIC.len() && &head[..CORPUS_MAGIC.len()] != CORPUS_MAGIC {
                    self.state =
                        IngestState::Failed("upload is not a HARDCRP1 corpus stream".into());
                    return;
                }
                if head.len() < 24 {
                    return;
                }
                let inj_len =
                    u32::from_le_bytes(head[20..24].try_into().expect("4 bytes")) as usize;
                if head.len() < 24 + inj_len + 16 {
                    return;
                }
                std::mem::take(head)
            }
        };
        // The header is complete: validate it, check the event cap,
        // and stand up the feeder — then stream the bytes that rode in
        // behind it.
        match parse_header(&head) {
            Err(e) => self.state = IngestState::Failed(e),
            Ok((header, payload_at)) => {
                if header.events > shared.cfg.max_session_events {
                    self.state = IngestState::Failed(format!(
                        "trace has {} events, over the {}-event session cap",
                        header.events, shared.cfg.max_session_events
                    ));
                    return;
                }
                let feeder = Box::new(StreamFeeder::new(&sess.kind, header.num_threads as usize));
                self.state = IngestState::Streaming { header, feeder };
                if head.len() > payload_at {
                    let rest = head[payload_at..].to_vec();
                    self.feed_gated(&rest, shared, obs).await;
                }
            }
        }
    }

    /// Runs one chunk through the detector under a gate permit,
    /// accumulating queue-wait and detect time for the `End` spans.
    async fn feed_gated(&mut self, bytes: &[u8], shared: &Arc<Shared>, obs: &ObsHandle) {
        shared.gate.load.fetch_add(1, Ordering::AcqRel);
        obs.gauge_add(GaugeId::ServeQueueDepth, 1);
        let waited = Instant::now();
        shared.gate.sem.acquire().await;
        self.queue_wait += waited.elapsed();
        obs.gauge_sub(GaugeId::ServeQueueDepth, 1);
        obs.gauge_add(GaugeId::ServeBusyWorkers, 1);
        let ran = Instant::now();
        let fed = match &mut self.state {
            IngestState::Streaming { feeder, .. } => feeder.feed(bytes),
            _ => Ok(()),
        };
        self.detect += ran.elapsed();
        obs.gauge_sub(GaugeId::ServeBusyWorkers, 1);
        shared.gate.sem.release();
        shared.gate.load.fetch_sub(1, Ordering::AcqRel);
        if let Err(e) = fed {
            self.state = IngestState::Failed(e);
        }
    }
}

/// A session's encoded report plus how it was produced (fresh
/// detection or a report-cache hit).
struct FinishedSession {
    body: String,
    cache_hit: bool,
}

/// Settles a session at `End`: delivers any deferred upload failure,
/// answers repeats from the report cache, or finalizes the
/// incremental detection and verifies the stream against its header.
async fn finish_session(
    shared: &Arc<Shared>,
    obs: &ObsHandle,
    sess: &SessionCtx,
    ingest: Ingest,
) -> Result<FinishedSession, String> {
    let Ingest {
        state,
        cache_fnv,
        mut queue_wait,
        mut detect,
        ..
    } = ingest;
    let (header, feeder) = match state {
        IngestState::Failed(e) => return Err(e),
        IngestState::Head(head) => {
            // End arrived before the header completed. Reproduce the
            // buffered server's verdicts: non-magic bytes are "not a
            // corpus", magic with a short header is a truncation.
            if head.len() < CORPUS_MAGIC.len() || &head[..CORPUS_MAGIC.len()] != CORPUS_MAGIC {
                return Err("upload is not a HARDCRP1 corpus stream".into());
            }
            return Err(parse_header(&head)
                .err()
                .unwrap_or_else(|| format!("truncated header: {} bytes", head.len())));
        }
        IngestState::Streaming { header, feeder } => (header, feeder),
    };

    if let Some(key) = cache_fnv {
        if let Some(entry) = shared
            .report_cache
            .lock()
            .map_err(|_| "report cache poisoned".to_string())?
            .get(&key)
        {
            obs.counter(CounterId::ServeCacheHits, 1);
            // Attribute the hit to both sessions: the hitting one (by
            // trace tag) and the creating one (by name). The
            // incremental detection work is discarded — hit responses
            // keep the cache-only span shape.
            obs.span_external(
                Some(sess.trace),
                || {
                    format!(
                        "serve:cache-hit:{}",
                        hard_obs::fmt_trace(entry.origin_trace)
                    )
                },
                Duration::ZERO,
                0,
            );
            return Ok(FinishedSession {
                body: entry.body.clone(),
                cache_hit: true,
            });
        }
    }

    // Flush the feeder's tail batch and close out the detector under
    // a gate permit, like any other chunk of detection work.
    shared.gate.load.fetch_add(1, Ordering::AcqRel);
    obs.gauge_add(GaugeId::ServeQueueDepth, 1);
    let waited = Instant::now();
    shared.gate.sem.acquire().await;
    queue_wait += waited.elapsed();
    obs.gauge_sub(GaugeId::ServeQueueDepth, 1);
    obs.gauge_add(GaugeId::ServeBusyWorkers, 1);
    let ran = Instant::now();
    let finished = feeder.finish();
    detect += ran.elapsed();
    obs.gauge_sub(GaugeId::ServeBusyWorkers, 1);
    shared.gate.sem.release();
    shared.gate.load.fetch_sub(1, Ordering::AcqRel);

    let result = finished.and_then(|(run, events, fnv)| {
        if events != header.events {
            return Err(format!(
                "stream ended after {events} of {} events",
                header.events
            ));
        }
        if fnv != header.payload_fnv {
            return Err("payload checksum mismatch after replay".into());
        }
        Ok(ReportBody {
            label: sess.kind.label().to_string(),
            events,
            reports: run.reports,
        })
    });
    // The detect-pipeline stages are observed whether detection
    // succeeded or not (an error session still waited and computed),
    // exactly once per session.
    obs.histogram(HistId::ServeStageQueueWaitUs, as_us(queue_wait));
    obs.span_external(
        Some(sess.trace),
        || "serve:queue-wait".into(),
        queue_wait,
        0,
    );
    let events = result.as_ref().map_or(0, |b| b.events);
    obs.histogram(HistId::ServeStageDetectUs, as_us(detect));
    obs.span_external(
        Some(sess.trace),
        || format!("serve:detect:{}", sess.kind.label()),
        detect,
        events,
    );
    let body = result?;
    obs.histogram(HistId::ServeSessionEvents, body.events);
    let render_start = Instant::now();
    let encoded = body.encode();
    let render = render_start.elapsed();
    obs.histogram(HistId::ServeStageRenderUs, as_us(render));
    obs.span_external(Some(sess.trace), || "serve:render".into(), render, 0);
    if let Some(key) = cache_fnv {
        if let Ok(mut cache) = shared.report_cache.lock() {
            if cache.len() >= REPORT_CACHE_CAP {
                cache.clear();
            }
            cache.insert(
                key,
                CachedReport {
                    body: encoded.clone(),
                    origin_trace: sess.trace,
                },
            );
        }
    }
    Ok(FinishedSession {
        body: encoded,
        cache_hit: false,
    })
}

/// Records a completed session (any verdict) in the recent ring and
/// runs the threshold-gated slow-session check.
fn close_session(shared: &Shared, obs: &ObsHandle, sess: &SessionCtx, verdict: &'static str) {
    let wall = sess.started.elapsed();
    let wall_us = as_us(wall);
    if let Ok(mut recent) = shared.recent.lock() {
        if recent.len() >= RECENT_SESSIONS_CAP {
            recent.pop_front();
        }
        recent.push_back(SessionSummary {
            trace: sess.trace,
            verdict,
            wall_us,
        });
    }
    if let Some(threshold) = shared.cfg.slow_session {
        if wall > threshold {
            let threshold_us = as_us(threshold);
            obs.counter(CounterId::ServeSlowSessions, 1);
            obs.emit(|| Event::SlowSession {
                trace: sess.trace,
                wall_us,
                threshold_us,
            });
            eprintln!(
                "hard-serve: slow-session trace={} verdict={verdict} wall_us={wall_us} \
                 threshold_us={threshold_us}",
                hard_obs::fmt_trace(sess.trace)
            );
        }
    }
}

/// Which admission bound shed a session. Each reason has its own
/// counter alongside the `hard_serve_shed_total` total, so a scrape
/// shows *why* a server is shedding, not just that it is.
#[derive(Clone, Copy)]
enum ShedReason {
    /// Session slots exhausted (`max_sessions`).
    Slots,
    /// The global in-flight byte budget is spent.
    Bytes,
    /// The detection gate is saturated.
    Queue,
}

impl ShedReason {
    const fn counter(self) -> CounterId {
        match self {
            ShedReason::Slots => CounterId::ServeShedSlots,
            ShedReason::Bytes => CounterId::ServeShedBytes,
            ShedReason::Queue => CounterId::ServeShedQueue,
        }
    }
}

/// Encodes an `Error` frame into `out` and counts it. Split from the
/// async write so multi-frame replies (handshake echo + error) go out
/// in one buffer.
fn push_error(out: &mut Vec<u8>, obs: &ObsHandle, trace: Option<u64>, msg: &str) {
    obs.counter(CounterId::ServeErrors, 1);
    let payload = encode_traced(trace, msg.as_bytes());
    let _ = send_frame(out, FrameKind::Error, &payload);
}

/// Encodes a `Busy` frame into `out` with the configured retry-after
/// hint. Counted under `hard_serve_shed_total` plus the per-reason
/// counter, not the error counter: a shed is correct behavior under
/// load, not failure.
fn push_busy(
    out: &mut Vec<u8>,
    shared: &Shared,
    obs: &ObsHandle,
    trace: Option<u64>,
    why: ShedReason,
    reason: &str,
) {
    obs.counter(CounterId::ServeShed, 1);
    obs.counter(why.counter(), 1);
    let body = encode_busy(shared.cfg.busy_retry_after.as_millis() as u64, reason);
    let payload = encode_traced(trace, &body);
    let _ = send_frame(out, FrameKind::Busy, &payload);
}

async fn send_error(
    stream: &hard_aio::TcpStream,
    obs: &ObsHandle,
    idle: Duration,
    trace: Option<u64>,
    msg: &str,
) {
    let mut out = Vec::new();
    push_error(&mut out, obs, trace, msg);
    let _ = stream.write_all(&out, Some(Instant::now() + idle)).await;
}

async fn send_busy(
    stream: &hard_aio::TcpStream,
    shared: &Shared,
    obs: &ObsHandle,
    trace: Option<u64>,
    why: ShedReason,
    reason: &str,
) {
    let mut out = Vec::new();
    push_busy(&mut out, shared, obs, trace, why, reason);
    let _ = stream
        .write_all(&out, Some(Instant::now() + shared.cfg.idle_timeout))
        .await;
}

/// Clamps a byte count into gauge range.
#[allow(clippy::cast_possible_wrap)]
fn clamp_i64(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// A `Duration` as whole microseconds, saturating.
fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The next server-assigned trace ID: splitmix64 over a per-server
/// sequence — deterministic (no clock or RNG) yet well spread, so
/// assigned IDs do not collide with small client-chosen ones.
fn assign_trace(shared: &Shared) -> u64 {
    let n = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
    let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The admission predicate shared by wire `Health` probes, the
/// `/healthz` HTTP endpoint, and [`ServeStats::ready`].
fn readiness(shared: &Shared, active: usize) -> bool {
    !shared.shutdown.load(Ordering::Relaxed)
        && active < shared.cfg.max_sessions
        && shared.inflight_bytes.load(Ordering::Relaxed) < shared.cfg.max_inflight_bytes
        && !shared.gate.is_saturated()
}

/// Renders the `Healthy` JSON snapshot of the admission state. With
/// `exclude_probe`, the probing connection's own session slot is
/// excluded, so a wire probe on an otherwise idle server reports zero
/// active sessions — which is what makes the snapshot usable as a leak
/// detector after a drain. HTTP probes hold no slot and pass `false`.
fn health_snapshot(shared: &Shared, exclude_probe: bool) -> String {
    let mut active = shared.active_sessions.load(Ordering::Relaxed);
    if exclude_probe {
        active = active.saturating_sub(1);
    }
    let inflight = shared.inflight_bytes.load(Ordering::Relaxed);
    let load = shared.gate.load();
    let ready = readiness(shared, active);
    format!(
        "{{\"active_sessions\":{active},\"max_sessions\":{},\"inflight_bytes\":{inflight},\
         \"max_inflight_bytes\":{},\"pool_load\":{load},\"pool_capacity\":{},\"ready\":{ready}}}",
        shared.cfg.max_sessions,
        shared.cfg.max_inflight_bytes,
        shared.gate.capacity(),
    )
}
