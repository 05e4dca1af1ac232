//! The client side of the `hard-serve` protocol, plus the report-body
//! codec both sides share.
//!
//! This module lives in the harness (not `crates/serve`) because the
//! dependency arrow points the other way: `hard-serve` depends on the
//! harness for detection, and `hard-exp submit` — the load-test
//! client — is a harness binary that must not depend on the server.
//! The shared vocabulary between them is [`ReportBody`], encoded as a
//! single JSON object via [`hard_obs::jsonl`] (the workspace has no
//! serde; the hand-rolled codec is deliberately tiny and closed).
//!
//! Byte-identity contract: [`ReportBody::notes`] renders exactly the
//! lines `hard-exp replay` prints for the same trace, so CI can `cmp`
//! a served session against an offline replay. [`Fixture`] is the one
//! in-process form of that oracle: corpus bytes plus the offline
//! replay's body, for campaigns and tests to diff served reports
//! against.
//!
//! # Resilience
//!
//! [`submit_bytes`] is the one-shot client: any network hiccup is the
//! caller's problem. [`submit_bytes_retrying`] wraps it in the chaos
//! campaign's retry discipline — bounded attempts, exponential backoff
//! with seeded jitter, per-attempt connect/read deadlines, and honor
//! for the server's `Busy` retry-after hint. Re-submission is safe
//! because the server keys its report cache on the corpus content
//! hash: a retried upload of the same bytes is answered from cache,
//! not re-detected, so retries cannot change the answer (idempotence).

use crate::campaign::{injected_trace, CampaignConfig};
use crate::corpus::{encode_bytes, parse_header};
use crate::detectors::DetectorKind;
use crate::runner::execute_streamed;
use hard_obs::jsonl::{self, Json};
use hard_obs::CounterId;
use hard_trace::packed_event::DEFAULT_CHUNK_RECORDS;
use hard_trace::wire::{
    decode_busy, encode_begin, read_frame, read_handshake, split_traced, write_frame,
    write_handshake, Frame, FrameKind, WireError, MAX_FRAME_BYTES,
};
use hard_trace::{ChunkedReader, PackedTrace, RaceReport};
use hard_types::{AccessKind, Addr, SiteId, ThreadId, Xoshiro256};
use hard_workloads::App;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One detection session's result, as carried by a `Report` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportBody {
    /// Detector label the session ran under (e.g. `HARD`).
    pub label: String,
    /// Events replayed.
    pub events: u64,
    /// The race reports, in detection order.
    pub reports: Vec<RaceReport>,
}

impl ReportBody {
    /// Encodes the body as one deterministic JSON object. Key order is
    /// fixed by construction, so equal bodies encode to equal bytes —
    /// the property the serve report cache and the byte-identity tests
    /// rely on.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.reports.len() * 96);
        out.push_str("{\"label\":\"");
        out.push_str(&jsonl::escape(&self.label));
        out.push_str("\",\"events\":");
        out.push_str(&self.events.to_string());
        out.push_str(",\"reports\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"addr\":{},\"size\":{},\"site\":{},\"thread\":{},\"kind\":\"{}\",\"event\":{}}}",
                r.addr.0,
                r.size,
                r.site.0,
                r.thread.0,
                match r.kind {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                },
                r.event_index
            ));
        }
        out.push_str("]}");
        out
    }

    /// Decodes a `Report` frame payload.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn decode(body: &str) -> Result<ReportBody, String> {
        let v = jsonl::parse(body)?;
        let label = v
            .get("label")
            .and_then(Json::as_str)
            .ok_or("report body missing string `label`")?
            .to_string();
        let events = v
            .get("events")
            .and_then(Json::as_u64)
            .ok_or("report body missing u64 `events`")?;
        let Some(Json::Arr(raw)) = v.get("reports") else {
            return Err("report body missing array `reports`".into());
        };
        let field = |r: &Json, k: &str| -> Result<u64, String> {
            r.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("race entry missing u64 `{k}`"))
        };
        let mut reports = Vec::with_capacity(raw.len());
        for r in raw {
            let kind = match r.get("kind").and_then(Json::as_str) {
                Some("read") => AccessKind::Read,
                Some("write") => AccessKind::Write,
                other => return Err(format!("race entry has bad `kind`: {other:?}")),
            };
            reports.push(RaceReport {
                addr: Addr(field(r, "addr")?),
                size: u8::try_from(field(r, "size")?).map_err(|_| "race `size` exceeds u8")?,
                site: SiteId(
                    u32::try_from(field(r, "site")?).map_err(|_| "race `site` exceeds u32")?,
                ),
                thread: ThreadId(
                    u32::try_from(field(r, "thread")?).map_err(|_| "race `thread` exceeds u32")?,
                ),
                kind,
                event_index: usize::try_from(field(r, "event")?)
                    .map_err(|_| "race `event` exceeds usize")?,
            });
        }
        Ok(ReportBody {
            label,
            events,
            reports,
        })
    }

    /// Renders the body as the exact note lines `hard-exp replay`
    /// prints: the summary line, up to 20 report lines, and a `...`
    /// overflow line. Both the `replay` and `submit` subcommands print
    /// through this, which is what makes their outputs comparable
    /// byte for byte.
    #[must_use]
    pub fn notes(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(2 + self.reports.len().min(20));
        out.push(format!(
            "replayed {} events through {}: {} report(s)",
            self.events,
            self.label,
            self.reports.len()
        ));
        for r in self.reports.iter().take(20) {
            out.push(format!("  {r}"));
        }
        if self.reports.len() > 20 {
            out.push(format!("  ... and {} more", self.reports.len() - 20));
        }
        out
    }
}

/// One served-vs-replayed oracle: a `HARDCRP1` corpus upload plus the
/// report every server must answer it with. The expected body comes
/// from replaying the same bytes offline through [`execute_streamed`],
/// the entry point `hard-exp replay` uses, so "expected" is the ground
/// truth by construction. Every serve campaign and serve test checks
/// its served reports against a fixture built here.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// Detector name the session requests.
    pub detector: String,
    /// The corpus bytes to upload.
    pub corpus: Vec<u8>,
    /// The offline-replay report.
    pub expected: ReportBody,
}

impl Fixture {
    /// Builds the fixture for run `run_idx` of `app`'s injected-race
    /// campaign under `cfg`, replayed through `detector`.
    ///
    /// # Errors
    ///
    /// An unknown detector name, a trace the packed format cannot
    /// carry, or a replay that disagrees with the corpus header.
    pub fn build(
        app: App,
        cfg: &CampaignConfig,
        run_idx: usize,
        detector: &str,
    ) -> Result<Fixture, String> {
        let kind = DetectorKind::parse(detector)?;
        let (trace, injection) = injected_trace(app, cfg, run_idx);
        let packed = PackedTrace::from_trace(&trace).map_err(|e| format!("pack failed: {e}"))?;
        let corpus = encode_bytes(&packed, Some(&injection));
        let (header, payload_at) = parse_header(&corpus)?;
        let mut reader = ChunkedReader::spawn(
            std::io::Cursor::new(corpus[payload_at..].to_vec()),
            DEFAULT_CHUNK_RECORDS,
        );
        let (run, events, fnv) = execute_streamed(&kind, header.num_threads as usize, &mut reader)?;
        if events != header.events || fnv != header.payload_fnv {
            return Err("fixture replay disagrees with its own header".into());
        }
        Ok(Fixture {
            detector: detector.to_string(),
            corpus,
            expected: ReportBody {
                label: kind.label().to_string(),
                events,
                reports: run.reports,
            },
        })
    }
}

/// What the server answered a submission with. Every variant carries
/// the session trace ID the server echoed (`None` when talking to a
/// pre-tracing server or when the response predates the session).
#[derive(Clone, Debug)]
pub enum Submission {
    /// A completed session.
    Report {
        /// The decoded report.
        body: ReportBody,
        /// The echoed session trace ID.
        trace: Option<u64>,
    },
    /// A client-visible error frame (the session failed server-side).
    ServerError {
        /// The server's error message.
        message: String,
        /// The echoed session trace ID.
        trace: Option<u64>,
    },
    /// The server shed the session under overload; retry after the
    /// hinted delay.
    Busy {
        /// The server's retry-after hint, when it sent one.
        retry_after: Option<Duration>,
        /// Human-readable shed reason.
        message: String,
        /// The echoed session trace ID.
        trace: Option<u64>,
    },
}

impl Submission {
    /// The session trace ID the server echoed, whatever the verdict.
    #[must_use]
    pub fn trace(&self) -> Option<u64> {
        match self {
            Submission::Report { trace, .. }
            | Submission::ServerError { trace, .. }
            | Submission::Busy { trace, .. } => *trace,
        }
    }
}

/// Submits in-memory `HARDCRP1` corpus bytes to a `hard-serve`
/// instance at `addr` and returns its answer, with no deadlines and no
/// retries: any failure is returned to the caller on the first
/// occurrence. See [`submit_bytes_retrying`] for the resilient client.
///
/// `detector` is a name accepted by [`crate::DetectorKind::parse`];
/// `chunk` bounds the Data frame size (the server reassembles, so any
/// chunking is valid — tests use small chunks to exercise
/// reassembly). `trace` is an optional client-generated session trace
/// ID carried in the `Begin` frame: the server adopts it, tags every
/// span and log line for the session with it, and echoes it on the
/// response — the handle a campaign uses to join client-side and
/// server-side views of one session. Without one the server assigns
/// its own.
///
/// # Errors
///
/// Connection, wire, and malformed-response errors, each naming the
/// failing stage.
pub fn submit_bytes(
    addr: &str,
    corpus: &[u8],
    detector: &str,
    chunk: usize,
    trace: Option<u64>,
) -> Result<Submission, String> {
    let stream = connect(addr, None)?;
    submit_on(stream, corpus, detector, chunk, trace)
}

/// One submission attempt over an already-connected stream.
fn submit_on(
    stream: TcpStream,
    corpus: &[u8],
    detector: &str,
    chunk: usize,
    trace: Option<u64>,
) -> Result<Submission, String> {
    let mut w = BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut r = BufReader::new(stream);
    write_handshake(&mut w).map_err(|e| format!("handshake send: {e}"))?;
    w.flush().map_err(|e| format!("handshake send: {e}"))?;
    read_handshake(&mut r).map_err(|e| format!("handshake recv: {e}"))?;
    let upload = (|| {
        write_frame(&mut w, FrameKind::Begin, &encode_begin(detector, trace))
            .map_err(|e| format!("Begin send: {e}"))?;
        for piece in corpus.chunks(chunk.max(1)) {
            write_frame(&mut w, FrameKind::Data, piece).map_err(|e| format!("Data send: {e}"))?;
        }
        write_frame(&mut w, FrameKind::End, &[]).map_err(|e| format!("End send: {e}"))?;
        // The upload sits in the BufWriter until flushed; without this
        // the client deadlocks against the server waiting for the End
        // frame.
        w.flush().map_err(|e| format!("End send: {e}"))
    })();
    if let Err(send_err) = upload {
        // A shedding server answers (Busy/Error) and closes without
        // reading the upload, so the write side can fail before the
        // answer is seen. Prefer the server's explicit verdict over
        // the raw reset when one is on the socket.
        match read_response(&mut r) {
            Ok(frame) => return decode_response(&frame),
            Err(_) => return Err(send_err),
        }
    }
    let frame = read_response(&mut r).map_err(|e| format!("response recv: {e}"))?;
    decode_response(&frame)
}

/// Maps a response frame to a [`Submission`], splitting the server's
/// `trace=<16hex>;` echo prefix off the payload first. The remaining
/// body is byte-identical to what a pre-tracing server sent, which is
/// what keeps served reports comparable to offline replays.
pub(crate) fn decode_response(frame: &Frame) -> Result<Submission, String> {
    let (trace, body) = split_traced(&frame.payload);
    match frame.kind {
        FrameKind::Report => ReportBody::decode(&String::from_utf8_lossy(body))
            .map(|b| Submission::Report { body: b, trace }),
        FrameKind::Error => Ok(Submission::ServerError {
            message: String::from_utf8_lossy(body).into_owned(),
            trace,
        }),
        FrameKind::Busy => {
            let (hint_ms, message) = decode_busy(body);
            Ok(Submission::Busy {
                retry_after: hint_ms.map(Duration::from_millis),
                message,
                trace,
            })
        }
        other => Err(format!("unexpected response frame {other:?}")),
    }
}

/// Connects to `addr`, optionally bounding the connect and every
/// subsequent read/write by the policy's deadlines.
fn connect(addr: &str, deadlines: Option<(Duration, Duration)>) -> Result<TcpStream, String> {
    let stream = match deadlines {
        None => TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?,
        Some((connect_timeout, io_timeout)) => {
            let sock = addr
                .to_socket_addrs()
                .map_err(|e| format!("cannot resolve {addr}: {e}"))?
                .next()
                .ok_or_else(|| format!("{addr} resolves to no address"))?;
            let stream = TcpStream::connect_timeout(&sock, connect_timeout)
                .map_err(|e| format!("cannot connect {addr}: {e}"))?;
            stream
                .set_read_timeout(Some(io_timeout))
                .map_err(|e| format!("cannot set read deadline: {e}"))?;
            stream
                .set_write_timeout(Some(io_timeout))
                .map_err(|e| format!("cannot set write deadline: {e}"))?;
            stream
        }
    };
    Ok(stream)
}

/// Retry discipline for [`submit_bytes_retrying`]: bounded attempts,
/// exponential backoff with seeded jitter, per-attempt deadlines.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts before giving up (at least one).
    pub max_attempts: u32,
    /// Backoff before attempt `n + 1` is `base_delay * 2^(n-1)`
    /// (capped at [`max_delay`](RetryPolicy::max_delay)), plus jitter.
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub max_delay: Duration,
    /// Seeds the jitter stream so a campaign's sleep schedule is
    /// reproducible. Jitter is uniform in `[0, base_delay)`.
    pub jitter_seed: u64,
    /// Per-attempt TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-attempt read/write deadline (covers the whole upload and
    /// the wait for the server's answer, one operation at a time).
    pub io_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// What a retrying submission went through on the way to its answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts answered with a `Busy` shed.
    pub busy: u32,
    /// Attempts that died on connect, I/O, or wire errors.
    pub io_errors: u32,
    /// Attempts answered with a server `Error` frame (under fault
    /// injection these are usually transit corruption the corpus
    /// checksums caught, so they are retried like I/O errors).
    pub server_errors: u32,
}

/// [`submit_bytes`] with retries per `policy`; returns the final
/// answer plus the attempt log.
///
/// Every failure class is retried — `Busy` sheds (honoring the
/// server's retry-after hint when it exceeds the backoff), I/O and
/// wire errors, and server `Error` frames, which under network fault
/// injection are usually the server correctly refusing a corrupted
/// upload. Re-submission is idempotent: the server's report cache is
/// keyed on the corpus content hash, so a duplicate of an
/// already-answered upload returns the cached bytes. Every attempt
/// carries the same `trace`, so the server-side timeline shows the
/// retries as one session told several times.
///
/// Each attempt after the first bumps the
/// `hard_serve_retry_attempts_total` counter; exhausting the budget
/// bumps `hard_serve_retry_exhausted_total`.
///
/// # Errors
///
/// The final attempt's error, annotated with the attempt count, when
/// the budget is exhausted without a `Report` or terminal answer.
pub fn submit_bytes_retrying(
    addr: &str,
    corpus: &[u8],
    detector: &str,
    chunk: usize,
    policy: &RetryPolicy,
    trace: Option<u64>,
) -> (Result<Submission, String>, RetryStats) {
    let obs = hard_obs::installed();
    let mut jitter = Xoshiro256::seed_from_u64(policy.jitter_seed);
    let mut stats = RetryStats::default();
    let max_attempts = policy.max_attempts.max(1);
    let mut last: Result<Submission, String> = Err("no attempt made".into());
    for attempt in 1..=max_attempts {
        if attempt > 1 {
            obs.counter(CounterId::ServeRetryAttempts, 1);
        }
        stats.attempts = attempt;
        let outcome = connect(addr, Some((policy.connect_timeout, policy.io_timeout)))
            .and_then(|stream| submit_on(stream, corpus, detector, chunk, trace));
        let retry_hint = match &outcome {
            Ok(Submission::Report { .. }) => return (outcome, stats),
            Ok(Submission::Busy { retry_after, .. }) => {
                stats.busy += 1;
                *retry_after
            }
            Ok(Submission::ServerError { .. }) => {
                stats.server_errors += 1;
                None
            }
            Err(_) => {
                stats.io_errors += 1;
                None
            }
        };
        last = outcome;
        if attempt < max_attempts {
            std::thread::sleep(backoff(policy, attempt, retry_hint, &mut jitter));
        }
    }
    obs.counter(CounterId::ServeRetryExhausted, 1);
    (
        last.map_err(|e| format!("{e} (after {} attempts)", stats.attempts)),
        stats,
    )
}

/// The sleep before attempt `attempt + 1`: exponential backoff with
/// seeded jitter, never shorter than the server's retry-after hint.
fn backoff(
    policy: &RetryPolicy,
    attempt: u32,
    hint: Option<Duration>,
    jitter: &mut Xoshiro256,
) -> Duration {
    let exp = policy
        .base_delay
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(policy.max_delay);
    let jitter_ns = policy.base_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
    let extra = if jitter_ns == 0 {
        Duration::ZERO
    } else {
        Duration::from_nanos(jitter.gen_range(jitter_ns))
    };
    exp.max(hint.unwrap_or(Duration::ZERO)) + extra
}

/// A point-in-time view of the server's admission state, as carried by
/// a `Healthy` frame. Doubles as the chaos campaign's leak detector:
/// after drain, `active_sessions` and `inflight_bytes` must be zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Sessions currently holding a slot.
    pub active_sessions: u64,
    /// The slot limit.
    pub max_sessions: u64,
    /// Upload bytes currently buffered across all sessions.
    pub inflight_bytes: u64,
    /// The in-flight byte budget.
    pub max_inflight_bytes: u64,
    /// Detection jobs queued or running in the worker pool.
    pub pool_load: u64,
    /// The pool's job capacity (workers + queue depth).
    pub pool_capacity: u64,
    /// False when the server would currently shed a new session.
    pub ready: bool,
}

impl HealthSnapshot {
    /// Decodes a `Healthy` frame payload.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn decode(body: &str) -> Result<HealthSnapshot, String> {
        let v = jsonl::parse(body)?;
        let field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("health snapshot missing u64 `{k}`"))
        };
        let ready = match v.get("ready") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("health snapshot missing bool `ready`".into()),
        };
        Ok(HealthSnapshot {
            active_sessions: field("active_sessions")?,
            max_sessions: field("max_sessions")?,
            inflight_bytes: field("inflight_bytes")?,
            max_inflight_bytes: field("max_inflight_bytes")?,
            pool_load: field("pool_load")?,
            pool_capacity: field("pool_capacity")?,
            ready,
        })
    }
}

/// Asks the `hard-serve` instance at `addr` for its readiness
/// snapshot via a `Health` probe frame.
///
/// # Errors
///
/// Connection, wire, and malformed-response errors.
pub fn probe_health(addr: &str, io_timeout: Duration) -> Result<HealthSnapshot, String> {
    let stream = connect(addr, Some((io_timeout, io_timeout)))?;
    let mut w = BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut r = BufReader::new(stream);
    write_handshake(&mut w).map_err(|e| format!("handshake send: {e}"))?;
    w.flush().map_err(|e| format!("handshake send: {e}"))?;
    read_handshake(&mut r).map_err(|e| format!("handshake recv: {e}"))?;
    write_frame(&mut w, FrameKind::Health, &[]).map_err(|e| format!("Health send: {e}"))?;
    w.flush().map_err(|e| format!("Health send: {e}"))?;
    let frame = read_response(&mut r).map_err(|e| format!("health recv: {e}"))?;
    match frame.kind {
        FrameKind::Healthy => HealthSnapshot::decode(&frame.text()),
        FrameKind::Error => Err(format!("server refused probe: {}", frame.text())),
        other => Err(format!("unexpected health response {other:?}")),
    }
}

/// Asks the `hard-serve` instance at `addr` to drain and exit.
///
/// # Errors
///
/// Connection and wire errors; a server that closes the connection
/// without a `Bye` (already shutting down) is not an error.
pub fn request_shutdown(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let mut w = BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut r = BufReader::new(stream);
    write_handshake(&mut w).map_err(|e| format!("handshake send: {e}"))?;
    w.flush().map_err(|e| format!("handshake send: {e}"))?;
    read_handshake(&mut r).map_err(|e| format!("handshake recv: {e}"))?;
    write_frame(&mut w, FrameKind::Shutdown, &[]).map_err(|e| format!("Shutdown send: {e}"))?;
    w.flush().map_err(|e| format!("Shutdown send: {e}"))?;
    match read_frame(&mut r, MAX_FRAME_BYTES) {
        Ok(f) if f.kind == FrameKind::Bye => Ok(()),
        Ok(f) => Err(format!("unexpected shutdown response {:?}", f.kind)),
        Err(WireError::Io(_)) => Ok(()), // connection already torn down
        Err(e) => Err(format!("shutdown recv: {e}")),
    }
}

fn read_response(r: &mut impl Read) -> Result<Frame, WireError> {
    read_frame(r, MAX_FRAME_BYTES)
}

/// Writes one frame to any sink — re-exported for the server, which
/// shares this module's framing discipline.
///
/// # Errors
///
/// Propagates wire errors.
pub fn send_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    write_frame(w, kind, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> ReportBody {
        ReportBody {
            label: "HARD".into(),
            events: 1234,
            reports: vec![
                RaceReport {
                    addr: Addr(0x1000),
                    size: 4,
                    site: SiteId(9),
                    thread: ThreadId(1),
                    kind: AccessKind::Write,
                    event_index: 77,
                },
                RaceReport {
                    addr: Addr(0x2000),
                    size: 8,
                    site: SiteId(12),
                    thread: ThreadId(3),
                    kind: AccessKind::Read,
                    event_index: 901,
                },
            ],
        }
    }

    #[test]
    fn report_body_round_trips() {
        let b = body();
        let enc = b.encode();
        assert_eq!(ReportBody::decode(&enc).unwrap(), b);
        // Determinism: encoding is a pure function of the body.
        assert_eq!(enc, body().encode());
    }

    #[test]
    fn notes_match_the_replay_format() {
        let b = body();
        let notes = b.notes();
        assert_eq!(notes[0], "replayed 1234 events through HARD: 2 report(s)");
        assert_eq!(notes[1], format!("  {}", b.reports[0]));
        assert_eq!(notes.len(), 3);
    }

    #[test]
    fn notes_overflow_past_twenty_reports() {
        let mut b = body();
        let template = b.reports[0];
        b.reports = (0..25)
            .map(|i| RaceReport {
                event_index: i,
                ..template
            })
            .collect();
        let notes = b.notes();
        assert_eq!(notes.len(), 1 + 20 + 1);
        assert_eq!(notes.last().unwrap(), "  ... and 5 more");
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        assert!(ReportBody::decode("not json").is_err());
        assert!(ReportBody::decode("{}").is_err());
        assert!(ReportBody::decode("{\"label\":\"x\",\"events\":1}").is_err());
        assert!(
            ReportBody::decode("{\"label\":\"x\",\"events\":1,\"reports\":[{\"addr\":1}]}")
                .is_err()
        );
        assert!(ReportBody::decode(
            "{\"label\":\"x\",\"events\":1,\"reports\":[{\"addr\":1,\"size\":4,\"site\":2,\
             \"thread\":0,\"kind\":\"neither\",\"event\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn health_snapshot_decode_round_trips() {
        let body = "{\"active_sessions\":3,\"max_sessions\":64,\"inflight_bytes\":1024,\
                    \"max_inflight_bytes\":268435456,\"pool_load\":2,\"pool_capacity\":12,\
                    \"ready\":true}";
        let snap = HealthSnapshot::decode(body).unwrap();
        assert_eq!(snap.active_sessions, 3);
        assert_eq!(snap.max_sessions, 64);
        assert_eq!(snap.pool_capacity, 12);
        assert!(snap.ready);
        assert!(HealthSnapshot::decode("{}").is_err());
        assert!(HealthSnapshot::decode("{\"active_sessions\":1}").is_err());
    }

    #[test]
    fn backoff_grows_caps_and_honors_the_hint() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut j = Xoshiro256::seed_from_u64(1);
        let jitter_bound = policy.base_delay;
        let b1 = backoff(&policy, 1, None, &mut j);
        let b4 = backoff(&policy, 4, None, &mut j);
        let b9 = backoff(&policy, 9, None, &mut j);
        assert!(b1 >= Duration::from_millis(10) && b1 < Duration::from_millis(10) + jitter_bound);
        assert!(b4 >= Duration::from_millis(80) && b4 < Duration::from_millis(80) + jitter_bound);
        // Capped at max_delay (pre-jitter) even for huge exponents.
        assert!(b9 >= Duration::from_millis(100) && b9 < Duration::from_millis(100) + jitter_bound);
        // A server hint longer than the backoff wins.
        let hinted = backoff(&policy, 1, Some(Duration::from_millis(500)), &mut j);
        assert!(hinted >= Duration::from_millis(500));
    }

    #[test]
    fn backoff_jitter_is_seeded() {
        let policy = RetryPolicy::default();
        let run = |seed| {
            let mut j = Xoshiro256::seed_from_u64(seed);
            (1..6)
                .map(|a| backoff(&policy, a, None, &mut j))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn retrying_submit_gives_up_with_attempt_count() {
        // Nothing listens on this address (port 1 is never bound in the
        // test environment); every attempt must fail fast on connect.
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            connect_timeout: Duration::from_millis(200),
            io_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let (result, stats) = submit_bytes_retrying("127.0.0.1:1", b"x", "hard", 64, &policy, None);
        let err = result.unwrap_err();
        assert!(err.contains("after 3 attempts"), "{err}");
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.io_errors, 3);
        assert_eq!(stats.busy, 0);
    }

    #[test]
    fn empty_report_list_encodes_cleanly() {
        let b = ReportBody {
            label: "HB".into(),
            events: 0,
            reports: Vec::new(),
        };
        assert_eq!(b.encode(), "{\"label\":\"HB\",\"events\":0,\"reports\":[]}");
        assert_eq!(ReportBody::decode(&b.encode()).unwrap(), b);
    }
}
