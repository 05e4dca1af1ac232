//! `serve-load`: concurrent-session scaling of the async serve tier.
//!
//! The chaos campaign proves the serve tier is *correct* under abuse;
//! this one measures what the async rewrite bought: how many sessions
//! one server multiplexes **concurrently**, and what each costs in
//! resident memory. A small fleet of driver threads opens every
//! session up front (handshake + `Begin`), then interleaves `Data`
//! chunks round-robin across all of them — so at the peak every
//! session is mid-upload at once, the situation that used to pin one
//! pool thread per connection. The study records:
//!
//! * peak concurrent sessions, sampled from the server's `Health`
//!   probe (must reach the configured fleet size — otherwise the
//!   concurrency claim is vacuous);
//! * report correctness: every session's `Report` must be
//!   byte-identical to the offline replay of the same corpus;
//! * the server's peak RSS (`VmHWM` from the child's procfs entry)
//!   before and after the fleet — the per-session memory cost is
//!   `(peak - baseline) / sessions`, which the incremental feed design
//!   bounds at roughly one chunk plus one detector state instead of
//!   one whole trace;
//! * client-observed session latency percentiles.
//!
//! The detection work happens in the `hard-serve` child, so this
//! campaign credits it to the parent's bench accumulator explicitly
//! (one [`crate::bench::account`] per verified report) — a
//! `--bench-out` row from `serve-load` carries the throughput the
//! service actually sustained, and the row's own `peak_rss_bytes`
//! (the client process) stays comparable across PRs.
//!
//! Scale notes for this host: every session costs one client-side fd
//! here plus one accepted fd in the child, so each process's fd limit
//! caps the fleet; with the stock 20k limit the ceiling is just under
//! 20k concurrent sessions. `--repeat` runs additional waves over
//! fresh connections when total session count (not peak concurrency)
//! is the point.

use crate::bench;
use crate::campaign::CampaignConfig;
use crate::experiments::fleet::{await_drain, ServeChild, Tally};
use crate::service::{decode_response, probe_health, Fixture};
use crate::table::TextTable;
use crate::ReportBody;
use hard_trace::wire::{
    encode_begin, read_frame, read_handshake, write_frame, write_handshake, FrameKind,
    MAX_FRAME_BYTES,
};
use hard_workloads::App;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client driver threads each wave is split across.
const DRIVERS: usize = 8;

/// `Data` frame payload size; also the unit of per-session server
/// buffering the RSS claim is about.
const CHUNK: usize = 4 << 10;

/// Parameters of the load study.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent sessions per wave (one TCP connection each).
    pub sessions: usize,
    /// Waves: each repeats the full fleet on fresh connections, so
    /// total sessions = `sessions * repeat` at peak concurrency
    /// `sessions`.
    pub repeat: usize,
    /// Fixture shape (scale, injection mode) for the shared corpus.
    pub campaign: CampaignConfig,
    /// Path of the `hard-serve` binary to spawn (default: a sibling of
    /// the current executable).
    pub serve_cmd: Option<String>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            sessions: 256,
            repeat: 1,
            campaign: CampaignConfig::reduced(0.05, 2),
            serve_cmd: None,
        }
    }
}

/// The study's tallies.
#[derive(Clone, Debug)]
pub struct LoadStudy {
    /// Configured concurrent sessions per wave.
    pub sessions: usize,
    /// Waves run.
    pub repeat: usize,
    /// Session verdicts against the offline replay (no retries and no
    /// trace IDs here, so only `ok`/`divergent`/`failed` move).
    pub tally: Tally,
    /// Peak concurrent sessions observed through the `Health` probe.
    pub peak_active: usize,
    /// Trace events in the shared corpus (per session).
    pub events_per_session: u64,
    /// Wall time of the whole fleet, all waves.
    pub wall: Duration,
    /// The server child's `VmHWM` right after spawn, if readable.
    pub server_baseline_rss: Option<u64>,
    /// The server child's `VmHWM` after the fleet drained.
    pub server_peak_rss: Option<u64>,
    /// Client-observed session latencies (Begin write → Report
    /// verified), microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Session slots still held after the drain deadline.
    pub leaked_sessions: u64,
    /// In-flight bytes still reserved after the drain deadline.
    pub leaked_bytes: u64,
}

impl LoadStudy {
    fn percentile(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[idx.min(self.latencies_us.len() - 1)]
    }

    /// Server memory attributable to one concurrent session, in bytes.
    #[must_use]
    pub fn rss_per_session(&self) -> Option<u64> {
        match (self.server_baseline_rss, self.server_peak_rss) {
            (Some(b), Some(p)) if self.sessions > 0 => {
                Some(p.saturating_sub(b) / self.sessions as u64)
            }
            _ => None,
        }
    }

    /// Renders the study as an aligned table.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "sessions",
            "waves",
            "ok",
            "divergent",
            "failed",
            "peak_active",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "max_ms",
            "sessions_per_s",
            "server_rss_kb",
            "rss_per_session_kb",
        ]);
        let total = self.tally.ok + self.tally.divergent + self.tally.failed;
        let per_s = if self.wall.as_millis() > 0 {
            (total as u128 * 1000 / self.wall.as_millis()) as u64
        } else {
            0
        };
        t.row(vec![
            self.sessions.to_string(),
            self.repeat.to_string(),
            self.tally.ok.to_string(),
            self.tally.divergent.to_string(),
            self.tally.failed.to_string(),
            self.peak_active.to_string(),
            format!("{:.1}", self.percentile(0.50) as f64 / 1000.0),
            format!("{:.1}", self.percentile(0.90) as f64 / 1000.0),
            format!("{:.1}", self.percentile(0.99) as f64 / 1000.0),
            format!("{:.1}", self.percentile(1.0) as f64 / 1000.0),
            per_s.to_string(),
            self.server_peak_rss
                .map_or_else(|| "n/a".into(), |b| (b / 1024).to_string()),
            self.rss_per_session()
                .map_or_else(|| "n/a".into(), |b| (b / 1024).to_string()),
        ]);
        t
    }

    /// Invariant check: every session reported, byte-identical, with
    /// the whole fleet genuinely concurrent and nothing leaked.
    ///
    /// # Errors
    ///
    /// Describes every violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        if self.tally.divergent > 0 {
            violations.push(format!(
                "{} divergent report(s) — served output differs from offline replay",
                self.tally.divergent
            ));
        }
        if self.tally.failed > 0 {
            violations.push(format!(
                "{} session(s) failed to produce a report",
                self.tally.failed
            ));
        }
        if self.peak_active < self.sessions {
            violations.push(format!(
                "peak concurrent sessions {} never reached the fleet size {} — \
                 the concurrency claim is vacuous",
                self.peak_active, self.sessions
            ));
        }
        if self.leaked_sessions > 0 || self.leaked_bytes > 0 {
            violations.push(format!(
                "leaked {} session slot(s) / {} in-flight byte(s) after drain",
                self.leaked_sessions, self.leaked_bytes
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// The upload every session replays, shared read-only by all
/// drivers: pre-encoded wire bytes plus the verdict oracle and the
/// fleet-scaled response deadline.
struct WaveScript<'a> {
    frames: &'a [Vec<u8>],
    begin: &'a [u8],
    end_frame: &'a [u8],
    expected: &'a ReportBody,
    read_timeout: Duration,
}

/// One driver's slice of a wave: open all sessions, barrier, upload
/// round-robin, then collect and verify every verdict.
fn drive_wave(
    addr: &str,
    count: usize,
    script: &WaveScript<'_>,
    gate: &Barrier,
) -> Result<(Tally, Vec<u64>), String> {
    let mut tally = Tally::default();
    let mut latencies_us = Vec::with_capacity(count);
    let mut sessions: Vec<(TcpStream, Instant)> = Vec::with_capacity(count);
    for _ in 0..count {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(script.read_timeout))
            .map_err(|e| format!("timeout: {e}"))?;
        let mut w = &stream;
        let started = Instant::now();
        write_handshake(&mut w).map_err(|e| format!("handshake: {e}"))?;
        w.write_all(script.begin)
            .map_err(|e| format!("Begin: {e}"))?;
        sessions.push((stream, started));
    }
    // Every driver's whole slice is open before any payload flows:
    // peak concurrency is the full fleet by construction.
    gate.wait();
    for f in script.frames {
        for (s, _) in &mut sessions {
            s.write_all(f).map_err(|e| format!("Data: {e}"))?;
        }
    }
    for (s, _) in &mut sessions {
        s.write_all(script.end_frame)
            .map_err(|e| format!("End: {e}"))?;
    }
    for (s, started) in sessions {
        let mut r = std::io::BufReader::new(s);
        read_handshake(&mut r).map_err(|e| format!("handshake echo: {e}"))?;
        let frame = read_frame(&mut r, MAX_FRAME_BYTES).map_err(|e| format!("response: {e}"))?;
        tally.score(script.expected, None, &decode_response(&frame));
        latencies_us.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    Ok((tally, latencies_us))
}

/// Runs the study.
///
/// # Errors
///
/// Fixture, spawn, connection, and wire errors. Invariant violations
/// are **not** errors here — call [`LoadStudy::check`] to enforce
/// them.
pub fn run(cfg: &LoadConfig) -> Result<LoadStudy, String> {
    let sessions = cfg.sessions.max(1);
    let repeat = cfg.repeat.max(1);
    let drivers = DRIVERS.min(sessions);
    let fixture = Fixture::build(App::WaterNsquared, &cfg.campaign, 0, "hard")?;
    let corpus = &fixture.corpus;
    // Pre-encode every frame once; every session writes the same
    // bytes, so the client side adds no per-session buffering beyond
    // the sockets themselves.
    let frames: Vec<Vec<u8>> = corpus
        .chunks(CHUNK)
        .map(|piece| {
            let mut f = Vec::with_capacity(piece.len() + 5);
            write_frame(&mut f, FrameKind::Data, piece).expect("vec write");
            f
        })
        .collect();
    let begin = {
        let mut f = Vec::new();
        write_frame(
            &mut f,
            FrameKind::Begin,
            &encode_begin(&fixture.detector, None),
        )
        .expect("vec write");
        f
    };
    let end_frame = {
        let mut f = Vec::new();
        write_frame(&mut f, FrameKind::End, &[]).expect("vec write");
        f
    };

    // The fleet must fit the admission caps with headroom for the
    // health-probe connections the monitor thread opens.
    let max_sessions = (sessions + 8).to_string();
    let queue_depth = sessions.to_string();
    let max_inflight = (((sessions + 8) as u64) * (corpus.len() as u64).max(1)).to_string();
    let extra = [
        "--max-sessions",
        &max_sessions,
        "--queue-depth",
        &queue_depth,
        "--max-inflight-bytes",
        &max_inflight,
        // Round-robin uploads across a large fleet mean long per-
        // session gaps between chunks; the idle cutoff must cover the
        // whole wave, not one read.
        "--idle-timeout-ms",
        "600000",
        // Every session pays for detection — the honest load. With
        // the report cache on, later sessions would be cache hits and
        // the study would measure admission throughput instead.
        "--no-report-cache",
    ];
    let child = ServeChild::spawn(cfg.serve_cmd.as_deref(), &extra)?;
    let addr = child.addr.clone();
    let server_baseline_rss = child.vm_hwm();

    // Sample concurrency through the wire-level health probe — the
    // same vantage point an operator's dashboard has.
    let peak = Arc::new(AtomicU64::new(0));
    let sampling = Arc::new(AtomicBool::new(true));
    let monitor = {
        let addr = addr.clone();
        let peak = Arc::clone(&peak);
        let sampling = Arc::clone(&sampling);
        std::thread::spawn(move || {
            while sampling.load(Ordering::Relaxed) {
                if let Ok(h) = probe_health(&addr, Duration::from_secs(5)) {
                    peak.fetch_max(h.active_sessions, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let started = Instant::now();
    let mut study = LoadStudy {
        sessions,
        repeat,
        tally: Tally::default(),
        peak_active: 0,
        events_per_session: fixture.expected.events,
        wall: Duration::ZERO,
        server_baseline_rss,
        server_peak_rss: None,
        latencies_us: Vec::with_capacity(sessions * repeat),
        leaked_sessions: 0,
        leaked_bytes: 0,
    };
    // The fleet drains through `workers` detection permits, so the
    // last session's verdict lands roughly a whole fleet-detection
    // wall after its `End` — the response-read deadline must scale
    // with the fleet, not sit at a per-read constant (a 10k run on
    // the single-core reference host takes ~28 minutes end to end).
    let script = WaveScript {
        frames: &frames,
        begin: &begin,
        end_frame: &end_frame,
        expected: &fixture.expected,
        read_timeout: Duration::from_secs(600).max(Duration::from_millis(250 * sessions as u64)),
    };
    for _ in 0..repeat {
        let gate = Barrier::new(drivers);
        let slices: Vec<usize> = (0..drivers)
            .map(|d| sessions / drivers + usize::from(d < sessions % drivers))
            .collect();
        let waves: Vec<Result<(Tally, Vec<u64>), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = slices
                .iter()
                .map(|&count| {
                    let (addr, script, gate) = (&addr, &script, &gate);
                    s.spawn(move || drive_wave(addr, count, script, gate))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load driver panicked"))
                .collect()
        });
        for wave in waves {
            let (tally, latencies_us) = wave?;
            study.tally.merge(tally);
            study.latencies_us.extend(latencies_us);
        }
    }
    study.wall = started.elapsed();
    // The detection ran in the child; credit each verified session's
    // events to this process's bench accumulator so a `--bench-out`
    // row reflects the throughput the service sustained.
    for _ in 0..study.tally.ok {
        bench::account(study.events_per_session, 0);
    }

    let (leaked_sessions, leaked_bytes) = await_drain(&addr, Duration::from_secs(30));
    study.leaked_sessions = leaked_sessions;
    study.leaked_bytes = leaked_bytes;
    study.server_peak_rss = child.vm_hwm();
    sampling.store(false, Ordering::Relaxed);
    monitor.join().expect("monitor");
    study.peak_active = usize::try_from(peak.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
    study.latencies_us.sort_unstable();
    drop(child); // polite shutdown
    Ok(study)
}
