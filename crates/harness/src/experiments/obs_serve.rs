//! Observability campaign against a live server: end-to-end session
//! tracing and stage telemetry, profiled through a real `hard-serve`
//! process.
//!
//! The offline `obs` campaign measures the *detector pipeline*; this
//! one measures the *service around it*. It spawns a sibling
//! `hard-serve` with `--serve-metrics`, `--obs-jsonl`, and
//! `--slow-session-ms`, drives a fleet of `clients × sessions` traced
//! submissions (each client stamps its own 64-bit trace ID into the
//! `Begin` frame), then closes the loop through every telemetry
//! surface the server exposes:
//!
//! * **JSONL event stream** — every span the server emitted, tagged
//!   with its session's trace ID; the campaign reconstructs one
//!   timeline per session (`accept → handshake → upload → … → flush`)
//!   and computes per-stage p50/p99/max from the span walls.
//! * **Prometheus scrape** — `GET /metrics` after the fleet drains
//!   must show every event-driven gauge back at zero (no leaked
//!   sessions, bytes, queue slots, or workers) and one
//!   `hard_serve_recent_session{trace,verdict}` sample per session.
//! * **Health probe** — `GET /healthz` must answer `200` with
//!   `"ready":true` once the fleet is gone.
//!
//! [`ObsServeStudy::check`] enforces the invariants; violations are
//! rows in the study, not run errors, so the table still renders for
//! diagnosis.

use crate::campaign::CampaignConfig;
use crate::experiments::fleet::{await_drain, fixtures, Fleet, ServeChild, Tally};
use crate::service::RetryPolicy;
use crate::table::TextTable;
use hard_obs::jsonl;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parameters of the obs-serve campaign.
#[derive(Clone, Debug)]
pub struct ObsServeConfig {
    /// The underlying campaign shape (scale, inject mode) used to
    /// build the corpus fixtures.
    pub campaign: CampaignConfig,
    /// Concurrent client threads.
    pub clients: usize,
    /// Sessions each client submits.
    pub sessions_per_client: usize,
    /// Seeds the clients' backoff jitter.
    pub seed: u64,
    /// The retry discipline every client runs under.
    pub retry: RetryPolicy,
    /// Path of the `hard-serve` binary to spawn (default: a sibling of
    /// the current executable).
    pub serve_cmd: Option<String>,
    /// Where the child's JSONL event stream lands
    /// (default `results/obs-serve`).
    pub out_dir: Option<PathBuf>,
}

impl Default for ObsServeConfig {
    fn default() -> ObsServeConfig {
        ObsServeConfig {
            campaign: CampaignConfig::reduced(0.05, 2),
            clients: 4,
            sessions_per_client: 3,
            seed: 0x0B5E_57A6,
            retry: RetryPolicy {
                max_attempts: 6,
                base_delay: Duration::from_millis(20),
                max_delay: Duration::from_millis(500),
                jitter_seed: 0,
                connect_timeout: Duration::from_secs(5),
                io_timeout: Duration::from_secs(20),
            },
            serve_cmd: None,
            out_dir: None,
        }
    }
}

/// Per-stage latency summary computed from the server's span stream.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Canonical stage name (`serve:detect:<label>` and
    /// `serve:cache-hit:<origin>` collapse to their prefix).
    pub stage: String,
    /// Spans observed.
    pub count: usize,
    /// Median span wall time, microseconds (nearest-rank).
    pub p50_us: u64,
    /// 99th-percentile span wall time, microseconds (nearest-rank).
    pub p99_us: u64,
    /// Largest span wall time, microseconds.
    pub max_us: u64,
}

/// The campaign result: fleet tallies plus everything read back from
/// the server's three telemetry surfaces.
#[derive(Clone, Debug)]
pub struct ObsServeStudy {
    /// Sessions attempted (clients × sessions each).
    pub sessions: usize,
    /// The fleet's session verdicts, trace-ID echoes included.
    pub tally: Tally,
    /// Per-stage latency summaries, pipeline order.
    pub stages: Vec<StageRow>,
    /// The trace ID every client stamped, in spawn order.
    pub traces: Vec<u64>,
    /// Span names per trace ID, in emission (seq) order, from the
    /// JSONL stream.
    pub timelines: BTreeMap<u64, Vec<String>>,
    /// Total JSONL event lines the child wrote (all kinds).
    pub jsonl_events: usize,
    /// The raw `/metrics` body scraped after the fleet drained.
    pub scrape: String,
    /// The `/healthz` HTTP status line after the fleet drained.
    pub healthz_status: String,
    /// The `/healthz` body.
    pub healthz_body: String,
    /// Sessions still holding a slot after the drain deadline.
    pub leaked_sessions: u64,
    /// In-flight bytes still reserved after the drain deadline.
    pub leaked_bytes: u64,
    /// `hard_serve_slow_sessions_total` from the scrape.
    pub slow_sessions: u64,
}

/// The child's `--slow-session-ms` threshold: deliberately aggressive,
/// so the slow-session log path is exercised, not just compiled.
const SLOW_SESSION_MS: &str = "1";

/// Pipeline order for the stage table; unknown span names sort after.
const STAGE_ORDER: [&str; 8] = [
    "serve:accept",
    "serve:handshake",
    "serve:upload",
    "serve:queue-wait",
    "serve:detect",
    "serve:render",
    "serve:flush",
    "serve:cache-hit",
];

/// Collapses variant-suffixed span names to their canonical stage.
fn canonical_stage(name: &str) -> String {
    for prefix in ["serve:detect", "serve:cache-hit"] {
        if name.starts_with(prefix) {
            return prefix.to_string();
        }
    }
    name.to_string()
}

/// Nearest-rank percentile of a sorted sample (0 on empty input).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// One plain HTTP/1.1 GET; returns `(status_line, body)`.
fn http_get(addr: &str, path: &str) -> Result<(String, String), String> {
    use std::io::{Read, Write};
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad scrape address {addr}: {e}"))?;
    let mut s = std::net::TcpStream::connect_timeout(&sock, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .and_then(|()| s.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: obs\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("GET {path}: {e}"))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)
        .map_err(|e| format!("reading {path}: {e}"))?;
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The value of an unlabelled sample line (`name value`) in a
/// Prometheus text body.
fn sample_value(scrape: &str, name: &str) -> Option<f64> {
    scrape.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

/// Scrapes `/metrics` until every [`DRAIN_GAUGES`] sample reads zero
/// or the deadline passes, and returns the last body. The gauges trail
/// the health probe by one connection: when [`await_drain`] returns,
/// the server is still tearing down that last probe's own connection,
/// whose slot the probe excluded from its snapshot. A real leak never
/// settles, so the check still sees it.
fn drained_scrape(addr: &str, deadline: Duration) -> Result<String, String> {
    let until = Instant::now() + deadline;
    loop {
        let (_, scrape) = http_get(addr, "/metrics")?;
        let drained = DRAIN_GAUGES
            .iter()
            .all(|g| sample_value(&scrape, g) == Some(0.0));
        if drained || Instant::now() >= until {
            return Ok(scrape);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the campaign.
///
/// # Errors
///
/// Fixture construction, server management, scrape, and JSONL I/O
/// errors. Invariant violations are **not** errors here — call
/// [`ObsServeStudy::check`] to enforce them.
pub fn run(cfg: &ObsServeConfig) -> Result<ObsServeStudy, String> {
    let fixtures = fixtures(&cfg.campaign)?;
    let out_dir = cfg
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/obs-serve"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let jsonl_path = out_dir.join("serve-events.jsonl");
    let jsonl_arg = jsonl_path.display().to_string();
    let child = ServeChild::spawn(
        cfg.serve_cmd.as_deref(),
        &[
            "--serve-metrics",
            "127.0.0.1:0",
            "--obs-jsonl",
            &jsonl_arg,
            "--slow-session-ms",
            SLOW_SESSION_MS,
        ],
    )?;
    let metrics_addr = child
        .metrics_addr
        .clone()
        .ok_or("hard-serve did not announce a metrics address")?;

    // Client-chosen trace IDs under a recognizable prefix, so a
    // timeline in the JSONL names its origin.
    let fleet = Fleet {
        fixtures: &fixtures,
        clients: cfg.clients,
        sessions_per_client: cfg.sessions_per_client,
        retry: cfg.retry,
        seed: cfg.seed,
        trace_base: 0x0B5E_C0DE_0000_0000,
    };
    let tally = fleet.run(&child.addr);

    let (leaked_sessions, leaked_bytes) = await_drain(&child.addr, Duration::from_secs(10));

    // Read the live surfaces while the child is still up, then shut it
    // down politely — the JSONL sink flushes on exit.
    let scrape = drained_scrape(&metrics_addr, Duration::from_secs(5))?;
    let (healthz_status, healthz_body) = http_get(&metrics_addr, "/healthz")?;
    drop(child);

    let stream = std::fs::read_to_string(&jsonl_path)
        .map_err(|e| format!("cannot read {}: {e}", jsonl_path.display()))?;
    let mut jsonl_events = 0usize;
    // (seq, trace, stage, wall_us) per trace-tagged span.
    let mut spans: Vec<(u64, u64, String, u64)> = Vec::new();
    for (i, line) in stream.lines().enumerate() {
        jsonl::validate_event_line(line)
            .map_err(|e| format!("{}:{}: {e}", jsonl_path.display(), i + 1))?;
        jsonl_events += 1;
        let v =
            jsonl::parse(line).map_err(|e| format!("{}:{}: {e}", jsonl_path.display(), i + 1))?;
        if v.get("kind").and_then(jsonl::Json::as_str) != Some("span_end") {
            continue;
        }
        let Some(trace) = v
            .get("trace")
            .and_then(jsonl::Json::as_str)
            .and_then(hard_obs::parse_trace)
        else {
            continue;
        };
        let seq = v.get("seq").and_then(jsonl::Json::as_u64).unwrap_or(0);
        let name = v
            .get("name")
            .and_then(jsonl::Json::as_str)
            .unwrap_or("")
            .to_string();
        let wall_us = v.get("wall_ns").and_then(jsonl::Json::as_u64).unwrap_or(0) / 1_000;
        spans.push((seq, trace, canonical_stage(&name), wall_us));
    }
    spans.sort_unstable_by_key(|&(seq, ..)| seq);

    let mut timelines: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut by_stage: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (_, trace, stage, wall_us) in &spans {
        timelines.entry(*trace).or_default().push(stage.clone());
        by_stage.entry(stage.clone()).or_default().push(*wall_us);
    }
    let mut stages: Vec<StageRow> = Vec::with_capacity(by_stage.len());
    let order = |stage: &str| {
        STAGE_ORDER
            .iter()
            .position(|s| *s == stage)
            .unwrap_or(STAGE_ORDER.len())
    };
    let mut names: Vec<&String> = by_stage.keys().collect();
    names.sort_by_key(|n| (order(n), (*n).clone()));
    for name in names {
        let mut walls = by_stage[name].clone();
        walls.sort_unstable();
        stages.push(StageRow {
            stage: name.clone(),
            count: walls.len(),
            p50_us: percentile(&walls, 50),
            p99_us: percentile(&walls, 99),
            max_us: *walls.last().expect("by_stage entries are nonempty"),
        });
    }

    Ok(ObsServeStudy {
        sessions: fleet.sessions(),
        tally,
        stages,
        traces: fleet.trace_ids(),
        timelines,
        jsonl_events,
        slow_sessions: sample_value(&scrape, "hard_serve_slow_sessions_total").unwrap_or(0.0)
            as u64,
        scrape,
        healthz_status,
        healthz_body,
        leaked_sessions,
        leaked_bytes,
    })
}

/// The event-driven gauges that must read zero once the fleet drains.
const DRAIN_GAUGES: [&str; 4] = [
    "hard_serve_active_sessions",
    "hard_serve_inflight_bytes",
    "hard_serve_queue_depth",
    "hard_serve_busy_workers",
];

/// Stages every successful session passes through regardless of cache
/// state, in pipeline order.
const REQUIRED_STAGES: [&str; 4] = [
    "serve:accept",
    "serve:handshake",
    "serve:upload",
    "serve:flush",
];

impl ObsServeStudy {
    /// Renders the per-stage latency summary.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec!["stage", "spans", "p50_us", "p99_us", "max_us"]);
        for s in &self.stages {
            t.row(vec![
                s.stage.clone(),
                s.count.to_string(),
                s.p50_us.to_string(),
                s.p99_us.to_string(),
                s.max_us.to_string(),
            ]);
        }
        t
    }

    /// One line per telemetry surface, for the CLI epilogue.
    #[must_use]
    pub fn summary_notes(&self) -> Vec<String> {
        vec![
            format!(
                "fleet: {} session(s), {} ok, {} divergent, {} failed, {} echo mismatch(es), \
                 {} retries, {} busy",
                self.sessions,
                self.tally.ok,
                self.tally.divergent,
                self.tally.failed,
                self.tally.echo_mismatch,
                self.tally.retries,
                self.tally.busy
            ),
            format!(
                "jsonl: {} event line(s), {} session timeline(s) reconstructed by trace ID",
                self.jsonl_events,
                self.timelines.len()
            ),
            format!(
                "scrape: {} recent-session sample(s), {} slow session(s) over threshold, healthz {}",
                self.traces
                    .iter()
                    .filter(|t| self.scrape.contains(&hard_obs::fmt_trace(**t)))
                    .count(),
                self.slow_sessions,
                self.healthz_status
            ),
        ]
    }

    /// Invariant check: every session succeeded with a byte-identical
    /// report and an echoed trace ID, every trace's timeline contains
    /// the full stage sequence in order, every trace appears in the
    /// Prometheus scrape, all event-driven gauges drained to zero, no
    /// slots or bytes leaked, and `/healthz` answers ready.
    ///
    /// # Errors
    ///
    /// Describes every violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        let t = &self.tally;
        if t.divergent > 0 || t.failed > 0 || t.ok != self.sessions {
            violations.push(format!(
                "{} of {} session(s) ok ({} divergent, {} failed)",
                t.ok, self.sessions, t.divergent, t.failed
            ));
        }
        if t.echo_mismatch > 0 {
            violations.push(format!(
                "{} report(s) echoed a trace ID other than the one the client stamped",
                t.echo_mismatch
            ));
        }
        if self.leaked_sessions > 0 || self.leaked_bytes > 0 {
            violations.push(format!(
                "leaked {} session slot(s) / {} in-flight byte(s) after drain",
                self.leaked_sessions, self.leaked_bytes
            ));
        }
        for gauge in DRAIN_GAUGES {
            match sample_value(&self.scrape, gauge) {
                Some(0.0) => {}
                Some(v) => violations.push(format!("{gauge} is {v} after drain, want 0")),
                None => violations.push(format!("{gauge} missing from the scrape")),
            }
        }
        for &trace in &self.traces {
            let hex = hard_obs::fmt_trace(trace);
            match self.timelines.get(&trace) {
                None => violations.push(format!("trace {hex} has no spans in the JSONL stream")),
                Some(timeline) => {
                    let mut last = None;
                    for stage in REQUIRED_STAGES {
                        match timeline.iter().position(|s| s == stage) {
                            Some(at) if Some(at) > last || last.is_none() => last = Some(at),
                            Some(_) => violations
                                .push(format!("trace {hex}: {stage} out of pipeline order")),
                            None => {
                                violations.push(format!("trace {hex}: timeline missing {stage}"));
                            }
                        }
                    }
                }
            }
            if !self.scrape.contains(&hex) {
                violations.push(format!("trace {hex} missing from the Prometheus scrape"));
            }
        }
        if !self.healthz_status.contains("200") || !self.healthz_body.contains("\"ready\":true") {
            violations.push(format!(
                "healthz not ready after drain: {} {}",
                self.healthz_status, self.healthz_body
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

impl std::fmt::Display for ObsServeStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&s, 50), 50);
        assert_eq!(percentile(&s, 99), 100);
        assert_eq!(percentile(&s, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn canonical_stage_collapses_variants() {
        assert_eq!(canonical_stage("serve:detect:hard"), "serve:detect");
        assert_eq!(
            canonical_stage("serve:cache-hit:0b5ec0de00000000"),
            "serve:cache-hit"
        );
        assert_eq!(canonical_stage("serve:upload"), "serve:upload");
    }

    #[test]
    fn sample_value_matches_unlabelled_lines_only() {
        let scrape = "# TYPE hard_serve_queue_depth gauge\n\
                      hard_serve_queue_depth 0\n\
                      hard_serve_recent_session{trace=\"a\"} 12\n\
                      hard_serve_active_sessions 3\n";
        assert_eq!(sample_value(scrape, "hard_serve_queue_depth"), Some(0.0));
        assert_eq!(
            sample_value(scrape, "hard_serve_active_sessions"),
            Some(3.0)
        );
        assert_eq!(sample_value(scrape, "hard_serve_recent_session"), None);
        assert_eq!(sample_value(scrape, "hard_serve_shed_total"), None);
    }

    #[test]
    fn check_flags_out_of_order_and_missing_stages() {
        let trace = 0x0B5E_C0DE_0000_0000u64;
        let base = ObsServeStudy {
            sessions: 1,
            tally: Tally {
                ok: 1,
                ..Tally::default()
            },
            stages: Vec::new(),
            traces: vec![trace],
            timelines: BTreeMap::from([(
                trace,
                REQUIRED_STAGES.iter().map(|s| (*s).to_string()).collect(),
            )]),
            jsonl_events: 4,
            scrape: format!(
                "hard_serve_active_sessions 0\nhard_serve_inflight_bytes 0\n\
                 hard_serve_queue_depth 0\nhard_serve_busy_workers 0\n\
                 hard_serve_recent_session{{trace=\"{}\",verdict=\"report\"}} 10\n",
                hard_obs::fmt_trace(trace)
            ),
            healthz_status: "HTTP/1.1 200 OK".into(),
            healthz_body: "{\"ready\":true}".into(),
            leaked_sessions: 0,
            leaked_bytes: 0,
            slow_sessions: 0,
        };
        assert!(base.check().is_ok(), "{:?}", base.check());

        let mut reordered = base.clone();
        reordered.timelines.get_mut(&trace).unwrap().swap(0, 2);
        assert!(reordered.check().unwrap_err().contains("pipeline order"));

        let mut missing = base.clone();
        missing.timelines.get_mut(&trace).unwrap().pop();
        assert!(missing.check().unwrap_err().contains("missing serve:flush"));

        let mut leaked = base.clone();
        leaked.scrape = leaked
            .scrape
            .replace("hard_serve_queue_depth 0", "hard_serve_queue_depth 2");
        assert!(leaked
            .check()
            .unwrap_err()
            .contains("hard_serve_queue_depth"));

        let mut unscraped = base.clone();
        unscraped.scrape = unscraped
            .scrape
            .replace(&hard_obs::fmt_trace(trace), "ffffffffffffffff");
        assert!(unscraped
            .check()
            .unwrap_err()
            .contains("missing from the Prometheus scrape"));

        let mut misechoed = base.clone();
        misechoed.tally.echo_mismatch = 1;
        assert!(misechoed.check().unwrap_err().contains("echoed a trace ID"));

        let mut unready = base;
        unready.healthz_status = "HTTP/1.1 503 Service Unavailable".into();
        assert!(unready.check().unwrap_err().contains("healthz"));
    }
}
