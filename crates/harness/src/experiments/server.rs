//! The §7 future-work evaluation: HARD on a server-style fork/join
//! application ("apache and mysql"-shaped threading instead of
//! barrier-phased SPLASH kernels) — plus [`MetricsServer`], the
//! Prometheus-style exposition endpoint behind `hard-exp obs --serve`.

use crate::campaign::{
    accumulate, expect_complete, score_cell, CampaignConfig, CellTrace, DetectorTally,
};
use crate::detectors::DetectorKind;
use crate::runner::RunLimits;
use crate::table::TextTable;
use hard_trace::{SchedConfig, Scheduler, Trace};
use hard_workloads::apps::server;
use hard_workloads::{inject_race, Injection, WorkloadConfig};

/// Per-detector tallies on the server workload.
#[derive(Clone, Debug)]
pub struct ServerResult {
    /// `(pool threads, detector label, tally)`.
    pub rows: Vec<(usize, &'static str, DetectorTally)>,
    /// Injected runs.
    pub runs: usize,
}

fn workload(cfg: &CampaignConfig, threads: usize) -> WorkloadConfig {
    WorkloadConfig {
        num_threads: threads,
        seed: 0x5E47,
        scale: cfg.scale,
    }
}

fn race_free(cfg: &CampaignConfig, threads: usize) -> Trace {
    let p = server::generate(&workload(cfg, threads));
    Scheduler::new(SchedConfig {
        seed: 0x5EED_5E17,
        max_quantum: cfg.max_quantum,
    })
    .run(&p)
}

fn injected(cfg: &CampaignConfig, threads: usize, run_idx: usize) -> (Trace, Injection) {
    let p = server::generate(&workload(cfg, threads));
    let (injected, info) = inject_race(&p, 0xFACE + run_idx as u64)
        .expect("the server workload has eligible critical sections");
    let trace = Scheduler::new(SchedConfig {
        seed: 0x2000_0000 + run_idx as u64,
        max_quantum: cfg.max_quantum,
    })
    .run(&injected);
    (trace, info)
}

fn detector_set(threads: usize) -> [DetectorKind; 4] {
    [
        DetectorKind::hard_default(),
        DetectorKind::lockset_ideal(),
        DetectorKind::HbHw(hard::HbMachineConfig::default().with_num_threads(threads)),
        DetectorKind::hb_ideal(),
    ]
}

/// Runs the server campaign: the paper-shaped 4-thread pool and an
/// 8-thread pool multiplexed onto the same 4 cores.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> ServerResult {
    let mut rows = Vec::new();
    let obs = hard_obs::installed();
    for threads in [4usize, 8] {
        let kinds = detector_set(threads);
        let score = |trace: Trace, injection: Option<&Injection>| {
            let tallies = score_cell(
                &CellTrace::Materialized(trace),
                injection,
                &kinds,
                RunLimits::unlimited(),
                &obs,
            );
            expect_complete(&tallies);
            tallies
        };
        let mut tallies = score(race_free(cfg, threads), None);
        for run_idx in 0..cfg.runs {
            let (trace, info) = injected(cfg, threads, run_idx);
            accumulate(&mut tallies, &score(trace, Some(&info)));
        }
        rows.extend(
            kinds
                .iter()
                .zip(tallies)
                .map(|(k, t)| (threads, k.label(), t)),
        );
    }
    ServerResult {
        rows,
        runs: cfg.runs,
    }
}

impl ServerResult {
    /// Renders the campaign.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "pool",
            "detector",
            "bugs detected",
            "displacement misses",
            "false alarms",
        ]);
        for (threads, label, tally) in &self.rows {
            t.row(vec![
                format!("{threads} threads"),
                (*label).into(),
                format!("{}/{}", tally.detected, self.runs),
                tally.missed_displaced.to_string(),
                tally.alarms.to_string(),
            ]);
        }
        t
    }
}

impl std::fmt::Display for ServerResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// A minimal HTTP/1.1 endpoint serving one Prometheus text-exposition
/// body at `GET /metrics` (format version 0.0.4). Deliberately
/// dependency-free and synchronous: the harness serves a finished
/// campaign snapshot, not a live production stream.
#[derive(Debug)]
pub struct MetricsServer {
    listener: std::net::TcpListener,
}

impl MetricsServer {
    /// Binds the endpoint; `addr` is e.g. `127.0.0.1:9464` or
    /// `127.0.0.1:0` for an ephemeral port.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        Ok(MetricsServer {
            listener: std::net::TcpListener::bind(addr)?,
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

    /// Serves `body` at `/metrics` until `max_requests` connections
    /// have been handled (`None` serves forever). Any other path gets
    /// a 404. Returns the number of requests served.
    ///
    /// # Errors
    ///
    /// Returns accept/write errors; a client that disconnects mid-read
    /// is skipped, not fatal.
    pub fn serve(&self, body: &str, max_requests: Option<usize>) -> std::io::Result<usize> {
        self.serve_with(|| body.to_string(), max_requests)
    }

    /// [`serve`](MetricsServer::serve) with a body *renderer* instead
    /// of a fixed string: `render` runs per request, so a long-running
    /// service (`hard-serve --serve-metrics`) exposes live counter
    /// values rather than the snapshot taken at bind time.
    ///
    /// # Errors
    ///
    /// Returns accept/write errors; a client that disconnects mid-read
    /// is skipped, not fatal.
    pub fn serve_with(
        &self,
        render: impl Fn() -> String,
        max_requests: Option<usize>,
    ) -> std::io::Result<usize> {
        self.serve_routes(render, None::<fn() -> (bool, String)>, max_requests)
    }

    /// [`serve_with`](MetricsServer::serve_with) plus an optional
    /// `GET /healthz` route. When `health` is given, a probe answers
    /// `200 OK` (healthy) or `503 Service Unavailable` (overloaded or
    /// shutting down) with the JSON admission snapshot as its body —
    /// the HTTP mirror of the wire protocol's `Health`/`Healthy`/
    /// `Busy` verdicts, consumable by load balancers that speak HTTP
    /// but not `HARDSRV1`. Without it, `/healthz` 404s like any other
    /// unknown path.
    ///
    /// # Errors
    ///
    /// Returns accept/write errors; a client that disconnects mid-read
    /// is skipped, not fatal.
    pub fn serve_routes(
        &self,
        render: impl Fn() -> String,
        health: Option<impl Fn() -> (bool, String)>,
        max_requests: Option<usize>,
    ) -> std::io::Result<usize> {
        use std::io::{BufRead, BufReader, Write};
        let mut served = 0;
        for stream in self.listener.incoming() {
            let mut stream = stream?;
            let mut request_line = String::new();
            if BufReader::new(&stream)
                .read_line(&mut request_line)
                .is_err()
            {
                continue;
            }
            let path = {
                let mut parts = request_line.split_ascii_whitespace();
                if parts.next() == Some("GET") {
                    parts.next().unwrap_or("").to_string()
                } else {
                    String::new()
                }
            };
            let response = if path == "/metrics" || path.starts_with("/metrics?") {
                let body = render();
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
            } else if path == "/healthz" && health.is_some() {
                let (ready, body) = health
                    .as_ref()
                    .map(|h| h())
                    .unwrap_or((false, String::new()));
                let status = if ready {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                format!(
                    "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
            } else {
                "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                    .to_string()
            };
            stream.write_all(response.as_bytes())?;
            served += 1;
            if Some(served) == max_requests {
                break;
            }
        }
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_endpoint_serves_exposition_and_404s_elsewhere() {
        use std::io::{Read as _, Write as _};
        let srv = MetricsServer::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = srv.local_addr().unwrap();
        let body = "# TYPE hard_trace_events_total counter\nhard_trace_events_total 42\n";
        let handle = std::thread::spawn(move || srv.serve(body, Some(2)).unwrap());

        let fetch = |path: &str| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = fetch("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("hard_trace_events_total 42"));
        let missing = fetch("/else");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn serve_with_renders_per_request() {
        use std::io::{Read as _, Write as _};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let srv = MetricsServer::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = srv.local_addr().unwrap();
        let hits = std::sync::Arc::new(AtomicUsize::new(0));
        let hits2 = std::sync::Arc::clone(&hits);
        let handle = std::thread::spawn(move || {
            srv.serve_with(
                || format!("live {}\n", hits2.fetch_add(1, Ordering::Relaxed)),
                Some(2),
            )
            .unwrap()
        });
        let fetch = || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write!(s, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        assert!(fetch().contains("live 0"));
        assert!(fetch().contains("live 1"), "body re-rendered per request");
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn healthz_mirrors_readiness() {
        use std::io::{Read as _, Write as _};
        use std::sync::atomic::{AtomicBool, Ordering};
        let srv = MetricsServer::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = srv.local_addr().unwrap();
        let ready = std::sync::Arc::new(AtomicBool::new(true));
        let ready2 = std::sync::Arc::clone(&ready);
        let handle = std::thread::spawn(move || {
            srv.serve_routes(
                || "m\n".to_string(),
                Some(move || {
                    let ok = ready2.load(Ordering::Relaxed);
                    (ok, format!("{{\"healthy\":{ok}}}"))
                }),
                Some(4),
            )
            .unwrap()
        });
        let fetch = |path: &str| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = fetch("/healthz");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("application/json"));
        assert!(ok.contains("\"healthy\":true"));
        ready.store(false, Ordering::Relaxed);
        let busy = fetch("/healthz");
        assert!(busy.starts_with("HTTP/1.1 503"), "{busy}");
        assert!(busy.contains("\"healthy\":false"));
        assert!(fetch("/metrics").contains("m\n"), "/metrics still routed");
        assert!(fetch("/nope").starts_with("HTTP/1.1 404"));
        assert_eq!(handle.join().unwrap(), 4);
    }

    #[test]
    fn server_campaign_has_sensible_shape() {
        let cfg = CampaignConfig::reduced(0.3, 4);
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 8, "4 detectors x 2 pool sizes");
        for threads in [4usize, 8] {
            let get = |label: &str| {
                r.rows
                    .iter()
                    .find(|(t, l, _)| *t == threads && *l == label)
                    .unwrap()
                    .2
            };
            let hard = get("HARD");
            let ideal = get("lockset-ideal");
            let hb = get("HB");
            assert!(
                ideal.detected >= hard.detected,
                "{threads}: ideal dominates HARD"
            );
            assert!(
                hard.detected >= hb.detected,
                "{threads}: lockset beats happens-before"
            );
            assert!(
                hard.detected >= r.runs / 2,
                "{threads}: most injections caught"
            );
        }
    }
}
