//! The serve campaigns' shared fleet: the `hard-serve` child they
//! drive, the drain probe that doubles as their leak check, and the
//! one closed-loop retrying client fleet with its verdict [`Tally`].
//!
//! `chaos` and `obs-serve` run `Fleet::run` as is. `serve-load` keeps
//! its own open-every-session-then-upload wave driver (a different
//! discipline: peak concurrency, not retries, is its point) but spawns
//! the same `ServeChild`, scores with the same [`Tally`] and drains
//! through the same `await_drain`.

use crate::campaign::CampaignConfig;
use crate::service::{probe_health, submit_bytes_retrying, Fixture, RetryPolicy, Submission};
use crate::ReportBody;
use hard_workloads::App;
use std::io::BufRead;
use std::time::{Duration, Instant};

/// Data-frame chunk size of every fleet upload.
const CHUNK: usize = 1 << 10;

/// The corpus fixtures the retrying fleets drive: water-nsquared
/// under HARD and barnes under the ideal lockset, so every fleet
/// exercises two traces and two detectors.
pub(crate) fn fixtures(cfg: &CampaignConfig) -> Result<Vec<Fixture>, String> {
    Ok(vec![
        Fixture::build(App::WaterNsquared, cfg, 0, "hard")?,
        Fixture::build(App::Barnes, cfg, 1, "lockset-ideal")?,
    ])
}

/// Session verdicts, summed over a fleet's clients.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Sessions whose report matched the offline replay byte for byte.
    pub ok: usize,
    /// Sessions whose report **differed** from offline replay — the
    /// no-wrong-report invariant violation; must be zero.
    pub divergent: usize,
    /// Sessions that ended without a report: retry budget exhausted,
    /// or an error or shed answer.
    pub failed: usize,
    /// Reports whose echoed session trace ID differs from the one the
    /// client stamped into its `Begin` frame.
    pub echo_mismatch: usize,
    /// Re-attempts across all sessions (0 = every first try landed).
    pub retries: u64,
    /// Attempts answered with a `Busy` shed.
    pub busy: u64,
}

impl Tally {
    /// Scores one session's final answer against the offline replay.
    /// `stamped` is the trace ID the client sent, if any; the echo is
    /// only checked when there was one to echo.
    pub(crate) fn score(
        &mut self,
        expected: &ReportBody,
        stamped: Option<u64>,
        outcome: &Result<Submission, String>,
    ) {
        match outcome {
            Ok(Submission::Report { body, trace }) => {
                if body == expected {
                    self.ok += 1;
                } else {
                    self.divergent += 1;
                }
                if stamped.is_some() && *trace != stamped {
                    self.echo_mismatch += 1;
                }
            }
            Ok(_) | Err(_) => self.failed += 1,
        }
    }

    /// Adds another tally into this one.
    pub(crate) fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.divergent += other.divergent;
        self.failed += other.failed;
        self.echo_mismatch += other.echo_mismatch;
        self.retries += other.retries;
        self.busy += other.busy;
    }
}

/// A closed-loop retrying client fleet: `clients` threads, each
/// submitting `sessions_per_client` fixtures round-robin under
/// `retry`, every session stamped with its own trace ID.
pub(crate) struct Fleet<'a> {
    /// The uploads and their offline-replay oracles.
    pub(crate) fixtures: &'a [Fixture],
    /// Concurrent client threads (at least one runs).
    pub(crate) clients: usize,
    /// Sessions each client submits (at least one).
    pub(crate) sessions_per_client: usize,
    /// The retry discipline every client runs under.
    pub(crate) retry: RetryPolicy,
    /// Seeds the clients' backoff jitter.
    pub(crate) seed: u64,
    /// High bits of every trace ID the fleet stamps; client and
    /// session fill the low 32 bits, so a timeline names its origin.
    pub(crate) trace_base: u64,
}

impl Fleet<'_> {
    /// Sessions the fleet submits in one [`Fleet::run`].
    pub(crate) fn sessions(&self) -> usize {
        self.clients.max(1) * self.sessions_per_client.max(1)
    }

    /// The trace ID session `sess` of client `client` carries.
    pub(crate) fn trace_id(&self, client: usize, sess: usize) -> u64 {
        self.trace_base | ((client as u64) << 16) | sess as u64
    }

    /// Every trace ID one run stamps, in client-then-session order.
    pub(crate) fn trace_ids(&self) -> Vec<u64> {
        (0..self.clients.max(1))
            .flat_map(|c| (0..self.sessions_per_client.max(1)).map(move |s| self.trace_id(c, s)))
            .collect()
    }

    /// Runs the fleet against `addr` to completion and tallies every
    /// session's verdict.
    pub(crate) fn run(&self, addr: &str) -> Tally {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients.max(1))
                .map(|client| {
                    let mut policy = self.retry;
                    policy.jitter_seed = self
                        .seed
                        .wrapping_add(client as u64)
                        .wrapping_mul(0x2545_F491_4F6C_DD1D);
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        for sess in 0..self.sessions_per_client.max(1) {
                            let fixture = &self.fixtures[(client + sess) % self.fixtures.len()];
                            let trace = Some(self.trace_id(client, sess));
                            let (outcome, stats) = submit_bytes_retrying(
                                addr,
                                &fixture.corpus,
                                &fixture.detector,
                                CHUNK,
                                &policy,
                                trace,
                            );
                            tally.retries += u64::from(stats.attempts.saturating_sub(1));
                            tally.busy += u64::from(stats.busy);
                            tally.score(&fixture.expected, trace, &outcome);
                        }
                        tally
                    })
                })
                .collect();
            let mut total = Tally::default();
            for h in handles {
                total.merge(h.join().expect("fleet client panicked"));
            }
            total
        })
    }
}

/// A `hard-serve` child process managed by a campaign: killed (after
/// a polite `Shutdown`) when dropped, so a panicking campaign never
/// leaves a stray server behind.
pub(crate) struct ServeChild {
    child: std::process::Child,
    pub(crate) addr: String,
    /// The `--serve-metrics` scrape address, when the child was
    /// spawned with that flag (parsed from its banner).
    pub(crate) metrics_addr: Option<String>,
}

impl ServeChild {
    /// Spawns `hard-serve` on an ephemeral port (with `extra_args`
    /// appended, e.g. `--serve-metrics`) and parses the bound
    /// address(es) from its stderr banner.
    pub(crate) fn spawn(
        serve_cmd: Option<&str>,
        extra_args: &[&str],
    ) -> Result<ServeChild, String> {
        let path = match serve_cmd {
            Some(cmd) => std::path::PathBuf::from(cmd),
            None => {
                let me = std::env::current_exe()
                    .map_err(|e| format!("cannot locate current executable: {e}"))?;
                let dir = me
                    .parent()
                    .ok_or("current executable has no parent directory")?;
                // Integration tests live one level down in deps/.
                let sibling = dir.join("hard-serve");
                if sibling.exists() {
                    sibling
                } else {
                    dir.parent()
                        .map(|d| d.join("hard-serve"))
                        .filter(|p| p.exists())
                        .ok_or_else(|| {
                            format!(
                                "hard-serve binary not found next to {} — build it \
                                 (`cargo build --bin hard-serve`) or pass --serve-cmd/--addr",
                                me.display()
                            )
                        })?
                }
            }
        };
        let mut child = std::process::Command::new(&path)
            .args([
                "--addr",
                "127.0.0.1:0",
                // A short idle timeout reclaims sessions whose client
                // connection a fault tore mid-upload.
                "--idle-timeout-ms",
                "1500",
                "--workers",
                "2",
                // Capacity (workers + queue) at least the default
                // fleet size, so rate 0 is retry-free; the shed path
                // itself is pinned by the serve chaos integration
                // test, not the campaigns.
                "--queue-depth",
                "8",
                "--busy-retry-after-ms",
                "50",
            ])
            .args(extra_args)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
        let stderr = child.stderr.take().ok_or("child stderr not captured")?;
        let mut lines = std::io::BufReader::new(stderr);
        // The metrics banner (if any) prints before the listening one.
        let mut metrics_addr = None;
        let addr = loop {
            let mut line = String::new();
            match lines.read_line(&mut line) {
                Ok(0) => {
                    let _ = child.kill();
                    return Err("hard-serve exited before announcing its address".into());
                }
                Ok(_) => {
                    let line = line.trim();
                    if let Some(rest) = line.strip_prefix("metrics on http://") {
                        if let Some(addr) = rest.split("/metrics").next() {
                            metrics_addr = Some(addr.to_string());
                        }
                    }
                    if let Some(rest) = line.strip_prefix("hard-serve listening on ") {
                        break rest.to_string();
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    return Err(format!("reading hard-serve banner: {e}"));
                }
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match lines.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
        Ok(ServeChild {
            child,
            addr,
            metrics_addr,
        })
    }

    /// The child's peak RSS (`VmHWM` from its procfs entry), in bytes;
    /// the self-probe in [`crate::bench::peak_rss_bytes`] cannot see
    /// another process.
    pub(crate) fn vm_hwm(&self) -> Option<u64> {
        crate::bench::proc_status_bytes(self.child.id(), "VmHWM")
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = crate::service::request_shutdown(&self.addr);
        // The polite path drains; the kill is the backstop for a
        // wedged child (and a no-op once it has exited).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls the server's health probe until sessions and in-flight bytes
/// drain to zero or the deadline passes; returns the final (leaked)
/// counts.
pub(crate) fn await_drain(addr: &str, deadline: Duration) -> (u64, u64) {
    let until = Instant::now() + deadline;
    let mut last = (u64::MAX, u64::MAX);
    while Instant::now() < until {
        if let Ok(h) = probe_health(addr, Duration::from_secs(2)) {
            last = (h.active_sessions, h.inflight_bytes);
            if last == (0, 0) {
                return last;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> ReportBody {
        ReportBody {
            label: "HARD".into(),
            events: 10,
            reports: Vec::new(),
        }
    }

    #[test]
    fn tally_scores_reports_echoes_and_failures() {
        let mut t = Tally::default();
        let report = |events, trace| {
            Ok(Submission::Report {
                body: ReportBody {
                    events,
                    ..expected()
                },
                trace,
            })
        };
        t.score(&expected(), Some(7), &report(10, Some(7)));
        t.score(&expected(), Some(7), &report(10, Some(8)));
        t.score(&expected(), None, &report(10, Some(9)));
        t.score(&expected(), Some(7), &report(11, Some(7)));
        t.score(&expected(), Some(7), &Err("reset".into()));
        t.score(
            &expected(),
            None,
            &Ok(Submission::ServerError {
                message: "checksum".into(),
                trace: None,
            }),
        );
        let want = Tally {
            ok: 3,
            divergent: 1,
            failed: 2,
            echo_mismatch: 1,
            retries: 0,
            busy: 0,
        };
        assert_eq!(t, want);
        let mut sum = Tally {
            retries: 2,
            busy: 1,
            ..Tally::default()
        };
        sum.merge(t);
        assert_eq!(
            sum,
            Tally {
                retries: 2,
                busy: 1,
                ..want
            }
        );
    }

    #[test]
    fn trace_ids_name_client_and_session() {
        let fleet = Fleet {
            fixtures: &[],
            clients: 2,
            sessions_per_client: 3,
            retry: RetryPolicy::default(),
            seed: 0,
            trace_base: 0x0B5E_C0DE_0000_0000,
        };
        assert_eq!(fleet.sessions(), 6);
        let ids = fleet.trace_ids();
        assert_eq!(ids.len(), 6);
        assert_eq!(ids[4], 0x0B5E_C0DE_0001_0001);
        let unique: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
    }
}
