//! Chaos campaign: the serve tier under seeded network faults.
//!
//! The `faults` sweep asks what the *machine* does when its metadata
//! hardware misbehaves; this campaign asks the same question of the
//! *service*. For each network fault rate (ppm per I/O operation,
//! applied uniformly to resets, bit flips, stalls, and short
//! transfers by a [`crate::chaos::ChaosProxy`] between the clients and
//! a real `hard-serve` instance), a fleet of concurrent retrying
//! clients submits known corpora and the campaign enforces the serve
//! tier's safety invariant end to end:
//!
//! * **No wrong report** — every session that ends in a `Report` is
//!   byte-identical to the offline replay of the same corpus; a
//!   corrupted upload must surface as an explicit error (and be
//!   retried to eventual success), never as a divergent report.
//! * **Eventual success** — with bounded retries, every client session
//!   eventually completes at the swept rates.
//! * **No leaks** — after the fleet drains, the server's session slots
//!   and in-flight byte budget are back to zero (asserted through a
//!   `Health` probe sent directly to the server, bypassing the proxy).
//! * **Bit-inert at rate 0** — the zero-rate row must show zero
//!   injected faults and zero retries: the chaos path costs nothing
//!   when disabled.
//!
//! The campaign drives a *real* `hard-serve` process (spawned as a
//! sibling binary, or an external `--addr`) so the faults cross a real
//! TCP stack, not a loopback mock.

use crate::campaign::CampaignConfig;
use crate::chaos::{ChaosProxy, ChaosSnapshot, NetFaultPlan};
use crate::experiments::fleet::{await_drain, fixtures, Fleet, ServeChild, Tally};
use crate::service::RetryPolicy;
use crate::table::TextTable;
use std::time::Duration;

/// Parameters of the chaos campaign.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The underlying campaign shape (scale, inject mode) used to
    /// build the corpus fixtures.
    pub campaign: CampaignConfig,
    /// Network fault rates to sweep, in ppm per I/O operation.
    pub rates_ppm: Vec<u32>,
    /// Concurrent client threads per rate.
    pub clients: usize,
    /// Sessions each client submits per rate.
    pub sessions_per_client: usize,
    /// Seeds the fault schedules and the clients' backoff jitter.
    pub seed: u64,
    /// The retry discipline every client runs under.
    pub retry: RetryPolicy,
    /// An already-running `hard-serve` to target; `None` spawns a
    /// sibling `hard-serve` child process for the campaign's lifetime.
    pub addr: Option<String>,
    /// Path of the `hard-serve` binary to spawn (default: a sibling of
    /// the current executable). Ignored when `addr` is set.
    pub serve_cmd: Option<String>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            campaign: CampaignConfig::reduced(0.05, 2),
            rates_ppm: vec![0, 100, 1_000],
            clients: 8,
            sessions_per_client: 4,
            seed: 0xC4A0_5157,
            retry: RetryPolicy {
                // Generous budget: eventual success is the invariant
                // under test, so the budget must dominate the fault
                // rate, not race it.
                max_attempts: 10,
                base_delay: Duration::from_millis(20),
                max_delay: Duration::from_millis(500),
                jitter_seed: 0,
                connect_timeout: Duration::from_secs(5),
                io_timeout: Duration::from_secs(20),
            },
            addr: None,
            serve_cmd: None,
        }
    }
}

/// One rate's tallies.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// The swept fault rate (ppm per I/O operation).
    pub rate_ppm: u32,
    /// Sessions attempted (clients × sessions each).
    pub sessions: usize,
    /// The fleet's session verdicts. An echo mismatch is tallied but
    /// not enforced here: a bit flip in a `Begin` frame can
    /// legitimately change the trace ID the server adopts.
    pub tally: Tally,
    /// Injected faults, from the proxy's own accounting.
    pub chaos: ChaosSnapshot,
    /// Sessions still holding a server slot after the drain deadline.
    pub leaked_sessions: u64,
    /// In-flight bytes still reserved after the drain deadline.
    pub leaked_bytes: u64,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct ChaosStudy {
    /// One row per swept rate, in sweep order.
    pub rows: Vec<ChaosRow>,
}

impl ChaosStudy {
    /// Renders the sweep as an aligned table.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "rate_ppm",
            "sessions",
            "ok",
            "divergent",
            "failed",
            "retries",
            "busy",
            "resets",
            "flips",
            "stalls",
            "shorts",
            "leaked",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.rate_ppm.to_string(),
                r.sessions.to_string(),
                r.tally.ok.to_string(),
                r.tally.divergent.to_string(),
                r.tally.failed.to_string(),
                r.tally.retries.to_string(),
                r.tally.busy.to_string(),
                r.chaos.resets.to_string(),
                r.chaos.flips.to_string(),
                r.chaos.stalls.to_string(),
                r.chaos.shorts.to_string(),
                format!("{}s/{}B", r.leaked_sessions, r.leaked_bytes),
            ]);
        }
        t
    }

    /// Invariant check: zero divergent reports, zero exhausted
    /// clients, zero leaked sessions or bytes, and a bit-inert
    /// zero-rate row (no injections, no retries).
    ///
    /// # Errors
    ///
    /// Describes every violated invariant.
    pub fn check(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        for r in &self.rows {
            if r.tally.divergent > 0 {
                violations.push(format!(
                    "rate {}: {} divergent report(s) — the no-wrong-report invariant is broken",
                    r.rate_ppm, r.tally.divergent
                ));
            }
            if r.tally.failed > 0 {
                violations.push(format!(
                    "rate {}: {} session(s) exhausted their retry budget",
                    r.rate_ppm, r.tally.failed
                ));
            }
            if r.leaked_sessions > 0 || r.leaked_bytes > 0 {
                violations.push(format!(
                    "rate {}: leaked {} session slot(s) / {} in-flight byte(s) after drain",
                    r.rate_ppm, r.leaked_sessions, r.leaked_bytes
                ));
            }
            if r.rate_ppm == 0
                && (r.chaos.resets + r.chaos.flips + r.chaos.stalls + r.chaos.shorts > 0)
            {
                violations.push(format!(
                    "rate 0 injected faults ({:?}) — the chaos path is not inert",
                    r.chaos
                ));
            }
            if r.rate_ppm == 0 && r.tally.retries > 0 {
                violations.push(format!(
                    "rate 0 needed {} retries — the fault-free path is not clean",
                    r.tally.retries
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// Runs the sweep.
///
/// # Errors
///
/// Fixture construction and server management errors. Invariant
/// violations are **not** errors here — they are rows in the study;
/// call [`ChaosStudy::check`] to enforce them.
pub fn run(cfg: &ChaosConfig) -> Result<ChaosStudy, String> {
    let fixtures = fixtures(&cfg.campaign)?;
    // One server outlives the whole sweep; each rate gets a fresh
    // proxy so its fault schedule is deterministic in isolation.
    let child = match cfg.addr.as_deref() {
        Some(_) => None,
        None => Some(ServeChild::spawn(cfg.serve_cmd.as_deref(), &[])?),
    };
    let server_addr = cfg
        .addr
        .clone()
        .or_else(|| child.as_ref().map(|c| c.addr.clone()))
        .expect("either an external addr or a spawned child");

    let mut rows = Vec::with_capacity(cfg.rates_ppm.len());
    for (rate_idx, &rate_ppm) in cfg.rates_ppm.iter().enumerate() {
        let plan = if rate_ppm == 0 {
            NetFaultPlan::none()
        } else {
            NetFaultPlan::uniform(
                cfg.seed ^ (rate_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                rate_ppm,
            )
        };
        let proxy = ChaosProxy::spawn("127.0.0.1:0", &server_addr, plan)
            .map_err(|e| format!("cannot start chaos proxy: {e}"))?;
        let fleet = Fleet {
            fixtures: &fixtures,
            clients: cfg.clients,
            sessions_per_client: cfg.sessions_per_client,
            retry: cfg.retry,
            seed: cfg.seed ^ u64::from(rate_ppm),
            trace_base: 0xC4A0_0000_0000_0000 | ((rate_idx as u64) << 32),
        };
        let tally = fleet.run(&proxy.local_addr().to_string());

        // Leak check against the server directly (no faults in the
        // way): slots and bytes must drain once the fleet is gone.
        let (leaked_sessions, leaked_bytes) = await_drain(&server_addr, Duration::from_secs(10));
        rows.push(ChaosRow {
            rate_ppm,
            sessions: fleet.sessions(),
            tally,
            chaos: proxy.shutdown(),
            leaked_sessions,
            leaked_bytes,
        });
    }
    drop(child); // polite shutdown before returning
    Ok(ChaosStudy { rows })
}
