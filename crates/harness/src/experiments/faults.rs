//! Fault-rate sweep: graceful degradation of the HARD machine under
//! injected hardware faults.
//!
//! The paper evaluates HARD on fault-free hardware; this experiment
//! asks what a deployed detector does when its own metadata hardware
//! misbehaves. For each uniform fault rate (ppm per event, applied to
//! every fault class of [`FaultPlan`]) it reruns the Table 2 campaign
//! pipeline on HARD-with-faults and tallies bugs detected, false
//! alarms, conservative resets and injected faults.
//!
//! Two properties anchor the sweep:
//!
//! * the **zero-rate row is bit-identical** to the Table 2 HARD
//!   column — the fault layer is free when inert;
//! * every run completes with a structured outcome — panics and
//!   divergence are campaign *results* (`faulted` / `timed out`
//!   columns, expected to stay zero), not crashes.

use crate::campaign::{sweep, CampaignConfig, DetectorTally};
use crate::detectors::DetectorKind;
use crate::runner::RunLimits;
use crate::table::TextTable;
use hard::HardConfig;
use hard_types::FaultPlan;
use hard_workloads::App;

/// Parameters of the fault sweep.
#[derive(Clone, Debug)]
pub struct FaultsConfig {
    /// The underlying campaign (scale, runs, quantum, inject mode).
    pub campaign: CampaignConfig,
    /// Uniform fault rates to sweep, in parts-per-million per event.
    pub rates_ppm: Vec<u32>,
    /// Per-run resource bounds.
    pub limits: RunLimits,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            campaign: CampaignConfig::default(),
            rates_ppm: vec![0, 10, 100, 1_000, 10_000, 100_000],
            limits: RunLimits::unlimited(),
        }
    }
}

/// The tallies of one `(fault rate, app)` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Uniform fault rate in parts-per-million.
    pub rate_ppm: u32,
    /// Bugs detected across the injected runs.
    pub detected: usize,
    /// Runs that panicked inside the detector (hardening failures).
    pub faulted: usize,
    /// Runs that exceeded the cycle deadline.
    pub timed_out: usize,
    /// Source-level false alarms on the race-free run.
    pub alarms: usize,
    /// Conservative metadata resets across all runs.
    pub resets: u64,
    /// Total faults injected across all runs.
    pub injected: u64,
    /// Simulated cycles accumulated across all runs.
    pub cycles: u64,
    /// §3.4 metadata broadcasts accumulated across all runs.
    pub broadcasts: u64,
}

/// One `(rate, app)` cell with its application attached.
#[derive(Clone, Debug)]
pub struct FaultsRow {
    /// The application.
    pub app: App,
    /// The tallies.
    pub cell: Cell,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct FaultsStudy {
    /// One row per `(rate, app)`, rates outermost, paper app order.
    pub rows: Vec<FaultsRow>,
    /// Injected runs per cell.
    pub runs: usize,
}

/// The deterministic fault seed of one campaign run. Distinct per
/// (rate, app, run) so repeated cells reproduce exactly.
fn fault_seed(rate_ppm: u32, app: App, run_idx: usize) -> u64 {
    u64::from(rate_ppm) * 1_000_003 + (app as u64) * 131 + run_idx as u64
}

/// The HARD configuration for one faulted run.
fn hard_with_faults(rate_ppm: u32, seed: u64) -> DetectorKind {
    let plan = if rate_ppm == 0 {
        FaultPlan::none()
    } else {
        FaultPlan::uniform(seed, rate_ppm)
    };
    DetectorKind::Hard(HardConfig::default().with_faults(plan))
}

/// The cell of one `(rate, app)` tally.
fn cell(rate_ppm: u32, t: &DetectorTally) -> Cell {
    Cell {
        rate_ppm,
        detected: t.detected,
        faulted: t.faulted,
        timed_out: t.timed_out,
        alarms: t.alarms,
        resets: t.metrics.faults.conservative_resets,
        injected: t.metrics.faults.injected(),
        cycles: t.metrics.cycles,
        broadcasts: t.metrics.meta_broadcasts,
    }
}

/// Runs the sweep: one scored sweep per rate over every application,
/// on the campaign pool (`cfg.campaign.jobs` workers; `1` is truly
/// serial).
#[must_use]
pub fn run(cfg: &FaultsConfig) -> FaultsStudy {
    let apps = App::all();
    let mut rows = Vec::new();
    for &rate in &cfg.rates_ppm {
        // The race-free cell (`run` = `None`) takes its own fault seed.
        let kinds = |app, run: Option<usize>| {
            let seed = fault_seed(rate, app, run.unwrap_or(usize::MAX >> 1));
            vec![hard_with_faults(rate, seed)]
        };
        let tallies = sweep(&cfg.campaign, &apps, kinds, cfg.limits);
        rows.extend(apps.iter().zip(tallies).map(|(&app, t)| FaultsRow {
            app,
            cell: cell(rate, &t[0]),
        }));
    }
    FaultsStudy {
        rows,
        runs: cfg.campaign.runs,
    }
}

/// Aggregate tallies of one fault rate across all applications.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RateAgg {
    /// Uniform fault rate in parts-per-million.
    pub rate_ppm: u32,
    /// Bugs detected across all apps.
    pub detected: usize,
    /// Source-level false alarms across all apps.
    pub alarms: usize,
    /// Conservative metadata resets.
    pub resets: u64,
    /// Runs that panicked inside the detector.
    pub faulted: usize,
    /// Runs that exceeded a deadline.
    pub timed_out: usize,
    /// Faults injected.
    pub injected: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// §3.4 metadata broadcasts issued.
    pub broadcasts: u64,
}

impl FaultsStudy {
    /// Aggregate tallies per rate, in sweep order.
    #[must_use]
    pub fn per_rate(&self) -> Vec<RateAgg> {
        let mut out: Vec<RateAgg> = Vec::new();
        for r in &self.rows {
            if out.last().map(|o| o.rate_ppm) != Some(r.cell.rate_ppm) {
                out.push(RateAgg {
                    rate_ppm: r.cell.rate_ppm,
                    ..RateAgg::default()
                });
            }
            let o = out.last_mut().expect("just pushed");
            o.detected += r.cell.detected;
            o.alarms += r.cell.alarms;
            o.resets += r.cell.resets;
            o.faulted += r.cell.faulted;
            o.timed_out += r.cell.timed_out;
            o.injected += r.cell.injected;
            o.cycles += r.cell.cycles;
            o.broadcasts += r.cell.broadcasts;
        }
        out
    }

    /// Renders the per-application sweep.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "fault rate",
            "application",
            "bugs detected",
            "false alarms",
            "conservative resets",
            "faults injected",
            "crashed",
            "timed out",
            "cycles",
            "meta broadcasts",
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{}ppm", r.cell.rate_ppm),
                r.app.name().into(),
                format!("{}/{}", r.cell.detected, self.runs),
                r.cell.alarms.to_string(),
                r.cell.resets.to_string(),
                r.cell.injected.to_string(),
                r.cell.faulted.to_string(),
                r.cell.timed_out.to_string(),
                r.cell.cycles.to_string(),
                r.cell.broadcasts.to_string(),
            ]);
        }
        t
    }

    /// Renders the per-rate aggregate (the headline degradation curve).
    #[must_use]
    pub fn render_aggregate(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "fault rate",
            "bugs detected",
            "false alarms",
            "conservative resets",
            "faults injected",
            "crashed",
            "timed out",
            "cycles",
            "meta broadcasts",
        ]);
        let apps = App::all().len();
        for a in self.per_rate() {
            t.row(vec![
                format!("{}ppm", a.rate_ppm),
                format!("{}/{}", a.detected, self.runs * apps),
                a.alarms.to_string(),
                a.resets.to_string(),
                a.injected.to_string(),
                a.faulted.to_string(),
                a.timed_out.to_string(),
                a.cycles.to_string(),
                a.broadcasts.to_string(),
            ]);
        }
        t
    }
}

impl std::fmt::Display for FaultsStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render_aggregate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table2;

    fn reduced(rates: Vec<u32>) -> FaultsConfig {
        FaultsConfig {
            campaign: CampaignConfig::reduced(0.08, 3),
            rates_ppm: rates,
            limits: RunLimits::unlimited(),
        }
    }

    #[test]
    fn zero_rate_reproduces_the_table2_hard_column() {
        let cfg = reduced(vec![0]);
        let study = run(&cfg);
        let t2 = table2::run(&cfg.campaign);
        assert_eq!(study.rows.len(), t2.rows.len());
        for (fr, tr) in study.rows.iter().zip(&t2.rows) {
            assert_eq!(fr.app, tr.app);
            assert_eq!(fr.cell.detected, tr.hard.detected, "{}", fr.app);
            assert_eq!(fr.cell.alarms, tr.hard.alarms, "{}", fr.app);
            assert_eq!(fr.cell.resets, 0, "{}", fr.app);
            assert_eq!(fr.cell.injected, 0, "{}", fr.app);
            assert!(fr.cell.cycles > 0, "{}: runs consume cycles", fr.app);
            assert!(fr.cell.broadcasts > 0, "{}: sharing broadcasts", fr.app);
        }
    }

    #[test]
    fn sweep_is_panic_free_and_counts_faults() {
        let cfg = reduced(vec![0, 50_000]);
        let study = run(&cfg);
        assert_eq!(study.rows.len(), 12);
        for r in &study.rows {
            assert_eq!(r.cell.faulted, 0, "{}@{}ppm", r.app, r.cell.rate_ppm);
            assert_eq!(r.cell.timed_out, 0, "{}@{}ppm", r.app, r.cell.rate_ppm);
        }
        let agg = study.per_rate();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].injected, 0, "zero rate injects nothing");
        assert!(agg[1].injected > 0, "5% rate injects faults");
        assert!(agg[1].resets > 0, "meta flips cause conservative resets");
        assert!(agg[0].cycles > 0 && agg[1].cycles > 0);
        let rendered = study.render_aggregate().to_string();
        assert!(rendered.contains("50000ppm"));
        assert!(rendered.contains("cycles"));
    }
}
