//! Campaign machinery: trace construction, bug scoring and alarm
//! counting, following the paper's methodology (§4–§5):
//!
//! * 10 runs per application, one injected dynamic race per run;
//! * all detectors observe *identical executions*;
//! * false positives are measured on the race-free execution and
//!   counted at source level (distinct static sites).
//!
//! Every detection campaign scores through one path: `score_cell`
//! runs a detector list over one trace through the production engine
//! ([`execute_hardened_cell_observed`]) into [`DetectorTally`]s, and
//! `sweep` does so for every application × {race-free, run 0..runs}
//! cell on the campaign pool.

use crate::detectors::{DetectorKind, DetectorRun};
use crate::runner::{execute_hardened_cell_observed, RunLimits, RunMetrics, RunOutcome};
use hard_obs::ObsHandle;
use hard_trace::{PackedTrace, SchedConfig, Scheduler, Trace};
use hard_types::{Addr, SiteId};
use hard_workloads::{inject_race, inject_wrong_lock, App, Injection, WorkloadConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How the per-run bug is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InjectMode {
    /// The paper's §4 mechanism: omit a dynamic lock/unlock pair.
    #[default]
    OmitPair,
    /// Replace a section's lock with a fresh, wrong one — a second bug
    /// class with the same lockset-visible symptom.
    WrongLock,
}

/// Parameters of one application campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Workload size multiplier.
    pub scale: hard_workloads::Scale,
    /// Number of injected runs (the paper uses 10).
    pub runs: usize,
    /// Scheduler quantum bound.
    pub max_quantum: u32,
    /// Bug class injected per run.
    pub mode: InjectMode,
    /// Worker-thread bound for campaign fan-out ([`per_app`] and the
    /// experiments' cell maps). `1` (the default) runs everything
    /// inline on the calling thread; results are bit-identical for
    /// every value.
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            scale: hard_workloads::Scale::Full,
            runs: 10,
            max_quantum: 16,
            mode: InjectMode::OmitPair,
            jobs: 1,
        }
    }
}

impl CampaignConfig {
    /// A reduced-scale campaign for tests.
    #[must_use]
    pub fn reduced(factor: f64, runs: usize) -> CampaignConfig {
        CampaignConfig {
            scale: hard_workloads::Scale::Reduced(factor),
            runs,
            ..CampaignConfig::default()
        }
    }

    /// The workload configuration for `app`.
    #[must_use]
    pub fn workload(&self, app: App) -> WorkloadConfig {
        WorkloadConfig {
            num_threads: 4,
            // A stable per-app structure seed.
            seed: 0xA00 + app as u64,
            scale: self.scale,
        }
    }
}

/// The race-free execution of `app` (used for false-alarm counting and
/// for the Figure 8 timing runs).
#[must_use]
pub fn race_free_trace(app: App, cfg: &CampaignConfig) -> Trace {
    let program = app.generate(&cfg.workload(app));
    Scheduler::new(SchedConfig {
        seed: 0x5EED_0000 + app as u64,
        max_quantum: cfg.max_quantum,
    })
    .run(&program)
}

/// Run `run_idx` of `app`'s campaign: the program with one injected
/// race, scheduled with a per-run interleaving seed.
#[must_use]
pub fn injected_trace(app: App, cfg: &CampaignConfig, run_idx: usize) -> (Trace, Injection) {
    let program = app.generate(&cfg.workload(app));
    let seed = 0xBEEF + run_idx as u64;
    let (injected, info) = match cfg.mode {
        InjectMode::OmitPair => inject_race(&program, seed),
        InjectMode::WrongLock => inject_wrong_lock(&program, seed),
    }
    .expect("every campaign workload has eligible critical sections");
    let trace = Scheduler::new(SchedConfig {
        seed: 0x1000_0000 + (app as u64) * 1000 + run_idx as u64,
        max_quantum: cfg.max_quantum,
    })
    .run(&injected);
    (trace, info)
}

/// One cell's trace, in either representation the hardened runner
/// accepts: materialized ([`Trace`]), as every campaign builds it, or
/// packed. The detector observes the identical event sequence either
/// way, so results are bit-identical across the two.
#[derive(Clone, Debug)]
pub enum CellTrace {
    /// A freshly generated, materialized trace.
    Materialized(Trace),
    /// A packed trace, shared across the cell's detectors.
    Packed(Arc<PackedTrace>),
}

impl CellTrace {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            CellTrace::Materialized(t) => t.events.len(),
            CellTrace::Packed(p) => p.len(),
        }
    }

    /// True when the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of threads in the traced program.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        match self {
            CellTrace::Materialized(t) => t.num_threads,
            CellTrace::Packed(p) => p.num_threads(),
        }
    }
}

/// Outcome of one detector on one injected run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BugOutcome {
    /// A report overlapped the injected race's target accesses.
    Detected,
    /// Missed, and the target's metadata was lost to L2 displacement —
    /// the paper's §5.1 explanation for every HARD default miss.
    MissedDisplaced,
    /// Missed for another reason (interleaving ordering for
    /// happens-before, first-toucher or bloom effects for lockset).
    Missed,
}

impl BugOutcome {
    /// True for [`BugOutcome::Detected`].
    #[must_use]
    pub fn is_detected(self) -> bool {
        matches!(self, BugOutcome::Detected)
    }
}

/// Scores a detector run against the injected ground truth.
#[must_use]
pub fn score(run: &DetectorRun, injection: &Injection) -> BugOutcome {
    let detected = run
        .reports
        .iter()
        .any(|r| injection.overlaps(r.addr, Addr(r.addr.0.saturating_add(u64::from(r.size)))));
    if detected {
        BugOutcome::Detected
    } else if run.meta_lost.iter().any(|&l| l) {
        BugOutcome::MissedDisplaced
    } else {
        BugOutcome::Missed
    }
}

/// The probe addresses for an injection: one representative byte per
/// target access.
#[must_use]
pub fn probes(injection: &Injection) -> Vec<Addr> {
    injection
        .section
        .exposed_accesses
        .iter()
        .map(|&(a, _, _)| a)
        .collect()
}

/// Runs `f` once per application on the campaign pool
/// ([`crate::parallel::map_cells`], bounded by `jobs`) and returns the
/// results in the paper's application order.
///
/// Every campaign cell is a pure function of its seeds, so fanning the
/// six applications out changes nothing but wall-clock time: results
/// are slotted by application index, never completion order.
pub fn per_app<R: Send>(jobs: usize, f: impl Fn(App) -> R + Sync) -> Vec<R> {
    let apps = App::all();
    crate::parallel::map_cells(jobs, &apps, |_, &app| f(app))
}

/// Counts false alarms the way the paper does: distinct static source
/// sites among the reports.
#[must_use]
pub fn alarm_sites(run: &DetectorRun) -> BTreeSet<SiteId> {
    run.reports.iter().map(|r| r.site).collect()
}

/// One detector's scored results over a set of cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorTally {
    /// Injected bugs detected.
    pub detected: usize,
    /// Misses attributable to L2 displacement of the metadata.
    pub missed_displaced: usize,
    /// Other misses.
    pub missed_other: usize,
    /// Source-level false alarms on the race-free run.
    pub alarms: usize,
    /// Runs that panicked inside the detector.
    pub faulted: usize,
    /// Runs that hit a [`RunLimits`] deadline.
    pub timed_out: usize,
    /// Resources of the completed runs, summed.
    pub metrics: RunMetrics,
}

impl std::ops::AddAssign for DetectorTally {
    fn add_assign(&mut self, other: DetectorTally) {
        self.detected += other.detected;
        self.missed_displaced += other.missed_displaced;
        self.missed_other += other.missed_other;
        self.alarms += other.alarms;
        self.faulted += other.faulted;
        self.timed_out += other.timed_out;
        self.metrics += other.metrics;
    }
}

/// Asserts that every run behind `tallies` completed. Campaigns that
/// print no crashed or timed-out column call this: their runs are
/// fault-free and unlimited, so anything else is a simulator bug.
///
/// # Panics
///
/// When a run crashed or timed out.
pub(crate) fn expect_complete(tallies: &[DetectorTally]) {
    for t in tallies {
        assert!(
            t.faulted == 0 && t.timed_out == 0,
            "fault-free unlimited runs always complete ({} crashed, {} timed out)",
            t.faulted,
            t.timed_out
        );
    }
}

/// Scores every detector of `kinds` on one trace: the race-free
/// execution when `injection` is `None` (false alarms), an injected
/// run otherwise (bug outcome). Each run goes through the production
/// engine under `limits`, reporting into `obs`; the result holds one
/// tally per detector, in `kinds` order.
#[must_use]
pub(crate) fn score_cell(
    trace: &CellTrace,
    injection: Option<&Injection>,
    kinds: &[DetectorKind],
    limits: RunLimits,
    obs: &ObsHandle,
) -> Vec<DetectorTally> {
    let pr = injection.map(probes).unwrap_or_default();
    kinds
        .iter()
        .map(|kind| {
            let mut t = DetectorTally::default();
            match execute_hardened_cell_observed(kind, trace, &pr, limits, obs) {
                RunOutcome::Ok(run, metrics) => {
                    t.metrics = metrics;
                    match injection.map(|inj| score(&run, inj)) {
                        None => t.alarms = alarm_sites(&run).len(),
                        Some(BugOutcome::Detected) => t.detected = 1,
                        Some(BugOutcome::MissedDisplaced) => t.missed_displaced = 1,
                        Some(BugOutcome::Missed) => t.missed_other = 1,
                    }
                }
                RunOutcome::Faulted { .. } => t.faulted = 1,
                RunOutcome::TimedOut { .. } => t.timed_out = 1,
            }
            t
        })
        .collect()
}

/// The scored campaign sweep: for each of `apps`, the race-free cell
/// and injected runs `0..cfg.runs`, each scored by [`score_cell`] with
/// the detectors `kinds(app, run)` returns (`run` is `None` for the
/// race-free cell). Each cell generates its trace in memory
/// ([`race_free_trace`], [`injected_trace`]); a cell whose list is
/// empty is skipped without generating it.
///
/// The cells fan out over `cfg.jobs` workers and merge in cell order,
/// so the result — per application, one tally per list position — is
/// bit-identical for every worker count.
pub(crate) fn sweep(
    cfg: &CampaignConfig,
    apps: &[App],
    kinds: impl Fn(App, Option<usize>) -> Vec<DetectorKind> + Sync,
    limits: RunLimits,
) -> Vec<Vec<DetectorTally>> {
    let mut cells = Vec::with_capacity(apps.len() * (cfg.runs + 1));
    for &app in apps {
        cells.push((app, None));
        cells.extend((0..cfg.runs).map(|i| (app, Some(i))));
    }
    let obs = hard_obs::installed();
    let scored = crate::parallel::map_cells(cfg.jobs, &cells, |_, &(app, run)| {
        let kinds = kinds(app, run);
        if kinds.is_empty() {
            return Vec::new();
        }
        let (trace, injection) = match run {
            None => (race_free_trace(app, cfg), None),
            Some(i) => {
                let (trace, injection) = injected_trace(app, cfg, i);
                (trace, Some(injection))
            }
        };
        let trace = CellTrace::Materialized(trace);
        score_cell(&trace, injection.as_ref(), &kinds, limits, &obs)
    });
    scored
        .chunks(cfg.runs + 1)
        .map(|app_cells| {
            let mut merged = Vec::new();
            for cell in app_cells {
                accumulate(&mut merged, cell);
            }
            merged
        })
        .collect()
}

/// Adds `cell`'s tallies into `sum` position by position, growing
/// `sum` to `cell`'s length first.
pub(crate) fn accumulate(sum: &mut Vec<DetectorTally>, cell: &[DetectorTally]) {
    if sum.len() < cell.len() {
        sum.resize(cell.len(), DetectorTally::default());
    }
    for (s, &t) in sum.iter_mut().zip(cell) {
        *s += t;
    }
}

/// [`sweep`] over every application with unlimited runs, for the
/// fault-free tables: panics unless every run completed
/// ([`expect_complete`]).
pub(crate) fn sweep_complete(
    cfg: &CampaignConfig,
    kinds: impl Fn(App, Option<usize>) -> Vec<DetectorKind> + Sync,
) -> Vec<Vec<DetectorTally>> {
    let tallies = sweep(cfg, &App::all(), kinds, RunLimits::unlimited());
    tallies.iter().for_each(|t| expect_complete(t));
    tallies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::{execute, DetectorKind};

    #[test]
    fn traces_are_deterministic() {
        let cfg = CampaignConfig::reduced(0.05, 2);
        let a = race_free_trace(App::WaterNsquared, &cfg);
        let b = race_free_trace(App::WaterNsquared, &cfg);
        assert_eq!(a, b);
        let (ta, ia) = injected_trace(App::WaterNsquared, &cfg, 0);
        let (tb, ib) = injected_trace(App::WaterNsquared, &cfg, 0);
        assert_eq!(ta, tb);
        assert_eq!(ia, ib);
    }

    #[test]
    fn runs_differ_by_index() {
        let cfg = CampaignConfig::reduced(0.05, 2);
        let (a, _) = injected_trace(App::Barnes, &cfg, 0);
        let (b, _) = injected_trace(App::Barnes, &cfg, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn injected_targets_are_never_alarmed_race_free() {
        // The scoring shortcut (detected = report overlaps targets)
        // relies on lock-protected variables being silent in race-free
        // runs; verify on a couple of apps.
        let cfg = CampaignConfig::reduced(0.05, 3);
        for app in [App::Barnes, App::WaterNsquared] {
            let rf = race_free_trace(app, &cfg);
            let run = execute(&DetectorKind::lockset_ideal(), &rf, &[]);
            for i in 0..cfg.runs {
                let (_, inj) = injected_trace(app, &cfg, i);
                for r in &run.reports {
                    assert!(
                        !inj.overlaps(r.addr, Addr(r.addr.0 + u64::from(r.size))),
                        "{app}: race-free alarm at {} overlaps an injectable target",
                        r.addr
                    );
                }
            }
        }
    }

    #[test]
    fn reports_at_the_top_of_the_address_space_score_without_wrapping() {
        use hard_trace::RaceReport;
        use hard_types::{AccessKind, LockId, ThreadId};
        let top = Addr(u64::MAX - 1);
        let inj = |addr| Injection {
            section: hard_workloads::CriticalSection {
                thread: ThreadId(0),
                lock: LockId(0x40),
                lock_index: 0,
                unlock_index: 2,
                exposed_accesses: vec![(addr, 4, AccessKind::Write)],
            },
        };
        let run = DetectorRun {
            reports: vec![RaceReport {
                addr: top,
                size: 4,
                site: SiteId(1),
                thread: ThreadId(1),
                kind: AccessKind::Write,
                event_index: 0,
            }],
            meta_lost: vec![false],
        };
        assert_eq!(score(&run, &inj(top)), BugOutcome::Detected);
        assert_eq!(score(&run, &inj(Addr(0))), BugOutcome::Missed);
    }

    #[test]
    fn ideal_lockset_scores_detected_on_an_injected_run() {
        let cfg = CampaignConfig::reduced(0.05, 1);
        let (trace, inj) = injected_trace(App::Barnes, &cfg, 0);
        let run = execute(&DetectorKind::lockset_ideal(), &trace, &probes(&inj));
        // Not guaranteed for every app/run, but barnes run 0 at this
        // scale is a dense-conflict injection; pin it as a regression.
        assert_eq!(score(&run, &inj), BugOutcome::Detected);
    }
}
