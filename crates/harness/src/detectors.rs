//! The detector registry: the four configurations of Table 2 plus the
//! bloom-table ablation.

use hard::{HardConfig, HardMachine, HbMachine, HbMachineConfig};
use hard_hb::{IdealHappensBefore, IdealHbConfig};
use hard_lockset::bloom_table::{BloomLockset, BloomLocksetConfig};
use hard_lockset::{IdealLockset, IdealLocksetConfig};
use hard_obs::ObsHandle;
use hard_trace::{run_detector_observed, Detector, RaceReport, Trace, TraceEvent};
use hard_types::{Addr, FaultStats};
use std::fmt;

/// One of the detector configurations the paper evaluates.
#[derive(Clone, Copy, Debug)]
pub enum DetectorKind {
    /// HARD with a concrete hardware configuration ("default" columns).
    Hard(HardConfig),
    /// The ideal lockset implementation (4-byte granularity, exact
    /// sets, unbounded store).
    LocksetIdeal(IdealLocksetConfig),
    /// The hardware happens-before baseline.
    HbHw(HbMachineConfig),
    /// The ideal happens-before implementation. The vector-clock width
    /// is taken from the trace at run time.
    HbIdeal {
        /// Detection granularity (bytes per granule).
        granularity: hard_types::Granularity,
    },
    /// Ablation: bloom-filter lockset with unbounded metadata storage
    /// (isolates the bloom approximation from displacement).
    BloomUnbounded(BloomLocksetConfig),
}

impl DetectorKind {
    /// The paper's default HARD configuration.
    #[must_use]
    pub fn hard_default() -> DetectorKind {
        DetectorKind::Hard(HardConfig::default())
    }

    /// The paper's ideal lockset configuration.
    #[must_use]
    pub fn lockset_ideal() -> DetectorKind {
        DetectorKind::LocksetIdeal(IdealLocksetConfig::default())
    }

    /// The paper's default hardware happens-before configuration.
    #[must_use]
    pub fn hb_default() -> DetectorKind {
        DetectorKind::HbHw(HbMachineConfig::default())
    }

    /// The paper's ideal happens-before configuration.
    #[must_use]
    pub fn hb_ideal() -> DetectorKind {
        DetectorKind::HbIdeal {
            granularity: hard_types::Granularity::new(4),
        }
    }

    /// Parses a CLI/wire detector name (`hard`, `lockset-ideal`, `hb`,
    /// `hb-ideal`) into the corresponding default configuration —
    /// shared by `hard-exp replay`, `hard-exp submit` and the
    /// `hard-serve` session handler so every entry point accepts the
    /// same names.
    ///
    /// # Errors
    ///
    /// Names the unknown detector.
    pub fn parse(name: &str) -> Result<DetectorKind, String> {
        match name {
            "hard" => Ok(DetectorKind::hard_default()),
            "lockset-ideal" => Ok(DetectorKind::lockset_ideal()),
            "hb" => Ok(DetectorKind::hb_default()),
            "hb-ideal" => Ok(DetectorKind::hb_ideal()),
            other => Err(format!("unknown detector: {other}")),
        }
    }

    /// Short label for table headers.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DetectorKind::Hard(_) => "HARD",
            DetectorKind::LocksetIdeal(_) => "lockset-ideal",
            DetectorKind::HbHw(_) => "HB",
            DetectorKind::HbIdeal { .. } => "HB-ideal",
            DetectorKind::BloomUnbounded(_) => "bloom-unbounded",
        }
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The observable outcome of one detector execution.
#[derive(Clone, Debug)]
pub struct DetectorRun {
    /// All race reports.
    pub reports: Vec<RaceReport>,
    /// For each probe address (in input order): whether the hardware
    /// lost that line's metadata to L2 displacement. Always `false`
    /// for ideal detectors (they have no displacement).
    pub meta_lost: Vec<bool>,
}

/// Runs `kind` over `trace`. `probes` are addresses of interest (the
/// injected race's targets) whose metadata-loss status is recorded for
/// miss classification.
///
/// This is the per-event oracle: every detector sees one
/// [`Detector::on_event`] call per trace event. The production runner
/// ([`crate::runner`]) dispatches windows through
/// [`Detector::on_batch`] instead and must reproduce its reports
/// exactly.
///
/// The process-global observability handle
/// ([`hard_obs::installed`]) is attached to the hardware machines, so
/// a `--trace-out` style recorder sees every sweep without per-call
/// plumbing. With no global recorder installed (the default) this is
/// bit-identical to the pre-observability behaviour.
#[must_use]
pub fn execute(kind: &DetectorKind, trace: &Trace, probes: &[Addr]) -> DetectorRun {
    let obs = hard_obs::installed();
    let mut d = AnyDetector::build(kind, trace.num_threads, &obs);
    run_detector_observed(&mut d, trace, &obs);
    crate::bench::account(trace.len() as u64, d.cycles());
    d.finish(probes)
}

/// One built detector of any [`DetectorKind`], boxed so the runner's
/// engine and the oracle above drive every kind through one type.
pub(crate) enum AnyDetector {
    Hard(Box<HardMachine>),
    LocksetIdeal(Box<IdealLockset>),
    HbHw(Box<HbMachine>),
    HbIdeal(Box<IdealHappensBefore>),
    BloomUnbounded(Box<BloomLockset>),
}

impl AnyDetector {
    /// Builds `kind` for a `num_threads`-thread trace. The hardware
    /// machines report into `obs`.
    pub(crate) fn build(kind: &DetectorKind, num_threads: usize, obs: &ObsHandle) -> AnyDetector {
        match kind {
            DetectorKind::Hard(cfg) => {
                let mut m = Box::new(HardMachine::new(*cfg));
                m.attach_recorder(obs.clone());
                AnyDetector::Hard(m)
            }
            DetectorKind::LocksetIdeal(cfg) => {
                AnyDetector::LocksetIdeal(Box::new(IdealLockset::new(*cfg)))
            }
            DetectorKind::HbHw(cfg) => {
                let mut m = Box::new(HbMachine::new(*cfg));
                m.attach_recorder(obs.clone());
                AnyDetector::HbHw(m)
            }
            DetectorKind::HbIdeal { granularity } => {
                AnyDetector::HbIdeal(Box::new(IdealHappensBefore::new(IdealHbConfig {
                    num_threads,
                    granularity: *granularity,
                })))
            }
            DetectorKind::BloomUnbounded(cfg) => {
                AnyDetector::BloomUnbounded(Box::new(BloomLockset::new(*cfg)))
            }
        }
    }

    /// Simulated cycles so far. HARD is the only detector with a full
    /// timing model; the others report 0.
    pub(crate) fn cycles(&self) -> u64 {
        match self {
            AnyDetector::Hard(m) => m.total_cycles().0,
            _ => 0,
        }
    }

    pub(crate) fn fault_stats(&self) -> FaultStats {
        match self {
            AnyDetector::Hard(m) => m.fault_stats(),
            _ => FaultStats::default(),
        }
    }

    /// `(meta_broadcasts, l2_evictions)` for the hardware detectors;
    /// the ideal detectors have no memory hierarchy.
    pub(crate) fn traffic(&self) -> (u64, u64) {
        match self {
            AnyDetector::Hard(m) => (m.stats().meta_broadcasts, m.stats().l2_evictions),
            AnyDetector::HbHw(m) => (m.stats().meta_broadcasts, m.stats().l2_evictions),
            _ => (0, 0),
        }
    }

    /// The run's reports, plus the metadata-loss status of each probe
    /// (always `false` for the ideal detectors).
    pub(crate) fn finish(self, probes: &[Addr]) -> DetectorRun {
        let meta_lost = match &self {
            AnyDetector::Hard(m) => probes.iter().map(|&a| m.was_meta_lost(a)).collect(),
            AnyDetector::HbHw(m) => probes.iter().map(|&a| m.was_meta_lost(a)).collect(),
            _ => vec![false; probes.len()],
        };
        DetectorRun {
            reports: self.reports().to_vec(),
            meta_lost,
        }
    }
}

/// Evaluates `$body` with `$d` bound to whichever detector `$any` holds.
macro_rules! each {
    ($any:expr, $d:ident => $body:expr) => {
        match $any {
            AnyDetector::Hard($d) => $body,
            AnyDetector::LocksetIdeal($d) => $body,
            AnyDetector::HbHw($d) => $body,
            AnyDetector::HbIdeal($d) => $body,
            AnyDetector::BloomUnbounded($d) => $body,
        }
    };
}

// The machines override on_batch with their batched kernels; the
// ideal detectors run the trait's default per-event loop.
impl Detector for AnyDetector {
    fn name(&self) -> &str {
        each!(self, d => d.name())
    }

    fn on_event(&mut self, index: usize, e: &TraceEvent) {
        each!(self, d => d.on_event(index, e));
    }

    fn on_batch(&mut self, index: usize, events: &[TraceEvent]) {
        each!(self, d => d.on_batch(index, events));
    }

    fn reports(&self) -> &[RaceReport] {
        each!(self, d => d.reports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_trace::{ProgramBuilder, SchedConfig, Scheduler};
    use hard_types::{Addr, SiteId};

    #[test]
    fn all_kinds_execute_on_a_trivial_trace() {
        let mut b = ProgramBuilder::new(2);
        b.thread(0).write(Addr(0x1000), 4, SiteId(1));
        b.thread(1).write(Addr(0x1000), 4, SiteId(2));
        let trace = Scheduler::new(SchedConfig::default()).run(&b.build());
        let kinds = [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
            DetectorKind::BloomUnbounded(Default::default()),
        ];
        for k in kinds {
            let run = execute(&k, &trace, &[Addr(0x1000)]);
            assert!(
                !run.reports.is_empty(),
                "{k} must flag the unprotected sharing"
            );
            assert_eq!(run.meta_lost, vec![false]);
        }
    }

    /// Per-event and windowed dispatch agree on the campaign's own
    /// traces: every Table 2 cell (race-free and injected, all apps)
    /// under the four Table 2 detectors — reports and metadata loss for
    /// each, memory statistics for both machines and cycles for HARD.
    /// Two apps run at a time.
    #[test]
    fn per_event_and_batched_dispatch_agree_on_table2_cells() {
        use crate::campaign::{injected_trace, per_app, probes, race_free_trace, CampaignConfig};
        use hard_trace::{run_detector, run_detector_batched};
        fn machine_state(d: &AnyDetector) -> Option<(hard_cache::MemStats, u64)> {
            match d {
                AnyDetector::Hard(m) => Some((*m.stats(), m.total_cycles().0)),
                AnyDetector::HbHw(m) => Some((*m.stats(), 0)),
                _ => None,
            }
        }
        let cfg = CampaignConfig::reduced(0.2, 4);
        let cells = per_app(2, |app| {
            let mut cells = vec![(race_free_trace(app, &cfg), Vec::new())];
            cells.extend((0..cfg.runs).map(|run| {
                let (trace, injection) = injected_trace(app, &cfg, run);
                (trace, probes(&injection))
            }));
            for (cell, (trace, probes)) in cells.iter().enumerate() {
                for kind in crate::experiments::table2::detector_set() {
                    let obs = ObsHandle::off();
                    let mut per_event = AnyDetector::build(&kind, trace.num_threads, &obs);
                    let mut batched = AnyDetector::build(&kind, trace.num_threads, &obs);
                    run_detector(&mut per_event, trace);
                    run_detector_batched(&mut batched, trace);
                    let what = format!("{app} cell {cell} {kind}");
                    assert_eq!(machine_state(&per_event), machine_state(&batched), "{what}");
                    let (p, b) = (per_event.finish(probes), batched.finish(probes));
                    assert_eq!(p.reports, b.reports, "{what}");
                    assert_eq!(p.meta_lost, b.meta_lost, "{what}");
                }
            }
            cells.len()
        });
        assert_eq!(cells.iter().sum::<usize>(), 6 * 5, "every cell was checked");
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            DetectorKind::hard_default().label(),
            DetectorKind::lockset_ideal().label(),
            DetectorKind::hb_default().label(),
            DetectorKind::hb_ideal().label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
