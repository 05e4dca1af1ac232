//! Ablations of HARD's design choices, beyond the paper's own tables:
//!
//! * **barrier pruning** (§3.5) on vs. off — what the flash-reset buys;
//! * **snoopy vs. directory** metadata management (§3.4) — identical
//!   detection, different traffic;
//! * **lockset + happens-before combination** (§7) — alarms pruned vs.
//!   detection surrendered;
//! * **software vs. hardware lockset** (§1–§2) — the Eraser-style
//!   slowdown next to HARD's percent-level overhead.

use crate::campaign::{
    accumulate, expect_complete, injected_trace, race_free_trace, score_cell, CampaignConfig,
    CellTrace, DetectorTally,
};
use crate::detectors::DetectorKind;
use crate::runner::RunLimits;
use crate::table::TextTable;
use hard::{
    estimate_software_lockset, BaselineMachine, DirectoryHardMachine, HardConfig, HardMachine,
    HybridMachine, SoftwareLocksetCost,
};
use hard_trace::{run_detector, Detector, Trace};
use hard_types::Addr;
use hard_workloads::{App, Injection};
use std::collections::BTreeSet;

/// One application row of the ablation study.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// The application.
    pub app: App,
    /// Race-free alarms with barrier pruning (the default).
    pub alarms_pruned: usize,
    /// Race-free alarms without barrier pruning.
    pub alarms_raw: usize,
    /// Race-free alarms after the §7 lockset∩happens-before pruning.
    pub alarms_hybrid: usize,
    /// Bugs detected by HARD (default).
    pub bugs_hard: usize,
    /// Bugs detected by the hybrid combination.
    pub bugs_hybrid: usize,
    /// Bugs detected with the Figure 3 (2× L2 line, sectored) cache.
    pub bugs_fig3: usize,
    /// False alarms with the Figure 3 cache.
    pub alarms_fig3: usize,
    /// Snoopy metadata broadcasts on the race-free run.
    pub snoopy_broadcasts: u64,
    /// Directory metadata round trips on the race-free run.
    pub directory_requests: u64,
    /// The directory design found exactly the snoopy design's reports.
    pub directory_agrees: bool,
    /// Estimated software-lockset slowdown factor on this application.
    pub software_slowdown: f64,
    /// HARD's hardware overhead on the same trace (fraction).
    pub hard_overhead: f64,
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Rows in the paper's application order.
    pub rows: Vec<AblationRow>,
    /// Runs per application.
    pub runs: usize,
}

fn hybrid_run(trace: &hard_trace::Trace) -> (Vec<hard_trace::RaceReport>, HybridMachine) {
    let mut m = HybridMachine::new(HardConfig::default());
    run_detector(&mut m, trace);
    let combined = m.combined_reports();
    (combined, m)
}

/// Runs the ablation study, on the campaign pool.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Ablation {
    let obs = hard_obs::installed();
    let hard = DetectorKind::hard_default();
    let raw = DetectorKind::Hard(HardConfig {
        barrier_pruning: false,
        ..HardConfig::default()
    });
    let fig3 = DetectorKind::Hard(HardConfig::default().with_figure3_l2());
    // Scores a trace once the machines below are done with it.
    let score = |trace: Trace, injection: Option<&Injection>, kinds: &[DetectorKind]| {
        let cell = CellTrace::Materialized(trace);
        let tallies = score_cell(&cell, injection, kinds, RunLimits::unlimited(), &obs);
        expect_complete(&tallies);
        tallies
    };
    let rows = crate::campaign::per_app(cfg.jobs, |app| {
        let rf = race_free_trace(app, cfg);

        // Hybrid alarms on the race-free run.
        let (hybrid_reports, _) = hybrid_run(&rf);
        let hybrid_alarm_sites: BTreeSet<_> = hybrid_reports.iter().map(|r| r.site).collect();

        // Snoopy vs directory on the race-free run.
        let mut snoopy = HardMachine::new(HardConfig::default());
        run_detector(&mut snoopy, &rf);
        let mut dir = DirectoryHardMachine::new(HardConfig::default());
        run_detector(&mut dir, &rf);
        let directory_agrees = snoopy.reports() == dir.reports();

        // Software vs hardware cost on the race-free run.
        let mut base = BaselineMachine::new(HardConfig::default());
        let base_cycles = base.run(&rf).0;
        let sw = estimate_software_lockset(&rf, &SoftwareLocksetCost::default());
        let hard_overhead = if base_cycles == 0 {
            0.0
        } else {
            (snoopy.total_cycles().0 as f64 - base_cycles as f64) / base_cycles as f64
        };

        // Barrier pruning on/off and the Figure 3 L2 organization.
        let [pruned, raw, fig3_rf] = score(rf, None, &[hard, raw, fig3])[..] else {
            unreachable!("one tally per detector");
        };

        // Detection: HARD vs hybrid vs Figure 3 over the injected runs.
        let mut bugs = vec![DetectorTally::default(); 2];
        let mut bugs_hybrid = 0;
        for run_idx in 0..cfg.runs {
            let (trace, injection) = injected_trace(app, cfg, run_idx);
            let (combined, _) = hybrid_run(&trace);
            let hit = combined
                .iter()
                .any(|r| injection.overlaps(r.addr, Addr(r.addr.0 + u64::from(r.size))));
            if hit {
                bugs_hybrid += 1;
            }
            accumulate(&mut bugs, &score(trace, Some(&injection), &[hard, fig3]));
        }

        AblationRow {
            app,
            alarms_pruned: pruned.alarms,
            alarms_raw: raw.alarms,
            alarms_hybrid: hybrid_alarm_sites.len(),
            bugs_hard: bugs[0].detected,
            bugs_hybrid,
            bugs_fig3: bugs[1].detected,
            alarms_fig3: fig3_rf.alarms,
            snoopy_broadcasts: snoopy.stats().meta_broadcasts,
            directory_requests: dir.directory_requests(),
            directory_agrees,
            software_slowdown: sw.slowdown(base_cycles),
            hard_overhead,
        }
    });
    Ablation {
        rows,
        runs: cfg.runs,
    }
}

impl Ablation {
    /// Renders the barrier-pruning and hybrid columns.
    #[must_use]
    pub fn render_alarms(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "alarms (no pruning)",
            "alarms (HARD)",
            "alarms (HARD∩HB)",
            "bugs HARD",
            "bugs HARD∩HB",
            "bugs fig3-L2",
            "alarms fig3-L2",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                r.alarms_raw.to_string(),
                r.alarms_pruned.to_string(),
                r.alarms_hybrid.to_string(),
                format!("{}/{}", r.bugs_hard, self.runs),
                format!("{}/{}", r.bugs_hybrid, self.runs),
                format!("{}/{}", r.bugs_fig3, self.runs),
                r.alarms_fig3.to_string(),
            ]);
        }
        t
    }

    /// Renders the protocol and cost columns.
    #[must_use]
    pub fn render_costs(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "snoopy broadcasts",
            "directory round trips",
            "detection equal",
            "software lockset",
            "HARD overhead",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                r.snoopy_broadcasts.to_string(),
                r.directory_requests.to_string(),
                if r.directory_agrees { "yes" } else { "NO" }.into(),
                format!("{:.1}x", r.software_slowdown),
                format!("{:.2}%", r.hard_overhead * 100.0),
            ]);
        }
        t
    }
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Barrier pruning (§3.5) and the §7 combination:")?;
        writeln!(f, "{}", self.render_alarms())?;
        writeln!(f, "Metadata management (§3.4) and monitoring cost (§1):")?;
        write!(f, "{}", self.render_costs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shapes_hold_at_reduced_scale() {
        let cfg = CampaignConfig::reduced(0.08, 3);
        let a = run(&cfg);
        for r in &a.rows {
            // Barrier pruning never creates alarms.
            assert!(
                r.alarms_pruned <= r.alarms_raw,
                "{}: pruning must not add alarms",
                r.app
            );
            // The combination prunes further but may surrender bugs.
            assert!(r.alarms_hybrid <= r.alarms_pruned, "{}", r.app);
            assert!(r.bugs_hybrid <= r.bugs_hard, "{}", r.app);
            // Both metadata designs detect identically.
            assert!(r.directory_agrees, "{}", r.app);
            // The Figure 3 cache is a plausible HARD too.
            assert!(r.bugs_fig3 + 2 >= r.bugs_hard, "{}", r.app);
            // Directory traffic dwarfs snoopy broadcasts.
            assert!(r.directory_requests > r.snoopy_broadcasts, "{}", r.app);
            // Software lockset costs orders of magnitude more than HARD.
            assert!(
                r.software_slowdown > 1.0 + r.hard_overhead * 10.0,
                "{}: software {}x vs HARD {:.2}%",
                r.app,
                r.software_slowdown,
                r.hard_overhead * 100.0
            );
        }
        // Barrier-heavy ocean must show a pruning win.
        let ocean = a.rows.iter().find(|r| r.app == App::Ocean).unwrap();
        assert!(
            ocean.alarms_raw > ocean.alarms_pruned,
            "ocean: pruning must remove barrier-pattern alarms ({} vs {})",
            ocean.alarms_raw,
            ocean.alarms_pruned
        );
    }
}
