//! Table 2: overall effectiveness of HARD vs. happens-before, default
//! and ideal, on six applications with 10 injected races each.

use crate::campaign::{sweep_complete, CampaignConfig};
use crate::detectors::DetectorKind;
use crate::table::TextTable;
use hard_workloads::App;

pub use crate::campaign::DetectorTally;

/// One application row.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// The application.
    pub app: App,
    /// HARD, default configuration.
    pub hard: DetectorTally,
    /// Ideal lockset.
    pub hard_ideal: DetectorTally,
    /// Hardware happens-before.
    pub hb: DetectorTally,
    /// Ideal happens-before.
    pub hb_ideal: DetectorTally,
}

/// The full Table 2 result.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Rows in the paper's application order.
    pub rows: Vec<Table2Row>,
    /// Injected runs per application.
    pub runs: usize,
}

/// The four Table 2 detector configurations.
#[must_use]
pub fn detector_set() -> [DetectorKind; 4] {
    [
        DetectorKind::hard_default(),
        DetectorKind::lockset_ideal(),
        DetectorKind::hb_default(),
        DetectorKind::hb_ideal(),
    ]
}

/// Runs the Table 2 campaign over the scored sweep: every cell's trace
/// is fetched once and all four detectors observe it; the result is
/// bit-identical for every worker count.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Table2 {
    let rows = App::all()
        .into_iter()
        .zip(sweep_complete(cfg, |_, _| detector_set().to_vec()))
        .map(|(app, t)| Table2Row {
            app,
            hard: t[0],
            hard_ideal: t[1],
            hb: t[2],
            hb_ideal: t[3],
        })
        .collect();
    Table2 {
        rows,
        runs: cfg.runs,
    }
}

impl Table2 {
    /// Total bugs detected by HARD (default) across applications.
    #[must_use]
    pub fn hard_total_detected(&self) -> usize {
        self.rows.iter().map(|r| r.hard.detected).sum()
    }

    /// Total bugs detected by happens-before (default).
    #[must_use]
    pub fn hb_total_detected(&self) -> usize {
        self.rows.iter().map(|r| r.hb.detected).sum()
    }

    /// Renders in the paper's layout.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "HARD bugs",
            "HARD alarms",
            "HARD-ideal bugs",
            "HARD-ideal alarms",
            "HB bugs",
            "HB alarms",
            "HB-ideal bugs",
            "HB-ideal alarms",
        ]);
        for r in &self.rows {
            let frac = |d: usize| format!("{d}/{}", self.runs);
            t.row(vec![
                r.app.name().into(),
                frac(r.hard.detected),
                r.hard.alarms.to_string(),
                frac(r.hard_ideal.detected),
                r.hard_ideal.alarms.to_string(),
                frac(r.hb.detected),
                r.hb.alarms.to_string(),
                frac(r.hb_ideal.detected),
                r.hb_ideal.alarms.to_string(),
            ]);
        }
        t
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_campaign_has_paper_shape() {
        let cfg = CampaignConfig::reduced(0.1, 4);
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 6);
        // Headline claims at reduced scale: HARD detects at least as
        // many bugs as happens-before overall, and the ideal variants
        // dominate their defaults.
        assert!(t.hard_total_detected() >= t.hb_total_detected());
        for r in &t.rows {
            assert!(r.hard_ideal.detected >= r.hard.detected, "{}", r.app);
            assert!(r.hb_ideal.detected >= r.hb.detected, "{}", r.app);
        }
        let rendered = t.render().to_string();
        assert!(rendered.contains("water-nsquared"));
    }
}
