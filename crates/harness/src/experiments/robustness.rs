//! Methodological robustness: the headline comparison under different
//! scheduler quanta.
//!
//! The paper's results come from whatever interleavings SESC produced;
//! ours from a seeded quantum scheduler. This experiment re-runs the
//! aggregate Table 2 comparison across quantum bounds to show the
//! HARD-vs-happens-before gap is a property of the algorithms, not of
//! one scheduling regime.

use crate::campaign::{sweep_complete, CampaignConfig};
use crate::detectors::DetectorKind;
use crate::table::TextTable;

/// Aggregate detection totals at one quantum bound.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessRow {
    /// The scheduler's `max_quantum`.
    pub max_quantum: u32,
    /// Total bugs detected by HARD across all apps and runs.
    pub hard: usize,
    /// Total detected by the ideal lockset.
    pub ideal: usize,
    /// Total detected by hardware happens-before.
    pub hb: usize,
    /// Total injected runs.
    pub total: usize,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct Robustness {
    /// One row per quantum bound.
    pub rows: Vec<RobustnessRow>,
}

/// The quantum bounds swept.
pub const QUANTA: [u32; 4] = [1, 4, 16, 64];

/// Runs the sweep: one scored sweep per quantum bound, over the
/// injected runs only.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Robustness {
    let kinds = [
        DetectorKind::hard_default(),
        DetectorKind::lockset_ideal(),
        DetectorKind::hb_default(),
    ];
    let rows = QUANTA
        .iter()
        .map(|&q| {
            let qcfg = CampaignConfig {
                max_quantum: q,
                ..*cfg
            };
            let tallies = sweep_complete(&qcfg, |_, run| match run {
                Some(_) => kinds.to_vec(),
                None => Vec::new(),
            });
            let total = |i: usize| {
                tallies
                    .iter()
                    .filter_map(|t| t.get(i))
                    .map(|t| t.detected)
                    .sum()
            };
            RobustnessRow {
                max_quantum: q,
                hard: total(0),
                ideal: total(1),
                hb: total(2),
                total: tallies.len() * cfg.runs,
            }
        })
        .collect();
    Robustness { rows }
}

impl Robustness {
    /// Renders the sweep.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "max quantum",
            "HARD",
            "lockset-ideal",
            "happens-before",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.max_quantum.to_string(),
                format!("{}/{}", r.hard, r.total),
                format!("{}/{}", r.ideal, r.total),
                format!("{}/{}", r.hb, r.total),
            ]);
        }
        t
    }
}

impl std::fmt::Display for Robustness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockset_advantage_holds_across_schedulers() {
        let cfg = CampaignConfig::reduced(0.08, 2);
        let r = run(&cfg);
        assert_eq!(r.rows.len(), QUANTA.len());
        for row in &r.rows {
            assert!(
                row.hard >= row.hb,
                "quantum {}: HARD {} vs HB {}",
                row.max_quantum,
                row.hard,
                row.hb
            );
            assert!(row.ideal >= row.hard, "quantum {}", row.max_quantum);
        }
    }
}
