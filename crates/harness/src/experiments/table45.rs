//! Tables 4 and 5: effect of the L2 cache size (128 KB – 1 MB) on
//! detected bugs (Table 4, expected weakly rising) and false alarms
//! (Table 5, expected weakly rising) for HARD and happens-before.

use super::table3::{hard_hb_rows, render_rows, Field, Table3Row};
use crate::campaign::CampaignConfig;
use crate::table::TextTable;
use hard::{HardConfig, HbMachineConfig};

/// The L2 capacities swept (bytes).
pub const L2_SIZES: [u64; 4] = [128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];

/// One application row of the sweep: Table 3's row type, per L2 size.
pub type L2SweepRow = Table3Row;

/// The combined Tables 4+5 result.
#[derive(Clone, Debug)]
pub struct L2Sweep {
    /// Rows in the paper's order.
    pub rows: Vec<L2SweepRow>,
    /// Runs per application.
    pub runs: usize,
}

/// Runs the L2 sweep, on the campaign pool.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> L2Sweep {
    let points = L2_SIZES.map(|size| {
        (
            HardConfig::default().with_l2_size(size),
            HbMachineConfig::default().with_l2_size(size),
        )
    });
    L2Sweep {
        rows: hard_hb_rows(cfg, points),
        runs: cfg.runs,
    }
}

impl L2Sweep {
    fn render(&self, hard: Field, hb: Field) -> TextTable {
        render_rows(
            &self.rows,
            &L2_SIZES.map(|s| format!("{}KB", s / 1024)),
            &[("HARD", hard), ("HB", hb)],
        )
    }

    /// Renders Table 4 (bugs detected).
    #[must_use]
    pub fn render_bugs(&self) -> TextTable {
        self.render(|r| &r.hard_bugs, |r| &r.hb_bugs)
    }

    /// Renders Table 5 (false alarms).
    #[must_use]
    pub fn render_alarms(&self) -> TextTable {
        self.render(|r| &r.hard_alarms, |r| &r.hb_alarms)
    }
}

impl std::fmt::Display for L2Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 4 — bugs detected vs. L2 size")?;
        writeln!(f, "{}", self.render_bugs())?;
        writeln!(f, "Table 5 — false alarms vs. L2 size")?;
        write!(f, "{}", self.render_alarms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_l2_never_detects_fewer_bugs_in_aggregate() {
        let cfg = CampaignConfig::reduced(0.08, 3);
        let t = run(&cfg);
        let total = |i: usize| -> usize { t.rows.iter().map(|r| r.hard_bugs[i]).sum() };
        assert!(
            total(3) >= total(0),
            "1MB ({}) must detect at least as many as 128KB ({})",
            total(3),
            total(0)
        );
        let s = t.to_string();
        assert!(s.contains("Table 4") && s.contains("Table 5"));
    }
}
