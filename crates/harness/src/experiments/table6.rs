//! Table 6: effect of the bloom-filter vector size (16 vs 32 bits).
//!
//! The paper's finding: the same bugs are detected with either size
//! (candidate sets are small, so the 16-bit vector does not collide)
//! and the false-alarm counts are nearly identical.

use crate::campaign::{sweep_complete, CampaignConfig};
use crate::detectors::DetectorKind;
use crate::table::TextTable;
use hard::HardConfig;
use hard_bloom::BloomShape;
use hard_workloads::App;

/// One application row.
#[derive(Clone, Copy, Debug)]
pub struct Table6Row {
    /// The application.
    pub app: App,
    /// Bugs detected with the 16-bit vector.
    pub bugs_16: usize,
    /// Bugs detected with the 32-bit vector.
    pub bugs_32: usize,
    /// False alarms with the 16-bit vector.
    pub alarms_16: usize,
    /// False alarms with the 32-bit vector.
    pub alarms_32: usize,
}

/// The full Table 6 result.
#[derive(Clone, Debug)]
pub struct Table6 {
    /// Rows in the paper's order.
    pub rows: Vec<Table6Row>,
    /// Runs per application.
    pub runs: usize,
}

/// Runs the bloom sweep, on the campaign pool.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Table6 {
    let kinds = [BloomShape::B16, BloomShape::B32]
        .map(|shape| DetectorKind::Hard(HardConfig::default().with_bloom(shape)));
    let rows = App::all()
        .into_iter()
        .zip(sweep_complete(cfg, |_, _| kinds.to_vec()))
        .map(|(app, t)| Table6Row {
            app,
            bugs_16: t[0].detected,
            bugs_32: t[1].detected,
            alarms_16: t[0].alarms,
            alarms_32: t[1].alarms,
        })
        .collect();
    Table6 {
        rows,
        runs: cfg.runs,
    }
}

impl Table6 {
    /// Renders in the paper's layout.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "bugs 16b",
            "bugs 32b",
            "alarms 16b",
            "alarms 32b",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                format!("{}/{}", r.bugs_16, self.runs),
                format!("{}/{}", r.bugs_32, self.runs),
                r.alarms_16.to_string(),
                r.alarms_32.to_string(),
            ]);
        }
        t
    }
}

impl std::fmt::Display for Table6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_size_does_not_change_detection() {
        let cfg = CampaignConfig::reduced(0.08, 3);
        let t = run(&cfg);
        for r in &t.rows {
            assert_eq!(
                r.bugs_16, r.bugs_32,
                "{}: 16-bit and 32-bit vectors must detect the same bugs",
                r.app
            );
            let diff = r.alarms_16.abs_diff(r.alarms_32);
            assert!(
                diff <= 1,
                "{}: alarm counts should differ by at most the paper's ±1 ({} vs {})",
                r.app,
                r.alarms_16,
                r.alarms_32
            );
        }
    }
}
