//! Vector vs. scalar happens-before (the CORD-style cost/precision
//! trade-off among the paper's cited baselines): how much detection the
//! cheaper scalar clocks give up on the campaign workloads.

use crate::campaign::{injected_trace, CampaignConfig};
use crate::table::TextTable;
use hard_hb::{IdealHappensBefore, IdealHbConfig, ScalarHappensBefore, ScalarHbConfig};
use hard_trace::run_detector;
use hard_types::{Addr, Granularity};
use hard_workloads::App;

/// One application row.
#[derive(Clone, Copy, Debug)]
pub struct CordRow {
    /// The application.
    pub app: App,
    /// Bugs detected by vector-clock happens-before (line granularity,
    /// unbounded).
    pub vector: usize,
    /// Bugs detected by scalar-clock happens-before (same granularity
    /// and storage).
    pub scalar: usize,
}

/// The comparison result.
#[derive(Clone, Debug)]
pub struct Cord {
    /// Rows in the paper's order.
    pub rows: Vec<CordRow>,
    /// Runs per application.
    pub runs: usize,
}

/// Runs the comparison, on the campaign pool.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Cord {
    let rows = crate::campaign::per_app(cfg.jobs, |app| {
        let mut row = CordRow {
            app,
            vector: 0,
            scalar: 0,
        };
        for run_idx in 0..cfg.runs {
            let (trace, injection) = injected_trace(app, cfg, run_idx);
            let hit = |reports: &[hard_trace::RaceReport]| {
                reports
                    .iter()
                    .any(|r| injection.overlaps(r.addr, Addr(r.addr.0 + u64::from(r.size))))
            };
            let mut vector = IdealHappensBefore::new(IdealHbConfig {
                num_threads: trace.num_threads,
                granularity: Granularity::new(32),
            });
            if hit(&run_detector(&mut vector, &trace)) {
                row.vector += 1;
            }
            let mut scalar = ScalarHappensBefore::new(ScalarHbConfig::new(trace.num_threads));
            if hit(&run_detector(&mut scalar, &trace)) {
                row.scalar += 1;
            }
        }
        row
    });
    Cord {
        rows,
        runs: cfg.runs,
    }
}

impl Cord {
    /// Renders the comparison.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "vector-clock HB",
            "scalar-clock HB (CORD-style)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                format!("{}/{}", r.vector, self.runs),
                format!("{}/{}", r.scalar, self.runs),
            ]);
        }
        t
    }
}

impl std::fmt::Display for Cord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_never_beats_vector_in_aggregate() {
        let cfg = CampaignConfig::reduced(0.08, 3);
        let c = run(&cfg);
        let vector: usize = c.rows.iter().map(|r| r.vector).sum();
        let scalar: usize = c.rows.iter().map(|r| r.scalar).sum();
        assert!(
            scalar <= vector,
            "scalar coincidences can only hide races ({scalar} vs {vector})"
        );
        assert!(scalar > 0, "the scalar detector is not useless");
    }
}
