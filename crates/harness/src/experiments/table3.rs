//! Table 3: effect of the metadata granularity (4–32 B) on detected
//! bugs (expected constant) and false alarms (expected rising).

use crate::campaign::{sweep_complete, CampaignConfig};
use crate::detectors::DetectorKind;
use crate::table::TextTable;
use hard::{HardConfig, HbMachineConfig};
use hard_workloads::App;

/// The granularities swept (bytes).
pub const GRANULARITIES: [u64; 4] = [4, 8, 16, 32];

/// One application row of a four-point HARD vs. happens-before sweep
/// (Table 3's granularities, Tables 4+5's L2 sizes).
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// The application.
    pub app: App,
    /// Bugs detected by HARD per sweep point.
    pub hard_bugs: [usize; 4],
    /// Bugs detected by happens-before per sweep point.
    pub hb_bugs: [usize; 4],
    /// HARD false alarms per sweep point.
    pub hard_alarms: [usize; 4],
    /// Happens-before false alarms per sweep point.
    pub hb_alarms: [usize; 4],
}

/// The full Table 3 result.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// Rows in the paper's order.
    pub rows: Vec<Table3Row>,
    /// Runs per application.
    pub runs: usize,
}

/// Scores HARD and happens-before at each of four configuration points
/// over the scored sweep, one row per application.
pub(crate) fn hard_hb_rows(
    cfg: &CampaignConfig,
    points: [(HardConfig, HbMachineConfig); 4],
) -> Vec<Table3Row> {
    let kinds: Vec<DetectorKind> = points
        .iter()
        .flat_map(|&(hard, hb)| [DetectorKind::Hard(hard), DetectorKind::HbHw(hb)])
        .collect();
    App::all()
        .into_iter()
        .zip(sweep_complete(cfg, |_, _| kinds.clone()))
        .map(|(app, t)| Table3Row {
            app,
            hard_bugs: std::array::from_fn(|i| t[2 * i].detected),
            hb_bugs: std::array::from_fn(|i| t[2 * i + 1].detected),
            hard_alarms: std::array::from_fn(|i| t[2 * i].alarms),
            hb_alarms: std::array::from_fn(|i| t[2 * i + 1].alarms),
        })
        .collect()
}

/// A per-point field of [`Table3Row`].
pub(crate) type Field = fn(&Table3Row) -> &[usize; 4];

/// Renders four-point rows: per `(prefix, field)` column group, one
/// `"{prefix} {point}"` column for each of the four point labels.
pub(crate) fn render_rows(
    rows: &[Table3Row],
    points: &[String; 4],
    columns: &[(&str, Field)],
) -> TextTable {
    let mut headers = vec!["application".to_string()];
    for (prefix, _) in columns {
        headers.extend(points.iter().map(|p| format!("{prefix} {p}")));
    }
    let mut t = TextTable::new(headers);
    for r in rows {
        let mut cells = vec![r.app.name().to_string()];
        for (_, field) in columns {
            cells.extend(field(r).iter().map(ToString::to_string));
        }
        t.row(cells);
    }
    t
}

/// Runs the granularity sweep, on the campaign pool.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Table3 {
    let points = GRANULARITIES.map(|g| {
        (
            HardConfig::default().with_granularity(g),
            HbMachineConfig::default().with_granularity(g),
        )
    });
    Table3 {
        rows: hard_hb_rows(cfg, points),
        runs: cfg.runs,
    }
}

impl Table3 {
    /// Renders in the paper's layout.
    #[must_use]
    pub fn render(&self) -> TextTable {
        render_rows(
            &self.rows,
            &GRANULARITIES.map(|g| format!("{g}B")),
            &[
                ("HARD bugs", |r| &r.hard_bugs),
                ("HB bugs", |r| &r.hb_bugs),
                ("HARD alarms", |r| &r.hard_alarms),
                ("HB alarms", |r| &r.hb_alarms),
            ],
        )
    }
}

impl std::fmt::Display for Table3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarms_rise_with_granularity_and_bugs_do_not_fall() {
        let cfg = CampaignConfig::reduced(0.08, 3);
        let t = run(&cfg);
        for r in &t.rows {
            for w in r.hard_alarms.windows(2) {
                assert!(w[1] >= w[0], "{}: HARD alarms must not shrink", r.app);
            }
            for w in r.hb_alarms.windows(2) {
                assert!(w[1] >= w[0], "{}: HB alarms must not shrink", r.app);
            }
        }
        // Aggregate: coarser granularity produces strictly more alarms
        // somewhere (the false-sharing clusters exist by construction).
        let total = |f: fn(&Table3Row) -> usize| t.rows.iter().map(f).sum::<usize>();
        assert!(total(|r| r.hard_alarms[3]) > total(|r| r.hard_alarms[0]));
    }
}
