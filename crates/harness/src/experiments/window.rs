//! The §3.6 detection-window measurement.
//!
//! "Since the L2 cache is typically a few megabytes large, keeping the
//! candidate set only in the cache provides a detection window that is
//! hundreds of thousands of instructions large, before lines have to be
//! evicted back to the memory." This experiment measures that window on
//! the synthetic applications: the metadata lifetime of each line, from
//! its fetch to its L2 displacement, counted in *memory accesses* (our
//! trace has no non-memory instructions to count; the paper's
//! instruction windows are a small constant factor larger).

use crate::campaign::{race_free_trace, CampaignConfig};
use crate::table::TextTable;
use hard_cache::policy::NullFactory;
use hard_cache::{Hierarchy, HierarchyConfig, ServedBy};
use hard_trace::{Op, TraceEvent};
use hard_types::Addr;
use hard_workloads::App;
use std::collections::BTreeMap;

/// Window statistics of one application at one L2 size.
#[derive(Clone, Debug)]
pub struct WindowRow {
    /// The application.
    pub app: App,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Number of displacement events observed.
    pub evictions: usize,
    /// Median metadata lifetime in accesses (0 if no eviction).
    pub median: u64,
    /// 90th-percentile lifetime.
    pub p90: u64,
    /// Maximum lifetime.
    pub max: u64,
    /// Total memory accesses in the run.
    pub total_accesses: u64,
}

/// The full detection-window study.
#[derive(Clone, Debug)]
pub struct WindowStudy {
    /// One row per (application, L2 size).
    pub rows: Vec<WindowRow>,
}

fn measure(app: App, cfg: &CampaignConfig, l2_bytes: u64) -> WindowRow {
    let trace = race_free_trace(app, cfg);
    let mut hcfg = HierarchyConfig::default();
    hcfg.l2 = hard_cache::CacheGeometry::new(l2_bytes, hcfg.l2.ways(), hcfg.l2.line_bytes());
    let mut h = Hierarchy::new(hcfg, NullFactory).expect("default hierarchy shape is valid");
    let mut fetched_at: BTreeMap<Addr, u64> = BTreeMap::new();
    let mut lifetimes: Vec<u64> = Vec::new();
    let mut ordinal = 0u64;
    let line_of = |a: Addr| hcfg.l1.line_of(a);
    for e in &trace.events {
        if let TraceEvent::Op { thread, op } = e {
            let access = match *op {
                Op::Read { addr, size, .. } => Some((addr, size, hard_types::AccessKind::Read)),
                Op::Write { addr, size, .. } => Some((addr, size, hard_types::AccessKind::Write)),
                Op::Lock { lock, .. } | Op::Unlock { lock, .. } => {
                    Some((lock.addr(), 4, hard_types::AccessKind::Write))
                }
                _ => None,
            };
            let Some((addr, size, kind)) = access else {
                continue;
            };
            if thread.index() >= hcfg.num_cores {
                continue;
            }
            for line in hcfg.l1.lines_in(addr, u64::from(size)) {
                ordinal += 1;
                let r = h
                    .ensure(thread.core(), line, kind)
                    .expect("fault-free measurement hierarchy never errors");
                if r.served_by == ServedBy::Memory {
                    fetched_at.insert(line_of(line), ordinal);
                }
                let Some(victim) = r.displaced else {
                    continue;
                };
                for evicted in hcfg.l1.lines_in(victim, hcfg.l2.line_bytes()) {
                    if let Some(f) = fetched_at.remove(&evicted) {
                        lifetimes.push(ordinal - f);
                    }
                }
            }
        }
    }
    lifetimes.sort_unstable();
    let pick = |q: f64| -> u64 {
        if lifetimes.is_empty() {
            0
        } else {
            lifetimes[((lifetimes.len() - 1) as f64 * q) as usize]
        }
    };
    WindowRow {
        app,
        l2_bytes,
        evictions: lifetimes.len(),
        median: pick(0.5),
        p90: pick(0.9),
        max: lifetimes.last().copied().unwrap_or(0),
        total_accesses: ordinal,
    }
}

/// Runs the study over the paper's default (1 MB) and smallest
/// (128 KB) L2 sizes, on the campaign pool.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> WindowStudy {
    let rows = crate::campaign::per_app(cfg.jobs, |app| {
        [1024 * 1024, 128 * 1024].map(|l2| measure(app, cfg, l2))
    })
    .into_iter()
    .flatten()
    .collect();
    WindowStudy { rows }
}

impl WindowStudy {
    /// Renders the study.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "L2",
            "evictions",
            "median window",
            "p90 window",
            "max window",
            "accesses",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.app.name().into(),
                format!("{}KB", r.l2_bytes / 1024),
                r.evictions.to_string(),
                r.median.to_string(),
                r.p90.to_string(),
                r.max.to_string(),
                r.total_accesses.to_string(),
            ]);
        }
        t
    }
}

impl std::fmt::Display for WindowStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_shrink_with_l2_size() {
        let cfg = CampaignConfig::reduced(0.2, 1);
        let s = run(&cfg);
        assert_eq!(s.rows.len(), 12);
        for pair in s.rows.chunks(2) {
            let (big, small) = (&pair[0], &pair[1]);
            assert_eq!(big.app, small.app);
            assert!(big.l2_bytes > small.l2_bytes);
            // A smaller L2 displaces at least as often.
            assert!(
                small.evictions >= big.evictions,
                "{}: {} vs {}",
                big.app,
                small.evictions,
                big.evictions
            );
        }
        // At least one big-footprint app shows long windows at 1MB.
        assert!(
            s.rows
                .iter()
                .filter(|r| r.l2_bytes == 1024 * 1024)
                .any(|r| r.evictions == 0 || r.median > 1000),
            "the 1MB L2 must provide a long detection window"
        );
    }
}
