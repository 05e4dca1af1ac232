//! `hard-exp obs`: the observability campaign.
//!
//! Runs the Table 2 HARD configuration over every application with a
//! [`MemoryRecorder`] attached and surfaces what the detection
//! pipeline actually did, three ways:
//!
//! * a per-application metric table (candidate-set checks, empty
//!   intersections, broadcasts, displacements, cycles, …);
//! * one JSONL event stream per application under `--out` (races,
//!   broadcasts, displacements, barrier resets, span ends — the §6
//!   taxonomy in DESIGN.md);
//! * a Prometheus text-exposition body, served by
//!   [`MetricsServer`](crate::experiments::server::MetricsServer).
//!
//! `--smoke` runs [`ObsStudy::smoke_check`]: every JSONL line must
//! parse and the core pipeline counters must be nonzero — the CI
//! tier-2 guard that instrumentation stays wired end to end.

use crate::campaign::{
    expect_complete, injected_trace, per_app, race_free_trace, score_cell, CampaignConfig,
    CellTrace,
};
use crate::detectors::DetectorKind;
use crate::runner::RunLimits;
use crate::table::TextTable;
use hard_obs::{jsonl, CounterId, Exposition, MemoryRecorder, ObsHandle, Snapshot};
use hard_workloads::{App, Injection};
use std::path::PathBuf;
use std::sync::Arc;

/// Parameters of the observability campaign.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// The underlying campaign (scale, runs, quantum, inject mode).
    pub campaign: CampaignConfig,
    /// Directory for per-application JSONL event streams; `None` keeps
    /// everything in memory.
    pub out_dir: Option<PathBuf>,
}

/// Everything observed about one application.
#[derive(Clone, Debug)]
pub struct AppObs {
    /// The application.
    pub app: App,
    /// The recorder's final state: counters, histograms, spans.
    pub snapshot: Snapshot,
    /// Bugs detected across the injected runs.
    pub detected: usize,
    /// Source-level false alarms on the race-free run.
    pub alarms: usize,
    /// Simulated cycles across all runs.
    pub cycles: u64,
    /// Accumulated fault-statistic samples
    /// ([`hard_types::FaultStats::metric_pairs`] names; all zero in this
    /// fault-free campaign, exposed so scrapers see the full taxonomy).
    pub fault_metrics: Vec<(&'static str, u64)>,
    /// Where the JSONL event stream went, if anywhere.
    pub jsonl_path: Option<PathBuf>,
}

/// The full campaign result.
#[derive(Clone, Debug)]
pub struct ObsStudy {
    /// One entry per application, paper order.
    pub apps: Vec<AppObs>,
    /// Injected runs per application.
    pub runs: usize,
}

fn observe_app(app: App, cfg: &ObsConfig) -> std::io::Result<AppObs> {
    let jsonl_path = match &cfg.out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            Some(dir.join(format!("{}.jsonl", app.name())))
        }
        None => None,
    };
    let rec = Arc::new(match &jsonl_path {
        Some(p) => {
            MemoryRecorder::with_jsonl(Box::new(std::io::BufWriter::new(std::fs::File::create(p)?)))
        }
        None => MemoryRecorder::new(),
    });
    let obs = ObsHandle::new(rec.clone());
    let kinds = [DetectorKind::hard_default()];
    let score = |trace: &CellTrace, injection: Option<&Injection>| {
        let tallies = score_cell(trace, injection, &kinds, RunLimits::unlimited(), &obs);
        expect_complete(&tallies);
        tallies[0]
    };

    let app_span = obs.span(|| format!("app:{}", app.name()));

    let gen_span = obs.span(|| format!("generate:{}", app.name()));
    let rf = CellTrace::Materialized(race_free_trace(app, &cfg.campaign));
    obs.span_end(gen_span, 0, rf.len() as u64);
    let mut tally = score(&rf, None);
    for run_idx in 0..cfg.campaign.runs {
        let (trace, injection) = injected_trace(app, &cfg.campaign, run_idx);
        tally += score(&CellTrace::Materialized(trace), Some(&injection));
    }

    obs.span_end(app_span, tally.metrics.cycles, 0);
    rec.flush()?;
    Ok(AppObs {
        app,
        snapshot: rec.snapshot(),
        detected: tally.detected,
        alarms: tally.alarms,
        cycles: tally.metrics.cycles,
        fault_metrics: tally.metrics.faults.metric_pairs().to_vec(),
        jsonl_path,
    })
}

/// Runs the campaign: the applications fan out over the campaign pool
/// ([`per_app`], `cfg.campaign.jobs` workers), each scored serially
/// into its own recorder.
///
/// # Errors
///
/// Returns the first I/O error hit while creating or flushing a JSONL
/// stream.
pub fn run(cfg: &ObsConfig) -> std::io::Result<ObsStudy> {
    let apps = per_app(cfg.campaign.jobs, |app| observe_app(app, cfg))
        .into_iter()
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(ObsStudy {
        apps,
        runs: cfg.campaign.runs,
    })
}

impl ObsStudy {
    /// Renders the per-application metric table.
    #[must_use]
    pub fn render(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "bugs detected",
            "false alarms",
            "trace events",
            "candidate checks",
            "empty intersections",
            "races reported",
            "lock acquires",
            "barrier resets",
            "meta broadcasts",
            "cache fills",
            "l2 displacements",
            "cycles",
        ]);
        for a in &self.apps {
            let c = |id| a.snapshot.counter(id);
            t.row(vec![
                a.app.name().into(),
                format!("{}/{}", a.detected, self.runs),
                a.alarms.to_string(),
                c(CounterId::TraceEvents).to_string(),
                c(CounterId::CandidateChecks).to_string(),
                c(CounterId::CandidateEmpties).to_string(),
                c(CounterId::RacesReported).to_string(),
                c(CounterId::LockAcquires).to_string(),
                c(CounterId::BarrierResets).to_string(),
                c(CounterId::BroadcastsSent).to_string(),
                c(CounterId::CacheFills).to_string(),
                c(CounterId::L2Displacements).to_string(),
                a.cycles.to_string(),
            ]);
        }
        t
    }

    /// Renders the span profile: per `(application, span name)`, the
    /// count and summed wall-clock / cycle / event attribution.
    #[must_use]
    pub fn render_spans(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "application",
            "span",
            "count",
            "wall us",
            "cycles",
            "events",
        ]);
        for a in &self.apps {
            let mut agg: std::collections::BTreeMap<&str, (u64, u64, u64, u64)> =
                std::collections::BTreeMap::new();
            for s in &a.snapshot.spans {
                let e = agg.entry(s.name.as_str()).or_default();
                e.0 += 1;
                e.1 += s.wall_ns;
                e.2 += s.cycles;
                e.3 += s.events;
            }
            for (name, (count, wall_ns, cycles, events)) in agg {
                t.row(vec![
                    a.app.name().into(),
                    name.into(),
                    count.to_string(),
                    (wall_ns / 1_000).to_string(),
                    cycles.to_string(),
                    events.to_string(),
                ]);
            }
        }
        t
    }

    /// The Prometheus text-exposition body: every counter and
    /// histogram per application, plus campaign-level outcomes and the
    /// fault-statistic taxonomy.
    #[must_use]
    pub fn exposition(&self) -> String {
        let mut e = Exposition::new();
        for a in &self.apps {
            let labels = [("app", a.app.name())];
            e.add_snapshot(&labels, &a.snapshot);
            e.counter(
                "hard_campaign_bugs_detected_total",
                &labels,
                a.detected as u64,
            );
            e.counter("hard_campaign_false_alarms_total", &labels, a.alarms as u64);
            e.counter("hard_campaign_cycles_total", &labels, a.cycles);
            for &(name, v) in &a.fault_metrics {
                e.counter(name, &labels, v);
            }
        }
        e.gauge("hard_campaign_runs", &[], self.runs as f64);
        e.render()
    }

    /// The CI smoke gate: core pipeline counters must be nonzero for
    /// every application, spans must have closed, and every line of
    /// every JSONL stream must be a valid event envelope. Returns the
    /// total number of validated event lines.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first application, counter or line
    /// that failed.
    pub fn smoke_check(&self) -> Result<usize, String> {
        let mut validated = 0;
        for a in &self.apps {
            for id in [
                CounterId::TraceEvents,
                CounterId::CandidateChecks,
                CounterId::CacheFills,
                CounterId::LockAcquires,
            ] {
                if a.snapshot.counter(id) == 0 {
                    return Err(format!("{}: counter {} is zero", a.app.name(), id.name()));
                }
            }
            if a.snapshot.spans.is_empty() {
                return Err(format!("{}: no spans closed", a.app.name()));
            }
            let Some(path) = &a.jsonl_path else { continue };
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("{}: cannot read {}: {e}", a.app.name(), path.display()))?;
            for (i, line) in text.lines().enumerate() {
                jsonl::validate_event_line(line).map_err(|e| {
                    format!("{}:{}: invalid event line: {e}", path.display(), i + 1)
                })?;
                validated += 1;
            }
            if validated == 0 {
                return Err(format!("{}: empty event stream", path.display()));
            }
        }
        Ok(validated)
    }
}

impl std::fmt::Display for ObsStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hard-obs-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn campaign_fills_counters_streams_and_exposition() {
        let dir = out_dir("full");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ObsConfig {
            campaign: CampaignConfig::reduced(0.05, 2),
            out_dir: Some(dir.clone()),
        };
        let study = run(&cfg).expect("campaign I/O");
        assert_eq!(study.apps.len(), App::all().len());

        let validated = study.smoke_check().expect("smoke check");
        assert!(validated > 0, "event streams must not be empty");

        let table = study.render().to_string();
        assert!(table.contains("barnes") && table.contains("candidate checks"));
        let spans = study.render_spans().to_string();
        assert!(spans.contains("run:HARD"), "{spans}");
        assert!(spans.contains("generate:"), "{spans}");

        let body = study.exposition();
        assert!(body.contains("# TYPE hard_candidate_checks_total counter"));
        assert!(body.contains("hard_trace_events_total{app=\"barnes\"}"));
        assert!(body.contains("# TYPE hard_bloom_population_bits histogram"));
        assert!(body.contains("hard_faults_meta_bits_flipped_total{app=\"barnes\"} 0"));
        assert!(body.contains("hard_campaign_runs 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_campaign_needs_no_filesystem() {
        let cfg = ObsConfig {
            campaign: CampaignConfig::reduced(0.05, 1),
            out_dir: None,
        };
        let study = run(&cfg).expect("no I/O to fail");
        assert!(study.apps.iter().all(|a| a.jsonl_path.is_none()));
        assert!(study.smoke_check().expect("counters still checked") == 0);
    }
}
