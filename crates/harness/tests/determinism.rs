//! The parallel campaign engine's determinism contract: for every
//! experiment, `--jobs 1` and `--jobs N` produce **bit-identical**
//! results — same tables, same race reports, same merged observability
//! counters — because cells are pure functions of their seeds and the
//! pool slots results by cell index, never completion order.

use hard_harness::experiments::{faults, obs, table2};
use hard_harness::runner::{execute_hardened_cell, RunLimits, RunOutcome};
use hard_harness::{injected_trace, probes, CampaignConfig, CellTrace, DetectorKind};
use hard_workloads::App;

/// A small campaign: every app at reduced scale, two injected runs.
fn reduced(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        jobs,
        ..CampaignConfig::reduced(0.05, 2)
    }
}

#[test]
fn table2_is_bit_identical_across_job_counts() {
    let serial = table2::run(&reduced(1));
    for jobs in [2, 4] {
        let parallel = table2::run(&reduced(jobs));
        assert_eq!(
            serial.render().to_string(),
            parallel.render().to_string(),
            "jobs={jobs}"
        );
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.app, b.app);
            for (x, y) in [
                (a.hard, b.hard),
                (a.hard_ideal, b.hard_ideal),
                (a.hb, b.hb),
                (a.hb_ideal, b.hb_ideal),
            ] {
                assert_eq!(x.detected, y.detected, "{} jobs={jobs}", a.app);
                assert_eq!(x.missed_displaced, y.missed_displaced);
                assert_eq!(x.missed_other, y.missed_other);
                assert_eq!(x.alarms, y.alarms);
            }
        }
    }
}

#[test]
fn race_reports_are_bit_identical_across_job_counts() {
    // The reports themselves (addresses, sites, event indices), not
    // just the tallies: run the same cell set through the engine at
    // two widths and compare every report of every detector.
    for app in [App::WaterNsquared, App::Barnes] {
        let (trace, injection) = injected_trace(app, &reduced(1), 0);
        let trace = CellTrace::Materialized(trace);
        let pr = probes(&injection);
        let cells: Vec<DetectorKind> = vec![
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
        ];
        let run_all = |jobs: usize| {
            hard_harness::map_cells(jobs, &cells, |_, kind| {
                match execute_hardened_cell(kind, &trace, &pr, RunLimits::unlimited()) {
                    RunOutcome::Ok(run, _) => run,
                    other => panic!("{app}: unlimited run must complete, got {other:?}"),
                }
            })
        };
        let serial = run_all(1);
        let parallel = run_all(4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.reports, b.reports, "{app}");
            assert_eq!(a.meta_lost, b.meta_lost, "{app}");
        }
    }
}

#[test]
fn fault_sweep_is_bit_identical_across_job_counts() {
    let fcfg = |jobs| faults::FaultsConfig {
        campaign: reduced(jobs),
        rates_ppm: vec![0, 20_000],
        limits: RunLimits::unlimited(),
    };
    let serial = faults::run(&fcfg(1));
    let parallel = faults::run(&fcfg(4));
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.app, b.app);
        assert_eq!(a.cell, b.cell, "{}@{}ppm", a.app, a.cell.rate_ppm);
    }
    assert_eq!(
        serial.render_aggregate().to_string(),
        parallel.render_aggregate().to_string()
    );
}

#[test]
fn packed_replay_matches_materialized_for_every_detector() {
    // The streamed/packed path must be indistinguishable from the
    // materialized path: same reports, same meta_lost, for all four
    // Table 2 detectors — this is what lets a packed trace stand in
    // for a generated one.
    use hard_trace::PackedTrace;
    use std::sync::Arc;
    for app in [App::WaterNsquared, App::Barnes] {
        let (trace, injection) = injected_trace(app, &reduced(1), 0);
        let pr = probes(&injection);
        let packed = PackedTrace::from_trace(&trace).expect("generated traces always pack");
        let packed = CellTrace::Packed(Arc::new(packed));
        let trace = CellTrace::Materialized(trace);
        for kind in [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
        ] {
            let a = match execute_hardened_cell(&kind, &trace, &pr, RunLimits::unlimited()) {
                RunOutcome::Ok(run, _) => run,
                other => panic!("{app}: materialized run must complete, got {other:?}"),
            };
            let b = match execute_hardened_cell(&kind, &packed, &pr, RunLimits::unlimited()) {
                RunOutcome::Ok(run, _) => run,
                other => panic!("{app}: packed run must complete, got {other:?}"),
            };
            assert_eq!(a.reports, b.reports, "{app} {}", kind.label());
            assert_eq!(a.meta_lost, b.meta_lost, "{app} {}", kind.label());
        }
    }
}

#[test]
fn observability_counters_merge_identically_across_job_counts() {
    let ocfg = |jobs| obs::ObsConfig {
        campaign: reduced(jobs),
        out_dir: None,
    };
    let serial = obs::run(&ocfg(1)).unwrap();
    let parallel = obs::run(&ocfg(4)).unwrap();
    assert_eq!(serial.apps.len(), parallel.apps.len());
    assert_eq!(
        serial.render().to_string(),
        parallel.render().to_string(),
        "per-app merged counter tables must not depend on worker count"
    );
}
