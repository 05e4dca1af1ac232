//! Cross-crate integration tests: workload generation → scheduling →
//! detection → scoring, exercised through the public facade.

use hard_repro::core::{HardConfig, HardMachine, HbMachine, HbMachineConfig};
use hard_repro::harness::{
    corpus, execute, execute_streamed, injected_trace, probes, race_free_trace, score, BugOutcome,
    CampaignConfig, DetectorKind,
};
use hard_repro::lockset::{IdealLockset, IdealLocksetConfig};
use hard_repro::trace::{run_detector, ChunkedReader, Detector, PackedTrace};
use hard_repro::types::Addr;
use hard_repro::workloads::App;

fn cfg() -> CampaignConfig {
    CampaignConfig::reduced(0.08, 4)
}

#[test]
fn every_app_flows_through_every_detector() {
    for app in App::all() {
        let trace = race_free_trace(app, &cfg());
        assert!(trace.len() > 100, "{app}");
        for kind in [
            DetectorKind::hard_default(),
            DetectorKind::lockset_ideal(),
            DetectorKind::hb_default(),
            DetectorKind::hb_ideal(),
        ] {
            let run = execute(&kind, &trace, &[]);
            // Race-free runs still produce (false) alarms; they must be
            // deterministic.
            let run2 = execute(&kind, &trace, &[]);
            assert_eq!(run.reports, run2.reports, "{app}/{kind}");
        }
    }
}

#[test]
fn detectors_see_identical_executions() {
    // The trace is computed once and shared; detectors cannot perturb
    // it. Verify by value equality of two independent constructions.
    let (a, ia) = injected_trace(App::Fmm, &cfg(), 1);
    let (b, ib) = injected_trace(App::Fmm, &cfg(), 1);
    assert_eq!(a, b);
    assert_eq!(ia, ib);
}

#[test]
fn ideal_lockset_dominates_hard_on_identical_traces() {
    // The ideal implementation has strictly more resources: anything
    // HARD detects, it detects (on these campaigns).
    for app in [App::Barnes, App::WaterNsquared, App::Raytrace] {
        for run_idx in 0..4 {
            let (trace, inj) = injected_trace(app, &cfg(), run_idx);
            let pr = probes(&inj);
            let hard = score(&execute(&DetectorKind::hard_default(), &trace, &pr), &inj);
            let ideal = score(&execute(&DetectorKind::lockset_ideal(), &trace, &pr), &inj);
            if hard == BugOutcome::Detected {
                assert_eq!(
                    ideal,
                    BugOutcome::Detected,
                    "{app} run {run_idx}: ideal must dominate"
                );
            }
        }
    }
}

#[test]
fn traces_roundtrip_through_the_corpus_format_with_identical_detection() {
    let (trace, _) = injected_trace(App::Barnes, &cfg(), 0);
    let packed = PackedTrace::from_trace(&trace).expect("pack");
    let bytes = corpus::encode_bytes(&packed, None);
    let (header, payload_at) = corpus::parse_header(&bytes).expect("header");
    let payload = bytes[payload_at..].to_vec();
    let back = PackedTrace::from_bytes(header.num_threads, payload.clone()).expect("payload");
    assert_eq!(trace, back.to_trace());

    // An odd chunk size: record and detection-window boundaries need
    // not line up.
    let mut reader = ChunkedReader::spawn(std::io::Cursor::new(payload), 97);
    let (run, events, fnv) = execute_streamed(
        &DetectorKind::hard_default(),
        header.num_threads as usize,
        &mut reader,
    )
    .expect("streamed replay");
    assert_eq!((events, fnv), (header.events, header.payload_fnv));
    let mut d = HardMachine::new(HardConfig::default());
    let direct = run_detector(&mut d, &trace);
    assert_eq!(run.reports, direct, "replayed traces detect identically");
}

#[test]
fn hardware_and_ideal_agree_on_small_footprints() {
    // With a footprint far below the L2 and line-isolated variables,
    // HARD's three approximations are all inactive at 4-byte
    // granularity + unbounded metadata: the detectors agree on which
    // *target granules* race. (water at tiny scale fits entirely.)
    let c = CampaignConfig::reduced(0.05, 3);
    for run_idx in 0..3 {
        let (trace, inj) = injected_trace(App::WaterNsquared, &c, run_idx);
        let pr = probes(&inj);
        let hard = execute(&DetectorKind::hard_default(), &trace, &pr);
        let mut ideal = IdealLockset::new(IdealLocksetConfig::default());
        run_detector(&mut ideal, &trace);
        let hard_hit = score(&hard, &inj).is_detected();
        let ideal_hit = ideal
            .reports()
            .iter()
            .any(|r| inj.overlaps(r.addr, Addr(r.addr.0 + u64::from(r.size))));
        assert_eq!(hard_hit, ideal_hit, "run {run_idx}");
    }
}

#[test]
fn wrong_lock_injections_are_caught_by_lockset() {
    // The second bug class: a critical section locked with the wrong
    // lock. Lockset catches it for the same reason it catches an
    // omitted pair — the candidate set intersection empties.
    use hard_repro::workloads::inject_wrong_lock;
    let cfg = CampaignConfig::reduced(0.08, 1);
    let mut caught = 0;
    let mut total = 0;
    for app in [App::Barnes, App::WaterNsquared, App::Raytrace] {
        let program = app.generate(&cfg.workload(app));
        for seed in 0..4u64 {
            let (injected, info) = inject_wrong_lock(&program, seed).unwrap();
            let trace = hard_repro::trace::Scheduler::new(hard_repro::trace::SchedConfig {
                seed,
                max_quantum: 8,
            })
            .run(&injected);
            let mut d = IdealLockset::new(IdealLocksetConfig::default());
            let reports = run_detector(&mut d, &trace);
            total += 1;
            if reports
                .iter()
                .any(|r| info.overlaps(r.addr, Addr(r.addr.0 + u64::from(r.size))))
            {
                caught += 1;
            }
        }
    }
    assert!(
        caught * 10 >= total * 8,
        "wrong-lock races should be widely caught ({caught}/{total})"
    );
}

#[test]
fn machines_report_plausible_statistics() {
    let trace = race_free_trace(App::Raytrace, &cfg());
    let mut hard = HardMachine::new(HardConfig::default());
    run_detector(&mut hard, &trace);
    let stats = hard.stats();
    assert!(stats.accesses() > 0);
    assert!(stats.l1_hit_rate() > 0.5, "raytrace is cache friendly");
    assert!(hard.total_cycles().0 > 0);

    let mut hb = HbMachine::new(HbMachineConfig::default());
    run_detector(&mut hb, &trace);
    assert_eq!(
        hb.stats().accesses(),
        stats.accesses(),
        "identical executions touch memory identically"
    );
}
