//! Golden outputs of the swept campaigns.
//!
//! Each test renders one campaign at `CampaignConfig::reduced(0.05, 2)`
//! and compares the bytes with a file under `tests/golden/`. The files
//! are reference output, not snapshots to refresh: a diff means the
//! scoring, tallying or rendering of a campaign changed, and the fix
//! belongs in the campaign, not in the file.

use hard_harness::experiments::{
    ablation, faults, obs, robustness, server, table2, table3, table45, table6,
};
use hard_harness::{CampaignConfig, RunLimits};
use std::path::PathBuf;

fn cfg() -> CampaignConfig {
    CampaignConfig::reduced(0.05, 2)
}

/// Compares each `(file, rendered output)` pair with its golden file,
/// then fails once, naming every file that differs: a test that renders
/// several files reports all of its diffs, not just the first.
fn check(outputs: &[(&str, String)]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut differ = Vec::new();
    let mut diffs = String::new();
    for (name, got) in outputs {
        let path = dir.join(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if *got != want {
            differ.push(*name);
            diffs += &format!("\n{name}\n--- want\n{want}\n--- got\n{got}");
        }
    }
    assert!(
        differ.is_empty(),
        "output differs from the golden file for: {}{diffs}",
        differ.join(", ")
    );
}

#[test]
fn table3_matches_golden() {
    check(&[("table3.txt", table3::run(&cfg()).render().to_string())]);
}

#[test]
fn table45_matches_golden() {
    let t = table45::run(&cfg());
    check(&[
        ("table4.txt", t.render_bugs().to_string()),
        ("table5.txt", t.render_alarms().to_string()),
    ]);
}

#[test]
fn table6_matches_golden() {
    check(&[("table6.txt", table6::run(&cfg()).render().to_string())]);
}

#[test]
fn robustness_matches_golden() {
    check(&[(
        "robustness.txt",
        robustness::run(&cfg()).render().to_string(),
    )]);
}

#[test]
fn server_matches_golden() {
    check(&[("server.txt", server::run(&cfg()).render().to_string())]);
}

#[test]
fn faults_match_golden() {
    let fcfg = faults::FaultsConfig {
        campaign: cfg(),
        rates_ppm: vec![0, 100_000],
        limits: RunLimits::unlimited(),
    };
    let study = faults::run(&fcfg);
    check(&[
        ("faults-aggregate.txt", study.render_aggregate().to_string()),
        ("faults.txt", study.render().to_string()),
    ]);
}

#[test]
fn table2_matches_golden() {
    check(&[("table2.txt", table2::run(&cfg()).render().to_string())]);
}

#[test]
fn ablation_matches_golden() {
    let a = ablation::run(&cfg());
    check(&[
        ("ablation-alarms.txt", a.render_alarms().to_string()),
        ("ablation-costs.txt", a.render_costs().to_string()),
    ]);
}

#[test]
fn obs_metrics_match_golden() {
    let study = obs::run(&obs::ObsConfig {
        campaign: cfg(),
        out_dir: None,
    })
    .expect("an in-memory campaign does no I/O");
    check(&[("obs.txt", study.render().to_string())]);
}
