//! End-to-end tests of the `hard-exp` binary.

use std::process::Command;

fn hard_exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hard-exp"))
}

#[test]
fn table1_prints_the_machine_parameters() {
    let out = hard_exp().arg("table1").output().expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("16KB 4-way 32B/line"), "{s}");
    assert!(s.contains("200 cycles"), "{s}");
}

#[test]
fn bad_command_fails_with_usage() {
    let out = hard_exp().arg("table99").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn missing_command_fails_with_usage() {
    let out = hard_exp().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn bad_flag_value_is_reported() {
    let out = hard_exp()
        .args(["table2", "--scale", "banana"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --scale"));
}

#[test]
fn markdown_mode_emits_pipes() {
    let out = hard_exp()
        .args(["table1", "--markdown"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("| parameter | value |"), "{s}");
}

#[test]
fn record_then_replay_roundtrips() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("hard-exp-cli-test-{}.trc", std::process::id()));
    let path_s = path.to_str().expect("utf8 temp path");

    let rec = hard_exp()
        .args([
            "record",
            "--app",
            "water-nsquared",
            "--file",
            path_s,
            "--scale",
            "0.1",
            "--inject",
            "2",
        ])
        .output()
        .expect("spawn record");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    assert!(String::from_utf8_lossy(&rec.stdout).contains("recorded water-nsquared"));

    let rep = hard_exp()
        .args(["replay", "--file", path_s, "--detector", "hard"])
        .output()
        .expect("spawn replay");
    assert!(
        rep.status.success(),
        "{}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let s = String::from_utf8_lossy(&rep.stdout);
    assert!(s.contains("replayed") && s.contains("HARD"), "{s}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_rejects_garbage_files() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("hard-exp-cli-garbage-{}.trc", std::process::id()));
    std::fs::write(&path, b"definitely not a trace").expect("write");
    let out = hard_exp()
        .args(["replay", "--file", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("decode failed"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_rejects_unknown_apps() {
    let out = hard_exp()
        .args(["record", "--app", "doom", "--file", "/tmp/x.trc"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown app"));
}

#[test]
fn faults_sweep_prints_degradation_and_resumes() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("hard-exp-cli-faults-{}.ckpt", std::process::id()));
    let path_s = path.to_str().expect("utf8 temp path");
    std::fs::remove_file(&path).ok();

    let args = [
        "faults",
        "--scale",
        "0.05",
        "--runs",
        "2",
        "--rates",
        "0,50000",
        "--checkpoint",
        path_s,
        "--trace-cache",
        "off",
    ];
    let first = hard_exp().args(args).output().expect("spawn faults");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let s1 = String::from_utf8_lossy(&first.stdout);
    assert!(s1.contains("0ppm") && s1.contains("50000ppm"), "{s1}");
    assert!(s1.contains("conservative resets"), "{s1}");
    assert!(!s1.contains("resumed from checkpoint"), "{s1}");

    // A rerun serves every cell from the checkpoint and prints the
    // identical tables.
    let second = hard_exp().args(args).output().expect("spawn faults again");
    assert!(second.status.success());
    let s2 = String::from_utf8_lossy(&second.stdout);
    assert!(s2.contains("12 cells resumed from checkpoint"), "{s2}");
    let tables = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
    assert_eq!(tables(&s1), tables(&s2), "resume must reproduce the sweep");

    std::fs::remove_file(&path).ok();
}

#[test]
fn faults_rejects_bad_rate_lists() {
    let out = hard_exp()
        .args(["faults", "--rates", "0,banana"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --rates"));
}

#[test]
fn obs_smoke_writes_valid_jsonl_and_metric_tables() {
    let dir = std::env::temp_dir().join(format!("hard-exp-cli-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = hard_exp()
        .args([
            "obs",
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
            "--trace-cache",
            "off",
        ])
        .output()
        .expect("spawn obs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("candidate checks"), "{s}");
    assert!(s.contains("run:HARD"), "{s}");
    assert!(s.contains("smoke check OK"), "{s}");
    // One JSONL stream per application, each line a valid envelope.
    let mut streams = 0;
    for entry in std::fs::read_dir(&dir).expect("out dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        streams += 1;
        let text = std::fs::read_to_string(&path).expect("stream readable");
        assert!(!text.is_empty(), "{} must not be empty", path.display());
        for line in text.lines() {
            hard_obs::jsonl::validate_event_line(line)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
    assert_eq!(streams, 6, "one stream per application");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_format_emits_parseable_rows_and_quiet_silences_prose() {
    let out = hard_exp()
        .args(["table1", "--format", "json", "--quiet"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(!s.is_empty());
    for line in s.lines() {
        let v = hard_obs::jsonl::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(
            v.get("parameter").and_then(|x| x.as_str()).is_some(),
            "{line}"
        );
    }
    // Quiet JSON mode: stdout is pure data, no section headers anywhere.
    assert!(!s.contains("Table 1"), "{s}");
    assert!(out.stderr.is_empty(), "quiet suppresses prose entirely");
}

#[test]
fn trace_out_streams_global_events() {
    let path =
        std::env::temp_dir().join(format!("hard-exp-cli-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = hard_exp()
        .args([
            "faults",
            "--scale",
            "0.05",
            "--runs",
            "1",
            "--rates",
            "0",
            "--trace-out",
            path.to_str().unwrap(),
            "--trace-cache",
            "off",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace-out file exists");
    assert!(!text.is_empty(), "sweep must emit events");
    for line in text.lines() {
        hard_obs::jsonl::validate_event_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"span_end\"")),
        "per-run spans reach the global stream"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn packed_record_then_replay_streams_the_corpus_format() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("hard-exp-cli-packed-{}.crp", std::process::id()));
    let path_s = path.to_str().expect("utf8 temp path");

    let rec = hard_exp()
        .args([
            "record",
            "--app",
            "water-nsquared",
            "--file",
            path_s,
            "--scale",
            "0.1",
            "--inject",
            "2",
        ])
        .output()
        .expect("spawn record");
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let magic = std::fs::read(&path).expect("packed file")[..8].to_vec();
    assert_eq!(&magic, b"HARDCRP1");

    // A codec recording of the same (app, scale, seed) — the import
    // format `replay` still reads — must replay to the same reports.
    let codec_path = dir.join(format!("hard-exp-cli-packed-{}.trc", std::process::id()));
    let codec_s = codec_path.to_str().expect("utf8 temp path");
    let cfg = hard_harness::CampaignConfig::reduced(0.1, 10);
    let (trace, _) = hard_harness::injected_trace(hard_workloads::App::WaterNsquared, &cfg, 2);
    let f = std::fs::File::create(&codec_path).expect("create codec file");
    hard_trace::codec::encode(&trace, std::io::BufWriter::new(f)).expect("encode");
    let replay = |p: &str| {
        let out = hard_exp()
            .args(["replay", "--file", p, "--detector", "hard"])
            .output()
            .expect("spawn replay");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(replay(path_s), replay(codec_s), "streamed != materialized");

    // A flipped payload bit must fail the checksum, not change results.
    let mut bytes = std::fs::read(&path).expect("packed file");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).expect("rewrite");
    let out = hard_exp()
        .args(["replay", "--file", path_s])
        .output()
        .expect("spawn replay");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("checksum"));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&codec_path).ok();
}

#[test]
fn trace_cache_cold_and_warm_runs_print_identical_tables() {
    let dir = std::env::temp_dir().join(format!("hard-exp-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        hard_exp()
            .args([
                "table2",
                "--scale",
                "0.05",
                "--runs",
                "2",
                "--trace-cache",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("spawn table2")
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("store(s)"), "{cold_err}");

    let warm = run();
    assert!(warm.status.success());
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("hit(s)") && warm_err.contains("0 miss(es)"),
        "{warm_err}"
    );
    assert_eq!(cold.stdout, warm.stdout, "cache state leaked into stdout");

    let off = hard_exp()
        .args([
            "table2",
            "--scale",
            "0.05",
            "--runs",
            "2",
            "--trace-cache",
            "off",
        ])
        .output()
        .expect("spawn table2");
    assert!(off.status.success());
    assert_eq!(cold.stdout, off.stdout, "cache changed the results");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_passes_at_tiny_scale() {
    let out = hard_exp()
        .args([
            "verify",
            "--scale",
            "0.1",
            "--runs",
            "3",
            "--trace-cache",
            "off",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("PASS"));
    assert!(!s.contains("FAIL"), "{s}");
}
