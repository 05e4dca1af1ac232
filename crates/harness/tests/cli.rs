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
        .args(["table1", "--format", "markdown"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("| parameter | value |"), "{s}");
}

#[test]
fn record_then_replay_roundtrips() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("hard-exp-cli-test-{}.crp", std::process::id()));
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
    assert_eq!(
        &std::fs::read(&path).expect("corpus file")[..8],
        b"HARDCRP1"
    );

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

    // A flipped payload bit must fail the checksum, not change results.
    let mut bytes = std::fs::read(&path).expect("corpus file");
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
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated header"));
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
fn faults_sweep_prints_degradation() {
    let out = hard_exp()
        .args([
            "faults", "--scale", "0.05", "--runs", "2", "--rates", "0,50000",
        ])
        .output()
        .expect("spawn faults");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("0ppm") && s.contains("50000ppm"), "{s}");
    assert!(s.contains("conservative resets"), "{s}");

    // The sweep always runs start to finish: a resume flag is refused
    // rather than silently ignored.
    let out = hard_exp()
        .args(["faults", "--checkpoint", "x"])
        .output()
        .expect("spawn faults --checkpoint");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument: --checkpoint"), "{err}");

    // Campaigns build their traces in memory: there is no trace cache
    // to point anywhere or switch off.
    let out = hard_exp()
        .args(["table2", "--trace-cache", "off"])
        .output()
        .expect("spawn table2 --trace-cache");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown argument: --trace-cache"), "{err}");
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
        .args(["obs", "--smoke", "--out", dir.to_str().unwrap()])
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

/// Writes `bytes` to a per-process temp file and replays it under
/// `detector`, returning stderr; the replay must fail.
fn failed_replay(tag: &str, bytes: &[u8], detector: &str) -> String {
    let path = std::env::temp_dir().join(format!("hard-exp-cli-{tag}-{}.crp", std::process::id()));
    std::fs::write(&path, bytes).expect("write");
    let out = hard_exp()
        .args(["replay", "--file", path.to_str().unwrap()])
        .args(["--detector", detector])
        .output()
        .expect("spawn replay");
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "{tag} replayed under {detector}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn replay_rejects_lock_violating_streams() {
    use hard_trace::{Op, PackedTrace, Trace, TraceEvent};
    use hard_types::{LockId, SiteId, ThreadId};
    let (lock, site) = (LockId(0x40), SiteId(0));
    // t1 releases an unheld lock, then acquires it while t0 holds it.
    let ops = [
        (0, Op::Compute { cycles: 1 }),
        (1, Op::Unlock { lock, site }),
        (0, Op::Lock { lock, site }),
        (1, Op::Lock { lock, site }),
        (0, Op::Unlock { lock, site }),
    ];
    let trace = Trace {
        events: ops
            .into_iter()
            .map(|(t, op)| TraceEvent::Op {
                thread: ThreadId(t),
                op,
            })
            .collect(),
        num_threads: 2,
    };
    let packed = PackedTrace::from_trace(&trace).expect("packs");
    let bytes = hard_harness::corpus::encode_bytes(&packed, None);
    for detector in ["hard", "lockset-ideal", "hb-ideal"] {
        let err = failed_replay("malformed", &bytes, detector);
        assert!(
            err.contains("record 1: t1 releases unheld lock@0x40"),
            "{detector}: {err}"
        );
    }
}

#[test]
fn replay_rejects_archival_codec_magic() {
    let bytes = [&b"HARDTRC2"[..], &[0u8; 32]].concat();
    let err = failed_replay("archival", &bytes, "hard");
    assert!(err.contains("bad magic"), "{err}");
}

#[test]
fn campaigns_leave_the_working_directory_untouched() {
    // Every campaign trace is generated in memory: a sweep writes
    // nothing under its working directory.
    let dir = std::env::temp_dir().join(format!("hard-exp-cli-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = hard_exp()
        .current_dir(&dir)
        .args(["table2", "--scale", "0.05", "--runs", "2"])
        .output()
        .expect("spawn table2");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .map(|e| e.expect("entry").path())
        .collect();
    assert!(left.is_empty(), "table2 wrote {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_out_keeps_stdout_identical_across_runs() {
    // The record's wall-clock note goes to stderr; the tables on
    // stdout are a function of the flags alone.
    let path = std::env::temp_dir().join(format!("hard-exp-cli-bench-{}.json", std::process::id()));
    let path_s = path.to_str().expect("utf8 temp path");
    let run = || {
        let out = hard_exp()
            .args([
                "table2",
                "--scale",
                "0.05",
                "--runs",
                "2",
                "--bench-out",
                path_s,
            ])
            .output()
            .expect("spawn table2");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("bench-out: "), "{err}");
        assert!(path.exists(), "record written");
        out.stdout
    };
    let (first, second) = (run(), run());
    assert!(!String::from_utf8_lossy(&first).contains("bench-out:"));
    assert_eq!(
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_passes_at_tiny_scale() {
    let out = hard_exp()
        .args(["verify", "--scale", "0.1", "--runs", "3"])
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

#[test]
fn every_usage_command_is_dispatched() {
    // The usage text is the command list: every `hard-exp <cmd>` form
    // it names must reach a handler, not the `unknown command` arm.
    let out = hard_exp().output().expect("spawn");
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let commands: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.split("hard-exp ").nth(1)?.split_whitespace().next())
        .flat_map(|form| form.trim_matches(|c| c == '<' || c == '>').split('|'))
        .collect();
    for cmd in [
        "table45",
        "cord",
        "workloads",
        "server",
        "robustness",
        "verify",
    ] {
        assert!(commands.contains(&cmd), "usage omits {cmd}:\n{usage}");
    }
    let dir = std::env::temp_dir().join(format!("hard-exp-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_dir = dir.join("out");
    for cmd in commands {
        // Tiny and offline: serve campaigns fail at the spawn, commands
        // with required arguments fail on the missing one.
        let out = hard_exp()
            .current_dir(&dir)
            .args([cmd, "--scale", "0.01", "--runs", "1", "--jobs", "1"])
            .args(["--quiet", "--rates", "0"])
            .args(["--serve-cmd", "/nonexistent/hard-serve"])
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("unknown command"), "{cmd}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
