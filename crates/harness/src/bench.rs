//! Machine-readable performance records (`hard-bench/v1`).
//!
//! Every CLI experiment can emit a small JSON record of its own cost
//! (`hard-exp <cmd> --bench-out BENCH_<cmd>.json`) so performance is a
//! tracked artifact with a trajectory, not a one-off stopwatch number:
//!
//! ```json
//! {"schema":"hard-bench/v1","name":"table2","jobs":4,
//!  "jobs_requested":8,"jobs_effective":4,"wall_ms":3120,
//!  "events":81060224,"events_per_sec":25980841,"cycles":913400210,
//!  "peak_rss_bytes":68419584,"rss_unavailable":false,"cells":264,"resumed":0}
//! ```
//!
//! The throughput numbers come from a process-global accumulator fed
//! by the execution paths in [`crate::detectors`] and [`crate::runner`]
//! — two relaxed atomic adds per completed detector run, so the
//! accounting is free at campaign scale and correct under any
//! [`crate::parallel::map_cells`] worker count.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static EVENTS: AtomicU64 = AtomicU64::new(0);
static CYCLES: AtomicU64 = AtomicU64::new(0);
static CELLS: AtomicU64 = AtomicU64::new(0);
static RESUMED: AtomicU64 = AtomicU64::new(0);

/// Credits one completed detector run to the process-global bench
/// accumulator.
pub fn account(events: u64, cycles: u64) {
    EVENTS.fetch_add(events, Ordering::Relaxed);
    CYCLES.fetch_add(cycles, Ordering::Relaxed);
    CELLS.fetch_add(1, Ordering::Relaxed);
}

/// Credits checkpoint-resumed cells (work the process did *not* redo).
pub fn account_resumed(cells: u64) {
    RESUMED.fetch_add(cells, Ordering::Relaxed);
}

/// Peak resident set size of this process in bytes, or `None` where no
/// probe works. Prefers `VmHWM` from `/proc/self/status` and falls
/// back to the current `VmRSS` (a lower bound on the peak) on kernels
/// that omit the high-water mark; records distinguish "unavailable"
/// from a genuine measurement instead of silently reporting zero.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("self", "VmHWM").or_else(|| proc_status_bytes("self", "VmRSS"))
}

/// The kB-valued `field` (e.g. `VmHWM`) of `/proc/<pid>/status`, in
/// bytes; `pid` may be `self`. `None` where procfs or the field is
/// missing.
pub(crate) fn proc_status_bytes(pid: impl std::fmt::Display, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .ok()
        .map(|kb| kb * 1024)
}

/// One `hard-bench/v1` performance record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// The experiment (CLI command) measured.
    pub name: String,
    /// Worker-thread bound the campaign ran with (same as
    /// [`BenchRecord::jobs_effective`]; kept as the schema's original
    /// field so v1 rows stay readable).
    pub jobs: usize,
    /// Worker count the invoker asked for (`--jobs`, or the machine's
    /// available parallelism when the flag is absent).
    pub jobs_requested: usize,
    /// Worker count actually used after capping at the host's
    /// available parallelism — `jobs4` on a 1-CPU host records
    /// `requested=4, effective=1` instead of an ambiguous `jobs:1`.
    pub jobs_effective: usize,
    /// Wall-clock time of the whole command, in milliseconds.
    pub wall_ms: u64,
    /// Trace events dispatched across all detector runs.
    pub events: u64,
    /// Events per wall-clock second (0 when `wall_ms` is 0).
    pub events_per_sec: u64,
    /// Simulated cycles consumed across all timed detector runs.
    pub cycles: u64,
    /// Peak resident set size in bytes (0 if unavailable — see
    /// [`BenchRecord::rss_unavailable`]).
    pub peak_rss_bytes: u64,
    /// True when no RSS probe worked on this host; distinguishes "not
    /// measured" from a measured zero.
    pub rss_unavailable: bool,
    /// Detector runs completed.
    pub cells: u64,
    /// Cells served from a checkpoint instead of recomputed.
    pub resumed: u64,
}

impl BenchRecord {
    /// Snapshots the global accumulator into a record for `name`.
    #[must_use]
    pub fn capture(
        name: &str,
        jobs_requested: usize,
        jobs_effective: usize,
        wall: Duration,
    ) -> BenchRecord {
        let events = EVENTS.load(Ordering::Relaxed);
        let wall_ms = u64::try_from(wall.as_millis()).unwrap_or(u64::MAX);
        let events_per_sec = events
            .saturating_mul(1000)
            .checked_div(wall_ms)
            .unwrap_or(0);
        let rss = peak_rss_bytes();
        BenchRecord {
            name: name.into(),
            jobs: jobs_effective,
            jobs_requested,
            jobs_effective,
            wall_ms,
            events,
            events_per_sec,
            cycles: CYCLES.load(Ordering::Relaxed),
            peak_rss_bytes: rss.unwrap_or(0),
            rss_unavailable: rss.is_none(),
            cells: CELLS.load(Ordering::Relaxed),
            resumed: RESUMED.load(Ordering::Relaxed),
        }
    }

    /// The record as one `hard-bench/v1` JSON line.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"hard-bench/v1\",\"name\":\"{}\",\"jobs\":{},\
             \"jobs_requested\":{},\"jobs_effective\":{},\"wall_ms\":{},\
             \"events\":{},\"events_per_sec\":{},\"cycles\":{},\"peak_rss_bytes\":{},\
             \"rss_unavailable\":{},\"cells\":{},\"resumed\":{}}}",
            hard_obs::jsonl::escape(&self.name),
            self.jobs,
            self.jobs_requested,
            self.jobs_effective,
            self.wall_ms,
            self.events,
            self.events_per_sec,
            self.cycles,
            self.peak_rss_bytes,
            self.rss_unavailable,
            self.cells,
            self.resumed,
        )
    }

    /// Writes the record to `path` (newline-terminated).
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

/// Parses and validates one `hard-bench/v1` JSON record.
///
/// The `jobs_requested`/`jobs_effective` pair and `rss_unavailable`
/// were added after the first v1 rows were committed; records without
/// them stay readable (both default to `jobs`, the flag to `false`).
/// When present they must be coherent: `jobs == jobs_effective`,
/// `jobs_effective <= jobs_requested`, and an unavailable RSS must be
/// recorded as zero bytes.
///
/// # Errors
///
/// Returns a description of the first violation: malformed JSON, a
/// wrong/missing schema tag, a missing field, a field of the wrong
/// type, or an incoherent jobs/RSS combination.
pub fn validate(json: &str) -> Result<BenchRecord, String> {
    let v = hard_obs::jsonl::parse(json.trim())?;
    let schema = v
        .get("schema")
        .and_then(hard_obs::jsonl::Json::as_str)
        .ok_or("missing schema tag")?;
    if schema != "hard-bench/v1" {
        return Err(format!("unsupported schema: {schema}"));
    }
    let name = v
        .get("name")
        .and_then(hard_obs::jsonl::Json::as_str)
        .ok_or("missing name")?
        .to_string();
    let num = |field: &str| -> Result<u64, String> {
        v.get(field)
            .and_then(hard_obs::jsonl::Json::as_u64)
            .ok_or_else(|| format!("missing or non-numeric field: {field}"))
    };
    let opt_num = |field: &str, default: u64| -> Result<u64, String> {
        match v.get(field) {
            None => Ok(default),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| format!("non-numeric field: {field}")),
        }
    };
    let jobs = num("jobs")?;
    let jobs_requested = opt_num("jobs_requested", jobs)?;
    let jobs_effective = opt_num("jobs_effective", jobs)?;
    if jobs != jobs_effective {
        return Err(format!(
            "jobs ({jobs}) must equal jobs_effective ({jobs_effective})"
        ));
    }
    if jobs_effective > jobs_requested {
        return Err(format!(
            "jobs_effective ({jobs_effective}) exceeds jobs_requested ({jobs_requested})"
        ));
    }
    let rss_unavailable = match v.get("rss_unavailable") {
        None => false,
        Some(hard_obs::jsonl::Json::Bool(b)) => *b,
        Some(_) => return Err("non-boolean field: rss_unavailable".into()),
    };
    let peak_rss_bytes = num("peak_rss_bytes")?;
    if rss_unavailable && peak_rss_bytes != 0 {
        return Err(format!(
            "rss_unavailable with a nonzero peak_rss_bytes ({peak_rss_bytes})"
        ));
    }
    let wall_ms = num("wall_ms")?;
    let events = num("events")?;
    let events_per_sec = num("events_per_sec")?;
    // The throughput field is derived, not measured: every writer
    // computes exactly events * 1000 / wall_ms (integer division, 0 on
    // zero wall time). A row violating that identity was edited by
    // hand or produced by a buggy writer.
    let expected_eps = events
        .saturating_mul(1000)
        .checked_div(wall_ms)
        .unwrap_or(0);
    if events_per_sec != expected_eps {
        return Err(format!(
            "events_per_sec ({events_per_sec}) is not events*1000/wall_ms \
             ({events}*1000/{wall_ms} = {expected_eps})"
        ));
    }
    let to_usize = |n: u64| usize::try_from(n).map_err(|e| e.to_string());
    Ok(BenchRecord {
        name,
        jobs: to_usize(jobs)?,
        jobs_requested: to_usize(jobs_requested)?,
        jobs_effective: to_usize(jobs_effective)?,
        wall_ms,
        events,
        events_per_sec,
        cycles: num("cycles")?,
        peak_rss_bytes,
        rss_unavailable,
        cells: num("cells")?,
        resumed: num("resumed")?,
    })
}

/// Validates a committed chain of bench files as one performance
/// trajectory (`BENCH_pr3.json → BENCH_pr4.json → …`).
///
/// Each element is a `(label, contents)` pair — one bench file, one
/// `hard-bench/v1` record per line. Per file, every record must
/// [`validate`]; the chain additionally pins the shared `table2` sweep
/// (rows whose name starts with `table2`): every file must carry at
/// least one such row, and the maximum `table2` event count must never
/// shrink along the chain — the sweep only grows as the simulator gains
/// coverage, so a shrinking count means a file was regenerated against
/// a truncated workload and the throughput comparison is vacuous.
/// (Events are pinned, not events/s: throughput may legitimately dip
/// when a PR trades the sweep's speed for fidelity elsewhere.)
///
/// Returns one human-readable summary line per file: the best `table2`
/// throughput, for the README trajectory table.
///
/// # Errors
///
/// Returns a description of the first violation, prefixed with the
/// offending file label and line.
pub fn validate_trajectory(files: &[(String, String)]) -> Result<Vec<String>, String> {
    if files.is_empty() {
        return Err("empty trajectory: need at least one bench file".into());
    }
    let mut summary = Vec::new();
    let mut prev: Option<(String, u64)> = None;
    for (label, contents) in files {
        let mut records = Vec::new();
        for (i, line) in contents.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = validate(line).map_err(|e| format!("{label}:{}: {e}", i + 1))?;
            records.push(rec);
        }
        if records.is_empty() {
            return Err(format!("{label}: contains no records"));
        }
        let best = records
            .iter()
            .filter(|r| r.name.starts_with("table2"))
            .max_by_key(|r| (r.events, r.events_per_sec))
            .ok_or_else(|| format!("{label}: no table2 row for the shared sweep"))?;
        if let Some((prev_label, prev_events)) = &prev {
            if best.events < *prev_events {
                return Err(format!(
                    "{label}: table2 events shrank along the trajectory \
                     ({prev_events} in {prev_label}, {} here) — the shared \
                     sweep only grows",
                    best.events
                ));
            }
        }
        summary.push(format!(
            "{label}: {} — {} events in {} ms ({} events/s)",
            best.name, best.events, best.wall_ms, best.events_per_sec
        ));
        prev = Some((label.clone(), best.events));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, events: u64, wall_ms: u64) -> String {
        let eps = events * 1000 / wall_ms;
        format!(
            "{{\"schema\":\"hard-bench/v1\",\"name\":\"{name}\",\"jobs\":1,\
             \"wall_ms\":{wall_ms},\"events\":{events},\"events_per_sec\":{eps},\
             \"cycles\":1,\"peak_rss_bytes\":0,\"cells\":1,\"resumed\":0}}"
        )
    }

    #[test]
    fn trajectory_accepts_a_growing_chain_and_summarizes_it() {
        let files = vec![
            (
                "BENCH_a.json".to_string(),
                format!("{}\n{}\n", row("table2-a", 100, 10), row("replay-a", 7, 7)),
            ),
            (
                "BENCH_b.json".to_string(),
                // Two table2 rows; the larger-events one anchors the
                // chain. Throughput may dip — only events are pinned.
                format!(
                    "{}\n{}\n",
                    row("table2-b-slow", 100, 50),
                    row("table2-b", 120, 60)
                ),
            ),
        ];
        let summary = validate_trajectory(&files).unwrap();
        assert_eq!(summary.len(), 2);
        assert!(summary[0].contains("table2-a"), "{}", summary[0]);
        assert!(summary[1].contains("table2-b"), "{}", summary[1]);
        assert!(summary[1].contains("120 events"), "{}", summary[1]);
    }

    #[test]
    fn trajectory_rejects_shrinking_sweeps_and_broken_links() {
        let a = ("BENCH_a.json".to_string(), row("table2-a", 100, 10));
        let shrunk = ("BENCH_b.json".to_string(), row("table2-b", 90, 10));
        let err = validate_trajectory(&[a.clone(), shrunk]).unwrap_err();
        assert!(err.contains("shrank"), "{err}");
        let no_sweep = ("BENCH_c.json".to_string(), row("replay-only", 5, 5));
        let err = validate_trajectory(&[a.clone(), no_sweep]).unwrap_err();
        assert!(err.contains("no table2 row"), "{err}");
        let invalid = ("BENCH_d.json".to_string(), "not json".to_string());
        let err = validate_trajectory(&[a, invalid]).unwrap_err();
        assert!(err.starts_with("BENCH_d.json:1:"), "{err}");
        assert!(validate_trajectory(&[]).is_err());
        let empty = ("BENCH_e.json".to_string(), "\n\n".to_string());
        assert!(validate_trajectory(&[empty])
            .unwrap_err()
            .contains("no records"));
    }

    #[test]
    fn trajectory_accepts_the_committed_chain_shape() {
        // Mirrors the real BENCH_pr3 → pr4 → pr8 files: equal event
        // counts with fluctuating throughput are a valid chain.
        let files = vec![
            (
                "BENCH_pr3.json".to_string(),
                format!(
                    "{}\n{}\n",
                    row("table2-pre-pr3-baseline", 11_808_636, 6790),
                    row("table2-serial-flattened", 11_808_636, 4370)
                ),
            ),
            (
                "BENCH_pr4.json".to_string(),
                row("table2-pr4-warm-cache", 11_808_636, 3018),
            ),
            (
                "BENCH_pr8.json".to_string(),
                row("table2-pr8-scalar-kernel", 11_808_636, 3613),
            ),
        ];
        let summary = validate_trajectory(&files).unwrap();
        assert_eq!(summary.len(), 3);
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = BenchRecord {
            name: "table2".into(),
            jobs: 4,
            jobs_requested: 8,
            jobs_effective: 4,
            wall_ms: 3120,
            events: 81_060_224,
            events_per_sec: 25_980_841,
            cycles: 913_400_210,
            peak_rss_bytes: 68_419_584,
            rss_unavailable: false,
            cells: 264,
            resumed: 6,
        };
        assert_eq!(validate(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn validation_rejects_malformed_records() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"schema\":\"hard-bench/v2\"}").is_err());
        assert!(validate("{\"schema\":\"hard-bench/v1\",\"name\":\"x\"}")
            .unwrap_err()
            .contains("jobs"));
        let wrong_type = "{\"schema\":\"hard-bench/v1\",\"name\":\"x\",\"jobs\":\"four\",\
             \"wall_ms\":1,\"events\":1,\"events_per_sec\":1,\"cycles\":1,\
             \"peak_rss_bytes\":1,\"cells\":1,\"resumed\":0}";
        assert!(validate(wrong_type).unwrap_err().contains("jobs"));
    }

    #[test]
    fn legacy_rows_without_the_jobs_pair_stay_readable() {
        // A verbatim pre-PR4 row: no jobs_requested/jobs_effective, no
        // rss_unavailable. Both default from "jobs".
        let legacy = "{\"schema\":\"hard-bench/v1\",\"name\":\"table2-pr3\",\"jobs\":1,\
             \"wall_ms\":4370,\"events\":11808636,\"events_per_sec\":2702205,\
             \"cycles\":35329810,\"peak_rss_bytes\":0,\"cells\":264,\"resumed\":0}";
        let r = validate(legacy).unwrap();
        assert_eq!((r.jobs, r.jobs_requested, r.jobs_effective), (1, 1, 1));
        assert!(!r.rss_unavailable);
    }

    #[test]
    fn incoherent_jobs_pairs_are_rejected() {
        let base = |req: u64, eff: u64| {
            format!(
                "{{\"schema\":\"hard-bench/v1\",\"name\":\"x\",\"jobs\":{eff},\
                 \"jobs_requested\":{req},\"jobs_effective\":{eff},\"wall_ms\":1000,\
                 \"events\":1,\"events_per_sec\":1,\"cycles\":1,\"peak_rss_bytes\":0,\
                 \"cells\":1,\"resumed\":0}}"
            )
        };
        assert!(validate(&base(4, 1)).is_ok(), "capped on a small host");
        assert!(validate(&base(1, 4)).unwrap_err().contains("exceeds"));
        let jobs_mismatch = "{\"schema\":\"hard-bench/v1\",\"name\":\"x\",\"jobs\":2,\
             \"jobs_requested\":4,\"jobs_effective\":3,\"wall_ms\":1000,\"events\":1,\
             \"events_per_sec\":1,\"cycles\":1,\"peak_rss_bytes\":0,\"cells\":1,\"resumed\":0}";
        assert!(validate(jobs_mismatch).unwrap_err().contains("jobs"));
    }

    #[test]
    fn incoherent_throughput_is_rejected() {
        // events_per_sec must be exactly events*1000/wall_ms.
        let row = |eps: u64| {
            format!(
                "{{\"schema\":\"hard-bench/v1\",\"name\":\"x\",\"jobs\":1,\"wall_ms\":4370,\
                 \"events\":11808636,\"events_per_sec\":{eps},\"cycles\":1,\
                 \"peak_rss_bytes\":0,\"cells\":1,\"resumed\":0}}"
            )
        };
        assert!(validate(&row(2_702_205)).is_ok());
        assert!(validate(&row(2_702_204))
            .unwrap_err()
            .contains("events_per_sec"));
        assert!(validate(&row(10_000_000))
            .unwrap_err()
            .contains("events_per_sec"));
        // Zero wall time forces a recorded throughput of zero.
        let zero_wall = "{\"schema\":\"hard-bench/v1\",\"name\":\"x\",\"jobs\":1,\"wall_ms\":0,\
             \"events\":5,\"events_per_sec\":0,\"cycles\":1,\"peak_rss_bytes\":0,\
             \"cells\":1,\"resumed\":0}";
        assert!(validate(zero_wall).is_ok());
        // A captured record always validates.
        let r = BenchRecord::capture("t", 1, 1, Duration::from_millis(7));
        assert!(validate(&r.to_json()).is_ok());
    }

    #[test]
    fn unavailable_rss_must_record_zero_bytes() {
        let bad = "{\"schema\":\"hard-bench/v1\",\"name\":\"x\",\"jobs\":1,\"wall_ms\":1000,\
             \"events\":1,\"events_per_sec\":1,\"cycles\":1,\"peak_rss_bytes\":512,\
             \"rss_unavailable\":true,\"cells\":1,\"resumed\":0}";
        assert!(validate(bad).unwrap_err().contains("rss_unavailable"));
        let ok = bad.replace("\"peak_rss_bytes\":512", "\"peak_rss_bytes\":0");
        assert!(validate(&ok).unwrap().rss_unavailable);
    }

    #[test]
    fn accounting_accumulates_across_runs() {
        // The accumulator is process-global; assert growth, not
        // absolute values, so other tests in the binary can't race us.
        let before = BenchRecord::capture("t", 1, 1, Duration::from_millis(10));
        account(500, 900);
        account(250, 0);
        let after = BenchRecord::capture("t", 1, 1, Duration::from_millis(10));
        assert_eq!(after.events - before.events, 750);
        assert_eq!(after.cycles - before.cycles, 900);
        assert_eq!(after.cells - before.cells, 2);
    }

    #[test]
    fn throughput_guards_zero_wall_time() {
        let r = BenchRecord::capture("t", 1, 1, Duration::ZERO);
        assert_eq!(r.events_per_sec, 0);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // procfs is present on every target this repo supports in CI;
        // tolerate absence elsewhere (peak_rss_bytes returns None and
        // capture flags the record instead of recording a silent 0).
        match peak_rss_bytes() {
            Some(rss) => {
                assert!(rss > 0, "a running process has a nonzero peak RSS");
                assert_eq!(rss % 1024, 0, "VmHWM/VmRSS are reported in kB");
                let r = BenchRecord::capture("t", 1, 1, Duration::from_millis(1));
                assert!(!r.rss_unavailable);
                assert!(r.peak_rss_bytes > 0);
            }
            None => {
                assert!(!std::path::Path::new("/proc/self/status").exists());
                let r = BenchRecord::capture("t", 1, 1, Duration::from_millis(1));
                assert!(r.rss_unavailable);
                assert_eq!(r.peak_rss_bytes, 0);
            }
        }
    }
}
