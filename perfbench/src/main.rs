//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2|tracegen|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed` (seed 0 is the pinned
//! Table 2 configuration), measures for `--seconds`, checks every output,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics of [`END_TO_END`]; with
//! `--trace 1` it alternates plain and traced passes and reports the
//! per-layer metrics of [`PER_LAYER`]. See `perfbench/README.md`.

mod cells;
mod layers;
mod serve;
mod table2;
mod tracegen;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. An *op* is one column of the sweep, one run of every
/// application (`table2`, `tracegen`; see [`cells::columns`]), or one
/// served session (`serve`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload in a
/// traced run; a layer the workload bypasses reads 0. Times are host
/// time per pass (`table2`, `tracegen`) or per-session medians
/// (`serve`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.inject_s", "s"),
    ("trace.schedule_s", "s"),
    ("trace.pack_s", "s"),
    ("trace.decode_s", "s"),
    ("corpus.encode_s", "s"),
    ("corpus.read_s", "s"),
    ("corpus.hit_frac", "ratio"),
    ("hard.new_s", "s"),
    ("hard.detect_s", "s"),
    ("hard.metadata_s", "s"),
    ("hb.detect_s", "s"),
    ("lockset_ideal.detect_s", "s"),
    ("hb_ideal.detect_s", "s"),
    ("cache.model_s", "s"),
    ("cache.accesses", "count"),
    ("cache.l1_misses", "count"),
    ("cache.l2_misses", "count"),
    ("cache.l2_evictions", "count"),
    ("cache.meta_broadcasts", "count"),
    ("cache.bus_transactions", "count"),
    ("hard.sim_cycles", "cycles"),
    ("campaign.score_s", "s"),
    ("campaign.render_s", "s"),
    ("serve.connect_ms", "ms"),
    ("serve.upload_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.stall_ms", "ms"),
    ("serve.small_latency_ms", "ms"),
    ("serve.large_latency_ms", "ms"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("traced.wall_s", "s"),
    ("traced.unattributed_frac", "ratio"),
    ("traced.overhead_frac", "ratio"),
];

/// The largest share of a traced pass's wall time that may fall outside
/// every timed layer before the run is failed: the layer split must
/// account for the pass.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// How many times each run repeats its set-up, at least; `setup_s` is
/// the median.
pub const SETUP_REPEATS: usize = 3;

/// Short set-ups repeat until this many seconds have passed, so that
/// their median is as steady as a long one's.
pub const SETUP_MIN_S: f64 = 2.0;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations whose output was wrong, errored or was shed.
    pub failed: u64,
    /// Failed checks other than per-operation ones (pins, determinism,
    /// traced-vs-plain agreement, layer coverage).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The benchmark measures the production path: no observability
/// recorder (an installed one switches HARD and the stream feeder to
/// per-event dispatch) and the default `auto` kernel, which resolves to
/// batched dispatch.
pub fn production_path() -> Result<(), String> {
    if hard_obs::installed().is_on() {
        return Err("a hard_obs recorder is installed".into());
    }
    let mode = hard_harness::kernel::installed();
    if mode != hard_harness::KernelMode::Auto || !mode.is_batched() {
        return Err(format!(
            "kernel mode is {mode:?}, not the default batched auto"
        ));
    }
    Ok(())
}

/// Where a run keeps its scratch files: under the cargo target
/// directory, one subdirectory per process, removed at exit.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join("perfbench-work")
        .join(std::process::id().to_string())
}

/// Median of `v` (reordered in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Half the width of the band of ranks a [`percentile`] averages over.
pub const PERCENTILE_BAND: f64 = 0.05;

/// Weighted percentile `p` in `(0, 1]` of `(value, weight)` samples
/// (reordered in place), averaged over the ranks `p ± PERCENTILE_BAND`:
/// each sample counts with the share of its weight that falls inside
/// that band of the cumulative weight.
///
/// A batch sweep has only 11 ops, so a nearest-rank percentile is the
/// time of a single op. The band takes in the ops around the rank.
pub fn percentile(v: &mut [(f64, f64)], p: f64) -> f64 {
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|s| s.1).sum();
    let lo = (p - PERCENTILE_BAND).max(0.0) * total;
    let hi = (p + PERCENTILE_BAND).min(1.0) * total;
    let (mut acc, mut sum, mut inside) = (0.0, 0.0, 0.0);
    for &(value, weight) in v.iter() {
        let overlap = (acc + weight).min(hi) - acc.max(lo);
        if overlap > 0.0 {
            sum += value * overlap;
            inside += overlap;
        }
        acc += weight;
    }
    if inside > 0.0 {
        sum / inside
    } else {
        v.last().map_or(0.0, |s| s.0)
    }
}

/// Runs `setup` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_MIN_S`] seconds, and returns the median wall time with the
/// last result.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let last = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return (median(&mut times), last);
        }
    }
}

/// One plain pass of a pass-based workload: its wall time and, per op,
/// the milliseconds of each timed step. Step `j` of op `i` is the same
/// work in every pass of a run.
pub struct PassTimes {
    pub wall_s: f64,
    pub steps: Vec<Vec<f64>>,
}

/// The best-of-passes pass: every step's shortest time over `passes`,
/// and the shortest remainder of a pass outside every step, in seconds.
pub fn best_pass(passes: &[PassTimes]) -> (Vec<Vec<f64>>, f64) {
    let mut best = passes.first().map_or_else(Vec::new, |p| p.steps.clone());
    let mut rest = f64::INFINITY;
    for p in passes {
        for (b, s) in best.iter_mut().zip(&p.steps) {
            for (x, y) in b.iter_mut().zip(s) {
                *x = x.min(*y);
            }
        }
        let timed: f64 = p.steps.iter().flatten().sum();
        rest = rest.min((p.wall_s - timed / 1e3).max(0.0));
    }
    (best, if rest.is_finite() { rest } else { 0.0 })
}

/// Records the end-to-end metrics of a pass-based workload from its
/// best-of-passes pass ([`best_pass`]): `events` and the ops over that
/// pass's time, and the op latency percentiles over each op's best
/// steps, weighted by `op_events`.
///
/// The host is shared, and other tenants slow a pass by up to 40 % in
/// bursts from a fraction of a second to minutes; they never speed one
/// up. Ten 30 s `table2` runs put the median pass rate anywhere in a
/// band 0.24–0.36 of its median wide (quartile distance). The shortest
/// time of each detector run over a run's passes filters the bursts and
/// halved that spread. A step's fastest time is also the one a change to
/// the program moves and the host does not.
///
/// The ops are a sweep's columns, weighted by events because the
/// race-free column is lighter than the others.
pub fn plain_metrics(
    out: &mut Outcome,
    setup_s: f64,
    peak_mib: f64,
    events: u64,
    op_events: &[f64],
    passes: &[PassTimes],
) {
    let (best, rest) = best_pass(passes);
    let mut op_ms: Vec<(f64, f64)> = best
        .iter()
        .zip(op_events)
        .map(|(s, &e)| (s.iter().sum(), e))
        .collect();
    let pass_s = op_ms.iter().map(|o| o.0).sum::<f64>() / 1e3 + rest;
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("events_per_s", events as f64 / pass_s);
    m.insert("peak_rss_mib", peak_mib);
    m.insert("op_p50_ms", percentile(&mut op_ms, 0.5));
    m.insert("op_p90_ms", percentile(&mut op_ms, 0.9));
    m.insert("ops_per_s", best.len() as f64 / pass_s);
}

/// CPU time `(user, system)` in seconds the process spent since `since`
/// (a [`cpu_times`] reading).
pub fn cpu_since(since: (f64, f64)) -> (f64, f64) {
    let now = cpu_times();
    (now.0 - since.0, now.1 - since.1)
}

/// Process CPU time `(user, system)` in seconds, from `/proc/self/stat`.
pub fn cpu_times() -> (f64, f64) {
    // Linux reports utime/stime in USER_HZ ticks, which is 100 on every
    // architecture Rust targets.
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / TICKS_PER_S, tick(12) / TICKS_PER_S)
}

/// Resets the process's peak-RSS mark so set-up does not set the peak.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset peak RSS ({e}); peak_rss_mib includes set-up");
    }
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    hard_harness::bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

fn run(args: &Args) -> Result<Outcome, String> {
    production_path()?;
    let dir = work_dir();
    let outcome = match args.workload.as_str() {
        "table2" => table2::run(args, &dir),
        "tracegen" => Ok(tracegen::run(args)),
        "serve" => serve::run(args),
        other => Err(format!("unknown workload {other} (table2|tracegen|serve)")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome?;
    if let Err(e) = production_path() {
        outcome.problems.push(e);
    }
    Ok(outcome)
}

/// Renders the result line: every metric of the run's kind, in the
/// listed order, 0 for a layer the workload bypasses.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            let unknown: Vec<_> = outcome
                .metrics
                .keys()
                .filter(|k| !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == *k))
                .collect();
            assert!(unknown.is_empty(), "unlisted metrics {unknown:?}");
            println!("{}", result_json(&outcome, args.trace));
            if outcome.failed == 0 && outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hard_obs::jsonl::{self, Json};

    #[test]
    fn the_default_process_runs_the_production_path() {
        assert!(
            !hard_obs::installed().is_on(),
            "no recorder may be installed"
        );
        let mode = hard_harness::kernel::installed();
        assert_eq!(mode, hard_harness::KernelMode::Auto);
        assert!(mode.is_batched(), "auto must resolve to batched dispatch");
        production_path().expect("production path");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = jsonl::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_reports_every_metric_of_its_kind() {
        let mut o = Outcome::default();
        o.metrics.insert("setup_s", 1.25);
        let line = result_json(&o, false);
        let v = jsonl::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn percentiles_average_the_band_around_the_rank() {
        // Ranks 17..19 of 20: the samples 18 and 19.
        let mut v: Vec<(f64, f64)> = (1..=20).rev().map(|x| (f64::from(x), 1.0)).collect();
        assert_eq!(percentile(&mut v, 0.9), 18.5);
        assert_eq!(percentile(&mut v, 0.5), 10.5);
        assert_eq!(percentile(&mut [(3.0, 1.0)], 0.5), 3.0);
        // One heavy sample covers the whole band.
        let mut w = [(1.0, 1.0), (2.0, 1.0), (50.0, 10.0)];
        assert_eq!(percentile(&mut w, 0.5), 50.0);
        // A band across two samples weighs each by its overlap: ranks
        // 4.5..5.5 of 10, half in each.
        let mut h = [(1.0, 5.0), (3.0, 5.0)];
        assert_eq!(percentile(&mut h, 0.5), 2.0);
        let mut m: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&mut m), 10.5);
    }

    #[test]
    fn the_best_pass_takes_each_step_at_its_fastest() {
        let passes = [
            PassTimes {
                wall_s: 0.040,
                steps: vec![vec![10.0, 20.0], vec![5.0]],
            },
            PassTimes {
                wall_s: 0.030,
                steps: vec![vec![12.0, 8.0], vec![6.0]],
            },
        ];
        let (best, rest) = best_pass(&passes);
        assert_eq!(best, vec![vec![10.0, 8.0], vec![5.0]]);
        // Untimed remainders were 5 ms and 4 ms.
        assert!((rest - 0.004).abs() < 1e-12);

        let mut out = Outcome::default();
        plain_metrics(&mut out, 1.0, 2.0, 46, &[40.0, 6.0], &passes);
        // The best pass takes 18 + 5 + 4 = 27 ms.
        let m = &out.metrics;
        assert!((m["events_per_s"] - 46.0 / 0.027).abs() < 1e-6);
        assert!((m["ops_per_s"] - 2.0 / 0.027).abs() < 1e-6);
        assert_eq!(m["op_p50_ms"], 18.0);
        assert_eq!(m["op_p90_ms"], 18.0);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve --seed 7 --seconds 2 --trace 1").expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("serve", 7, true));
        assert!(parse("--workload serve --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload serve --bogus 1").is_err());
    }
}
