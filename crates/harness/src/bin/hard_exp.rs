//! `hard-exp`: regenerate the paper's tables and figures.
//!
//! Run it with no arguments for the usage text (`USAGE`), which lists
//! every command.
//!
//! `obs-serve` spawns a real `hard-serve` with live telemetry enabled,
//! drives a fleet of trace-ID-stamped sessions through it, then
//! reconstructs per-session timelines from the server's JSONL span
//! stream and checks the Prometheus scrape and `/healthz` probe.
//!
//! `--trace-out PATH` installs a process-global recorder streaming
//! every observability event of every run as JSON lines to `PATH`;
//! it composes with any subcommand.
//!
//! `--jobs N` bounds the campaign worker pool (default: the machine's
//! available parallelism; `--jobs 1` is truly serial; values above the
//! available parallelism are capped to it). Results are
//! bit-identical for every value. `--bench-out PATH` writes a
//! `hard-bench/v1` JSON performance record (wall time, event
//! throughput, simulated cycles, peak RSS) after the command;
//! `bench-check` validates such a record's schema.
//!
//! `--trace-cache DIR|off` points the content-addressed trace corpus
//! at `DIR` (default `results/corpus`) or disables it. Campaigns key
//! every generated trace by (generator version, app, scale, seed,
//! schedule config, injection) and replay packed corpus files instead
//! of regenerating; outputs are bit-identical for any cache state.
//! Cache statistics print to stderr only (and not at all under
//! `--quiet`). `record` writes the corpus format (`HARDCRP1`);
//! `replay` streams it through the detector without materialising the
//! payload, rejecting any record the stream validator refuses.

use hard_harness::experiments::{
    ablation, bloom_analysis, chaos, claims, cord, faults, fig8, load, obs, obs_serve, robustness,
    server, table1, table2, table3, table45, table6, window, workload_stats,
};
use hard_harness::{
    CampaignConfig, Checkpoint, DetectorKind, InjectMode, OutputFormat, Reporter, RunLimits,
};
use hard_obs::{MemoryRecorder, ObsHandle};
use hard_workloads::{App, Scale};
use std::process::ExitCode;
use std::sync::Arc;

/// The usage text: one line per command form, then the flags every
/// command takes.
const USAGE: &str = "\
usage: hard-exp <table1|table2|table3|table4|table5|table45|table6|fig8|bloom|ablation|window|server|robustness|workloads|cord|verify|all>
       hard-exp faults [--rates PPM,PPM,...] [--checkpoint PATH] [--max-cycles N] [--max-events N]
       hard-exp obs [--smoke] [--out DIR] [--serve ADDR] [--serve-requests N]
       hard-exp record --app <name> --file <path> [--inject SEED]
       hard-exp replay --file <path> [--detector hard|lockset-ideal|hb|hb-ideal]
       hard-exp submit --addr HOST:PORT --file <path> [--detector NAME] [--clients N] [--repeat N]
       hard-exp serve-load [--clients N] [--repeat N] [--serve-cmd PATH]
       hard-exp chaos [--rates PPM,PPM,...] [--clients N] [--repeat N] [--retries N] [--seed N] [--addr HOST:PORT] [--serve-cmd PATH]
       hard-exp obs-serve [--clients N] [--repeat N] [--retries N] [--seed N] [--out DIR] [--serve-cmd PATH]
       hard-exp bench-check --file BENCH_x.json | --trajectory BENCH_a.json,BENCH_b.json,...
every command: [--scale F] [--runs N] [--jobs N] [--mode omit|wrong-lock] [--markdown]
       [--format text|markdown|json] [--quiet] [--trace-out PATH] [--bench-out PATH]
       [--trace-cache DIR|off]";

struct Args {
    command: String,
    scale: f64,
    runs: usize,
    jobs: Option<usize>,
    bench_out: Option<String>,
    format: OutputFormat,
    quiet: bool,
    trace_out: Option<String>,
    app: Option<String>,
    file: Option<String>,
    inject: Option<u64>,
    detector: String,
    mode: InjectMode,
    rates: Option<Vec<u32>>,
    checkpoint: Option<String>,
    max_cycles: Option<u64>,
    max_events: Option<u64>,
    smoke: bool,
    out: Option<String>,
    serve: Option<String>,
    serve_requests: Option<usize>,
    trace_cache: Option<String>,
    addr: Option<String>,
    repeat: usize,
    clients: usize,
    serve_cmd: Option<String>,
    retries: Option<u32>,
    seed: Option<u64>,
    trajectory: Option<Vec<String>>,
}

impl Args {
    /// A sub-invocation inheriting the global output flags only.
    fn sub(&self, command: &str) -> Args {
        Args {
            command: command.into(),
            scale: self.scale,
            runs: self.runs,
            jobs: self.jobs,
            bench_out: None,
            format: self.format,
            quiet: self.quiet,
            trace_out: None,
            app: None,
            file: None,
            inject: None,
            detector: self.detector.clone(),
            mode: self.mode,
            rates: None,
            checkpoint: None,
            max_cycles: None,
            max_events: None,
            smoke: false,
            out: None,
            serve: None,
            serve_requests: None,
            trace_cache: self.trace_cache.clone(),
            addr: None,
            repeat: 1,
            clients: 1,
            serve_cmd: None,
            retries: None,
            seed: None,
            trajectory: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        scale: 1.0,
        runs: 10,
        jobs: None,
        bench_out: None,
        format: OutputFormat::Text,
        quiet: false,
        trace_out: None,
        app: None,
        file: None,
        inject: None,
        detector: "hard".into(),
        mode: InjectMode::OmitPair,
        rates: None,
        checkpoint: None,
        max_cycles: None,
        max_events: None,
        smoke: false,
        out: None,
        serve: None,
        serve_requests: None,
        trace_cache: None,
        addr: None,
        repeat: 1,
        clients: 1,
        serve_cmd: None,
        retries: None,
        seed: None,
        trajectory: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--runs" => {
                args.runs = it
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --runs: {e}"))?;
            }
            "--jobs" => {
                let jobs: usize = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                args.jobs = Some(jobs);
            }
            "--bench-out" => {
                args.bench_out = Some(it.next().ok_or("--bench-out needs a path")?);
            }
            "--markdown" => args.format = OutputFormat::Markdown,
            "--format" => {
                args.format = OutputFormat::parse(&it.next().ok_or("--format needs a value")?)?;
            }
            "--quiet" => args.quiet = true,
            "--trace-out" => {
                args.trace_out = Some(it.next().ok_or("--trace-out needs a path")?);
            }
            "--app" => args.app = Some(it.next().ok_or("--app needs a name")?),
            "--file" => args.file = Some(it.next().ok_or("--file needs a path")?),
            "--trajectory" => {
                let list = it
                    .next()
                    .ok_or("--trajectory needs a comma-separated file list")?;
                let files: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if files.is_empty() {
                    return Err("--trajectory needs at least one file".into());
                }
                args.trajectory = Some(files);
            }
            "--inject" => {
                args.inject = Some(
                    it.next()
                        .ok_or("--inject needs a seed")?
                        .parse()
                        .map_err(|e| format!("bad --inject: {e}"))?,
                );
            }
            "--detector" => {
                args.detector = it.next().ok_or("--detector needs a name")?;
            }
            "--rates" => {
                let raw = it
                    .next()
                    .ok_or("--rates needs a comma-separated ppm list")?;
                let rates = raw
                    .split(',')
                    .map(|s| s.trim().parse::<u32>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("bad --rates: {e}"))?;
                if rates.is_empty() {
                    return Err("--rates needs at least one rate".into());
                }
                args.rates = Some(rates);
            }
            "--checkpoint" => {
                args.checkpoint = Some(it.next().ok_or("--checkpoint needs a path")?);
            }
            "--max-cycles" => {
                args.max_cycles = Some(
                    it.next()
                        .ok_or("--max-cycles needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --max-cycles: {e}"))?,
                );
            }
            "--max-events" => {
                args.max_events = Some(
                    it.next()
                        .ok_or("--max-events needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --max-events: {e}"))?,
                );
            }
            "--mode" => {
                args.mode = match it.next().ok_or("--mode needs a value")?.as_str() {
                    "omit" => InjectMode::OmitPair,
                    "wrong-lock" => InjectMode::WrongLock,
                    other => return Err(format!("unknown mode: {other}")),
                };
            }
            "--trace-cache" => {
                args.trace_cache = Some(it.next().ok_or("--trace-cache needs <dir> or 'off'")?);
            }
            "--addr" => args.addr = Some(it.next().ok_or("--addr needs HOST:PORT")?),
            "--repeat" => {
                args.repeat = it
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?;
            }
            "--clients" => {
                args.clients = it
                    .next()
                    .ok_or("--clients needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --clients: {e}"))?;
            }
            "--serve-cmd" => {
                args.serve_cmd = Some(it.next().ok_or("--serve-cmd needs a path")?);
            }
            "--retries" => {
                args.retries = Some(
                    it.next()
                        .ok_or("--retries needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --retries: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                );
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a directory")?),
            "--serve" => args.serve = Some(it.next().ok_or("--serve needs an address")?),
            "--serve-requests" => {
                args.serve_requests = Some(
                    it.next()
                        .ok_or("--serve-requests needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --serve-requests: {e}"))?,
                );
            }
            cmd if args.command.is_empty() && !cmd.starts_with('-') => {
                args.command = cmd.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.command.is_empty() {
        return Err("no command given".into());
    }
    Ok(args)
}

/// The effective worker-pool bound: `--jobs` capped at the machine's
/// available parallelism (defaulting to it when the flag is absent).
///
/// The campaign cells are CPU-bound, so workers beyond the hardware's
/// parallelism only add scheduling churn; the cap makes `--jobs 4` on a
/// smaller host behave like the best the host can do. The library-level
/// pool ([`hard_harness::parallel::map_cells`]) deliberately does NOT
/// cap — tests drive it with explicit worker counts to exercise real
/// multi-threaded merges regardless of the host.
fn effective_jobs(args: &Args) -> usize {
    args.jobs
        .map_or_else(hw_parallelism, |j| j.min(hw_parallelism()))
}

/// The worker count the invoker asked for: `--jobs` verbatim, or the
/// machine's available parallelism when the flag is absent. Recorded
/// alongside the effective count so a capped run is unambiguous in
/// bench records.
fn requested_jobs(args: &Args) -> usize {
    args.jobs.unwrap_or_else(hw_parallelism)
}

fn hw_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Installs the process-global trace-corpus cache behind
/// `--trace-cache <dir>|off` (default: `results/corpus`). Returns the
/// cache so `main` can report hit statistics after the command.
fn install_trace_cache(args: &Args) -> Option<Arc<hard_harness::CorpusCache>> {
    let dir = match args.trace_cache.as_deref() {
        Some("off") => return None,
        Some(dir) => dir,
        None => "results/corpus",
    };
    let cache = Arc::new(hard_harness::CorpusCache::new(dir.into()));
    hard_harness::corpus::install(Some(cache.clone()));
    Some(cache)
}

fn campaign(args: &Args) -> CampaignConfig {
    CampaignConfig {
        scale: if (args.scale - 1.0).abs() < f64::EPSILON {
            Scale::Full
        } else {
            Scale::Reduced(args.scale)
        },
        runs: args.runs,
        mode: args.mode,
        jobs: effective_jobs(args),
        ..CampaignConfig::default()
    }
}

fn run_command(args: &Args, rep: &Reporter) -> Result<(), String> {
    let cfg = campaign(args);
    match args.command.as_str() {
        "table1" => {
            rep.section("Table 1 — simulated architecture parameters");
            rep.table(&table1::run());
        }
        "table2" => {
            rep.section(&format!(
                "Table 2 — effectiveness, {} runs/app (HARD vs happens-before)",
                cfg.runs
            ));
            rep.table(&table2::run(&cfg).render());
        }
        "table3" => {
            rep.section("Table 3 — candidate set / LState granularity sweep");
            rep.table(&table3::run(&cfg).render());
        }
        "table4" => {
            rep.section("Table 4 — bugs detected vs. L2 size");
            rep.table(&table45::run(&cfg).render_bugs());
        }
        "table5" => {
            rep.section("Table 5 — false alarms vs. L2 size");
            rep.table(&table45::run(&cfg).render_alarms());
        }
        "table45" => {
            let t = table45::run(&cfg);
            rep.section("Table 4 — bugs detected vs. L2 size");
            rep.table(&t.render_bugs());
            rep.section("Table 5 — false alarms vs. L2 size");
            rep.table(&t.render_alarms());
        }
        "table6" => {
            rep.section("Table 6 — bloom filter vector size sweep");
            rep.table(&table6::run(&cfg).render());
        }
        "fig8" => {
            rep.section("Figure 8 — HARD execution overhead (% of baseline)");
            rep.table(&fig8::run(&cfg).render());
        }
        "bloom" => {
            rep.section("Bloom collision analysis (paper §3.2)");
            rep.table(&bloom_analysis::run(200_000).render());
        }
        "cord" => {
            rep.section("Vector vs scalar-clock happens-before (CORD-style cost/precision)");
            rep.table(&cord::run(&cfg).render());
        }
        "workloads" => {
            rep.section("Synthetic workload characterization (race-free runs)");
            rep.table(&workload_stats::run(&cfg).render());
        }
        "verify" => {
            let c = claims::run(&cfg);
            rep.section(&format!("Paper-claim checklist ({} runs/app):", cfg.runs));
            rep.table(&c.render());
            if !c.all_pass() {
                return Err("some claims failed".into());
            }
        }
        "robustness" => {
            rep.section("Scheduler robustness: aggregate detection vs quantum bound");
            rep.table(&robustness::run(&cfg).render());
        }
        "server" => {
            rep.section(&format!(
                "Server workload (§7 future work): fork/join threading, {} runs",
                cfg.runs
            ));
            rep.table(&server::run(&cfg).render());
        }
        "window" => {
            rep.section("Detection window (paper §3.6): metadata lifetime in accesses");
            rep.table(&window::run(&cfg).render());
        }
        "obs" => {
            let mut campaign = cfg;
            if args.smoke {
                // The CI smoke gate: small enough to finish in seconds
                // unless the user pinned an explicit scale.
                if matches!(campaign.scale, Scale::Full) {
                    campaign.scale = Scale::Reduced(0.05);
                }
                campaign.runs = campaign.runs.min(2);
            }
            let ocfg = obs::ObsConfig {
                campaign,
                out_dir: Some(
                    args.out
                        .clone()
                        .unwrap_or_else(|| "results/obs".into())
                        .into(),
                ),
            };
            let study = obs::run(&ocfg).map_err(|e| format!("obs campaign I/O: {e}"))?;
            rep.section(&format!(
                "Observability — detection pipeline metrics, {} runs/app (events under {})",
                study.runs,
                ocfg.out_dir.as_deref().expect("set above").display()
            ));
            rep.table(&study.render());
            rep.section("Span profile (cycle/event attribution per phase):");
            rep.table(&study.render_spans());
            let validated = study.smoke_check()?;
            rep.note(&format!(
                "smoke check OK: {validated} JSONL event lines validated, core counters nonzero"
            ));
            if let Some(addr) = args.serve.as_deref() {
                let body = study.exposition();
                let srv = server::MetricsServer::bind(addr)
                    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
                let local = srv.local_addr().map_err(|e| e.to_string())?;
                rep.note(&format!(
                    "serving Prometheus metrics at http://{local}/metrics"
                ));
                srv.serve(&body, args.serve_requests)
                    .map_err(|e| format!("metrics server: {e}"))?;
            }
        }
        "faults" => {
            let fcfg = faults::FaultsConfig {
                campaign: cfg,
                rates_ppm: args
                    .rates
                    .clone()
                    .unwrap_or_else(|| faults::FaultsConfig::default().rates_ppm),
                limits: RunLimits {
                    max_cycles: args.max_cycles,
                    max_events: args.max_events,
                },
            };
            let mut cp = match args.checkpoint.as_deref() {
                Some(path) => Some(
                    Checkpoint::load(std::path::Path::new(path), &fcfg.key())
                        .map_err(|e| format!("cannot load checkpoint {path}: {e}"))?,
                ),
                None => None,
            };
            let study = faults::run(&fcfg, cp.as_mut());
            hard_harness::bench::account_resumed(study.resumed as u64);
            rep.section(&format!(
                "Fault sweep — graceful degradation, {} runs/app/rate{}",
                fcfg.campaign.runs,
                if study.resumed > 0 {
                    format!(" ({} cells resumed from checkpoint)", study.resumed)
                } else {
                    String::new()
                }
            ));
            rep.table(&study.render_aggregate());
            rep.section("Per-application breakdown:");
            rep.table(&study.render());
            let crashed: usize = study.rows.iter().map(|r| r.cell.faulted).sum();
            if crashed > 0 {
                return Err(format!("{crashed} run(s) crashed inside the detector"));
            }
        }
        "chaos" => {
            let mut ccfg = chaos::ChaosConfig {
                campaign: cfg,
                ..chaos::ChaosConfig::default()
            };
            if let Some(rates) = args.rates.clone() {
                ccfg.rates_ppm = rates;
            }
            if args.clients > 1 {
                ccfg.clients = args.clients;
            }
            if args.repeat > 1 {
                ccfg.sessions_per_client = args.repeat;
            }
            if let Some(seed) = args.seed {
                ccfg.seed = seed;
            }
            if let Some(retries) = args.retries {
                ccfg.retry.max_attempts = retries;
            }
            ccfg.addr = args.addr.clone();
            ccfg.serve_cmd = args.serve_cmd.clone();
            rep.section(&format!(
                "Chaos campaign — serve tier under network faults, {} client(s) x {} session(s)/rate",
                ccfg.clients, ccfg.sessions_per_client
            ));
            let study = chaos::run(&ccfg)?;
            rep.table(&study.render());
            study.check()?;
            rep.note("all invariants held: no divergent reports, no exhausted retries, no leaks");
        }
        "obs-serve" => {
            let mut ocfg = obs_serve::ObsServeConfig {
                campaign: cfg,
                ..obs_serve::ObsServeConfig::default()
            };
            if args.clients > 1 {
                ocfg.clients = args.clients;
            }
            if args.repeat > 1 {
                ocfg.sessions_per_client = args.repeat;
            }
            if let Some(seed) = args.seed {
                ocfg.seed = seed;
            }
            if let Some(retries) = args.retries {
                ocfg.retry.max_attempts = retries;
            }
            ocfg.serve_cmd = args.serve_cmd.clone();
            if let Some(out) = args.out.clone() {
                ocfg.out_dir = Some(out.into());
            }
            rep.section(&format!(
                "Obs-serve campaign — live serve telemetry, {} client(s) x {} traced session(s)",
                ocfg.clients, ocfg.sessions_per_client
            ));
            let study = obs_serve::run(&ocfg)?;
            rep.table(&study.render());
            for line in study.summary_notes() {
                rep.note(&line);
            }
            study.check()?;
            rep.note(
                "all telemetry invariants held: traces echoed and reconstructed, \
                 stage order intact, gauges drained, healthz ready",
            );
        }
        "serve-load" => {
            let mut lcfg = load::LoadConfig {
                campaign: cfg,
                ..load::LoadConfig::default()
            };
            if args.clients > 1 {
                lcfg.sessions = args.clients;
            }
            if args.repeat > 1 {
                lcfg.repeat = args.repeat;
            }
            lcfg.serve_cmd = args.serve_cmd.clone();
            rep.section(&format!(
                "Serve load — {} concurrent async session(s) x {} wave(s)",
                lcfg.sessions, lcfg.repeat
            ));
            let study = load::run(&lcfg)?;
            rep.table(&study.render());
            rep.note(&format!(
                "{} events/session; server VmHWM {} -> {} KiB ({} KiB/session)",
                study.events_per_session,
                study.server_baseline_rss.map_or(0, |b| b / 1024),
                study.server_peak_rss.map_or(0, |b| b / 1024),
                study.rss_per_session().map_or(0, |b| b / 1024),
            ));
            study.check()?;
            rep.note(
                "all load invariants held: full fleet concurrent, every report \
                 byte-identical to offline replay, slots and bytes drained",
            );
        }
        "bench-check" => {
            // Chain mode: validate a committed sequence of bench files
            // as one trajectory (schema + the shared table2 sweep's
            // monotone event counts).
            if let Some(files) = &args.trajectory {
                let mut loaded = Vec::with_capacity(files.len());
                for path in files {
                    let body = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    loaded.push((path.clone(), body));
                }
                let summary = hard_harness::bench::validate_trajectory(&loaded)?;
                for line in &summary {
                    rep.note(line);
                }
                rep.note(&format!(
                    "trajectory OK: {} file(s), shared sweep coherent",
                    summary.len()
                ));
                return Ok(());
            }
            // A bench file is one record per line: a single `--bench-out`
            // capture or a multi-line trajectory like `BENCH_pr3.json`.
            let path = args
                .file
                .as_deref()
                .ok_or("bench-check needs --file <path> (or --trajectory <files>)")?;
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut checked = 0usize;
            for (i, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let rec = hard_harness::bench::validate(line).map_err(|e| {
                    format!("{path}:{}: not a valid hard-bench/v1 record: {e}", i + 1)
                })?;
                rep.note(&format!(
                    "{path}:{} OK: {} with jobs={} wall_ms={} events={} events/s={} cells={}",
                    i + 1,
                    rec.name,
                    rec.jobs,
                    rec.wall_ms,
                    rec.events,
                    rec.events_per_sec,
                    rec.cells
                ));
                checked += 1;
            }
            if checked == 0 {
                return Err(format!("{path} contains no records"));
            }
        }
        "record" => {
            let name = args.app.as_deref().ok_or("record needs --app <name>")?;
            let app = App::all()
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| format!("unknown app: {name}"))?;
            let path = args.file.as_deref().ok_or("record needs --file <path>")?;
            let (trace, injection) = match args.inject {
                None => (hard_harness::race_free_trace(app, &cfg), None),
                Some(seed) => {
                    let (t, i) = hard_harness::injected_trace(app, &cfg, seed as usize);
                    (t, Some(i))
                }
            };
            let packed = hard_trace::PackedTrace::from_trace(&trace)
                .map_err(|e| format!("pack failed: {e}"))?;
            hard_harness::corpus::write_file(
                std::path::Path::new(path),
                &packed,
                injection.as_ref(),
            )
            .map_err(|e| format!("cannot write {path}: {e}"))?;
            rep.note(&format!(
                "recorded {} ({} events, {} threads) to {path}",
                app,
                trace.len(),
                trace.num_threads
            ));
        }
        "replay" => {
            let path = args.file.as_deref().ok_or("replay needs --file <path>")?;
            let kind = DetectorKind::parse(&args.detector)?;
            // Stream the corpus file through the detector chunk by
            // chunk: the payload is never resident.
            let (header, mut reader) =
                hard_harness::corpus::open_streamed(std::path::Path::new(path))?;
            let (run, events, fnv) =
                hard_harness::execute_streamed(&kind, header.num_threads as usize, &mut reader)?;
            if events != header.events {
                return Err(format!(
                    "stream ended after {events} of {} events",
                    header.events
                ));
            }
            if fnv != header.payload_fnv {
                return Err("payload checksum mismatch after replay".into());
            }
            let body = hard_harness::ReportBody {
                label: kind.label().to_string(),
                events,
                reports: run.reports,
            };
            for line in body.notes() {
                rep.note(&line);
            }
        }
        "submit" => {
            let path = args.file.as_deref().ok_or("submit needs --file <path>")?;
            let addr = args
                .addr
                .as_deref()
                .ok_or("submit needs --addr HOST:PORT")?;
            // Validate the detector name locally so a typo fails fast
            // instead of after the upload.
            DetectorKind::parse(&args.detector)?;
            let corpus = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let repeat = args.repeat.max(1);
            let clients = args.clients.max(1);
            let cells: Vec<usize> = (0..clients).collect();
            let outcomes = hard_harness::map_cells(clients, &cells, |_, _| {
                let mut last = None;
                for _ in 0..repeat {
                    last = Some(hard_harness::service::submit_bytes(
                        addr,
                        &corpus,
                        &args.detector,
                        64 << 10,
                        None,
                    ));
                }
                last.expect("repeat >= 1")
            });
            // All clients submitted the same trace; their reports must
            // agree, so print one and verify the rest against it.
            let mut printed: Option<hard_harness::ReportBody> = None;
            for outcome in outcomes {
                match outcome? {
                    hard_harness::Submission::ServerError { message, .. } => {
                        return Err(format!("server error: {message}"))
                    }
                    hard_harness::Submission::Busy { message, .. } => {
                        // The plain submit path does not retry; use
                        // `hard-exp chaos` or back off manually.
                        return Err(format!("server busy: {message}"));
                    }
                    hard_harness::Submission::Report { body, .. } => match &printed {
                        None => {
                            for line in body.notes() {
                                rep.note(&line);
                            }
                            printed = Some(body);
                        }
                        Some(first) if *first != body => {
                            return Err("concurrent sessions disagreed on the report".into())
                        }
                        Some(_) => {}
                    },
                }
            }
            if clients > 1 || repeat > 1 {
                rep.note(&format!(
                    "submitted {} session(s) ({clients} client(s) x {repeat}), reports agree",
                    clients * repeat
                ));
            }
        }
        "ablation" => {
            let a = ablation::run(&cfg);
            rep.section("Ablation — barrier pruning (§3.5) and the §7 combination");
            rep.table(&a.render_alarms());
            rep.section("Ablation — metadata management (§3.4) and monitoring cost (§1)");
            rep.table(&a.render_costs());
        }
        "all" => {
            for cmd in [
                "table1",
                "table2",
                "table3",
                "table45",
                "table6",
                "fig8",
                "bloom",
                "ablation",
                "window",
                "server",
                "workloads",
                "cord",
            ] {
                run_command(&args.sub(cmd), rep)?;
                rep.gap();
            }
        }
        other => return Err(format!("unknown command: {other}")),
    }
    Ok(())
}

/// Installs the process-global JSONL recorder behind `--trace-out`.
/// Returns the recorder so `main` can flush it after the command.
fn install_trace_out(path: &str) -> Result<Arc<MemoryRecorder>, String> {
    let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let rec = Arc::new(MemoryRecorder::with_jsonl(Box::new(
        std::io::BufWriter::new(f),
    )));
    if !hard_obs::install(ObsHandle::new(rec.clone())) {
        return Err("a global recorder is already installed".into());
    }
    Ok(rec)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let rep = Reporter::new(args.format, args.quiet);
    let trace_rec = match args.trace_out.as_deref().map(install_trace_out) {
        None => None,
        Some(Ok(rec)) => Some(rec),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let corpus = install_trace_cache(&args);
    let started = std::time::Instant::now();
    let result = run_command(&args, &rep);
    if let Some(cache) = &corpus {
        let s = cache.stats();
        if s.lookups() > 0 && !args.quiet {
            // Stats go to stderr: stdout must stay byte-identical for
            // any cache state so CI can `cmp` cold vs. warm runs.
            // `--quiet` silences them entirely (errors only).
            eprintln!(
                "trace-cache {}: {} hit(s), {} miss(es), {} corrupt, {} store(s), \
                 {} store error(s)",
                cache.dir().display(),
                s.hits,
                s.misses,
                s.corrupt,
                s.stores,
                s.store_errors
            );
        }
    }
    if let Some(path) = args.bench_out.as_deref() {
        if result.is_ok() {
            let record = hard_harness::BenchRecord::capture(
                &args.command,
                requested_jobs(&args),
                effective_jobs(&args),
                started.elapsed(),
            );
            match record.write(std::path::Path::new(path)) {
                Ok(()) => rep.note(&format!(
                    "bench-out: {path} ({} events in {} ms, {} events/s, jobs={})",
                    record.events, record.wall_ms, record.events_per_sec, record.jobs
                )),
                Err(e) => eprintln!("warning: writing --bench-out {path} failed: {e}"),
            }
        }
    }
    if let Some(rec) = trace_rec {
        if let Err(e) = rec.flush() {
            eprintln!("warning: flushing --trace-out stream failed: {e}");
        }
        rep.note(&format!(
            "trace-out: {} events recorded to {}",
            rec.snapshot().events_recorded,
            args.trace_out.as_deref().expect("trace_rec implies path")
        ));
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.starts_with("unknown command") {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}
