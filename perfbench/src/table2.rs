//! `table2`: the paper's Table 2 sweep, serially on one thread.
//!
//! 6 apps × (1 race-free + 10 injected runs) × 4 detectors at scale 0.3.
//! Set-up generates the 66 traces into a corpus directory. Each plain
//! pass then opens a fresh [`CorpusCache`] over that warm directory, as
//! one `hard-exp table2` invocation does, and sends every detector run
//! through the harness runner ([`execute_hardened_cell`]), as
//! `table2::compute_cell` does. Detection and the MESI/timing model do
//! almost all the work; trace generation does none.
//!
//! A traced pass replays the same windows through each detector's
//! public `on_batch` with a timer around every call, plus a
//! detection-free [`BaselineMachine`] over the same windows to split
//! HARD's time into the cache model and the detection metadata.

use crate::cells::{column_sums, columns, Cell};
use crate::layers::{traced_metrics, Layers};
use crate::{cpu_since, cpu_times, peak_rss_mib, plain_metrics, repeat_setup, reset_peak_rss};
use crate::{Args, Outcome, PassTimes};
use hard::{BaselineMachine, HardMachine, HbMachine};
use hard_cache::MemStats;
use hard_harness::campaign::{alarm_sites, probes, score, BugOutcome, CellTrace};
use hard_harness::corpus::{CorpusCache, CorpusEntry};
use hard_harness::experiments::table2::{detector_set, DetectorTally, Table2, Table2Row};
use hard_harness::runner::{execute_hardened_cell, RunLimits, RunOutcome};
use hard_harness::{DetectorKind, DetectorRun};
use hard_hb::{IdealHappensBefore, IdealHbConfig};
use hard_lockset::IdealLockset;
use hard_trace::codec::{fnv1a_update, FNV1A_INIT};
use hard_trace::{Detector, PackedTrace, RaceReport, BATCH_EVENTS};
use hard_types::{AccessKind, Addr};
use hard_workloads::{App, Injection};
use std::path::Path;
use std::time::Instant;

/// Detector events of the seed-0 sweep (ROADMAP pin).
const PINNED_EVENTS: u64 = 11_808_636;
/// HARD's simulated cycles summed over the seed-0 sweep (ROADMAP pin).
const PINNED_CYCLES: u64 = 377_378_425;
/// Seed-0 Table 2 as `hard-exp table2 --scale 0.3 --runs 10` prints it:
/// per application in paper order, `(bugs detected, alarm sites)` for
/// HARD, HARD-ideal, HB and HB-ideal.
const PINNED_TALLIES: [[(usize, usize); 4]; 6] = [
    [(10, 74), (10, 24), (9, 51), (9, 35)],
    [(10, 45), (10, 19), (7, 31), (7, 29)],
    [(10, 58), (10, 38), (10, 65), (10, 62)],
    [(10, 29), (10, 1), (10, 17), (10, 3)],
    [(10, 4), (10, 0), (8, 0), (8, 0)],
    [(10, 36), (10, 4), (8, 18), (8, 6)],
];

/// What one detector run produced, in a form two runs can be compared by.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RunDigest {
    events: u64,
    cycles: u64,
    reports: u64,
    meta_lost: Vec<bool>,
}

/// FNV-1a over every field of every report, in order.
fn reports_fnv(reports: &[RaceReport]) -> u64 {
    reports.iter().fold(FNV1A_INIT, |h, r| {
        let kind = match r.kind {
            AccessKind::Read => 0u8,
            AccessKind::Write => 1,
        };
        let h = fnv1a_update(h, &r.addr.0.to_le_bytes());
        let h = fnv1a_update(h, &[r.size, kind]);
        let h = fnv1a_update(h, &r.site.0.to_le_bytes());
        let h = fnv1a_update(h, &r.thread.0.to_le_bytes());
        fnv1a_update(h, &(r.event_index as u64).to_le_bytes())
    })
}

fn digest(run: &DetectorRun, events: u64, cycles: u64) -> RunDigest {
    RunDigest {
        events,
        cycles,
        reports: reports_fnv(&run.reports),
        meta_lost: run.meta_lost.clone(),
    }
}

/// One pass over the sweep.
struct Pass {
    wall_s: f64,
    runs: Vec<Option<RunDigest>>,
    table: Table2,
    misses: u64,
    lookups: u64,
    /// Per cell, the milliseconds of its corpus read and of each of its
    /// four detector runs (plain passes only).
    steps: Vec<Vec<f64>>,
    /// Detector events of every cell.
    cell_events: Vec<f64>,
}

impl Pass {
    fn events(&self) -> u64 {
        self.runs.iter().flatten().map(|d| d.events).sum()
    }

    fn cycles(&self) -> u64 {
        self.runs.iter().flatten().map(|d| d.cycles).sum()
    }
}

/// Builds the Table 2 tallies from the runs of a pass.
struct Tallies {
    per_app: Vec<[DetectorTally; 4]>,
}

impl Tallies {
    fn new() -> Tallies {
        Tallies {
            per_app: vec![[DetectorTally::default(); 4]; App::all().len()],
        }
    }

    fn record(
        &mut self,
        cell: usize,
        detector: usize,
        injection: Option<&Injection>,
        run: &DetectorRun,
    ) {
        let t = &mut self.per_app[cell / (crate::cells::RUNS + 1)][detector];
        match injection {
            None => t.alarms += alarm_sites(run).len(),
            Some(inj) => match score(run, inj) {
                BugOutcome::Detected => t.detected += 1,
                BugOutcome::MissedDisplaced => t.missed_displaced += 1,
                BugOutcome::Missed => t.missed_other += 1,
            },
        }
    }

    fn table(self) -> Table2 {
        let rows = App::all()
            .into_iter()
            .zip(self.per_app)
            .map(|(app, t)| Table2Row {
                app,
                hard: t[0],
                hard_ideal: t[1],
                hb: t[2],
                hb_ideal: t[3],
            })
            .collect();
        Table2 {
            rows,
            runs: crate::cells::RUNS,
        }
    }
}

fn tally_pairs(table: &Table2) -> Vec<[(usize, usize); 4]> {
    table
        .rows
        .iter()
        .map(|r| [r.hard, r.hard_ideal, r.hb, r.hb_ideal].map(|t| (t.detected, t.alarms)))
        .collect()
}

/// Looks a cell up in the cache, generating it on a miss.
fn load(cache: &CorpusCache, cell: &Cell) -> Option<CorpusEntry> {
    cache.get_or_create(&cell.key(), cell.run.is_some(), || {
        cell.build(&mut Layers::off())
    })
}

/// Set-up: generates every cell's trace into a cold corpus directory.
fn fill(cells: &[Cell], corpus: &Path) -> u64 {
    let _ = std::fs::remove_dir_all(corpus);
    let cache = CorpusCache::new(corpus.to_path_buf());
    for cell in cells {
        let _ = load(&cache, cell);
    }
    cache.stats().stores
}

/// The reference: every cell through the plain materialized
/// [`hard_harness::execute`] path, which the runner's packed, batched
/// path must reproduce report for report.
fn reference(cells: &[Cell], corpus: &Path) -> Vec<Option<RunDigest>> {
    let cache = CorpusCache::new(corpus.to_path_buf());
    let mut out = Vec::with_capacity(cells.len() * 4);
    for cell in cells {
        let Some(entry) = load(&cache, cell) else {
            out.extend([None, None, None, None]);
            continue;
        };
        let trace = entry.trace.to_trace();
        let pr = entry.injection.as_ref().map(probes).unwrap_or_default();
        for kind in detector_set() {
            let run = hard_harness::execute(&kind, &trace, &pr);
            out.push(Some(digest(&run, trace.len() as u64, 0)));
        }
    }
    out
}

/// A plain pass: the production path, timed as a whole and per step:
/// each cell's corpus read and each of its detector runs. The op is a
/// column of the sweep (see [`columns`]).
fn plain_pass(cells: &[Cell], corpus: &Path) -> Pass {
    let t0 = Instant::now();
    let cache = CorpusCache::new(corpus.to_path_buf());
    let mut tallies = Tallies::new();
    let mut runs = Vec::with_capacity(cells.len() * 4);
    let mut steps = Vec::with_capacity(cells.len());
    let mut cell_events = Vec::with_capacity(cells.len());
    for (ci, cell) in cells.iter().enumerate() {
        let t = Instant::now();
        let entry = load(&cache, cell);
        let mut cell_ms = vec![t.elapsed().as_secs_f64() * 1e3];
        let Some(entry) = entry else {
            runs.extend([None, None, None, None]);
            continue;
        };
        let trace = CellTrace::Packed(entry.trace);
        let pr = entry.injection.as_ref().map(probes).unwrap_or_default();
        for (ki, kind) in detector_set().iter().enumerate() {
            let t = Instant::now();
            let out = execute_hardened_cell(kind, &trace, &pr, RunLimits::unlimited());
            cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
            runs.push(match out {
                RunOutcome::Ok(run, m) => {
                    tallies.record(ci, ki, entry.injection.as_ref(), &run);
                    Some(digest(&run, m.events, m.cycles))
                }
                _ => None,
            });
        }
        steps.push(cell_ms);
        cell_events.push(4.0 * trace.len() as f64);
    }
    let table = tallies.table();
    let _ = table.render();
    let stats = cache.stats();
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        runs,
        table,
        misses: stats.misses,
        lookups: stats.lookups(),
        steps,
        cell_events,
    }
}

/// Exact HARD memory-system counts, summed over a pass's HARD runs.
#[derive(Default)]
struct HardCounts {
    stats: MemStats,
    cycles: u64,
}

impl HardCounts {
    fn add(&mut self, s: &MemStats, cycles: u64) {
        self.stats.l1_hits += s.l1_hits;
        self.stats.l1_misses += s.l1_misses;
        self.stats.l2_misses += s.l2_misses;
        self.stats.l2_evictions += s.l2_evictions;
        self.stats.meta_broadcasts += s.meta_broadcasts;
        self.stats.bus_data += s.bus_data;
        self.stats.bus_control += s.bus_control;
        self.cycles += cycles;
    }
}

/// Replays `trace` window by window into `d`, charging the decode to
/// `trace.decode_s`, the detector to `layer`, and, when given, the
/// detection-free machine to `cache.model_s`. The windows are exactly
/// the runner's batched windows.
fn replay<D: Detector + ?Sized>(
    trace: &PackedTrace,
    d: &mut D,
    layer: &'static str,
    mut model: Option<&mut BaselineMachine>,
    layers: &mut Layers,
) -> u64 {
    let mut window = Vec::with_capacity(BATCH_EVENTS);
    let mut index = 0usize;
    loop {
        let n = layers.time("trace.decode_s", || trace.decode_batch(index, &mut window));
        if n == 0 {
            break;
        }
        layers.time(layer, || d.on_batch(index, &window));
        if let Some(b) = model.as_deref_mut() {
            layers.time("cache.model_s", || {
                window.iter().for_each(|e| b.on_event(e))
            });
        }
        index += n;
    }
    index as u64
}

/// One detector run of a traced pass, built the way the runner builds
/// it. Returns the run, its event count and HARD's cycles.
fn traced_run(
    kind: &DetectorKind,
    trace: &PackedTrace,
    pr: &[Addr],
    layers: &mut Layers,
    counts: &mut HardCounts,
) -> (DetectorRun, u64, u64) {
    let unlost = || vec![false; pr.len()];
    match *kind {
        DetectorKind::Hard(cfg) => {
            let mut m = layers.time("hard.new_s", || {
                let mut m = Box::new(HardMachine::new(cfg));
                m.set_lane_kernel(hard_harness::kernel::installed().lane_kernel());
                m
            });
            let mut base = layers.time("cache.model_s", || Box::new(BaselineMachine::new(cfg)));
            let events = replay(
                trace,
                m.as_mut(),
                "hard.detect_s",
                Some(base.as_mut()),
                layers,
            );
            let cycles = m.total_cycles().0;
            counts.add(m.stats(), cycles);
            let run = DetectorRun {
                reports: m.reports().to_vec(),
                meta_lost: pr.iter().map(|&a| m.was_meta_lost(a)).collect(),
            };
            (run, events, cycles)
        }
        DetectorKind::HbHw(cfg) => {
            let mut m = layers.time("hb.detect_s", || Box::new(HbMachine::new(cfg)));
            let events = replay(trace, m.as_mut(), "hb.detect_s", None, layers);
            let run = DetectorRun {
                reports: m.reports().to_vec(),
                meta_lost: pr.iter().map(|&a| m.was_meta_lost(a)).collect(),
            };
            (run, events, 0)
        }
        DetectorKind::LocksetIdeal(cfg) => {
            let mut d = layers.time("lockset_ideal.detect_s", || {
                Box::new(IdealLockset::new(cfg))
            });
            let events = replay(trace, d.as_mut(), "lockset_ideal.detect_s", None, layers);
            let run = DetectorRun {
                reports: d.reports().to_vec(),
                meta_lost: unlost(),
            };
            (run, events, 0)
        }
        DetectorKind::HbIdeal { granularity } => {
            let mut d = layers.time("hb_ideal.detect_s", || {
                Box::new(IdealHappensBefore::new(IdealHbConfig {
                    num_threads: trace.num_threads(),
                    granularity,
                }))
            });
            let events = replay(trace, d.as_mut(), "hb_ideal.detect_s", None, layers);
            let run = DetectorRun {
                reports: d.reports().to_vec(),
                meta_lost: unlost(),
            };
            (run, events, 0)
        }
        DetectorKind::BloomUnbounded(_) => unreachable!("not a Table 2 detector"),
    }
}

/// A traced pass: the same sweep with every layer call timed.
fn traced_pass(
    cells: &[Cell],
    corpus: &Path,
    layers: &mut Layers,
    counts: &mut HardCounts,
) -> Pass {
    let t0 = Instant::now();
    let cache = CorpusCache::new(corpus.to_path_buf());
    let mut tallies = Tallies::new();
    let mut runs = Vec::with_capacity(cells.len() * 4);
    for (ci, cell) in cells.iter().enumerate() {
        let Some(entry) = layers.time("corpus.read_s", || load(&cache, cell)) else {
            runs.extend([None, None, None, None]);
            continue;
        };
        let pr = entry.injection.as_ref().map(probes).unwrap_or_default();
        for (ki, kind) in detector_set().iter().enumerate() {
            let (run, events, cycles) = traced_run(kind, &entry.trace, &pr, layers, counts);
            layers.time("campaign.score_s", || {
                tallies.record(ci, ki, entry.injection.as_ref(), &run);
            });
            runs.push(Some(digest(&run, events, cycles)));
        }
    }
    let table = tallies.table();
    let _ = layers.time("campaign.render_s", || table.render());
    let stats = cache.stats();
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        runs,
        table,
        misses: stats.misses,
        lookups: stats.lookups(),
        steps: Vec::new(),
        cell_events: Vec::new(),
    }
}

/// Counts the runs of `pass` that failed or differ from `expected`.
fn mismatches(pass: &Pass, expected: &[Option<RunDigest>]) -> u64 {
    pass.runs
        .iter()
        .zip(expected)
        .filter(|(a, b)| a.is_none() || a != b)
        .count() as u64
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let cells = Cell::sweep(args.seed);
    let corpus = dir.join("corpus");
    let (setup_s, stores) = repeat_setup(|| fill(&cells, &corpus));
    let mut out = Outcome::default();
    out.check(stores == cells.len() as u64, || {
        format!("set-up stored {stores} of {} traces", cells.len())
    });
    let reference = reference(&cells, &corpus);

    reset_peak_rss();
    let cpu0 = cpu_times();
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layers = Layers::on();
    let mut counts = HardCounts::default();
    while plain.is_empty() || start.elapsed() < args.budget() {
        plain.push(plain_pass(&cells, &corpus));
        let p = plain.last().expect("just pushed");
        eprintln!(
            "perfbench: pass {:2}: {:.3} s, {:.0} events/s",
            plain.len(),
            p.wall_s,
            p.events() as f64 / p.wall_s
        );
        if args.trace {
            traced.push(traced_pass(&cells, &corpus, &mut layers, &mut counts));
        }
    }
    let peak = peak_rss_mib();
    let cpu = cpu_since(cpu0);

    // Every run of the first plain pass must match the materialized
    // reference on reports, metadata loss and event count; every later
    // pass, plain or traced, must match the first exactly (cycles too).
    let first = &plain[0];
    let ref_mismatch = first
        .runs
        .iter()
        .zip(&reference)
        .filter(|(got, want)| match (got, want) {
            (Some(g), Some(w)) => {
                (g.events, g.reports, &g.meta_lost) != (w.events, w.reports, &w.meta_lost)
            }
            _ => true,
        })
        .count() as u64;
    out.failed += ref_mismatch;
    for pass in plain.iter().skip(1).chain(&traced) {
        out.failed += mismatches(pass, &first.runs);
        out.check(
            tally_pairs(&pass.table) == tally_pairs(&first.table),
            || "a pass's Table 2 differs from the first pass".into(),
        );
    }
    for pass in plain.iter().chain(&traced) {
        out.attempted += pass.runs.len() as u64;
        out.check(pass.misses == 0, || {
            format!("{} corpus misses on a warm directory", pass.misses)
        });
    }
    if args.seed == 0 {
        out.check(first.events() == PINNED_EVENTS, || {
            format!(
                "seed 0 dispatched {} events, pinned {PINNED_EVENTS}",
                first.events()
            )
        });
        out.check(first.cycles() == PINNED_CYCLES, || {
            format!(
                "seed 0 simulated {} cycles, pinned {PINNED_CYCLES}",
                first.cycles()
            )
        });
        out.check(tally_pairs(&first.table) == PINNED_TALLIES, || {
            format!(
                "seed 0 Table 2 differs from the pinned one:\n{}",
                first.table
            )
        });
    }

    if args.trace {
        let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).collect::<Vec<_>>();
        traced_metrics(&mut out, &layers, &walls(&traced), &walls(&plain), cpu);
        let m = &mut out.metrics;
        let n = traced.len().max(1) as f64;
        m.insert(
            "hard.metadata_s",
            (layers.get("hard.detect_s") - layers.get("cache.model_s")) / n,
        );
        let s = &counts.stats;
        for (name, v) in [
            ("cache.accesses", s.accesses()),
            ("cache.l1_misses", s.l1_misses),
            ("cache.l2_misses", s.l2_misses),
            ("cache.l2_evictions", s.l2_evictions),
            ("cache.meta_broadcasts", s.meta_broadcasts),
            ("cache.bus_transactions", s.bus_transactions()),
            ("hard.sim_cycles", counts.cycles),
        ] {
            m.insert(name, v as f64 / n);
        }
        let lookups: u64 = traced.iter().map(|p| p.lookups).sum();
        let misses: u64 = traced.iter().map(|p| p.misses).sum();
        m.insert(
            "corpus.hit_frac",
            1.0 - misses as f64 / lookups.max(1) as f64,
        );
    } else {
        let passes: Vec<PassTimes> = plain
            .iter()
            .map(|p| PassTimes {
                wall_s: p.wall_s,
                steps: columns(&p.steps),
            })
            .collect();
        let op_events = column_sums(&first.cell_events);
        plain_metrics(&mut out, setup_s, peak, first.events(), &op_events, &passes);
    }
    Ok(out)
}
