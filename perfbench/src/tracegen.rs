//! `tracegen`: builds the 66 cell traces of one Table 2 sweep from their
//! seeds, with no detection: program generation, race injection,
//! scheduling, packing and `HARDCRP1` encoding. This trace-source layer
//! does all the work here and none in `table2`; every cold campaign and
//! every `hard-exp record` pays it.
//!
//! Set-up is one reference pass; every timed pass must reproduce each
//! trace's event count and corpus payload FNV exactly.

use crate::cells::{column_sums, columns, Cell};
use crate::layers::{traced_metrics, Layers};
use crate::{cpu_since, cpu_times, peak_rss_mib, plain_metrics, repeat_setup, reset_peak_rss};
use crate::{Args, Outcome, PassTimes};
use hard_harness::corpus::parse_header;
use hard_trace::codec::fnv1a;
use std::time::Instant;

/// Events in one seed-0 sweep's traces: the pinned 11,808,636 detector
/// events of `table2` over its 4 detectors.
const PINNED_TRACE_EVENTS: u64 = 11_808_636 / 4;

/// What identifies one built trace: `(events, payload FNV, stream bytes)`.
type TraceId = (u64, u64, usize);

/// Builds one cell, checking the header it wrote: `None` if the stream
/// does not parse or disagrees with the packed trace.
fn build(cell: &Cell, layers: &mut Layers, hash_payload: bool) -> Option<TraceId> {
    let (bytes, events) = cell.encode(layers);
    let (header, at) = parse_header(&bytes).ok()?;
    let consistent = header.events == events as u64
        && (!hash_payload || fnv1a(&bytes[at..]) == header.payload_fnv);
    consistent.then_some((header.events, header.payload_fnv, bytes.len()))
}

struct Pass {
    wall_s: f64,
    traces: Vec<Option<TraceId>>,
    /// Milliseconds to build each trace.
    steps: Vec<Vec<f64>>,
}

fn pass(cells: &[Cell], layers: &mut Layers) -> Pass {
    let t0 = Instant::now();
    let mut steps = Vec::with_capacity(cells.len());
    let traces = cells
        .iter()
        .map(|cell| {
            let t = Instant::now();
            let id = build(cell, layers, false);
            steps.push(vec![t.elapsed().as_secs_f64() * 1e3]);
            id
        })
        .collect();
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        traces,
        steps,
    }
}

pub fn run(args: &Args) -> Outcome {
    let cells = Cell::sweep(args.seed);
    let mut out = Outcome::default();
    // The reference pass also hashes every payload in full against the
    // FNV its header carries.
    let mut setups = Vec::new();
    let (setup_s, reference) = repeat_setup(|| {
        let r: Vec<Option<TraceId>> = cells
            .iter()
            .map(|c| build(c, &mut Layers::off(), true))
            .collect();
        setups.push(r.clone());
        r
    });
    out.check(setups.iter().all(|s| *s == reference), || {
        "set-up passes built different traces".into()
    });
    out.check(reference.iter().all(Option::is_some), || {
        "a reference trace's stream header disagrees with its payload".into()
    });
    let ref_events: u64 = reference.iter().flatten().map(|t| t.0).sum();
    if args.seed == 0 {
        out.check(ref_events == PINNED_TRACE_EVENTS, || {
            format!("seed 0 built {ref_events} events, pinned {PINNED_TRACE_EVENTS}")
        });
    }

    reset_peak_rss();
    let cpu0 = cpu_times();
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layers = Layers::on();
    while plain.is_empty() || start.elapsed() < args.budget() {
        plain.push(pass(&cells, &mut Layers::off()));
        if args.trace {
            traced.push(pass(&cells, &mut layers));
        }
    }
    let peak = peak_rss_mib();
    let cpu = cpu_since(cpu0);

    for p in plain.iter().chain(&traced) {
        out.attempted += p.traces.len() as u64;
        out.failed += p
            .traces
            .iter()
            .zip(&reference)
            .filter(|(got, want)| got.is_none() || got != want)
            .count() as u64;
    }

    if args.trace {
        let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).collect::<Vec<_>>();
        traced_metrics(&mut out, &layers, &walls(&traced), &walls(&plain), cpu);
    } else {
        let passes: Vec<PassTimes> = plain
            .iter()
            .map(|p| PassTimes {
                wall_s: p.wall_s,
                steps: columns(&p.steps),
            })
            .collect();
        let trace_events: Vec<f64> = reference
            .iter()
            .map(|t| t.map_or(0.0, |t| t.0 as f64))
            .collect();
        let op_events = column_sums(&trace_events);
        plain_metrics(&mut out, setup_s, peak, ref_events, &op_events, &passes);
    }
    out
}
