//! Per-trace detector cost: how fast each detector consumes the same
//! workload traces. The contrast between `hard` (bit operations in the
//! cache) and `lockset-ideal` (exact sets in an unbounded table) is the
//! paper's core efficiency argument, transposed to simulation time;
//! the directory and hybrid variants price the §3.4/§7 alternatives.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hard::{
    DirectoryHardMachine, HardConfig, HardMachine, HbMachine, HbMachineConfig, HybridMachine,
};
use hard_bloom::LaneKernel;
use hard_harness::{
    execute_hardened_cell, race_free_trace, CampaignConfig, CellTrace, DetectorKind, RunLimits,
};
use hard_hb::{IdealHappensBefore, IdealHbConfig};
use hard_lockset::{IdealLockset, IdealLocksetConfig};
use hard_trace::{run_detector, run_detector_batched, PackedTrace, Trace};
use hard_workloads::App;

fn trace(app: App) -> Trace {
    race_free_trace(app, &CampaignConfig::reduced(0.2, 1))
}

fn bench_app(c: &mut Criterion, app: App) {
    let t = trace(app);
    let mut g = c.benchmark_group(format!("detector/{}", app.name()));
    g.sample_size(15);
    g.throughput(criterion::Throughput::Elements(t.len() as u64));
    g.bench_function("hard", |b| {
        b.iter_batched(
            || HardMachine::new(HardConfig::default()),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hard-directory", |b| {
        b.iter_batched(
            || DirectoryHardMachine::new(HardConfig::default()),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hard+hb", |b| {
        b.iter_batched(
            || HybridMachine::new(HardConfig::default()),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hb-hw", |b| {
        b.iter_batched(
            || HbMachine::new(HbMachineConfig::default()),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("lockset-ideal", |b| {
        b.iter_batched(
            || IdealLockset::new(IdealLocksetConfig::default()),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hb-ideal", |b| {
        b.iter_batched(
            || IdealHappensBefore::new(IdealHbConfig::new(t.num_threads)),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// End-to-end campaign cell: trace generation + all four Table 2
/// detectors over one injected run, i.e. exactly the unit of work the
/// parallel campaign engine schedules. This is the number the
/// `hard-bench/v1` records track at macro scale.
fn bench_full_app(c: &mut Criterion) {
    let cfg = CampaignConfig::reduced(0.1, 1);
    let app = App::WaterNsquared;
    let (t, injection) = hard_harness::injected_trace(app, &cfg, 0);
    let probes = hard_harness::probes(&injection);
    let mut g = c.benchmark_group("detectors/full-app");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(t.len() as u64));
    g.bench_function(app.name(), |b| {
        b.iter(|| {
            let mut detected = 0u32;
            for kind in hard_harness::experiments::table2::detector_set() {
                let run = hard_harness::execute(&kind, &t, &probes);
                if hard_harness::score(&run, &injection) == hard_harness::BugOutcome::Detected {
                    detected += 1;
                }
            }
            detected
        })
    });
    g.finish();
}

/// Materialized vs. packed replay: the same trace driven through the
/// HARD machine from a `Vec<Event>` and from the 16-byte-record corpus
/// encoding. The packed path decodes window by window, so this prices
/// the streaming replay against the heap-resident baseline.
fn bench_replay_paths(c: &mut Criterion) {
    let t = trace(App::WaterNsquared);
    let packed = PackedTrace::from_trace(&t).expect("generated traces always pack");
    let mut g = c.benchmark_group("replay/water-nsquared");
    g.sample_size(15);
    g.throughput(criterion::Throughput::Elements(t.len() as u64));
    // Both sources feed the harness's one detection engine; only the
    // window source differs (slices of the event vector vs windows
    // decoded from the record buffer).
    let kind = DetectorKind::hard_default();
    let limits = RunLimits::unlimited();
    for (name, cell) in [
        ("materialized", CellTrace::Materialized(t.clone())),
        (
            "packed-streamed",
            CellTrace::Packed(std::sync::Arc::new(packed)),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| execute_hardened_cell(&kind, &cell, &[], limits));
        });
    }
    g.finish();
}

/// The batch kernel's lane-width ladder, at two levels.
///
/// `intersect8-*` prices the raw fused intersect + emptiness kernel
/// over a [`MAX_GRANULES`]-word span per call — the longest span a
/// line access hands it — for each lane width (unroll×4 / SIMD) with
/// no machine model around it. `per-event-dispatch` vs `batch-*` then
/// runs the same trace through the whole HARD machine, where the
/// MESI + timing model dilutes the kernel win. All variants at both
/// levels are bit-identical.
fn bench_batch_lane_width(c: &mut Criterion) {
    use hard_bloom::lanes;
    use hard_bloom::BloomShape;
    use hard_lockset::MAX_GRANULES;
    let t = trace(App::WaterNsquared);
    let mut g = c.benchmark_group("detectors/batch-lane-width");
    g.sample_size(15);
    // The pre-hoisting baseline: through PR4, `has_empty_part`
    // recomputed the per-part low/high masks from the shape on every
    // call (a 4-iteration loop + shift), once per access. `black_box`
    // on the shape models that per-access call pattern — without it
    // the compiler would hoist the recomputation this PR's bugfix
    // performs at construction time.
    {
        let seed = 0x9e37_79b9_7f4a_7c15u64;
        g.throughput(criterion::Throughput::Elements(MAX_GRANULES as u64));
        g.bench_function("intersect8-pr4-scalar", |b| {
            b.iter_batched(
                || {
                    let mut words = [0u64; MAX_GRANULES];
                    let mut x = seed;
                    for w in &mut words {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        *w = x | 1;
                    }
                    words
                },
                |mut words| {
                    let held = seed | 3;
                    let mut mask = 0u64;
                    for (i, w) in words.iter_mut().enumerate() {
                        *w &= held;
                        let part_len = std::hint::black_box(16u32);
                        let mut lows = 0u64;
                        let mut p = 0;
                        while p < 4 {
                            lows |= 1u64 << (p * part_len);
                            p += 1;
                        }
                        let highs = lows << (part_len - 1);
                        mask |= u64::from(w.wrapping_sub(lows) & !*w & highs != 0) << i;
                    }
                    mask
                },
                BatchSize::SmallInput,
            )
        });
    }
    for kernel in [LaneKernel::Unroll4, LaneKernel::Simd] {
        g.throughput(criterion::Throughput::Elements(MAX_GRANULES as u64));
        g.bench_function(format!("intersect8-{kernel:?}").to_lowercase(), |b| {
            // Realistic metadata words: a few candidate bits set per
            // part, lock word with two held locks.
            let seed = 0x9e37_79b9_7f4a_7c15u64;
            b.iter_batched(
                || {
                    let mut words = [0u64; MAX_GRANULES];
                    let mut x = seed;
                    for w in &mut words {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        *w = x | 1;
                    }
                    words
                },
                |mut words| lanes::intersect_empty(kernel, BloomShape::B16, &mut words, seed | 3),
                BatchSize::SmallInput,
            )
        });
    }
    g.throughput(criterion::Throughput::Elements(t.len() as u64));
    g.bench_function("per-event-dispatch", |b| {
        b.iter_batched(
            || HardMachine::new(HardConfig::default()),
            |mut m| {
                run_detector(&mut m, &t);
                m
            },
            BatchSize::SmallInput,
        )
    });
    for kernel in [LaneKernel::Unroll4, LaneKernel::Simd] {
        g.bench_function(format!("batch-{kernel:?}").to_lowercase(), |b| {
            b.iter_batched(
                || HardMachine::new(HardConfig::default()),
                |mut m| {
                    m.set_lane_kernel(kernel);
                    run_detector_batched(&mut m, &t);
                    m
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_detectors(c: &mut Criterion) {
    // One cache-resident app and one streaming app.
    bench_app(c, App::WaterNsquared);
    bench_app(c, App::Raytrace);
}

criterion_group!(
    benches,
    bench_detectors,
    bench_full_app,
    bench_replay_paths,
    bench_batch_lane_width
);
criterion_main!(benches);
