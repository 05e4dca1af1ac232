//! Hierarchy throughput: hit/miss/coherence paths of the simulated
//! memory system.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hard_cache::policy::NullFactory;
use hard_cache::{Hierarchy, HierarchyConfig};
use hard_obs::{MemoryRecorder, NoopRecorder, ObsHandle};
use hard_types::{AccessKind, Addr, CoreId};
use std::hint::black_box;
use std::sync::Arc;

fn bench_l1_hit(c: &mut Criterion) {
    let mut h = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
    h.ensure(CoreId(0), Addr(0x1000), AccessKind::Read).unwrap();
    c.bench_function("cache/l1-hit", |b| {
        b.iter(|| {
            h.ensure(
                black_box(CoreId(0)),
                black_box(Addr(0x1000)),
                AccessKind::Read,
            )
            .unwrap()
        })
    });
}

fn bench_l2_miss_stream(c: &mut Criterion) {
    c.bench_function("cache/cold-stream-1k-lines", |b| {
        b.iter_batched(
            || Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap(),
            |mut h| {
                for i in 0..1024u64 {
                    h.ensure(CoreId(0), Addr(i * 32), AccessKind::Read).unwrap();
                }
                h
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_coherence_pingpong(c: &mut Criterion) {
    let mut h = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
    c.bench_function("cache/write-pingpong", |b| {
        b.iter(|| {
            h.ensure(CoreId(0), Addr(0x2000), AccessKind::Write)
                .unwrap();
            h.ensure(CoreId(1), Addr(0x2000), AccessKind::Write)
                .unwrap();
        })
    });
}

/// The observability overhead gate: the cold-stream workload (fills,
/// L2 displacements, metadata-loss accounting — every instrumented
/// hierarchy path) with no recorder, the no-op recorder, and the real
/// counting recorder. Target: `noop` within 3% of `off`; `counting`
/// shows the true cost of enabling metrics.
fn bench_recorder_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache/obs-cold-stream-1k-lines");
    let run = |mut h: Hierarchy<NullFactory>| {
        for i in 0..1024u64 {
            h.ensure(CoreId(0), Addr(i * 32), AccessKind::Read).unwrap();
        }
        h
    };
    g.bench_function("recorder-off", |b| {
        b.iter_batched(
            || Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap(),
            &run,
            BatchSize::SmallInput,
        )
    });
    g.bench_function("recorder-noop", |b| {
        b.iter_batched(
            || {
                let mut h = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
                h.set_obs(ObsHandle::new(Arc::new(NoopRecorder)));
                h
            },
            &run,
            BatchSize::SmallInput,
        )
    });
    g.bench_function("recorder-counting", |b| {
        b.iter_batched(
            || {
                let mut h = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
                h.set_obs(ObsHandle::new(Arc::new(MemoryRecorder::new())));
                h
            },
            &run,
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A synthetic event window with table2-like locality: runs of
/// same-line accesses from one core (the hot-slot memo's target
/// pattern), rotating across cores and a small working set, with a
/// write mixed into each run.
fn access_window(n: usize) -> Vec<(CoreId, Addr, AccessKind)> {
    (0..n)
        .map(|i| {
            let run = i / 8; // 8 consecutive accesses to one line
            let core = CoreId((run % 4) as u32);
            let line = 0x4000 + (run % 6) as u64 * 32;
            let kind = if i % 8 == 5 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (core, Addr(line + (i % 4) as u64), kind)
        })
        .collect()
}

/// The batched-timing-model ladder: the scalar hierarchy hot path
/// (per-access `ensure` + metadata probe — two cache scans) against the
/// machines' batched recipe (`access_prepared` per access — fused
/// single-scan probe + hot-slot memo — and one `flush_deferred_stats`
/// per window) at growing window sizes. The batched path must win from
/// 64 events up; both paths are pinned bit-identical by the hard-cache
/// property tests.
fn bench_hierarchy_access_ladder(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache/hierarchy-access");
    let geom = HierarchyConfig::default().l1;
    for n in [16usize, 64, 256] {
        let window = access_window(n);
        let mut scalar = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
        g.bench_function(format!("scalar-{n}"), |b| {
            b.iter(|| {
                for &(core, addr, kind) in black_box(&window) {
                    scalar.ensure(core, addr, kind).unwrap();
                    black_box(scalar.meta_mut(core, addr).unwrap());
                }
            })
        });
        let mut batched = Hierarchy::new(HierarchyConfig::default(), NullFactory).unwrap();
        g.bench_function(format!("batched-{n}"), |b| {
            b.iter(|| {
                for &(core, addr, kind) in black_box(&window) {
                    let (line, set) = geom.line_and_set(addr);
                    black_box(batched.access_prepared(core, line, set, kind).unwrap());
                }
                batched.flush_deferred_stats();
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_l1_hit,
    bench_l2_miss_stream,
    bench_coherence_pingpong,
    bench_recorder_overhead,
    bench_hierarchy_access_ladder
);
criterion_main!(benches);
