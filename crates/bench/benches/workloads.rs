//! Workload-pipeline throughput: generation, scheduling and injection.

use criterion::{criterion_group, criterion_main, Criterion};
use hard_trace::{SchedConfig, Scheduler};
use hard_workloads::{inject_race, App, WorkloadConfig};
use std::hint::black_box;

fn cfg() -> WorkloadConfig {
    WorkloadConfig::reduced(0.1)
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload/generate");
    g.sample_size(20);
    for app in [App::WaterNsquared, App::Cholesky] {
        g.bench_function(app.name(), |b| b.iter(|| black_box(app.generate(&cfg()))));
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let p = App::WaterNsquared.generate(&cfg());
    let mut g = c.benchmark_group("workload/schedule");
    g.sample_size(20);
    g.bench_function("water-reduced", |b| {
        b.iter(|| black_box(Scheduler::new(SchedConfig::default()).run(&p)))
    });
    g.finish();
}

fn bench_injection(c: &mut Criterion) {
    let p = App::Barnes.generate(&cfg());
    c.bench_function("workload/inject", |b| {
        b.iter(|| black_box(inject_race(&p, 7)))
    });
}

criterion_group!(benches, bench_generation, bench_scheduling, bench_injection);
criterion_main!(benches);
