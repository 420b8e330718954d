//! Design-space scaling benches (not a paper figure): how the simulated
//! device responds to the configuration knobs DESIGN.md calls out —
//! verification-lane count, buffer-area capacity and the Θ1/Θ2 batch sizes.
//!
//! The paper fixes one Alveo U200 configuration; these ablations justify that
//! the defaults used throughout the reproduction sit on the flat part of each
//! curve (more lanes or a bigger buffer would not change the reported
//! comparisons).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_bench::{bench_scale, make_runner};
use pefp_core::{
    prepare_snapshot_with, run_prepared_on_device, EngineOptions, PefpVariant, PrepareContext,
    PreparedQuery,
};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::CountingSink;
use pefp_graph::Dataset;
use pefp_workload::Runner;
use std::hint::black_box;

/// Pre-BFS of the first `(dataset, k)` workload query, if there is one.
fn first_query(runner: &mut Runner, dataset: Dataset, k: u32) -> Option<PreparedQuery> {
    let q = runner.queries(dataset, k).first().copied()?;
    let g = runner.snapshot(dataset);
    Some(prepare_snapshot_with(&mut PrepareContext::new(), g, q.s, q.t, k, PefpVariant::Full))
}

/// Simulated cycles of one device run of `prep`.
fn cycles(prep: &PreparedQuery, opts: &EngineOptions, device: &DeviceConfig) -> u64 {
    let cu = Device::new(device.clone());
    run_prepared_on_device(prep, opts.clone(), cu, &mut CountingSink::new()).device.cycles
}

fn bench_verification_lanes(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let dataset = Dataset::BerkStan;
    let k = 5;
    let Some(prep) = first_query(&mut runner, dataset, k) else { return };
    let opts = PefpVariant::Full.engine_options();

    let mut group = c.benchmark_group("scaling_lanes");
    group.sample_size(10);
    for lanes in [1usize, 4, 16, 64] {
        let mut device = DeviceConfig::alveo_u200();
        device.verification_lanes = lanes;
        group.bench_with_input(BenchmarkId::new("BS_k5", lanes), &lanes, |b, _| {
            b.iter(|| black_box(cycles(&prep, &opts, &device)))
        });
    }
    group.finish();
}

fn bench_buffer_capacity(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let dataset = Dataset::Baidu;
    let k = 6;
    let Some(prep) = first_query(&mut runner, dataset, k) else { return };
    let device = DeviceConfig::alveo_u200();

    let mut group = c.benchmark_group("scaling_buffer");
    group.sample_size(10);
    for buffer in [256usize, 1_024, 8_192, 32_768] {
        let mut opts = PefpVariant::Full.engine_options();
        opts.buffer_capacity = buffer;
        opts.dram_fetch_batch = (buffer / 2).max(1);
        group.bench_with_input(BenchmarkId::new("BD_k6", buffer), &buffer, |b, _| {
            b.iter(|| black_box(cycles(&prep, &opts, &device)))
        });
    }
    group.finish();
}

fn bench_processing_capacity(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let dataset = Dataset::WikiTalk;
    let k = 5;
    let Some(prep) = first_query(&mut runner, dataset, k) else { return };
    let device = DeviceConfig::alveo_u200();

    let mut group = c.benchmark_group("scaling_theta2");
    group.sample_size(10);
    for theta2 in [64u32, 256, 1_024, 4_096] {
        let mut opts = PefpVariant::Full.engine_options();
        opts.processing_capacity = theta2;
        group.bench_with_input(BenchmarkId::new("WT_k5", theta2), &theta2, |b, _| {
            b.iter(|| black_box(cycles(&prep, &opts, &device)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_verification_lanes,
    bench_buffer_capacity,
    bench_processing_capacity
);
criterion_main!(benches);
