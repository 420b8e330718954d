//! Fig. 10 / Fig. 11 — total time (preprocessing + query), PEFP vs JOIN.
//!
//! Measures the end-to-end pipeline of both systems on the four Fig. 10
//! datasets plus the Fig. 11 fixed-k setting. For PEFP the measured work is
//! the host preprocessing plus the full software enumeration that drives the
//! simulated device; the simulated device time itself is reported by the
//! `figures` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_baselines::Join;
use pefp_bench::{bench_scale, make_runner};
use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::CollectSink;
use pefp_graph::Dataset;
use std::hint::black_box;
use std::sync::Arc;

fn bench_total_time(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let device = DeviceConfig::alveo_u200();
    let cases = [
        (Dataset::Amazon, 8u32),
        (Dataset::WikiTalk, 4),
        (Dataset::Skitter, 5),
        (Dataset::TwitterSocial, 5),
        // Fig. 11 representatives at k = 5.
        (Dataset::SocEpinions, 5),
        (Dataset::WebGoogle, 5),
    ];

    let mut group = c.benchmark_group("fig10_total_time");
    group.sample_size(10);
    for (dataset, k) in cases {
        if runner.exceeds_budget(dataset, k) {
            continue;
        }
        let g = Arc::clone(runner.snapshot(dataset));
        let queries = runner.queries(dataset, k);
        let Some(q) = queries.first().copied() else { continue };

        group.bench_with_input(BenchmarkId::new("PEFP", dataset.code()), &k, |b, _| {
            b.iter(|| {
                let variant = PefpVariant::Full;
                let prep =
                    prepare_snapshot_with(&mut PrepareContext::new(), &g, q.s, q.t, k, variant);
                let mut sink = CollectSink::new();
                let cu = Device::new(device.clone());
                run_prepared_on_device(&prep, variant.engine_options(), cu, &mut sink);
                black_box(sink.paths().len())
            })
        });
        group.bench_with_input(BenchmarkId::new("JOIN", dataset.code()), &k, |b, _| {
            b.iter(|| black_box(Join::new().enumerate(g.base(), q.s, q.t, k).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_total_time);
criterion_main!(benches);
