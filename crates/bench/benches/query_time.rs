//! Fig. 8 — query processing time, PEFP vs JOIN.
//!
//! For each representative dataset the bench measures the *query phase* of
//! both systems on a fixed prepared workload: PEFP's simulated device run
//! (which also performs the full enumeration in software) and JOIN's query
//! phase. Preprocessing is excluded here (it is covered by `preprocess_time`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_baselines::Join;
use pefp_bench::{bench_scale, make_runner};
use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::CountingSink;
use pefp_graph::Dataset;
use std::hint::black_box;
use std::sync::Arc;

fn bench_query_time(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let device = DeviceConfig::alveo_u200();
    let cases = [
        (Dataset::WikiTalk, 4u32),
        (Dataset::TwitterSocial, 5),
        (Dataset::Amazon, 8),
        (Dataset::Skitter, 5),
    ];

    let mut group = c.benchmark_group("fig8_query_time");
    group.sample_size(10);
    for (dataset, k) in cases {
        if runner.exceeds_budget(dataset, k) {
            continue;
        }
        let g = Arc::clone(runner.snapshot(dataset));
        let queries = runner.queries(dataset, k);
        let Some(q) = queries.first().copied() else { continue };

        // PEFP: preprocessing hoisted out, device run measured.
        let prep =
            prepare_snapshot_with(&mut PrepareContext::new(), &g, q.s, q.t, k, PefpVariant::Full);
        let opts = PefpVariant::Full.engine_options();
        group.bench_with_input(BenchmarkId::new("PEFP", dataset.code()), &k, |b, _| {
            b.iter(|| {
                let cu = Device::new(device.clone());
                let run = run_prepared_on_device(&prep, opts.clone(), cu, &mut CountingSink::new());
                black_box(run.num_paths)
            })
        });

        // JOIN: preprocessing hoisted out, query phase measured.
        let g = g.base();
        let join_prep = Join::new().preprocess(g, q.s, q.t, k);
        group.bench_with_input(BenchmarkId::new("JOIN", dataset.code()), &k, |b, _| {
            b.iter(|| {
                let mut join = Join::new();
                black_box(join.query(g, q.s, q.t, k, &join_prep).len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_time);
criterion_main!(benches);
