//! Fig. 12–15 — ablation benches: the full PEFP system against each variant
//! with one technique disabled.
//!
//! The primary metric of these figures is *simulated device time*, which the
//! `figures` binary reports; this Criterion bench additionally measures the
//! host-side wall-clock of the same runs so regressions in the software
//! implementation of each technique are caught too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_bench::{bench_scale, make_runner};
use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::CountingSink;
use pefp_graph::Dataset;
use std::hint::black_box;
use std::sync::Arc;

fn bench_ablations(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let device = DeviceConfig::alveo_u200();
    // (figure, dataset, k, degraded variant)
    let cases = [
        ("fig12_prebfs", Dataset::BerkStan, 5u32, PefpVariant::NoPreBfs),
        ("fig12_prebfs", Dataset::Baidu, 5, PefpVariant::NoPreBfs),
        ("fig13_batchdfs", Dataset::BerkStan, 5, PefpVariant::NoBatchDfs),
        ("fig13_batchdfs", Dataset::Baidu, 5, PefpVariant::NoBatchDfs),
        ("fig14_cache", Dataset::Reactome, 5, PefpVariant::NoCache),
        ("fig14_cache", Dataset::WebGoogle, 5, PefpVariant::NoCache),
        ("fig15_datasep", Dataset::Reactome, 5, PefpVariant::NoDataSep),
        ("fig15_datasep", Dataset::WebGoogle, 5, PefpVariant::NoDataSep),
    ];

    for (figure, dataset, k, degraded) in cases {
        if runner.exceeds_budget(dataset, k) {
            continue;
        }
        let g = Arc::clone(runner.snapshot(dataset));
        let queries = runner.queries(dataset, k);
        let Some(q) = queries.first().copied() else { continue };

        let mut group = c.benchmark_group(figure);
        group.sample_size(10);
        for variant in [PefpVariant::Full, degraded] {
            let prep = prepare_snapshot_with(&mut PrepareContext::new(), &g, q.s, q.t, k, variant);
            let opts = variant.engine_options();
            group.bench_with_input(BenchmarkId::new(variant.name(), dataset.code()), &k, |b, _| {
                b.iter(|| {
                    let cu = Device::new(device.clone());
                    let run =
                        run_prepared_on_device(&prep, opts.clone(), cu, &mut CountingSink::new());
                    black_box(run.device.cycles)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
