//! Result-pipeline cost: collect vs counting vs FirstN early termination.
//!
//! The paper's result sets explode (§VI sweeps reach 10⁸+ paths), so the cost
//! of *materialising* results — one `Vec` per path at every layer boundary —
//! eventually dominates enumeration itself. This bench measures the three
//! result pipelines on high-volume queries over the 10k Chung-Lu profile used
//! by `microbench`:
//!
//! * `collect` — `CollectSink`: every path materialised and translated.
//! * `counting` — `CountingSink`: full enumeration, zero materialisation.
//! * `firstn` — `FirstN(16)`: early termination after the first 16 paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::{CollectSink, CountingSink, FirstN, PathSink};
use pefp_graph::{generators, GraphSnapshot, VertexId};
use std::hint::black_box;

fn bench_streaming_results(c: &mut Criterion) {
    let g = GraphSnapshot::from_csr(generators::chung_lu(10_000, 8.0, 2.2, 3).to_csr());
    let cfg = DeviceConfig::alveo_u200();
    let opts = PefpVariant::Full.engine_options();
    let mut ctx = PrepareContext::new();
    // Hub-to-hub queries with large result sets (probed: ~4.5k and ~26.5k
    // paths respectively).
    let cases = [(VertexId(0), VertexId(3), 7u32), (VertexId(0), VertexId(3), 8)];

    let mut group = c.benchmark_group("streaming_results");
    group.sample_size(10);
    for (s, t, k) in cases {
        let prep = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
        let run = |sink: &mut dyn PathSink| {
            run_prepared_on_device(&prep, opts.clone(), Device::new(cfg.clone()), sink)
        };

        group.bench_with_input(BenchmarkId::new("collect", k), &k, |b, _| {
            b.iter(|| {
                let mut sink = CollectSink::new();
                run(&mut sink);
                black_box(sink.paths().len())
            })
        });
        group.bench_with_input(BenchmarkId::new("counting", k), &k, |b, _| {
            b.iter(|| {
                let mut sink = CountingSink::new();
                run(&mut sink);
                black_box(sink.count())
            })
        });
        group.bench_with_input(BenchmarkId::new("firstn16", k), &k, |b, _| {
            b.iter(|| {
                let mut sink = FirstN::new(16, CollectSink::new());
                run(&mut sink);
                black_box(sink.emitted())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_results);
criterion_main!(benches);
