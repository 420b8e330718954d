//! Fig. 9 — preprocessing time, PEFP (Pre-BFS) vs JOIN.
//!
//! PEFP's Pre-BFS does a `(k-1)`-hop bidirectional BFS plus the induced
//! subgraph extraction; JOIN's preprocessing does a full k-hop bidirectional
//! BFS plus the middle-vertex cut. The paper's Fig. 9 shows Pre-BFS winning on
//! every dataset; this bench measures both on the same queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_baselines::Join;
use pefp_bench::{bench_scale, make_runner};
use pefp_core::{prepare_snapshot_with, PefpVariant, PrepareContext};
use pefp_graph::Dataset;
use std::hint::black_box;
use std::sync::Arc;

fn bench_preprocess_time(c: &mut Criterion) {
    let mut runner = make_runner(bench_scale(), 3);
    let cases = [
        (Dataset::Amazon, 8u32),
        (Dataset::WikiTalk, 4),
        (Dataset::Skitter, 5),
        (Dataset::TwitterSocial, 5),
    ];

    let mut group = c.benchmark_group("fig9_preprocess_time");
    group.sample_size(20);
    for (dataset, k) in cases {
        let g = Arc::clone(runner.snapshot(dataset));
        let queries = runner.queries(dataset, k);
        let Some(q) = queries.first().copied() else { continue };

        // Fresh context per call: pays O(|V|) scratch allocation per query.
        // The snapshot carries the reverse CSR, so neither case builds it.
        group.bench_with_input(BenchmarkId::new("PEFP_PreBFS", dataset.code()), &k, |b, _| {
            b.iter(|| {
                let mut ctx = PrepareContext::new();
                let prep = prepare_snapshot_with(&mut ctx, &g, q.s, q.t, k, PefpVariant::Full);
                black_box(prep.graph.num_vertices())
            })
        });
        // Reused context: the repeated-query server/batch path.
        let mut ctx = PrepareContext::new();
        group.bench_with_input(BenchmarkId::new("PEFP_PreBFS_ctx", dataset.code()), &k, |b, _| {
            b.iter(|| {
                let prep = prepare_snapshot_with(&mut ctx, &g, q.s, q.t, k, PefpVariant::Full);
                black_box(prep.graph.num_vertices())
            })
        });
        group.bench_with_input(BenchmarkId::new("JOIN_preprocess", dataset.code()), &k, |b, _| {
            b.iter(|| {
                black_box(Join::new().preprocess(g.base(), q.s, q.t, k).middle_vertices.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_preprocess_time);
criterion_main!(benches);
