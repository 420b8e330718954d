//! Host-pipeline benches (not a paper figure): the per-query cost of the
//! host runtime pieces that surround the enumeration — payload serialisation,
//! DMA framing and batched scheduling — so the end-to-end claims of the
//! Section VII-A methodology (transfer time is negligible, batching amortises
//! the setup cost) can be checked against measured numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_bench::bench_scale;
use pefp_core::{prepare_snapshot_with, PefpVariant, PrepareContext};
use pefp_graph::sampling::sample_reachable_pairs;
use pefp_graph::{Dataset, GraphSnapshot};
use pefp_host::binfmt::{decode_payload, encode_payload};
use pefp_host::{BatchScheduler, GraphHandle, QueryRequest, SchedulerConfig};
use std::hint::black_box;

fn bench_payload_codec(c: &mut Criterion) {
    let g = GraphSnapshot::from_csr(Dataset::SocEpinions.generate(bench_scale()).to_csr());
    let pairs = sample_reachable_pairs(g.base(), 5, 1, 3);
    let Some(&(s, t)) = pairs.first() else { return };
    let prepared =
        prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, 5, PefpVariant::Full);
    let encoded = encode_payload(&prepared);

    let mut group = c.benchmark_group("host_payload");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("encode", encoded.len()), |b| {
        b.iter(|| black_box(encode_payload(black_box(&prepared)).len()))
    });
    group.bench_function(BenchmarkId::new("decode", encoded.len()), |b| {
        b.iter(|| black_box(decode_payload(black_box(&encoded)).unwrap().graph.num_edges()))
    });
    group.finish();
}

fn bench_batch_scheduler(c: &mut Criterion) {
    let handle =
        GraphHandle::from_csr("SE-tiny", Dataset::SocEpinions.generate(bench_scale()).to_csr());
    let k = 4;
    let requests: Vec<QueryRequest> = sample_reachable_pairs(&handle.csr, k, 16, 9)
        .into_iter()
        .map(|(s, t)| QueryRequest { s, t, k })
        .collect();
    if requests.is_empty() {
        return;
    }

    let snapshot = handle.snapshot();
    let mut group = c.benchmark_group("host_batch");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let scheduler = BatchScheduler::new(SchedulerConfig {
            preprocess_threads: threads,
            variant: PefpVariant::Full,
            ..SchedulerConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("preprocess_threads", threads),
            &requests,
            |b, requests| {
                b.iter(|| {
                    let outcome = scheduler
                        .run_batch(&snapshot, handle.placement, black_box(requests))
                        .unwrap();
                    black_box(outcome.total_paths())
                })
            },
        );
    }
    group.finish();
}

fn bench_prebfs_vs_graph_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_prebfs");
    group.sample_size(10);
    for dataset in [Dataset::Amazon, Dataset::WikiTalk, Dataset::Skitter] {
        let g = GraphSnapshot::from_csr(dataset.generate(bench_scale()).to_csr());
        let pairs = sample_reachable_pairs(g.base(), 5, 1, 13);
        let Some(&(s, t)) = pairs.first() else { continue };
        // "k5" pays fresh BFS scratch per query; "k5_ctx" reuses one context.
        group.bench_with_input(BenchmarkId::new("k5", dataset.code()), &g, |b, g| {
            b.iter(|| {
                let mut ctx = PrepareContext::new();
                let prep =
                    prepare_snapshot_with(&mut ctx, black_box(g), s, t, 5, PefpVariant::Full);
                black_box(prep.graph.num_edges())
            })
        });
        let mut ctx = PrepareContext::new();
        group.bench_with_input(BenchmarkId::new("k5_ctx", dataset.code()), &g, |b, g| {
            b.iter(|| {
                let prep =
                    prepare_snapshot_with(&mut ctx, black_box(g), s, t, 5, PefpVariant::Full);
                black_box(prep.graph.num_edges())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_payload_codec, bench_batch_scheduler, bench_prebfs_vs_graph_size);
criterion_main!(benches);
