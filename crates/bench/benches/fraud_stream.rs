//! Closed-loop fraud-stream benchmark: a `RuntimeCycleDetector` ingesting
//! the fixed fraud-stream transaction workload through a shared
//! `HostRuntime`, where every transaction becomes an incremental
//! `GraphDelta` (window expiries + the new edge) and a pre-insert k-hop
//! cycle query against the current epoch's snapshot — the paper's Section I
//! scenario run end to end on the dynamic-graph stack instead of per-query
//! CSR rebuilds.
//!
//! The untimed header run prints the simulated domain (detected cycles,
//! final epoch, device cycles) and the round's p99 per-transaction latency
//! and throughput. The device-cycle total is a tier-1 anchor
//! (`tests/cycle_anchors.rs`); throughput regressions are for `benchmark/`'s
//! `fraud_stream` workload to catch.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pefp_bench::gate::{fraud_stream_detector, fraud_stream_workload, FRAUD_STREAM_TXS};
use std::hint::black_box;
use std::time::Instant;

fn bench_fraud_stream(c: &mut Criterion) {
    let txs = fraud_stream_workload();

    // Untimed closed-loop round reporting the simulated/latency domain.
    {
        let mut det = fraud_stream_detector();
        let round = Instant::now();
        let mut latencies_ms: Vec<f64> = txs
            .iter()
            .map(|tx| {
                let started = Instant::now();
                black_box(det.ingest(tx).cycles.len());
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let elapsed = round.elapsed().as_secs_f64();
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p99 = latencies_ms[(latencies_ms.len() * 99).div_ceil(100) - 1];
        let stats = det.stats();
        println!(
            "fraud_stream/closed_loop: {} txs, {} cycles detected, recall {:.2}, \
             final epoch {}, {} device cycles, p99 {:.3} ms, {:.0} tx/s",
            FRAUD_STREAM_TXS,
            stats.cycles,
            det.fraud_recall(),
            det.epoch(),
            det.runtime().stats().total_device_cycles,
            p99,
            txs.len() as f64 / elapsed.max(1e-9),
        );
    }

    let mut group = c.benchmark_group("fraud_stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FRAUD_STREAM_TXS as u64));
    group.bench_function("closed_loop", |b| {
        b.iter(|| {
            let mut det = fraud_stream_detector();
            let mut detected = 0usize;
            for tx in &txs {
                detected += det.ingest(tx).cycles.len();
            }
            black_box(detected)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fraud_stream);
criterion_main!(benches);
