//! Host-runtime concurrency: aggregate throughput of 1/4/16 closed-loop
//! sessions sharing one 4-CU `HostRuntime`, with the shared prepared-query
//! cache on and off.
//!
//! The workload mirrors the bench-regression gate (`pefp_bench::gate`): every
//! session runs the 56 hub-pair queries at k=6 on the 10k Chung-Lu profile,
//! one at a time (closed loop), so the number of in-flight jobs equals the
//! number of sessions. Wall-clock covers the whole round (runtime launch +
//! all clients); the untimed header run prints the virtual-time domain —
//! queries per virtual-makespan cycle — which is what the `BENCH_05` gate
//! floors, because it is machine-independent.
//!
//! "no_cache" disables the runtime's shared LRU; on this pool (no session
//! repeats a query) that is exactly what per-session caches would deliver, so
//! the shared/no_cache gap is the cross-tenant sharing win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_bench::gate::{concurrency_runtime, gate_batch, gate_graph, run_concurrency_clients};
use std::hint::black_box;

fn bench_host_concurrency(c: &mut Criterion) {
    let handle = gate_graph();
    let pool = gate_batch(&handle);

    let mut group = c.benchmark_group("host_concurrency");
    group.sample_size(10);
    for &sessions in &[1usize, 4, 16] {
        for (label, shared_cache) in [("shared_cache", true), ("no_cache", false)] {
            // One untimed run to report the simulated domain.
            let runtime = concurrency_runtime(&handle, shared_cache);
            let paths = run_concurrency_clients(&runtime, sessions, &pool);
            let stats = runtime.stats();
            drop(runtime);
            let queries = (sessions * pool.len()) as f64;
            println!(
                "host_concurrency/{label}/{sessions}: {queries} queries, {paths} paths, \
                 virtual makespan {} of {} device cycles ({:.2} queries/kcycle), \
                 cache hit rate {:.2}, per-CU jobs {:?}",
                stats.virtual_makespan_cycles,
                stats.total_device_cycles,
                queries / (stats.virtual_makespan_cycles.max(1) as f64 / 1e3),
                stats.cache_hit_rate(),
                stats.per_cu_jobs,
            );
            // The two scheduling-dependent properties of sharing, checked
            // here rather than in tier-1 (`tests/host_runtime.rs` keeps the
            // interleaving-independent bounds): several tenants repeating one
            // pool are mostly served from the shared cache, and they overlap
            // in virtual time on the 4 CUs.
            if sessions > 1 {
                assert!(
                    stats.virtual_makespan_cycles < stats.total_device_cycles,
                    "{sessions} tenants on 4 CUs must overlap in virtual time: {stats:#?}"
                );
                if shared_cache {
                    assert!(
                        stats.cache_hits >= stats.submitted / 2,
                        "the shared cache must serve most repeats: {stats:#?}"
                    );
                }
            }
            group.bench_with_input(BenchmarkId::new(label, sessions), &sessions, |b, &sessions| {
                b.iter(|| {
                    let runtime = concurrency_runtime(&handle, shared_cache);
                    black_box(run_concurrency_clients(&runtime, sessions, &pool))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_host_concurrency);
criterion_main!(benches);
