//! Mixed-workload routing: the adaptive router against every fixed engine.
//!
//! The cases mirror the gate's `mixed_workload/*` floors
//! (`pefp_bench::gate`): the 24-tiny +
//! 5-heavy query pool on the 10k Chung-Lu profile, served closed-loop by a
//! 2-CU `HostRuntime` under five policies — the adaptive router (builtin
//! table), device-always (`routing: None`, the pre-router behaviour),
//! bc-dfs-always, join-always, and the best-CPU oracle (device-excluding
//! table, cheapest CPU engine per query). The summed serve latency
//! (transfer + engine time, the quantity the router's cost model predicts)
//! is printed per policy so the routing win is visible next to the
//! wall-clock medians.
//!
//! One more case covers what routing buys a *blocked* query: on 1 CU + 1 CPU
//! worker a cached tiny query is submitted while the CU worker runs a heavy
//! enumeration, and its median latency is printed next to the same queries
//! served alone. The runtime routes at admission, so the ratio should stay
//! near 1; a tiny query that waits for the CU worker shows up as the heavy
//! query's service time instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_bench::gate::{
    bcdfs_forcing_table, cpu_forcing_table, join_forcing_table, mixed_round_millis, mixed_runtime,
    mixed_workload_pools,
};
use pefp_core::RoutingTable;
use pefp_host::{HostRuntime, RuntimeConfig};
use std::hint::black_box;
use std::time::Instant;

fn bench_mixed_workload(c: &mut Criterion) {
    let (handle, tiny, heavy) = mixed_workload_pools();
    let mixed: Vec<_> = tiny.iter().chain(heavy.iter()).copied().collect();
    let policies: [(&str, Option<RoutingTable>); 5] = [
        ("router", Some(RoutingTable::builtin())),
        ("device_always", None),
        ("bc_dfs_always", Some(bcdfs_forcing_table())),
        ("join_always", Some(join_forcing_table())),
        ("cpu_best", Some(cpu_forcing_table())),
    ];

    let mut group = c.benchmark_group("mixed_workload");
    group.sample_size(10);
    for (name, routing) in &policies {
        // One untimed round to report the modelled serve-latency domain.
        let runtime = mixed_runtime(&handle, routing.clone());
        let serve_millis = mixed_round_millis(&runtime, &mixed);
        let stats = runtime.stats();
        println!(
            "mixed_workload/{name}: serve latency {serve_millis:.3} ms \
             ({} cpu-routed, {} device cycles)",
            stats.cpu_routed, stats.total_device_cycles
        );
        group.bench_with_input(BenchmarkId::new("round", *name), &mixed, |b, pool| {
            b.iter(|| {
                let runtime = mixed_runtime(&handle, routing.clone());
                black_box(mixed_round_millis(&runtime, pool))
            })
        });
    }
    group.finish();
}

fn bench_blocked_tiny(c: &mut Criterion) {
    const ROUNDS: usize = 200;
    let (handle, tiny, heavy) = mixed_workload_pools();
    let runtime = HostRuntime::launch(
        handle,
        RuntimeConfig {
            compute_units: 1,
            routing: Some(RoutingTable::builtin()),
            cpu_workers: 1,
            ..RuntimeConfig::default()
        },
    );
    let session = runtime.register_session();
    let submit = |q| runtime.submit_query(session, q, false).expect("submit rejected");
    // Warm the prepared cache: from here on every query is routed at
    // admission.
    for q in tiny.iter().chain(&heavy) {
        submit(*q).wait().expect("warm-up query");
    }
    let timed_tiny = |i: usize| {
        let start = Instant::now();
        black_box(submit(tiny[i % tiny.len()]).wait().expect("tiny query"));
        start.elapsed()
    };
    // One round of the blocked case: a heavy query is submitted and not
    // waited for, then the tiny one is submitted and timed.
    let blocked_round = |i: usize| {
        let ahead = submit(heavy[i % heavy.len()]);
        let latency = timed_tiny(i);
        ahead.wait().expect("heavy query");
        latency
    };
    let p50_us = |mut samples: Vec<std::time::Duration>| {
        samples.sort();
        samples[samples.len() / 2].as_secs_f64() * 1e6
    };
    let alone = p50_us((0..ROUNDS).map(timed_tiny).collect());
    let blocked = p50_us((0..ROUNDS).map(blocked_round).collect());
    let stats = runtime.stats();
    println!(
        "mixed_workload/blocked_tiny: tiny p50 {alone:.1} us alone, {blocked:.1} us behind a \
         heavy enumeration ({:.2}x; {} of {} jobs cpu-routed)",
        blocked / alone,
        stats.cpu_routed,
        stats.completed
    );

    let mut group = c.benchmark_group("mixed_workload");
    group.sample_size(10);
    let mut i = 0;
    group.bench_function("blocked_tiny/round", |b| {
        b.iter(|| {
            i += 1;
            black_box(blocked_round(i))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mixed_workload, bench_blocked_tiny);
criterion_main!(benches);
