//! Open-loop TCP load benchmark: the gate's TCP load workload —
//! binary-protocol COUNT requests at a fixed arrival rate over hundreds of
//! concurrent loopback connections into one shared `HostRuntime` behind the
//! `NetServer` front door.
//!
//! The profile scales with `PEFP_BENCH_SCALE` (tiny is the CI smoke size;
//! the full gate profile of 256 connections at 1000 req/s runs at medium —
//! wall budgets per scale are recorded in this crate's `README.md`). The
//! untimed header round prints the latency histogram and goodput that the
//! `bench_gate` `tcp_load/*` cases turn into within-run ratios.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pefp_bench::bench_scale;
use pefp_bench::gate;
use pefp_bench::loadgen::{run_open_loop, LoadConfig, LoadProtocol};
use pefp_graph::ScaleProfile;

/// `(connections, rate_per_sec, requests)` per scale profile.
fn load_profile() -> (usize, f64, usize) {
    match bench_scale() {
        ScaleProfile::Tiny => (32, 800.0, 400),
        ScaleProfile::Small => (128, 1_500.0, 1_500),
        _ => (gate::TCP_LOAD_CONNECTIONS, gate::TCP_LOAD_RATE_PER_SEC, gate::TCP_LOAD_REQUESTS),
    }
}

fn bench_tcp_load(c: &mut Criterion) {
    let (connections, rate_per_sec, requests) = load_profile();
    let make_config = |protocol| LoadConfig {
        connections,
        rate_per_sec,
        requests,
        protocol,
        pool: gate::tcp_load_pool(),
    };

    // Untimed header round per protocol: the figures the `tcp_load/*` gate
    // cases read (answered fraction, goodput, p50 and p999).
    let server = gate::tcp_load_front_door();
    for protocol in [LoadProtocol::Binary, LoadProtocol::Line] {
        let report =
            run_open_loop(server.local_addr(), &make_config(protocol)).expect("header round");
        println!(
            "tcp_load[{}]: {} conns at {:.0}/s: ok={} busy={} errors={} goodput={:.1}/s \
             p50={:.2}ms p99={:.2}ms p999={:.2}ms",
            protocol.name(),
            connections,
            rate_per_sec,
            report.completed_ok,
            report.busy,
            report.protocol_errors,
            report.goodput_per_sec,
            report.p50_ns as f64 / 1e6,
            report.p99_ns as f64 / 1e6,
            report.p999_ns as f64 / 1e6
        );
        assert_eq!(report.protocol_errors, 0, "{}: load round must be error-free", protocol.name());
    }

    let mut group = c.benchmark_group("tcp_load");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests as u64));
    group.bench_function("open_loop_round", |b| {
        b.iter(|| {
            let report = run_open_loop(server.local_addr(), &make_config(LoadProtocol::Binary))
                .expect("load round");
            assert_eq!(report.protocol_errors, 0);
            std::hint::black_box(report.completed_ok)
        })
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_tcp_load);
criterion_main!(benches);
