//! Multi-CU batch execution: the gate's hub-pair batch at 1/2/4 compute
//! units, and the same batch under charged DRAM banking with natural vs
//! bank-aware CSR placement.
//!
//! The cases mirror the bench-regression gate (`pefp_bench::gate`): the 56
//! hub-pair queries at k=6 on the 10k Chung-Lu profile, executed as one
//! [`pefp_host::BatchScheduler`] batch — real OS threads, one per CU, behind
//! the shared-DRAM arbiter. Wall-clock here includes host preprocessing and
//! the thread fan-out; an untimed header line per case prints the simulated
//! domain so both are visible in one run.
//!
//! * `multi_cu/dispatch/N` — `BENCH_04`'s dispatch cases: serial cycles,
//!   measured makespan and speedup, and the model's prediction.
//! * `bank_layout/<policy>/N` — `BENCH_10`'s charged rounds: BRAM graph
//!   caching off (rows stream from DRAM) and bank-conflict/turnaround
//!   charging on, the one configuration where a row's bank assignment costs
//!   simulated time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pefp_bench::gate::{
    charged_nocache_scheduler, dispatch_scheduler, gate_batch, gate_graph, run_gate_batch,
    BANK_LAYOUT_CUS,
};
use pefp_graph::PlacementPolicy;
use std::hint::black_box;

fn bench_multi_cu(c: &mut Criterion) {
    let handle = gate_graph();
    let requests = gate_batch(&handle);

    let mut group = c.benchmark_group("multi_cu");
    group.sample_size(10);
    for cus in [1usize, 2, 4] {
        let scheduler = dispatch_scheduler(cus);
        let measured = run_gate_batch(&scheduler, &handle, &requests).measured;
        println!(
            "multi_cu/dispatch/{cus}: measured makespan {} cycles, serial {} cycles, \
             speedup {:.2}x, predicted {} cycles (model error {:.1}%)",
            measured.makespan_cycles,
            measured.serial_cycles,
            measured.speedup(),
            measured.predicted.makespan_cycles,
            measured.model_error() * 100.0
        );
        group.bench_with_input(BenchmarkId::new("dispatch", cus), &requests, |b, requests| {
            b.iter(|| black_box(run_gate_batch(&scheduler, &handle, requests).total_paths()))
        });
    }
    group.finish();
}

fn bench_bank_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("bank_layout");
    group.sample_size(10);
    for cus in BANK_LAYOUT_CUS {
        for policy in [PlacementPolicy::Natural, PlacementPolicy::BankAware] {
            let handle = gate_graph().with_placement(policy);
            let requests = gate_batch(&handle);
            let scheduler = charged_nocache_scheduler(cus);
            let measured = run_gate_batch(&scheduler, &handle, &requests).measured;
            let conflicts: u64 = measured.per_cu_bank_conflict_cycles.iter().sum();
            let turnarounds: u64 = measured.per_cu_turnaround_cycles.iter().sum();
            println!(
                "bank_layout/{}/{cus}: {conflicts} charged conflict cycles, \
                 {turnarounds} turnaround cycles, LPT makespan {} cycles \
                 (measured {}, model error {:.1}%)",
                policy.name(),
                measured.predicted.makespan_cycles,
                measured.makespan_cycles,
                measured.model_error() * 100.0
            );
            group.bench_with_input(
                BenchmarkId::new(policy.name(), cus),
                &requests,
                |b, requests| {
                    b.iter(|| {
                        black_box(run_gate_batch(&scheduler, &handle, requests).total_paths())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_multi_cu, bench_bank_layout);
criterion_main!(benches);
