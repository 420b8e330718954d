//! Component-level microbenchmarks.
//!
//! These do not correspond to a specific paper figure; they track the cost of
//! the individual building blocks (CSR construction, k-hop BFS, Pre-BFS,
//! path-row operations, one full engine run) so performance regressions can
//! be localised when the figure-level numbers move.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pefp_core::{
    prepare_snapshot_with, run_prepared_on_device, CountingSink, PefpVariant, PrepareContext,
    TempPath,
};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::bfs::{khop_bfs, BfsScratch};
use pefp_graph::{generators, CsrBuilder, GraphSnapshot, VertexId};
use std::hint::black_box;

fn bench_csr_construction(c: &mut Criterion) {
    let graph = generators::chung_lu(5_000, 8.0, 2.2, 1);
    let edges: Vec<(VertexId, VertexId)> = graph.edges().map(|e| (e.from, e.to)).collect();
    let n = graph.num_vertices();
    let mut group = c.benchmark_group("csr_construction");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("build_from_edge_list", |b| {
        b.iter(|| {
            let mut builder = CsrBuilder::with_edge_capacity(n, edges.len());
            for &(u, v) in &edges {
                builder.add_edge(u, v);
            }
            black_box(builder.build().num_edges())
        })
    });
    group.finish();
}

fn bench_khop_bfs(c: &mut Criterion) {
    let g = generators::chung_lu(10_000, 8.0, 2.2, 2).to_csr();
    let mut group = c.benchmark_group("khop_bfs");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    for k in [2u32, 4, 6] {
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| black_box(khop_bfs(&g, VertexId(0), k).len()))
        });
        // Epoch-stamped scratch: O(touched) per run instead of a fresh O(|V|)
        // distance array.
        let mut scratch = BfsScratch::new();
        group.bench_function(format!("k{k}_scratch"), |b| {
            b.iter(|| {
                scratch.run(&g, VertexId(0), k);
                black_box(scratch.touched_len())
            })
        });
    }
    group.finish();
}

fn bench_prebfs(c: &mut Criterion) {
    let g = GraphSnapshot::from_csr(generators::chung_lu(10_000, 8.0, 2.2, 3).to_csr());
    let mut group = c.benchmark_group("prebfs");
    // Both cases reach a hub, through a reused PrepareContext: the heaviest
    // in-degree vertex as the target of a narrow source (the expensive
    // frontier is on the backward side) and of vertex 0, the heaviest
    // out-degree hub (both are), which together exercise Pre-BFS's
    // cheaper-side choice.
    let rev = g.base_reverse();
    let hub_target =
        g.base().vertices().max_by_key(|&v| rev.out_degree(v)).expect("the graph has vertices");
    let mut ctx = PrepareContext::new();
    for (name, source) in [("k5_ctx_hub_target", 300u32), ("k5_ctx_hub_to_hub", 0)] {
        let s = VertexId(source);
        group.bench_function(name, |b| {
            b.iter(|| {
                let prep = prepare_snapshot_with(&mut ctx, &g, s, hub_target, 5, PefpVariant::Full);
                black_box(prep.graph.num_edges())
            })
        });
    }
    group.finish();
}

fn bench_path_rows(c: &mut Criterion) {
    let g = generators::chung_lu(1_000, 8.0, 2.2, 4).to_csr();
    let base: TempPath = TempPath::initial(&g, VertexId(0));
    let succ = g.successors(VertexId(0)).first().copied().unwrap_or(VertexId(1));
    let mut group = c.benchmark_group("path_rows");
    group.throughput(Throughput::Elements(1));
    group
        .bench_function("extend", |b| b.iter(|| black_box(base.extended(&g, succ).num_vertices())));
    let long = (1..=10u32).fold(base, |p, i| {
        let v = VertexId(i % g.num_vertices() as u32);
        if p.contains(v) {
            p
        } else {
            p.extended(&g, v)
        }
    });
    group.bench_function("visited_check", |b| b.iter(|| black_box(long.contains(VertexId(999)))));
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let g = GraphSnapshot::from_csr(generators::chung_lu(1_000, 8.0, 2.2, 5).to_csr());
    // The heaviest out-degree vertex to the heaviest in-degree one: the
    // enum_heavy shape, where ~90 % of expansions die at the barrier check.
    let (fwd, rev) = (g.base(), g.base_reverse());
    let s = fwd.vertices().max_by_key(|&v| fwd.out_degree(v)).expect("the graph has vertices");
    let t = fwd
        .vertices()
        .filter(|&v| v != s)
        .max_by_key(|&v| rev.out_degree(v))
        .expect("the graph has two vertices");
    let variant = PefpVariant::Full;
    let prep = prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, 7, variant);
    let run = || {
        let device = Device::new(DeviceConfig::alveo_u200());
        run_prepared_on_device(&prep, variant.engine_options(), device, &mut CountingSink::new())
    };
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(run().stats.expansions));
    group.bench_function("hub_pair_k7", |b| b.iter(|| black_box(run().num_paths)));
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.bench_function("chung_lu_5k", |b| {
        b.iter(|| black_box(generators::chung_lu(5_000, 8.0, 2.2, 7).num_edges()))
    });
    group.bench_function("copying_5k", |b| {
        b.iter(|| black_box(generators::copying_model(5_000, 6, 0.2, 7).num_edges()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_csr_construction,
    bench_khop_bfs,
    bench_prebfs,
    bench_path_rows,
    bench_engine,
    bench_generators
);
criterion_main!(benches);
