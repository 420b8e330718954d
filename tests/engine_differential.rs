//! Cross-engine differential tests for the adaptive router's dispatch targets.
//!
//! The router (PR 8) may place any query on the simulated device, on BC-DFS
//! or on JOIN — all fed from the *same* [`PreparedQuery`] the host builds
//! once per `(s, t, k)`. Routing must therefore never change answers: for
//! random graphs and queries, every routable engine, driven through the sink
//! pipeline exactly the way `HostRuntime` drives it (BC-DFS seeded with the
//! prepared barrier plus the source clamp, JOIN on the pruned subgraph,
//! paths translated back to original vertex ids), must return the canonical
//! path set of the naive DFS oracle on the unpruned graph.
//!
//! This harness exists because its in-repo precursor caught a real bug: the
//! Pre-BFS barrier keeps the `k + 1` "unreached" sentinel at a feasible
//! source exactly `k` hops from `t` (the device never reads `bar[s]`), and
//! BC-DFS *does* check the source barrier — without the clamp it silently
//! dropped every path of such queries.
//!
//! A second battery replays the same agreement over copy-on-write
//! [`GraphSnapshot`] overlays pinned at an epoch: routed CPU engines must
//! keep agreeing with the device after later mutations land, because an
//! in-flight query keeps seeing the epoch it was admitted under.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use pefp::baselines::{naive_dfs_enumerate, BcDfs, Join};
use pefp::core::{
    prepare_snapshot_with, route_query, EngineChoice, FnSink, PefpVariant, PrepareContext,
    PreparedQuery, RouteContext, RoutingTable,
};
use pefp::fpga::DeviceConfig;
use pefp::graph::paths::{canonicalize, validate_result, Path};
use pefp::graph::{CsrGraph, GraphDelta, GraphSnapshot, VersionedGraph, VertexId};
use rand::Rng;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::run_collect;

#[path = "support/seeded_cases.rs"]
mod seeded_cases;
use seeded_cases::{for_each_seed, random_edges, random_graph};

/// Runs one routable CPU engine on a prepared query through the sink
/// pipeline, translating each emitted path back to original vertex ids —
/// the exact dispatch the `HostRuntime` CPU worker performs.
fn cpu_engine_paths(prepared: &PreparedQuery, engine: EngineChoice) -> Vec<Path> {
    if !prepared.feasible {
        return Vec::new();
    }
    let g = prepared.graph.as_ref();
    let (s, t, k) = (prepared.s, prepared.t, prepared.k);
    let mut paths: Vec<Path> = Vec::new();
    let mut sink = FnSink(|path: &[VertexId]| {
        paths.push(prepared.translate_path(path));
        ControlFlow::Continue(())
    });
    match engine {
        EngineChoice::CpuBcDfs => {
            // Pre-BFS sweeps only k-1 reverse hops, so a feasible source
            // exactly k hops from t keeps the k+1 sentinel; clamp it, as the
            // runtime does, before handing the barrier to BC-DFS.
            let mut bar = prepared.barrier.clone();
            if let Some(b) = bar.get_mut(s.index()) {
                *b = (*b).min(k);
            }
            let _ = BcDfs::with_barrier(bar, k).enumerate_into(g, s, t, k, &mut sink);
        }
        EngineChoice::CpuJoin => {
            let _ = Join::new().enumerate_into(g, s, t, k, &mut sink);
        }
        _ => panic!("not a CPU engine: {engine:?}"),
    }
    paths
}

/// Asserts that the device engine, BC-DFS and JOIN — all fed from `prepared`
/// — agree canonically with `expected` (the naive oracle on the full graph).
fn assert_engines_agree(prepared: &PreparedQuery, expected: &[Path], label: &str) {
    let (_, device_paths) =
        run_collect(prepared, PefpVariant::Full.engine_options(), &DeviceConfig::default());
    assert_eq!(canonicalize(device_paths), expected, "device disagrees with the oracle on {label}");
    for engine in [EngineChoice::CpuBcDfs, EngineChoice::CpuJoin] {
        assert_eq!(
            canonicalize(cpu_engine_paths(prepared, engine)),
            expected,
            "{} disagrees with the oracle on {label}",
            engine.name()
        );
    }
}

/// Every engine the router can pick returns the same canonical path set,
/// and the decision itself is deterministic and internally consistent.
#[test]
fn routable_engines_agree_on_random_graphs() {
    for_each_seed(0x0D00_0000, 48, |rng| {
        let g = random_graph(rng, 22, 80);
        let s = VertexId(rng.gen_range(0..22));
        let t = VertexId(rng.gen_range(0..22));
        let k = rng.gen_range(0..6);
        let expected = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        assert!(validate_result(&g, s, t, k as usize, &expected).is_empty());

        let g = GraphSnapshot::from_csr(g);
        let mut ctx = PrepareContext::new();
        let prepared = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
        assert_engines_agree(&prepared, &expected, "the base graph");

        // The decision layer: deterministic, finite, and honest about its
        // pick (the chosen engine's cost is the reported estimate).
        let table = RoutingTable::builtin();
        let rtx = RouteContext { compute_units: 4, charge_banked: false };
        let d1 = route_query(&prepared, &table, &rtx);
        let d2 = route_query(&prepared, &table, &rtx);
        assert_eq!(d1.choice, d2.choice);
        assert_eq!(d1.cost_estimate_us.to_bits(), d2.cost_estimate_us.to_bits());
        assert!(d1.cost_estimate_us.is_finite() && d1.cost_estimate_us >= 0.0);
        assert!(!d1.rationale.is_empty());
    });
}

/// The agreement holds over snapshot overlays pinned at an epoch, and
/// keeps holding after later mutations land on the versioned graph.
#[test]
fn routable_engines_agree_on_pinned_snapshots() {
    for_each_seed(0x0E00_0000, 48, |rng| {
        let n = rng.gen_range(6u32..18);
        let inserts = random_edges(rng, 18, 1..40);
        let later = random_edges(rng, 18, 0..20);
        let s = rng.gen_range(0u32..18) % n;
        let t = rng.gen_range(0u32..18) % n;
        let k = rng.gen_range(1..5);
        let mut versioned = VersionedGraph::from_csr(CsrGraph::from_edges(n as usize, &[]));
        let mut live: BTreeSet<(u32, u32)> = BTreeSet::new();
        for &(a, b) in &inserts {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let mut delta = GraphDelta::new();
            delta.insert_edge(VertexId(a), VertexId(b));
            versioned.apply(&delta);
            live.insert((a, b));
        }

        // Pin the snapshot and the oracle's view of this epoch.
        let snapshot: Arc<GraphSnapshot> = Arc::clone(versioned.current());
        let edges: Vec<(u32, u32)> = live.iter().copied().collect();
        let rebuilt = CsrGraph::from_edges(n as usize, &edges);
        let expected = canonicalize(naive_dfs_enumerate(&rebuilt, VertexId(s), VertexId(t), k));

        let mut ctx = PrepareContext::new();
        let prepared = prepare_snapshot_with(
            &mut ctx,
            &snapshot,
            VertexId(s),
            VertexId(t),
            k,
            PefpVariant::Full,
        );
        assert_engines_agree(&prepared, &expected, "the pinned snapshot");

        // Mutate the versioned graph afterwards; the pinned prepared query
        // must still answer for its own epoch on every engine.
        for &(a, b) in &later {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let mut delta = GraphDelta::new();
            if live.contains(&(a, b)) {
                delta.remove_edge(VertexId(a), VertexId(b));
            } else {
                delta.insert_edge(VertexId(a), VertexId(b));
            }
            versioned.apply(&delta);
        }
        assert_engines_agree(&prepared, &expected, "the pinned snapshot after mutations");
    });
}
