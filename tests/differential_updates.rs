//! Differential testing of the epoch-versioned snapshot layer: for random
//! interleavings of edge inserts, window-style expiries and queries, the
//! PEFP engine running over a copy-on-write [`GraphSnapshot`] overlay must
//! answer **byte-identically** — same path set, same emission order — to the
//! same engine running over a CSR graph rebuilt from scratch out of the live
//! edge set at that epoch. A third opinion comes from the bounded-DFS oracle
//! (order-insensitive, so compared canonically).
//!
//! Old snapshots are also replayed *after* every later mutation has been
//! applied, proving that epochs are immutable: an in-flight query pinned to
//! epoch N keeps seeing epoch N no matter what lands afterwards.

use proptest::prelude::*;

use pefp::baselines::naive_dfs_enumerate;
use pefp::core::PefpVariant;
use pefp::fpga::DeviceConfig;
use pefp::graph::paths::canonicalize;
use pefp::graph::{CsrGraph, GraphDelta, GraphSnapshot, Path, VersionedGraph, VertexId};
use std::collections::BTreeSet;
use std::sync::Arc;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::run_variant;

/// A query pinned to its admission epoch: the snapshot it was prepared
/// against, the live edge set frozen at that moment, and the `(s, t, k)`
/// triple — replayed after the full mutation history to prove immutability.
type PinnedQuery = (Arc<GraphSnapshot>, BTreeSet<(u32, u32)>, (u32, u32, u32));

/// One step of the interleaved workload, decoded from a generated tuple.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u32),
    Expire(u32, u32),
    Query { s: u32, t: u32, k: u32 },
}

fn decode_op((kind, a, b, k): (u32, u32, u32, u32)) -> Op {
    match kind {
        0..=2 => Op::Insert(a, b),
        3 => Op::Expire(a, b),
        _ => Op::Query { s: a, t: b, k },
    }
}

/// Enumerates over the snapshot overlay, returning paths in engine order.
fn enumerate_snapshot(snapshot: &GraphSnapshot, s: u32, t: u32, k: u32) -> Vec<Path> {
    let query = (VertexId(s), VertexId(t), k);
    run_variant(snapshot, query, PefpVariant::Full, &DeviceConfig::default()).1
}

/// Rebuilds a CSR from the live edge set and enumerates, in engine order.
fn enumerate_rebuilt(n: usize, edges: &BTreeSet<(u32, u32)>, s: u32, t: u32, k: u32) -> Vec<Path> {
    let edges: Vec<(u32, u32)> = edges.iter().copied().collect();
    enumerate_snapshot(&GraphSnapshot::from_csr(CsrGraph::from_edges(n, &edges)), s, t, k)
}

/// Runs one interleaving against a [`VersionedGraph`] with the given overlay
/// compaction threshold, checking every query three ways and replaying every
/// pinned snapshot after the full mutation history has been applied.
fn check_interleaving(
    n: u32,
    ops: &[(u32, u32, u32, u32)],
    compact_rows: usize,
) -> Result<(), TestCaseError> {
    let mut versioned = VersionedGraph::from_csr(CsrGraph::from_edges(n as usize, &[]))
        .with_compaction_threshold(compact_rows);
    let mut live: BTreeSet<(u32, u32)> = BTreeSet::new();
    // Queries pinned to their epoch's snapshot, replayed after all mutations.
    let mut pinned: Vec<PinnedQuery> = Vec::new();
    let mut expected_epoch = 0u64;

    for &raw in ops {
        match decode_op(raw) {
            Op::Insert(a, b) => {
                if a == b {
                    continue;
                }
                let mut delta = GraphDelta::new();
                delta.insert_edge(VertexId(a), VertexId(b));
                versioned.apply(&delta);
                live.insert((a, b));
                expected_epoch += 1;
            }
            Op::Expire(a, b) => {
                let mut delta = GraphDelta::new();
                delta.remove_edge(VertexId(a), VertexId(b));
                versioned.apply(&delta);
                live.remove(&(a, b));
                expected_epoch += 1;
            }
            Op::Query { s, t, k } => {
                if s == t {
                    continue;
                }
                let snapshot = Arc::clone(versioned.current());
                let overlay = enumerate_snapshot(&snapshot, s, t, k);
                let rebuilt = enumerate_rebuilt(n as usize, &live, s, t, k);
                prop_assert_eq!(
                    &overlay,
                    &rebuilt,
                    "overlay vs rebuild at epoch {} for ({s},{t},k={k})",
                    snapshot.epoch()
                );
                let oracle_graph =
                    CsrGraph::from_edges(n as usize, &live.iter().copied().collect::<Vec<_>>());
                let oracle =
                    canonicalize(naive_dfs_enumerate(&oracle_graph, VertexId(s), VertexId(t), k));
                prop_assert_eq!(canonicalize(overlay), oracle);
                pinned.push((snapshot, live.clone(), (s, t, k)));
            }
        }
        prop_assert_eq!(versioned.epoch(), expected_epoch);
    }

    // Epoch immutability: every pinned snapshot still answers exactly as its
    // frozen edge set dictates, despite every mutation applied since.
    for (snapshot, frozen_edges, (s, t, k)) in pinned {
        let overlay = enumerate_snapshot(&snapshot, s, t, k);
        let rebuilt = enumerate_rebuilt(n as usize, &frozen_edges, s, t, k);
        prop_assert_eq!(
            overlay,
            rebuilt,
            "pinned epoch {} drifted after later updates",
            snapshot.epoch()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overlay answers are byte-identical to from-scratch rebuilds across
    /// random insert/expire/query interleavings, with overlays left to
    /// accumulate (compaction effectively disabled).
    #[test]
    fn overlay_matches_rebuild_without_compaction(
        n in 4u32..12,
        ops in proptest::collection::vec((0u32..6, 0u32..12, 0u32..12, 1u32..5), 1..24),
    ) {
        let ops: Vec<(u32, u32, u32, u32)> =
            ops.into_iter().map(|(kind, a, b, k)| (kind, a % n, b % n, k)).collect();
        check_interleaving(n, &ops, usize::MAX)?;
    }

    /// The same property with compaction after every delta, so the
    /// compact-into-fresh-CSR path is what answers most queries.
    #[test]
    fn overlay_matches_rebuild_with_aggressive_compaction(
        n in 4u32..12,
        ops in proptest::collection::vec((0u32..6, 0u32..12, 0u32..12, 1u32..5), 1..24),
    ) {
        let ops: Vec<(u32, u32, u32, u32)> =
            ops.into_iter().map(|(kind, a, b, k)| (kind, a % n, b % n, k)).collect();
        check_interleaving(n, &ops, 0)?;
    }
}

/// A deterministic interleaving dense in cycles and re-insertions, run at a
/// mid-size compaction threshold so the history crosses the compaction
/// boundary mid-sequence.
#[test]
fn dense_interleaving_crosses_the_compaction_boundary() {
    let mut ops = Vec::new();
    // Ring 0->1->...->7->0 built edge by edge, querying along the way.
    for i in 0u32..8 {
        ops.push((0, i, (i + 1) % 8, 1));
        ops.push((4, 0, i.max(1) % 8, 4)); // query 0 -> something, k = 4
    }
    // Chords, then expire half the ring, querying between every mutation.
    for i in 0u32..4 {
        ops.push((0, i, (i + 4) % 8, 1));
        ops.push((4, i, (i + 5) % 8, 3));
        ops.push((3, 2 * i, 2 * i + 1, 1));
        ops.push((4, (i + 1) % 8, i, 4));
    }
    check_interleaving(8, &ops, 4).expect("differential check failed");
}
