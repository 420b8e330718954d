//! Integration tests of the streaming layer against offline enumeration: the
//! cycles the real-time detector reports through its host runtime must be
//! exactly the s-t k-paths an offline engine finds on a from-scratch CSR of
//! the same graph.

use pefp::baselines::naive_dfs_enumerate;
use pefp::enumerate_paths;
use pefp::graph::paths::{canonicalize, is_simple};
use pefp::graph::VertexId;
use pefp::streaming::{
    DynamicGraph, RuntimeCycleDetector, RuntimeDetectorConfig, Transaction, TransactionGenerator,
    TransactionGeneratorConfig,
};

fn detector(max_cycle_hops: u32, window_size: u64) -> RuntimeCycleDetector {
    RuntimeCycleDetector::new(RuntimeDetectorConfig {
        max_cycle_hops,
        window_size,
        ..RuntimeDetectorConfig::default()
    })
}

fn stream(seed: u64, count: usize) -> Vec<Transaction> {
    TransactionGenerator::new(TransactionGeneratorConfig {
        num_accounts: 60,
        fraud_probability: 0.08,
        ring_size: 3,
        seed,
    })
    .stream(count)
}

#[test]
fn detector_cycles_match_offline_enumeration_on_the_same_snapshot() {
    let txs = stream(5, 250);
    let mut detector = detector(5, 1_000_000);
    // Maintain a shadow graph by hand and cross-check every alert.
    let mut shadow = DynamicGraph::new();
    for tx in &txs {
        let alert = detector.ingest(tx);
        // Offline check on the shadow graph *before* inserting the new edge.
        let s = VertexId(tx.to);
        let t = VertexId(tx.from);
        let expected =
            if s != t && s.index() < shadow.num_vertices() && t.index() < shadow.num_vertices() {
                naive_dfs_enumerate(&shadow.snapshot_csr(), s, t, 4)
            } else {
                Vec::new()
            };
        assert_eq!(
            canonicalize(alert.cycles.clone()),
            canonicalize(expected),
            "transaction {} -> {} at ts {}",
            tx.from,
            tx.to,
            tx.timestamp
        );
        shadow.insert_edge(t, s, tx.timestamp);
    }
}

#[test]
fn every_reported_cycle_is_simple_and_closed_by_the_new_edge() {
    let txs = stream(23, 300);
    let mut detector = detector(5, 1_000_000);
    let mut total_cycles = 0usize;
    for tx in &txs {
        let alert = detector.ingest(tx);
        for cycle in &alert.cycles {
            assert!(is_simple(cycle));
            assert!(cycle.len() >= 2);
            assert!(cycle.len() - 1 <= 4, "path part must be at most k-1 hops");
            assert_eq!(cycle[0], VertexId(tx.to), "path starts at the new edge's head");
            assert_eq!(
                *cycle.last().unwrap(),
                VertexId(tx.from),
                "path ends at the new edge's tail"
            );
        }
        total_cycles += alert.cycles.len();
    }
    assert_eq!(detector.stats().cycles as usize, total_cycles);
}

#[test]
fn dynamic_snapshot_queries_agree_with_a_statically_built_graph() {
    // Build the same edge set dynamically (with some inserts later removed)
    // and statically, then compare a PEFP query on both.
    let mut dynamic = DynamicGraph::with_vertices(30);
    let mut static_edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..29u32 {
        dynamic.insert_edge(VertexId(i), VertexId(i + 1), i as u64);
        static_edges.push((i, i + 1));
    }
    for i in (0..25u32).step_by(5) {
        dynamic.insert_edge(VertexId(i), VertexId(i + 3), 100 + i as u64);
        static_edges.push((i, i + 3));
    }
    // Insert and then remove a few distractor edges.
    for i in 0..10u32 {
        dynamic.insert_edge(VertexId(i + 15), VertexId(i), 200 + i as u64);
    }
    for i in 0..10u32 {
        assert!(dynamic.remove_edge(VertexId(i + 15), VertexId(i)));
    }

    let snapshot = dynamic.snapshot_csr();
    let static_graph = pefp::graph::CsrGraph::from_edges(30, &static_edges);
    assert_eq!(snapshot, static_graph);

    let a = enumerate_paths(&snapshot, VertexId(0), VertexId(12), 8);
    let b = enumerate_paths(&static_graph, VertexId(0), VertexId(12), 8);
    assert_eq!(a.num_paths, b.num_paths);
    assert_eq!(canonicalize(a.paths), canonicalize(b.paths));
}

#[test]
fn window_expiry_removes_old_cycles_but_keeps_recent_ones() {
    let mut detector = detector(4, 4);
    // Old triangle, fully inside one window.
    detector.ingest(&Transaction::new(0, 0, 1, 1.0));
    detector.ingest(&Transaction::new(1, 1, 2, 1.0));
    assert!(detector.ingest(&Transaction::new(2, 2, 0, 1.0)).is_alert());
    // Much later, the same closing edge finds nothing: the feeder edges aged out.
    assert!(!detector.ingest(&Transaction::new(50, 2, 0, 1.0)).is_alert());
    // But a fresh triangle inside the new window still alerts.
    detector.ingest(&Transaction::new(51, 0, 1, 1.0));
    detector.ingest(&Transaction::new(52, 1, 2, 1.0));
    assert!(detector.ingest(&Transaction::new(53, 2, 0, 1.0)).is_alert());
}
