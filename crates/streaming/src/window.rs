//! Sliding-window maintenance of the transaction graph.
//!
//! Fraud detection only cares about *recent* money movement: a cycle that
//! takes a year to close is not the pattern the constrained cycle detection
//! of Qiu et al. targets. The window keeps the dynamic graph restricted to
//! the last `window_size` timestamps, expiring older edges as the stream
//! advances.

use crate::dynamic::DynamicGraph;
use crate::transaction::Transaction;
use pefp_graph::VertexId;

/// A dynamic graph restricted to the most recent `window_size` timestamps.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    graph: DynamicGraph,
    window_size: u64,
    latest_timestamp: u64,
    expired_edges: u64,
    ingested: u64,
}

impl SlidingWindow {
    /// Creates a window spanning `window_size` timestamp units.
    pub fn new(window_size: u64) -> Self {
        assert!(window_size > 0, "window size must be positive");
        SlidingWindow {
            graph: DynamicGraph::new(),
            window_size,
            latest_timestamp: 0,
            expired_edges: 0,
            ingested: 0,
        }
    }

    /// The graph restricted to the window.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Mutable access to the windowed graph, for callers seeding it with
    /// pre-existing edges (e.g. a runtime-backed detector adopting a loaded
    /// graph).
    pub fn graph_mut(&mut self) -> &mut DynamicGraph {
        &mut self.graph
    }

    /// The timestamp of the most recent ingested transaction.
    pub fn latest_timestamp(&self) -> u64 {
        self.latest_timestamp
    }

    /// Number of transactions ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Number of edges expired out of the window so far.
    pub fn expired_edges(&self) -> u64 {
        self.expired_edges
    }

    /// The oldest timestamp still inside the window.
    pub fn window_start(&self) -> u64 {
        self.latest_timestamp.saturating_sub(self.window_size - 1)
    }

    /// Advances the window to `timestamp` without inserting anything,
    /// expiring every edge that falls out of the new window and appending it
    /// to `expired`, so a runtime mirroring the window can stage the matching
    /// removal delta. The detector calls this to age the graph *before*
    /// querying it for cycles closed by a transaction at `timestamp`.
    pub fn advance_to_collecting(
        &mut self,
        timestamp: u64,
        expired: &mut Vec<(VertexId, VertexId)>,
    ) -> usize {
        self.latest_timestamp = self.latest_timestamp.max(timestamp);
        let removed = self.graph.expire_older_than_into(self.window_start(), expired);
        self.expired_edges += removed as u64;
        removed
    }

    /// Ingests one transaction: inserts (or refreshes) its edge and expires
    /// edges that fell out of the window, appending each to `expired`.
    /// Returns `true` when the edge was not already present.
    pub fn ingest_collecting(
        &mut self,
        tx: &Transaction,
        expired: &mut Vec<(VertexId, VertexId)>,
    ) -> bool {
        self.ingested += 1;
        self.latest_timestamp = self.latest_timestamp.max(tx.timestamp);
        let inserted = self.graph.insert_edge(VertexId(tx.from), VertexId(tx.to), tx.timestamp);
        let cutoff = self.window_start();
        self.expired_edges += self.graph.expire_older_than_into(cutoff, expired) as u64;
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ingests the transaction `from → to` at `ts`, returning the edges it
    /// expired.
    fn ingest(w: &mut SlidingWindow, ts: u64, from: u32, to: u32) -> Vec<(VertexId, VertexId)> {
        let mut expired = Vec::new();
        w.ingest_collecting(&Transaction::new(ts, from, to, 1.0), &mut expired);
        expired
    }

    #[test]
    fn edges_expire_once_the_window_slides_past_them() {
        let mut window = SlidingWindow::new(3);
        ingest(&mut window, 0, 0, 1);
        ingest(&mut window, 1, 1, 2);
        ingest(&mut window, 2, 2, 3);
        assert_eq!(window.graph().num_edges(), 3);
        // Timestamp 3: window now covers [1, 3], so the edge from ts 0 expires.
        assert_eq!(ingest(&mut window, 3, 3, 4), vec![(VertexId(0), VertexId(1))]);
        assert_eq!(window.graph().num_edges(), 3);
        assert!(!window.graph().has_edge(VertexId(0), VertexId(1)));
        assert_eq!(window.expired_edges(), 1);
        assert_eq!(window.window_start(), 1);
    }

    #[test]
    fn refreshing_an_edge_keeps_it_alive() {
        let mut window = SlidingWindow::new(3);
        ingest(&mut window, 0, 0, 1);
        ingest(&mut window, 2, 0, 1); // same edge, newer timestamp
        ingest(&mut window, 4, 1, 2);
        // Window covers [2, 4]; the refreshed edge (ts 2) survives.
        assert!(window.graph().has_edge(VertexId(0), VertexId(1)));
        assert_eq!(window.ingested(), 3);
    }

    #[test]
    fn latest_timestamp_is_monotone_even_with_reordered_input() {
        let mut window = SlidingWindow::new(10);
        ingest(&mut window, 5, 0, 1);
        ingest(&mut window, 3, 1, 2); // late arrival
        assert_eq!(window.latest_timestamp(), 5);
        assert_eq!(window.graph().num_edges(), 2);
    }

    #[test]
    fn window_of_one_keeps_only_the_current_timestamp() {
        let mut window = SlidingWindow::new(1);
        ingest(&mut window, 0, 0, 1);
        ingest(&mut window, 1, 1, 2);
        assert_eq!(window.graph().num_edges(), 1);
        assert!(window.graph().has_edge(VertexId(1), VertexId(2)));
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_is_rejected() {
        SlidingWindow::new(0);
    }
}
