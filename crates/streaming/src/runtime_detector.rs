//! Real-time constrained cycle detection through the multi-tenant
//! [`HostRuntime`].
//!
//! The deployment scenario of the paper's introduction: "when a new
//! transaction is submitted from account `t` to account `s`, the system will
//! perform s-t k-path enumeration to report all newly produced cycles".
//! A transaction inserts the edge `t → s` into the windowed transaction
//! graph; every simple path `s ⇝ t` with at most `k - 1` hops that already
//! exists closes a constrained cycle of at most `k` hops through the new
//! edge. [`RuntimeCycleDetector`] keeps that graph *inside* a [`HostRuntime`]
//! as an epoch-versioned snapshot ([`pefp_graph::VersionedGraph`]): every
//! transaction stages an O(touched) [`GraphDelta`] (window expiries as
//! removals, the new edge as an insert), and the per-transaction path query
//! runs through the runtime's admission queue, shared prepared-query cache
//! and CU cluster like any other tenant's work.
//!
//! Per transaction the detector performs, in order:
//!
//! 1. **advance** the sliding window to the transaction's timestamp,
//!    collecting the edges that fell out, and apply them as one removal
//!    delta (a new epoch, touched-vertex cache invalidation);
//! 2. **query** `s ⇝ t` with at most `k - 1` hops on the *pre-insert*
//!    snapshot — every returned path closes a constrained cycle through the
//!    new edge `t → s`;
//! 3. **ingest** the transaction's edge as an insert delta (another epoch).
//!
//! The detector keeps a [`SlidingWindow`] mirror purely for the timestamp
//! bookkeeping (which edges expire when); the graph the queries run on is
//! the runtime's, so concurrent clients of the same runtime observe the
//! stream's epochs through `STATS` and answer consistently with whichever
//! snapshot their query was admitted under.

use crate::transaction::Transaction;
use crate::window::SlidingWindow;
use pefp_graph::view::GraphView;
use pefp_graph::{khop_bfs, CsrGraph, Epoch, GraphDelta, Path, VertexId};
use pefp_host::{GraphHandle, HostError, HostRuntime, QueryRequest, RuntimeConfig, SessionId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The detector's verdict on one transaction.
#[derive(Debug, Clone)]
pub struct CycleAlert {
    /// The transaction that was checked.
    pub transaction: Transaction,
    /// Newly closed cycles, each given as the pre-existing path
    /// `s ⇝ t` (the cycle is that path plus the new edge `t → s`).
    pub cycles: Vec<Path>,
    /// Host wall-clock spent on the check, in milliseconds.
    pub host_millis: f64,
    /// Simulated device time of the cycle query in milliseconds (the CPU
    /// engine's wall time when the runtime routes the query to, or fails it
    /// over to, a CPU engine; 0 when no query ran).
    pub device_millis: f64,
    /// Simulated PCIe/DMA time of the cycle query's prepared payload in
    /// milliseconds (the query's `transfer.total_millis`; 0 when no query
    /// ran).
    pub transfer_millis: f64,
}

impl CycleAlert {
    /// Whether any cycle was detected.
    pub fn is_alert(&self) -> bool {
        !self.cycles.is_empty()
    }
}

/// Aggregate detection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Transactions ingested.
    pub transactions: u64,
    /// Transactions that closed at least one cycle.
    pub alerts: u64,
    /// Total cycles reported.
    pub cycles: u64,
    /// Alerts on transactions whose ground truth marked them fraudulent.
    pub true_positive_alerts: u64,
    /// Alerts on transactions marked benign (background traffic can also
    /// close cycles — these are not "errors", just uninteresting).
    pub benign_alerts: u64,
    /// Transactions skipped by the cheap reachability pre-check.
    pub skipped_by_precheck: u64,
    /// Total host milliseconds spent in detection.
    pub host_millis: f64,
    /// Total [`CycleAlert::device_millis`] over the ingested transactions.
    pub device_millis: f64,
    /// Total [`CycleAlert::transfer_millis`] over the ingested transactions.
    pub transfer_millis: f64,
}

impl DetectorStats {
    /// Fraction of fraudulent transactions that raised an alert, over the
    /// fraudulent transactions seen (0 when none were seen).
    pub fn recall_on_fraud(&self, fraud_seen: u64) -> f64 {
        if fraud_seen == 0 {
            0.0
        } else {
            self.true_positive_alerts as f64 / fraud_seen as f64
        }
    }
}

/// Configuration of a [`RuntimeCycleDetector`].
#[derive(Debug, Clone)]
pub struct RuntimeDetectorConfig {
    /// Maximum cycle length in hops (the constrained-cycle `k`). A cycle uses
    /// the new edge plus an existing path of at most `k - 1` hops.
    pub max_cycle_hops: u32,
    /// Sliding-window span in timestamp units.
    pub window_size: u64,
    /// Configuration of the backing runtime (CU count, cache size, variant).
    pub runtime: RuntimeConfig,
}

impl Default for RuntimeDetectorConfig {
    fn default() -> Self {
        RuntimeDetectorConfig {
            max_cycle_hops: 6,
            window_size: 100_000,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// The streaming cycle detector backed by a [`HostRuntime`]. See the module
/// docs for the update/query protocol.
#[derive(Debug)]
pub struct RuntimeCycleDetector {
    config: RuntimeDetectorConfig,
    runtime: Arc<HostRuntime>,
    session: SessionId,
    window: SlidingWindow,
    stats: DetectorStats,
    fraud_seen: u64,
    scratch_expired: Vec<(VertexId, VertexId)>,
}

impl RuntimeCycleDetector {
    /// Creates a detector with its own runtime, starting from an empty
    /// transaction graph.
    pub fn new(config: RuntimeDetectorConfig) -> Self {
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("fraud-stream", CsrGraph::empty(0)),
            config.runtime.clone(),
        );
        Self::with_runtime(config, runtime)
    }

    /// Creates a detector over an existing runtime — the runtime's graph
    /// (current snapshot) is taken as the initial transaction graph, with
    /// every pre-existing edge treated as timestamped at 0.
    pub fn with_runtime(config: RuntimeDetectorConfig, runtime: Arc<HostRuntime>) -> Self {
        let mut window = SlidingWindow::new(config.window_size);
        let snapshot = runtime.current_snapshot();
        let forward = snapshot.forward();
        for v in 0..snapshot.num_vertices() {
            let from = VertexId(v as u32);
            for &to in forward.successors(from) {
                window.graph_mut().insert_edge(from, to, 0);
            }
        }
        let session = runtime.register_session();
        RuntimeCycleDetector {
            config,
            runtime,
            session,
            window,
            stats: DetectorStats::default(),
            fraud_seen: 0,
            scratch_expired: Vec::new(),
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &RuntimeDetectorConfig {
        &self.config
    }

    /// The backing runtime (epoch, cache and queue statistics live here).
    pub fn runtime(&self) -> &Arc<HostRuntime> {
        &self.runtime
    }

    /// The current graph epoch of the backing runtime.
    pub fn epoch(&self) -> Epoch {
        self.runtime.epoch()
    }

    /// The sliding-window mirror (timestamp bookkeeping only — the queried
    /// graph is the runtime's snapshot).
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Recall on injected fraud so far (needs ground-truth flags on the
    /// ingested transactions).
    pub fn fraud_recall(&self) -> f64 {
        self.stats.recall_on_fraud(self.fraud_seen)
    }

    /// Drains `self.scratch_expired` into a removal delta and applies it, if
    /// any edge expired.
    fn apply_expired(&mut self, extra_insert: Option<(VertexId, VertexId)>) {
        if self.scratch_expired.is_empty() && extra_insert.is_none() {
            return;
        }
        let mut delta = GraphDelta::new();
        for &(u, v) in &self.scratch_expired {
            delta.remove_edge(u, v);
        }
        if let Some((u, v)) = extra_insert {
            delta.insert_edge(u, v);
        }
        self.scratch_expired.clear();
        self.runtime.apply_updates(&delta);
    }

    /// Ingests one transaction and reports the cycles it closed.
    ///
    /// The path query runs against the graph *after* window expiry but
    /// *before* the new edge is inserted: a cycle uses the new edge exactly
    /// once, as its closing edge.
    pub fn ingest(&mut self, tx: &Transaction) -> CycleAlert {
        let started = Instant::now();
        self.stats.transactions += 1;
        if tx.is_fraud {
            self.fraud_seen += 1;
        }

        // 1. Age the window and mirror the expiries into the runtime.
        self.window.advance_to_collecting(tx.timestamp, &mut self.scratch_expired);
        self.apply_expired(None);

        // 2. Enumerate s ⇝ t on the pre-insert snapshot through the runtime.
        let path_source = VertexId(tx.to); // s in the paper's phrasing
        let path_target = VertexId(tx.from); // t in the paper's phrasing
        let path_budget = self.config.max_cycle_hops.saturating_sub(1);

        let mut cycles = Vec::new();
        let mut device_millis = 0.0;
        let mut transfer_millis = 0.0;
        let snapshot = self.runtime.current_snapshot();
        let in_range = path_source.index() < snapshot.num_vertices()
            && path_target.index() < snapshot.num_vertices();
        if in_range && path_budget > 0 && path_source != path_target {
            // Cheap pre-check on the snapshot view: is t reachable from s
            // within the budget at all? Most transactions close no cycle.
            let dist = khop_bfs(&snapshot.forward(), path_source, path_budget);
            if dist[path_target.index()] <= path_budget {
                let request = QueryRequest { s: path_source, t: path_target, k: path_budget };
                match self
                    .runtime
                    .submit_query(self.session, request, true)
                    .and_then(|ticket| ticket.wait())
                {
                    Ok(outcome) => {
                        cycles = outcome.paths;
                        device_millis = outcome.device_millis;
                        transfer_millis = outcome.transfer.total_millis;
                    }
                    Err(HostError::QueryInvalid(_)) => self.stats.skipped_by_precheck += 1,
                    Err(e) => panic!("fraud-stream query failed: {e}"),
                }
            } else {
                self.stats.skipped_by_precheck += 1;
            }
        } else {
            self.stats.skipped_by_precheck += 1;
        }
        drop(snapshot);

        // 3. Admit the new edge (plus any expiries its timestamp triggers).
        self.window.ingest_collecting(tx, &mut self.scratch_expired);
        self.apply_expired(Some((VertexId(tx.from), VertexId(tx.to))));

        let host_millis = started.elapsed().as_secs_f64() * 1e3;
        self.stats.host_millis += host_millis;
        self.stats.device_millis += device_millis;
        self.stats.transfer_millis += transfer_millis;
        if !cycles.is_empty() {
            self.stats.alerts += 1;
            self.stats.cycles += cycles.len() as u64;
            if tx.is_fraud {
                self.stats.true_positive_alerts += 1;
            } else {
                self.stats.benign_alerts += 1;
            }
        }
        CycleAlert { transaction: *tx, cycles, host_millis, device_millis, transfer_millis }
    }

    /// Ingests a whole stream, returning only the transactions that raised an
    /// alert.
    pub fn ingest_stream(&mut self, stream: &[Transaction]) -> Vec<CycleAlert> {
        stream.iter().map(|tx| self.ingest(tx)).filter(CycleAlert::is_alert).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{TransactionGenerator, TransactionGeneratorConfig};
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_graph::paths::is_simple;

    fn tx(ts: u64, from: u32, to: u32) -> Transaction {
        Transaction::new(ts, from, to, 100.0)
    }

    fn detector(k: u32, window: u64) -> RuntimeCycleDetector {
        RuntimeCycleDetector::new(RuntimeDetectorConfig {
            max_cycle_hops: k,
            window_size: window,
            runtime: RuntimeConfig::default(),
        })
    }

    #[test]
    fn detects_a_simple_triangle_and_advances_the_epoch() {
        let mut d = detector(6, 1_000_000);
        assert_eq!(d.epoch(), 0);
        assert!(!d.ingest(&tx(0, 0, 1)).is_alert());
        assert!(!d.ingest(&tx(1, 1, 2)).is_alert());
        let alert = d.ingest(&tx(2, 2, 0));
        assert_eq!(alert.cycles.len(), 1);
        assert_eq!(alert.cycles[0], vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert!(is_simple(&alert.cycles[0]));
        assert_eq!(d.stats().alerts, 1);
        assert_eq!(d.stats().cycles, 1);
        // One insert delta per transaction — the epoch tracks the stream.
        assert_eq!(d.epoch(), 3);
        assert_eq!(d.runtime().stats().graph_updates, 3);
    }

    #[test]
    fn window_expiry_reaches_the_runtime_graph() {
        let mut d = detector(6, 2);
        d.ingest(&tx(0, 0, 1));
        d.ingest(&tx(1, 1, 2));
        // By timestamp 5 both edges above expired out of the runtime's
        // snapshot too; the closing edge finds nothing.
        let alert = d.ingest(&tx(5, 2, 0));
        assert!(!alert.is_alert());
        let snapshot = d.runtime().current_snapshot();
        assert!(!snapshot.has_edge(VertexId(0), VertexId(1)));
        assert!(!snapshot.has_edge(VertexId(1), VertexId(2)));
        assert!(snapshot.has_edge(VertexId(2), VertexId(0)));
    }

    #[test]
    fn agrees_with_the_shadow_window_oracle_with_and_without_expiry() {
        // (seed, window): the first row never expires an edge; the short
        // windows expire most of them, so the runtime's removal deltas are
        // checked too.
        for (seed, window) in [(23, 100_000), (23, 25), (7, 10), (41, 3)] {
            let mut generator = TransactionGenerator::new(TransactionGeneratorConfig {
                num_accounts: 40,
                fraud_probability: 0.10,
                ring_size: 3,
                seed,
            });
            let stream = generator.stream(400);
            let mut d = detector(5, window);
            // The oracle: naive DFS on a from-scratch CSR of a second window
            // fed the same stream, queried after expiry and before the insert.
            let mut shadow = SlidingWindow::new(window);
            let mut dropped = Vec::new();
            for t in &stream {
                shadow.advance_to_collecting(t.timestamp, &mut dropped);
                let (s, target) = (VertexId(t.to), VertexId(t.from));
                let n = shadow.graph().num_vertices();
                let mut expected = if s != target && s.index() < n && target.index() < n {
                    naive_dfs_enumerate(&shadow.graph().snapshot_csr(), s, target, 4)
                } else {
                    Vec::new()
                };
                shadow.ingest_collecting(t, &mut dropped);
                // Same cycle *set*; emission order differs between the
                // naive-DFS oracle and the PEFP engine (engine-order
                // byte-identity is the overlay-vs-rebuild differential
                // test's job, same engine on both sides).
                let mut got = d.ingest(t).cycles;
                expected.sort();
                got.sort();
                assert_eq!(got, expected, "seed {seed}, window {window}: divergence at {t:?}");
            }
            if window < 1_000 {
                assert!(shadow.expired_edges() > 0, "seed {seed}, window {window}: no expiry");
                assert!(d.stats().alerts > 0, "seed {seed}, window {window}: no alert");
            }
        }
    }

    #[test]
    fn self_transfer_and_unknown_accounts_never_alert() {
        let mut d = detector(5, 1_000);
        assert!(!d.ingest(&tx(0, 7, 7)).is_alert());
        assert!(!d.ingest(&tx(1, 900, 901)).is_alert());
        assert_eq!(d.stats().skipped_by_precheck, 2);
    }

    #[test]
    fn with_runtime_adopts_the_existing_graph() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let runtime =
            HostRuntime::launch(GraphHandle::from_csr("seeded", g), RuntimeConfig::default());
        let mut d = RuntimeCycleDetector::with_runtime(
            RuntimeDetectorConfig { window_size: 1_000_000, ..Default::default() },
            runtime,
        );
        // The pre-existing 0 -> 1 -> 2 chain closes a cycle on 2 -> 0.
        let alert = d.ingest(&tx(1, 2, 0));
        assert_eq!(alert.cycles.len(), 1);
    }
}
