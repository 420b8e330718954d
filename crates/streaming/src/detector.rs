//! Real-time constrained cycle detection.
//!
//! The deployment scenario of the paper's introduction: "when a new
//! transaction is submitted from account `t` to account `s`, the system will
//! perform s-t k-path enumeration to report all newly produced cycles".
//! Concretely, a transaction inserts the edge `t → s` into the (windowed)
//! transaction graph; every simple path `s ⇝ t` with at most `k - 1` hops that
//! already exists closes a constrained cycle of at most `k` hops through the
//! new edge. The detector performs exactly that enumeration per transaction,
//! delegating it either to the simulated-FPGA PEFP engine or to a CPU
//! baseline so the two deployments can be compared end to end.

use crate::transaction::Transaction;
use crate::window::SlidingWindow;
use pefp_baselines::{naive_dfs_enumerate, Join};
use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::CollectSink;
use pefp_graph::{khop_bfs, CsrGraph, GraphSnapshot, Path, VertexId};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which engine the detector uses for the per-transaction enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorEngine {
    /// PEFP on the simulated FPGA (Pre-BFS + device enumeration).
    PefpSimulated,
    /// The JOIN CPU baseline.
    JoinCpu,
    /// Plain bounded DFS (correctness oracle; slowest).
    NaiveDfs,
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Maximum cycle length in hops (the constrained-cycle `k`). A cycle uses
    /// the new edge plus an existing path of at most `k - 1` hops.
    pub max_cycle_hops: u32,
    /// Sliding-window span in timestamp units.
    pub window_size: u64,
    /// Which enumeration engine to use.
    pub engine: DetectorEngine,
    /// Device profile used by [`DetectorEngine::PefpSimulated`].
    pub device: DeviceConfig,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            max_cycle_hops: 6,
            window_size: 100_000,
            engine: DetectorEngine::PefpSimulated,
            device: DeviceConfig::alveo_u200(),
        }
    }
}

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
    /// Simulated device time in milliseconds (0 for the CPU engines).
    pub device_millis: f64,
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
    /// Total simulated device milliseconds.
    pub device_millis: f64,
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

/// The streaming cycle detector.
#[derive(Debug)]
pub struct CycleDetector {
    config: DetectorConfig,
    window: SlidingWindow,
    stats: DetectorStats,
    fraud_seen: u64,
}

impl CycleDetector {
    /// Creates a detector with `config`.
    pub fn new(config: DetectorConfig) -> Self {
        let window = SlidingWindow::new(config.window_size);
        CycleDetector { config, window, stats: DetectorStats::default(), fraud_seen: 0 }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The current windowed graph.
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

    fn enumerate(&self, g: CsrGraph, s: VertexId, t: VertexId, k: u32) -> (Vec<Path>, f64) {
        match self.config.engine {
            DetectorEngine::PefpSimulated => {
                let g = GraphSnapshot::from_csr(g);
                let variant = PefpVariant::Full;
                let prep = prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, k, variant);
                let device = Device::new(self.config.device.clone());
                let mut sink = CollectSink::new();
                let result =
                    run_prepared_on_device(&prep, variant.engine_options(), device, &mut sink);
                (sink.into_paths(), result.query_millis)
            }
            DetectorEngine::JoinCpu => (Join::new().enumerate(&g, s, t, k), 0.0),
            DetectorEngine::NaiveDfs => (naive_dfs_enumerate(&g, s, t, k), 0.0),
        }
    }

    /// Ingests one transaction and reports the cycles it closed.
    pub fn ingest(&mut self, tx: &Transaction) -> CycleAlert {
        let started = Instant::now();
        self.stats.transactions += 1;
        if tx.is_fraud {
            self.fraud_seen += 1;
        }

        // Age out edges that are stale relative to this transaction before
        // querying: a cycle is only interesting if all of its edges fall
        // inside the detection window ending at the new timestamp.
        self.window.advance_to(tx.timestamp);

        // The path query runs against the graph *before* the new edge is
        // inserted: a cycle must use the new edge exactly once (it is the
        // closing edge), and the path s ⇝ t is simple so it cannot use the
        // edge t → s anyway. Inserting first would not change the result, but
        // querying first keeps the snapshot one edge smaller.
        let path_source = VertexId(tx.to); // s in the paper's phrasing
        let path_target = VertexId(tx.from); // t in the paper's phrasing
        let path_budget = self.config.max_cycle_hops.saturating_sub(1);

        let mut cycles = Vec::new();
        let mut device_millis = 0.0;
        let graph_has_both = path_source.index() < self.window.graph().num_vertices()
            && path_target.index() < self.window.graph().num_vertices();

        if graph_has_both && path_budget > 0 && path_source != path_target {
            let snapshot = self.window.graph().snapshot_csr();
            // Cheap pre-check: is t reachable from s within the budget at all?
            let dist = khop_bfs(&snapshot, path_source, path_budget);
            if dist[path_target.index()] <= path_budget {
                let (paths, dev) = self.enumerate(snapshot, path_source, path_target, path_budget);
                cycles = paths;
                device_millis = dev;
            } else {
                self.stats.skipped_by_precheck += 1;
            }
        } else {
            self.stats.skipped_by_precheck += 1;
        }

        // Now admit the new edge into the window.
        self.window.ingest(tx);

        let host_millis = started.elapsed().as_secs_f64() * 1e3;
        self.stats.host_millis += host_millis;
        self.stats.device_millis += device_millis;
        if !cycles.is_empty() {
            self.stats.alerts += 1;
            self.stats.cycles += cycles.len() as u64;
            if tx.is_fraud {
                self.stats.true_positive_alerts += 1;
            } else {
                self.stats.benign_alerts += 1;
            }
        }
        CycleAlert { transaction: *tx, cycles, host_millis, device_millis }
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
    use pefp_graph::paths::is_simple;

    fn tx(ts: u64, from: u32, to: u32) -> Transaction {
        Transaction::new(ts, from, to, 100.0)
    }

    fn detector(engine: DetectorEngine, k: u32) -> CycleDetector {
        CycleDetector::new(DetectorConfig {
            max_cycle_hops: k,
            window_size: 1_000_000,
            engine,
            device: DeviceConfig::alveo_u200(),
        })
    }

    #[test]
    fn detects_a_simple_triangle() {
        let mut d = detector(DetectorEngine::PefpSimulated, 6);
        assert!(!d.ingest(&tx(0, 0, 1)).is_alert());
        assert!(!d.ingest(&tx(1, 1, 2)).is_alert());
        let alert = d.ingest(&tx(2, 2, 0));
        assert_eq!(alert.cycles.len(), 1);
        // The reported path goes from the new edge's head (0) to its tail (2).
        assert_eq!(alert.cycles[0], vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(d.stats().alerts, 1);
        assert_eq!(d.stats().cycles, 1);
    }

    #[test]
    fn hop_constraint_bounds_the_cycle_length() {
        // A 4-cycle needs max_cycle_hops >= 4 to be reported.
        let mut short = detector(DetectorEngine::NaiveDfs, 3);
        let mut long = detector(DetectorEngine::NaiveDfs, 4);
        let txs = [tx(0, 0, 1), tx(1, 1, 2), tx(2, 2, 3), tx(3, 3, 0)];
        for t in &txs[..3] {
            short.ingest(t);
            long.ingest(t);
        }
        assert!(!short.ingest(&txs[3]).is_alert());
        assert!(long.ingest(&txs[3]).is_alert());
    }

    #[test]
    fn parallel_paths_produce_multiple_cycles() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3, closing 3 -> 0 creates two 3-hop cycles.
        let mut d = detector(DetectorEngine::PefpSimulated, 4);
        for t in [tx(0, 0, 1), tx(1, 1, 3), tx(2, 0, 2), tx(3, 2, 3)] {
            assert!(!d.ingest(&t).is_alert());
        }
        let alert = d.ingest(&tx(4, 3, 0));
        assert_eq!(alert.cycles.len(), 2);
        for c in &alert.cycles {
            assert!(is_simple(c));
            assert_eq!(c[0], VertexId(0));
            assert_eq!(*c.last().unwrap(), VertexId(3));
        }
    }

    #[test]
    fn all_engines_agree_on_the_same_stream() {
        let mut generator = TransactionGenerator::new(TransactionGeneratorConfig {
            num_accounts: 40,
            fraud_probability: 0.10,
            ring_size: 3,
            seed: 23,
        });
        let stream = generator.stream(300);
        let mut counts = Vec::new();
        for engine in
            [DetectorEngine::PefpSimulated, DetectorEngine::JoinCpu, DetectorEngine::NaiveDfs]
        {
            let mut d = detector(engine, 5);
            let alerts = d.ingest_stream(&stream);
            counts.push((alerts.len(), alerts.iter().map(|a| a.cycles.len()).sum::<usize>()));
        }
        assert_eq!(counts[0], counts[1], "PEFP vs JOIN");
        assert_eq!(counts[0], counts[2], "PEFP vs naive DFS");
    }

    #[test]
    fn injected_fraud_rings_are_caught() {
        let config = TransactionGeneratorConfig {
            num_accounts: 200,
            fraud_probability: 0.05,
            ring_size: 4,
            seed: 31,
        };
        let mut generator = TransactionGenerator::new(config);
        let stream = generator.stream(1_500);
        let mut d = detector(DetectorEngine::PefpSimulated, 6);
        d.ingest_stream(&stream);
        let stats = d.stats();
        assert!(stats.alerts > 0);
        assert!(stats.true_positive_alerts > 0);
        // Every completed ring's closing transaction must alert: recall over
        // fraud *transactions* is diluted by the non-closing ring edges, so
        // just require a healthy floor.
        assert!(d.fraud_recall() > 0.1, "recall {}", d.fraud_recall());
        assert!(stats.device_millis > 0.0);
    }

    #[test]
    fn repeated_transactions_do_not_double_count_cycles() {
        let mut d = detector(DetectorEngine::NaiveDfs, 4);
        d.ingest(&tx(0, 0, 1));
        d.ingest(&tx(1, 1, 0)); // closes the 2-cycle
        assert_eq!(d.stats().cycles, 1);
        // Re-sending the same closing transaction finds the same single path
        // again (the graph is unchanged), it does not accumulate duplicates
        // inside one alert.
        let again = d.ingest(&tx(2, 1, 0));
        assert_eq!(again.cycles.len(), 1);
    }

    #[test]
    fn self_transfer_and_unknown_accounts_never_alert() {
        let mut d = detector(DetectorEngine::PefpSimulated, 5);
        let alert = d.ingest(&tx(0, 7, 7));
        assert!(!alert.is_alert());
        let alert = d.ingest(&tx(1, 900, 901));
        assert!(!alert.is_alert());
        assert_eq!(d.stats().skipped_by_precheck, 2);
    }

    #[test]
    fn window_expiry_prevents_stale_cycles() {
        let mut d = CycleDetector::new(DetectorConfig {
            max_cycle_hops: 6,
            window_size: 2,
            engine: DetectorEngine::NaiveDfs,
            device: DeviceConfig::alveo_u200(),
        });
        d.ingest(&tx(0, 0, 1));
        d.ingest(&tx(1, 1, 2));
        // By timestamp 5 the two edges above have expired; closing edge finds
        // nothing.
        let alert = d.ingest(&tx(5, 2, 0));
        assert!(!alert.is_alert());
    }
}
