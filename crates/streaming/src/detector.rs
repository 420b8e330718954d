//! Detection-contract tests of the fraud detector.
//!
//! These drive [`RuntimeCycleDetector`] as a black box through
//! [`RuntimeCycleDetector::ingest`] and check only what a fraud detector
//! reports: which transactions alert, which cycles they close, the
//! [`CycleAlert`] fields and the [`DetectorStats`] counters. Tests of the
//! runtime integration (graph epochs, the runtime's snapshot, a shared
//! runtime, the shadow-window oracle) live in `runtime_detector.rs`.

mod tests {
    use crate::runtime_detector::{
        CycleAlert, DetectorStats, RuntimeCycleDetector, RuntimeDetectorConfig,
    };
    use crate::transaction::{Transaction, TransactionGenerator, TransactionGeneratorConfig};
    use pefp_graph::paths::is_simple;
    use pefp_graph::VertexId;
    use pefp_host::RuntimeConfig;

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
    fn detects_a_simple_triangle() {
        let mut d = detector(6, 1_000_000);
        assert!(!d.ingest(&tx(0, 0, 1)).is_alert());
        assert!(!d.ingest(&tx(1, 1, 2)).is_alert());
        let closing = tx(2, 2, 0);
        let alert = d.ingest(&closing);
        assert_eq!(alert.transaction, closing);
        assert_eq!(alert.cycles.len(), 1);
        // The reported path goes from the new edge's head (0) to its tail (2).
        assert_eq!(alert.cycles[0], vec![VertexId(0), VertexId(1), VertexId(2)]);
        let stats: DetectorStats = d.stats();
        assert_eq!(stats.transactions, 3);
        assert_eq!(stats.alerts, 1);
        assert_eq!(stats.cycles, 1);
        // The generator-free transaction carries no fraud flag.
        assert_eq!(stats.benign_alerts, 1);
        assert_eq!(stats.true_positive_alerts, 0);
    }

    #[test]
    fn hop_constraint_bounds_the_cycle_length() {
        // A 4-cycle needs max_cycle_hops >= 4 to be reported.
        let mut short = detector(3, 1_000_000);
        let mut long = detector(4, 1_000_000);
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
        let mut d = detector(4, 1_000_000);
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
    fn injected_fraud_rings_are_caught() {
        let mut generator = TransactionGenerator::new(TransactionGeneratorConfig {
            num_accounts: 200,
            fraud_probability: 0.05,
            ring_size: 4,
            seed: 31,
        });
        let stream = generator.stream(1_500);
        let mut d = detector(6, 1_000_000);
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
        let mut d = detector(4, 1_000_000);
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
        let mut d = detector(5, 1_000_000);
        let alerts: Vec<CycleAlert> =
            [tx(0, 7, 7), tx(1, 900, 901)].iter().map(|t| d.ingest(t)).collect();
        for alert in &alerts {
            assert!(!alert.is_alert());
            // No query ran, so no device or transfer time is charged.
            assert_eq!(alert.device_millis, 0.0);
            assert_eq!(alert.transfer_millis, 0.0);
        }
        let stats = d.stats();
        assert_eq!(stats.transactions, 2);
        assert_eq!(stats.skipped_by_precheck, 2);
        assert_eq!(stats.device_millis, 0.0);
        assert_eq!(stats.transfer_millis, 0.0);
    }

    #[test]
    fn cycle_queries_report_their_transfer_time() {
        let mut d = detector(6, 1_000_000);
        let alerts: Vec<CycleAlert> =
            [tx(0, 0, 1), tx(1, 1, 2), tx(2, 2, 0)].iter().map(|t| d.ingest(t)).collect();
        // The first two transactions close no path, so the pre-check skips
        // their query; the closing one runs on the device and pays the DMA
        // model for its prepared payload.
        assert_eq!(alerts[0].transfer_millis, 0.0);
        assert_eq!(alerts[1].transfer_millis, 0.0);
        assert!(alerts[2].is_alert());
        assert!(alerts[2].transfer_millis > 0.0);
        let stats = d.stats();
        let total: f64 = alerts.iter().map(|a| a.transfer_millis).sum();
        assert_eq!(stats.transfer_millis, total);
        // The device time stays the kernel's alone.
        assert_eq!(stats.device_millis, alerts[2].device_millis);
    }

    #[test]
    fn window_expiry_prevents_stale_cycles() {
        // A 2-tick window keeps edges stamped at the latest timestamp or the
        // one before it.
        let mut d = detector(6, 2);
        d.ingest(&tx(0, 0, 1));
        d.ingest(&tx(1, 1, 2));
        // By timestamp 5 the two edges above have expired; closing edge finds
        // nothing.
        assert!(!d.ingest(&tx(5, 2, 0)).is_alert());
        // The same accounts trading again inside the window do close a cycle:
        // 2 -> 0 (t=5) and 0 -> 1 (t=6) are both live when 1 -> 2 arrives.
        assert!(!d.ingest(&tx(6, 0, 1)).is_alert());
        let fresh = d.ingest(&tx(6, 1, 2));
        assert_eq!(fresh.cycles, vec![vec![VertexId(2), VertexId(0), VertexId(1)]]);
    }
}
