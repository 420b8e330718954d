//! Real-time fraud detection over a transaction stream.
//!
//! The `fraud_detection` example checks a handful of hand-picked transactions
//! against a static graph; this one runs the full streaming system from
//! `pefp-streaming`: a synthetic transaction stream with injected fraud
//! rings flows through a sliding window, and every arriving transaction
//! triggers a constrained cycle check on the simulated FPGA. The transaction
//! graph lives inside a `HostRuntime`: window expiries and the new edge land
//! as incremental graph deltas (one epoch each), and the cycle query runs
//! through the runtime's admission queue and CU cluster.
//!
//! Run with `cargo run --release --example streaming_fraud`.

use pefp::streaming::{
    RuntimeCycleDetector, RuntimeDetectorConfig, TransactionGenerator, TransactionGeneratorConfig,
};

fn main() {
    let mut generator = TransactionGenerator::new(TransactionGeneratorConfig {
        num_accounts: 800,
        fraud_probability: 0.03,
        ring_size: 4,
        seed: 2_026,
    });
    let stream = generator.stream(4_000);
    let injected = stream.iter().filter(|t| t.is_fraud).count();
    println!(
        "transaction stream: {} transfers across {} accounts, {} belong to injected fraud rings",
        stream.len(),
        800,
        injected
    );

    let mut detector = RuntimeCycleDetector::new(RuntimeDetectorConfig {
        max_cycle_hops: 6,
        window_size: 5_000,
        ..RuntimeDetectorConfig::default()
    });
    let alerts = detector.ingest_stream(&stream);
    let stats = detector.stats();
    let runtime = detector.runtime().stats();
    println!("transactions ingested     : {}", stats.transactions);
    println!("alerts raised             : {} ({} cycles)", stats.alerts, stats.cycles);
    println!("alerts on injected fraud  : {}", stats.true_positive_alerts);
    println!("alerts on benign traffic  : {}", stats.benign_alerts);
    println!("skipped by reachability   : {}", stats.skipped_by_precheck);
    println!("fraud recall              : {:.1}%", detector.fraud_recall() * 100.0);
    println!(
        "host time {:.1} ms total ({:.4} ms/txn), simulated device time {:.2} ms",
        stats.host_millis,
        stats.host_millis / stats.transactions as f64,
        stats.device_millis
    );
    println!(
        "runtime: epoch {}, {} cycle queries, {} device cycles, {} cached queries invalidated",
        runtime.epoch, runtime.completed, runtime.total_device_cycles, runtime.cache_invalidated
    );
    if let Some(alert) = alerts.first() {
        let path: Vec<String> = alert.cycles[0].iter().map(|v| v.0.to_string()).collect();
        println!(
            "first alert: txn {} -> {} closes cycle [{} -> {}]",
            alert.transaction.from,
            alert.transaction.to,
            path.join(" -> "),
            alert.transaction.to
        );
    }
}
