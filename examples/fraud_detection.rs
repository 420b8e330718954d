//! E-commerce fraud detection: constrained cycle detection on new transactions.
//!
//! The paper's first motivating application (Section I): when a transaction
//! from account `t` to account `s` is submitted, the fraud-detection system
//! enumerates all s-t k-paths — each one closes a cycle through the new edge
//! `(t, s)` and is a potential fraud ring. Response time is critical, which is
//! why the enumeration is offloaded to the FPGA.
//!
//! Run with `cargo run --release --example fraud_detection`.

use pefp::core::PrepareContext;
use pefp::core::{prepare_snapshot_with, run_prepared_on_device, CollectSink, PefpVariant};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::{generators, GraphSnapshot, VertexId};

/// One incoming transaction (an edge about to be inserted).
struct Transaction {
    from: VertexId,
    to: VertexId,
    amount_cents: u64,
}

fn main() {
    // Transaction graph: accounts are vertices, money transfers are edges.
    // A copying-model graph gives the dense communities typical of
    // marketplace payment networks.
    let graph = GraphSnapshot::from_csr(generators::copying_model(2_000, 5, 0.2, 7).to_csr());
    println!(
        "transaction network: {} accounts, {} historical transfers",
        graph.num_vertices(),
        graph.num_edges()
    );

    // New transactions streaming in. For each transfer t -> s we look for
    // existing s ⇝ t paths of bounded length: together with the new edge they
    // form short cycles, the classic money-laundering signature.
    let incoming = [
        Transaction { from: VertexId(17), to: VertexId(3), amount_cents: 95_000 },
        Transaction { from: VertexId(250), to: VertexId(12), amount_cents: 1_240_000 },
        Transaction { from: VertexId(999), to: VertexId(40), amount_cents: 8_000 },
    ];
    let k = 5;
    let device = DeviceConfig::alveo_u200();
    let mut ctx = PrepareContext::new();

    for txn in &incoming {
        // The new edge is (from -> to); cycles need paths to ⇝ from.
        let prep = prepare_snapshot_with(&mut ctx, &graph, txn.to, txn.from, k, PefpVariant::Full);
        let mut paths = CollectSink::new();
        let opts = PefpVariant::Full.engine_options();
        let result = run_prepared_on_device(&prep, opts, Device::new(device.clone()), &mut paths);
        let flagged = result.num_paths > 0;
        println!(
            "\ntransaction {} -> {} ({:.2} EUR): {} cycle(s) of length <= {} would be created{}",
            txn.from,
            txn.to,
            txn.amount_cents as f64 / 100.0,
            result.num_paths,
            k + 1,
            if flagged { "  [FLAGGED FOR REVIEW]" } else { "" }
        );
        for path in paths.paths().iter().take(3) {
            let mut cycle: Vec<String> = path.iter().map(|v| v.0.to_string()).collect();
            cycle.push(txn.from.0.to_string()); // close the cycle with the new edge
            println!("    cycle: {}", cycle.join(" -> "));
        }
        println!(
            "    decision latency: {:.3} ms preprocessing + {:.3} ms on-device",
            result.preprocess_millis, result.query_millis
        );
    }
}
