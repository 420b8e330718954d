//! Batched query service: the Section VII-A methodology as an application.
//!
//! The paper ships 1,000 queries and their preprocessed subgraphs to the FPGA
//! in a single DMA transfer, which is why the per-query transfer cost
//! (0.1–0.3 ms) is negligible next to preprocessing and enumeration. This
//! example reproduces that trade-off with the host runtime from `pefp-host`:
//! the same query set is served once query by query and once as one batch
//! through the runtime's admission queue (`HostSession::run_batch`, which
//! collapses duplicates and reports the batch's payload as one DMA transfer),
//! and the time breakdown of both deployments is printed.
//!
//! Run with `cargo run --release --example batch_queries`.

use pefp::graph::{sampling::sample_reachable_pairs, Dataset, ScaleProfile};
use pefp::host::{load_dataset, HostSession, QueryRequest, SessionConfig};

fn main() {
    // The soc-Epinions1 stand-in at the default experiment scale.
    let handle = load_dataset(Dataset::SocEpinions, ScaleProfile::Small);
    println!("loaded {}", handle.summary());

    // Build a reachable query workload exactly like the experiment harness.
    let k = 4;
    let queries: Vec<QueryRequest> = sample_reachable_pairs(&handle.csr, k, 200, 7)
        .into_iter()
        .map(|(s, t)| QueryRequest { s, t, k })
        .collect();
    println!("workload: {} reachable (s, t) pairs with k = {k}\n", queries.len());

    // Deployment A: a plain session, one query (and one transfer) at a time.
    let config = SessionConfig { collect_paths: false, ..SessionConfig::default() };
    let mut session = HostSession::with_graph(handle.csr.clone(), config.clone());
    for q in &queries {
        session.run_query(*q).expect("query validated against the loaded graph");
    }
    let stats = session.stats();
    println!("== one query per transfer (interactive session) ==");
    println!("queries served        : {}", stats.queries);
    println!("total paths           : {}", stats.total_paths);
    println!("preprocessing (T1)    : {:9.2} ms", stats.preprocess_millis);
    println!("PCIe transfers        : {:9.2} ms", stats.transfer_millis);
    println!("device enumeration(T2): {:9.2} ms", stats.device_millis);
    println!("avg total per query   : {:9.3} ms", stats.avg_total_millis());

    // Deployment B: the same queries as one batch on a fresh session — one
    // admission unit, duplicates collapsed, the payloads shipped as one DMA.
    let mut batch_session = HostSession::with_graph(handle.csr.clone(), config);
    let outcome = batch_session.run_batch(&queries).expect("batch accepted");
    let transfer = outcome.batched_transfer;
    let total = outcome.preprocess_millis + transfer.total_millis + outcome.device_millis;
    println!("\n== batched transfer (Section VII-A methodology) ==");
    println!("queries served        : {}", outcome.results.len());
    println!("duplicates collapsed  : {}", outcome.deduplicated);
    println!("total paths           : {}", outcome.total_paths());
    println!("preprocessing (T1)    : {:9.2} ms", outcome.preprocess_millis);
    println!(
        "single DMA transfer   : {:9.2} ms  ({} bytes in {} descriptors)",
        transfer.total_millis, transfer.bytes, transfer.descriptors
    );
    println!("device enumeration(T2): {:9.2} ms", outcome.device_millis);
    println!("avg total per query   : {:9.3} ms", total / outcome.results.len().max(1) as f64);

    let interactive_transfer = stats.transfer_millis;
    println!(
        "\ntransfer amortisation: {:.2} ms interactive vs {:.2} ms batched ({:.1}x cheaper)",
        interactive_transfer,
        transfer.total_millis,
        interactive_transfer / transfer.total_millis.max(1e-9)
    );
}
