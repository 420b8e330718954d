//! Biological pathway queries.
//!
//! The paper's third motivating application: in a biological interaction
//! network (substances as vertices, interactions as edges), the chains of
//! interactions between two substances `s` and `t` are exactly the s-t simple
//! paths with a hop constraint. This example builds a Reactome-like dense
//! reaction network, runs pathway queries at increasing hop budgets, and shows
//! how the Pre-BFS preprocessing shrinks the graph shipped to the device.
//!
//! Run with `cargo run --release --example biological_pathways`.

use pefp::core::{prepare_snapshot_with, run_prepared_on_device, CollectSink, PefpVariant};
use pefp::core::{PrepareContext, PreparedQuery};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::{Dataset, GraphSnapshot, ScaleProfile, VertexId};

fn main() {
    // The Reactome stand-in from the dataset catalog (Table II).
    let spec = Dataset::Reactome.spec();
    let graph = GraphSnapshot::from_csr(spec.generate(ScaleProfile::Tiny).to_csr());
    println!(
        "reaction network ({} stand-in): {} substances, {} interactions",
        spec.name,
        graph.num_vertices(),
        graph.num_edges()
    );

    let s = VertexId(3);
    let t = VertexId(90);
    let device = DeviceConfig::alveo_u200();
    let mut ctx = PrepareContext::new();
    let mut prepare_k = |k| prepare_snapshot_with(&mut ctx, &graph, s, t, k, PefpVariant::Full);
    let run = |prep: &PreparedQuery, sink: &mut CollectSink| {
        let opts = PefpVariant::Full.engine_options();
        run_prepared_on_device(prep, opts, Device::new(device.clone()), sink)
    };

    println!("\npathway query: interaction chains {s} -> {t}\n");
    println!(
        "{:>3}  {:>10}  {:>14}  {:>14}  {:>22}",
        "k", "pathways", "preprocess", "device time", "subgraph (V / E)"
    );
    for k in 2..=5u32 {
        // Show what Pre-BFS keeps for this hop budget.
        let prep = prepare_k(k);
        let result = run(&prep, &mut CollectSink::new());
        println!(
            "{k:>3}  {:>10}  {:>11.3} ms  {:>11.3} ms  {:>10} / {:>8}",
            result.num_paths,
            result.preprocess_millis,
            result.query_millis,
            prep.graph.num_vertices(),
            prep.graph.num_edges(),
        );
    }

    println!("\nexample pathways at k = 4:");
    let mut pathways = CollectSink::new();
    run(&prepare_k(4), &mut pathways);
    for path in pathways.paths().iter().take(5) {
        let chain: Vec<String> = path.iter().map(|v| format!("S{}", v.0)).collect();
        println!("  {}", chain.join(" => "));
    }
    if pathways.paths().is_empty() {
        println!("  (no pathway within 4 interactions — try a larger k)");
    }
}
