//! Social-network influence analysis.
//!
//! The paper's second motivating application: to estimate how strongly user
//! `t` is influenced by (or similar to) user `s`, enumerate all simple paths
//! from `s` to `t` with a hop constraint — many short connection chains mean
//! a strong relationship. This example compares the path counts PEFP reports
//! for a few user pairs and also cross-checks PEFP against the JOIN baseline.
//!
//! Run with `cargo run --release --example social_influence`.

use pefp::baselines::Join;
use pefp::core::PrepareContext;
use pefp::core::{prepare_snapshot_with, run_prepared_on_device, CollectSink, PefpVariant};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::paths::canonicalize;
use pefp::graph::{generators, GraphSnapshot, VertexId};

fn main() {
    // Follower graph: low diameter, power-law degrees (twitter-like).
    let graph = GraphSnapshot::from_csr(generators::small_world(3_000, 3, 0.5, 11).to_csr());
    println!("social graph: {} users, {} follow edges", graph.num_vertices(), graph.num_edges());

    let pairs = [
        (VertexId(0), VertexId(1500)),
        (VertexId(42), VertexId(43)),
        (VertexId(7), VertexId(2900)),
    ];
    let k = 4;
    let device = DeviceConfig::alveo_u200();
    let mut ctx = PrepareContext::new();

    println!("\ninfluence score = number of simple connection chains with at most {k} hops\n");
    for (s, t) in pairs {
        let prep = prepare_snapshot_with(&mut ctx, &graph, s, t, k, PefpVariant::Full);
        let mut paths = CollectSink::new();
        let opts = PefpVariant::Full.engine_options();
        let pefp = run_prepared_on_device(&prep, opts, Device::new(device.clone()), &mut paths);

        // Cross-check against the CPU state of the art (JOIN).
        let mut join = Join::new();
        let join_paths = join.enumerate(graph.base(), s, t, k);
        assert_eq!(
            canonicalize(paths.into_paths()),
            canonicalize(join_paths),
            "PEFP and JOIN disagree — this would be a bug"
        );

        let score = pefp.num_paths;
        let verdict = match score {
            0 => "no measurable influence",
            1..=9 => "weak tie",
            10..=99 => "moderate influence",
            _ => "strong influence",
        };
        println!(
            "user {s} -> user {t}: {score:5} chains ({verdict}); device time {:.3} ms, JOIN agreed",
            pefp.query_millis
        );
    }
}
