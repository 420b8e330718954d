//! Label-constrained path enumeration.
//!
//! The paper studies unlabelled graphs but notes (Section I) that label
//! constraints — "only specific types of users will be considered" — can be
//! handled in the preprocessing stage by filtering out vertices that violate
//! the constraint. This example runs the extension from `pefp_core::labeled`
//! on a small social network whose users carry a role label, and shows how
//! the admissible-role set changes both the result set and the amount of
//! work shipped to the device.
//!
//! Run with `cargo run --release --example label_constrained`.

use pefp::core::{labeled::run_labeled_query, PefpVariant};
use pefp::fpga::DeviceConfig;
use pefp::graph::{generators, Label, LabelConstraint, VertexId, VertexLabels};

const ROLE_NAMES: [&str; 3] = ["person", "page", "bot"];
const PERSON: Label = 0;
const PAGE: Label = 1;
const BOT: Label = 2;

fn describe(constraint: &LabelConstraint) -> String {
    match constraint {
        LabelConstraint::Any => "any intermediate vertex".to_string(),
        LabelConstraint::OneOf(set) => format!(
            "intermediates restricted to {:?}",
            set.iter().map(|&l| ROLE_NAMES[l as usize]).collect::<Vec<_>>()
        ),
        LabelConstraint::NoneOf(set) => format!(
            "intermediates excluding {:?}",
            set.iter().map(|&l| ROLE_NAMES[l as usize]).collect::<Vec<_>>()
        ),
    }
}

fn main() {
    // A small-world social graph; every third vertex is a "page", every
    // seventh a suspected "bot", the rest are people.
    let graph = generators::small_world(1_200, 6, 0.15, 11).to_csr();
    let labels = VertexLabels::from_vec(
        (0..graph.num_vertices())
            .map(|i| {
                if i % 7 == 0 {
                    BOT
                } else if i % 3 == 0 {
                    PAGE
                } else {
                    PERSON
                }
            })
            .collect(),
    );
    let (s, t, k) = (VertexId(2), VertexId(601), 6);
    let device = DeviceConfig::alveo_u200();
    println!(
        "social graph: {} users, {} follow edges; query {s} -> {t}, k = {k}\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let any = LabelConstraint::Any;
    let unconstrained =
        run_labeled_query(&graph, &labels, &any, s, t, k, PefpVariant::Full, &device);
    println!(
        "baseline ({}): {} paths, {:.3} ms total",
        describe(&LabelConstraint::Any),
        unconstrained.num_paths,
        unconstrained.total_millis()
    );

    let constraints = [
        LabelConstraint::NoneOf(vec![BOT]),
        LabelConstraint::OneOf(vec![PERSON]),
        LabelConstraint::OneOf(vec![PAGE]),
    ];
    for constraint in &constraints {
        let result =
            run_labeled_query(&graph, &labels, constraint, s, t, k, PefpVariant::Full, &device);
        println!(
            "{:<46}: {:>6} paths, {:.3} ms total",
            describe(constraint),
            result.num_paths,
            result.total_millis()
        );
        if let Some(path) = result.paths.first() {
            let rendered: Vec<String> = path
                .iter()
                .map(|v| format!("{}({})", v.0, ROLE_NAMES[labels.label(*v) as usize]))
                .collect();
            println!("    e.g. {}", rendered.join(" -> "));
        }
    }

    println!(
        "\nEvery constrained result set is a subset of the baseline's {} paths, and the\n\
         filtering happens on the host before the subgraph is shipped to the device,\n\
         exactly as the paper prescribes for labelled-graph extensions.",
        unconstrained.num_paths
    );
}
