//! Label-constrained enumeration (the paper's labelled-graph extension).
//!
//! Section I of the paper: "our solutions can be easily extended to solve it
//! in labelled graphs; that is, we can deal with the label constraints in
//! preprocessing stage to filter out the vertices and edges that satisfy the
//! constraints." This module implements exactly that extension: the label
//! constraint is applied *before* Pre-BFS, producing a filtered graph on which
//! the unmodified PEFP pipeline runs. Endpoints are always admissible, so a
//! query like "paths between user A and user B passing only through verified
//! accounts" maps directly onto [`run_labeled_query`].

use crate::preprocess::{prepare_snapshot_with, PrepareContext};
use crate::result::PefpRunResult;
use crate::variants::{run_prepared_on_device, PefpVariant};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::labels::{LabelConstraint, VertexLabels};
use pefp_graph::sink::CollectSink;
use pefp_graph::{induce_subgraph, CsrGraph, GraphSnapshot, VertexId};
use std::sync::Arc;
use std::time::Instant;

/// Applies the label constraint to `g`, keeping the endpoints regardless of
/// their labels, and returns the filtered graph together with the id mapping.
///
/// The returned graph uses dense new ids; use the mapping to translate the
/// query endpoints before preprocessing and result paths afterwards.
pub fn filter_by_labels(
    g: &CsrGraph,
    labels: &VertexLabels,
    constraint: &LabelConstraint,
    s: VertexId,
    t: VertexId,
) -> pefp_graph::InducedSubgraph {
    assert!(labels.covers(g), "labelling must cover every vertex of the graph");
    induce_subgraph(g, |v| v == s || v == t || constraint.admits(labels.label(v)))
}

/// Runs a label-constrained PEFP query: only paths whose *intermediate*
/// vertices satisfy `constraint` are enumerated.
///
/// Returns the run result with paths expressed in the original graph ids. The
/// reported preprocessing time includes the label filtering pass (it is part
/// of the host preprocessing stage, as prescribed by the paper).
#[allow(clippy::too_many_arguments)]
pub fn run_labeled_query(
    g: &CsrGraph,
    labels: &VertexLabels,
    constraint: &LabelConstraint,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
    device: &DeviceConfig,
) -> PefpRunResult {
    let filter_start = Instant::now();
    // A trivial constraint admits every vertex: the graph is used as is.
    let filtered =
        (!constraint.is_trivial()).then(|| filter_by_labels(g, labels, constraint, s, t));
    let (graph, new_s, new_t) = match &filtered {
        Some(f) => (
            Arc::clone(&f.graph),
            f.to_new(s).expect("s is force-kept by the label filter"),
            f.to_new(t).expect("t is force-kept by the label filter"),
        ),
        None => (Arc::new(g.clone()), s, t),
    };
    let filter_millis = filter_start.elapsed().as_secs_f64() * 1e3;

    let snapshot = GraphSnapshot::from_csr(graph);
    let prep =
        prepare_snapshot_with(&mut PrepareContext::new(), &snapshot, new_s, new_t, k, variant);
    let mut sink = CollectSink::new();
    let device = Device::new(device.clone());
    let mut result = run_prepared_on_device(&prep, variant.engine_options(), device, &mut sink);

    // Fold the label-filter time into the preprocessing phase and translate
    // the result paths back through both id mappings (label filter ∘ Pre-BFS).
    result.preprocess_millis += filter_millis;
    result.paths = match &filtered {
        Some(f) => sink.paths().iter().map(|p| f.translate_path(p)).collect(),
        None => sink.into_paths(),
    };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_graph::labels::Label;
    use pefp_graph::paths::canonicalize;

    /// Oracle: naive enumeration on the label-filtered graph.
    fn oracle(
        g: &CsrGraph,
        labels: &VertexLabels,
        constraint: &LabelConstraint,
        s: VertexId,
        t: VertexId,
        k: u32,
    ) -> Vec<Vec<VertexId>> {
        let filtered = filter_by_labels(g, labels, constraint, s, t);
        let ns = filtered.to_new(s).unwrap();
        let nt = filtered.to_new(t).unwrap();
        let paths = naive_dfs_enumerate(&filtered.graph, ns, nt, k);
        canonicalize(paths.iter().map(|p| filtered.translate_path(p)).collect())
    }

    fn labelled_sample() -> (CsrGraph, VertexLabels) {
        // Two parallel corridors 0 -> {1,2} -> 5 and 0 -> {3,4} -> 5, with the
        // upper corridor labelled 1 and the lower labelled 2.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (0, 5)]);
        let labels = VertexLabels::from_vec(vec![0, 1, 1, 2, 2, 0]);
        (g, labels)
    }

    #[test]
    fn one_of_constraint_restricts_to_the_admissible_corridor() {
        let (g, labels) = labelled_sample();
        let constraint = LabelConstraint::OneOf(vec![1]);
        let device = DeviceConfig::alveo_u200();
        let r = run_labeled_query(
            &g,
            &labels,
            &constraint,
            VertexId(0),
            VertexId(5),
            4,
            PefpVariant::Full,
            &device,
        );
        // Direct edge 0 -> 5 (no intermediates) + the label-1 corridor.
        assert_eq!(r.num_paths, 2);
        assert_eq!(
            canonicalize(r.paths),
            oracle(&g, &labels, &constraint, VertexId(0), VertexId(5), 4)
        );
    }

    #[test]
    fn none_of_constraint_excludes_the_forbidden_corridor() {
        let (g, labels) = labelled_sample();
        let constraint = LabelConstraint::NoneOf(vec![2]);
        let device = DeviceConfig::alveo_u200();
        let r = run_labeled_query(
            &g,
            &labels,
            &constraint,
            VertexId(0),
            VertexId(5),
            4,
            PefpVariant::Full,
            &device,
        );
        assert_eq!(r.num_paths, 2);
        assert!(r.paths.iter().all(|p| !p.contains(&VertexId(3)) && !p.contains(&VertexId(4))));
    }

    #[test]
    fn trivial_constraint_matches_the_unconstrained_query() {
        let (g, labels) = labelled_sample();
        let device = DeviceConfig::alveo_u200();
        let constrained = run_labeled_query(
            &g,
            &labels,
            &LabelConstraint::Any,
            VertexId(0),
            VertexId(5),
            4,
            PefpVariant::Full,
            &device,
        );
        let oracle = canonicalize(naive_dfs_enumerate(&g, VertexId(0), VertexId(5), 4));
        assert_eq!(canonicalize(constrained.paths), oracle);
    }

    #[test]
    fn endpoints_are_admissible_even_with_excluded_labels() {
        let (g, labels) = labelled_sample();
        // Exclude label 0, which is the label of both endpoints.
        let constraint = LabelConstraint::OneOf(vec![1]);
        let device = DeviceConfig::alveo_u200();
        let r = run_labeled_query(
            &g,
            &labels,
            &constraint,
            VertexId(0),
            VertexId(5),
            4,
            PefpVariant::Full,
            &device,
        );
        assert!(r.num_paths > 0, "endpoint labels must not disqualify the query");
    }

    #[test]
    fn matches_the_oracle_on_random_labelled_graphs() {
        use pefp_graph::generators::chung_lu;
        let device = DeviceConfig::alveo_u200();
        for seed in 0..3u64 {
            let g = chung_lu(90, 5.0, 2.2, seed + 900).to_csr();
            let palette: Vec<Label> = vec![0, 1, 2, 3];
            let labels = VertexLabels::cyclic(g.num_vertices(), &palette);
            let constraint = LabelConstraint::OneOf(vec![0, 1]);
            let (s, t, k) = (VertexId(0), VertexId(45), 5);
            let r =
                run_labeled_query(&g, &labels, &constraint, s, t, k, PefpVariant::Full, &device);
            assert_eq!(
                canonicalize(r.paths),
                oracle(&g, &labels, &constraint, s, t, k),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "labelling must cover")]
    fn short_labelling_is_rejected() {
        let (g, _) = labelled_sample();
        let labels = VertexLabels::uniform(2, 0);
        filter_by_labels(&g, &labels, &LabelConstraint::Any, VertexId(0), VertexId(5));
    }
}
