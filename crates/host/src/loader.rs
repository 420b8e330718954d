//! Graph loading for the host session.
//!
//! Step 1 of the paper's workflow (Fig. 2): "the user first specifies the
//! graph file, then the host loads the corresponding graph data and stores it
//! in main memory". This module loads either a real edge-list file (in the
//! SNAP / KONECT / plain dialects understood by `pefp_graph::formats`) or one
//! of the synthetic dataset stand-ins from the catalog, normalises it to CSR
//! and keeps the light-weight metadata a session wants to report.

use crate::error::HostError;
use pefp_graph::formats::{read_graph_auto, LoadedGraph};
use pefp_graph::{CsrGraph, Dataset, GraphSnapshot, PlacementPolicy, ScaleProfile};
use std::path::Path;
use std::sync::Arc;

/// A graph resident in host main memory, ready to serve queries.
///
/// Both CSR directions are shared (`Arc`), so sessions, runtimes and the
/// [`GraphSnapshot`]s they prepare against reference one resident copy
/// instead of cloning graph arrays per component or per query.
///
/// Loading does no more than build the two CSR directions, in
/// `O(|V| + |E|)`. The Table II statistics (diameter, effective diameter)
/// take one BFS per sampled source; `figures table2` and `pefp_cli
/// datasets` compute them with [`pefp_graph::GraphStats::compute`] when
/// they print them.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    /// Where the graph came from (file path, dataset code, or "inline").
    pub source: String,
    /// The CSR representation every algorithm runs on.
    pub csr: Arc<CsrGraph>,
    /// Reverse CSR, built once so each query's backward BFS does not pay for
    /// it again; every [`GraphHandle::snapshot`] carries it.
    pub reverse: Arc<CsrGraph>,
    /// Number of duplicate edges dropped at load time (0 for generated data).
    pub duplicate_edges: usize,
    /// Number of self-loops dropped at load time (0 for generated data).
    pub self_loops: usize,
    /// DRAM bank layout every engine run over this graph plans its prepared
    /// subgraphs with (only observable under banked-charging devices; see
    /// [`pefp_graph::RowPlacement`]). Selected at load/snapshot time via
    /// [`GraphHandle::with_placement`]; defaults to the natural CSR order.
    pub placement: PlacementPolicy,
}

impl GraphHandle {
    /// Wraps an already-built CSR graph (used by tests, examples and the
    /// streaming layer, which maintains its own graph). Accepts either an
    /// owned graph or an existing shared handle.
    pub fn from_csr(source: impl Into<String>, csr: impl Into<Arc<CsrGraph>>) -> GraphHandle {
        let csr = csr.into();
        let reverse = Arc::new(csr.reverse());
        GraphHandle {
            source: source.into(),
            csr,
            reverse,
            duplicate_edges: 0,
            self_loops: 0,
            placement: PlacementPolicy::Natural,
        }
    }

    /// Selects the DRAM bank layout for this graph's adjacency rows
    /// (builder style, so load sites can opt into bank-aware placement).
    pub fn with_placement(mut self, placement: PlacementPolicy) -> GraphHandle {
        self.placement = placement;
        self
    }

    /// The epoch-0 [`GraphSnapshot`] over the shared CSR pair, to prepare
    /// queries against with [`pefp_core::prepare_snapshot_with`].
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::initial(Arc::clone(&self.csr), Arc::clone(&self.reverse))
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// One-line summary used in logs and session banners; the average
    /// degree is `|E| / |V|` (0 for a graph with no vertices).
    pub fn summary(&self) -> String {
        let (n, m) = (self.num_vertices(), self.num_edges());
        let avg_degree = if n == 0 { 0.0 } else { m as f64 / n as f64 };
        format!("{}: {n} vertices, {m} edges, avg degree {avg_degree:.2}", self.source)
    }
}

fn handle_from_loaded(source: String, loaded: LoadedGraph) -> GraphHandle {
    let mut handle = GraphHandle::from_csr(source, loaded.graph.to_csr());
    handle.duplicate_edges = loaded.duplicate_edges;
    handle.self_loops = loaded.self_loops;
    handle
}

/// Loads an edge-list file from disk, auto-detecting its dialect.
pub fn load_edge_list_file<P: AsRef<Path>>(path: P) -> Result<GraphHandle, HostError> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path)
        .map_err(|e| HostError::GraphLoad(format!("{}: {e}", path.display())))?;
    let loaded = read_graph_auto(&content)
        .map_err(|e| HostError::GraphLoad(format!("{}: {e}", path.display())))?;
    if loaded.graph.num_vertices() == 0 {
        return Err(HostError::GraphLoad(format!("{}: file contains no edges", path.display())));
    }
    Ok(handle_from_loaded(path.display().to_string(), loaded))
}

/// Generates one of the paper's dataset stand-ins at the given scale and
/// wraps it in a handle.
pub fn load_dataset(dataset: Dataset, profile: ScaleProfile) -> GraphHandle {
    let csr = dataset.generate(profile).to_csr();
    GraphHandle::from_csr(format!("dataset:{}", dataset.code()), csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::VertexId;

    /// Writes `content` to a per-test file and loads it.
    fn load_str(name: &str, content: &str) -> Result<GraphHandle, HostError> {
        let file = format!("pefp_loader_{}_{name}.txt", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, content).unwrap();
        let loaded = load_edge_list_file(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn loads_a_snap_style_string() {
        let text = "# tiny\n0 1\n1 2\n2 3\n0 3\n";
        let handle = load_str("tiny", text).unwrap();
        assert_eq!(handle.num_vertices(), 4);
        assert_eq!(handle.num_edges(), 4);
        assert_eq!(handle.duplicate_edges, 0);
        assert!(handle.summary().contains("tiny"));
        // Reverse graph is consistent.
        assert!(handle.reverse.has_edge(VertexId(1), VertexId(0)));
    }

    #[test]
    fn counts_dropped_duplicates_and_self_loops() {
        let text = "0 1\n0 1\n2 2\n1 2\n";
        let handle = load_str("dups", text).unwrap();
        assert_eq!(handle.duplicate_edges, 1);
        assert_eq!(handle.self_loops, 1);
        assert_eq!(handle.num_edges(), 2);
    }

    #[test]
    fn empty_input_is_rejected() {
        let err = load_str("empty", "").unwrap_err();
        assert!(matches!(err, HostError::GraphLoad(_)));
        let err = load_str("comments-only", "# nothing\n").unwrap_err();
        assert!(matches!(err, HostError::GraphLoad(_)));
    }

    #[test]
    fn missing_file_is_reported_with_its_path() {
        let err = load_edge_list_file("/nonexistent/pefp-graph.txt").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent/pefp-graph.txt"));
    }

    #[test]
    fn file_round_trip_loads_back() {
        let dir = std::env::temp_dir().join("pefp_host_loader_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let handle = load_edge_list_file(&path).unwrap();
        assert_eq!(handle.num_vertices(), 3);
        assert_eq!(handle.num_edges(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dataset_catalog_loads_and_reports_stats() {
        let handle = load_dataset(Dataset::Reactome, ScaleProfile::Tiny);
        assert!(handle.num_vertices() > 0);
        assert!(handle.num_edges() > 0);
        assert!(handle.source.contains("RT"));
        let avg = handle.num_edges() as f64 / handle.num_vertices() as f64;
        assert_eq!(
            handle.summary(),
            format!(
                "dataset:RT: {} vertices, {} edges, avg degree {avg:.2}",
                handle.num_vertices(),
                handle.num_edges()
            )
        );
    }

    #[test]
    fn empty_graph_summary_reads_zero_average_degree() {
        let handle = GraphHandle::from_csr("empty", CsrGraph::empty(0));
        assert_eq!(handle.summary(), "empty: 0 vertices, 0 edges, avg degree 0.00");
    }

    #[test]
    fn from_csr_builds_a_consistent_reverse_graph() {
        let csr = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let handle = GraphHandle::from_csr("inline", csr);
        assert_eq!(handle.reverse.num_edges(), 2);
        assert!(handle.reverse.has_edge(VertexId(2), VertexId(1)));
    }
}
