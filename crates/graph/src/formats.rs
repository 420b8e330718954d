//! Parsers and writers for the edge-list dialects of the dataset archives the
//! paper downloads from (SNAP and KONECT), plus auto-detection.
//!
//! The plain `io` module handles bare `u32 u32` edge lists. Real archives add
//! comment headers (`#` for SNAP, `%` for KONECT), allow tab or space
//! separation, may carry extra per-edge columns (weights, timestamps) and may
//! use arbitrary, non-contiguous vertex identifiers. This module normalises
//! all of that into a [`DiGraph`] plus the id mapping that was applied, so a
//! user pointing the tool at a downloaded `soc-Epinions1.txt` gets the same
//! graph the paper used.

use crate::digraph::DiGraph;
use crate::ids::VertexId;
use std::collections::HashMap;
use std::io::{self, BufRead};

/// The edge-list dialects understood by [`read_graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// SNAP-style: `#`-prefixed comment lines, whitespace-separated pairs.
    Snap,
    /// KONECT-style: `%`-prefixed comment lines, whitespace-separated pairs,
    /// optionally followed by weight/timestamp columns that are ignored.
    Konect,
    /// Bare edge list without comments.
    Plain,
}

impl GraphFormat {
    /// The comment prefix of the dialect (empty for [`GraphFormat::Plain`]).
    pub fn comment_prefix(self) -> &'static str {
        match self {
            GraphFormat::Snap => "#",
            GraphFormat::Konect => "%",
            GraphFormat::Plain => "",
        }
    }
}

/// Errors produced while parsing an edge-list file.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A data line did not contain at least two integer columns.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// The line's content.
        content: String,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::Malformed { line, content } => {
                write!(f, "malformed edge on line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            FormatError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// A parsed graph together with the external→internal vertex id mapping that
/// was applied during loading.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The graph with dense internal ids `0..n`.
    pub graph: DiGraph,
    /// `external_ids[i]` is the original identifier of internal vertex `i`.
    pub external_ids: Vec<u64>,
    /// Number of duplicate edges that were dropped.
    pub duplicate_edges: usize,
    /// Number of self-loops that were dropped (the problem definition only
    /// considers simple paths, so self-loops can never appear on one).
    pub self_loops: usize,
    /// Number of comment lines skipped.
    pub comment_lines: usize,
}

/// Guesses the dialect from the first non-empty line of `content`.
pub fn detect_format(content: &str) -> GraphFormat {
    for line in content.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('#') {
            return GraphFormat::Snap;
        }
        if trimmed.starts_with('%') {
            return GraphFormat::Konect;
        }
        return GraphFormat::Plain;
    }
    GraphFormat::Plain
}

/// Reads a graph in the given dialect from `reader`.
///
/// External vertex identifiers may be arbitrary `u64`s; they are remapped to
/// dense internal ids in order of first appearance. Duplicate edges and
/// self-loops are dropped (and counted in the returned [`LoadedGraph`]).
pub fn read_graph<R: BufRead>(reader: R, format: GraphFormat) -> Result<LoadedGraph, FormatError> {
    let comment = format.comment_prefix();
    let mut id_map: HashMap<u64, u32> = HashMap::new();
    let mut external_ids: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut self_loops = 0usize;
    let mut comment_lines = 0usize;

    let intern = |ext: u64, external_ids: &mut Vec<u64>, id_map: &mut HashMap<u64, u32>| -> u32 {
        *id_map.entry(ext).or_insert_with(|| {
            let id = external_ids.len() as u32;
            external_ids.push(ext);
            id
        })
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !comment.is_empty() && trimmed.starts_with(comment) {
            comment_lines += 1;
            continue;
        }
        // Tolerate comments even in "plain" files so auto-detected inputs with
        // a stray header do not abort the load.
        if trimmed.starts_with('#') || trimmed.starts_with('%') {
            comment_lines += 1;
            continue;
        }
        let mut cols = trimmed.split_whitespace();
        let from = cols.next().and_then(|c| c.parse::<u64>().ok());
        let to = cols.next().and_then(|c| c.parse::<u64>().ok());
        match (from, to) {
            (Some(f), Some(t)) => {
                if f == t {
                    self_loops += 1;
                    continue;
                }
                let fi = intern(f, &mut external_ids, &mut id_map);
                let ti = intern(t, &mut external_ids, &mut id_map);
                edges.push((fi, ti));
            }
            _ => {
                return Err(FormatError::Malformed {
                    line: lineno + 1,
                    content: trimmed.to_string(),
                })
            }
        }
    }

    let before = edges.len();
    edges.sort_unstable();
    edges.dedup();
    let duplicate_edges = before - edges.len();

    let mut graph = DiGraph::new(external_ids.len());
    for (f, t) in edges {
        graph.add_edge(VertexId(f), VertexId(t));
    }

    Ok(LoadedGraph { graph, external_ids, duplicate_edges, self_loops, comment_lines })
}

/// Reads a graph from a string, auto-detecting the dialect.
pub fn read_graph_auto(content: &str) -> Result<LoadedGraph, FormatError> {
    let format = detect_format(content);
    read_graph(io::Cursor::new(content.as_bytes()), format)
}

/// Reads a graph from a file on disk, auto-detecting the dialect.
pub fn read_graph_file<P: AsRef<std::path::Path>>(path: P) -> Result<LoadedGraph, FormatError> {
    let content = std::fs::read_to_string(path)?;
    read_graph_auto(&content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_snap_konect_and_plain() {
        assert_eq!(detect_format("# comment\n1 2\n"), GraphFormat::Snap);
        assert_eq!(detect_format("% konect\n1 2\n"), GraphFormat::Konect);
        assert_eq!(detect_format("1 2\n2 3\n"), GraphFormat::Plain);
        assert_eq!(detect_format("\n\n# late header\n"), GraphFormat::Snap);
        assert_eq!(detect_format(""), GraphFormat::Plain);
    }

    #[test]
    fn parses_snap_with_comments_and_tabs() {
        let text = "# Directed graph\n# Nodes: 3 Edges: 2\n0\t1\n1\t2\n";
        let loaded = read_graph_auto(text).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 2);
        assert_eq!(loaded.comment_lines, 2);
    }

    #[test]
    fn parses_konect_and_ignores_extra_columns() {
        let text = "% asym\n% 3 3\n1 2 1.0 1234\n2 3 0.5 1235\n3 1 0.25 1236\n";
        let loaded = read_graph_auto(text).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
    }

    #[test]
    fn remaps_sparse_external_ids_densely() {
        let text = "1000000 42\n42 777\n777 1000000\n";
        let loaded = read_graph_auto(text).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        // First appearance order: 1000000, 42, 777.
        assert_eq!(loaded.external_ids, vec![1_000_000, 42, 777]);
        assert!(loaded.graph.has_edge(VertexId(1), VertexId(2)), "42 -> 777");
    }

    #[test]
    fn drops_and_counts_self_loops_and_duplicates() {
        let text = "0 1\n0 1\n1 1\n1 2\n";
        let loaded = read_graph_auto(text).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        assert_eq!(loaded.duplicate_edges, 1);
        assert_eq!(loaded.self_loops, 1);
    }

    #[test]
    fn malformed_line_is_reported_with_its_number() {
        let text = "0 1\nnot-an-edge\n";
        let err = read_graph_auto(text).unwrap_err();
        match err {
            FormatError::Malformed { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "not-an-edge");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn snap_round_trip_preserves_the_graph() {
        let mut g = DiGraph::new(4);
        g.add_edge(VertexId(0), VertexId(1));
        g.add_edge(VertexId(1), VertexId(2));
        g.add_edge(VertexId(2), VertexId(3));
        let text = "# Directed graph: test\n# Nodes: 4 Edges: 3\n# FromNodeId\tToNodeId\n\
                    0\t1\n1\t2\n2\t3\n";
        assert_eq!(detect_format(text), GraphFormat::Snap);
        let loaded = read_graph_auto(text).unwrap();
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.graph.to_csr(), g.to_csr());
    }

    #[test]
    fn konect_round_trip_preserves_the_graph() {
        let mut g = DiGraph::new(3);
        g.add_edge(VertexId(0), VertexId(1));
        g.add_edge(VertexId(2), VertexId(0));
        let text = "% asym unweighted\n% 2 3\n0 1\n2 0\n";
        assert_eq!(detect_format(text), GraphFormat::Konect);
        let loaded = read_graph_auto(text).unwrap();
        assert_eq!(loaded.graph.to_csr(), g.to_csr());
    }

    #[test]
    fn file_round_trip_works() {
        let dir = std::env::temp_dir().join("pefp_formats_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        std::fs::write(&path, "# Directed graph: file-test\n0\t4\n4\t2\n").unwrap();
        let loaded = read_graph_file(&path).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let loaded = read_graph_auto("").unwrap();
        assert_eq!(loaded.graph.num_vertices(), 0);
        assert_eq!(loaded.graph.num_edges(), 0);
    }
}
