//! Edge-list input/output.
//!
//! The paper's host loads graphs from files ("the user first specifies the
//! graph file, then the host loads the corresponding graph data", Section IV).
//! SNAP/KONECT distribute graphs as whitespace-separated edge lists with `#`
//! comment lines; this module reads and writes that format so users can run
//! the system on their own downloads of the original datasets.

use crate::digraph::DiGraph;
use crate::ids::VertexId;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Errors produced while parsing an edge list.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed as two vertex ids.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
    },
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "I/O error: {e}"),
            EdgeListError::Parse { line, content } => {
                write!(f, "line {line}: expected `<from> <to>`, got {content:?}")
            }
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for EdgeListError {
    fn from(e: io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

/// Parses a SNAP-style edge list from any reader.
///
/// * Lines starting with `#` or `%` are comments.
/// * Blank lines are skipped.
/// * Every other line must contain two whitespace-separated non-negative
///   integers `<from> <to>`; any further columns (weights, timestamps) are
///   ignored.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<DiGraph, EdgeListError> {
    let mut g = DiGraph::empty();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(EdgeListError::Parse { line: idx + 1, content: line.clone() });
        };
        let (Ok(u), Ok(v)) = (a.parse::<u32>(), b.parse::<u32>()) else {
            return Err(EdgeListError::Parse { line: idx + 1, content: line.clone() });
        };
        let needed = u.max(v) as usize + 1;
        g.ensure_vertices(needed);
        g.add_edge(VertexId(u), VertexId(v));
    }
    Ok(g)
}

/// Reads an edge-list file from disk. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<DiGraph, EdgeListError> {
    let file = File::open(path)?;
    read_edge_list(BufReader::new(file))
}

/// Writes a graph as a SNAP-style edge list with a small header comment.
pub fn write_edge_list<W: Write>(g: &DiGraph, mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "# Directed edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for e in g.edges() {
        writeln!(writer, "{}\t{}", e.from.0, e.to.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_simple_edge_list() {
        let input = "# comment\n0 1\n1 2\n\n% another comment\n2 0\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(VertexId(2), VertexId(0)));
    }

    #[test]
    fn extra_columns_are_ignored() {
        let input = "0 1 0.5 1234\n1 2 0.9 999\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn bad_line_reports_line_number() {
        let input = "0 1\nnot an edge\n";
        let err = read_edge_list(Cursor::new(input)).unwrap_err();
        match err {
            EdgeListError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn single_column_line_is_an_error() {
        let input = "0\n";
        assert!(read_edge_list(Cursor::new(input)).is_err());
    }

    #[test]
    fn write_then_read_round_trips() {
        let g = DiGraph::from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = g2.edges().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pefp_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "0 5\n5 2\n").unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g2.num_vertices(), 6);
        assert!(g2.has_edge(VertexId(0), VertexId(5)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let err = EdgeListError::Parse { line: 7, content: "x y".to_string() };
        let msg = err.to_string();
        assert!(msg.contains("line 7"));
        assert!(msg.contains("x y"));
    }
}
