//! Query parsing and validation.
//!
//! Step 2 of the paper's workflow (Fig. 2): "when a new query comes in, the
//! host parses the query to extract `s`, `t` and `k`". The reproduction
//! accepts a small text protocol — either `QUERY <s> <t> <k>` or just
//! `<s> <t> <k>` — and validates the request against the loaded graph before
//! any preprocessing starts.

use crate::error::HostError;
use pefp_core::MAX_K;
use pefp_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};

/// A parsed s-t k-path enumeration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Source vertex.
    pub s: VertexId,
    /// Target vertex.
    pub t: VertexId,
    /// Hop constraint.
    pub k: u32,
}

impl QueryRequest {
    /// Builds a request from raw ids.
    pub fn new(s: u32, t: u32, k: u32) -> Self {
        QueryRequest { s: VertexId(s), t: VertexId(t), k }
    }

    /// Parses `QUERY <s> <t> <k>` or `<s> <t> <k>` (case-insensitive keyword,
    /// any whitespace separation).
    pub fn parse(text: &str) -> Result<QueryRequest, HostError> {
        let mut tokens: Vec<&str> = text.split_whitespace().collect();
        if tokens.first().is_some_and(|t| t.eq_ignore_ascii_case("query")) {
            tokens.remove(0);
        }
        if tokens.len() != 3 {
            return Err(HostError::QueryParse(format!(
                "expected `QUERY <s> <t> <k>` or `<s> <t> <k>`, got {text:?}"
            )));
        }
        let parse_u32 = |tok: &str, name: &str| -> Result<u32, HostError> {
            tok.parse::<u32>().map_err(|_| {
                HostError::QueryParse(format!("{name} must be a non-negative integer, got {tok:?}"))
            })
        };
        let s = parse_u32(tokens[0], "s")?;
        let t = parse_u32(tokens[1], "t")?;
        let k = parse_u32(tokens[2], "k")?;
        Ok(QueryRequest::new(s, t, k))
    }

    /// Validates the request against a loaded graph.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), HostError> {
        self.validate_for(g.num_vertices())
    }

    /// Validates the request against a graph of `n` vertices. Runtimes serving
    /// a versioned graph validate against the *current snapshot's* vertex
    /// count, which can exceed the base CSR's after edge inserts grew the
    /// vertex set. `s == t` is valid: like every engine and the naive oracle,
    /// the serving surface answers it with the one zero-hop path `[s]`.
    pub fn validate_for(&self, n: usize) -> Result<(), HostError> {
        if self.s.index() >= n {
            return Err(HostError::QueryInvalid(format!(
                "source {} out of range (graph has {n} vertices)",
                self.s
            )));
        }
        if self.t.index() >= n {
            return Err(HostError::QueryInvalid(format!(
                "target {} out of range (graph has {n} vertices)",
                self.t
            )));
        }
        if self.k == 0 {
            return Err(HostError::QueryInvalid("hop constraint k must be at least 1".to_string()));
        }
        if self.k as usize > MAX_K {
            return Err(HostError::QueryInvalid(format!(
                "hop constraint {} exceeds the engine's maximum of {MAX_K}",
                self.k
            )));
        }
        Ok(())
    }

    /// Formats the request back into the wire representation.
    pub fn to_wire(&self) -> String {
        format!("QUERY {} {} {}", self.s.0, self.t.0, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn parses_with_and_without_the_keyword() {
        let a = QueryRequest::parse("QUERY 0 4 5").unwrap();
        let b = QueryRequest::parse("0 4 5").unwrap();
        let c = QueryRequest::parse("  query\t0   4  5 ").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, QueryRequest::new(0, 4, 5));
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in ["", "QUERY", "1 2", "1 2 3 4", "a b c", "QUERY 1 -2 3", "1 2 x"] {
            assert!(
                matches!(QueryRequest::parse(bad), Err(HostError::QueryParse(_))),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn validation_accepts_in_range_queries() {
        let g = graph();
        assert!(QueryRequest::new(0, 4, 4).validate(&g).is_ok());
        assert!(QueryRequest::new(4, 0, 1).validate(&g).is_ok());
        assert!(QueryRequest::new(2, 2, 3).validate(&g).is_ok(), "s == t answers [s]");
    }

    #[test]
    fn validation_rejects_out_of_range_and_degenerate_queries() {
        let g = graph();
        assert!(matches!(
            QueryRequest::new(9, 0, 3).validate(&g),
            Err(HostError::QueryInvalid(msg)) if msg.contains("source")
        ));
        assert!(matches!(
            QueryRequest::new(0, 9, 3).validate(&g),
            Err(HostError::QueryInvalid(msg)) if msg.contains("target")
        ));
        assert!(matches!(
            QueryRequest::new(0, 1, 0).validate(&g),
            Err(HostError::QueryInvalid(msg)) if msg.contains("at least 1")
        ));
        assert!(matches!(
            QueryRequest::new(0, 1, MAX_K as u32 + 1).validate(&g),
            Err(HostError::QueryInvalid(msg)) if msg.contains("maximum")
        ));
    }

    #[test]
    fn wire_round_trip_is_lossless() {
        let q = QueryRequest::new(13, 7, 6);
        let wire = q.to_wire();
        assert_eq!(QueryRequest::parse(&wire).unwrap(), q);
    }
}
