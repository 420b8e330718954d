//! Binary layout of the prepared query payload written to device DRAM.
//!
//! Step 4 of the paper's workflow (Fig. 2) transfers "the prepared data" —
//! the CSR arrays of the induced subgraph, the barrier array and the query
//! parameters — from host main memory to FPGA DRAM over PCIe in DMA mode.
//! A real deployment needs an agreed byte layout on both sides of the bus;
//! this module defines a small, versioned, checksummed format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "PEFP"
//! 4       2     format version (currently 1)
//! 6       2     flags (reserved, 0)
//! 8       4     s (u32, vertex id in the pruned graph)
//! 12      4     t (u32)
//! 16      4     k (u32)
//! 20      4     num_vertices (u32)
//! 24      4     num_edges (u32)
//! 28      4     FNV-1a checksum of the body
//! 32      ...   body: offsets[num_vertices + 1] ++ targets[num_edges]
//!               ++ barrier[num_vertices], all little-endian u32
//! ```
//!
//! Everything is 32-bit little-endian, matching the word width the device
//! model charges memory traffic in.

use crate::error::HostError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pefp_core::PreparedQuery;
use pefp_graph::{CsrGraph, VertexId};

/// Magic bytes at the start of every payload.
pub const MAGIC: [u8; 4] = *b"PEFP";
/// Current format version.
pub const FORMAT_VERSION: u16 = 1;
/// Size of the fixed header in bytes.
pub const HEADER_BYTES: usize = 32;

/// Parsed header of a device payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadHeader {
    /// Format version.
    pub version: u16,
    /// Source vertex (in the pruned graph's id space).
    pub s: u32,
    /// Target vertex.
    pub t: u32,
    /// Hop constraint.
    pub k: u32,
    /// Number of vertices of the pruned graph.
    pub num_vertices: u32,
    /// Number of edges of the pruned graph.
    pub num_edges: u32,
    /// FNV-1a checksum of the body.
    pub checksum: u32,
}

/// A fully serialised query payload plus its decoded form.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePayload {
    /// The header fields.
    pub header: PayloadHeader,
    /// The pruned graph shipped to the device.
    pub graph: CsrGraph,
    /// The barrier array (`bar[u] = sd(u, t)` on the pruned graph).
    pub barrier: Vec<u32>,
}

/// Incremental FNV-1a over a byte stream; cheap enough to recompute on both
/// ends of a bus and sensitive to byte reordering. The DRAM payload hashes
/// its body words through it, and the network wire format
/// ([`crate::wire`]) reuses it for per-frame payload checksums.
#[derive(Debug, Clone)]
pub struct Fnv1a(u32);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0x811c_9dc5)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u32;
            self.0 = self.0.wrapping_mul(0x0100_0193);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u32 {
        self.0
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// FNV-1a over a little-endian u32 stream.
fn fnv1a_words(words: impl Iterator<Item = u32>) -> u32 {
    let mut hash = Fnv1a::new();
    for w in words {
        hash.update(&w.to_le_bytes());
    }
    hash.finish()
}

fn body_checksum(graph: &CsrGraph, barrier: &[u32]) -> u32 {
    let (offsets, targets) = graph.raw_parts();
    fnv1a_words(
        offsets.iter().copied().chain(targets.iter().map(|v| v.0)).chain(barrier.iter().copied()),
    )
}

/// Serialises a prepared query into the device DRAM byte layout.
pub fn encode_payload(prepared: &PreparedQuery) -> Bytes {
    let graph = &prepared.graph;
    let (offsets, targets) = graph.raw_parts();
    let barrier = &prepared.barrier;
    let body_words = offsets.len() + targets.len() + barrier.len();
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + body_words * 4);

    buf.put_slice(&MAGIC);
    buf.put_u16_le(FORMAT_VERSION);
    buf.put_u16_le(0); // flags
    buf.put_u32_le(prepared.s.0);
    buf.put_u32_le(prepared.t.0);
    buf.put_u32_le(prepared.k);
    buf.put_u32_le(graph.num_vertices() as u32);
    buf.put_u32_le(graph.num_edges() as u32);
    buf.put_u32_le(body_checksum(graph, barrier));

    for &o in offsets {
        buf.put_u32_le(o);
    }
    for &t in targets {
        buf.put_u32_le(t.0);
    }
    for &b in barrier {
        buf.put_u32_le(b);
    }
    buf.freeze()
}

/// Total payload size in bytes for a prepared query, without serialising it.
pub fn payload_bytes(prepared: &PreparedQuery) -> usize {
    let (offsets, targets) = prepared.graph.raw_parts();
    HEADER_BYTES + (offsets.len() + targets.len() + prepared.barrier.len()) * 4
}

/// Parses and validates a payload produced by [`encode_payload`].
pub fn decode_payload(bytes: &[u8]) -> Result<DevicePayload, HostError> {
    if bytes.len() < HEADER_BYTES {
        return Err(HostError::PayloadCorrupt(format!(
            "payload is {} bytes, smaller than the {HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    let mut cur = bytes;
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(HostError::PayloadCorrupt("bad magic".to_string()));
    }
    let version = cur.get_u16_le();
    if version != FORMAT_VERSION {
        return Err(HostError::PayloadCorrupt(format!("unsupported format version {version}")));
    }
    let _flags = cur.get_u16_le();
    let s = cur.get_u32_le();
    let t = cur.get_u32_le();
    let k = cur.get_u32_le();
    let num_vertices = cur.get_u32_le();
    let num_edges = cur.get_u32_le();
    let checksum = cur.get_u32_le();

    let body_words = num_vertices as usize + 1 + num_edges as usize + num_vertices as usize;
    let expected = HEADER_BYTES + body_words * 4;
    if bytes.len() != expected {
        return Err(HostError::PayloadCorrupt(format!(
            "payload is {} bytes, expected {expected}",
            bytes.len()
        )));
    }

    let mut offsets = Vec::with_capacity(num_vertices as usize + 1);
    for _ in 0..num_vertices + 1 {
        offsets.push(cur.get_u32_le());
    }
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(num_edges as usize);
    // Rebuild the edge list from CSR: offsets[v]..offsets[v+1] are v's targets.
    let mut targets = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        targets.push(cur.get_u32_le());
    }
    let mut barrier = Vec::with_capacity(num_vertices as usize);
    for _ in 0..num_vertices {
        barrier.push(cur.get_u32_le());
    }

    // Checksum over the body as transmitted.
    let actual = fnv1a_words(
        offsets.iter().copied().chain(targets.iter().copied()).chain(barrier.iter().copied()),
    );
    if actual != checksum {
        return Err(HostError::PayloadCorrupt(format!(
            "checksum mismatch: stored {checksum:#010x}, computed {actual:#010x}"
        )));
    }

    // Validate the CSR structure before rebuilding the graph.
    if offsets.first() != Some(&0) || offsets.last() != Some(&num_edges) {
        return Err(HostError::PayloadCorrupt(
            "CSR offsets do not start at 0 / end at num_edges".to_string(),
        ));
    }
    for w in offsets.windows(2) {
        if w[0] > w[1] {
            return Err(HostError::PayloadCorrupt("CSR offsets are not monotone".to_string()));
        }
    }
    for v in 0..num_vertices as usize {
        for e in offsets[v]..offsets[v + 1] {
            let target = targets[e as usize];
            if target >= num_vertices {
                return Err(HostError::PayloadCorrupt(format!(
                    "edge target {target} out of range (num_vertices = {num_vertices})"
                )));
            }
            edges.push((v as u32, target));
        }
    }
    if s >= num_vertices || t >= num_vertices {
        return Err(HostError::PayloadCorrupt(format!("query endpoints ({s}, {t}) out of range")));
    }

    let graph = CsrGraph::from_edges(num_vertices as usize, &edges);
    Ok(DevicePayload {
        header: PayloadHeader { version, s, t, k, num_vertices, num_edges, checksum },
        graph,
        barrier,
    })
}

impl DevicePayload {
    /// The query source as a [`VertexId`].
    pub fn source(&self) -> VertexId {
        VertexId(self.header.s)
    }

    /// The query target as a [`VertexId`].
    pub fn target(&self) -> VertexId {
        VertexId(self.header.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_core::{prepare_snapshot_with, PefpVariant, PrepareContext};
    use pefp_graph::generators::chung_lu;
    use pefp_graph::GraphSnapshot;

    /// Pre-BFS of `(s, t, k)` on `g`.
    fn prepared_on(g: CsrGraph, s: u32, t: u32, k: u32) -> PreparedQuery {
        let g = GraphSnapshot::from_csr(g);
        let (s, t) = (VertexId(s), VertexId(t));
        prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, k, PefpVariant::Full)
    }

    fn prepared() -> PreparedQuery {
        prepared_on(chung_lu(200, 5.0, 2.2, 19).to_csr(), 0, 100, 5)
    }

    #[test]
    fn round_trip_preserves_graph_barrier_and_query() {
        let p = prepared();
        let bytes = encode_payload(&p);
        assert_eq!(bytes.len(), payload_bytes(&p));
        let decoded = decode_payload(&bytes).unwrap();
        assert_eq!(decoded.graph, *p.graph);
        assert_eq!(decoded.barrier, p.barrier);
        assert_eq!(decoded.source(), p.s);
        assert_eq!(decoded.target(), p.t);
        assert_eq!(decoded.header.k, p.k);
        assert_eq!(decoded.header.version, FORMAT_VERSION);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let p = prepared();
        let bytes = encode_payload(&p);
        let err = decode_payload(&bytes[..HEADER_BYTES - 1]).unwrap_err();
        assert!(matches!(err, HostError::PayloadCorrupt(_)));
        let err = decode_payload(&bytes[..bytes.len() - 4]).unwrap_err();
        assert!(matches!(err, HostError::PayloadCorrupt(_)));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let p = prepared();
        let bytes = encode_payload(&p);
        let mut corrupted = bytes.to_vec();
        corrupted[0] = b'X';
        assert!(matches!(
            decode_payload(&corrupted).unwrap_err(),
            HostError::PayloadCorrupt(msg) if msg.contains("magic")
        ));
        let mut corrupted = bytes.to_vec();
        corrupted[4] = 0xFF;
        assert!(matches!(
            decode_payload(&corrupted).unwrap_err(),
            HostError::PayloadCorrupt(msg) if msg.contains("version")
        ));
    }

    #[test]
    fn flipped_body_bit_fails_the_checksum() {
        let p = prepared();
        let bytes = encode_payload(&p);
        let mut corrupted = bytes.to_vec();
        let idx = HEADER_BYTES + 8;
        corrupted[idx] ^= 0x01;
        let err = decode_payload(&corrupted).unwrap_err();
        assert!(matches!(err, HostError::PayloadCorrupt(msg) if msg.contains("checksum")));
    }

    #[test]
    fn empty_prepared_query_round_trips() {
        // An infeasible query produces an empty pruned graph.
        let p = prepared_on(CsrGraph::from_edges(3, &[(0, 1)]), 0, 2, 2);
        let bytes = encode_payload(&p);
        let decoded = decode_payload(&bytes);
        // Either the pruned graph is empty (endpoints out of range is also a
        // legal rejection) or it decodes consistently.
        if let Ok(d) = decoded {
            assert_eq!(d.graph, *p.graph);
        }
    }

    #[test]
    fn payload_size_matches_formula() {
        let p = prepared();
        let (offsets, targets) = p.graph.raw_parts();
        let expected = HEADER_BYTES + (offsets.len() + targets.len() + p.barrier.len()) * 4;
        assert_eq!(payload_bytes(&p), expected);
    }

    #[test]
    fn checksum_depends_on_word_order() {
        let a = fnv1a_words([1u32, 2, 3].into_iter());
        let b = fnv1a_words([3u32, 2, 1].into_iter());
        assert_ne!(a, b);
        assert_eq!(a, fnv1a_words([1u32, 2, 3].into_iter()));
    }
}
