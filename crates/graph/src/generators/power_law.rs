//! Power-law graphs via the directed Chung–Lu model.
//!
//! Real social / web graphs in the paper's Table II follow power-law degree
//! distributions; the Chung–Lu model reproduces a target power-law degree
//! sequence in expectation, which is what drives PEFP's behaviour (a few huge
//! "super nodes" that force Batch-DFS to split their neighbour ranges, and a
//! heavy skew in intermediate-path counts).

use super::rng_from_seed;
use crate::digraph::DiGraph;
use crate::ids::VertexId;
use rand::Rng;

/// Samples a power-law degree sequence with exponent `gamma`, scaled so the
/// mean is `avg_degree`.
///
/// Degrees are `w_i = c * (i + i0)^(-1/(gamma-1))` — the standard rank-based
/// construction — and then rescaled to hit the requested average exactly.
pub fn power_law_degrees(n: usize, avg_degree: f64, gamma: f64) -> Vec<f64> {
    assert!(n > 0, "degree sequence needs at least one vertex");
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let alpha = 1.0 / (gamma - 1.0);
    let i0 = 1.0;
    let mut w: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-alpha)).collect();
    let sum: f64 = w.iter().sum();
    let scale = avg_degree * n as f64 / sum;
    for x in &mut w {
        *x *= scale;
        // Cap at n-1 so expected degree stays realisable in a simple graph.
        if *x > (n - 1) as f64 {
            *x = (n - 1) as f64;
        }
    }
    w
}

/// Generates a directed graph with a power-law degree distribution using the
/// Chung–Lu edge-probability model.
///
/// Each ordered pair `(u, v)` receives an edge with probability
/// `min(1, w_u * w_v / S)` where `S = Σ w`. The out- and in-weight sequences
/// use independently shuffled ranks so in- and out-degree are not perfectly
/// correlated (as in real web graphs).
///
/// For efficiency this uses the "expected adjacency skip" trick (Miller and
/// Hagberg): the targets are sorted once by descending in-weight, and for
/// each `u` a geometric skip jumps over the candidates the current (largest
/// remaining) probability would reject. Generation costs one
/// `O(|V| log |V|)` sort plus an expected `O(|V| + |E|)` walk.
///
/// The walk inserts with plain [`DiGraph::add_edge`]: its index strictly
/// increases and the candidate array is a permutation of the vertices, so a
/// source never reaches the same target twice and the result has no
/// parallel edges (self loops are the one case the walk has to skip).
pub fn chung_lu(n: usize, avg_degree: f64, gamma: f64, seed: u64) -> DiGraph {
    let mut rng = rng_from_seed(seed);
    let w_out = power_law_degrees(n, avg_degree, gamma);
    let mut w_in = w_out.clone();
    // Decorrelate in/out weights by a deterministic shuffle.
    for i in (1..w_in.len()).rev() {
        let j = rng.gen_range(0..=i);
        w_in.swap(i, j);
    }
    let total: f64 = w_out.iter().sum();

    let mut g = DiGraph::new(n);
    // Target candidates as `(in-weight, vertex)`, sorted by descending weight
    // so the skip-sampling walk visits high-probability targets first. The
    // sort is stable: equal weights keep vertex order.
    let mut candidates: Vec<(f64, VertexId)> =
        w_in.iter().enumerate().map(|(v, &w)| (w, VertexId::from_index(v))).collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    for (u, &wu) in w_out.iter().enumerate() {
        if wu <= 0.0 {
            continue;
        }
        let from = VertexId::from_index(u);
        let mut idx = 0usize;
        // Probability used for the skip distribution: the max over remaining targets.
        while idx < n {
            let p_max = (wu * candidates[idx].0 / total).min(1.0);
            if p_max <= 0.0 {
                break;
            }
            let r: f64 = rng.gen::<f64>();
            idx = idx.saturating_add(geometric_skip(r, p_max));
            if idx >= n {
                break;
            }
            let (w_v, v) = candidates[idx];
            let p = (wu * w_v / total).min(1.0);
            // Accept with probability p / p_max to correct for the bound.
            if rng.gen::<f64>() < p / p_max && from != v {
                g.add_edge(from, v);
            }
            idx += 1;
        }
    }
    g
}

/// Number of candidates to jump over before the next trial, for a uniform
/// draw `r` in `[0, 1)` and per-candidate probability `p_max`: a geometric
/// variate. It saturates at `usize::MAX` (`r == 0.0` gives `+inf`), so the
/// caller must add it with `saturating_add`.
fn geometric_skip(r: f64, p_max: f64) -> usize {
    if p_max >= 1.0 {
        0
    } else {
        (r.ln() / (1.0 - p_max).ln()).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, Dataset, ScaleProfile};

    /// Edge counts and CSR row hashes recorded while the generator still
    /// deduplicated each insert: a match shows the plain insert adds exactly
    /// the same edges.
    const HUB_EDGES: usize = 149_970;
    const HUB_FINGERPRINT: u64 = 0x5b6e_8a83_e7fc_27fb;
    const STANDIN_EDGES: usize = 22_616;
    const STANDIN_FINGERPRINT: u64 = 0x9999_eed4_0d83_c63e;

    #[test]
    fn degree_sequence_mean_matches_request() {
        let w = power_law_degrees(1000, 12.0, 2.2);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 12.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn degree_sequence_is_monotonically_decreasing() {
        let w = power_law_degrees(100, 5.0, 2.5);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn degrees_are_capped_below_n() {
        let w = power_law_degrees(10, 9.0, 1.5);
        for &x in &w {
            assert!(x <= 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn gamma_must_exceed_one() {
        power_law_degrees(10, 3.0, 1.0);
    }

    /// FNV-1a (64-bit) over every CSR row as little-endian `u32` words: the
    /// row's degree, then its targets.
    fn csr_fingerprint(g: &CsrGraph) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |word: u32| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for v in g.vertices() {
            let row = g.successors(v);
            feed(row.len() as u32);
            row.iter().for_each(|t| feed(t.0));
        }
        hash
    }

    #[test]
    fn hub_heavy_chung_lu_matches_its_fingerprint() {
        let csr = chung_lu(20_000, 8.0, 2.2, 3).to_csr();
        assert_eq!(csr.num_edges(), HUB_EDGES);
        assert_eq!(csr_fingerprint(&csr), HUB_FINGERPRINT);
    }

    #[test]
    fn power_law_dataset_standin_matches_its_fingerprint() {
        let csr = Dataset::SocEpinions.generate(ScaleProfile::Small).to_csr();
        assert_eq!(csr.num_edges(), STANDIN_EDGES);
        assert_eq!(csr_fingerprint(&csr), STANDIN_FINGERPRINT);
    }

    #[test]
    fn chung_lu_never_inserts_a_duplicate_or_a_self_loop() {
        for seed in [0, 1, 7, 42, 7003] {
            let g = chung_lu(3_000, 10.0, 2.0, seed);
            // `to_csr` drops parallel edges and self loops.
            assert_eq!(g.num_edges(), g.to_csr().num_edges(), "seed {seed}");
        }
    }

    #[test]
    fn geometric_skip_saturates_at_a_zero_draw() {
        assert_eq!(geometric_skip(0.0, 0.25), usize::MAX);
        assert_eq!(geometric_skip(0.0, 1.0), 0);
        assert_eq!(geometric_skip(0.5, 0.5), 1);
        assert_eq!(geometric_skip(0.9, 0.5), 0);
        // The walk's step past the end stops it rather than wrapping.
        assert_eq!(5usize.saturating_add(geometric_skip(0.0, 0.25)), usize::MAX);
    }

    #[test]
    fn generated_graph_is_skewed() {
        let g = chung_lu(1000, 8.0, 2.1, 99).to_csr();
        let max = g.max_out_degree() as f64;
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // A power-law graph has a hub far above the average degree.
        assert!(max > 4.0 * avg, "max {max} avg {avg}");
    }
}
