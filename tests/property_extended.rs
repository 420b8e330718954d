//! Seeded random tests over generated graphs and streams: the walk-count
//! estimators against the naive-DFS oracle, the facade pipeline and Pre-BFS
//! against the same oracle, the device payload round trip, dynamic-graph
//! snapshots against a static build, and `PrepareContext` reuse.

use pefp::baselines::naive_dfs_enumerate;
use pefp::core::{
    count_simple_paths, count_st_walks, prepare_snapshot_with, PefpVariant, PrepareContext,
};
use pefp::enumerate_paths;
use pefp::graph::generators::chung_lu;
use pefp::graph::paths::canonicalize;
use pefp::graph::{khop_bfs, CsrGraph, GraphSnapshot, VertexId, UNREACHED};
use pefp::host::binfmt::{decode_payload, encode_payload};
use pefp::streaming::DynamicGraph;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

#[path = "support/pefp_run.rs"]
mod pefp_run;
use pefp_run::prepare_fresh;

#[path = "support/seeded_cases.rs"]
mod seeded_cases;
use seeded_cases::{for_each_seed, random_edges};

/// A random digraph on `2..max_n` vertices with `0..max_m` random edges
/// (self-loops dropped), and two distinct endpoints on it.
fn random_query_graph(
    rng: &mut ChaCha8Rng,
    max_n: u32,
    max_m: usize,
) -> (CsrGraph, VertexId, VertexId) {
    let n = rng.gen_range(2..max_n);
    let mut edges = random_edges(rng, n, 0..max_m);
    edges.retain(|(a, b)| a != b);
    let s = rng.gen_range(0..n);
    let t = rng.gen_range(0..n - 1);
    let t = if t >= s { t + 1 } else { t };
    (CsrGraph::from_edges(n as usize, &edges), VertexId(s), VertexId(t))
}

/// The walk-count estimator upper-bounds the exact simple-path count, and
/// the exact count matches the enumeration length.
#[test]
fn counting_bounds_hold() {
    for_each_seed(0x0700_0000, 48, |rng| {
        let (g, s, t) = random_query_graph(rng, 20, 60);
        let k = rng.gen_range(1..5);
        let exact = count_simple_paths(&g, s, t, k);
        let walks = count_st_walks(&g, s, t, k);
        assert!(walks >= exact);
        let enumerated = naive_dfs_enumerate(&g, s, t, k).len() as u64;
        assert_eq!(exact, enumerated);
    });
}

/// The full pipeline (facade entry point) agrees with the oracle on
/// arbitrary graphs.
#[test]
fn pefp_pipeline_matches_oracle() {
    for_each_seed(0x0800_0000, 48, |rng| {
        let (g, s, t) = random_query_graph(rng, 22, 66);
        let k = rng.gen_range(1..5);
        let result = enumerate_paths(&g, s, t, k);
        let oracle = naive_dfs_enumerate(&g, s, t, k);
        assert_eq!(result.num_paths, oracle.len() as u64);
        assert_eq!(canonicalize(result.paths), canonicalize(oracle));
    });
}

/// The device payload format round-trips every prepared query.
#[test]
fn payload_round_trip() {
    for_each_seed(0x0900_0000, 48, |rng| {
        let (g, s, t) = random_query_graph(rng, 30, 90);
        let k = rng.gen_range(1..6);
        let prepared = prepare_fresh(&GraphSnapshot::from_csr(g), s, t, k, PefpVariant::Full);
        let bytes = encode_payload(&prepared);
        let decoded = decode_payload(&bytes).unwrap();
        assert_eq!(&decoded.graph, &*prepared.graph);
        assert_eq!(decoded.barrier, prepared.barrier);
        assert_eq!(decoded.header.k, prepared.k);
    });
}

/// Building a graph through dynamic insertions (in any order, with
/// duplicate inserts) snapshots to exactly the statically built CSR.
#[test]
fn dynamic_graph_snapshot_equals_static_build() {
    for_each_seed(0x0A00_0000, 48, |rng| {
        let n = 40u32;
        let edges = random_edges(rng, n, 0..160);
        let mut clean: Vec<(u32, u32)> = edges.iter().copied().filter(|(a, b)| a != b).collect();
        clean.sort_unstable();
        clean.dedup();
        let static_graph = CsrGraph::from_edges(n as usize, &clean);
        let mut dynamic = DynamicGraph::with_vertices(n as usize);
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a != b {
                dynamic.insert_edge(VertexId(a), VertexId(b), i as u64);
            }
        }
        assert_eq!(dynamic.snapshot_csr(), static_graph);
        assert_eq!(dynamic.num_edges(), clean.len());
    });
}

/// Pre-BFS never drops a result: enumeration on the pruned graph
/// (translated back) equals enumeration on the original graph.
#[test]
fn pre_bfs_preserves_all_results() {
    for_each_seed(0x0B00_0000, 48, |rng| {
        let (g, s, t) = random_query_graph(rng, 26, 80);
        let k = rng.gen_range(1..5);
        let prepared =
            prepare_fresh(&GraphSnapshot::from_csr(g.clone()), s, t, k, PefpVariant::Full);
        let original = canonicalize(naive_dfs_enumerate(&g, s, t, k));
        let pruned = if prepared.feasible {
            let on_sub = naive_dfs_enumerate(&prepared.graph, prepared.s, prepared.t, prepared.k);
            canonicalize(on_sub.iter().map(|p| prepared.translate_path(p)).collect())
        } else {
            Vec::new()
        };
        assert_eq!(pruned, original);
    });
}

/// A dirty, reused `PrepareContext` produces byte-identical prepared
/// queries (graph, barrier, mapping, feasibility) to a fresh context
/// across random Chung-Lu graphs and query triples: epoch
/// stamping must never leak state from one query into the next. Both are
/// also held to the definition: the kept set is Theorem 1's cut and the
/// barrier is `sd(·, t)`, computed here from two dense `(k-1)`-hop BFS
/// arrays that share no code with the pruned search.
#[test]
fn dirty_prepare_context_matches_one_shot() {
    for_each_seed(0x0C00_0000, 48, |rng| {
        let n = rng.gen_range(40usize..160);
        let degree = rng.gen_range(2u32..8);
        let seed = rng.gen_range(0u64..1_000);
        let g = GraphSnapshot::from_csr(chung_lu(n, degree as f64, 2.2, seed).to_csr());
        let mut ctx = PrepareContext::new();
        for _ in 0..rng.gen_range(1..8) {
            let s = VertexId(rng.gen_range(0..n as u32));
            let t = VertexId(rng.gen_range(0..n as u32));
            let k = rng.gen_range(0..8);
            let with_ctx = prepare_snapshot_with(&mut ctx, &g, s, t, k, PefpVariant::Full);
            let one_shot = prepare_fresh(&g, s, t, k, PefpVariant::Full);
            assert_eq!(&*with_ctx.graph, &*one_shot.graph);
            assert_eq!(&with_ctx.barrier, &one_shot.barrier);
            assert_eq!(with_ctx.feasible, one_shot.feasible);
            assert_eq!((with_ctx.s, with_ctx.t, with_ctx.k), (one_shot.s, one_shot.t, one_shot.k));
            let ctx_map = with_ctx.mapping.as_ref().map(|m| &m.old_of_new);
            let one_map = one_shot.mapping.as_ref().map(|m| &m.old_of_new);
            assert_eq!(ctx_map, one_map);

            let Some(kept) = ctx_map else { continue }; // k == 0 or s == t
            let from_s = khop_bfs(g.base().as_ref(), s, k - 1);
            let to_t = khop_bfs(g.base_reverse().as_ref(), t, k - 1);
            let cut: Vec<VertexId> = (0..n as u32)
                .map(VertexId)
                .filter(|&u| {
                    let (a, b) = (from_s[u.index()], to_t[u.index()]);
                    u == s || u == t || (a != UNREACHED && b != UNREACHED && a + b <= k)
                })
                .collect();
            assert_eq!(kept, &cut);
            let distances: Vec<u32> = cut.iter().map(|u| to_t[u.index()].min(k + 1)).collect();
            assert_eq!(&with_ctx.barrier, &distances);
        }
    });
}
