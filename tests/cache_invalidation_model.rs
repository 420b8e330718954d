//! Model-based test of touched-vertex cache invalidation: interleaved
//! `HostRuntime::apply_updates` and `submit_query` through the shared
//! prepared-query cache, at 1 and N cache stripes, with every answer compared
//! with BC-DFS on a CSR rebuilt from scratch out of the live edge set.
//!
//! A cached entry outlives every update that misses its `TouchedSet`, and
//! Pre-BFS records only what its two mutually pruned searches reached — far
//! less than two full `(k-1)`-hop balls. A stale entry answers with the old
//! path set, so answer equality after every update is the whole contract.
//! Everything here is serial (one client, each ticket awaited before the next
//! call), so no assertion depends on scheduling.

use pefp::baselines::bc_dfs_enumerate;
use pefp::graph::generators::chung_lu;
use pefp::graph::paths::canonicalize;
use pefp::graph::{CsrGraph, GraphDelta, VertexId};
use pefp::host::{GraphHandle, HostRuntime, QueryOutcome, QueryRequest, RuntimeConfig, SessionId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The runtime under test next to the model: the live edge set.
struct Model {
    runtime: Arc<HostRuntime>,
    session: SessionId,
    n: usize,
    live: BTreeSet<(u32, u32)>,
}

impl Model {
    fn launch(n: usize, edges: &[(u32, u32)], cache_stripes: usize) -> Self {
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("model", CsrGraph::from_edges(n, edges)),
            RuntimeConfig {
                compute_units: cache_stripes.min(2),
                cache_stripes,
                ..RuntimeConfig::default()
            },
        );
        let session = runtime.register_session();
        Model { runtime, session, n, live: edges.iter().copied().collect() }
    }

    /// Applies one batch to the runtime and to the model. A batch applies
    /// its removals before its inserts; so does the model.
    fn update(&mut self, removals: &[(u32, u32)], inserts: &[(u32, u32)]) {
        let mut delta = GraphDelta::new();
        for &(a, b) in removals {
            delta.remove_edge(VertexId(a), VertexId(b));
            self.live.remove(&(a, b));
        }
        for &(a, b) in inserts {
            delta.insert_edge(VertexId(a), VertexId(b));
            self.live.insert((a, b));
        }
        self.runtime.apply_updates(&delta);
    }

    /// Asks the runtime and checks the answer against BC-DFS on a rebuild.
    fn query(&self, (s, t, k): (u32, u32, u32), context: &str) -> QueryOutcome {
        let outcome = self
            .runtime
            .submit_query(self.session, QueryRequest::new(s, t, k), true)
            .expect("the queue has room for a serial client")
            .wait()
            .expect("a valid query is answered");
        let rebuilt = CsrGraph::from_edges(self.n, &self.live.iter().copied().collect::<Vec<_>>());
        let oracle = bc_dfs_enumerate(&rebuilt, VertexId(s), VertexId(t), k);
        assert_eq!(
            canonicalize(outcome.paths.clone()),
            canonicalize(oracle),
            "({s},{t},k={k}) at epoch {}: {context}",
            self.runtime.epoch()
        );
        outcome
    }
}

/// Random interleaving on a Chung-Lu graph: a fixed pool of queries is asked
/// over and over (so entries are hit, evicted and rebuilt) between batches of
/// random inserts and removals.
fn random_interleaving(cache_stripes: usize, seed: u64) {
    let n = 160usize;
    let base = chung_lu(n, 3.0, 2.2, seed).to_csr();
    let edges: Vec<(u32, u32)> = base.edges().map(|e| (e.from.0, e.to.0)).collect();
    let mut model = Model::launch(n, &edges, cache_stripes);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vertex = |rng: &mut ChaCha8Rng| rng.gen_range(0..n as u32);

    let mut pool: Vec<(u32, u32, u32)> = Vec::new();
    while pool.len() < 24 {
        let (s, t) = (vertex(&mut rng), vertex(&mut rng));
        if s != t {
            pool.push((s, t, rng.gen_range(1..7u32)));
        }
    }
    for step in 0..1_000 {
        if rng.gen_range(0..10u32) < 4 {
            let removals: Vec<(u32, u32)> = (0..rng.gen_range(0..3usize))
                .filter_map(|_| {
                    let pick = rng.gen_range(0..model.live.len().max(1));
                    model.live.iter().nth(pick).copied()
                })
                .collect();
            let inserts: Vec<(u32, u32)> = (0..rng.gen_range(1..4usize))
                .map(|_| (vertex(&mut rng), vertex(&mut rng)))
                .filter(|(a, b)| a != b)
                .collect();
            model.update(&removals, &inserts);
        } else {
            let query = pool[rng.gen_range(0..pool.len())];
            model.query(query, &format!("random step {step}, {cache_stripes} stripe(s)"));
        }
    }
}

/// The shapes the soundness argument is about, at every distance. Around a
/// real `s ⇝ t` path the graph has a forward dead end `F_1 → F_2 → …` hanging
/// off `s = F_0` (reachable from `s`, never reaching `t`) and a chain
/// `… → B_2 → B_1 → t = B_0` that reaches `t` but is unreachable from `s`.
/// No vertex of either chain is in `G'`. Inserting `F_i → B_j` bridges them
/// into a new `s ⇝ t` path of `i + 1 + j` hops; over all `(i, j)` the tail
/// falls inside, on and beyond the forward side's unrestricted radius and
/// the head likewise on the backward side, whichever radii the cheaper-side
/// choice settles on — `fan` makes one side or the other the expensive one.
fn bridges_at_every_distance(cache_stripes: usize, fan: Fan) {
    const S: u32 = 0;
    const T: u32 = 1;
    const CHAIN: u32 = 6;
    let forward = |i: u32| if i == 0 { S } else { 9 + i }; // F_1.. = 10..
    let backward = |j: u32| if j == 0 { T } else { 19 + j }; // B_1.. = 20..
    let mut edges = vec![(S, 2), (2, 3), (3, T), (S, 4), (4, 3)];
    for i in 0..CHAIN {
        edges.push((forward(i), forward(i + 1)));
        edges.push((backward(i + 1), backward(i)));
    }
    for leaf in 30..40 {
        match fan {
            Fan::OutOfSource => edges.push((S, leaf)),
            Fan::IntoTarget => edges.push((leaf, T)),
        }
    }
    // A component nothing above can reach or be reached from.
    edges.extend([(50, 51), (52, 53)]);
    let mut model = Model::launch(54, &edges, cache_stripes);

    for k in 2..=5u32 {
        let query = (S, T, k);
        for i in 0..=CHAIN {
            for j in 0..=CHAIN {
                let bridge = (forward(i), backward(j));
                let context = format!("bridge F_{i} -> B_{j}, {fan:?}, {cache_stripes} stripe(s)");
                model.query(query, &context);
                model.update(&[], &[bridge]);
                model.query(query, &context);
                model.update(&[bridge], &[]);
                model.query(query, &context);
            }
        }
        // An edge with both ends outside everything the preparation read
        // leaves the entry in place, and the entry still answers correctly.
        // (Serial client: the entry is inserted before its ticket resolves.)
        model.query(query, "warm");
        model.update(&[(50, 51)], &[(51, 52)]);
        let outcome = model.query(query, "after an update in the far component");
        assert!(outcome.cache_hit, "an update nowhere near the query evicted its entry (k={k})");
        model.update(&[(51, 52)], &[(50, 51)]);
    }
}

#[derive(Debug, Clone, Copy)]
enum Fan {
    OutOfSource,
    IntoTarget,
}

#[test]
fn answers_match_a_rebuild_with_one_cache_stripe() {
    for seed in [2, 3, 4] {
        random_interleaving(1, seed);
    }
    bridges_at_every_distance(1, Fan::OutOfSource);
    bridges_at_every_distance(1, Fan::IntoTarget);
}

#[test]
fn answers_match_a_rebuild_with_striped_cache() {
    for seed in [6, 7, 8] {
        random_interleaving(8, seed);
    }
    bridges_at_every_distance(8, Fan::OutOfSource);
    bridges_at_every_distance(8, Fan::IntoTarget);
}
