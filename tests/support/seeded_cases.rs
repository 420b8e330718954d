//! Seeded random cases for the integration tests: a case loop that names the
//! seed of a failing case, and the one random-graph generator the tests
//! share. Each test includes this file with `#[path]` and uses what it needs;
//! it depends on nothing but `pefp`, `rand` and `rand_chacha`.
//!
//! A case is a fresh `ChaCha8Rng` seeded with its own `u64`, so a failure is
//! replayed by running the case body on `ChaCha8Rng::seed_from_u64(seed)`.

#![allow(dead_code)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pefp::graph::CsrGraph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Runs `case` once per seed in `first_seed..first_seed + cases`, each on a
/// fresh RNG seeded with that seed. A failing case's panic is re-raised with
/// its seed in the message.
pub fn for_each_seed(first_seed: u64, cases: u64, mut case: impl FnMut(&mut ChaCha8Rng)) {
    for seed in first_seed..first_seed + cases {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if catch_unwind(AssertUnwindSafe(|| case(&mut rng))).is_err() {
            panic!("case seed {seed} failed (the panic above is its message)");
        }
    }
}

/// A uniformly long list (length drawn from `count`) of edges with uniform
/// endpoints in `0..n`; self-loops and duplicates are kept.
pub fn random_edges(rng: &mut ChaCha8Rng, n: u32, count: Range<usize>) -> Vec<(u32, u32)> {
    let m = rng.gen_range(count);
    (0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect()
}

/// A digraph on `n` vertices built from `random_edges(rng, n, 0..max_edges)`
/// (the CSR build deduplicates; self-loops stay).
pub fn random_graph(rng: &mut ChaCha8Rng, n: u32, max_edges: usize) -> CsrGraph {
    CsrGraph::from_edges(n as usize, &random_edges(rng, n, 0..max_edges))
}
