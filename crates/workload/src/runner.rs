//! Experiment runner: times PEFP variants and the JOIN baseline on the
//! dataset stand-ins, mirroring the paper's measurement methodology.

use crate::queries::{generate_queries, QueryPair};
use pefp_baselines::Join;
use pefp_core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp_fpga::{Device, DeviceConfig};
use pefp_graph::sink::CountingSink;
use pefp_graph::{CsrGraph, Dataset, GraphSnapshot, ScaleProfile, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration shared by all experiments of one harness invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Scale of the dataset stand-ins.
    pub scale: ScaleProfile,
    /// Number of query pairs averaged per (dataset, k) point. The paper uses
    /// 1 000; the default here keeps the full figure sweep laptop-sized.
    pub queries_per_point: usize,
    /// RNG seed for query generation.
    pub seed: u64,
    /// Device profile used for the simulated PEFP runs.
    pub device: DeviceConfig,
    /// A (dataset, k) point whose *expected* result count `d_avg^k / |V|`
    /// exceeds this cap is skipped and reported as `INF`, playing the role of
    /// the paper's 10 000 s timeout.
    pub max_expected_paths: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: ScaleProfile::Tiny,
            queries_per_point: 10,
            seed: 0x5EED,
            device: DeviceConfig::alveo_u200(),
            max_expected_paths: 3.0e5,
        }
    }
}

/// Timing of one method averaged over the query set, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MethodTiming {
    /// Average preprocessing time (`T1`).
    pub preprocess_ms: f64,
    /// Average query processing time (`T2`).
    pub query_ms: f64,
    /// Average number of result paths per query.
    pub avg_paths: f64,
}

impl MethodTiming {
    /// Average total time `T = T1 + T2`.
    pub fn total_ms(&self) -> f64 {
        self.preprocess_ms + self.query_ms
    }
}

/// A PEFP-vs-JOIN comparison at one (dataset, k) point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryComparison {
    /// PEFP timings (simulated device query time).
    pub pefp: MethodTiming,
    /// JOIN timings (host wall-clock).
    pub join: MethodTiming,
}

impl QueryComparison {
    /// Query-time speedup of PEFP over JOIN.
    pub fn query_speedup(&self) -> f64 {
        safe_ratio(self.join.query_ms, self.pefp.query_ms)
    }

    /// Preprocessing-time speedup of PEFP over JOIN.
    pub fn preprocess_speedup(&self) -> f64 {
        safe_ratio(self.join.preprocess_ms, self.pefp.preprocess_ms)
    }

    /// Total-time speedup of PEFP over JOIN.
    pub fn total_speedup(&self) -> f64 {
        safe_ratio(self.join.total_ms(), self.pefp.total_ms())
    }
}

fn safe_ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        f64::INFINITY
    } else {
        num / den
    }
}

/// The experiment runner. Generated graphs and query sets are cached so a
/// figure that sweeps `k` reuses the same stand-in and workload.
pub struct Runner {
    /// Harness configuration.
    pub config: ExperimentConfig,
    graphs: HashMap<Dataset, Arc<GraphSnapshot>>,
    queries: HashMap<(Dataset, u32), Vec<QueryPair>>,
}

impl Runner {
    /// Creates a runner with the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Runner { config, graphs: HashMap::new(), queries: HashMap::new() }
    }

    /// Returns (generating and caching on first use) the stand-in graph for a
    /// dataset at the configured scale. Shared, so callers clone the `Arc`
    /// rather than the CSR arrays.
    pub fn graph(&mut self, dataset: Dataset) -> &Arc<CsrGraph> {
        self.snapshot(dataset).base()
    }

    /// The stand-in as the snapshot PEFP prepares against: the graph plus its
    /// reverse, built once per dataset.
    pub fn snapshot(&mut self, dataset: Dataset) -> &Arc<GraphSnapshot> {
        let scale = self.config.scale;
        self.graphs
            .entry(dataset)
            .or_insert_with(|| Arc::new(GraphSnapshot::from_csr(dataset.generate(scale).to_csr())))
    }

    /// Returns the cached query workload for `(dataset, k)`.
    pub fn queries(&mut self, dataset: Dataset, k: u32) -> Vec<QueryPair> {
        if !self.queries.contains_key(&(dataset, k)) {
            let count = self.config.queries_per_point;
            let seed = self.config.seed ^ (dataset.spec().seed << 8) ^ k as u64;
            let g = self.graph(dataset).clone();
            let qs = generate_queries(&g, k, count, seed);
            self.queries.insert((dataset, k), qs);
        }
        self.queries[&(dataset, k)].clone()
    }

    /// Whether the (dataset, k) point exceeds the harness budget and should be
    /// reported as `INF` (the paper's 10 000 s timeout analogue).
    pub fn exceeds_budget(&mut self, dataset: Dataset, k: u32) -> bool {
        let g = self.graph(dataset);
        let n = g.num_vertices() as f64;
        let d = g.num_edges() as f64 / n.max(1.0);
        let expected = d.powi(k as i32) / n.max(1.0);
        expected > self.config.max_expected_paths
    }

    /// Times one PEFP variant at `(dataset, k)`, averaged over the workload.
    /// Result paths are only counted, not materialised.
    pub fn time_pefp_variant(
        &mut self,
        dataset: Dataset,
        k: u32,
        variant: PefpVariant,
    ) -> MethodTiming {
        let queries = self.queries(dataset, k);
        let g = Arc::clone(self.snapshot(dataset));
        let device = self.config.device.clone();
        let options = variant.engine_options();
        let mut acc = MethodTiming::default();
        if queries.is_empty() {
            return acc;
        }
        // One context for the whole point: BFS scratch amortises across the
        // query set, like a real batch server.
        let mut ctx = PrepareContext::new();
        for q in &queries {
            let prep = prepare_snapshot_with(&mut ctx, &g, q.s, q.t, k, variant);
            let cu = Device::new(device.clone());
            let result =
                run_prepared_on_device(&prep, options.clone(), cu, &mut CountingSink::new());
            acc.preprocess_ms += result.preprocess_millis;
            acc.query_ms += result.query_millis;
            acc.avg_paths += result.num_paths as f64;
        }
        let n = queries.len() as f64;
        acc.preprocess_ms /= n;
        acc.query_ms /= n;
        acc.avg_paths /= n;
        acc
    }

    /// Times the JOIN baseline at `(dataset, k)`, averaged over the workload.
    pub fn time_join(&mut self, dataset: Dataset, k: u32) -> MethodTiming {
        let queries = self.queries(dataset, k);
        let g = self.graph(dataset).clone();
        let mut acc = MethodTiming::default();
        if queries.is_empty() {
            return acc;
        }
        for q in &queries {
            let mut join = Join::new();
            let t0 = Instant::now();
            let prep = join.preprocess(&g, q.s, q.t, k);
            acc.preprocess_ms += t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let paths = join.query(&g, q.s, q.t, k, &prep);
            acc.query_ms += t1.elapsed().as_secs_f64() * 1e3;
            acc.avg_paths += paths.len() as f64;
        }
        let n = queries.len() as f64;
        acc.preprocess_ms /= n;
        acc.query_ms /= n;
        acc.avg_paths /= n;
        acc
    }

    /// Full PEFP-vs-JOIN comparison at one point, or `None` when the point
    /// exceeds the harness budget.
    pub fn compare(&mut self, dataset: Dataset, k: u32) -> Option<QueryComparison> {
        if self.exceeds_budget(dataset, k) {
            return None;
        }
        let pefp = self.time_pefp_variant(dataset, k, PefpVariant::Full);
        let join = self.time_join(dataset, k);
        Some(QueryComparison { pefp, join })
    }

    /// Table III experiment: the number of newly generated intermediate paths
    /// produced by one-hop expansion of `samples` random simple paths of each
    /// length `l ∈ [2, k-1]`, under the barrier of a random query.
    pub fn intermediate_path_counts(
        &mut self,
        dataset: Dataset,
        k: u32,
        samples: usize,
    ) -> Vec<(u32, u64)> {
        use pefp_core::TempPath;
        use rand::{Rng, SeedableRng};
        let g = Arc::clone(self.snapshot(dataset));
        let queries = self.queries(dataset, k);
        let Some(q) = queries.first() else { return Vec::new() };
        let prep =
            prepare_snapshot_with(&mut PrepareContext::new(), &g, q.s, q.t, k, PefpVariant::Full);
        if !prep.feasible || prep.graph.num_edges() == 0 {
            return Vec::new();
        }
        let sub = &prep.graph;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.config.seed ^ 0xA11CE);
        let mut out = Vec::new();
        for l in 2..k {
            let mut generated = 0u64;
            let mut found = 0usize;
            let mut attempts = 0usize;
            while found < samples && attempts < samples * 40 {
                attempts += 1;
                // Random simple walk of length l starting at the query source
                // (falling back to a random vertex when the source stalls).
                let start = if attempts.is_multiple_of(4) {
                    VertexId(rng.gen_range(0..sub.num_vertices() as u32))
                } else {
                    prep.s
                };
                let Some(path) = random_simple_walk(sub, start, l, &mut rng) else { continue };
                found += 1;
                // One-hop expansion with the verification of Algorithm 2.
                let mut temp = TempPath::initial(sub, path[0]);
                for &v in &path[1..] {
                    temp = temp.extended(sub, v);
                }
                for &succ in sub.successors(*path.last().expect("non-empty")) {
                    let verdict = pefp_core::engine::verify::verify(
                        &temp,
                        succ,
                        prep.t,
                        k,
                        prep.barrier[succ.index()],
                    );
                    if verdict == pefp_core::engine::verify::Verdict::Valid {
                        generated += 1;
                    }
                }
            }
            out.push((l, generated));
        }
        out
    }
}

/// Attempts one random simple walk of exactly `len` hops from `start`.
fn random_simple_walk<R: rand::Rng>(
    g: &CsrGraph,
    start: VertexId,
    len: u32,
    rng: &mut R,
) -> Option<Vec<VertexId>> {
    let mut path = vec![start];
    let mut current = start;
    for _ in 0..len {
        let succs = g.successors(current);
        if succs.is_empty() {
            return None;
        }
        // A few tries to step to an unvisited successor.
        let mut next = None;
        for _ in 0..8 {
            let candidate = succs[rng.gen_range(0..succs.len())];
            if !path.contains(&candidate) {
                next = Some(candidate);
                break;
            }
        }
        let next = next?;
        path.push(next);
        current = next;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_runner() -> Runner {
        Runner::new(ExperimentConfig {
            scale: ScaleProfile::Tiny,
            queries_per_point: 3,
            ..ExperimentConfig::default()
        })
    }

    #[test]
    fn graphs_and_queries_are_cached() {
        let mut r = tiny_runner();
        let v1 = r.graph(Dataset::WikiTalk).num_vertices();
        let v2 = r.graph(Dataset::WikiTalk).num_vertices();
        assert_eq!(v1, v2);
        let q1 = r.queries(Dataset::WikiTalk, 3);
        let q2 = r.queries(Dataset::WikiTalk, 3);
        assert_eq!(q1, q2);
        assert_eq!(q1.len(), 3);
    }

    #[test]
    fn comparison_produces_positive_timings() {
        let mut r = tiny_runner();
        let cmp = r.compare(Dataset::WikiTalk, 3).expect("within budget");
        assert!(cmp.pefp.query_ms > 0.0);
        assert!(cmp.join.query_ms > 0.0);
        assert!(cmp.pefp.preprocess_ms >= 0.0);
        // Both systems enumerate the same number of paths on average.
        assert!((cmp.pefp.avg_paths - cmp.join.avg_paths).abs() < 1e-9);
    }

    #[test]
    fn budget_guard_trips_for_excessive_k() {
        let mut r = tiny_runner();
        assert!(!r.exceeds_budget(Dataset::WikiTalk, 3));
        assert!(r.exceeds_budget(Dataset::Reactome, 12));
    }

    #[test]
    fn variant_timing_runs_for_every_variant() {
        let mut r = tiny_runner();
        for variant in PefpVariant::all() {
            let timing = r.time_pefp_variant(Dataset::TwitterSocial, 4, variant);
            assert!(timing.query_ms > 0.0, "{} produced no device time", variant.name());
        }
    }

    #[test]
    fn intermediate_path_counts_drop_to_zero_at_k_minus_one() {
        let mut r = tiny_runner();
        let rows = r.intermediate_path_counts(Dataset::WikiTalk, 6, 50);
        assert!(!rows.is_empty());
        let (last_l, last_count) = *rows.last().expect("non-empty");
        assert_eq!(last_l, 5);
        assert_eq!(last_count, 0, "expanding (k-1)-hop paths must generate no intermediates");
    }
}
