//! Adaptive engine router: cost-based CPU/device query planning.
//!
//! The paper deploys one engine — the PEFP bitstream — for every query, but
//! its own evaluation (§VII) shows the win is workload-dependent: tiny pruned
//! subgraphs are dominated by PCIe transfer and preprocessing, while
//! hub-heavy high-`k` queries are where the device pays off. This module
//! turns the Pre-BFS product the pipeline already computes per query into a
//! *routing decision*: run the query CPU-direct (BC-DFS or JOIN, skipping
//! device transfer entirely) or on one device CU.
//!
//! The cost model is deliberately simple and fully deterministic: each engine
//! gets a predicted latency in microseconds, linear in a per-engine *work
//! proxy* derived from the walk-counting bounds of
//! [`crate::counting::QueryEstimate`] on the pruned subgraph
//! `G'`. The coefficients live in a [`RoutingTable`] calibrated offline by
//! the `routing_table` binary (committed as `docs/routing_table.json`) — the
//! router itself never measures anything, so the same table and the same
//! query always produce the same decision, with a rationale line per step.
//!
//! Routing never changes answers: every routable engine streams through the
//! same [`PathSink`](pefp_graph::sink::PathSink) pipeline and enumerates the
//! exact same path set. Only the latency (and which resource pool the query
//! occupies) differs.
//!
//! Dependency note: this crate only *scores* engines. Actually dispatching a
//! CPU engine lives in `pefp-host`, which depends on `pefp-baselines`; the
//! (de)serialisation of [`RoutingTable`] lives in `pefp-workload`, which owns
//! the hand-rolled JSON vocabulary.

use crate::counting::{count_walks_from_checked, QueryEstimate};
use crate::preprocess::PreparedQuery;

/// The engine a query is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// CPU-direct BC-DFS (`pefp-baselines`), skipping device transfer.
    CpuBcDfs,
    /// CPU-direct JOIN (`pefp-baselines`), skipping device transfer.
    CpuJoin,
    /// The simulated PEFP device, one compute unit.
    DeviceSingleCu,
}

impl EngineChoice {
    /// Whether the choice runs on the CPU-worker pool (no CU lease, no
    /// transfer).
    pub fn is_cpu(&self) -> bool {
        matches!(self, EngineChoice::CpuBcDfs | EngineChoice::CpuJoin)
    }

    /// Stable lower-case name, used in stats, JSON and rationale lines.
    pub fn name(&self) -> &'static str {
        match self {
            EngineChoice::CpuBcDfs => "bc_dfs",
            EngineChoice::CpuJoin => "join",
            EngineChoice::DeviceSingleCu => "device",
        }
    }

    /// All routable engines, in deterministic preference order (CPU first:
    /// on a cost tie the cheaper infrastructure wins).
    pub fn all() -> [EngineChoice; 3] {
        [EngineChoice::CpuBcDfs, EngineChoice::CpuJoin, EngineChoice::DeviceSingleCu]
    }
}

/// The deterministic feature vector the router scores. Everything here is a
/// by-product of preprocessing — no engine is run to produce it.
#[derive(Debug, Clone)]
pub struct RouteFeatures {
    /// `|V(G')|` — vertices of the pruned subgraph.
    pub vertices: usize,
    /// `|E(G')|` — edges of the pruned subgraph.
    pub edges: usize,
    /// Hop constraint.
    pub k: u32,
    /// Bytes a device placement must ship over PCIe (CSR + barrier + params).
    pub transfer_bytes: usize,
    /// `false` when preprocessing already proved the result set empty.
    pub feasible: bool,
    /// Walk-count bounds on `G'` (with the saturation flag).
    pub estimate: QueryEstimate,
    /// `histogram[d]` = number of vertices whose barrier is `d`, for
    /// `d in 0..=k+1` (the `k + 1` bucket holds the unreachable vertices).
    pub barrier_histogram: Vec<u64>,
    /// DFS-style work proxy: predicted intermediate-path volume, the unit the
    /// per-engine cost coefficients are calibrated in.
    pub dfs_work: f64,
    /// JOIN work proxy: walk volume to half depth (the prefix side of the
    /// meet-in-the-middle split) plus the predicted join output volume.
    pub join_work: f64,
}

impl RouteFeatures {
    /// Computes the feature vector for a prepared query. Costs one extra
    /// half-depth walk DP on `G'` — negligible next to Pre-BFS itself.
    pub fn compute(prepared: &PreparedQuery) -> RouteFeatures {
        let g = &prepared.graph;
        let estimate = QueryEstimate::compute(g, prepared.s, prepared.t, prepared.k);
        let k = prepared.k;
        let mut barrier_histogram = vec![0u64; k as usize + 2];
        for &b in &prepared.barrier {
            barrier_histogram[(b as usize).min(k as usize + 1)] += 1;
        }
        let (half_walks, half_saturated) = count_walks_from_checked(g, prepared.s, k.div_ceil(2));
        let dfs_work = estimate.max_intermediate_paths as f64;
        let join_work = if half_saturated {
            u64::MAX as f64
        } else {
            half_walks as f64 + estimate.max_results as f64
        };
        RouteFeatures {
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            k,
            transfer_bytes: prepared.transfer_bytes(),
            feasible: prepared.feasible,
            estimate,
            barrier_histogram,
            dfs_work,
            join_work,
        }
    }
}

/// Calibrated cost coefficients, loaded from `docs/routing_table.json` (or
/// [`RoutingTable::builtin`], which mirrors the committed file).
///
/// All latencies are in microseconds of *modelled query latency* — wall time
/// for the CPU engines, `T1 + transfer + T2` (simulated device time) for the
/// device — per work unit of the [`RouteFeatures`] proxies. The CPU
/// coefficients are normalised by the bench harness's runner-speed
/// calibration, so the committed table is machine-independent up to the
/// aggressive rounding the fit applies.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    /// Table format version.
    pub version: u32,
    /// BC-DFS: microseconds per DFS work unit.
    pub bcdfs_us_per_unit: f64,
    /// BC-DFS: fixed per-query overhead in microseconds.
    pub bcdfs_fixed_us: f64,
    /// JOIN: microseconds per JOIN work unit.
    pub join_us_per_unit: f64,
    /// JOIN: fixed per-query overhead (two BFS passes, middle cut).
    pub join_fixed_us: f64,
    /// Device: microseconds of simulated kernel time per DFS work unit.
    pub device_us_per_unit: f64,
    /// Device: fixed per-query overhead (kernel launch, pipeline fill).
    pub device_fixed_us: f64,
    /// PCIe transfer model: microseconds per KiB shipped.
    pub transfer_us_per_kib: f64,
    /// DFS work beyond this is "beyond CPU scale": the materialising CPU
    /// engines are not trusted past it and the query is device-tier.
    pub cpu_work_ceiling: f64,
}

impl RoutingTable {
    /// The committed calibration — byte-for-byte the table of
    /// `docs/routing_table.json`, as fitted by `routing_table --write`
    /// (`routing_table --check` fails if the two drift apart). Used when no
    /// table file is supplied.
    pub fn builtin() -> RoutingTable {
        RoutingTable {
            version: 1,
            bcdfs_us_per_unit: 0.00025,
            bcdfs_fixed_us: 3.3,
            join_us_per_unit: 0.0066,
            join_fixed_us: 38.0,
            device_us_per_unit: 0.0000075,
            device_fixed_us: 12.0,
            transfer_us_per_kib: 0.014,
            cpu_work_ceiling: 2e8,
        }
    }

    /// Modelled PCIe transfer cost in microseconds for a payload.
    pub fn transfer_us(&self, bytes: usize) -> f64 {
        self.transfer_us_per_kib * (bytes as f64 / 1024.0)
    }

    /// Basic sanity validation; returns one message per violated invariant.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let positive = [
            ("bcdfs_us_per_unit", self.bcdfs_us_per_unit),
            ("join_us_per_unit", self.join_us_per_unit),
            ("device_us_per_unit", self.device_us_per_unit),
            ("transfer_us_per_kib", self.transfer_us_per_kib),
            ("cpu_work_ceiling", self.cpu_work_ceiling),
        ];
        for (name, value) in positive {
            if !(value > 0.0 && value.is_finite()) {
                problems.push(format!("{name} must be positive and finite, got {value}"));
            }
        }
        for (name, value) in
            [("bcdfs_fixed_us", self.bcdfs_fixed_us), ("join_fixed_us", self.join_fixed_us)]
        {
            if !(value >= 0.0 && value.is_finite()) {
                problems.push(format!("{name} must be non-negative, got {value}"));
            }
        }
        if !(self.device_fixed_us >= 0.0 && self.device_fixed_us.is_finite()) {
            problems.push(format!(
                "device_fixed_us must be non-negative, got {}",
                self.device_fixed_us
            ));
        }
        problems
    }
}

impl Default for RoutingTable {
    fn default() -> Self {
        RoutingTable::builtin()
    }
}

/// Extra device compute per banked-charging run, as a fraction. When the
/// runtime charges bank-conflict and turnaround stalls to CU clocks
/// ([`RouteContext::charge_banked`]), every device placement pays conflict
/// stalls the uncharged model never saw; the router folds that in as a
/// constant fraction of device compute. The value is a conservative
/// mid-point of the charged-over-uncharged cycle inflation observed on the
/// bench batches — deliberately a constant, not a table field, so the
/// committed `docs/routing_table.json` calibration stays untouched.
pub const BANK_CONFLICT_COST_FRACTION: f64 = 0.08;

/// Runtime context the router needs beyond the query itself.
#[derive(Debug, Clone, Copy)]
pub struct RouteContext {
    /// Compute units in the fleet. The router does not read it: every
    /// device route runs on one CU. `benchmark/src/layers.rs` builds this
    /// struct by literal, so the field is removed by the benchmark-only
    /// change that updates that literal.
    pub compute_units: usize,
    /// Whether the runtime charges banked DRAM stalls to CU clocks; adds the
    /// [`BANK_CONFLICT_COST_FRACTION`] term to the device engines' costs.
    pub charge_banked: bool,
}

impl Default for RouteContext {
    fn default() -> Self {
        RouteContext { compute_units: 1, charge_banked: false }
    }
}

/// Predicted per-engine latencies in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct EngineCosts {
    /// CPU BC-DFS.
    pub bc_dfs_us: f64,
    /// CPU JOIN.
    pub join_us: f64,
    /// Device, single CU (includes the transfer model).
    pub device_us: f64,
}

impl EngineCosts {
    /// The predicted cost of `choice`.
    pub fn of(&self, choice: EngineChoice) -> f64 {
        match choice {
            EngineChoice::CpuBcDfs => self.bc_dfs_us,
            EngineChoice::CpuJoin => self.join_us,
            EngineChoice::DeviceSingleCu => self.device_us,
        }
    }
}

/// The router's verdict for one query.
#[derive(Debug, Clone)]
pub struct RouteDecision {
    /// The engine the query should run on.
    pub choice: EngineChoice,
    /// The feature vector the decision was made from.
    pub features: RouteFeatures,
    /// Predicted latency of every engine.
    pub costs: EngineCosts,
    /// Predicted latency of the chosen engine, in microseconds. This is the
    /// admission/LPT ordering key — a real cost estimate instead of the old
    /// `degree × k` proxy.
    pub cost_estimate_us: f64,
    /// One line per decision step, in the order they were made.
    pub rationale: Vec<String>,
}

/// Scores every engine for a prepared query and picks the cheapest.
///
/// Deterministic: the same `(prepared, table, ctx)` always yields the same
/// decision. Ties break towards the CPU (cheaper infrastructure), then by
/// [`EngineChoice::all`] order.
pub fn route_query(
    prepared: &PreparedQuery,
    table: &RoutingTable,
    ctx: &RouteContext,
) -> RouteDecision {
    let features = RouteFeatures::compute(prepared);
    let mut rationale = Vec::new();
    rationale.push(format!(
        "G' has {} vertices / {} edges, k = {}; ≤ {} results, dfs work {:.0}, join work {:.0}",
        features.vertices,
        features.edges,
        features.k,
        features.estimate.max_results,
        features.dfs_work,
        features.join_work,
    ));

    let costs = engine_costs(&features, table, ctx);

    // Step 1: preprocessing already proved the result set empty — nothing to
    // enumerate anywhere, so never pay a transfer or a CU lease for it.
    if !features.feasible {
        rationale.push(
            "preprocessing proved the result set empty: trivial CPU completion, no transfer"
                .to_string(),
        );
        return RouteDecision {
            choice: EngineChoice::CpuBcDfs,
            features,
            costs,
            cost_estimate_us: 0.0,
            rationale,
        };
    }

    // Step 2: saturated walk bounds carry no ranking information — both CPU
    // proxies collapsed to u64::MAX. The device's bounded-memory Batch-DFS is
    // the only engine designed for that regime.
    if features.estimate.saturated {
        rationale.push(
            "walk bounds saturated at u64::MAX: magnitude is meaningless, routing device-tier \
             (bounded-memory Batch-DFS)"
                .to_string(),
        );
        let choice = EngineChoice::DeviceSingleCu;
        let cost_estimate_us = costs.of(choice);
        return RouteDecision { choice, features, costs, cost_estimate_us, rationale };
    }

    // Step 3: beyond the CPU ceiling the materialising CPU engines are not
    // trusted regardless of the linear model's verdict.
    if features.dfs_work > table.cpu_work_ceiling {
        rationale.push(format!(
            "dfs work {:.0} exceeds the CPU ceiling {:.0}: device-tier",
            features.dfs_work, table.cpu_work_ceiling
        ));
        let choice = EngineChoice::DeviceSingleCu;
        let cost_estimate_us = costs.of(choice);
        return RouteDecision { choice, features, costs, cost_estimate_us, rationale };
    }

    // Step 4: linear cost model, cheapest engine wins; ties prefer CPU.
    rationale.push(format!(
        "predicted µs — bc_dfs {:.1}, join {:.1}, device {:.1} (transfer {:.1})",
        costs.bc_dfs_us,
        costs.join_us,
        costs.device_us,
        table.transfer_us(features.transfer_bytes),
    ));
    let mut choice = EngineChoice::CpuBcDfs;
    for candidate in EngineChoice::all() {
        if costs.of(candidate) < costs.of(choice) {
            choice = candidate;
        }
    }
    // When banked charging is live, surface the conflict-cost term in the
    // rationale whenever it changed the outcome: re-score without the term
    // and compare winners.
    if ctx.charge_banked {
        let uncharged =
            engine_costs(&features, table, &RouteContext { charge_banked: false, ..*ctx });
        let mut base_choice = EngineChoice::CpuBcDfs;
        for candidate in EngineChoice::all() {
            if uncharged.of(candidate) < uncharged.of(base_choice) {
                base_choice = candidate;
            }
        }
        if base_choice != choice {
            rationale.push(format!(
                "bank-conflict cost term (+{:.0}% device compute under banked charging) flips \
                 the decision: {} → {}",
                BANK_CONFLICT_COST_FRACTION * 100.0,
                base_choice.name(),
                choice.name(),
            ));
        }
    }
    rationale.push(format!("cheapest engine: {} at {:.1} µs", choice.name(), costs.of(choice)));
    let cost_estimate_us = costs.of(choice);
    RouteDecision { choice, features, costs, cost_estimate_us, rationale }
}

/// Evaluates the linear cost model for every engine.
fn engine_costs(features: &RouteFeatures, table: &RoutingTable, ctx: &RouteContext) -> EngineCosts {
    let transfer = table.transfer_us(features.transfer_bytes);
    let bc_dfs_us = table.bcdfs_fixed_us + table.bcdfs_us_per_unit * features.dfs_work;
    let join_us = table.join_fixed_us + table.join_us_per_unit * features.join_work;
    // Charged bank stalls inflate device compute (and only device compute:
    // the CPU engines never touch the card's DRAM banks).
    let bank_factor = if ctx.charge_banked { 1.0 + BANK_CONFLICT_COST_FRACTION } else { 1.0 };
    let device_compute = table.device_us_per_unit * features.dfs_work * bank_factor;
    let device_us = table.device_fixed_us + transfer + device_compute;
    EngineCosts { bc_dfs_us, join_us, device_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::prepare_csr;
    use pefp_graph::generators::chung_lu;
    use pefp_graph::{CsrGraph, VertexId};

    fn route(g: &CsrGraph, s: u32, t: u32, k: u32, cus: usize) -> RouteDecision {
        let prepared = prepare_csr(g, VertexId(s), VertexId(t), k);
        route_query(
            &prepared,
            &RoutingTable::builtin(),
            &RouteContext { compute_units: cus, charge_banked: false },
        )
    }

    #[test]
    fn builtin_table_is_valid() {
        assert!(RoutingTable::builtin().validate().is_empty());
    }

    #[test]
    fn tiny_queries_route_to_cpu() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let decision = route(&g, 0, 3, 3, 4);
        assert!(decision.choice.is_cpu(), "tiny diamond should skip the device: {decision:?}");
        assert!(!decision.rationale.is_empty());
    }

    #[test]
    fn infeasible_queries_cost_nothing() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let decision = route(&g, 0, 3, 5, 4);
        assert!(decision.choice.is_cpu());
        assert_eq!(decision.cost_estimate_us, 0.0);
        assert!(decision.rationale.iter().any(|r| r.contains("empty")));
    }

    #[test]
    fn saturated_estimates_are_device_tier() {
        // Complete K12 at k = 30: the walk DP saturates u64.
        let mut edges = Vec::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = CsrGraph::from_edges(12, &edges);
        let decision = route(&g, 0, 1, 30, 4);
        assert!(decision.features.estimate.saturated);
        assert!(!decision.choice.is_cpu(), "saturated must be device-tier: {decision:?}");
        assert!(decision.rationale.iter().any(|r| r.contains("saturated")));
    }

    #[test]
    fn decisions_are_deterministic() {
        let g = chung_lu(500, 6.0, 2.2, 13).to_csr();
        for &(s, t, k) in &[(0u32, 250u32, 3u32), (1, 100, 5), (7, 400, 6)] {
            let a = route(&g, s, t, k, 4);
            let b = route(&g, s, t, k, 4);
            assert_eq!(a.choice, b.choice);
            assert_eq!(a.rationale, b.rationale);
            assert_eq!(a.cost_estimate_us, b.cost_estimate_us);
        }
    }

    #[test]
    fn barrier_histogram_covers_every_vertex() {
        let g = chung_lu(300, 5.0, 2.2, 3).to_csr();
        let prepared = prepare_csr(&g, VertexId(0), VertexId(150), 4);
        let features = RouteFeatures::compute(&prepared);
        let total: u64 = features.barrier_histogram.iter().sum();
        assert_eq!(total, prepared.graph.num_vertices() as u64);
    }

    #[test]
    fn cost_model_is_monotone_in_work() {
        let table = RoutingTable::builtin();
        let ctx = RouteContext { compute_units: 1, charge_banked: false };
        let small = RouteFeatures {
            vertices: 10,
            edges: 20,
            k: 3,
            transfer_bytes: 1024,
            feasible: true,
            estimate: QueryEstimate {
                max_results: 5,
                max_intermediate_paths: 50,
                saturated: false,
            },
            barrier_histogram: vec![0; 5],
            dfs_work: 50.0,
            join_work: 20.0,
        };
        let mut big = small.clone();
        big.dfs_work = 5e6;
        big.join_work = 1e6;
        let small_costs = engine_costs(&small, &table, &ctx);
        let big_costs = engine_costs(&big, &table, &ctx);
        assert!(big_costs.bc_dfs_us > small_costs.bc_dfs_us);
        assert!(big_costs.join_us > small_costs.join_us);
        assert!(big_costs.device_us > small_costs.device_us);
    }

    #[test]
    fn banked_charging_inflates_only_device_costs() {
        let g = chung_lu(400, 6.0, 2.2, 9).to_csr();
        let prepared = prepare_csr(&g, VertexId(0), VertexId(200), 4);
        let table = RoutingTable::builtin();
        let base = route_query(
            &prepared,
            &table,
            &RouteContext { compute_units: 2, charge_banked: false },
        );
        let charged =
            route_query(&prepared, &table, &RouteContext { compute_units: 2, charge_banked: true });
        assert!(base.features.feasible && base.features.dfs_work > 0.0);
        // CPU engines never touch the card's DRAM banks.
        assert_eq!(base.costs.bc_dfs_us, charged.costs.bc_dfs_us);
        assert_eq!(base.costs.join_us, charged.costs.join_us);
        assert!(charged.costs.device_us > base.costs.device_us);
    }

    #[test]
    fn conflict_cost_flip_is_explained_in_the_rationale() {
        let g = chung_lu(400, 6.0, 2.2, 9).to_csr();
        let prepared = prepare_csr(&g, VertexId(0), VertexId(200), 4);
        let mut table = RoutingTable::builtin();
        let base = route_query(&prepared, &table, &RouteContext::default());
        assert!(base.features.feasible && !base.features.estimate.saturated);
        assert!(base.features.dfs_work <= table.cpu_work_ceiling);
        // Pin the BC-DFS cost halfway between the uncharged and charged
        // device cost, so the conflict-cost term alone decides the winner.
        let transfer = table.transfer_us(base.features.transfer_bytes);
        let compute = base.costs.device_us - table.device_fixed_us - transfer;
        assert!(compute > 0.0);
        table.bcdfs_us_per_unit = 1e-15;
        table.bcdfs_fixed_us =
            table.device_fixed_us + transfer + compute * (1.0 + BANK_CONFLICT_COST_FRACTION / 2.0);
        table.join_fixed_us = 1e9; // keep JOIN out of the race

        let ctx = RouteContext { compute_units: 1, charge_banked: false };
        let uncharged = route_query(&prepared, &table, &ctx);
        assert_eq!(uncharged.choice, EngineChoice::DeviceSingleCu);
        assert!(!uncharged.rationale.iter().any(|r| r.contains("bank-conflict")));

        let charged =
            route_query(&prepared, &table, &RouteContext { compute_units: 1, charge_banked: true });
        assert_eq!(charged.choice, EngineChoice::CpuBcDfs);
        assert!(
            charged.rationale.iter().any(|r| r.contains("bank-conflict cost term")),
            "flip must be explained: {:?}",
            charged.rationale
        );
    }
}
