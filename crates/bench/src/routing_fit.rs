//! Offline calibration of the adaptive router's [`RoutingTable`]: the fixed
//! query sweep, the per-engine measurements, the linear least-squares fit and
//! the `docs/routing_table.json` document behind the `routing_table` binary.
//!
//! The router itself (`pefp_core::route_query`) never measures anything —
//! its coefficients come from here:
//!
//! * the **sweep** is a fixed, deterministic set of queries spanning the
//!   regimes of the paper's evaluation (§VII): trivial diamonds, infeasible
//!   pairs, mid-size power-law subgraphs, 10k-hub device-tier work and a
//!   walk-count-saturating clique;
//! * `--write` measures BC-DFS and JOIN wall time per query (normalised to
//!   the reference machine through [`calibration_median_ns`], this module's
//!   machine-speed probe), takes the *modelled* device latency and PCIe
//!   transfer curve (both deterministic), fits one `fixed + unit × work` line
//!   per engine, rounds the coefficients aggressively and records the table
//!   **plus the routing decision of every sweep query** under it;
//! * `--check` is fully deterministic (no timing): the committed table must
//!   parse, validate, match [`RoutingTable::builtin`] exactly, and reproduce
//!   the recorded decision of every sweep query. Tier-1 runs the same check
//!   on the committed file; whether the table routes *well* is gated
//!   separately by the `bench_gate` floors `mixed_workload/router` and
//!   `mixed_workload/tiny_cpu`.

use pefp_core::{
    prepare_snapshot_with, route_query, run_prepared_on_device, PefpVariant, PrepareContext,
    PreparedQuery, RouteContext, RouteFeatures, RoutingTable,
};
use pefp_fpga::{Device, DeviceConfig, Pcie};
use pefp_graph::generators::chung_lu;
use pefp_graph::sink::CountingSink;
use pefp_graph::{CsrGraph, GraphSnapshot, VertexId};
use pefp_host::DmaEngine;
use pefp_workload::{routing_io, JsonValue, ToJson};
use std::time::Instant;

/// [`calibration_median_ns`] on the reference machine. CPU measurements are
/// rescaled to this reference before fitting, so the committed coefficients
/// are machine-independent up to rounding.
pub const REFERENCE_CALIBRATION_NS: f64 = 11_318_851.0;

/// CPU engines are only *timed* on queries whose work proxy stays below this
/// (the fit only needs the linear region; past it the sweep still records
/// the device-side decision).
pub const MEASURE_WORK_CAP: f64 = 1e7;

/// The graph a sweep query runs on, reconstructible from the spec alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepGraph {
    /// The 4-vertex diamond of the quickstart examples.
    Diamond,
    /// Two disconnected edges — every s-t query is infeasible.
    Disconnected,
    /// The complete digraph on 12 vertices — saturates the walk bounds at
    /// high `k`.
    Complete12,
    /// `chung_lu(n, deg_tenths / 10, 2.2, seed)`.
    ChungLu {
        /// Vertices.
        n: usize,
        /// Average degree × 10 (kept integral so the spec stays `Eq`).
        deg_tenths: u32,
        /// Generator seed.
        seed: u64,
    },
}

impl SweepGraph {
    fn build(self) -> CsrGraph {
        match self {
            SweepGraph::Diamond => CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            SweepGraph::Disconnected => CsrGraph::from_edges(4, &[(0, 1), (2, 3)]),
            SweepGraph::Complete12 => {
                let mut edges = Vec::new();
                for a in 0..12u32 {
                    for b in 0..12u32 {
                        if a != b {
                            edges.push((a, b));
                        }
                    }
                }
                CsrGraph::from_edges(12, &edges)
            }
            SweepGraph::ChungLu { n, deg_tenths, seed } => {
                chung_lu(n, deg_tenths as f64 / 10.0, 2.2, seed).to_csr()
            }
        }
    }
}

/// One sweep query: a stable name, the graph spec and the `(s, t, k)` triple.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Stable case name recorded in `docs/routing_table.json`.
    pub name: String,
    graph: SweepGraph,
    s: u32,
    t: u32,
    k: u32,
}

impl SweepSpec {
    /// Pre-BFS of this query on its freshly built graph.
    fn prepared(&self) -> PreparedQuery {
        let g = GraphSnapshot::from_csr(self.graph.build());
        let (s, t) = (VertexId(self.s), VertexId(self.t));
        prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, self.k, PefpVariant::Full)
    }
}

/// The fixed calibration sweep, in a deterministic order. Covers every
/// routing regime: infeasible, trivial-CPU, mid-size, device-tier hub work
/// and saturated walk bounds.
pub fn sweep_specs() -> Vec<SweepSpec> {
    let mut specs = Vec::new();
    let mut push = |name: &str, graph: SweepGraph, s: u32, t: u32, k: u32| {
        specs.push(SweepSpec { name: name.to_string(), graph, s, t, k });
    };
    push("diamond_k3", SweepGraph::Diamond, 0, 3, 3);
    push("disconnected_k5", SweepGraph::Disconnected, 0, 3, 5);
    push("clique12_k30", SweepGraph::Complete12, 0, 1, 30);
    let small = SweepGraph::ChungLu { n: 200, deg_tenths: 40, seed: 1 };
    for (s, t, k) in [(0, 7, 3), (3, 11, 4), (5, 50, 4), (20, 4, 5)] {
        push(&format!("cl200_s{s}_t{t}_k{k}"), small, s, t, k);
    }
    let mid = SweepGraph::ChungLu { n: 2_000, deg_tenths: 60, seed: 7 };
    for (s, t, k) in [(0, 1, 4), (1, 900, 4), (2, 3, 5), (10, 450, 5), (0, 2, 6)] {
        push(&format!("cl2000_s{s}_t{t}_k{k}"), mid, s, t, k);
    }
    let gate = SweepGraph::ChungLu { n: 10_000, deg_tenths: 80, seed: 3 };
    for (s, t, k) in [(0, 3, 5), (0, 3, 6), (1, 2, 6), (0, 3, 7), (4, 9, 6)] {
        push(&format!("cl10k_s{s}_t{t}_k{k}"), gate, s, t, k);
    }
    specs
}

/// One sweep query's measurements: the feature vector, the wall time of each
/// CPU engine (when within [`MEASURE_WORK_CAP`]) and the modelled device
/// latency.
#[derive(Debug, Clone)]
pub struct FitMeasurement {
    /// Sweep case name.
    pub name: String,
    /// The router's deterministic feature vector for the query.
    pub features: RouteFeatures,
    /// Median BC-DFS wall microseconds (reference-machine scale).
    pub bcdfs_us: Option<f64>,
    /// Median JOIN wall microseconds (reference-machine scale).
    pub join_us: Option<f64>,
    /// Modelled device kernel latency in microseconds (deterministic).
    pub device_us: Option<f64>,
}

fn median_us<F: FnMut()>(mut routine: F) -> f64 {
    routine(); // warm-up
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            routine();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples[samples.len() / 2]
}

/// Times the fixed calibration workload: generating the 10k Chung-Lu graph
/// (`chung_lu(10_000, 8.0, 2.2, 3)`) and building its CSR. The ratio of
/// [`REFERENCE_CALIBRATION_NS`] to this reading rescales the sweep's CPU
/// timings to the reference machine.
///
/// The probe deliberately times no serving-path code (Pre-BFS, engine,
/// device model, runtime), so a change there cannot shift the scale. A
/// change to the generator or the CSR builder does: it must rescale
/// [`REFERENCE_CALIBRATION_NS`] and its copy in `docs/routing_table.json` by
/// the probe's measured new/old ratio.
pub fn calibration_median_ns() -> f64 {
    median_us(|| {
        std::hint::black_box(chung_lu(10_000, 8.0, 2.2, 3).to_csr());
    }) * 1e3
}

/// Simulated kernel time in microseconds of `prepared` on one default CU:
/// the quantity the device line is fitted to.
fn kernel_us(prepared: &PreparedQuery) -> f64 {
    let device = Device::new(DeviceConfig::alveo_u200());
    let opts = PefpVariant::Full.engine_options();
    run_prepared_on_device(prepared, opts, device, &mut CountingSink::new()).query_millis * 1e3
}

/// Runs the sweep, timing the CPU engines (scaled by `cpu_scale`, the
/// reference-machine ratio) and taking the modelled device latency.
pub fn measure_sweep(cpu_scale: f64) -> Vec<FitMeasurement> {
    use pefp_baselines::{BcDfs, Join};
    use std::ops::ControlFlow;

    sweep_specs()
        .into_iter()
        .map(|spec| {
            let prepared = spec.prepared();
            let features = RouteFeatures::compute(&prepared);
            let feasible = features.feasible && !features.estimate.saturated;
            let pg = prepared.graph.as_ref();
            let (s, t, k) = (prepared.s, prepared.t, prepared.k);

            let bcdfs_us = (feasible && features.dfs_work <= MEASURE_WORK_CAP).then(|| {
                cpu_scale
                    * median_us(|| {
                        // Mirror the runtime's dispatch: prepared barrier with
                        // the source clamp, counting through the sink pipeline.
                        let mut bar = prepared.barrier.clone();
                        if let Some(b) = bar.get_mut(s.index()) {
                            *b = (*b).min(k);
                        }
                        let mut sink = CountingSink::new();
                        let _ = BcDfs::with_barrier(bar, k).enumerate_into(pg, s, t, k, &mut sink);
                        std::hint::black_box(sink.count());
                    })
            });
            let join_us = (feasible && features.join_work <= MEASURE_WORK_CAP).then(|| {
                cpu_scale
                    * median_us(|| {
                        let mut count = 0u64;
                        let mut sink = pefp_graph::sink::FnSink(|_: &[VertexId]| {
                            count += 1;
                            ControlFlow::Continue(())
                        });
                        let _ = Join::new().enumerate_into(pg, s, t, k, &mut sink);
                        std::hint::black_box(count);
                    })
            });
            let device_us =
                (features.feasible && !features.estimate.saturated).then(|| kernel_us(&prepared));

            FitMeasurement { name: spec.name, features, bcdfs_us, join_us, device_us }
        })
        .collect()
}

/// Ordinary least squares for `y = intercept + slope * x`. Returns `None`
/// when the points carry no spread in `x`.
fn fit_line(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let var_x = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum::<f64>();
    if var_x <= f64::EPSILON {
        return None;
    }
    let cov = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum::<f64>();
    let slope = cov / var_x;
    Some((mean_y - slope * mean_x, slope))
}

/// Rounds to `digits` significant digits (the committed table carries no
/// machine noise beyond this).
fn round_sig(value: f64, digits: i32) -> f64 {
    if value == 0.0 || !value.is_finite() {
        return 0.0;
    }
    let magnitude = value.abs().log10().floor() as i32;
    let factor = 10f64.powi(digits - 1 - magnitude);
    (value * factor).round() / factor
}

/// Fits one `fixed + unit × work` line per engine from the sweep
/// measurements and returns the rounded table. Engines without enough
/// measured spread keep the builtin coefficients; the policy threshold
/// (the CPU ceiling) is not fitted.
pub fn fit_table(measurements: &[FitMeasurement]) -> RoutingTable {
    let mut table = RoutingTable::builtin();

    let points = |select: &dyn Fn(&FitMeasurement) -> Option<(f64, f64)>| -> Vec<(f64, f64)> {
        measurements.iter().filter_map(select).collect()
    };
    let clamp = |intercept: f64, slope: f64| -> (f64, f64) {
        (round_sig(intercept.max(0.1), 2), round_sig(slope.max(1e-6), 2))
    };

    if let Some((fixed, unit)) =
        fit_line(&points(&|m| m.bcdfs_us.map(|us| (m.features.dfs_work, us))))
    {
        (table.bcdfs_fixed_us, table.bcdfs_us_per_unit) = clamp(fixed, unit);
    }
    if let Some((fixed, unit)) =
        fit_line(&points(&|m| m.join_us.map(|us| (m.features.join_work, us))))
    {
        (table.join_fixed_us, table.join_us_per_unit) = clamp(fixed, unit);
    }
    if let Some((fixed, unit)) =
        fit_line(&points(&|m| m.device_us.map(|us| (m.features.dfs_work, us))))
    {
        (table.device_fixed_us, table.device_us_per_unit) = clamp(fixed, unit);
    }

    // Transfer slope from the modelled DMA path the runtime itself uses
    // (PCIe link + descriptor framing), between two representative payloads.
    let cfg = DeviceConfig::alveo_u200();
    let mut dma = DmaEngine::with_defaults(Pcie::new(cfg.pcie_gbps, cfg.pcie_setup_us));
    let small = dma.transfer(64 << 10).total_millis * 1e3;
    let large = dma.transfer(8 << 20).total_millis * 1e3;
    let kib_delta = ((8 << 20) - (64 << 10)) as f64 / 1024.0;
    table.transfer_us_per_kib = round_sig(((large - small) / kib_delta).max(1e-6), 2);

    table
}

/// Routes every sweep query under `table` and returns `(case name, engine
/// name)` pairs. Fully deterministic.
pub fn sweep_decisions(table: &RoutingTable) -> Vec<(String, &'static str)> {
    let ctx = RouteContext::default();
    sweep_specs()
        .into_iter()
        .map(|spec| {
            let prepared = spec.prepared();
            let decision = route_query(&prepared, table, &ctx);
            (spec.name, decision.choice.name())
        })
        .collect()
}

/// Serialises the calibrated table plus its sweep decisions as the
/// `docs/routing_table.json` document.
pub fn table_document(
    table: &RoutingTable,
    decisions: &[(String, &'static str)],
    note: &str,
) -> JsonValue {
    let sweep: Vec<JsonValue> = decisions
        .iter()
        .map(|(name, engine)| {
            JsonValue::object(vec![
                ("name", JsonValue::String(name.clone())),
                ("engine", JsonValue::String(engine.to_string())),
            ])
        })
        .collect();
    JsonValue::object(vec![
        (
            "_meta",
            JsonValue::object(vec![
                ("artefact", JsonValue::String("routing_table".to_string())),
                ("note", JsonValue::String(note.to_string())),
                ("reference_calibration_ns", JsonValue::Number(REFERENCE_CALIBRATION_NS)),
            ]),
        ),
        ("table", table.to_json()),
        ("sweep", JsonValue::Array(sweep)),
    ])
}

/// Parses a `docs/routing_table.json` document back into the table and its
/// recorded sweep decisions.
pub fn parse_table_document(text: &str) -> Result<(RoutingTable, Vec<(String, String)>), String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let table = routing_io::routing_table_from_json(doc.get("table").ok_or("missing table")?)?;
    let sweep = doc
        .get("sweep")
        .and_then(JsonValue::as_array)
        .ok_or("missing sweep")?
        .iter()
        .map(|case| {
            let name = case
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("sweep case without name")?
                .to_string();
            let engine = case
                .get("engine")
                .and_then(JsonValue::as_str)
                .ok_or("sweep case without engine")?
                .to_string();
            Ok((name, engine))
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok((table, sweep))
}

/// The deterministic `--check` comparison: the committed table must be
/// valid, byte-equal in decisions to the recorded sweep, and in sync with
/// [`RoutingTable::builtin`]. Returns the human-readable failure list.
pub fn check_document(table: &RoutingTable, recorded: &[(String, String)]) -> Vec<String> {
    let mut failures = table.validate();
    if *table != RoutingTable::builtin() {
        failures.push(
            "committed table differs from RoutingTable::builtin() — update the builtin \
             coefficients in crates/core/src/routing.rs to match docs/routing_table.json"
                .to_string(),
        );
    }
    let fresh = sweep_decisions(table);
    if fresh.len() != recorded.len() {
        failures.push(format!(
            "sweep changed: {} cases recorded, {} in the code (regenerate with --write)",
            recorded.len(),
            fresh.len()
        ));
        return failures;
    }
    for ((name, engine), (rec_name, rec_engine)) in fresh.iter().zip(recorded) {
        if name != rec_name {
            failures.push(format!(
                "sweep case order changed: expected {rec_name}, derived {name} \
                 (regenerate with --write)"
            ));
        } else if engine != rec_engine {
            failures.push(format!(
                "{name}: committed table routes to {engine}, but {rec_engine} was recorded"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_line_recovers_a_known_line() {
        let points: Vec<(f64, f64)> =
            (0..10).map(|i| (i as f64 * 100.0, 3.0 + 0.25 * i as f64 * 100.0)).collect();
        let (intercept, slope) = fit_line(&points).unwrap();
        assert!((intercept - 3.0).abs() < 1e-9);
        assert!((slope - 0.25).abs() < 1e-12);
        assert_eq!(fit_line(&points[..1]), None);
        assert_eq!(fit_line(&[(5.0, 1.0), (5.0, 2.0)]), None);
    }

    #[test]
    fn round_sig_keeps_two_digits() {
        assert_eq!(round_sig(0.02345, 2), 0.023);
        assert_eq!(round_sig(1234.5, 2), 1200.0);
        assert_eq!(round_sig(0.0, 2), 0.0);
    }

    #[test]
    fn sweep_decisions_are_deterministic_and_cover_every_regime() {
        let table = RoutingTable::builtin();
        let a = sweep_decisions(&table);
        let b = sweep_decisions(&table);
        assert_eq!(a, b);
        assert_eq!(a.len(), sweep_specs().len());
        let engines: std::collections::BTreeSet<&str> = a.iter().map(|(_, e)| *e).collect();
        assert!(engines.contains("bc_dfs") || engines.contains("join"), "{engines:?}");
        assert!(engines.contains("device"), "{engines:?}");
    }

    #[test]
    fn document_round_trips_and_checks_clean() {
        let table = RoutingTable::builtin();
        let decisions = sweep_decisions(&table);
        let text = table_document(&table, &decisions, "test").render_pretty();
        let (parsed, recorded) = parse_table_document(&text).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(recorded.len(), decisions.len());
        assert!(check_document(&parsed, &recorded).is_empty());
        // A tampered decision is caught.
        let mut tampered = recorded.clone();
        tampered[0].1 = "join".to_string();
        let failures = check_document(&parsed, &tampered);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    /// Plan vs actual: for every device-routed decision, the router's
    /// predicted device cost without the transfer term is within 0.5–2× of
    /// the simulated kernel time of the single-CU job the runtime runs.
    /// Saturated decisions are skipped: their predicted magnitude is
    /// meaningless by the router's own rationale.
    #[test]
    fn device_cost_predicts_the_kernel_the_runtime_runs() {
        let table = RoutingTable::builtin();
        let ctx = RouteContext { compute_units: 4, charge_banked: false };
        let gate = SweepGraph::ChungLu { n: 10_000, deg_tenths: 80, seed: 3 };
        let mut specs = sweep_specs();
        for (s, t) in [(0, 1), (3, 7), (0, 3), (1, 2), (2, 5), (4, 9)] {
            for k in 5..=7 {
                specs.push(SweepSpec {
                    name: format!("gate_s{s}_t{t}_k{k}"),
                    graph: gate,
                    s,
                    t,
                    k,
                });
            }
        }
        let mut checked = 0;
        for spec in specs {
            let prepared = spec.prepared();
            let decision = route_query(&prepared, &table, &ctx);
            if decision.choice.is_cpu() || decision.features.estimate.saturated {
                continue;
            }
            let predicted =
                decision.cost_estimate_us - table.transfer_us(decision.features.transfer_bytes);
            let actual = kernel_us(&prepared);
            let ratio = predicted / actual;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: {} predicted {predicted:.1} µs, kernel ran {actual:.1} µs (ratio {ratio:.2})",
                spec.name,
                decision.choice.name(),
            );
            checked += 1;
        }
        assert!(checked >= 6, "only {checked} device-routed decisions checked");
    }

    #[test]
    fn committed_table_matches_builtin_and_its_sweep() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/routing_table.json");
        let text = std::fs::read_to_string(path).expect("docs/routing_table.json is committed");
        let (table, recorded) = parse_table_document(&text).unwrap();
        let failures = check_document(&table, &recorded);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
