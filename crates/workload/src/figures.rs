//! Per-figure experiment drivers.
//!
//! Every table and figure of the paper's evaluation (Section VII) has a
//! driver here that produces the same rows/series, at the reduced scale of
//! the synthetic stand-ins. The `figures` binary in `pefp-bench` is a thin
//! CLI wrapper around [`run_figure`].

use crate::report::{format_millis, Series, TableReport};
use crate::runner::Runner;
use pefp_core::PefpVariant;
use pefp_graph::{Dataset, GraphStats};
use serde::{Deserialize, Serialize};

/// Identifiers of the reproducible tables and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FigureSpec {
    /// Table II — dataset statistics.
    Table2,
    /// Fig. 8 — query processing time vs `k`, PEFP vs JOIN, all datasets.
    Fig8,
    /// Fig. 9 — preprocessing time vs `k` on four datasets.
    Fig9,
    /// Fig. 10 — total time vs `k` on four datasets.
    Fig10,
    /// Fig. 11 — average total time on all datasets at a fixed `k`.
    Fig11,
    /// Fig. 12 — Pre-BFS ablation.
    Fig12,
    /// Table III — newly generated intermediate paths per path length.
    Table3,
    /// Fig. 13 — Batch-DFS ablation.
    Fig13,
    /// Fig. 14 — caching ablation.
    Fig14,
    /// Fig. 15 — data-separation ablation.
    Fig15,
}

impl FigureSpec {
    /// All reproducible artefacts in paper order.
    pub fn all() -> [FigureSpec; 10] {
        [
            FigureSpec::Table2,
            FigureSpec::Fig8,
            FigureSpec::Fig9,
            FigureSpec::Fig10,
            FigureSpec::Fig11,
            FigureSpec::Fig12,
            FigureSpec::Table3,
            FigureSpec::Fig13,
            FigureSpec::Fig14,
            FigureSpec::Fig15,
        ]
    }

    /// Parses a CLI name such as `fig8`, `table2`, `fig-13`.
    pub fn parse(name: &str) -> Option<FigureSpec> {
        let normal: String =
            name.to_ascii_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        Some(match normal.as_str() {
            "table2" | "tableii" => FigureSpec::Table2,
            "fig8" | "figure8" => FigureSpec::Fig8,
            "fig9" | "figure9" => FigureSpec::Fig9,
            "fig10" | "figure10" => FigureSpec::Fig10,
            "fig11" | "figure11" => FigureSpec::Fig11,
            "fig12" | "figure12" => FigureSpec::Fig12,
            "table3" | "tableiii" => FigureSpec::Table3,
            "fig13" | "figure13" => FigureSpec::Fig13,
            "fig14" | "figure14" => FigureSpec::Fig14,
            "fig15" | "figure15" => FigureSpec::Fig15,
            _ => return None,
        })
    }

    /// Short identifier used in filenames and report headings.
    pub fn id(self) -> &'static str {
        match self {
            FigureSpec::Table2 => "table2",
            FigureSpec::Fig8 => "fig8",
            FigureSpec::Fig9 => "fig9",
            FigureSpec::Fig10 => "fig10",
            FigureSpec::Fig11 => "fig11",
            FigureSpec::Fig12 => "fig12",
            FigureSpec::Table3 => "table3",
            FigureSpec::Fig13 => "fig13",
            FigureSpec::Fig14 => "fig14",
            FigureSpec::Fig15 => "fig15",
        }
    }

    /// The paper's caption, abbreviated.
    pub fn title(self) -> &'static str {
        match self {
            FigureSpec::Table2 => "Table II: statistics of datasets (synthetic stand-ins)",
            FigureSpec::Fig8 => "Fig. 8: query processing time of tuning k for all datasets",
            FigureSpec::Fig9 => "Fig. 9: preprocessing time of tuning k",
            FigureSpec::Fig10 => "Fig. 10: total time of tuning k",
            FigureSpec::Fig11 => "Fig. 11: average total time of all datasets",
            FigureSpec::Fig12 => "Fig. 12: evaluation of Pre-BFS technique",
            FigureSpec::Table3 => "Table III: newly generated intermediate paths per path length",
            FigureSpec::Fig13 => "Fig. 13: evaluation of Batch-DFS technique",
            FigureSpec::Fig14 => "Fig. 14: evaluation of caching technique",
            FigureSpec::Fig15 => "Fig. 15: evaluation of data separation technique",
        }
    }
}

/// One panel of a figure: a dataset with its measured series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigurePanel {
    /// Dataset code (e.g. `"AM"`).
    pub dataset: String,
    /// Measured series (e.g. JOIN, PEFP and the speedup line).
    pub series: Vec<Series>,
}

/// Result of regenerating one table or figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureResult {
    /// Figure identifier (`fig8`, `table2`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Per-dataset panels (empty for pure tables).
    pub panels: Vec<FigurePanel>,
    /// Tabular renderings (always at least one, so every figure also has a
    /// textual form for EXPERIMENTS.md).
    pub tables: Vec<TableReport>,
}

impl FigureResult {
    /// Renders all tables of the figure as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

/// Runs one figure/table experiment against the given runner.
pub fn run_figure(spec: FigureSpec, runner: &mut Runner) -> FigureResult {
    match spec {
        FigureSpec::Table2 => table2(runner),
        FigureSpec::Fig8 => comparison_figure(spec, runner, &Dataset::all(), Metric::Query),
        FigureSpec::Fig9 => comparison_figure(spec, runner, &four_datasets(), Metric::Preprocess),
        FigureSpec::Fig10 => comparison_figure(spec, runner, &four_datasets(), Metric::Total),
        FigureSpec::Fig11 => fig11(runner),
        FigureSpec::Fig12 => ablation_figure(
            spec,
            runner,
            &[Dataset::BerkStan, Dataset::Baidu],
            PefpVariant::NoPreBfs,
        ),
        FigureSpec::Table3 => table3(runner),
        FigureSpec::Fig13 => ablation_figure(
            spec,
            runner,
            &[Dataset::BerkStan, Dataset::Baidu],
            PefpVariant::NoBatchDfs,
        ),
        FigureSpec::Fig14 => ablation_figure(
            spec,
            runner,
            &[Dataset::Reactome, Dataset::WebGoogle],
            PefpVariant::NoCache,
        ),
        FigureSpec::Fig15 => ablation_figure(
            spec,
            runner,
            &[Dataset::Reactome, Dataset::WebGoogle],
            PefpVariant::NoDataSep,
        ),
    }
}

/// The four datasets used by Fig. 9 and Fig. 10.
fn four_datasets() -> [Dataset; 4] {
    [Dataset::Amazon, Dataset::WikiTalk, Dataset::Skitter, Dataset::TwitterSocial]
}

/// Which timing column a comparison figure plots.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Metric {
    Query,
    Preprocess,
    Total,
}

/// Hop constraints evaluated for one dataset, filtered to the harness budget.
fn k_values(runner: &mut Runner, dataset: Dataset) -> Vec<u32> {
    let (lo, hi) = dataset.spec().k_range;
    (lo..=hi).filter(|&k| !runner.exceeds_budget(dataset, k)).collect()
}

fn table2(runner: &mut Runner) -> FigureResult {
    let mut table = TableReport::new(
        "Synthetic stand-in statistics next to the published Table II values",
        &[
            "Code",
            "Name",
            "|V|",
            "|E|",
            "d_avg",
            "D",
            "D90",
            "paper |V|",
            "paper |E|",
            "paper d_avg",
            "paper D",
            "paper D90",
        ],
    );
    for dataset in Dataset::all() {
        let spec = dataset.spec();
        let g = runner.graph(dataset).clone();
        let stats = GraphStats::compute(&g, 24);
        table.push_row(vec![
            spec.code.to_string(),
            spec.name.to_string(),
            stats.num_vertices.to_string(),
            stats.num_edges.to_string(),
            format!("{:.2}", stats.avg_degree),
            stats.diameter_estimate.to_string(),
            format!("{:.2}", stats.effective_diameter_90),
            spec.paper.num_vertices.to_string(),
            spec.paper.num_edges.to_string(),
            format!("{:.2}", spec.paper.avg_degree),
            spec.paper.diameter.to_string(),
            format!("{:.2}", spec.paper.effective_diameter_90),
        ]);
    }
    FigureResult {
        id: FigureSpec::Table2.id().to_string(),
        title: FigureSpec::Table2.title().to_string(),
        panels: Vec::new(),
        tables: vec![table],
    }
}

fn comparison_figure(
    spec: FigureSpec,
    runner: &mut Runner,
    datasets: &[Dataset],
    metric: Metric,
) -> FigureResult {
    let metric_name = match metric {
        Metric::Query => "query time",
        Metric::Preprocess => "preprocessing time",
        Metric::Total => "total time",
    };
    let mut panels = Vec::new();
    let mut table = TableReport::new(
        format!("{} — average {metric_name} per query (ms)", spec.title()),
        &["Dataset", "k", "JOIN", "PEFP", "speedup"],
    );
    for &dataset in datasets {
        let ks = k_values(runner, dataset);
        let mut join_y = Vec::new();
        let mut pefp_y = Vec::new();
        let mut xs = Vec::new();
        for &k in &ks {
            let Some(cmp) = runner.compare(dataset, k) else { continue };
            let (join_v, pefp_v) = match metric {
                Metric::Query => (cmp.join.query_ms, cmp.pefp.query_ms),
                Metric::Preprocess => (cmp.join.preprocess_ms, cmp.pefp.preprocess_ms),
                Metric::Total => (cmp.join.total_ms(), cmp.pefp.total_ms()),
            };
            xs.push(k as f64);
            join_y.push(join_v);
            pefp_y.push(pefp_v);
            let speedup = if pefp_v > 0.0 { join_v / pefp_v } else { f64::INFINITY };
            table.push_row(vec![
                dataset.code().to_string(),
                k.to_string(),
                format_millis(join_v),
                format_millis(pefp_v),
                format!("{speedup:.1}x"),
            ]);
        }
        if xs.is_empty() {
            continue;
        }
        let join_series = Series::new("JOIN", xs.clone(), join_y);
        let pefp_series = Series::new("PEFP", xs.clone(), pefp_y);
        let speedup = pefp_series.speedup_against(&join_series);
        panels.push(FigurePanel {
            dataset: dataset.code().to_string(),
            series: vec![join_series, pefp_series, speedup],
        });
    }
    FigureResult {
        id: spec.id().to_string(),
        title: spec.title().to_string(),
        panels,
        tables: vec![table],
    }
}

fn fig11(runner: &mut Runner) -> FigureResult {
    let mut table = TableReport::new(
        "Fig. 11 — average total time per query (preprocess + query, ms); k = 5 (8 for AM/TS)",
        &[
            "Dataset",
            "k",
            "JOIN pre",
            "JOIN query",
            "JOIN total",
            "PEFP pre",
            "PEFP query",
            "PEFP total",
            "speedup",
        ],
    );
    let mut panels = Vec::new();
    for dataset in Dataset::all() {
        // The paper uses k = 8 for the two sparse graphs (AM, TS) and 5 elsewhere.
        let k = match dataset {
            Dataset::Amazon | Dataset::TwitterSocial => 8,
            _ => 5,
        };
        let k = if runner.exceeds_budget(dataset, k) {
            // Fall back to the largest affordable k for that dataset.
            match k_values(runner, dataset).last() {
                Some(&k) => k,
                None => continue,
            }
        } else {
            k
        };
        let Some(cmp) = runner.compare(dataset, k) else { continue };
        table.push_row(vec![
            dataset.code().to_string(),
            k.to_string(),
            format_millis(cmp.join.preprocess_ms),
            format_millis(cmp.join.query_ms),
            format_millis(cmp.join.total_ms()),
            format_millis(cmp.pefp.preprocess_ms),
            format_millis(cmp.pefp.query_ms),
            format_millis(cmp.pefp.total_ms()),
            format!("{:.1}x", cmp.total_speedup()),
        ]);
        panels.push(FigurePanel {
            dataset: dataset.code().to_string(),
            series: vec![
                Series::new("JOIN total", vec![k as f64], vec![cmp.join.total_ms()]),
                Series::new("PEFP total", vec![k as f64], vec![cmp.pefp.total_ms()]),
            ],
        });
    }
    FigureResult {
        id: FigureSpec::Fig11.id().to_string(),
        title: FigureSpec::Fig11.title().to_string(),
        panels,
        tables: vec![table],
    }
}

fn ablation_figure(
    spec: FigureSpec,
    runner: &mut Runner,
    datasets: &[Dataset],
    degraded: PefpVariant,
) -> FigureResult {
    let mut panels = Vec::new();
    let mut table = TableReport::new(
        format!("{} — simulated device query time per query (ms)", spec.title()),
        &["Dataset", "k", degraded.name(), "PEFP", "speedup"],
    );
    for &dataset in datasets {
        let ks = k_values(runner, dataset);
        let mut xs = Vec::new();
        let mut full_y = Vec::new();
        let mut degraded_y = Vec::new();
        for &k in &ks {
            let full = runner.time_pefp_variant(dataset, k, PefpVariant::Full);
            let other = runner.time_pefp_variant(dataset, k, degraded);
            // The Pre-BFS ablation is reported on total time (its benefit
            // includes preprocessing and transfer); the others on query time.
            let (full_v, other_v) = if degraded == PefpVariant::NoPreBfs {
                (full.total_ms(), other.total_ms())
            } else {
                (full.query_ms, other.query_ms)
            };
            xs.push(k as f64);
            full_y.push(full_v);
            degraded_y.push(other_v);
            let speedup = if full_v > 0.0 { other_v / full_v } else { f64::INFINITY };
            table.push_row(vec![
                dataset.code().to_string(),
                k.to_string(),
                format_millis(other_v),
                format_millis(full_v),
                format!("{speedup:.1}x"),
            ]);
        }
        if xs.is_empty() {
            continue;
        }
        let full_series = Series::new("PEFP", xs.clone(), full_y);
        let degraded_series = Series::new(degraded.name(), xs.clone(), degraded_y);
        let speedup = full_series.speedup_against(&degraded_series);
        panels.push(FigurePanel {
            dataset: dataset.code().to_string(),
            series: vec![degraded_series, full_series, speedup],
        });
    }
    FigureResult {
        id: spec.id().to_string(),
        title: spec.title().to_string(),
        panels,
        tables: vec![table],
    }
}

fn table3(runner: &mut Runner) -> FigureResult {
    let k = 8;
    let samples = (runner.config.queries_per_point * 10).max(50);
    let datasets = [Dataset::Baidu, Dataset::BerkStan, Dataset::WikiTalk, Dataset::LiveJournal];
    let mut headers: Vec<String> = vec!["Dataset".to_string()];
    for l in 2..k {
        headers.push(format!("l = {l}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TableReport::new(
        format!(
            "Table III — newly generated intermediate paths when expanding {samples} paths of length l (k = {k})"
        ),
        &header_refs,
    );
    for dataset in datasets {
        let rows = runner.intermediate_path_counts(dataset, k, samples);
        let mut cells = vec![dataset.code().to_string()];
        for l in 2..k {
            let value = rows.iter().find(|(ll, _)| *ll == l).map(|(_, c)| *c).unwrap_or(0);
            cells.push(value.to_string());
        }
        table.push_row(cells);
    }
    FigureResult {
        id: FigureSpec::Table3.id().to_string(),
        title: FigureSpec::Table3.title().to_string(),
        panels: Vec::new(),
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentConfig;
    use pefp_graph::ScaleProfile;

    fn fast_runner() -> Runner {
        Runner::new(ExperimentConfig {
            scale: ScaleProfile::Tiny,
            queries_per_point: 2,
            max_expected_paths: 5.0e4,
            ..ExperimentConfig::default()
        })
    }

    #[test]
    fn spec_parsing_round_trips() {
        for spec in FigureSpec::all() {
            assert_eq!(FigureSpec::parse(spec.id()), Some(spec), "{}", spec.id());
        }
        assert_eq!(FigureSpec::parse("Figure 8"), Some(FigureSpec::Fig8));
        assert_eq!(FigureSpec::parse("TABLE-III"), Some(FigureSpec::Table3));
        assert_eq!(FigureSpec::parse("nonsense"), None);
    }

    #[test]
    fn table2_lists_all_datasets() {
        let mut runner = fast_runner();
        let result = run_figure(FigureSpec::Table2, &mut runner);
        assert_eq!(result.tables[0].rows.len(), 12);
        assert!(result.render().contains("Reactome"));
    }

    #[test]
    fn fig9_produces_panels_with_speedups() {
        let mut runner = fast_runner();
        let result = run_figure(FigureSpec::Fig9, &mut runner);
        assert!(!result.panels.is_empty());
        for panel in &result.panels {
            assert_eq!(panel.series.len(), 3);
            assert!(panel.series[2].label.contains("speedup"));
        }
    }

    #[test]
    fn fig15_ablation_never_beats_the_full_system() {
        let mut runner = fast_runner();
        let result = run_figure(FigureSpec::Fig15, &mut runner);
        for panel in &result.panels {
            let degraded = &panel.series[0];
            let full = &panel.series[1];
            for (d, f) in degraded.y.iter().zip(&full.y) {
                assert!(d >= f, "data separation should not slow the system down ({d} < {f})");
            }
        }
    }
}
