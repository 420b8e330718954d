//! `--compare A.json B.json`: the table later performance issues quote.
//!
//! Each file is a `results.json` written by `run.sh`: `{"runs": [...]}` with
//! one entry per run. For every (end-to-end metric, workload) pair the table
//! gives both medians, how much worse B is, the bound, and a verdict.

use crate::spec::{self, MetricSpec};
use crate::stats;
use pefp_workload::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's run-to-run spread is wider than the bound, so a difference
    /// within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median; 0 for fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    match (stats::quartiles(values), stats::median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when better).
fn worse_by(metric: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let worse = worse_by(metric, stats::median(a), stats::median(b));
    if worse > bound {
        return Verdict::Worse;
    }
    // Set-up is timed three times a run, so one slow set-up widens its spread
    // a lot; like the pipeline, judge it by its medians alone.
    if metric.name != "setup_s" && (spread(a) > bound || spread(b) > bound) {
        // Too noisy to call, unless every run of B beats every run of A.
        let b_always_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(metric, x, y) < 0.0));
        return if b_always_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// workload -> metric -> one value per untraced run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// (workload, seed) -> the run's determinism fingerprint: op-list hash, paths
/// and simulated µs of the first complete pass.
type Fingerprints = BTreeMap<(String, u64), (String, f64, f64)>;

/// The workload whose simulated time may differ between runs of one seed:
/// 4 CUs and 2 connections, so the arbiter sees whichever CUs overlap.
const CONCURRENT_DEVICE: &str = "tcp_hot";

fn load(path: &str) -> Result<(Runs, Fingerprints), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let runs =
        doc.get("runs").and_then(JsonValue::as_array).ok_or(format!("{path}: no \"runs\""))?;
    let mut out = Runs::new();
    let mut prints = Fingerprints::new();
    for run in runs.iter().filter(|r| r.get("trace") == Some(&JsonValue::Bool(false))) {
        let workload =
            run.get("workload").and_then(JsonValue::as_str).ok_or("run without workload")?;
        let info = |key: &str| run.get("info").and_then(|i| i.get(key));
        if let (Some(seed), Some(hash), Some(paths), Some(sim_us)) = (
            run.get("seed").and_then(JsonValue::as_number),
            info("op_list_hash").and_then(JsonValue::as_str),
            info("list_paths").and_then(JsonValue::as_number),
            info("list_sim_us").and_then(JsonValue::as_number),
        ) {
            prints.insert((workload.to_string(), seed as u64), (hash.to_string(), paths, sim_us));
        }
        let Some(JsonValue::Object(metrics)) = run.get("metrics") else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, m) in metrics {
            let value =
                m.get("value").and_then(JsonValue::as_number).ok_or("metric without value")?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok((out, prints))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let ((a, a_prints), (b, b_prints)) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = spec::load();
    println!(
        "{:<13} {:<14} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread A", "spread B", "bound"
    );
    let mut bad = 0;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let values =
                |runs: &Runs| runs.get(workload).and_then(|w| w.get(&metric.name)).cloned();
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else { continue };
            let v = verdict(metric, &va, &vb);
            bad += u32::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            println!(
                "{:<13} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>7.2}% {:>5.1}%  {}",
                workload,
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                worse_by(metric, stats::median(&va), stats::median(&vb)) * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                v.name()
            );
        }
    }
    // Runs of one seed must agree exactly on what they ran and what it cost
    // on the simulated clock.
    for (key, pa) in &a_prints {
        let Some(pb) = b_prints.get(key) else { continue };
        let (workload, seed) = key;
        let same_ops = pa.0 == pb.0 && pa.1 == pb.1;
        let same_sim = pa.2 == pb.2;
        let required = same_ops && (same_sim || workload == CONCURRENT_DEVICE);
        bad += u32::from(!required);
        println!(
            "{workload:<13} seed {seed:<6} op list {} | first pass {} paths, {} sim us: {}",
            pa.0,
            pa.1,
            pa.2,
            match (same_ops, same_sim) {
                (true, true) => "exact".to_string(),
                (true, false) => format!("sim differs (B: {})", pb.2),
                (false, _) => format!("OPS DIFFER (B: {} / {} paths)", pb.0, pb.1),
            }
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad} row(s) worse, unresolved or not repeating");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "u".into(), higher_is_better, bound: Some(bound) }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(false, 0.10);
        assert_eq!(verdict(&lower, &[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]), Verdict::Same);
        assert_eq!(verdict(&lower, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]), Verdict::Worse);
        assert_eq!(verdict(&lower, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]), Verdict::Better);
        let higher = metric(true, 0.10);
        assert_eq!(verdict(&higher, &[100.0], &[80.0]), Verdict::Worse);
        assert_eq!(verdict(&higher, &[100.0], &[120.0]), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let lower = metric(false, 0.10);
        let noisy = [80.0, 100.0, 130.0, 90.0, 120.0];
        assert!(spread(&noisy) > 0.10);
        assert_eq!(verdict(&lower, &noisy, &[95.0, 100.0, 105.0]), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &noisy, &[60.0, 70.0, 65.0]), Verdict::Better);
        // Beyond the bound is worse however noisy the parent was.
        assert_eq!(verdict(&lower, &noisy, &[150.0, 151.0, 152.0]), Verdict::Worse);
        // Set-up time is judged by its medians alone.
        let setup = MetricSpec { name: "setup_s".into(), ..lower };
        assert_eq!(verdict(&setup, &noisy, &[95.0, 100.0, 105.0]), Verdict::Same);
    }
}
