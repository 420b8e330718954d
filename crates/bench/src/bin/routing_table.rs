//! Offline calibration of the adaptive router's cost table.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pefp-bench --release --bin routing_table -- --write docs/routing_table.json
//! cargo run -p pefp-bench --release --bin routing_table -- --check docs/routing_table.json
//! ```
//!
//! `--write` runs the fixed calibration sweep: it times BC-DFS and JOIN on
//! each query (normalised to the reference machine via
//! `routing_fit::calibration_median_ns`), takes the modelled device latency and
//! PCIe transfer curve (deterministic), fits one `fixed + unit × work` line
//! per engine, rounds aggressively and writes the table together with the
//! routing decision of every sweep query.
//!
//! `--check` is the command to run after `--write`. It is **fully
//! deterministic** — no timing — and tier-1 runs the same check
//! (`routing_fit::tests::committed_table_matches_builtin_and_its_sweep`): the
//! committed table must parse, validate, equal [`RoutingTable::builtin`]
//! (so the in-code fallback can never drift from the committed file) and
//! reproduce every recorded sweep decision. Whether the table routes *well*
//! is gated separately by the `bench_gate` mixed-workload floors.
//!
//! [`RoutingTable::builtin`]: pefp_core::RoutingTable::builtin

use pefp_bench::routing_fit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [mode, path] if mode == "--write" || mode == "--check" => (mode.as_str(), path.as_str()),
        _ => {
            eprintln!(
                "usage: routing_table --write <routing_table.json> | --check <routing_table.json>"
            );
            std::process::exit(2);
        }
    };

    match mode {
        "--write" => {
            eprintln!("# calibrating machine speed ...");
            let calibration_ns = routing_fit::calibration_median_ns();
            let cpu_scale = routing_fit::REFERENCE_CALIBRATION_NS / calibration_ns;
            eprintln!(
                "# calibration median: {calibration_ns:.0} ns (reference scale {cpu_scale:.3})"
            );
            eprintln!("# measuring the calibration sweep ...");
            let measurements = routing_fit::measure_sweep(cpu_scale);
            for m in &measurements {
                let fmt = |us: Option<f64>| {
                    us.map(|v| format!("{v:.1} µs")).unwrap_or_else(|| "-".to_string())
                };
                eprintln!(
                    "#   {}: dfs work {:.0}, join work {:.0} | bc_dfs {}, join {}, device {}",
                    m.name,
                    m.features.dfs_work,
                    m.features.join_work,
                    fmt(m.bcdfs_us),
                    fmt(m.join_us),
                    fmt(m.device_us),
                );
            }
            let table = routing_fit::fit_table(&measurements);
            let problems = table.validate();
            if !problems.is_empty() {
                for p in &problems {
                    eprintln!("error: fitted table invalid: {p}");
                }
                std::process::exit(1);
            }
            let decisions = routing_fit::sweep_decisions(&table);
            for (name, engine) in &decisions {
                eprintln!("#   {name} -> {engine}");
            }
            let note = "adaptive-router calibration: per-engine `fixed + unit x work` \
                        latencies fitted on the fixed sweep (CPU wall times rescaled to the \
                        reference machine, device/transfer from the deterministic model), \
                        rounded to 2 significant digits. The sweep records each \
                        query's decision; --check re-derives them without timing.";
            let json = routing_fit::table_document(&table, &decisions, note).render_pretty();
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("# wrote {path}");
            if table != pefp_core::RoutingTable::builtin() {
                eprintln!(
                    "# NOTE: the fitted table differs from RoutingTable::builtin(); update \
                     crates/core/src/routing.rs to match or --check will fail"
                );
            }
        }
        "--check" => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            let (table, recorded) = routing_fit::parse_table_document(&text).unwrap_or_else(|e| {
                eprintln!("error: cannot parse {path}: {e}");
                std::process::exit(2);
            });
            let failures = routing_fit::check_document(&table, &recorded);
            if failures.is_empty() {
                eprintln!(
                    "# routing table OK: {} sweep decisions reproduced, builtin in sync",
                    recorded.len()
                );
            } else {
                for failure in &failures {
                    eprintln!("FAIL: {failure}");
                }
                std::process::exit(1);
            }
        }
        _ => unreachable!(),
    }
}
