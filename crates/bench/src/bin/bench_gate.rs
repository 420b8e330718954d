//! CI bench gate: runs the within-run floors of `pefp_bench::gate::CASES`
//! and exits 1 when any signal leaves its bound.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pefp-bench --release --bin bench_gate               # every case
//! cargo run -p pefp-bench --release --bin bench_gate -- bank_layout # cases by name prefix
//! ```
//!
//! Every signal is a ratio of two measurements taken in the same run, so the
//! gate reads no baseline file and needs no machine calibration. Exact cycle
//! anchors are tier-1 tests, and wall-clock regression is `benchmark/`'s job.

use pefp_bench::gate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prefix = match args.as_slice() {
        [] => "",
        [prefix] if !prefix.starts_with('-') => prefix.as_str(),
        _ => {
            eprintln!("usage: bench_gate [case-name prefix]");
            std::process::exit(2);
        }
    };
    let cases: Vec<&gate::GateCase> =
        gate::CASES.iter().filter(|case| case.name.starts_with(prefix)).collect();
    if cases.is_empty() {
        eprintln!("error: no gate case name starts with {prefix:?}");
        std::process::exit(2);
    }

    let mut failed = 0;
    for case in &cases {
        let (value, passed) = case.check();
        failed += usize::from(!passed);
        println!(
            "{} {}: {} = {value:.3} ({})",
            if passed { "ok  " } else { "FAIL" },
            case.name,
            case.signal,
            case.bound
        );
    }
    if failed == 0 {
        println!("bench gate PASSED ({} cases)", cases.len());
    } else {
        eprintln!("bench gate FAILED ({failed} of {} cases)", cases.len());
        std::process::exit(1);
    }
}
