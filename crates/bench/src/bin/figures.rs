//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p pefp-bench --release --bin figures -- all
//! cargo run -p pefp-bench --release --bin figures -- fig8 fig12 table3
//! cargo run -p pefp-bench --release --bin figures -- all --scale small --queries 20 --json out/
//! ```
//!
//! Options:
//!
//! * `--scale tiny|small|medium` — size of the synthetic dataset stand-ins
//!   (default `tiny`, which finishes in seconds; `small` is the base size of
//!   each stand-in and the profile meant for figure regeneration).
//! * `--queries N` — query pairs averaged per (dataset, k) point (default 5).
//! * `--json DIR` — additionally write each figure's series/tables as JSON.

use pefp_bench::{make_runner, parse_scale};
use pefp_graph::ScaleProfile;
use pefp_workload::figures::{run_figure, FigureSpec};
use pefp_workload::ToJson;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut specs: Vec<FigureSpec> = Vec::new();
    let mut scale = ScaleProfile::Tiny;
    let mut queries = 5usize;
    let mut json_dir: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|v| parse_scale(v))
                    .unwrap_or_else(|| die("--scale expects tiny|small|medium"));
            }
            "--queries" => {
                i += 1;
                queries = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--queries expects a positive integer"));
            }
            "--json" => {
                i += 1;
                json_dir =
                    Some(args.get(i).cloned().unwrap_or_else(|| die("--json expects a directory")));
            }
            "all" => specs.extend(FigureSpec::all()),
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => match FigureSpec::parse(other) {
                Some(spec) => specs.push(spec),
                None => die(&format!("unknown figure `{other}` (try --help)")),
            },
        }
        i += 1;
    }
    if specs.is_empty() {
        print_help();
        return;
    }
    specs.dedup();

    eprintln!(
        "# regenerating {} artefact(s) at scale {:?} with {} queries per point",
        specs.len(),
        scale,
        queries
    );
    let mut runner = make_runner(scale, queries);
    for spec in specs {
        let started = std::time::Instant::now();
        let result = run_figure(spec, &mut runner);
        println!("{}", result.render());
        eprintln!("# {} finished in {:.1} s", spec.id(), started.elapsed().as_secs_f64());
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json output directory");
            let path = format!("{dir}/{}.json", spec.id());
            // Hand-rolled JSON (pefp_workload::json): the offline serde shim
            // cannot produce machine-readable output.
            let json = result.to_json().render_pretty();
            std::fs::write(&path, json).expect("write figure json");
            eprintln!("# wrote {path}");
        }
    }
}

fn print_help() {
    println!(
        "figures — regenerate the PEFP paper's tables and figures\n\n\
         usage: figures [all | table2 fig8 fig9 fig10 fig11 fig12 table3 fig13 fig14 fig15]...\n\
         \u{20}       [--scale tiny|small|medium] [--queries N] [--json DIR]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
