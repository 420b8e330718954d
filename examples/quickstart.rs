//! Quickstart: load (or generate) a graph, run one PEFP query, print the
//! paths and the simulated device report.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart [path/to/edge_list.txt] [s] [t] [k]
//! ```
//!
//! Without arguments a small synthetic social graph is generated and a sample
//! query is executed on it.

use pefp::enumerate_paths;
use pefp::graph::{generators, io, DiGraph, VertexId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // 1. Load the graph: either from an edge-list file or a generated stand-in.
    let graph: DiGraph = match args.first() {
        Some(path) => {
            println!("loading edge list from {path}");
            io::read_edge_list_file(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            println!("no input file given; generating a 1,000-vertex power-law graph");
            generators::chung_lu(1_000, 6.0, 2.2, 42)
        }
    };
    let csr = graph.to_csr();
    println!("graph: {} vertices, {} edges", csr.num_vertices(), csr.num_edges());

    // 2. Pick the query.
    let parse =
        |i: usize, default: u32| args.get(i).and_then(|v| v.parse().ok()).unwrap_or(default);
    let s = VertexId(parse(1, 0));
    let t = VertexId(parse(2, (csr.num_vertices() as u32 / 2).max(1)));
    let k = parse(3, 5);
    println!("query: enumerate simple paths {s} -> {t} with at most {k} hops\n");

    // 3. Run the full PEFP pipeline (Pre-BFS on the host, enumeration on the
    //    simulated Alveo U200).
    let result = enumerate_paths(&csr, s, t, k);

    // 4. Report.
    println!("found {} path(s)", result.num_paths);
    for (i, path) in result.paths.iter().take(10).enumerate() {
        let rendered: Vec<String> = path.iter().map(|v| v.0.to_string()).collect();
        println!("  #{:<3} {}", i + 1, rendered.join(" -> "));
    }
    if result.paths.len() > 10 {
        println!("  ... and {} more", result.paths.len() - 10);
    }
    println!();
    println!("preprocessing (host)      : {:8.3} ms", result.preprocess_millis);
    println!("query (simulated device)  : {:8.3} ms", result.query_millis);
    println!("total                     : {:8.3} ms", result.total_millis());
    println!(
        "device: {} cycles, {} DRAM words moved, {} buffer flushes, cache hit rate {:.1}%",
        result.device.cycles,
        result.device.counters.dram_words_total(),
        result.device.counters.buffer_flushes,
        result.device.counters.cache_hit_rate() * 100.0
    );
}
