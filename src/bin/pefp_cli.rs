//! `pefp-cli` — command-line front end for the PEFP reproduction.
//!
//! ```text
//! pefp-cli query   <GRAPH> <s> <t> <k>      enumerate s-t k-paths on a graph
//! pefp-cli serve   <GRAPH>                  interactive QUERY/COUNT/STATS server on stdin
//! pefp-cli batch   <GRAPH> <k> <count>      run a batched workload (Section VII-A style)
//! pefp-cli detect  [txns] [accounts]        streaming fraud detection demo
//! pefp-cli datasets                         list the Table II dataset stand-ins
//! pefp-cli help                             this message
//! ```
//!
//! `<GRAPH>` is either a path to an edge-list file (plain, SNAP or KONECT
//! dialect — auto-detected) or `dataset:<CODE>[:<scale>]` for one of the
//! paper's stand-ins, e.g. `dataset:SE` or `dataset:BS:small`.

use pefp::graph::sampling::sample_reachable_pairs;
use pefp::graph::{Dataset, GraphStats, ScaleProfile};
use pefp::host::{
    load_dataset, load_edge_list_file, serve, GraphHandle, HostSession, QueryRequest, SessionConfig,
};
use pefp::streaming::{
    RuntimeCycleDetector, RuntimeDetectorConfig, TransactionGenerator, TransactionGeneratorConfig,
};

const HELP: &str = "\
pefp-cli — k-hop constrained s-t simple path enumeration (PEFP reproduction)

USAGE:
    pefp-cli query   <GRAPH> <s> <t> <k>
    pefp-cli serve   <GRAPH>
    pefp-cli batch   <GRAPH> <k> <count>
    pefp-cli detect  [transactions] [accounts]
    pefp-cli datasets
    pefp-cli help

GRAPH:
    a path to an edge-list file (plain / SNAP / KONECT, auto-detected), or
    dataset:<CODE>[:<scale>] — e.g. dataset:SE, dataset:BS:small, dataset:AM:tiny
";

/// Parses a `<GRAPH>` argument into a loaded handle.
fn parse_graph_spec(spec: &str) -> Result<GraphHandle, String> {
    if let Some(rest) = spec.strip_prefix("dataset:") {
        let mut parts = rest.split(':');
        let code = parts.next().unwrap_or_default();
        let scale = match parts.next().unwrap_or("small").to_ascii_lowercase().as_str() {
            "tiny" => ScaleProfile::Tiny,
            "small" => ScaleProfile::Small,
            "medium" => ScaleProfile::Medium,
            other => return Err(format!("unknown scale {other:?} (tiny|small|medium)")),
        };
        let dataset = Dataset::from_code(&code.to_ascii_uppercase())
            .ok_or_else(|| format!("unknown dataset code {code:?} (see `pefp-cli datasets`)"))?;
        Ok(load_dataset(dataset, scale))
    } else {
        load_edge_list_file(spec).map_err(|e| e.to_string())
    }
}

fn parse_u32(value: &str, name: &str) -> Result<u32, String> {
    value
        .parse::<u32>()
        .map_err(|_| format!("{name} must be a non-negative integer, got {value:?}"))
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [graph_spec, s, t, k] = args else {
        return Err("usage: pefp-cli query <GRAPH> <s> <t> <k>".to_string());
    };
    let handle = parse_graph_spec(graph_spec)?;
    println!("loaded {}", handle.summary());
    let request = QueryRequest::new(parse_u32(s, "s")?, parse_u32(t, "t")?, parse_u32(k, "k")?);
    let mut session = HostSession::with_graph(handle.csr.clone(), SessionConfig::default());
    let outcome = session.run_query(request).map_err(|e| e.to_string())?;
    println!("paths found           : {}", outcome.num_paths);
    for (i, path) in outcome.paths.iter().take(10).enumerate() {
        let rendered: Vec<String> = path.iter().map(|v| v.0.to_string()).collect();
        println!("  #{:<3} {}", i + 1, rendered.join(" -> "));
    }
    if outcome.paths.len() > 10 {
        println!("  ... and {} more", outcome.paths.len() - 10);
    }
    println!("preprocessing (T1)    : {:9.3} ms", outcome.preprocess_millis);
    println!(
        "PCIe transfer         : {:9.3} ms ({} bytes)",
        outcome.transfer.total_millis, outcome.transfer.bytes
    );
    println!("device enumeration(T2): {:9.3} ms", outcome.device_millis);
    println!("total                 : {:9.3} ms", outcome.total_millis());
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let [graph_spec] = args else {
        return Err("usage: pefp-cli serve <GRAPH>".to_string());
    };
    let handle = parse_graph_spec(graph_spec)?;
    eprintln!("loaded {}; type HELP for commands, QUIT to exit", handle.summary());
    let mut session = HostSession::with_graph(handle.csr.clone(), SessionConfig::default());
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let served = serve(&mut session, stdin.lock(), stdout.lock()).map_err(|e| e.to_string())?;
    eprintln!("served {served} command(s)");
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let [graph_spec, k, count] = args else {
        return Err("usage: pefp-cli batch <GRAPH> <k> <count>".to_string());
    };
    let handle = parse_graph_spec(graph_spec)?;
    let k = parse_u32(k, "k")?;
    let count = parse_u32(count, "count")? as usize;
    println!("loaded {}", handle.summary());
    let requests: Vec<QueryRequest> = sample_reachable_pairs(&handle.csr, k, count, 0x5EED)
        .into_iter()
        .map(|(s, t)| QueryRequest { s, t, k })
        .collect();
    if requests.is_empty() {
        return Err("no reachable (s, t) pairs found for this k".to_string());
    }
    println!("running {} reachable queries with k = {k}", requests.len());
    let mut session = HostSession::with_graph(
        handle.csr.clone(),
        SessionConfig { collect_paths: false, ..SessionConfig::default() },
    );
    let outcome = session.run_batch(&requests).map_err(|e| e.to_string())?;
    let transfer = outcome.batched_transfer;
    println!("total paths           : {}", outcome.total_paths());
    println!("preprocessing (T1)    : {:9.2} ms", outcome.preprocess_millis);
    println!(
        "single DMA transfer   : {:9.2} ms ({} bytes, {} descriptors)",
        transfer.total_millis, transfer.bytes, transfer.descriptors
    );
    println!("device enumeration(T2): {:9.2} ms", outcome.device_millis);
    let total = outcome.preprocess_millis + transfer.total_millis + outcome.device_millis;
    println!("avg total per query   : {:9.3} ms", total / outcome.results.len() as f64);
    Ok(())
}

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let transactions =
        args.first().map(|v| parse_u32(v, "transactions")).transpose()?.unwrap_or(2_000) as usize;
    let accounts = args.get(1).map(|v| parse_u32(v, "accounts")).transpose()?.unwrap_or(500);
    if accounts < 4 {
        return Err("accounts must be at least 4".to_string());
    }
    let mut generator = TransactionGenerator::new(TransactionGeneratorConfig {
        num_accounts: accounts,
        fraud_probability: 0.03,
        ring_size: 4,
        seed: 0xF2AD,
    });
    let stream = generator.stream(transactions);
    let mut detector = RuntimeCycleDetector::new(RuntimeDetectorConfig {
        max_cycle_hops: 6,
        window_size: 10_000,
        ..RuntimeDetectorConfig::default()
    });
    let alerts = detector.ingest_stream(&stream);
    let stats = detector.stats();
    println!("transactions          : {}", stats.transactions);
    println!("alerts                : {} ({} cycles)", stats.alerts, stats.cycles);
    println!("alerts on fraud rings : {}", stats.true_positive_alerts);
    println!("fraud recall          : {:.1}%", detector.fraud_recall() * 100.0);
    println!("host time             : {:9.1} ms", stats.host_millis);
    println!("simulated device time : {:9.2} ms", stats.device_millis);
    if let Some(alert) = alerts.first() {
        println!(
            "first alert: transaction {} -> {} at ts {} closed {} cycle(s)",
            alert.transaction.from,
            alert.transaction.to,
            alert.transaction.timestamp,
            alert.cycles.len()
        );
    }
    Ok(())
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<6} {:<16} {:>10} {:>10} {:>8}   {:>10} {:>10} {:>7}",
        "code", "name", "paper |V|", "paper |E|", "paper d", "standin|V|", "standin|E|", "d"
    );
    for dataset in Dataset::all() {
        let spec = dataset.spec();
        let g = dataset.generate(ScaleProfile::Small).to_csr();
        let stats = GraphStats::compute(&g, 16);
        println!(
            "{:<6} {:<16} {:>10} {:>10} {:>8.1}   {:>10} {:>10} {:>7.1}",
            spec.code,
            spec.name,
            spec.paper.num_vertices,
            spec.paper.num_edges,
            spec.paper.avg_degree,
            stats.num_vertices,
            stats.num_edges,
            stats.avg_degree
        );
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest.to_vec()),
        None => {
            print!("{HELP}");
            return;
        }
    };
    let result = match command {
        "query" => cmd_query(&rest),
        "serve" => cmd_serve(&rest),
        "batch" => cmd_batch(&rest),
        "detect" => cmd_detect(&rest),
        "datasets" => cmd_datasets(),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{HELP}")),
    };
    if let Err(message) = result {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_specs_parse_with_and_without_scale() {
        let h = parse_graph_spec("dataset:RT").unwrap();
        assert!(h.num_vertices() > 0);
        let h = parse_graph_spec("dataset:am:tiny").unwrap();
        assert!(h.num_vertices() > 0);
        assert!(parse_graph_spec("dataset:NOPE").is_err());
        assert!(parse_graph_spec("dataset:RT:huge").is_err());
        assert!(parse_graph_spec("/does/not/exist.txt").is_err());
    }

    #[test]
    fn integer_parsing_reports_the_argument_name() {
        assert_eq!(parse_u32("17", "k").unwrap(), 17);
        let err = parse_u32("x", "k").unwrap_err();
        assert!(err.contains('k'));
    }

    #[test]
    fn query_command_runs_end_to_end_on_a_dataset_standin() {
        // Find a reachable pair first so the command always succeeds.
        let handle = parse_graph_spec("dataset:TS:tiny").unwrap();
        let (s, t) = sample_reachable_pairs(&handle.csr, 4, 1, 1)[0];
        let args =
            vec!["dataset:TS:tiny".to_string(), s.0.to_string(), t.0.to_string(), "4".to_string()];
        assert!(cmd_query(&args).is_ok());
    }

    #[test]
    fn batch_and_detect_commands_run_on_small_inputs() {
        let args = vec!["dataset:TS:tiny".to_string(), "4".to_string(), "3".to_string()];
        assert!(cmd_batch(&args).is_ok());
        assert!(cmd_detect(&["200".to_string(), "50".to_string()]).is_ok());
        assert!(cmd_detect(&["200".to_string(), "2".to_string()]).is_err());
    }

    #[test]
    fn usage_errors_are_reported_not_panicked() {
        assert!(cmd_query(&[]).is_err());
        assert!(cmd_batch(&["only-one-arg".to_string()]).is_err());
        assert!(cmd_serve(&[]).is_err());
        assert!(cmd_datasets().is_ok());
    }
}
