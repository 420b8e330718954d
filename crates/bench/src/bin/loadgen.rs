//! Open-loop TCP load generator for the PEFP network front door.
//!
//! Usage:
//!
//! ```text
//! # Self-hosted: spin up a front door on the gate graph, drive it, report.
//! cargo run -p pefp-bench --release --bin loadgen -- \
//!     --connections 256 --rate 1000 --requests 3000
//!
//! # Against an already-running server:
//! cargo run -p pefp-bench --release --bin loadgen -- \
//!     --addr 127.0.0.1:7070 --protocol line --json
//! ```
//!
//! Without `--addr` the generator binds its own front door
//! (`gate::tcp_load_front_door`: the 10k Chung-Lu gate graph, 4 CUs, warm
//! prepared-query cache) on an ephemeral loopback port and tears it down
//! after the run — the same setup the `bench_gate` `tcp_load/*` cases
//! measure.
//! Latency percentiles are scheduled-to-completion (coordinated omission
//! counts against the server), and `--json` emits the report as a single
//! machine-readable document.

use pefp_bench::gate;
use pefp_bench::loadgen::{run_open_loop, LoadConfig, LoadProtocol};
use pefp_workload::ToJson;
use std::net::{SocketAddr, ToSocketAddrs};

struct Args {
    addr: Option<SocketAddr>,
    connections: usize,
    rate: f64,
    requests: usize,
    protocol: LoadProtocol,
    json: bool,
}

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--connections N] [--rate REQ_PER_SEC] \
     [--requests N] [--protocol binary|line] [--json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        connections: gate::TCP_LOAD_CONNECTIONS,
        rate: gate::TCP_LOAD_RATE_PER_SEC,
        requests: gate::TCP_LOAD_REQUESTS,
        protocol: LoadProtocol::Binary,
        json: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--addr" => {
                let spec = value("--addr")?;
                args.addr = Some(
                    spec.to_socket_addrs()
                        .map_err(|e| format!("bad --addr {spec}: {e}"))?
                        .next()
                        .ok_or(format!("--addr {spec} resolves to nothing"))?,
                );
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("bad --connections: {e}"))?
            }
            "--rate" => {
                args.rate = value("--rate")?.parse().map_err(|e| format!("bad --rate: {e}"))?
            }
            "--requests" => {
                args.requests =
                    value("--requests")?.parse().map_err(|e| format!("bad --requests: {e}"))?
            }
            "--protocol" => {
                let spec = value("--protocol")?;
                args.protocol = LoadProtocol::parse(&spec)
                    .ok_or(format!("bad --protocol {spec} (binary|line)"))?;
            }
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.connections == 0 || args.requests == 0 || args.rate <= 0.0 {
        return Err("--connections, --requests and --rate must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let config = LoadConfig {
        connections: args.connections,
        rate_per_sec: args.rate,
        requests: args.requests,
        protocol: args.protocol,
        pool: gate::tcp_load_pool(),
    };
    let server = args.addr.is_none().then(gate::tcp_load_front_door);
    let addr = args.addr.unwrap_or_else(|| server.as_ref().expect("self-hosted").local_addr());
    eprintln!(
        "loadgen: {} requests at {}/s over {} {} connections -> {addr}",
        config.requests,
        config.rate_per_sec,
        config.connections,
        config.protocol.name()
    );
    let report = match run_open_loop(addr, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("loadgen: load run failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(server) = server {
        server.shutdown();
    }
    if args.json {
        println!("{}", report.to_json().render_pretty());
    } else {
        println!(
            "offered={} ok={} busy={} protocol_errors={} wall={:.3}s goodput={:.1}/s",
            report.offered,
            report.completed_ok,
            report.busy,
            report.protocol_errors,
            report.wall_secs,
            report.goodput_per_sec
        );
        println!(
            "latency (scheduled-to-completion): p50={:.3}ms p90={:.3}ms p99={:.3}ms \
             p999={:.3}ms max={:.3}ms",
            report.p50_ns as f64 / 1e6,
            report.p90_ns as f64 / 1e6,
            report.p99_ns as f64 / 1e6,
            report.p999_ns as f64 / 1e6,
            report.max_ns as f64 / 1e6
        );
    }
    if report.protocol_errors > 0 {
        std::process::exit(1);
    }
}
