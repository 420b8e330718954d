//! Open-loop TCP load generation against the [`pefp_host::net`] front door.
//!
//! The harness models an *open* system: requests arrive on a fixed global
//! schedule (`t_i = start + i / rate`) regardless of how fast the server
//! answers, the standard guard against coordinated omission — a slow server
//! does not slow the arrival process down, it accumulates lateness, and that
//! lateness is charged to the latency of every delayed request. Request `i`
//! is issued on persistent connection `i % connections`, so the connection
//! count bounds in-flight concurrency while the schedule fixes offered load.
//!
//! Latency is measured from the *scheduled* arrival time to reply
//! completion, so queueing delay inside the generator counts. Replies are
//! classified as `ok` (a well-formed answer), `busy` (the server's typed
//! backpressure reply for an admission-queue rejection) or a protocol error
//! (anything else: frame corruption, unexpected `ERR`, transport failure).
//! The bench gate's `tcp_load/answered` case requires every offered request
//! to be answered (OK or BUSY), so the protocol-error count must be zero.

use pefp_host::wire::{Reply, Request};
use pefp_workload::{JsonValue, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Which protocol the generator speaks to the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProtocol {
    /// The length-prefixed binary frame protocol ([`pefp_host::wire`]).
    Binary,
    /// The text line protocol ([`pefp_host::server`]).
    Line,
}

impl LoadProtocol {
    /// Parses `"binary"` / `"line"` (as accepted by the `loadgen` CLI).
    pub fn parse(s: &str) -> Option<LoadProtocol> {
        match s.to_ascii_lowercase().as_str() {
            "binary" | "bin" => Some(LoadProtocol::Binary),
            "line" | "text" => Some(LoadProtocol::Line),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            LoadProtocol::Binary => "binary",
            LoadProtocol::Line => "line",
        }
    }
}

/// An open-loop load profile.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent persistent connections (requests round-robin over them).
    pub connections: usize,
    /// Offered arrival rate, requests per second, across all connections.
    pub rate_per_sec: f64,
    /// Total requests to offer.
    pub requests: usize,
    /// Protocol to speak.
    pub protocol: LoadProtocol,
    /// `(s, t, k)` COUNT queries, cycled through in request order.
    pub pool: Vec<(u32, u32, u32)>,
}

/// The merged result of one open-loop run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests offered by the schedule.
    pub offered: u64,
    /// Requests answered with a well-formed result.
    pub completed_ok: u64,
    /// Requests answered with the typed BUSY backpressure reply.
    pub busy: u64,
    /// Requests that hit a protocol or transport failure.
    pub protocol_errors: u64,
    /// Wall-clock seconds from first scheduled arrival to last reply.
    pub wall_secs: f64,
    /// `completed_ok / wall_secs`.
    pub goodput_per_sec: f64,
    /// Median scheduled-to-completion latency, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
}

impl ToJson for LoadReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("offered", JsonValue::Number(self.offered as f64)),
            ("completed_ok", JsonValue::Number(self.completed_ok as f64)),
            ("busy", JsonValue::Number(self.busy as f64)),
            ("protocol_errors", JsonValue::Number(self.protocol_errors as f64)),
            ("wall_secs", JsonValue::Number(self.wall_secs)),
            ("goodput_per_sec", JsonValue::Number(self.goodput_per_sec)),
            ("p50_ns", JsonValue::Number(self.p50_ns as f64)),
            ("p90_ns", JsonValue::Number(self.p90_ns as f64)),
            ("p99_ns", JsonValue::Number(self.p99_ns as f64)),
            ("p999_ns", JsonValue::Number(self.p999_ns as f64)),
            ("max_ns", JsonValue::Number(self.max_ns as f64)),
        ])
    }
}

/// The q-quantile (0 < q ≤ 1) of an ascending-sorted sample, by the
/// nearest-rank method.
pub fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (q * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
}

#[derive(Clone)]
enum Outcome {
    Ok(u64),
    Busy(u64),
    Error,
}

/// One worker's request loop: issue every request assigned to this
/// connection at its scheduled time, classify the replies.
fn drive_connection(
    stream: TcpStream,
    start: Instant,
    conn_idx: usize,
    config: &LoadConfig,
) -> Vec<Outcome> {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return vec![Outcome::Error; requests_for(conn_idx, config)],
    });
    let mut writer = stream;
    let mut outcomes = Vec::with_capacity(requests_for(conn_idx, config));
    let mut dead = false;
    for i in (conn_idx..config.requests).step_by(config.connections) {
        if dead {
            outcomes.push(Outcome::Error);
            continue;
        }
        let scheduled = start + Duration::from_secs_f64(i as f64 / config.rate_per_sec);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (s, t, k) = config.pool[i % config.pool.len()];
        let outcome = match config.protocol {
            LoadProtocol::Binary => one_binary_request(&mut reader, &mut writer, s, t, k),
            LoadProtocol::Line => one_line_request(&mut reader, &mut writer, s, t, k),
        };
        match outcome {
            Some(class) => {
                let latency = scheduled.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                outcomes.push(match class {
                    Class::Ok => Outcome::Ok(latency),
                    Class::Busy => Outcome::Busy(latency),
                });
            }
            None => {
                // Transport or framing failure: the connection is unusable,
                // every remaining request on it is charged as an error.
                outcomes.push(Outcome::Error);
                dead = true;
            }
        }
    }
    outcomes
}

fn requests_for(conn_idx: usize, config: &LoadConfig) -> usize {
    if config.connections == 0 || conn_idx >= config.requests {
        0
    } else {
        (config.requests - conn_idx - 1) / config.connections + 1
    }
}

enum Class {
    Ok,
    Busy,
}

fn one_binary_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    s: u32,
    t: u32,
    k: u32,
) -> Option<Class> {
    Request::Count { s, t, k }.write_to(writer).ok()?;
    match Reply::read_from(reader) {
        Ok(Some(Reply::Summary { .. })) => Some(Class::Ok),
        Ok(Some(Reply::Busy)) => Some(Class::Busy),
        _ => None,
    }
}

fn one_line_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    s: u32,
    t: u32,
    k: u32,
) -> Option<Class> {
    writeln!(writer, "COUNT {s} {t} {k}").ok()?;
    writer.flush().ok()?;
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    if line.starts_with("OK") {
        Some(Class::Ok)
    } else if line.starts_with("ERR") && line.contains("admission queue full") {
        Some(Class::Busy)
    } else {
        None
    }
}

/// Runs one open-loop load profile against `addr` and merges the
/// per-connection outcomes into a [`LoadReport`].
///
/// All connections are established before the clock starts; a connect
/// failure aborts the run (the server under test should be up).
pub fn run_open_loop(addr: SocketAddr, config: &LoadConfig) -> std::io::Result<LoadReport> {
    assert!(config.connections > 0, "need at least one connection");
    assert!(config.rate_per_sec > 0.0, "need a positive arrival rate");
    assert!(!config.pool.is_empty(), "need a non-empty query pool");
    let streams: Vec<TcpStream> = (0..config.connections)
        .map(|_| TcpStream::connect(addr))
        .collect::<std::io::Result<_>>()?;
    let start = Instant::now();
    let outcomes: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn_idx, stream)| {
                scope.spawn(move || drive_connection(stream, start, conn_idx, config))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load worker panicked")).collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let mut report =
        LoadReport { offered: config.requests as u64, wall_secs, ..LoadReport::default() };
    let mut latencies: Vec<u64> = Vec::with_capacity(config.requests);
    for outcome in outcomes.iter().flatten() {
        match outcome {
            Outcome::Ok(ns) => {
                report.completed_ok += 1;
                latencies.push(*ns);
            }
            Outcome::Busy(ns) => {
                report.busy += 1;
                latencies.push(*ns);
            }
            Outcome::Error => report.protocol_errors += 1,
        }
    }
    latencies.sort_unstable();
    report.goodput_per_sec =
        if wall_secs > 0.0 { report.completed_ok as f64 / wall_secs } else { 0.0 };
    report.p50_ns = percentile(&latencies, 0.50);
    report.p90_ns = percentile(&latencies, 0.90);
    report.p99_ns = percentile(&latencies, 0.99);
    report.p999_ns = percentile(&latencies, 0.999);
    report.max_ns = latencies.last().copied().unwrap_or(0);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_graph::CsrGraph;
    use pefp_host::loader::GraphHandle;
    use pefp_host::net::{NetConfig, NetServer};
    use pefp_host::runtime::{HostRuntime, RuntimeConfig};

    fn diamond_front_door() -> NetServer {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("diamond", g),
            RuntimeConfig { compute_units: 2, queue_capacity: 256, ..RuntimeConfig::default() },
        );
        NetServer::bind(runtime, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 0.999), 100);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.999), 42);
    }

    #[test]
    fn requests_split_evenly_over_connections() {
        let config = LoadConfig {
            connections: 4,
            rate_per_sec: 1.0,
            requests: 10,
            protocol: LoadProtocol::Binary,
            pool: vec![(0, 3, 3)],
        };
        let total: usize = (0..4).map(|c| requests_for(c, &config)).sum();
        assert_eq!(total, 10);
        assert_eq!(requests_for(0, &config), 3);
        assert_eq!(requests_for(3, &config), 2);
    }

    #[test]
    fn both_protocols_drive_a_live_front_door_cleanly() {
        let server = diamond_front_door();
        for protocol in [LoadProtocol::Binary, LoadProtocol::Line] {
            let config = LoadConfig {
                connections: 8,
                rate_per_sec: 2000.0,
                requests: 64,
                protocol,
                pool: vec![(0, 3, 3), (0, 3, 2)],
            };
            let report = run_open_loop(server.local_addr(), &config).expect("run");
            assert_eq!(report.offered, 64, "{protocol:?}");
            assert_eq!(report.completed_ok, 64, "{protocol:?}");
            assert_eq!(report.protocol_errors, 0, "{protocol:?}");
            assert!(report.p50_ns > 0 && report.p999_ns >= report.p50_ns, "{protocol:?}");
        }
        server.shutdown();
    }
}
