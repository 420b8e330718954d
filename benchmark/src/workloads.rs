//! The five workloads: how each derives its ops from `--seed`, sets the stack
//! up, drives it in a closed loop for the measured time, and replays a sample
//! through the layers.
//!
//! Why these five (one stresses each part of the stack, and each has a
//! neighbour on which the same optimisation should change nothing):
//!
//! * `enum_heavy` — engine and device model do ~all the work; the
//!   deterministic cycle anchor. Pre-BFS, wire and net do nothing here.
//! * `prep_cold` — more distinct queries than the prepared cache holds, so
//!   every op pays Pre-BFS, induce and payload framing; the engine idles.
//! * `tcp_hot` — the smallest cached query over loopback TCP: codec, socket,
//!   admission and hand-off are all that is left.
//! * `interference` — a tiny cached query queued behind a long enumeration
//!   on the single CU worker (the roadmap's head-of-line case).
//! * `fraud_stream` — writes beside reads: two graph epochs and one
//!   pre-insert cycle query per transaction, with the cache invalidated.

use crate::layers::{self, Answer, FraudReplica, Query, Replayer, Shape, TcpClient};
use crate::stats::{self, Fnv64};
use crate::trace::{Span, Tracer};
use pefp_graph::{khop_bfs, VertexId, UNREACHED};
use pefp_host::{GraphHandle, HostRuntime, NetServer, NetStats, RuntimeStats, SessionId};
use pefp_streaming::{RuntimeCycleDetector, Transaction, TransactionGenerator};
use pefp_workload::generate_queries;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] = ["enum_heavy", "prep_cold", "tcp_hot", "interference", "fraud_stream"];

/// Hubs whose ordered pairs make the heavy queries (low ids are hubs).
const HEAVY_HUBS: u32 = 8;
const HEAVY_K: u32 = 7;
/// Distinct cold queries: 15x the 128-entry prepared cache, so LRU cycling
/// turns every op into a miss.
const COLD_QUERIES: usize = 2_000;
const COLD_K: u32 = 4;
const TINY_QUERIES: u32 = 16;
const TINY_K: u32 = 3;
const TCP_CONNECTIONS: usize = 2;
/// Transactions ingested in set-up: one full window.
const FRAUD_WARMUP: usize = layers::FRAUD_WINDOW as usize;
/// Every this-many-th transaction is checked against the brute-force oracle.
const FRAUD_ORACLE_STRIDE: usize = 256;
/// Leading measured transactions that make the fraud stream's "op list" for
/// the determinism hash.
const FRAUD_LIST: usize = 4_096;
/// Ops the layer pass replays (the issue asks for at least 500).
const LAYER_SAMPLE: usize = 512;
const FRAUD_LAYER_TXS: usize = 2_048;
/// Times set-up runs in an untraced run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

// ---------------------------------------------------------------------------
// What a run records
// ---------------------------------------------------------------------------

/// One answered op as its caller saw it. The run keeps one per op, so it is
/// packed: resident memory must not follow the op count.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    /// Completion offset from the start of the measured phase.
    end_ns: u64,
    paths: u32,
    /// Caller-observed latency, or [`NO_LATENCY`] for an op whose latency
    /// the workload does not report.
    lat_ns: u32,
}

const NO_LATENCY: u32 = u32::MAX;

/// Everything the callers observed during one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    ops: Vec<OpRecord>,
    sim_us: f64,
    /// Ops that ran on the device model, i.e. have a simulated time at all.
    sim_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub total_ns: u64,
    /// Ops in one pass over the cycled op list (0 for the stream, which has
    /// none): a time slice holds at least one pass.
    list_len: usize,
    /// Paths and simulated µs of the first pass over the op list, and whether
    /// every later complete pass repeated both exactly.
    pub list_paths: u64,
    pub list_sim_us: f64,
    pub list_repeats: bool,
}

/// Rates and latency percentiles of each time slice, in time order.
struct Slices {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl Measured {
    /// Books one op: `expected` is the oracle's path count.
    fn record(
        &mut self,
        end_ns: u64,
        lat_ns: Option<u64>,
        result: Result<Answer, String>,
        expected: Option<u64>,
    ) {
        self.attempted += 1;
        match result {
            Ok(a) if expected.is_none_or(|e| e == a.paths) => {
                self.ops.push(OpRecord {
                    end_ns,
                    paths: u32::try_from(a.paths).expect("one op's path count fits u32"),
                    lat_ns: lat_ns
                        .map_or(NO_LATENCY, |ns| ns.min(u64::from(NO_LATENCY - 1)) as u32),
                });
                self.sim_us += a.sim_us;
                self.sim_ops += u64::from(a.sim_us > 0.0);
            }
            Ok(a) => {
                self.failed += 1;
                eprintln!("wrong answer: {} paths, oracle says {:?}", a.paths, expected);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("failed op: {e}");
            }
        }
    }

    fn merge(&mut self, other: Measured) {
        self.ops.extend(other.ops);
        self.sim_us += other.sim_us;
        self.sim_ops += other.sim_ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.total_ns = self.total_ns.max(other.total_ns);
        self.list_len = self.list_len.max(other.list_len);
    }

    pub fn answered(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn total_paths(&self) -> u64 {
        self.ops.iter().map(|o| u64::from(o.paths)).sum()
    }

    pub fn latency_samples(&self) -> usize {
        self.ops.iter().filter(|o| o.lat_ns != NO_LATENCY).count()
    }

    fn slices(&self) -> Slices {
        let n = stats::slice_count(self.latency_samples(), self.list_len);
        let slice_ns = (self.total_ns / n as u64).max(1);
        let mut ops = vec![0u64; n];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
        for o in &self.ops {
            // An op belongs to the slice it completed in.
            let slice = ((o.end_ns / slice_ns) as usize).min(n - 1);
            ops[slice] += 1;
            if o.lat_ns != NO_LATENCY {
                lat[slice].push(f64::from(o.lat_ns) / 1e3);
            }
        }
        Slices {
            ops_per_s: ops.iter().map(|&c| c as f64 * 1e9 / slice_ns as f64).collect(),
            p50_us: lat.iter_mut().map(|l| stats::percentile(l, 50.0)).collect(),
            p99_us: lat.iter_mut().map(|l| stats::percentile(l, 99.0)).collect(),
        }
    }

    /// Ops per second in each of the time slices.
    pub fn slice_ops_per_s(&self) -> Vec<f64> {
        self.slices().ops_per_s
    }

    /// The seven run-derived end-to-end metrics (`setup_s` comes from set-up).
    /// Rates and latency percentiles are taken per time slice and reported as
    /// the median over the calmest tenth of the slices (see
    /// [`stats::calm_count`]).
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let s = self.slices();
        let calm = |values: &[f64]| stats::calm_median(values, &s.ops_per_s);
        let ops_per_s = calm(&s.ops_per_s);
        BTreeMap::from([
            ("ops_per_s", ops_per_s),
            ("lat_p50_us", calm(&s.p50_us)),
            ("lat_p99_us", calm(&s.p99_us)),
            // The calm rate times the run's paths per op: how many paths an op
            // returns does not depend on the machine, and on the stream the
            // few hundred cycles of an 80 ms slice would be a noisy sample of
            // it (`paths_per_s` spread 11.6% over ten seeds, `ops_per_s` 4.1%).
            ("paths_per_s", ops_per_s * self.total_paths() as f64 / self.answered().max(1) as f64),
            // Per op that has a simulated time: a CPU-routed query never
            // touches the device model, a skipped transaction runs no query.
            ("sim_us_per_op", self.sim_us / self.sim_ops.max(1) as f64),
            ("ok_frac", self.answered() as f64 / self.attempted.max(1) as f64),
        ])
    }
}

/// Tracks the per-pass totals of a cycled op list for the determinism check.
struct PassCheck {
    len: usize,
    seen: usize,
    paths: u64,
    sim_us: f64,
    first: Option<(u64, f64)>,
    repeats: bool,
}

impl PassCheck {
    fn new(len: usize) -> PassCheck {
        PassCheck { len, seen: 0, paths: 0, sim_us: 0.0, first: None, repeats: true }
    }

    fn add(&mut self, result: &Result<Answer, String>) {
        if let Ok(a) = result {
            self.paths += a.paths;
            self.sim_us += a.sim_us;
        }
        self.seen += 1;
        if self.seen == self.len {
            match self.first {
                None => self.first = Some((self.paths, self.sim_us)),
                Some(first) => self.repeats &= first == (self.paths, self.sim_us),
            }
            (self.seen, self.paths, self.sim_us) = (0, 0, 0.0);
        }
    }

    fn finish(self, into: &mut Measured) {
        let (paths, sim_us) = self.first.unwrap_or((self.paths, self.sim_us));
        (into.list_paths, into.list_sim_us, into.list_repeats) = (paths, sim_us, self.repeats);
    }
}

/// One op the traced stack pass ran, kept so the layer pass can replay it.
#[derive(Debug, Clone, Copy)]
pub struct LoggedOp {
    op: u32,
    query: Query,
    cache_hit: bool,
}

/// Result of one stack pass.
pub struct StackRun {
    pub measured: Measured,
    pub spans: Vec<Span>,
    log: Vec<LoggedOp>,
    pub runtime_before: RuntimeStats,
    pub runtime_after: RuntimeStats,
    pub net: Option<(NetStats, NetStats)>,
    /// Cycles per measured transaction (fraud stream only).
    fraud_cycles: Vec<u64>,
    /// Detector counters over the pass: transactions, pre-check skips, alerts.
    pub detector: (u64, u64, u64),
}

/// Result of the layer pass.
pub struct LayerRun {
    /// Ids of the stack-pass ops that were replayed. Stack-side means are
    /// taken over the same ops, so a skewed op mix cannot open a gap between
    /// a layer and the span it is a share of.
    pub ops: HashSet<u32>,
    pub spans: Vec<Span>,
    pub counters: layers::LayerCounters,
    /// `submit -> wait` mean (µs) replayed in process, where the stack pass
    /// could not see it (TCP).
    pub runtime_us: Option<f64>,
    /// p50 (µs) of the tiny queries run alone (interference only).
    pub unblocked_p50_us: Option<f64>,
    pub failed: u64,
}

pub struct SetupTimes {
    pub setup_s: Vec<f64>,
    pub graph_gen_s: f64,
    pub query_gen_s: f64,
    pub oracle_s: f64,
}

// ---------------------------------------------------------------------------
// Op lists
// ---------------------------------------------------------------------------

fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// Every static op list is a fixed *set* in a seed-shuffled *order*. The sets
/// are part of the dataset (drawn from `GRAPH_SEED`): per-query cost on a
/// power-law graph is so skewed (one hub pair carries 15% of the heavy paths;
/// path counts of 16 random tiny queries differ 3x between draws) that a
/// seed-drawn set moves `paths_per_s` by 15-130% between seeds and no bound
/// would hold. The order is free: every metric is a per-op mean or a rate
/// over whole passes.
fn shuffled(mut qs: Vec<Query>, seed: u64, stream: u64) -> Vec<Query> {
    qs.shuffle(&mut rng(seed, stream));
    qs
}

/// The 56 ordered pairs of hubs 0..8 at k = 7.
fn heavy_queries(seed: u64) -> Vec<Query> {
    let qs = (0..HEAVY_HUBS)
        .flat_map(|s| {
            (0..HEAVY_HUBS).filter(move |&t| t != s).map(move |t| Query::new(s, t, HEAVY_K))
        })
        .collect();
    shuffled(qs, seed, 1)
}

/// `COLD_QUERIES` distinct random reachable pairs at k = 4.
fn cold_queries(graph: &GraphHandle, seed: u64) -> Vec<Query> {
    let mut seen = HashSet::new();
    let qs = generate_queries(&graph.csr, COLD_K, COLD_QUERIES, layers::GRAPH_SEED)
        .into_iter()
        .map(|p| Query { s: p.s, t: p.t, k: COLD_K })
        .filter(|q| seen.insert(*q))
        .collect();
    shuffled(qs, seed, 2)
}

/// One k = 3 query per hub 0..16: the hub to a vertex of its 3-hop ball, so
/// every query has at least one path.
fn tiny_queries(graph: &GraphHandle, seed: u64) -> Vec<Query> {
    let mut pick = rng(layers::GRAPH_SEED, 3);
    let qs = (0..TINY_QUERIES)
        .map(|hub| {
            let s = VertexId(hub);
            let dist = khop_bfs(graph.csr.as_ref(), s, TINY_K);
            let ball: Vec<VertexId> =
                graph.csr.vertices().filter(|v| *v != s && dist[v.index()] != UNREACHED).collect();
            Query { s, t: *ball.choose(&mut pick).expect("a hub reaches something"), k: TINY_K }
        })
        .collect();
    shuffled(qs, seed, 4)
}

fn hash_queries(h: &mut Fnv64, qs: &[Query]) {
    for q in qs {
        h.word(u64::from(q.s.0) << 32 | u64::from(q.t.0));
        h.word(u64::from(q.k));
    }
}

fn oracle_counts(graph: &GraphHandle, qs: &[Query]) -> Vec<u64> {
    qs.iter().map(|q| layers::oracle_count(graph, *q)).collect()
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

pub enum Workload {
    Static(Box<StaticWorkload>),
    Fraud(Box<FraudWorkload>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    EnumHeavy,
    PrepCold,
    TcpHot,
    Interference,
}

/// The four workloads over the static `cl200k` graph.
pub struct StaticWorkload {
    kind: Kind,
    graph: GraphHandle,
    runtime: Arc<HostRuntime>,
    server: Option<NetServer>,
    session: SessionId,
    lists: Lists,
    next_op: u32,
}

pub struct FraudWorkload {
    detector: RuntimeCycleDetector,
    generator: TransactionGenerator,
    warmup: Arc<Vec<Transaction>>,
    seed: u64,
    next_op: u32,
}

/// The op lists of a static workload with the oracle's answers.
#[derive(Clone, Default)]
struct Lists {
    ops: Vec<Query>,
    expected: Vec<u64>,
    /// The tiny list (interference only).
    tiny: Vec<Query>,
    tiny_expected: Vec<u64>,
}

/// One run's inputs, drawn once from the seed, and the clock of every set-up
/// made from them.
pub struct Plan {
    /// `None` is the one workload that is not a query list: the fraud stream.
    kind: Option<Kind>,
    seed: u64,
    lists: Option<Lists>,
    warmup: Arc<Vec<Transaction>>,
    pub times: SetupTimes,
    pub op_hash: u64,
}

impl Plan {
    pub fn new(name: &str, seed: u64) -> Option<Plan> {
        let kind = match name {
            "enum_heavy" => Some(Kind::EnumHeavy),
            "prep_cold" => Some(Kind::PrepCold),
            "tcp_hot" => Some(Kind::TcpHot),
            "interference" => Some(Kind::Interference),
            "fraud_stream" => None,
            _ => return None,
        };
        let times =
            SetupTimes { setup_s: Vec::new(), graph_gen_s: 0.0, query_gen_s: 0.0, oracle_s: 0.0 };
        Some(Plan { kind, seed, lists: None, warmup: Arc::default(), times, op_hash: 0 })
    }

    /// Sets the stack up once and books the time under `setup_s`: graph build,
    /// `GraphHandle::from_csr`, runtime launch / server bind and warm-up (for
    /// the stream: detector launch and one window of transactions). Drawing
    /// the ops and asking the oracle happen on the first call only and are
    /// clocked apart.
    pub fn set_up(&mut self) -> Workload {
        match self.kind {
            Some(kind) => Workload::Static(Box::new(self.set_up_static(kind))),
            None => Workload::Fraud(Box::new(self.set_up_fraud())),
        }
    }

    fn set_up_static(&mut self, kind: Kind) -> StaticWorkload {
        let start = Instant::now();
        let (graph, graph_gen_s) = layers::build_static_graph();
        let mut setup = start.elapsed();
        self.times.graph_gen_s = graph_gen_s;

        if self.lists.is_none() {
            let start = Instant::now();
            let seed = self.seed;
            let (ops, tiny) = match kind {
                Kind::EnumHeavy => (heavy_queries(seed), Vec::new()),
                Kind::PrepCold => (cold_queries(&graph, seed), Vec::new()),
                Kind::TcpHot => (tiny_queries(&graph, seed), Vec::new()),
                Kind::Interference => (heavy_queries(seed), tiny_queries(&graph, seed)),
            };
            self.times.query_gen_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let (expected, tiny_expected) =
                (oracle_counts(&graph, &ops), oracle_counts(&graph, &tiny));
            self.times.oracle_s = start.elapsed().as_secs_f64();
            let mut h = Fnv64::new();
            hash_queries(&mut h, &ops);
            hash_queries(&mut h, &tiny);
            self.op_hash = h.finish();
            self.lists = Some(Lists { ops, expected, tiny, tiny_expected });
        }
        let lists = self.lists.clone().expect("lists drawn above");

        let start = Instant::now();
        let runtime = layers::launch(&graph, kind.shape());
        let session = runtime.register_session();
        let server = (kind == Kind::TcpHot).then(|| layers::bind_server(Arc::clone(&runtime)));
        // Warm-up: one pass over every list fills the prepared cache
        // (prep_cold's list overflows it, which is the point).
        let mut off = Tracer::off();
        for q in lists.ops.iter().chain(lists.tiny.iter()) {
            let warmed = layers::submit(&runtime, session, *q, &mut off, 0, 0)
                .and_then(|t| layers::wait(t, &mut off, 0, 0));
            assert!(warmed.is_ok(), "warm-up query {q:?} failed: {warmed:?}");
        }
        setup += start.elapsed();
        self.times.setup_s.push(setup.as_secs_f64());
        StaticWorkload { kind, graph, runtime, server, session, lists, next_op: 1 }
    }

    fn set_up_fraud(&mut self) -> FraudWorkload {
        let mut generator = layers::transaction_generator(self.seed);
        if self.warmup.is_empty() {
            let start = Instant::now();
            self.warmup = Arc::new(generator.stream(FRAUD_WARMUP));
            self.times.query_gen_s = start.elapsed().as_secs_f64();
            // The hash covers the transactions the measured phase starts with.
            let mut h = Fnv64::new();
            for tx in generator.clone().stream(FRAUD_LIST) {
                h.word(u64::from(tx.from) << 32 | u64::from(tx.to));
                h.word(tx.timestamp);
            }
            self.op_hash = h.finish();
        } else {
            generator.stream(FRAUD_WARMUP);
        }

        let start = Instant::now();
        let mut detector = layers::new_detector();
        let mut off = Tracer::off();
        for tx in self.warmup.iter() {
            layers::ingest(&mut detector, tx, &mut off, 0);
        }
        self.times.setup_s.push(start.elapsed().as_secs_f64());
        FraudWorkload {
            detector,
            generator,
            warmup: Arc::clone(&self.warmup),
            seed: self.seed,
            next_op: 1,
        }
    }
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::EnumHeavy | Kind::PrepCold => Shape::OneCu,
            Kind::TcpHot => Shape::FourCu,
            Kind::Interference => Shape::OneCuRouted,
        }
    }
}

impl StaticWorkload {
    fn in_process_loop(
        &mut self,
        seconds: f64,
        tr: &mut Tracer,
        log: &mut Vec<LoggedOp>,
    ) -> Measured {
        let mut m = Measured { list_len: self.lists.ops.len(), ..Measured::default() };
        let mut pass = PassCheck::new(self.lists.ops.len());
        let budget = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed() < budget {
            let (q, expected) = (
                self.lists.ops[i % self.lists.ops.len()],
                self.lists.expected[i % self.lists.ops.len()],
            );
            let op = self.next_op;
            self.next_op += 1;
            i += 1;
            let start = Instant::now();
            let root = tr.open("stack", "op", op, 0);
            let result = layers::submit(&self.runtime, self.session, q, tr, op, root.id)
                .and_then(|ticket| layers::wait(ticket, tr, op, root.id))
                .map_err(|e| e.to_string());
            tr.close(root);
            let lat_ns = start.elapsed().as_nanos() as u64;
            if let (true, Ok(a)) = (tr.enabled(), &result) {
                log.push(LoggedOp { op, query: q, cache_hit: a.cache_hit });
            }
            pass.add(&result);
            m.record(t0.elapsed().as_nanos() as u64, Some(lat_ns), result, Some(expected));
        }
        m.total_ns = t0.elapsed().as_nanos() as u64;
        pass.finish(&mut m);
        m
    }

    /// One generator thread; each round submits a heavy query without
    /// waiting, then submits and waits for a tiny one, then waits for the
    /// heavy one. Only the tiny queries' latencies are reported.
    fn interference_loop(
        &mut self,
        seconds: f64,
        tr: &mut Tracer,
        log: &mut Vec<LoggedOp>,
    ) -> Measured {
        let mut m = Measured { list_len: self.lists.ops.len(), ..Measured::default() };
        let mut pass = PassCheck::new(self.lists.ops.len());
        let budget = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed() < budget {
            let (heavy, heavy_expected) = (
                self.lists.ops[i % self.lists.ops.len()],
                self.lists.expected[i % self.lists.ops.len()],
            );
            let (tiny, tiny_expected) = (
                self.lists.tiny[i % self.lists.tiny.len()],
                self.lists.tiny_expected[i % self.lists.tiny.len()],
            );
            let op = self.next_op;
            self.next_op += 2;
            i += 1;
            let root = tr.open("stack", "round", op, 0);
            let heavy_ticket = layers::submit(&self.runtime, self.session, heavy, tr, op, root.id);
            let start = Instant::now();
            let tiny_result =
                layers::submit(&self.runtime, self.session, tiny, tr, op + 1, root.id)
                    .and_then(|ticket| layers::wait(ticket, tr, op + 1, root.id))
                    .map_err(|e| e.to_string());
            let tiny_ns = start.elapsed().as_nanos() as u64;
            let tiny_end = t0.elapsed().as_nanos() as u64;
            let heavy_result = heavy_ticket
                .and_then(|ticket| layers::wait(ticket, tr, op, root.id))
                .map_err(|e| e.to_string());
            tr.close(root);
            if tr.enabled() {
                if let Ok(a) = &heavy_result {
                    log.push(LoggedOp { op, query: heavy, cache_hit: a.cache_hit });
                }
                if let Ok(a) = &tiny_result {
                    log.push(LoggedOp { op: op + 1, query: tiny, cache_hit: a.cache_hit });
                }
            }
            pass.add(&heavy_result);
            m.record(tiny_end, Some(tiny_ns), tiny_result, Some(tiny_expected));
            m.record(t0.elapsed().as_nanos() as u64, None, heavy_result, Some(heavy_expected));
        }
        m.total_ns = t0.elapsed().as_nanos() as u64;
        pass.finish(&mut m);
        m
    }

    /// `TCP_CONNECTIONS` caller threads, each with its own connection, each
    /// cycling the tiny list from its own offset.
    fn tcp_loop(
        &mut self,
        seconds: f64,
        trace: bool,
        log: &mut Vec<LoggedOp>,
    ) -> (Measured, Vec<Span>) {
        let addr = self.server.as_ref().expect("tcp workload has a server").local_addr();
        let budget = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let first_op = self.next_op;
        // Op ids interleave across the connections; reserve a generous range.
        self.next_op += 1 << 24;
        let (ops, expected) = (&self.lists.ops, &self.lists.expected);
        let per_thread: Vec<(Measured, Vec<Span>, Vec<LoggedOp>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TCP_CONNECTIONS)
                .map(|conn| {
                    scope.spawn(move || {
                        let mut client = TcpClient::connect(addr).expect("connect to own server");
                        let mut tr = if trace {
                            Tracer::on(t0, (conn as u32 + 1) << 28)
                        } else {
                            Tracer::off()
                        };
                        let mut m = Measured { list_len: ops.len(), ..Measured::default() };
                        let mut log = Vec::new();
                        let mut pass = PassCheck::new(ops.len());
                        let mut i = conn * ops.len() / TCP_CONNECTIONS;
                        let mut n = 0u32;
                        while t0.elapsed() < budget {
                            let (q, want) = (ops[i % ops.len()], expected[i % ops.len()]);
                            let op = first_op + n * TCP_CONNECTIONS as u32 + conn as u32;
                            n += 1;
                            i += 1;
                            let start = Instant::now();
                            let root = tr.open("stack", "round_trip", op, 0);
                            let result = client.count(q, &mut tr, op, root.id);
                            tr.close(root);
                            let lat_ns = start.elapsed().as_nanos() as u64;
                            if let (true, Ok(a)) = (trace, &result) {
                                log.push(LoggedOp { op, query: q, cache_hit: a.cache_hit });
                            }
                            pass.add(&result);
                            m.record(
                                t0.elapsed().as_nanos() as u64,
                                Some(lat_ns),
                                result,
                                Some(want),
                            );
                        }
                        m.total_ns = t0.elapsed().as_nanos() as u64;
                        pass.finish(&mut m);
                        (m, tr.into_spans(), log)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
        });
        let mut merged = Measured::default();
        let mut spans = Vec::new();
        for (conn, (m, s, l)) in per_thread.into_iter().enumerate() {
            if conn == 0 {
                (merged.list_paths, merged.list_sim_us, merged.list_repeats) =
                    (m.list_paths, m.list_sim_us, m.list_repeats);
            }
            merged.merge(m);
            spans.extend(s);
            log.extend(l);
        }
        (merged, spans)
    }

    fn stack(&mut self, seconds: f64, trace: bool) -> StackRun {
        let runtime_before = layers::runtime_stats(&self.runtime);
        let net_before = self.server.as_ref().map(layers::net_stats);
        let mut log = Vec::new();
        let (measured, spans) = if self.kind == Kind::TcpHot {
            self.tcp_loop(seconds, trace, &mut log)
        } else {
            let mut tr = if trace { Tracer::on(Instant::now(), 0) } else { Tracer::off() };
            let m = if self.kind == Kind::Interference {
                self.interference_loop(seconds, &mut tr, &mut log)
            } else {
                self.in_process_loop(seconds, &mut tr, &mut log)
            };
            (m, tr.into_spans())
        };
        StackRun {
            measured,
            spans,
            log,
            runtime_before,
            runtime_after: layers::runtime_stats(&self.runtime),
            net: net_before.zip(self.server.as_ref().map(layers::net_stats)),
            fraud_cycles: Vec::new(),
            detector: (0, 0, 0),
        }
    }

    fn layers(&mut self, stack: &StackRun, seed: u64) -> LayerRun {
        let mut tr = Tracer::on(Instant::now(), 0);
        let mut sample: Vec<LoggedOp> = stack.log.clone();
        sample.shuffle(&mut rng(seed, 3));
        sample.truncate(LAYER_SAMPLE);
        sample.sort_unstable_by_key(|l| l.op);

        let over_wire = self.kind == Kind::TcpHot;
        let config = layers::runtime_config(self.kind.shape());
        let mut replayer = Replayer::new(config, self.graph.placement, over_wire);
        let snapshot = self.runtime.current_snapshot();
        let mut failed = 0;
        let lists = &self.lists;
        let oracle: std::collections::HashMap<Query, u64> = (lists.ops.iter().copied())
            .zip(lists.expected.iter().copied())
            .chain(lists.tiny.iter().copied().zip(lists.tiny_expected.iter().copied()))
            .collect();
        for l in &sample {
            let paths = replayer.replay(&mut tr, l.op, 0, &snapshot, l.query, l.cache_hit);
            if oracle.get(&l.query) != Some(&paths) {
                failed += 1;
            }
        }
        failed += replayer.counters.disagreements;

        // What the TCP callers cannot see: the same ops, submit -> wait, in
        // process on the server's own runtime.
        let runtime_us = over_wire.then(|| {
            let mut off = Tracer::off();
            let start = Instant::now();
            for l in &sample {
                let answered = layers::submit(&self.runtime, self.session, l.query, &mut off, 0, 0)
                    .and_then(|t| layers::wait(t, &mut off, 0, 0));
                failed += u64::from(answered.is_err());
            }
            start.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64
        });

        // The tiny queries with nothing in front of them.
        let unblocked_p50_us = (self.kind == Kind::Interference).then(|| {
            let mut off = Tracer::off();
            let mut lat: Vec<f64> = Vec::with_capacity(LAYER_SAMPLE);
            for i in 0..LAYER_SAMPLE {
                let start = Instant::now();
                let answered = layers::submit(
                    &self.runtime,
                    self.session,
                    self.lists.tiny[i % self.lists.tiny.len()],
                    &mut off,
                    0,
                    0,
                )
                .and_then(|t| layers::wait(t, &mut off, 0, 0));
                lat.push(start.elapsed().as_nanos() as f64 / 1e3);
                failed += u64::from(answered.is_err());
            }
            stats::percentile(&mut lat, 50.0)
        });

        LayerRun {
            ops: sample.iter().map(|l| l.op).collect(),
            spans: tr.into_spans(),
            counters: replayer.counters,
            runtime_us,
            unblocked_p50_us,
            failed,
        }
    }
}

impl FraudWorkload {
    fn stack(&mut self, seconds: f64, trace: bool) -> (StackRun, f64) {
        let runtime = Arc::clone(self.detector.runtime());
        let runtime_before = layers::runtime_stats(&runtime);
        let det_before = self.detector.stats();
        let mut tr = if trace { Tracer::on(Instant::now(), 0) } else { Tracer::off() };
        let mut m = Measured::default();
        let mut pass = PassCheck::new(FRAUD_LIST);
        let mut fraud_cycles = Vec::new();
        // Time spent asking the oracle is taken off the measured clock.
        let mut oracle = Duration::ZERO;
        let budget = Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let mut i = 0usize;
        while t0.elapsed() - oracle < budget {
            let tx = self.generator.next_transaction();
            let op = self.next_op;
            self.next_op += 1;
            let start = Instant::now();
            let answer = layers::ingest(&mut self.detector, &tx, &mut tr, op);
            let lat_ns = start.elapsed().as_nanos() as u64;
            let end_ns = (t0.elapsed() - oracle).as_nanos() as u64;
            if trace {
                fraud_cycles.push(answer.paths);
            }
            let mut result = Ok(answer);
            if i < FRAUD_LIST {
                pass.add(&result);
            }
            if i.is_multiple_of(FRAUD_ORACLE_STRIDE) {
                let check = Instant::now();
                let want = layers::oracle_cycles(&runtime.current_snapshot(), &tx);
                if want != answer.paths {
                    result = Err(format!(
                        "tx {tx:?} closed {} cycles, oracle says {want}",
                        answer.paths
                    ));
                }
                oracle += check.elapsed();
            }
            i += 1;
            m.record(end_ns, Some(lat_ns), result, None);
        }
        m.total_ns = (t0.elapsed() - oracle).as_nanos() as u64;
        pass.finish(&mut m);
        let oracle_s = oracle.as_secs_f64();

        let det = self.detector.stats();
        let run = StackRun {
            measured: m,
            spans: tr.into_spans(),
            log: Vec::new(),
            runtime_before,
            runtime_after: layers::runtime_stats(&runtime),
            net: None,
            fraud_cycles,
            detector: (
                det.transactions - det_before.transactions,
                det.skipped_by_precheck - det_before.skipped_by_precheck,
                det.alerts - det_before.alerts,
            ),
        };
        (run, oracle_s)
    }

    /// Feeds a [`FraudReplica`] the warm-up (untraced) and then the leading
    /// transactions of the traced pass, which must close the same cycles.
    fn layers(&mut self, stack: &StackRun) -> LayerRun {
        let mut replica = FraudReplica::new();
        let mut off = Tracer::off();
        for tx in self.warmup.iter() {
            replica.ingest(tx, &mut off, 0);
        }
        let mut tr = Tracer::on(Instant::now(), 0);
        let mut generator = layers::transaction_generator(self.seed);
        generator.stream(FRAUD_WARMUP);
        let mut failed = 0;
        for (i, want) in stack.fraud_cycles.iter().take(FRAUD_LAYER_TXS).enumerate() {
            let tx = generator.next_transaction();
            let cycles = replica.ingest(&tx, &mut tr, i as u32 + 1);
            failed += u64::from(cycles != *want);
        }
        failed += replica.replayer.counters.disagreements;
        LayerRun {
            ops: (1..=stack.fraud_cycles.len().min(FRAUD_LAYER_TXS) as u32).collect(),
            spans: tr.into_spans(),
            counters: replica.replayer.counters,
            runtime_us: None,
            unblocked_p50_us: None,
            failed,
        }
    }
}

impl Workload {
    /// Drives the stack for `seconds`; returns the run and the seconds the
    /// oracle took inside it (outside the measured clock).
    pub fn stack(&mut self, seconds: f64, trace: bool) -> (StackRun, f64) {
        match self {
            Workload::Static(w) => (w.stack(seconds, trace), 0.0),
            Workload::Fraud(w) => w.stack(seconds, trace),
        }
    }

    pub fn layers(&mut self, stack: &StackRun, seed: u64) -> LayerRun {
        match self {
            Workload::Static(w) => w.layers(stack, seed),
            Workload::Fraud(w) => w.layers(stack),
        }
    }

    /// Whether callers talk to the stack over TCP.
    pub fn over_wire(&self) -> bool {
        matches!(self, Workload::Static(w) if w.kind == Kind::TcpHot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_hash(seed: u64) -> u64 {
        let mut h = Fnv64::new();
        hash_queries(&mut h, &heavy_queries(seed));
        h.finish()
    }

    #[test]
    fn same_seed_same_op_list_hash() {
        assert_eq!(list_hash(42), list_hash(42));
        assert_eq!(heavy_queries(42).len(), 56);
    }

    #[test]
    fn different_seed_different_op_list_hash() {
        assert_ne!(list_hash(42), list_hash(43));
        // The set is fixed; only the order is drawn.
        let (mut a, mut b) = (heavy_queries(42), heavy_queries(43));
        let key = |q: &Query| (q.s.0, q.t.0);
        a.sort_unstable_by_key(key);
        b.sort_unstable_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn transaction_streams_follow_the_seed() {
        let stream = |seed| layers::transaction_generator(seed).stream(64);
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn pass_check_flags_a_pass_that_does_not_repeat() {
        let answer = |paths| Ok(Answer { paths, sim_us: 1.5, cache_hit: true });
        let mut pass = PassCheck::new(2);
        for paths in [1, 2, 1, 2, 1] {
            pass.add(&answer(paths));
        }
        let mut m = Measured::default();
        pass.finish(&mut m);
        assert_eq!((m.list_paths, m.list_sim_us, m.list_repeats), (3, 3.0, true));

        let mut pass = PassCheck::new(2);
        for paths in [1, 2, 1, 3] {
            pass.add(&answer(paths));
        }
        pass.finish(&mut m);
        assert!(!m.list_repeats);
    }

    #[test]
    fn disturbed_slices_do_not_move_rates_or_latencies() {
        // One op per µs with latencies 1..=10 µs; in two slices of three a
        // neighbour steals the CPU: a fifth of the ops, ten times the latency.
        const SLICES: u64 = 40;
        let slice_ns = 1_000_000u64;
        // 14 calm slices of 1 000 ops and 26 of 200: a list of 480 ops makes
        // the run 40 slices, of which the 10 fastest are reported.
        let mut m = Measured { total_ns: slice_ns * SLICES, list_len: 480, ..Measured::default() };
        let ok = Answer { paths: 2, sim_us: 1.0, cache_hit: true };
        for slice in 0..SLICES {
            let disturbed = slice % 3 != 0;
            let n = if disturbed { 200 } else { 1_000 };
            for i in 0..n {
                let lat_ns = (i % 10 + 1) * 1_000 * if disturbed { 10 } else { 1 };
                m.record(slice * slice_ns + i * 1_000, Some(lat_ns), Ok(ok), None);
            }
        }
        assert_eq!(m.slice_ops_per_s().len(), SLICES as usize);
        let e = m.end_to_end();
        assert_eq!(e["ops_per_s"], 1e6);
        assert_eq!(e["paths_per_s"], 2e6);
        assert_eq!(e["lat_p50_us"], 5.0);
        assert_eq!(e["lat_p99_us"], 10.0);
    }

    #[test]
    fn failed_ops_count_against_ok_frac_and_carry_no_latency() {
        let mut m = Measured::default();
        let ok = Answer { paths: 4, sim_us: 2.0, cache_hit: false };
        m.record(10, Some(1_000), Ok(ok), Some(4));
        m.record(20, Some(1_000), Ok(ok), Some(5)); // wrong answer
        m.record(30, Some(1_000), Err("BUSY".into()), Some(4));
        m.record(40, None, Ok(ok), None);
        m.total_ns = 50;
        assert_eq!((m.attempted, m.failed, m.answered(), m.latency_samples()), (4, 2, 2, 1));
        assert_eq!(m.end_to_end()["ok_frac"], 0.5);
        assert_eq!(m.end_to_end()["sim_us_per_op"], 2.0);
        // An op with no simulated time (CPU-routed) leaves the mean alone.
        m.record(45, None, Ok(Answer { paths: 1, sim_us: 0.0, cache_hit: true }), None);
        assert_eq!(m.end_to_end()["sim_us_per_op"], 2.0);
    }
}
