//! Every call the benchmark makes into the program under test.
//!
//! Two kinds of call live here. The *stack* calls are the public entry points
//! a user of the system drives (`submit_query`/`wait`, binary frames over
//! TCP, `RuntimeCycleDetector::ingest`); the workloads time them end to end.
//! The *layer* calls replay one op through the entry points
//! `runtime::execute_job` itself calls, in pipeline order, each under its own
//! span, so the traced run can say which layer the time went to without any
//! span inside the program. A PR that renames one of these entry points
//! re-points this file and nothing else.

use crate::trace::Tracer;
use pefp_baselines::{naive_dfs_enumerate, BcDfs, Join};
use pefp_core::{
    prepare_snapshot_with, route_query, run_prepared_on_device, PrepareContext, PreparedQuery,
    RouteContext, RoutingTable,
};
use pefp_fpga::{Device, Pcie};
use pefp_graph::bfs::clamp_unreached;
use pefp_graph::generators::chung_lu;
use pefp_graph::sink::CountingSink;
use pefp_graph::view::GraphView;
use pefp_graph::{
    khop_bfs, BfsScratch, CsrGraph, GraphDelta, GraphSnapshot, VersionedGraph, VertexId,
};
use pefp_host::binfmt::{encode_payload, payload_bytes};
use pefp_host::wire::{read_frame, Reply, Request};
use pefp_host::{
    DmaEngine, GraphHandle, HostError, HostRuntime, JobTicket, NetConfig, NetServer, NetStats,
    QueryOutcome, QueryRequest, RuntimeConfig, RuntimeStats, SessionId,
};
use pefp_streaming::{
    RuntimeCycleDetector, RuntimeDetectorConfig, SlidingWindow, Transaction, TransactionGenerator,
    TransactionGeneratorConfig,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

pub use pefp_host::QueryRequest as Query;

/// Seed of the static data graph. The graph is the benchmark's *dataset*, not
/// an input drawn from `--seed`: Chung–Lu in-weights are shuffled, so the path
/// count between the same hub pair swings 50x from one graph seed to the next
/// (10 ops/s on seed 48, 5 400 ops/s on seed 50) and no bound would hold
/// across seeds. `--seed` draws the queries and transactions instead.
pub const GRAPH_SEED: u64 = 3;
const GRAPH_VERTICES: usize = 200_000;

/// Constrained-cycle length and window of the fraud stream.
pub const FRAUD_CYCLE_HOPS: u32 = 6;
pub const FRAUD_WINDOW: u64 = 16_384;
const FRAUD_ACCOUNTS: u32 = 4_096;

/// The one result every stack call boils down to.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub paths: u64,
    /// Simulated transfer + device time (the paper's transfer + `T2`), µs.
    /// 0 for a query the router ran on a CPU engine: it never crossed the
    /// PCIe link, and the program reports host wall time in its place.
    pub sim_us: f64,
    pub cache_hit: bool,
}

impl Answer {
    fn of(outcome: &QueryOutcome) -> Answer {
        let on_device = outcome.transfer.bytes > 0;
        let sim_ms = outcome.transfer.total_millis + outcome.device_millis;
        Answer {
            paths: outcome.num_paths,
            sim_us: if on_device { sim_ms * 1e3 } else { 0.0 },
            cache_hit: outcome.cache_hit,
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Generates `cl200k = chung_lu(200_000, 8.0, 2.2, GRAPH_SEED)` and loads it.
/// Returns the handle and the seconds the generator alone took.
pub fn build_static_graph() -> (GraphHandle, f64) {
    let start = Instant::now();
    let csr = chung_lu(GRAPH_VERTICES, 8.0, 2.2, GRAPH_SEED).to_csr();
    let graph_gen_s = start.elapsed().as_secs_f64();
    (GraphHandle::from_csr("cl200k", csr), graph_gen_s)
}

/// Runtime shapes the workloads run on. Everything not named is the
/// program's default (128-entry prepared cache, device-always placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    OneCu,
    FourCu,
    /// One CU, the builtin routing table and one CPU worker.
    OneCuRouted,
}

pub fn runtime_config(shape: Shape) -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    match shape {
        Shape::OneCu => {}
        Shape::FourCu => config.compute_units = 4,
        Shape::OneCuRouted => {
            config.routing = Some(RoutingTable::builtin());
            config.cpu_workers = 1;
        }
    }
    config
}

pub fn launch(graph: &GraphHandle, shape: Shape) -> Arc<HostRuntime> {
    HostRuntime::launch(graph.clone(), runtime_config(shape))
}

pub fn bind_server(runtime: Arc<HostRuntime>) -> NetServer {
    NetServer::bind(runtime, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

pub fn runtime_stats(runtime: &HostRuntime) -> RuntimeStats {
    runtime.stats()
}

pub fn net_stats(server: &NetServer) -> NetStats {
    server.stats()
}

// ---------------------------------------------------------------------------
// Stack calls
// ---------------------------------------------------------------------------

/// `submit_query` in counting mode, under a `host.runtime` span.
pub fn submit(
    runtime: &HostRuntime,
    session: SessionId,
    q: Query,
    tr: &mut Tracer,
    op: u32,
    parent: u32,
) -> Result<JobTicket<QueryOutcome>, HostError> {
    tr.time("host.runtime", "submit_query", op, parent, || runtime.submit_query(session, q, false))
}

/// `JobTicket::wait`, under a `host.runtime` span.
pub fn wait(
    ticket: JobTicket<QueryOutcome>,
    tr: &mut Tracer,
    op: u32,
    parent: u32,
) -> Result<Answer, HostError> {
    tr.time("host.runtime", "wait", op, parent, || ticket.wait()).map(|o| Answer::of(&o))
}

/// A closed-loop caller on the binary wire protocol.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(TcpClient { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// One `COUNT s t k` round trip. `BUSY`, `ERR`, a closed socket and a
    /// malformed frame are all errors: this workload never overloads the
    /// admission queue, so none of them may happen.
    pub fn count(
        &mut self,
        q: Query,
        tr: &mut Tracer,
        op: u32,
        parent: u32,
    ) -> Result<Answer, String> {
        let request = Request::Count { s: q.s.0, t: q.t.0, k: q.k };
        let bytes = tr.time("host.wire", "encode_request", op, parent, || request.encode());
        tr.time("host.net", "write", op, parent, || self.writer.write_all(&bytes))
            .map_err(|e| format!("write: {e}"))?;
        let frame = tr
            .time("host.net", "read_frame", op, parent, || read_frame(&mut self.reader))
            .map_err(|e| format!("read: {e}"))?
            .ok_or("connection closed")?;
        let reply = tr
            .time("host.wire", "decode_reply", op, parent, || Reply::decode(&frame))
            .map_err(|e| format!("decode: {e}"))?;
        match reply {
            Reply::Summary { num_paths, transfer_ns, device_ns, cache_hit, .. } => Ok(Answer {
                paths: num_paths,
                sim_us: if transfer_ns > 0 { (transfer_ns + device_ns) as f64 / 1e3 } else { 0.0 },
                cache_hit,
            }),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}

pub fn new_detector() -> RuntimeCycleDetector {
    RuntimeCycleDetector::new(RuntimeDetectorConfig {
        max_cycle_hops: FRAUD_CYCLE_HOPS,
        window_size: FRAUD_WINDOW,
        runtime: runtime_config(Shape::OneCu),
    })
}

pub fn transaction_generator(seed: u64) -> TransactionGenerator {
    TransactionGenerator::new(TransactionGeneratorConfig {
        num_accounts: FRAUD_ACCOUNTS,
        fraud_probability: 0.05,
        ring_size: 4,
        seed,
    })
}

/// `RuntimeCycleDetector::ingest`, under a `streaming` span. The alert does
/// not carry the DMA report, so `sim_us` is the device share only.
pub fn ingest(
    det: &mut RuntimeCycleDetector,
    tx: &Transaction,
    tr: &mut Tracer,
    op: u32,
) -> Answer {
    let alert = tr.time("streaming", "ingest", op, 0, || det.ingest(tx));
    Answer { paths: alert.cycles.len() as u64, sim_us: alert.device_millis * 1e3, cache_hit: false }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Path count of `q` by BC-DFS on the whole data graph (no Pre-BFS, no
/// device): the reference every static workload's answers are checked against.
pub fn oracle_count(graph: &GraphHandle, q: Query) -> u64 {
    let mut barrier = khop_bfs(graph.reverse.as_ref(), q.t, q.k);
    clamp_unreached(&mut barrier, q.k);
    let mut sink = CountingSink::new();
    let _ = BcDfs::with_barrier(barrier, q.k).enumerate_into(&graph.csr, q.s, q.t, q.k, &mut sink);
    sink.count()
}

/// Cycles `tx` closes, by brute-force DFS on a snapshot taken right after the
/// transaction was ingested. The new edge `from -> to` cannot lie on a simple
/// `to ~> from` path, so the post-insert snapshot gives the pre-insert answer.
pub fn oracle_cycles(snapshot: &GraphSnapshot, tx: &Transaction) -> u64 {
    let n = snapshot.num_vertices();
    if tx.from == tx.to || tx.from as usize >= n || tx.to as usize >= n {
        return 0;
    }
    naive_dfs_enumerate(
        &snapshot.to_csr(),
        VertexId(tx.to),
        VertexId(tx.from),
        FRAUD_CYCLE_HOPS - 1,
    )
    .len() as u64
}

// ---------------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------------

/// Counter sums over the ops a [`Replayer`] replayed; durations live in the
/// spans.
#[derive(Debug, Default, Clone)]
pub struct LayerCounters {
    pub ops: u64,
    pub bfs_touched: u64,
    pub kept_vertices: u64,
    pub kept_edges: u64,
    pub routed: u64,
    pub routed_cpu: u64,
    /// Wall ns of the CPU engine the router chose, for ops it sent there.
    pub cpu_engine_ns: u64,
    pub expansions: u64,
    pub batches: u64,
    pub useful: u64,
    pub cycles: u64,
    pub dram_cycles: u64,
    pub contention_cycles: u64,
    pub bank_conflict_cycles: u64,
    pub turnaround_cycles: u64,
    pub bram_reads: u64,
    pub dram_words: u64,
    pub fpga_cache_hits: u64,
    pub fpga_cache_misses: u64,
    pub buffer_flushes: u64,
    pub binfmt_bytes: u64,
    pub dma_sim_us: f64,
    pub dma_descriptors: u64,
    pub wire_bytes: u64,
    /// Sum of PEFP `T = T1 + transfer + T2` (ms; mixes clocks, layer-only).
    pub pefp_total_ms: f64,
    /// Ops whose engines disagreed on the path count.
    pub disagreements: u64,
}

/// Replays single ops through the pipeline stages `execute_job` runs.
pub struct Replayer {
    config: RuntimeConfig,
    placement: pefp_graph::PlacementPolicy,
    ctx: PrepareContext,
    forward: BfsScratch,
    backward: BfsScratch,
    dma: DmaEngine,
    /// Prepared queries of ops the stack served from its cache: the replay
    /// skips Pre-BFS for them exactly as the runtime did.
    memo: HashMap<QueryRequest, Arc<PreparedQuery>>,
    /// Whether ops reach the stack as frames, so the replay adds the codec.
    over_wire: bool,
    pub counters: LayerCounters,
}

impl Replayer {
    pub fn new(
        config: RuntimeConfig,
        placement: pefp_graph::PlacementPolicy,
        over_wire: bool,
    ) -> Replayer {
        let pcie = Pcie::new(config.device.pcie_gbps, config.device.pcie_setup_us);
        Replayer {
            config,
            placement,
            ctx: PrepareContext::new(),
            forward: BfsScratch::new(),
            backward: BfsScratch::new(),
            dma: DmaEngine::with_defaults(pcie),
            memo: HashMap::new(),
            over_wire,
            counters: LayerCounters::default(),
        }
    }

    fn prepare(&mut self, snapshot: &GraphSnapshot, q: Query) -> PreparedQuery {
        prepare_snapshot_with(&mut self.ctx, snapshot, q.s, q.t, q.k, self.config.variant)
    }

    /// Replays `q` against `snapshot`; `cache_hit` is what the stack pass saw
    /// for this op. Returns the path count.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        op: u32,
        parent: u32,
        snapshot: &GraphSnapshot,
        q: Query,
        cache_hit: bool,
    ) -> u64 {
        let over_wire = self.over_wire;
        let root = tr.open("replay", "op", op, parent);
        if over_wire {
            let request = Request::Count { s: q.s.0, t: q.t.0, k: q.k };
            let bytes = tr.time("host.wire", "request_codec", op, root.id, || {
                let bytes = request.encode();
                let frame = read_frame(&mut &bytes[..]).expect("own frame").expect("one frame");
                black_box(Request::decode(&frame).expect("own request"));
                bytes.len()
            });
            self.counters.wire_bytes += bytes as u64;
        }

        // Pre-BFS: the two bounded BFS runs on their own (the `graph` layer),
        // then the whole preparation, which repeats them inside.
        let prepared: Arc<PreparedQuery> = if cache_hit {
            match self.memo.get(&q) {
                Some(p) => Arc::clone(p),
                None => {
                    let p = Arc::new(self.prepare(snapshot, q));
                    self.memo.insert(q, Arc::clone(&p));
                    p
                }
            }
        } else {
            let bound = q.k.saturating_sub(1);
            tr.time("graph", "bfs_forward", op, root.id, || {
                self.forward.run(&snapshot.forward(), q.s, bound)
            });
            tr.time("graph", "bfs_backward", op, root.id, || {
                self.backward.run(&snapshot.reverse(), q.t, bound)
            });
            self.counters.bfs_touched +=
                (self.forward.touched_len() + self.backward.touched_len()) as u64;
            let open = tr.open("core.preprocess", "prepare_snapshot_with", op, root.id);
            let p = self.prepare(snapshot, q);
            tr.close(open);
            Arc::new(p)
        };
        self.counters.ops += 1;
        self.counters.kept_vertices += prepared.graph.num_vertices() as u64;
        self.counters.kept_edges += prepared.graph.num_edges() as u64;

        // Routing, only where the runtime routes.
        let mut cpu_choice = None;
        if let Some(table) = &self.config.routing {
            let ctx = RouteContext {
                compute_units: self.config.compute_units.max(1),
                charge_banked: self.config.charge_banked,
            };
            let decision = tr.time("core.routing", "route_query", op, root.id, || {
                route_query(&prepared, table, &ctx)
            });
            self.counters.routed += 1;
            if decision.choice.is_cpu() {
                self.counters.routed_cpu += 1;
                cpu_choice = Some(decision.choice);
            }
        }

        // Payload framing, DMA and the engine on the device model.
        let mut device_paths = None;
        let mut total_ms = prepared.host_millis;
        if cpu_choice.is_none() {
            let bytes =
                tr.time("host.binfmt", "payload_bytes", op, root.id, || payload_bytes(&prepared));
            tr.time("host.binfmt", "encode_payload", op, root.id, || {
                black_box(encode_payload(&prepared));
            });
            let transfer =
                tr.time("host.dma", "transfer", op, root.id, || self.dma.transfer(bytes));
            let mut options = self.config.variant.engine_options();
            options.collect_paths = false;
            options.bank_placement = self.placement;
            let device = Device::new(self.config.device.clone());
            let result = tr.time("core.engine", "run_prepared_on_device", op, root.id, || {
                run_prepared_on_device(&prepared, options, device, &mut CountingSink::new())
            });
            let c = &mut self.counters;
            c.binfmt_bytes += bytes as u64;
            c.dma_sim_us += transfer.total_millis * 1e3;
            c.dma_descriptors += transfer.descriptors as u64;
            c.expansions += result.stats.expansions;
            c.batches += result.stats.batches;
            c.useful += result.stats.results + result.stats.intermediate_paths;
            let d = &result.device;
            c.cycles += d.cycles;
            c.dram_cycles += d.dram_cycles;
            c.contention_cycles += d.contention_cycles;
            c.bank_conflict_cycles += d.bank_conflict_cycles;
            c.turnaround_cycles += d.turnaround_cycles;
            c.bram_reads += d.counters.bram_reads;
            c.dram_words += d.counters.dram_words_total();
            c.fpga_cache_hits += d.counters.cache_hits;
            c.fpga_cache_misses += d.counters.cache_misses;
            c.buffer_flushes += d.counters.buffer_flushes;
            total_ms += transfer.total_millis + result.query_millis;
            device_paths = Some(result.num_paths);
        }

        // The CPU baselines on the same prepared query (what the router's CPU
        // tier runs, and the Fig. 8 comparison).
        let (bcdfs_paths, join_paths) = if prepared.feasible {
            let g = prepared.graph.as_ref();
            let (s, t, k) = (prepared.s, prepared.t, prepared.k);
            let mut barrier = prepared.barrier.clone();
            if let Some(b) = barrier.get_mut(s.index()) {
                *b = (*b).min(k);
            }
            let started = Instant::now();
            let mut sink = CountingSink::new();
            tr.time("baselines", "bc_dfs", op, root.id, || {
                let _ = BcDfs::with_barrier(barrier, k).enumerate_into(g, s, t, k, &mut sink);
            });
            let bcdfs_ns = started.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let mut join_sink = CountingSink::new();
            tr.time("baselines", "join", op, root.id, || {
                let _ = Join::new().enumerate_into(g, s, t, k, &mut join_sink);
            });
            let join_ns = started.elapsed().as_nanos() as u64;
            match cpu_choice {
                Some(pefp_core::EngineChoice::CpuJoin) => self.counters.cpu_engine_ns += join_ns,
                Some(_) => self.counters.cpu_engine_ns += bcdfs_ns,
                None => {}
            }
            (sink.count(), join_sink.count())
        } else {
            (0, 0)
        };
        self.counters.pefp_total_ms += total_ms;
        if bcdfs_paths != join_paths || device_paths.is_some_and(|p| p != bcdfs_paths) {
            self.counters.disagreements += 1;
        }

        if over_wire {
            let reply = Reply::Summary {
                num_paths: bcdfs_paths,
                preprocess_ns: 0,
                transfer_ns: 0,
                device_ns: 0,
                cache_hit,
                sample: Vec::new(),
            };
            let bytes = tr.time("host.wire", "reply_codec", op, root.id, || {
                let bytes = reply.encode();
                let frame = read_frame(&mut &bytes[..]).expect("own frame").expect("one frame");
                black_box(Reply::decode(&frame).expect("own reply"));
                bytes.len()
            });
            self.counters.wire_bytes += bytes as u64;
        }
        tr.close(root);
        bcdfs_paths
    }
}

/// The steps of `RuntimeCycleDetector::ingest`, made one public call at a
/// time so the calls into other layers get spans: `apply_updates` after window
/// expiry, the cycle query, `apply_updates` for the insert. Fed the same
/// stream as the real detector it must report the same cycles, which the
/// workload checks.
pub struct FraudReplica {
    runtime: Arc<HostRuntime>,
    session: SessionId,
    window: SlidingWindow,
    /// A second copy of the graph, so `VersionedGraph::apply` is timed apart
    /// from the cache sweep `apply_updates` adds.
    versioned: VersionedGraph,
    expired: Vec<(VertexId, VertexId)>,
    pub replayer: Replayer,
}

impl FraudReplica {
    pub fn new() -> FraudReplica {
        let config = runtime_config(Shape::OneCu);
        let graph = GraphHandle::from_csr("fraud-replica", CsrGraph::empty(0));
        let placement = graph.placement;
        let runtime = HostRuntime::launch(graph, config.clone());
        FraudReplica {
            session: runtime.register_session(),
            runtime,
            window: SlidingWindow::new(FRAUD_WINDOW),
            versioned: VersionedGraph::from_csr(CsrGraph::empty(0)),
            expired: Vec::new(),
            replayer: Replayer::new(config, placement, false),
        }
    }

    fn update(
        &mut self,
        insert: Option<(VertexId, VertexId)>,
        tr: &mut Tracer,
        op: u32,
        parent: u32,
    ) {
        if self.expired.is_empty() && insert.is_none() {
            return;
        }
        let mut delta = GraphDelta::new();
        for &(u, v) in &self.expired {
            delta.remove_edge(u, v);
        }
        if let Some((u, v)) = insert {
            delta.insert_edge(u, v);
        }
        self.expired.clear();
        tr.time("host.runtime", "apply_updates", op, parent, || self.runtime.apply_updates(&delta));
        tr.time("graph", "delta_apply", op, parent, || {
            self.versioned.apply(&delta);
        });
    }

    /// Ingests `tx`; returns the cycles it closed.
    pub fn ingest(&mut self, tx: &Transaction, tr: &mut Tracer, op: u32) -> u64 {
        let root = tr.open("streaming", "ingest_replica", op, 0);
        self.window.advance_to_collecting(tx.timestamp, &mut self.expired);
        self.update(None, tr, op, root.id);

        let (s, t) = (VertexId(tx.to), VertexId(tx.from));
        let budget = FRAUD_CYCLE_HOPS - 1;
        let snapshot = self.runtime.current_snapshot();
        let n = snapshot.num_vertices();
        let mut cycles = 0;
        if s != t && s.index() < n && t.index() < n {
            // The pre-check is the streaming layer's own work: it stays in
            // the root span's self time.
            let dist = khop_bfs(&snapshot.forward(), s, budget);
            if dist[t.index()] <= budget {
                let q = QueryRequest { s, t, k: budget };
                let open = tr.open("host.runtime", "submit_wait", op, root.id);
                let outcome = self
                    .runtime
                    .submit_query(self.session, q, true)
                    .and_then(JobTicket::wait)
                    .expect("replica query");
                tr.close(open);
                cycles = outcome.num_paths;
                if tr.enabled() {
                    let replayed =
                        self.replayer.replay(tr, op, root.id, &snapshot, q, outcome.cache_hit);
                    if replayed != cycles {
                        self.replayer.counters.disagreements += 1;
                    }
                }
            }
        }
        drop(snapshot);

        self.window.ingest_collecting(tx, &mut self.expired);
        self.update(Some((VertexId(tx.from), VertexId(tx.to))), tr, op, root.id);
        tr.close(root);
        cycles
    }
}
