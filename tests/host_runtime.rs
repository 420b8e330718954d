//! Cross-crate integration tests of the host runtime: text query → session →
//! payload serialisation → DMA → simulated device → results, checked against
//! the CPU baselines — plus the concurrency-correctness suite of the
//! multi-tenant `HostRuntime` (N client threads sharing one CU cluster,
//! cancellation mid-stream, admission-queue backpressure).

use pefp::baselines::{naive_dfs_enumerate, Join};
use pefp::core::{prepare_snapshot_with, PefpVariant, PrepareContext};
use pefp::graph::paths::canonicalize;
use pefp::graph::sampling::sample_reachable_pairs;
use pefp::graph::{Dataset, GraphSnapshot, ScaleProfile};
use pefp::host::binfmt::{decode_payload, encode_payload};
use pefp::host::{
    BatchScheduler, GraphHandle, HostError, HostRuntime, HostSession, QueryRequest, RuntimeConfig,
    SchedulerConfig, SessionConfig,
};
use std::sync::Arc;

fn dataset_handle(dataset: Dataset) -> GraphHandle {
    GraphHandle::from_csr(
        format!("test:{}", dataset.code()),
        dataset.generate(ScaleProfile::Tiny).to_csr(),
    )
}

#[test]
fn session_results_match_join_and_naive_on_a_dataset_standin() {
    let handle = dataset_handle(Dataset::SocEpinions);
    let g = handle.csr.clone();
    let mut session = HostSession::with_graph(g.clone(), SessionConfig::default());

    let k = 4;
    let pairs = sample_reachable_pairs(&g, k, 5, 0xA11CE);
    assert!(!pairs.is_empty(), "workload sampler found no reachable pairs");
    for (s, t) in pairs {
        let outcome = session.run_query(QueryRequest { s, t, k }).unwrap();
        let naive = naive_dfs_enumerate(&g, s, t, k);
        let join = Join::new().enumerate(&g, s, t, k);
        assert_eq!(outcome.num_paths, naive.len() as u64, "{s}->{t}");
        assert_eq!(canonicalize(outcome.paths.clone()), canonicalize(naive));
        assert_eq!(outcome.num_paths, join.len() as u64);
    }
    assert_eq!(session.stats().rejected, 0);
}

#[test]
fn text_protocol_round_trips_through_the_session() {
    let handle = dataset_handle(Dataset::TwitterSocial);
    let mut session = HostSession::with_graph(handle.csr.clone(), SessionConfig::default());
    let pairs = sample_reachable_pairs(&handle.csr, 5, 1, 7);
    let Some(&(s, t)) = pairs.first() else {
        panic!("no reachable pair in the stand-in");
    };
    let text = format!("QUERY {} {} 5", s.0, t.0);
    let outcome = session.run_text_query(&text).unwrap();
    assert_eq!(outcome.request.to_wire(), text);
    let oracle = naive_dfs_enumerate(&handle.csr, s, t, 5);
    assert_eq!(outcome.num_paths, oracle.len() as u64);
}

#[test]
fn payload_survives_the_wire_for_every_dataset_standin() {
    for dataset in Dataset::all() {
        let g = GraphSnapshot::from_csr(dataset.generate(ScaleProfile::Tiny).to_csr());
        let pairs = sample_reachable_pairs(g.base(), 4, 1, 0xBEEF);
        let Some(&(s, t)) = pairs.first() else { continue };
        let prepared =
            prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, 4, PefpVariant::Full);
        if prepared.graph.num_vertices() == 0 {
            continue;
        }
        let bytes = encode_payload(&prepared);
        let decoded = decode_payload(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", dataset.code()));
        assert_eq!(decoded.graph, *prepared.graph, "{}", dataset.code());
        assert_eq!(decoded.barrier, prepared.barrier, "{}", dataset.code());
        assert_eq!(decoded.header.k, 4);
    }
}

#[test]
fn batch_scheduler_agrees_with_interactive_sessions() {
    let handle = dataset_handle(Dataset::Amazon);
    let k = 6;
    let requests: Vec<QueryRequest> = sample_reachable_pairs(&handle.csr, k, 8, 42)
        .into_iter()
        .map(|(s, t)| QueryRequest { s, t, k })
        .collect();
    assert!(!requests.is_empty());

    let scheduler = BatchScheduler::new(SchedulerConfig {
        preprocess_threads: 2,
        ..SchedulerConfig::default()
    });
    let outcome = scheduler.run_batch(&handle.snapshot(), handle.placement, &requests).unwrap();

    let mut session = HostSession::with_graph(
        handle.csr.clone(),
        SessionConfig { collect_paths: false, ..SessionConfig::default() },
    );
    for (req, batch_row) in requests.iter().zip(&outcome.results) {
        let interactive = session.run_query(*req).unwrap();
        assert_eq!(interactive.num_paths, batch_row.num_paths, "{req:?}");
    }
}

/// Client threads of the two concurrency tests below.
const CLIENTS: usize = 4;

type ClientResults = Vec<Vec<Vec<pefp::graph::Path>>>;

/// Runs `queries` on [`CLIENTS`] threads — one session each on one shared
/// 4-CU runtime — every client in a rotated order, so the threads genuinely
/// interleave on the cluster. Returns the runtime and, per client, the
/// canonical path set of every query it ran (`results[c][i]` answers
/// `queries[(i + c) % len]`).
fn run_rotated_clients(
    handle: &GraphHandle,
    queries: &[QueryRequest],
) -> (Arc<HostRuntime>, ClientResults) {
    let runtime = HostRuntime::launch(
        handle.clone(),
        RuntimeConfig { compute_units: 4, ..RuntimeConfig::default() },
    );
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let runtime = Arc::clone(&runtime);
                scope.spawn(move || {
                    let mut session = HostSession::attach(runtime);
                    (0..queries.len())
                        .map(|i| {
                            let q = queries[(i + c) % queries.len()];
                            canonicalize(session.run_query(q).unwrap().paths)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    (runtime, results)
}

fn concurrency_queries(handle: &GraphHandle) -> Vec<QueryRequest> {
    let k = 4;
    let queries: Vec<QueryRequest> = sample_reachable_pairs(&handle.csr, k, 12, 0xC0FFEE)
        .into_iter()
        .map(|(s, t)| QueryRequest { s, t, k })
        .collect();
    assert!(queries.len() >= 4, "need a non-trivial workload");
    queries
}

/// N client threads × M queries against one shared 4-CU runtime produce path
/// sets byte-identical to serial `HostSession` runs of the same queries.
/// Answers only: nothing here depends on how the threads interleaved.
#[test]
fn concurrent_sessions_match_serial_results_byte_for_byte() {
    let handle = dataset_handle(Dataset::SocEpinions);
    let queries = concurrency_queries(&handle);

    // Serial oracle: a classic private-runtime session, one query at a time.
    let mut serial = HostSession::with_graph(handle.csr.clone(), SessionConfig::default());
    let expected: Vec<Vec<pefp::graph::Path>> =
        queries.iter().map(|q| canonicalize(serial.run_query(*q).unwrap().paths)).collect();

    let (_runtime, per_client) = run_rotated_clients(&handle, &queries);
    for (c, results) in per_client.iter().enumerate() {
        for (i, got) in results.iter().enumerate() {
            let want = &expected[(i + c) % queries.len()];
            assert_eq!(got, want, "client {c}, slot {i}: concurrent != serial");
        }
    }
}

/// The counters of the same run, held only to bounds that every interleaving
/// satisfies. (How *much* the shared cache absorbs and whether the tenants
/// overlap in virtual time depend on scheduling; the `host_concurrency` bench
/// reports and checks those.)
#[test]
fn concurrent_sessions_keep_interleaving_independent_stats() {
    let handle = dataset_handle(Dataset::SocEpinions);
    let queries = concurrency_queries(&handle);
    let (runtime, _) = run_rotated_clients(&handle, &queries);
    let stats = runtime.stats();
    let (unique, total) = (queries.len() as u64, (CLIENTS * queries.len()) as u64);
    assert_eq!(stats.completed, total, "{stats:#?}");
    // One counted lookup per job.
    assert_eq!(stats.cache_hits + stats.cache_misses, total, "{stats:#?}");
    // Every unique query misses at least once; clients racing on the same
    // cold key may each miss, but no client misses a key twice.
    assert!(
        unique <= stats.cache_misses && stats.cache_misses <= CLIENTS as u64 * unique,
        "{stats:#?}"
    );
}

/// Cancellation mid-stream (a sink break) stops the emission: the session
/// reports exactly the delivered prefix and the runtime keeps serving.
#[test]
fn cancellation_mid_stream_stops_emission() {
    use pefp::graph::generators::{layered_dag, layered_sink, layered_source};
    use pefp::graph::{CollectSink, FirstN};

    // 4^5 = 1024 result paths; the stream is cut after 8.
    let g = layered_dag(5, 4, 4, 1).to_csr();
    let (s, t) = (layered_source().0, layered_sink(5, 4).0);
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("layered", g),
        RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() },
    );
    let mut session = HostSession::attach(Arc::clone(&runtime));
    let mut sink = FirstN::new(8, CollectSink::new());
    let outcome = session.run_query_streaming(QueryRequest::new(s, t, 6), &mut sink).unwrap();
    assert_eq!(outcome.num_paths, 8, "exactly the delivered prefix is reported");
    assert_eq!(sink.into_inner().paths().len(), 8);
    assert_eq!(session.stats().emitted_paths, 8);

    // The runtime survives the cancellation and serves the next query fully.
    let full = session.run_query(QueryRequest::new(s, t, 6)).unwrap();
    assert_eq!(full.num_paths, 1024);
    let stats = runtime.stats();
    assert_eq!(stats.completed, 2);
}

/// Backpressure: with a 1-slot admission queue and the only worker wedged on
/// an undrained streaming job, the next submission is queued and the one
/// after that surfaces `QueueFull` instead of blocking.
#[test]
fn queue_full_surfaces_under_a_one_slot_queue() {
    use pefp::graph::generators::{layered_dag, layered_sink, layered_source};

    let g = layered_dag(5, 4, 4, 1).to_csr();
    let (s, t) = (layered_source().0, layered_sink(5, 4).0);
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("layered", g),
        RuntimeConfig { compute_units: 1, queue_capacity: 1, ..RuntimeConfig::default() },
    );
    let session = runtime.register_session();

    // Wedge the worker: a streaming job whose 1-path channel nobody drains.
    let (stream_ticket, rx) =
        runtime.submit_query_streaming(session, QueryRequest::new(s, t, 6), 1).unwrap();
    // Wait until the worker actually picked the job up (first path arrives).
    let first = rx.recv().expect("the streaming job must start");
    assert!(!first.is_empty());

    // One job fits the queue; the second is refused with QueueFull.
    let queued = runtime.submit_query(session, QueryRequest::new(s, t, 5), false).unwrap();
    let refused = runtime.submit_query(session, QueryRequest::new(s, t, 4), false);
    assert!(matches!(refused, Err(HostError::QueueFull)));
    assert_eq!(runtime.stats().queue_full_rejections, 1);

    // Unwedge: cancel the stream and drop the receiver; everything drains.
    stream_ticket.cancel();
    drop(rx);
    let streamed = stream_ticket.wait().unwrap();
    assert!(streamed.num_paths <= 1024);
    let queued = queued.wait().unwrap();
    assert_eq!(queued.num_paths, 0, "no source→sink path uses fewer than 6 hops");
    assert_eq!(runtime.queue_depth(), 0);
}

#[test]
fn invalid_input_is_rejected_at_every_layer() {
    let handle = dataset_handle(Dataset::Reactome);
    let n = handle.csr.num_vertices() as u32;
    let mut session = HostSession::with_graph(handle.csr.clone(), SessionConfig::default());

    // Parse layer.
    assert!(matches!(session.run_text_query("QUERY one two three"), Err(HostError::QueryParse(_))));
    // Validation layer.
    assert!(matches!(
        session.run_query(QueryRequest::new(0, n + 5, 3)),
        Err(HostError::QueryInvalid(_))
    ));
    // Payload layer (corrupted bytes).
    let pairs = sample_reachable_pairs(&handle.csr, 3, 1, 1);
    let (s, t) = pairs[0];
    let prepared = prepare_snapshot_with(
        &mut PrepareContext::new(),
        &handle.snapshot(),
        s,
        t,
        3,
        PefpVariant::Full,
    );
    let mut bytes = encode_payload(&prepared).to_vec();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    assert!(matches!(decode_payload(&bytes), Err(HostError::PayloadCorrupt(_))));
    // Scheduler layer (whole batch rejected).
    let scheduler = BatchScheduler::new(SchedulerConfig::default());
    let bad = vec![QueryRequest::new(0, 1, 3), QueryRequest::new(0, n + 1, 3)];
    assert!(scheduler.run_batch(&handle.snapshot(), handle.placement, &bad).is_err());
}

/// Snapshot isolation under live updates: a STREAM job admitted in epoch N
/// keeps emitting epoch-N answers even though an update lands epoch N+1
/// mid-stream, while a query admitted *after* the update sees epoch N+1.
#[test]
fn mid_stream_updates_do_not_leak_into_pinned_jobs() {
    use pefp::graph::generators::{layered_dag, layered_sink, layered_source};
    use pefp::graph::{GraphDelta, VertexId};

    // 4^5 = 1024 source→sink paths at k = 6; each of the source's 4
    // successors carries 4^4 = 256 of them.
    let handle = GraphHandle::from_csr("layered", layered_dag(5, 4, 4, 1).to_csr());
    let (s, t) = (layered_source().0, layered_sink(5, 4).0);
    let first_hop = handle.csr.successors(VertexId(s))[0];
    let runtime = HostRuntime::launch(
        handle.clone(),
        RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() },
    );
    let session = runtime.register_session();
    assert_eq!(runtime.epoch(), 0);

    // Start the stream on a tiny channel so the worker is paced by us, and
    // wait until it has provably begun (first path delivered).
    let (ticket, rx) =
        runtime.submit_query_streaming(session, QueryRequest::new(s, t, 6), 2).unwrap();
    let mut received = vec![rx.recv().expect("stream must start")];

    // Epoch N+1 lands mid-stream: the first source edge disappears.
    let mut delta = GraphDelta::new();
    delta.remove_edge(VertexId(s), first_hop);
    let epoch = runtime.apply_updates(&delta);
    assert_eq!(epoch, 1);
    assert_eq!(runtime.epoch(), 1);

    // A query admitted after the update sees epoch N+1: 3 surviving source
    // edges × 256 paths each. (2 CUs, so it runs beside the wedged stream.)
    let post = runtime.submit_query(session, QueryRequest::new(s, t, 6), false).unwrap();
    assert_eq!(post.wait().unwrap().num_paths, 768);

    // The pinned stream still answers from epoch N: all 1024 paths arrive,
    // including the 256 through the edge that no longer exists.
    received.extend(rx.iter());
    assert_eq!(ticket.wait().unwrap().num_paths, 1024);
    assert_eq!(received.len(), 1024);
    let through_removed = received.iter().filter(|p| p[1] == first_hop).count();
    assert_eq!(through_removed, 256, "epoch-N paths through the removed edge");
}

/// Exact touched-vertex invalidation: an update touching component A evicts
/// precisely the cached prepared queries whose touched set intersects it;
/// the entry for the disjoint component B survives and keeps serving hits.
#[test]
fn updates_evict_exactly_the_touched_cache_entries() {
    use pefp::graph::{CsrGraph, GraphDelta, VertexId};

    // Two disconnected diamonds: A = {0,1,2,3}, B = {4,5,6,7}.
    let g =
        CsrGraph::from_edges(8, &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7)]);
    let runtime = HostRuntime::launch(
        GraphHandle::from_csr("two-diamonds", g),
        RuntimeConfig { compute_units: 1, ..RuntimeConfig::default() },
    );
    let session = runtime.register_session();
    let query_a = QueryRequest::new(0, 3, 3);
    let query_b = QueryRequest::new(4, 7, 3);

    let run = |q: QueryRequest| {
        runtime.submit_query(session, q, false).unwrap().wait().unwrap().num_paths
    };
    assert_eq!(run(query_a), 2);
    assert_eq!(run(query_a), 2);
    assert_eq!(run(query_b), 2);
    assert_eq!(run(query_b), 2);
    let stats = runtime.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2));
    assert_eq!(stats.cached_prepared_queries, 2);

    // Update inside component A only: edge 1 → 2 creates the 3-hop path
    // 0-1-2-3 and touches nothing in component B.
    let mut delta = GraphDelta::new();
    delta.insert_edge(VertexId(1), VertexId(2));
    runtime.apply_updates(&delta);
    let stats = runtime.stats();
    assert_eq!(stats.cache_invalidated, 1, "only A's entry is evicted");
    assert_eq!(stats.cached_prepared_queries, 1, "B's entry survives");

    // B still hits the cache; A misses, recomputes, and sees the new path.
    assert_eq!(run(query_b), 2);
    assert_eq!(run(query_a), 3);
    let stats = runtime.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (3, 3));
    assert_eq!(stats.graph_updates, 1);
    assert_eq!(stats.epoch, 1);
}
