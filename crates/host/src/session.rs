//! Long-lived host sessions.
//!
//! A session is one client's handle onto a [`HostRuntime`]: it parses and
//! validates queries, submits them as jobs, awaits their tickets and keeps
//! per-client statistics. Each query still walks the full workflow of Fig. 2
//! — parse → Pre-BFS → serialise → DMA transfer → device enumeration →
//! result collection — but the preprocessing cache, worker pool and compute
//! units behind it are owned by the runtime and may be shared with other
//! sessions ([`HostSession::attach`]). The classic standalone shape
//! ([`HostSession::with_graph`]) simply owns a private single-CU runtime, so
//! the paper's one-process deployment is the degenerate case.

use crate::dma::DmaTransferReport;
use crate::error::HostError;
use crate::loader::GraphHandle;
use crate::query::QueryRequest;
use crate::runtime::{HostRuntime, RuntimeConfig, SessionId};
use pefp_core::PefpVariant;
use pefp_fpga::DeviceConfig;
use pefp_graph::sink::PathSink;
use pefp_graph::{CsrGraph, Path};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Bounded per-query path channel between a streaming job's worker and the
/// session draining it into the caller's sink: deep enough to keep the CU
/// busy while the client formats, small enough that an abandoned client
/// backpressures its query almost immediately.
const STREAM_CHANNEL_PATHS: usize = 256;

/// Session-wide configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Device profile queries run against.
    pub device: DeviceConfig,
    /// Which PEFP variant to run (the full system by default; the ablation
    /// variants are exposed for experimentation).
    pub variant: PefpVariant,
    /// Materialise result paths (`true`) or only count them.
    pub collect_paths: bool,
    /// Capacity of the `(s, t, k)`-keyed [`pefp_core::PreparedQuery`] LRU:
    /// repeated queries skip preprocessing entirely. `0` disables caching.
    pub prepared_cache_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            device: DeviceConfig::alveo_u200(),
            variant: PefpVariant::Full,
            collect_paths: true,
            prepared_cache_capacity: 128,
        }
    }
}

/// The outcome of one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The request that was served.
    pub request: QueryRequest,
    /// Number of result paths.
    pub num_paths: u64,
    /// The result paths in the original graph's vertex ids (empty when the
    /// session runs in counting mode and for streaming queries, whose paths
    /// flow through the caller's sink instead).
    pub paths: Vec<Path>,
    /// Host-side preprocessing time (Pre-BFS) in milliseconds — the paper's `T1`.
    pub preprocess_millis: f64,
    /// PCIe/DMA transfer report for the prepared payload.
    pub transfer: DmaTransferReport,
    /// Simulated device time in milliseconds — the paper's `T2`.
    pub device_millis: f64,
    /// Whether preprocessing was served from the runtime's shared
    /// prepared-query cache.
    pub cache_hit: bool,
}

impl QueryOutcome {
    /// Total time `T = T1 + transfer + T2` in milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.preprocess_millis + self.transfer.total_millis + self.device_millis
    }
}

/// Aggregate statistics over all queries served by a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Queries served successfully.
    pub queries: u64,
    /// Queries rejected by parsing/validation.
    pub rejected: u64,
    /// Queries whose preprocessing was served from the prepared-query cache.
    pub cache_hits: u64,
    /// Total result paths across all queries.
    pub total_paths: u64,
    /// Paths that were materialised into `QueryOutcome::paths` vectors
    /// (collect-mode queries). High-volume deployments want this near zero.
    pub materialised_paths: u64,
    /// Paths streamed through caller-supplied [`PathSink`]s without the
    /// session ever materialising them.
    pub emitted_paths: u64,
    /// Sum of preprocessing times (ms).
    pub preprocess_millis: f64,
    /// Sum of transfer times (ms).
    pub transfer_millis: f64,
    /// Sum of device times (ms).
    pub device_millis: f64,
}

impl SessionStats {
    /// Average total time per served query in milliseconds.
    pub fn avg_total_millis(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.preprocess_millis + self.transfer_millis + self.device_millis)
                / self.queries as f64
        }
    }
}

impl pefp_workload::ToJson for SessionStats {
    fn to_json(&self) -> pefp_workload::JsonValue {
        use pefp_workload::JsonValue;
        JsonValue::object(vec![
            ("queries", JsonValue::Number(self.queries as f64)),
            ("rejected", JsonValue::Number(self.rejected as f64)),
            ("cache_hits", JsonValue::Number(self.cache_hits as f64)),
            ("total_paths", JsonValue::Number(self.total_paths as f64)),
            ("materialised_paths", JsonValue::Number(self.materialised_paths as f64)),
            ("emitted_paths", JsonValue::Number(self.emitted_paths as f64)),
            ("preprocess_millis", JsonValue::Number(self.preprocess_millis)),
            ("transfer_millis", JsonValue::Number(self.transfer_millis)),
            ("device_millis", JsonValue::Number(self.device_millis)),
            ("avg_total_millis", JsonValue::Number(self.avg_total_millis())),
        ])
    }
}

/// A host session: one client, many queries.
///
/// The session is a thin handle over a [`HostRuntime`]: queries are submitted
/// as jobs and awaited through their tickets, so the preprocessing cache,
/// persistent worker pool and compute units are the runtime's — shared with
/// every other attached session. [`HostSession::with_graph`] /
/// [`HostSession::set_graph`] build a private single-CU runtime, preserving
/// the classic one-process shape.
#[derive(Debug)]
pub struct HostSession {
    config: SessionConfig,
    runtime: Option<Arc<HostRuntime>>,
    session: SessionId,
    stats: SessionStats,
}

impl HostSession {
    /// Creates an empty session (no graph loaded yet).
    pub fn new(config: SessionConfig) -> Self {
        HostSession { config, runtime: None, session: 0, stats: SessionStats::default() }
    }

    /// Creates a session already holding `graph` (owned or shared) through a
    /// private single-CU runtime.
    pub fn with_graph(graph: impl Into<Arc<CsrGraph>>, config: SessionConfig) -> Self {
        let mut session = HostSession::new(config);
        session.set_graph(GraphHandle::from_csr("inline", graph));
        session
    }

    /// Attaches a new session to an existing (shared, multi-tenant) runtime:
    /// the session gets its own statistics and fairness lane but shares the
    /// runtime's graph, prepared-query cache and CU pool with its siblings.
    pub fn attach(runtime: Arc<HostRuntime>) -> Self {
        let rc = runtime.config();
        let config = SessionConfig {
            device: rc.device.clone(),
            variant: rc.variant,
            collect_paths: true,
            prepared_cache_capacity: rc.shared_cache_capacity,
        };
        let session = runtime.register_session();
        HostSession { config, runtime: Some(runtime), session, stats: SessionStats::default() }
    }

    /// Installs (or replaces) the session's graph by launching a fresh
    /// private runtime around it (one CU, exact-LRU cache sized by
    /// [`SessionConfig::prepared_cache_capacity`]). Prepared queries cached
    /// for the old graph die with its runtime.
    pub fn set_graph(&mut self, handle: GraphHandle) {
        let runtime = HostRuntime::launch(handle, RuntimeConfig::for_session(&self.config));
        self.session = runtime.register_session();
        self.runtime = Some(runtime);
    }

    /// The runtime this session submits to, if a graph is loaded.
    pub fn runtime(&self) -> Option<&Arc<HostRuntime>> {
        self.runtime.as_ref()
    }

    /// Applies a batch of edge updates through the attached runtime and
    /// returns the new graph epoch (see [`HostRuntime::apply_updates`]).
    pub fn apply_updates(
        &self,
        delta: &pefp_graph::GraphDelta,
    ) -> Result<pefp_graph::Epoch, HostError> {
        match &self.runtime {
            Some(runtime) => Ok(runtime.apply_updates(delta)),
            None => Err(HostError::NoGraphLoaded),
        }
    }

    /// Number of prepared queries currently cached in the runtime's shared
    /// cache (for an attached session this counts every tenant's entries).
    pub fn cached_prepared_queries(&self) -> usize {
        self.runtime.as_deref().map_or(0, HostRuntime::cached_prepared_queries)
    }

    /// The loaded graph, if any.
    pub fn graph(&self) -> Option<&GraphHandle> {
        self.runtime.as_deref().map(HostRuntime::graph)
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Parses, validates and runs a text query (`QUERY s t k`).
    pub fn run_text_query(&mut self, text: &str) -> Result<QueryOutcome, HostError> {
        let request = match QueryRequest::parse(text) {
            Ok(r) => r,
            Err(e) => {
                self.stats.rejected += 1;
                return Err(e);
            }
        };
        self.run_query(request)
    }

    /// Runs an already-parsed query as one job, materialising results
    /// according to [`SessionConfig::collect_paths`]. Blocks until the
    /// runtime's workers complete the job.
    pub fn run_query(&mut self, request: QueryRequest) -> Result<QueryOutcome, HostError> {
        let collect = self.config.collect_paths;
        self.submit_and_wait(request, collect)
    }

    /// Runs an already-parsed query in counting mode regardless of
    /// [`SessionConfig::collect_paths`]: the result set is counted on the
    /// worker — no path is materialised, streamed or shipped between
    /// threads. The cheapest way to answer "how many".
    pub fn run_query_counting(&mut self, request: QueryRequest) -> Result<QueryOutcome, HostError> {
        self.submit_and_wait(request, false)
    }

    fn submit_and_wait(
        &mut self,
        request: QueryRequest,
        collect: bool,
    ) -> Result<QueryOutcome, HostError> {
        let Some(runtime) = &self.runtime else {
            self.stats.rejected += 1;
            return Err(HostError::NoGraphLoaded);
        };
        let ticket = match runtime.submit_query(self.session, request, collect) {
            Ok(ticket) => ticket,
            Err(e) => {
                self.stats.rejected += 1;
                return Err(e);
            }
        };
        match ticket.wait() {
            Ok(outcome) => Ok(self.record_outcome(outcome, false)),
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Submits a whole batch through the runtime's admission queue (one
    /// fairness unit: duplicates collapse, the heavy queries start first, and
    /// an over-full queue rejects atomically with [`HostError::QueueFull`]).
    /// Results are counted, never materialised.
    ///
    /// A batch larger than the admission queue's capacity is split into
    /// capacity-sized waves submitted and awaited back to back — otherwise a
    /// big batch could never be admitted at all, turning backpressure into a
    /// permanent failure. Deduplication then applies per wave, not across the
    /// whole batch; cross-wave repeats still hit the shared prepared cache.
    pub fn run_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<crate::runtime::RuntimeBatchOutcome, HostError> {
        let Some(runtime) = &self.runtime else {
            self.stats.rejected += 1;
            return Err(HostError::NoGraphLoaded);
        };
        let runtime = Arc::clone(runtime);
        let wave = runtime.config().queue_capacity.max(1);
        let mut merged = crate::runtime::RuntimeBatchOutcome::default();
        for chunk in requests.chunks(wave) {
            let outcome = match runtime.submit_batch(self.session, chunk).and_then(|t| t.wait()) {
                Ok(outcome) => outcome,
                Err(e) => {
                    self.stats.rejected += 1;
                    return Err(e);
                }
            };
            self.stats.queries += outcome.results.len() as u64;
            self.stats.cache_hits += outcome.cache_hits;
            self.stats.total_paths += outcome.total_paths();
            self.stats.preprocess_millis += outcome.preprocess_millis;
            self.stats.transfer_millis += outcome.transfer_millis;
            self.stats.device_millis += outcome.device_millis;
            merged.results.extend(outcome.results);
            merged.deduplicated += outcome.deduplicated;
            merged.cache_hits += outcome.cache_hits;
            merged.preprocess_millis += outcome.preprocess_millis;
            merged.transfer_millis += outcome.transfer_millis;
            merged.batched_transfer += outcome.batched_transfer;
            merged.device_millis += outcome.device_millis;
        }
        Ok(merged)
    }

    /// Runs an already-parsed query, streaming every result path (original
    /// graph vertex ids) into `sink` instead of materialising the result set.
    /// The paths flow from the job's worker through a bounded channel into
    /// the caller's sink on this thread, so the sink needs no `Send` bound; a
    /// sink break cancels the job, which stops the device-side enumeration at
    /// its next batch boundary.
    ///
    /// The returned outcome's `paths` is always empty and `num_paths` counts
    /// the paths handed to the sink — fewer than the full result set when the
    /// sink terminated the enumeration early (e.g. a
    /// [`pefp_graph::FirstN`] cap).
    pub fn run_query_streaming<S: PathSink + ?Sized>(
        &mut self,
        request: QueryRequest,
        sink: &mut S,
    ) -> Result<QueryOutcome, HostError> {
        let Some(runtime) = &self.runtime else {
            self.stats.rejected += 1;
            return Err(HostError::NoGraphLoaded);
        };
        let (ticket, paths) =
            match runtime.submit_query_streaming(self.session, request, STREAM_CHANNEL_PATHS) {
                Ok(pair) => pair,
                Err(e) => {
                    self.stats.rejected += 1;
                    return Err(e);
                }
            };
        let mut delivered = 0u64;
        for path in paths.iter() {
            delivered += 1;
            if sink.emit(&path).is_break() {
                // The breaking path counts as delivered (FirstN semantics);
                // cancel the job and stop draining — dropping the receiver
                // below unblocks the worker if it is mid-emission.
                ticket.cancel();
                break;
            }
        }
        drop(paths);
        match ticket.wait() {
            Ok(outcome) => {
                let outcome = QueryOutcome { num_paths: delivered, paths: Vec::new(), ..outcome };
                Ok(self.record_outcome(outcome, true))
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Folds one served query into the session statistics.
    fn record_outcome(&mut self, outcome: QueryOutcome, streamed: bool) -> QueryOutcome {
        if outcome.cache_hit {
            self.stats.cache_hits += 1;
        }
        self.stats.queries += 1;
        self.stats.total_paths += outcome.num_paths;
        if streamed {
            self.stats.emitted_paths += outcome.num_paths;
        } else {
            self.stats.materialised_paths += outcome.paths.len() as u64;
        }
        self.stats.preprocess_millis += outcome.preprocess_millis;
        self.stats.transfer_millis += outcome.transfer.total_millis;
        self.stats.device_millis += outcome.device_millis;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pefp_baselines::naive_dfs_enumerate;
    use pefp_graph::generators::chung_lu;
    use pefp_graph::paths::canonicalize;
    use pefp_graph::VertexId;

    fn diamond_session() -> HostSession {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        HostSession::with_graph(g, SessionConfig::default())
    }

    #[test]
    fn serves_a_simple_query_end_to_end() {
        let mut session = diamond_session();
        let outcome = session.run_text_query("QUERY 0 3 3").unwrap();
        assert_eq!(outcome.num_paths, 2);
        assert_eq!(outcome.paths.len(), 2);
        assert!(outcome.total_millis() > 0.0);
        assert!(outcome.transfer.bytes > 0);
        let stats = session.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.total_paths, 2);
        assert!(stats.avg_total_millis() > 0.0);
    }

    #[test]
    fn rejects_queries_without_a_graph() {
        let mut session = HostSession::new(SessionConfig::default());
        let err = session.run_query(QueryRequest::new(0, 1, 3)).unwrap_err();
        assert!(matches!(err, HostError::NoGraphLoaded));
        assert_eq!(session.stats().rejected, 1);
    }

    #[test]
    fn a_query_from_a_vertex_to_itself_is_the_one_zero_hop_path() {
        let mut session = diamond_session();
        let outcome = session.run_query(QueryRequest::new(2, 2, 3)).unwrap();
        assert_eq!(outcome.paths, vec![vec![VertexId(2)]]);
        assert_eq!(session.stats().rejected, 0);
    }

    #[test]
    fn rejects_invalid_queries_and_counts_them() {
        let mut session = diamond_session();
        assert!(session.run_text_query("garbage").is_err());
        assert!(session.run_query(QueryRequest::new(0, 99, 3)).is_err());
        assert!(session.run_query(QueryRequest::new(0, 3, 0)).is_err());
        assert_eq!(session.stats().rejected, 3);
        assert_eq!(session.stats().queries, 0);
    }

    #[test]
    fn results_agree_with_the_naive_oracle() {
        let g = chung_lu(200, 5.0, 2.2, 41).to_csr();
        let mut session = HostSession::with_graph(g.clone(), SessionConfig::default());
        for (s, t, k) in [(0u32, 100u32, 4u32), (3, 50, 3), (7, 150, 5)] {
            let outcome = session.run_query(QueryRequest::new(s, t, k)).unwrap();
            let oracle = naive_dfs_enumerate(&g, VertexId(s), VertexId(t), k);
            assert_eq!(outcome.num_paths, oracle.len() as u64, "query {s}->{t} k={k}");
            assert_eq!(canonicalize(outcome.paths.clone()), canonicalize(oracle));
        }
    }

    #[test]
    fn counting_mode_omits_path_materialisation() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut session = HostSession::with_graph(
            g,
            SessionConfig { collect_paths: false, ..SessionConfig::default() },
        );
        let outcome = session.run_query(QueryRequest::new(0, 3, 3)).unwrap();
        assert_eq!(outcome.num_paths, 2);
        assert!(outcome.paths.is_empty());
    }

    #[test]
    fn streaming_query_emits_without_materialising() {
        use pefp_graph::{CollectSink, CountingSink, FirstN};
        let g = chung_lu(200, 5.0, 2.2, 41).to_csr();
        let mut session = HostSession::with_graph(g, SessionConfig::default());
        let q = QueryRequest::new(0, 100, 4);
        let collected = session.run_query(q).unwrap();
        assert!(collected.num_paths > 0, "want a non-trivial query");

        let mut sink = CollectSink::new();
        let streamed = session.run_query_streaming(q, &mut sink).unwrap();
        assert_eq!(streamed.num_paths, collected.num_paths);
        assert!(streamed.paths.is_empty(), "streaming outcomes never materialise");
        assert_eq!(sink.into_paths(), collected.paths);

        // A FirstN cap terminates the engine early; the session records only
        // the emitted paths.
        let mut capped = FirstN::new(1, CountingSink::new());
        let early = session.run_query_streaming(q, &mut capped).unwrap();
        assert_eq!(early.num_paths, 1);
        assert_eq!(capped.emitted(), 1);

        let stats = session.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.materialised_paths, collected.num_paths);
        assert_eq!(stats.emitted_paths, collected.num_paths + 1);
        assert_eq!(stats.total_paths, 2 * collected.num_paths + 1);
        assert_eq!(stats.cache_hits, 2, "streaming shares the prepared-query cache");
    }

    #[test]
    fn session_accumulates_statistics_across_queries() {
        let mut session = diamond_session();
        for _ in 0..5 {
            session.run_query(QueryRequest::new(0, 3, 3)).unwrap();
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.total_paths, 10);
        assert!(stats.preprocess_millis >= 0.0);
        assert!(stats.device_millis > 0.0);
    }

    #[test]
    fn repeated_queries_hit_the_prepared_cache() {
        let g = chung_lu(200, 5.0, 2.2, 41).to_csr();
        let mut session = HostSession::with_graph(g.clone(), SessionConfig::default());
        let q = QueryRequest::new(0, 100, 4);
        let first = session.run_query(q).unwrap();
        for _ in 0..4 {
            let again = session.run_query(q).unwrap();
            assert_eq!(again.num_paths, first.num_paths);
            assert_eq!(canonicalize(again.paths), canonicalize(first.paths.clone()));
        }
        assert_eq!(session.stats().cache_hits, 4);
        assert_eq!(session.cached_prepared_queries(), 1);
        // A different query misses the cache.
        session.run_query(QueryRequest::new(0, 50, 4)).unwrap();
        assert_eq!(session.stats().cache_hits, 4);
        assert_eq!(session.cached_prepared_queries(), 2);
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let mut session = HostSession::with_graph(
            CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            SessionConfig { prepared_cache_capacity: 0, ..SessionConfig::default() },
        );
        let q = QueryRequest::new(0, 3, 3);
        session.run_query(q).unwrap();
        session.run_query(q).unwrap();
        assert_eq!(session.stats().cache_hits, 0);
        assert_eq!(session.cached_prepared_queries(), 0);
    }

    #[test]
    fn cache_evicts_least_recently_used_and_clears_on_new_graph() {
        let g = chung_lu(120, 5.0, 2.2, 17).to_csr();
        let mut session = HostSession::with_graph(
            g,
            SessionConfig { prepared_cache_capacity: 2, ..SessionConfig::default() },
        );
        let (a, b, c) =
            (QueryRequest::new(0, 60, 4), QueryRequest::new(1, 61, 4), QueryRequest::new(2, 62, 4));
        session.run_query(a).unwrap();
        session.run_query(b).unwrap();
        session.run_query(a).unwrap(); // refresh a; b is now LRU
        session.run_query(c).unwrap(); // evicts b
        assert_eq!(session.cached_prepared_queries(), 2);
        session.run_query(a).unwrap();
        assert_eq!(session.stats().cache_hits, 2, "a twice; b must have been evicted");
        // Replacing the graph must invalidate everything.
        session.set_graph(GraphHandle::from_csr(
            "fresh",
            CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
        ));
        assert_eq!(session.cached_prepared_queries(), 0);
        let outcome = session.run_query(QueryRequest::new(0, 3, 3)).unwrap();
        assert_eq!(outcome.num_paths, 1);
    }

    #[test]
    fn batches_larger_than_the_queue_are_served_in_waves() {
        let g = chung_lu(120, 5.0, 2.2, 17).to_csr();
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("waves", g),
            RuntimeConfig { queue_capacity: 2, ..RuntimeConfig::default() },
        );
        let mut session = HostSession::attach(runtime);
        // 7 unique queries against a 2-slot queue: 4 waves, no QueueFull.
        let requests: Vec<QueryRequest> = (0..7).map(|i| QueryRequest::new(i, 60 + i, 4)).collect();
        let outcome = session.run_batch(&requests).unwrap();
        assert_eq!(outcome.results.len(), 7);
        for (req, row) in requests.iter().zip(&outcome.results) {
            assert_eq!(row.request, *req);
            let oracle = session.run_query_counting(*req).unwrap();
            assert_eq!(row.num_paths, oracle.num_paths, "{req:?}");
        }
        // An empty batch is a cheap no-op.
        let empty = session.run_batch(&[]).unwrap();
        assert!(empty.results.is_empty());
        assert_eq!(empty.total_paths(), 0);
    }

    #[test]
    fn oversized_payload_is_rejected_by_capacity_check() {
        let g = chung_lu(500, 6.0, 2.2, 3).to_csr();
        let mut config = SessionConfig::default();
        config.device.dram_bytes = 64; // absurdly small DRAM
        let mut session = HostSession::with_graph(g, config);
        let err = session.run_query(QueryRequest::new(0, 250, 5)).unwrap_err();
        assert!(matches!(err, HostError::DeviceCapacity(_)));
        // Permanently rejectable queries must not occupy cache slots (and a
        // repeat of one is a re-rejection, not a cache hit).
        assert_eq!(session.cached_prepared_queries(), 0);
        assert!(session.run_query(QueryRequest::new(0, 250, 5)).is_err());
        assert_eq!(session.stats().cache_hits, 0);
        assert_eq!(session.stats().rejected, 2);
    }
}
