//! The one command dispatcher behind both front-door codecs.
//!
//! Step 2 of the paper's workflow (Fig. 2) — "the host parses the query to
//! extract `s`, `t`, `k`" and hands it to the pipeline — is one operation, so
//! it is one function here. The text line protocol ([`crate::server`]) and
//! the binary frame protocol ([`crate::wire`]) are codecs: each turns bytes
//! into a [`Request`] and a [`Reply`] back into bytes. [`execute`] is the only
//! code that turns a request into [`HostSession`] / [`crate::HostRuntime`]
//! calls, checks the request-level limits, picks the sinks and maps a
//! [`HostError`] onto a reply.
//!
//! The command table (one row per [`Request`] variant; the README's "Network
//! front door" section carries the same table with prose):
//!
//! | command | text syntax | opcode | terminal reply (text / frame) | limits |
//! |---|---|---|---|---|
//! | QUERY | `QUERY s t k` | `0x01` | `paths=… t1_ms=… [sample: …]` / `Summary` | sample ≤ [`MAX_INLINE_PATHS`] |
//! | COUNT | `COUNT s t k` | `0x02` | `paths=… t1_ms=…` / `Summary` (no sample) | — |
//! | STREAM | `STREAM s t k [limit]` | `0x03` | `paths …` chunks then `end streamed=… limit=…` / `Paths`… `End` | limit clamped to [`MAX_STREAM_LIMIT`]; text default [`DEFAULT_STREAM_LIMIT`]; [`MAX_INLINE_PATHS`] paths per line, [`STREAM_FRAME_PATHS`] per frame |
//! | BATCH | `BATCH s t k [s t k …]` | `0x04` | `queries=… unique=… paths=… queue=runtime …` / `BatchOk` | 1..=[`MAX_BATCH_QUERIES`] queries |
//! | EXPLAIN | `EXPLAIN s t k` | `0x05` | `explain {json}` / `Json` | — |
//! | UPDATE / EXPIRE | `UPDATE u v [u v …]` / `EXPIRE u v [u v …]` | `0x06` (flag 1 = remove) | `epoch=… edges=…` / `UpdateOk` | 1..=[`MAX_UPDATE_EDGES`] edges |
//! | STATS | `STATS` | `0x07` | `stats {json}` / `Json` | — |
//! | QUIT | `QUIT` / `EXIT` | `0x08` | `bye` / `Bye` | — |
//!
//! Any command can instead end in `ERR <message>` / [`Reply::Error`] (typed
//! by [`ErrCode`]) or — when the admission queue rejects it — in
//! `ERR admission queue full…` / [`Reply::Busy`]. Three commands exist only
//! in text and are the text codec's own arms: `HELP`, `GRAPH` and the
//! `BATCH … CUS=n` measured-dispatch report (`n` ≤ [`MAX_BATCH_CUS`]).
//! Framing limits belong to the codecs: [`MAX_LINE_BYTES`] per text line,
//! [`MAX_FRAME_PAYLOAD`] per frame.

use crate::error::HostError;
use crate::query::QueryRequest;
use crate::session::{HostSession, QueryOutcome};
use crate::wire::{ErrCode, Reply, Request};
use pefp_graph::sink::{FirstN, PathSink};
use pefp_graph::{GraphDelta, VertexId};
use pefp_workload::{JsonValue, ToJson};
use std::io;
use std::ops::ControlFlow;

// ---------------------------------------------------------------------------
// Every front-door limit, defined once. Request-level limits are enforced in
// `execute`; the two framing limits in their codec.
// ---------------------------------------------------------------------------

/// Paths kept as the sample of a `QUERY` reply; the rest are only counted.
/// Also the number of paths per text `STREAM` line.
pub const MAX_INLINE_PATHS: usize = 5;
/// The limit a text `STREAM` runs under when the line names none.
pub const DEFAULT_STREAM_LIMIT: u64 = 100;
/// Hard ceiling a `STREAM` limit is clamped to, whatever the client asks for.
pub const MAX_STREAM_LIMIT: u64 = 10_000;
/// Most `(s t k)` queries one `BATCH` may carry, bounding the host-side
/// staging work a single command can demand.
pub const MAX_BATCH_QUERIES: usize = 4096;
/// Ceiling a text `BATCH … CUS=n` is clamped to: the batch runs one OS
/// thread per CU, so the count must not be the client's to choose freely.
pub const MAX_BATCH_CUS: usize = 64;
/// Most `(u v)` edges one `UPDATE`/`EXPIRE` may carry, bounding the delta one
/// command can stage.
pub const MAX_UPDATE_EDGES: usize = 4096;
/// Longest text protocol line in bytes; the rest of an over-long line is
/// drained unbuffered and answered with one `ERR`.
pub const MAX_LINE_BYTES: usize = 64 * 1024;
/// Largest frame payload (1 MiB); a header declaring more is rejected before
/// anything is read or allocated.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;
/// Paths per binary `STREAM` chunk frame.
pub const STREAM_FRAME_PATHS: usize = 32;

/// Where [`execute`] sends its replies. The writer owns the only choices
/// that differ per codec: how many paths make one `STREAM` chunk and where
/// the bytes go.
pub trait ResponseWriter {
    /// Paths per [`Reply::Paths`] chunk of a `STREAM`.
    fn stream_chunk_paths(&self) -> usize;

    /// Encodes one reply and flushes it to the peer. An error means the peer
    /// is gone: mid-`STREAM` it breaks the sink, which cancels the running
    /// job and frees its compute unit.
    fn send(&mut self, reply: &Reply) -> io::Result<()>;

    /// The counters of the [`FrontDoor`] serving this connection, for
    /// `STATS`; `None` when the session is served in-process.
    fn front_door_stats(&self) -> Option<JsonValue> {
        None
    }
}

/// What a network listener adds to the connections it serves. Both codecs'
/// writers report every reply here on its way out, so the two protocols feed
/// the same counters.
pub trait FrontDoor {
    /// Counts one outgoing reply (backpressure, protocol errors).
    fn count(&self, reply: &Reply);

    /// The listener's counters as the `net` object of a `STATS` reply.
    fn stats(&self) -> JsonValue;
}

/// A [`ResponseWriter`] that keeps the replies instead of encoding them: the
/// in-process way to run a command ([`crate::server::handle_line`], tests).
#[derive(Debug)]
pub struct CollectingWriter {
    /// Paths per `STREAM` chunk.
    pub chunk_paths: usize,
    /// Every reply sent so far, in order.
    pub replies: Vec<Reply>,
}

impl CollectingWriter {
    /// An empty writer chunking streams `chunk_paths` paths at a time.
    pub fn new(chunk_paths: usize) -> Self {
        CollectingWriter { chunk_paths, replies: Vec::new() }
    }
}

impl ResponseWriter for CollectingWriter {
    fn stream_chunk_paths(&self) -> usize {
        self.chunk_paths
    }

    fn send(&mut self, reply: &Reply) -> io::Result<()> {
        self.replies.push(reply.clone());
        Ok(())
    }
}

/// The one mapping of a runtime failure onto a reply: `QueueFull` is typed
/// backpressure the client may retry on, a bad query is the client's fault,
/// everything else is the host's.
fn error_reply(e: &HostError) -> Reply {
    let code = match e {
        HostError::QueueFull => return Reply::Busy,
        HostError::QueryParse(_) | HostError::QueryInvalid(_) => ErrCode::BadQuery,
        _ => ErrCode::Host,
    };
    Reply::Error { code, message: e.to_string() }
}

fn bad_query(message: String) -> Reply {
    Reply::Error { code: ErrCode::BadQuery, message }
}

/// The size limits of a `BATCH`, shared with the text codec's `CUS=n` arm
/// (which never reaches [`execute`]).
pub(crate) fn check_batch_size(queries: usize) -> Result<(), String> {
    if queries == 0 {
        Err("BATCH expects (s t k) triples, got 0 argument(s); try HELP".to_string())
    } else if queries > MAX_BATCH_QUERIES {
        Err(format!("BATCH accepts at most {MAX_BATCH_QUERIES} queries, got {queries}"))
    } else {
        Ok(())
    }
}

fn millis_to_ns(ms: f64) -> u64 {
    (ms.max(0.0) * 1e6).round() as u64
}

fn summary(outcome: &QueryOutcome, sample: Vec<Vec<u32>>) -> Reply {
    Reply::Summary {
        num_paths: outcome.num_paths,
        preprocess_ns: millis_to_ns(outcome.preprocess_millis),
        transfer_ns: millis_to_ns(outcome.transfer.total_millis),
        device_ns: millis_to_ns(outcome.device_millis),
        cache_hit: outcome.cache_hit,
        sample,
    }
}

fn raw_ids(path: &[VertexId]) -> Vec<u32> {
    path.iter().map(|v| v.0).collect()
}

/// `QUERY`'s sink: keeps the first [`MAX_INLINE_PATHS`] paths as the sample
/// and lets the session count the rest — the result set is never held.
#[derive(Default)]
struct QuerySample {
    first: Vec<Vec<u32>>,
}

impl PathSink for QuerySample {
    fn emit(&mut self, path: &[VertexId]) -> ControlFlow<()> {
        if self.first.len() < MAX_INLINE_PATHS {
            self.first.push(raw_ids(path));
        }
        ControlFlow::Continue(())
    }
}

/// `STREAM`'s sink: sends paths to the writer one chunk at a time, as they
/// are produced. A failed send — the peer hung up — breaks the sink, which
/// makes the session cancel the running job's ticket.
struct StreamChunks<'w> {
    out: &'w mut dyn ResponseWriter,
    current: Vec<Vec<u32>>,
    error: Option<io::Error>,
}

impl PathSink for StreamChunks<'_> {
    fn emit(&mut self, path: &[VertexId]) -> ControlFlow<()> {
        self.current.push(raw_ids(path));
        if self.current.len() < self.out.stream_chunk_paths() {
            return ControlFlow::Continue(());
        }
        match self.out.send(&Reply::Paths(std::mem::take(&mut self.current))) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                self.error = Some(e);
                ControlFlow::Break(())
            }
        }
    }
}

/// Runs one command against `session` and sends its reply (for `STREAM`: its
/// chunks, then the terminal reply) to `out`. Failures of the command are
/// replies; the returned error is only ever a failed send.
pub fn execute(
    session: &mut HostSession,
    request: Request,
    out: &mut dyn ResponseWriter,
) -> io::Result<()> {
    let stream_limit = match request {
        Request::Stream { limit, .. } => Some(limit.min(MAX_STREAM_LIMIT)),
        _ => None,
    };
    let reply: Result<Reply, HostError> = match request {
        // A saturated FirstN would refuse the first path after the engine
        // already found it; a zero limit skips the run entirely instead.
        Request::Stream { .. } if stream_limit == Some(0) => {
            Ok(Reply::End { streamed: 0, limit: 0 })
        }
        // Both enumerate through the streaming pipeline and differ only in
        // the sink: QUERY samples while the session counts, STREAM forwards
        // at most `limit` paths chunk by chunk.
        Request::Query { s, t, k } | Request::Stream { s, t, k, .. } => {
            let mut sample = QuerySample::default();
            let mut chunks = stream_limit.map(|limit| {
                FirstN::new(
                    limit,
                    StreamChunks { out: &mut *out, current: Vec::new(), error: None },
                )
            });
            let sink: &mut dyn PathSink = match &mut chunks {
                Some(chunks) => chunks,
                None => &mut sample,
            };
            let outcome = session.run_query_streaming(QueryRequest::new(s, t, k), sink);
            let (tail, send_error) = match chunks.map(FirstN::into_inner) {
                Some(chunks) => (chunks.current, chunks.error),
                None => (Vec::new(), None),
            };
            if let Some(e) = send_error {
                return Err(e);
            }
            match (outcome, stream_limit) {
                (Ok(outcome), Some(limit)) => {
                    if !tail.is_empty() {
                        out.send(&Reply::Paths(tail))?;
                    }
                    Ok(Reply::End { streamed: outcome.num_paths, limit })
                }
                (outcome, _) => outcome.map(|outcome| summary(&outcome, sample.first)),
            }
        }
        // COUNT runs a counting job: the result set is tallied on the worker
        // and no path ever crosses a thread.
        Request::Count { s, t, k } => session
            .run_query_counting(QueryRequest::new(s, t, k))
            .map(|outcome| summary(&outcome, Vec::new())),
        // One fairness unit in the shared runtime's admission queue; results
        // are counted, never materialised.
        Request::Batch { queries } => match check_batch_size(queries.len()) {
            Err(message) => Ok(bad_query(message)),
            Ok(()) => {
                let requests: Vec<QueryRequest> =
                    queries.iter().map(|&(s, t, k)| QueryRequest::new(s, t, k)).collect();
                session.run_batch(&requests).map(|outcome| Reply::BatchOk {
                    unique: (outcome.results.len() - outcome.deduplicated) as u32,
                    cache_hits: outcome.cache_hits,
                    preprocess_ns: millis_to_ns(outcome.preprocess_millis),
                    transfer_ns: millis_to_ns(outcome.transfer_millis),
                    device_ns: millis_to_ns(outcome.device_millis),
                    paths_per_query: outcome.results.iter().map(|r| r.num_paths).collect(),
                })
            }
        },
        // The adaptive router's decision — engine, modelled per-engine costs,
        // feature vector, one rationale line per step. Nothing is executed.
        Request::Explain { s, t, k } => session
            .runtime()
            .ok_or(HostError::NoGraphLoaded)
            .and_then(|runtime| runtime.explain(QueryRequest::new(s, t, k)))
            .map(|decision| Reply::Json(decision.to_json().render())),
        // The whole command is one `GraphDelta`: one new epoch, one
        // cache-invalidation sweep. In-flight queries keep answering on the
        // snapshot they were admitted under.
        Request::Update { remove, edges } => {
            let verb = if remove { "EXPIRE" } else { "UPDATE" };
            if edges.is_empty() {
                Ok(bad_query(format!(
                    "{verb} expects (u v) edge pairs, got 0 argument(s); try HELP"
                )))
            } else if edges.len() > MAX_UPDATE_EDGES {
                Ok(bad_query(format!(
                    "{verb} accepts at most {MAX_UPDATE_EDGES} edges, got {}",
                    edges.len()
                )))
            } else {
                let mut delta = GraphDelta::new();
                for &(u, v) in &edges {
                    if remove {
                        delta.remove_edge(VertexId(u), VertexId(v));
                    } else {
                        delta.insert_edge(VertexId(u), VertexId(v));
                    }
                }
                session
                    .apply_updates(&delta)
                    .map(|epoch| Reply::UpdateOk { epoch, edges: delta.len() as u32 })
            }
        }
        Request::Stats => {
            let mut pairs = vec![("session", session.stats().to_json())];
            if let Some(runtime) = session.runtime() {
                pairs.push(("runtime", runtime.stats().to_json()));
            }
            if let Some(net) = out.front_door_stats() {
                pairs.push(("net", net));
            }
            Ok(Reply::Json(JsonValue::object(pairs).render()))
        }
        Request::Quit => Ok(Reply::Bye),
    };
    out.send(&reply.unwrap_or_else(|e| error_reply(&e)))
}
