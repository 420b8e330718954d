//! The text codec: the line protocol in front of [`crate::command::execute`].
//!
//! The paper's system is interactive: a user submits path queries against a
//! loaded graph and expects answers with low latency (Fig. 2). This module
//! lets a [`HostSession`] be driven from a terminal, a pipe, a test harness
//! or a text TCP connection:
//!
//! ```text
//! > QUERY 0 42 5          enumerate 0 -> 42 paths with at most 5 hops
//! > STREAM 0 42 5 [n]     stream up to n paths (default 100), chunk-wise
//! > STATS                  session + runtime statistics, as one-line JSON
//! > QUIT                   stop serving
//! ```
//!
//! It is a codec and a connection loop, nothing more: `parse_line` turns a
//! line into a transport-neutral [`Request`], [`crate::command::execute`]
//! runs it, and `render` turns each [`wire::Reply`] back into a line. The
//! full command table — syntax, opcode, reply and limits of every command —
//! is in the [`crate::command`] module docs. Three commands have no binary
//! counterpart and are this codec's own arms: `HELP`, `GRAPH` and
//! `BATCH … CUS=n`, which runs the batch as one [`BatchScheduler`] dispatch
//! on a private cluster of `n` CUs against the runtime's current graph
//! epoch and reports the measured makespan next to its prediction.
//!
//! Every reply line starts with `OK` or `ERR`, so the protocol is trivially
//! scriptable; `STREAM` is the one command whose reply spans several lines
//! (one per chunk of paths, written as the chunk is produced, then a final
//! `OK end` line).
//!
//! Untrusted-input guarantees: lines are read as raw bytes under
//! [`MAX_LINE_BYTES`] (an over-long line is drained and answered with one
//! `ERR`), a non-UTF-8 line gets an `ERR` instead of killing the connection,
//! and no command can panic the serving thread.

use crate::command::{check_batch_size, execute, CollectingWriter, FrontDoor, ResponseWriter};
use crate::error::HostError;
use crate::query::QueryRequest;
use crate::scheduler::{BatchScheduler, SchedulerConfig};
use crate::session::HostSession;
use crate::wire::{self, ErrCode, Request};
use pefp_fpga::MultiCuConfig;
use pefp_workload::JsonValue;
use std::io::{BufRead, Read, Write};

pub use crate::command::{
    DEFAULT_STREAM_LIMIT, MAX_BATCH_CUS, MAX_BATCH_QUERIES, MAX_INLINE_PATHS, MAX_LINE_BYTES,
    MAX_STREAM_LIMIT, MAX_UPDATE_EDGES,
};

/// The reply to one protocol line, for in-process callers of
/// [`handle_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Successful command with a human/machine readable payload.
    Ok(String),
    /// Failed command with an error message.
    Err(String),
    /// A successful `STREAM` command: one payload per chunk of paths, each
    /// rendered as its own `OK` line.
    Stream(Vec<String>),
    /// The client asked to stop (`QUIT`); contains the farewell payload.
    Quit(String),
}

impl Reply {
    /// Renders the reply as the protocol line(s) sent to the client. Only
    /// [`Reply::Stream`] spans multiple lines; every line carries its own
    /// `OK`/`ERR` prefix.
    pub fn render(&self) -> String {
        match self {
            Reply::Ok(msg) | Reply::Quit(msg) => format!("OK {msg}"),
            Reply::Err(msg) => format!("ERR {msg}"),
            Reply::Stream(chunks) => {
                chunks.iter().map(|c| format!("OK {c}")).collect::<Vec<_>>().join("\n")
            }
        }
    }
}

const HELP: &str =
    "commands: QUERY <s> <t> <k> | COUNT <s> <t> <k> | STREAM <s> <t> <k> [limit] | \
    BATCH <s> <t> <k> [<s> <t> <k> ...] [CUS=<n>] (no CUS: fair shared-runtime batch; \
    CUS=n: measured dispatch on n CUs) | EXPLAIN <s> <t> <k> (routing decision, \
    per-engine costs, features and rationale as JSON, without running) | \
    UPDATE <u> <v> [<u> <v> ...] (insert edges, \
    advances the graph epoch) | EXPIRE <u> <v> [<u> <v> ...] (remove edges) | \
    GRAPH | STATS | HELP | QUIT";

/// One parsed protocol line.
enum Command {
    /// A command both protocols have; [`execute`] runs it.
    Wire(Request),
    /// One of the three commands only the text protocol has.
    TextOnly(TextOnly),
}

enum TextOnly {
    Help,
    Graph,
    /// `BATCH … CUS=n`: a *measured* [`BatchScheduler`] dispatch on a
    /// private cluster of `cus` CUs over the runtime's current snapshot — an
    /// explicit benchmarking request that bypasses the shared runtime's
    /// queue, cache and the session's per-query bookkeeping.
    BatchOnCus {
        cus: usize,
        requests: Vec<QueryRequest>,
    },
}

/// Parses one protocol line into a command; the error is the message of the
/// `ERR` reply.
fn parse_line(line: &str) -> Result<Command, String> {
    let mut parts = line.split_whitespace();
    let Some(command) = parts.next() else {
        return Err("empty command; try HELP".to_string());
    };
    let rest: Vec<&str> = parts.collect();
    let request = match command.to_ascii_uppercase().as_str() {
        "HELP" => return Ok(Command::TextOnly(TextOnly::Help)),
        "GRAPH" => return Ok(Command::TextOnly(TextOnly::Graph)),
        "QUIT" | "EXIT" => Request::Quit,
        "STATS" => Request::Stats,
        "QUERY" => parse_triple(&rest).map(|(s, t, k)| Request::Query { s, t, k })?,
        "COUNT" => parse_triple(&rest).map(|(s, t, k)| Request::Count { s, t, k })?,
        "EXPLAIN" => parse_triple(&rest).map(|(s, t, k)| Request::Explain { s, t, k })?,
        "STREAM" => {
            let (spec, limit) = match rest.len() {
                4 => match rest[3].parse::<u64>() {
                    Ok(limit) => (&rest[..3], limit),
                    Err(_) => return Err(format!("invalid stream limit {:?}", rest[3])),
                },
                _ => (&rest[..], DEFAULT_STREAM_LIMIT),
            };
            parse_triple(spec).map(|(s, t, k)| Request::Stream { s, t, k, limit })?
        }
        "BATCH" => return parse_batch(&rest),
        "UPDATE" => parse_update("UPDATE", &rest)?,
        "EXPIRE" => parse_update("EXPIRE", &rest)?,
        other => return Err(format!("unknown command {other:?}; try HELP")),
    };
    Ok(Command::Wire(request))
}

fn parse_triple(tokens: &[&str]) -> Result<(u32, u32, u32), String> {
    let query = QueryRequest::parse(&tokens.join(" ")).map_err(|e| e.to_string())?;
    Ok((query.s.0, query.t.0, query.k))
}

/// `BATCH s t k [s t k ...] [CUS=n]`. Without `CUS=` it is the shared-runtime
/// batch both protocols have; `CUS=n` (clamped to [`MAX_BATCH_CUS`], and the
/// reply's `cus=` field shows the clamped value) selects the text-only
/// measured dispatch.
fn parse_batch(args: &[&str]) -> Result<Command, String> {
    let (cus, triples) = match args.split_last() {
        Some((last, head)) => match last.strip_prefix("CUS=") {
            Some(n) => match n.parse::<usize>() {
                Ok(n) if n >= 1 => (Some(n.min(MAX_BATCH_CUS)), head),
                _ => return Err(format!("invalid CUS value {n:?} (want a positive integer)")),
            },
            None => (None, args),
        },
        None => (None, args),
    };
    if !triples.len().is_multiple_of(3) {
        return Err(format!(
            "BATCH expects (s t k) triples, got {} argument(s); try HELP",
            triples.len()
        ));
    }
    let queries = triples.chunks_exact(3).map(parse_triple).collect::<Result<Vec<_>, _>>()?;
    Ok(match cus {
        None => Command::Wire(Request::Batch { queries }),
        Some(cus) => Command::TextOnly(TextOnly::BatchOnCus {
            cus,
            requests: queries.iter().map(|&(s, t, k)| QueryRequest::new(s, t, k)).collect(),
        }),
    })
}

/// `UPDATE u v [u v ...]` inserts the listed edges, `EXPIRE u v [u v ...]`
/// removes them.
fn parse_update(verb: &str, args: &[&str]) -> Result<Request, String> {
    if !args.len().is_multiple_of(2) {
        return Err(format!(
            "{verb} expects (u v) edge pairs, got {} argument(s); try HELP",
            args.len()
        ));
    }
    let vertex = |tok: &str| {
        tok.parse::<u32>()
            .map_err(|_| format!("vertex must be a non-negative integer, got {tok:?}"))
    };
    let edges = args
        .chunks_exact(2)
        .map(|pair| Ok((vertex(pair[0])?, vertex(pair[1])?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Request::Update { remove: verb == "EXPIRE", edges })
}

fn format_paths(paths: &[Vec<u32>]) -> String {
    let path = |p: &Vec<u32>| p.iter().map(u32::to_string).collect::<Vec<_>>().join("->");
    paths.iter().map(path).collect::<Vec<_>>().join(" ")
}

/// Renders one reply as its protocol line ([`Reply::Ok`] or [`Reply::Err`]).
/// `json_label` names the command a [`wire::Reply::Json`] document answers
/// (`stats` or `explain`).
fn render(reply: &wire::Reply, json_label: &str) -> Reply {
    let ms = |ns: u64| ns as f64 / 1e6;
    Reply::Ok(match reply {
        wire::Reply::Summary {
            num_paths, preprocess_ns, transfer_ns, device_ns, sample, ..
        } => {
            let mut line = format!(
                "paths={num_paths} t1_ms={:.3} transfer_ms={:.3} t2_ms={:.3}",
                ms(*preprocess_ns),
                ms(*transfer_ns),
                ms(*device_ns)
            );
            if !sample.is_empty() {
                line.push_str(" sample: ");
                line.push_str(&format_paths(sample));
            }
            line
        }
        wire::Reply::Paths(paths) => format!("paths {}", format_paths(paths)),
        wire::Reply::End { streamed, limit } => format!("end streamed={streamed} limit={limit}"),
        wire::Reply::BatchOk {
            unique,
            cache_hits,
            preprocess_ns,
            transfer_ns,
            device_ns,
            paths_per_query,
        } => format!(
            "queries={} unique={unique} paths={} cache_hits={cache_hits} queue=runtime \
             t1_ms={:.3} transfer_ms={:.3} t2_ms={:.3}",
            paths_per_query.len(),
            paths_per_query.iter().sum::<u64>(),
            ms(*preprocess_ns),
            ms(*transfer_ns),
            ms(*device_ns),
        ),
        wire::Reply::Json(doc) => format!("{json_label} {doc}"),
        wire::Reply::UpdateOk { epoch, edges } => format!("epoch={epoch} edges={edges}"),
        wire::Reply::Bye => "bye".to_string(),
        // `loadgen --protocol line` classifies backpressure on this text.
        wire::Reply::Busy => return Reply::Err(HostError::QueueFull.to_string()),
        wire::Reply::Error { message, .. } => return Reply::Err(message.clone()),
    })
}

fn json_label(request: &Request) -> &'static str {
    match request {
        Request::Stats => "stats",
        Request::Explain { .. } => "explain",
        _ => "",
    }
}

/// Runs one of the commands only the text protocol has.
fn run_text_only(session: &HostSession, command: TextOnly) -> Reply {
    let runtime = || session.runtime().ok_or(HostError::NoGraphLoaded).map_err(|e| e.to_string());
    let payload = match command {
        TextOnly::Help => Ok(HELP.to_string()),
        TextOnly::Graph => runtime().map(|runtime| runtime.graph().summary()),
        TextOnly::BatchOnCus { cus, requests } => runtime().and_then(|runtime| {
            check_batch_size(requests.len())?;
            let scheduler = BatchScheduler::new(SchedulerConfig {
                device: session.config().device.clone(),
                variant: session.config().variant,
                multi_cu: MultiCuConfig { compute_units: cus, ..MultiCuConfig::default() },
                ..SchedulerConfig::default()
            });
            // The live epoch, like every other command's: the batch sees
            // (and validates against) the updates applied so far.
            let outcome = scheduler
                .run_batch(&runtime.current_snapshot(), runtime.graph().placement, &requests)
                .map_err(|e| e.to_string())?;
            let measured = &outcome.measured;
            Ok(format!(
                "queries={} unique={} paths={} cus={} makespan_cycles={} serial_cycles={} \
                 measured_speedup={:.2}x predicted_makespan_cycles={} model_err={:.1}% \
                 t1_ms={:.3} transfer_ms={:.3} wall_ms={:.3}",
                outcome.results.len(),
                outcome.results.len() - outcome.deduplicated,
                outcome.total_paths(),
                measured.compute_units,
                measured.makespan_cycles,
                measured.serial_cycles,
                measured.speedup(),
                measured.predicted.makespan_cycles,
                measured.model_error() * 100.0,
                outcome.preprocess_millis,
                outcome.transfer.total_millis,
                measured.wall_millis,
            ))
        }),
    };
    payload.map_or_else(Reply::Err, Reply::Ok)
}

/// Executes one protocol line against `session` and returns the reply.
pub fn handle_line(session: &mut HostSession, line: &str) -> Reply {
    let request = match parse_line(line) {
        Err(message) => return Reply::Err(message),
        Ok(Command::TextOnly(command)) => return run_text_only(session, command),
        Ok(Command::Wire(request)) => request,
    };
    let label = json_label(&request);
    let (streams, quits) =
        (matches!(request, Request::Stream { .. }), matches!(request, Request::Quit));
    let mut out = CollectingWriter::new(MAX_INLINE_PATHS);
    execute(session, request, &mut out).expect("collecting replies cannot fail");
    let mut payloads = Vec::with_capacity(out.replies.len());
    for reply in &out.replies {
        match render(reply, label) {
            Reply::Ok(payload) => payloads.push(payload),
            // A STREAM that fails midway is one ERR: its chunks are dropped.
            error => return error,
        }
    }
    if streams {
        return Reply::Stream(payloads);
    }
    let payload = payloads.pop().expect("execute always sends a terminal reply");
    if quits {
        Reply::Quit(payload)
    } else {
        Reply::Ok(payload)
    }
}

/// Reads one line as raw bytes, enforcing [`MAX_LINE_BYTES`] *before* any
/// UTF-8 interpretation — untrusted input never reaches `String` unvalidated
/// and never grows an unbounded buffer. `None` is end of input; the inner
/// error is the reply to a line the framing rejects (its remainder drained).
fn read_line_capped<R: BufRead>(
    reader: &mut R,
) -> std::io::Result<Option<Result<String, wire::Reply>>> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        // Discards up to and including the newline without buffering it.
        reader.skip_until(b'\n')?;
        let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
        return Ok(Some(Err(wire::Reply::Error { code: ErrCode::Oversized, message })));
    }
    Ok(Some(String::from_utf8(buf).map_err(|_| malformed("line is not valid UTF-8".to_string()))))
}

fn malformed(message: String) -> wire::Reply {
    wire::Reply::Error { code: ErrCode::Malformed, message }
}

/// The text codec's [`ResponseWriter`]: one `OK`/`ERR` line per reply,
/// [`MAX_INLINE_PATHS`] paths per `STREAM` line.
struct TextWriter<'d, W: Write> {
    out: W,
    door: Option<&'d dyn FrontDoor>,
    json_label: &'static str,
}

impl<W: Write> TextWriter<'_, W> {
    fn line(&mut self, reply: &Reply) -> std::io::Result<()> {
        writeln!(self.out, "{}", reply.render())?;
        self.out.flush()
    }
}

impl<W: Write> ResponseWriter for TextWriter<'_, W> {
    fn stream_chunk_paths(&self) -> usize {
        MAX_INLINE_PATHS
    }

    fn send(&mut self, reply: &wire::Reply) -> std::io::Result<()> {
        if let Some(door) = self.door {
            door.count(reply);
        }
        self.line(&render(reply, self.json_label))
    }

    fn front_door_stats(&self) -> Option<JsonValue> {
        self.door.map(FrontDoor::stats)
    }
}

/// Serves the protocol over a reader/writer pair until `QUIT` or end of
/// input. Returns the number of lines processed.
///
/// Every reply is flushed as it is written, `STREAM` chunks included, so a
/// client that disconnects mid-stream cancels the running job instead of
/// leaving it to fill a dead buffer.
pub fn serve<R: BufRead, W: Write>(
    session: &mut HostSession,
    reader: R,
    writer: W,
) -> std::io::Result<usize> {
    serve_behind(session, reader, writer, None)
}

/// [`serve`] for a connection accepted by a network listener: every reply is
/// counted by `door`, and `STATS` carries its counters.
pub(crate) fn serve_behind<R: BufRead, W: Write>(
    session: &mut HostSession,
    mut reader: R,
    writer: W,
    door: Option<&dyn FrontDoor>,
) -> std::io::Result<usize> {
    let mut out = TextWriter { out: writer, door, json_label: "" };
    let mut served = 0usize;
    while let Some(line) = read_line_capped(&mut reader)? {
        served += 1;
        match line.and_then(|line| parse_line(&line).map_err(malformed)) {
            Err(reply) => out.send(&reply)?,
            Ok(Command::Wire(request)) => {
                let quits = matches!(request, Request::Quit);
                out.json_label = json_label(&request);
                execute(session, request, &mut out)?;
                if quits {
                    break;
                }
            }
            Ok(Command::TextOnly(command)) => out.line(&run_text_only(session, command))?,
        }
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz_invariants::{check_fuzz_transcript, seen_line, Seen};
    use crate::session::SessionConfig;
    use pefp_graph::CsrGraph;
    use std::io::Cursor;

    fn session() -> HostSession {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        HostSession::with_graph(g, SessionConfig::default())
    }

    #[test]
    fn query_command_reports_paths_and_timing() {
        let mut s = session();
        let reply = handle_line(&mut s, "QUERY 0 3 3");
        match reply {
            Reply::Ok(msg) => {
                assert!(msg.contains("paths=2"), "{msg}");
                assert!(msg.contains("t2_ms="));
                assert!(msg.contains("sample:"));
                assert!(msg.contains("0->1->3") || msg.contains("0->2->3"));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn count_command_omits_the_sample() {
        let mut s = session();
        match handle_line(&mut s, "count 0 3 3") {
            Reply::Ok(msg) => {
                assert!(msg.contains("paths=2"));
                assert!(!msg.contains("sample:"));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut s = session();
        assert!(matches!(handle_line(&mut s, ""), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "FROBNICATE 1 2 3"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "QUERY 0 99 3"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "QUERY a b c"), Reply::Err(_)));
        // The session is still usable afterwards.
        assert!(matches!(handle_line(&mut s, "QUERY 0 3 3"), Reply::Ok(_)));
    }

    #[test]
    fn stats_command_emits_parseable_json_for_session_and_runtime() {
        let mut s = session();
        handle_line(&mut s, "QUERY 0 3 3");
        match handle_line(&mut s, "STATS") {
            Reply::Ok(msg) => {
                let json = msg.strip_prefix("stats ").expect("stats payload");
                let doc = JsonValue::parse(json).expect("STATS must be real JSON");
                let session_stats = doc.get("session").expect("session section");
                assert_eq!(session_stats.get("queries").and_then(JsonValue::as_number), Some(1.0));
                assert_eq!(
                    session_stats.get("total_paths").and_then(JsonValue::as_number),
                    Some(2.0)
                );
                let runtime = doc.get("runtime").expect("runtime section");
                assert_eq!(runtime.get("queue_depth").and_then(JsonValue::as_number), Some(0.0));
                assert_eq!(runtime.get("completed").and_then(JsonValue::as_number), Some(1.0));
                assert!(runtime.get("per_cu_utilisation").is_some());
                assert!(runtime.get("cache_hit_rate").is_some());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        match handle_line(&mut s, "GRAPH") {
            Reply::Ok(msg) => assert!(msg.contains("4 vertices")),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn explain_command_emits_the_routing_decision_as_json() {
        let mut s = session();
        match handle_line(&mut s, "EXPLAIN 0 3 3") {
            Reply::Ok(msg) => {
                let json = msg.strip_prefix("explain ").expect("explain payload");
                let doc = JsonValue::parse(json).expect("EXPLAIN must be real JSON");
                assert!(doc.get("engine").and_then(JsonValue::as_str).is_some());
                let features = doc.get("features").expect("feature vector");
                assert_eq!(features.get("k").and_then(JsonValue::as_number), Some(3.0));
                assert_eq!(features.get("feasible"), Some(&JsonValue::Bool(true)));
                let Some(JsonValue::Object(costs)) = doc.get("costs_us") else {
                    panic!("per-engine costs must be an object: {doc:?}");
                };
                let keys: Vec<&str> = costs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["bc_dfs", "join", "device"], "one cost per routable engine");
                let rationale = doc.get("rationale").and_then(JsonValue::as_array).unwrap();
                assert!(!rationale.is_empty(), "rationale must explain the decision");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // EXPLAIN runs nothing: the session served no query.
        assert_eq!(s.stats().queries, 0);
        // Malformed and out-of-range requests fail like QUERY's do.
        assert!(matches!(handle_line(&mut s, "EXPLAIN 0 3"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "EXPLAIN 0 99 3"), Reply::Err(_)));
    }

    #[test]
    fn stream_command_chunks_paths_and_honours_the_limit() {
        let mut s = session();
        match handle_line(&mut s, "STREAM 0 3 3") {
            Reply::Stream(chunks) => {
                assert_eq!(chunks.len(), 2, "one path chunk + the end line: {chunks:?}");
                assert!(chunks[0].starts_with("paths "));
                assert!(chunks[0].contains("0->1->3") && chunks[0].contains("0->2->3"));
                assert_eq!(chunks[1], "end streamed=2 limit=100");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // An explicit limit terminates the enumeration early.
        match handle_line(&mut s, "STREAM 0 3 3 1") {
            Reply::Stream(chunks) => {
                assert_eq!(chunks.len(), 2);
                assert_eq!(chunks[0].matches("->").count(), 2, "exactly one 3-vertex path");
                assert_eq!(chunks[1], "end streamed=1 limit=1");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Every rendered line is prefixed, including stream chunks.
        let rendered = handle_line(&mut s, "STREAM 0 3 3").render();
        assert!(rendered.lines().count() > 1);
        assert!(rendered.lines().all(|l| l.starts_with("OK ")));
        // Bad limits and bad specs are single-line errors.
        assert!(matches!(handle_line(&mut s, "STREAM 0 3 3 x"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "STREAM 0 3"), Reply::Err(_)));
        // A zero limit streams nothing and never runs the engine.
        match handle_line(&mut s, "STREAM 0 3 3 0") {
            Reply::Stream(chunks) => assert_eq!(chunks, vec!["end streamed=0 limit=0"]),
            other => panic!("unexpected reply {other:?}"),
        }
        // The server never materialised a result set for any of the above.
        assert_eq!(s.stats().materialised_paths, 0);
        assert!(s.stats().emitted_paths >= 5);
    }

    #[test]
    fn batch_command_runs_triples_on_the_requested_cus() {
        let mut s = session();
        match handle_line(&mut s, "BATCH 0 3 3 0 3 2 1 3 2 CUS=2") {
            Reply::Ok(msg) => {
                assert!(msg.contains("queries=3"), "{msg}");
                assert!(msg.contains("paths=5"), "2 + 2 + 1 paths: {msg}");
                assert!(msg.contains("cus=2"), "{msg}");
                assert!(msg.contains("makespan_cycles="), "{msg}");
                assert!(msg.contains("measured_speedup="), "{msg}");
                assert!(msg.contains("model_err="), "{msg}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Without CUS= the batch runs through the shared runtime (fair
        // admission queue, shared cache); duplicates are deduplicated.
        match handle_line(&mut s, "BATCH 0 3 3 0 3 3") {
            Reply::Ok(msg) => {
                assert!(msg.contains("queries=2"), "{msg}");
                assert!(msg.contains("unique=1"), "{msg}");
                assert!(msg.contains("queue=runtime"), "{msg}");
                assert!(msg.contains("paths=4"), "both slots answered: {msg}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // The runtime batch shows up in the session's own statistics (the
        // CUS= batch above bypassed them).
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().total_paths, 4);
    }

    #[test]
    fn batch_on_cus_answers_on_the_live_epoch() {
        let mut s = HostSession::with_graph(
            CsrGraph::from_edges(5, &[(0, 1), (1, 3)]),
            SessionConfig::default(),
        );
        let ok = |reply: Reply| match reply {
            Reply::Ok(msg) => msg,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(ok(handle_line(&mut s, "UPDATE 0 2 2 3")), "epoch=1 edges=2");
        assert!(ok(handle_line(&mut s, "QUERY 0 3 3")).contains("paths=2"));
        assert!(ok(handle_line(&mut s, "BATCH 0 3 3 0 3 3")).contains("paths=4"));
        let on_cus = ok(handle_line(&mut s, "BATCH 0 3 3 CUS=1"));
        assert!(on_cus.contains("paths=2"), "the second path is an epoch-1 edge: {on_cus}");
        // An insert that grows the vertex set: v7 is in range at epoch 2.
        assert_eq!(ok(handle_line(&mut s, "UPDATE 3 7")), "epoch=2 edges=1");
        assert!(ok(handle_line(&mut s, "BATCH 0 7 4")).contains("paths=2"));
        let grown = ok(handle_line(&mut s, "BATCH 0 7 4 CUS=1"));
        assert!(grown.contains("paths=2"), "{grown}");
    }

    #[test]
    fn batch_cus_is_clamped_to_the_thread_budget() {
        let mut s = session();
        // An absurd CUS value must not spawn an absurd number of threads;
        // the reply reports the clamped width.
        match handle_line(&mut s, "BATCH 0 3 3 CUS=1000000") {
            Reply::Ok(msg) => {
                assert!(msg.contains(&format!("cus={MAX_BATCH_CUS}")), "{msg}");
                assert!(msg.contains("paths=2"), "{msg}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn batch_command_rejects_malformed_input() {
        let mut s = session();
        assert!(matches!(handle_line(&mut s, "BATCH"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "BATCH 0 3"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "BATCH 0 3 3 CUS=0"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "BATCH 0 3 3 CUS=x"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "BATCH 0 99 3"), Reply::Err(_)));
        let mut empty = HostSession::new(SessionConfig::default());
        assert!(matches!(handle_line(&mut empty, "BATCH 0 3 3"), Reply::Err(_)));
        // The session is still usable afterwards.
        assert!(matches!(handle_line(&mut s, "BATCH 0 3 3"), Reply::Ok(_)));
    }

    #[test]
    fn update_and_expire_advance_the_epoch_and_change_answers() {
        let mut s = session();
        match handle_line(&mut s, "COUNT 0 3 3") {
            Reply::Ok(msg) => assert!(msg.contains("paths=2"), "{msg}"),
            other => panic!("unexpected reply {other:?}"),
        }
        match handle_line(&mut s, "UPDATE 0 3") {
            Reply::Ok(msg) => assert_eq!(msg, "epoch=1 edges=1"),
            other => panic!("unexpected reply {other:?}"),
        }
        match handle_line(&mut s, "COUNT 0 3 3") {
            Reply::Ok(msg) => assert!(msg.contains("paths=3"), "new direct edge: {msg}"),
            other => panic!("unexpected reply {other:?}"),
        }
        match handle_line(&mut s, "EXPIRE 0 3") {
            Reply::Ok(msg) => assert_eq!(msg, "epoch=2 edges=1"),
            other => panic!("unexpected reply {other:?}"),
        }
        match handle_line(&mut s, "COUNT 0 3 3") {
            Reply::Ok(msg) => assert!(msg.contains("paths=2"), "removal undone: {msg}"),
            other => panic!("unexpected reply {other:?}"),
        }
        // STATS reports the live epoch and the update counters.
        match handle_line(&mut s, "STATS") {
            Reply::Ok(msg) => {
                let json = msg.strip_prefix("stats ").expect("stats payload");
                let doc = JsonValue::parse(json).expect("STATS must be real JSON");
                let runtime = doc.get("runtime").expect("runtime section");
                assert_eq!(runtime.get("epoch").and_then(JsonValue::as_number), Some(2.0));
                assert_eq!(runtime.get("graph_updates").and_then(JsonValue::as_number), Some(2.0));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn update_command_rejects_malformed_input() {
        let mut s = session();
        assert!(matches!(handle_line(&mut s, "UPDATE"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "UPDATE 0"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "UPDATE 0 1 2"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "EXPIRE 0 x"), Reply::Err(_)));
        let mut empty = HostSession::new(SessionConfig::default());
        assert!(matches!(handle_line(&mut empty, "UPDATE 0 1"), Reply::Err(_)));
        // The session is still usable afterwards.
        assert!(matches!(handle_line(&mut s, "UPDATE 0 3 1 2"), Reply::Ok(_)));
    }

    #[test]
    fn serve_processes_a_script_and_stops_at_quit() {
        let mut s = session();
        let script = "HELP\nQUERY 0 3 3\nSTATS\nQUIT\nQUERY 0 3 3\n";
        let mut output = Vec::new();
        let served = serve(&mut s, Cursor::new(script), &mut output).unwrap();
        assert_eq!(served, 4, "the line after QUIT is not processed");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.starts_with("OK") || l.starts_with("ERR")));
        assert!(lines[1].contains("paths=2"));
        assert!(lines[3].contains("bye"));
    }

    #[test]
    fn serve_handles_end_of_input_without_quit() {
        let mut s = session();
        let mut output = Vec::new();
        let served = serve(&mut s, Cursor::new("GRAPH\n"), &mut output).unwrap();
        assert_eq!(served, 1);
    }

    #[test]
    fn reply_rendering_prefixes_ok_and_err() {
        assert_eq!(Reply::Ok("x".into()).render(), "OK x");
        assert_eq!(Reply::Err("y".into()).render(), "ERR y");
        assert_eq!(Reply::Quit("bye".into()).render(), "OK bye");
    }

    #[test]
    fn query_without_a_loaded_graph_is_an_error_reply() {
        let mut s = HostSession::new(SessionConfig::default());
        assert!(matches!(handle_line(&mut s, "QUERY 0 1 2"), Reply::Err(_)));
        assert!(matches!(handle_line(&mut s, "GRAPH"), Reply::Err(_)));
    }

    #[test]
    fn overlong_lines_are_drained_and_answered_with_one_err() {
        let mut s = session();
        let mut script = Vec::new();
        script.extend_from_slice(vec![b'A'; MAX_LINE_BYTES + 5000].as_slice());
        script.extend_from_slice(b"\nQUERY 0 3 3\n");
        let mut output = Vec::new();
        let served = serve(&mut s, Cursor::new(script), &mut output).unwrap();
        assert_eq!(served, 2, "the flooded line counts once, then serving resumes");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("ERR line exceeds"), "{}", lines[0]);
        assert!(lines[1].contains("paths=2"), "the connection survived: {}", lines[1]);
    }

    #[test]
    fn non_utf8_lines_get_an_err_reply_not_a_dead_connection() {
        let mut s = session();
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"QUERY \xff\xfe 3\n");
        script.extend_from_slice(b"COUNT 0 3 3\n");
        let mut output = Vec::new();
        let served = serve(&mut s, Cursor::new(script), &mut output).unwrap();
        assert_eq!(served, 2);
        let text = String::from_utf8(output).unwrap();
        assert!(text.lines().next().unwrap().starts_with("ERR line is not valid UTF-8"));
        assert!(text.contains("paths=2"));
    }

    #[test]
    fn fuzzed_command_bytes_never_panic_or_break_framing() {
        // Deterministic splitmix-style byte fuzz: random lines (garbage
        // bytes, truncated commands, huge numbers, control characters) must
        // all produce prefixed single-line replies and leave the session
        // serving. QUIT/EXIT opcodes are excluded so the whole script runs.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut script: Vec<u8> = Vec::new();
        let mut fed = 0usize;
        for _ in 0..400 {
            let len = (next() % 48) as usize;
            let mut line: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
            // Bias half the lines towards almost-valid commands so the parse
            // paths get exercised, not just the unknown-command arm.
            if next() % 2 == 0 {
                let stems: [&[u8]; 9] = [
                    b"QUERY ",
                    b"COUNT ",
                    b"STREAM ",
                    b"BATCH ",
                    b"UPDATE ",
                    b"EXPIRE ",
                    b"STATS ",
                    b"GRAPH ",
                    b"EXPLAIN ",
                ];
                let mut biased = stems[(next() % 9) as usize].to_vec();
                biased.extend_from_slice(&line);
                line = biased;
            }
            line.retain(|&b| b != b'\n');
            let upper: Vec<u8> = line.iter().map(|b| b.to_ascii_uppercase()).collect();
            if upper.starts_with(b"QUIT") || upper.starts_with(b"EXIT") {
                continue;
            }
            script.extend_from_slice(&line);
            script.push(b'\n');
            fed += 1;
        }
        script.extend_from_slice(b"COUNT 0 3 3\nQUIT\n");
        let mut s = session();
        let mut output = Vec::new();
        let served = serve(&mut s, Cursor::new(script), &mut output).unwrap();
        assert_eq!(served, fed + 2, "every fuzzed line, the probe and QUIT got exactly one turn");
        let seen: Vec<Seen> = String::from_utf8(output).unwrap().lines().map(seen_line).collect();
        check_fuzz_transcript(fed, &seen, 2);
    }

    /// A writer that accepts a bounded number of bytes and then fails every
    /// write — a client that hung up mid-reply.
    struct DroppingWriter {
        budget: usize,
        written: Vec<u8>,
    }

    impl Write for DroppingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written.len() + buf.len() > self.budget {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client gone"));
            }
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_dropping_mid_stream_cancels_the_running_job_and_frees_the_cu() {
        use crate::loader::GraphHandle;
        use crate::runtime::{HostRuntime, RuntimeConfig};
        use pefp_graph::generators::{layered_dag, layered_sink, layered_source};

        // 6^5 = 7776 paths: far beyond the 256-path stream channel, so the
        // engine is still enumerating when the client's writer dies on the
        // first chunk. The sink break cancels the ticket; the engine stops at
        // its next boundary (the runtime counts it in `cancelled_jobs`, the
        // aggregate of per-run `EngineStats::cancelled`) and the CU lease is
        // released back to the pool.
        let g = layered_dag(5, 6, 6, 1).to_csr();
        let query = format!("STREAM {} {} 6 10000\n", layered_source().0, layered_sink(5, 6).0);
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("layered", g),
            RuntimeConfig { compute_units: 1, ..RuntimeConfig::default() },
        );
        let writer = DroppingWriter { budget: 10, written: Vec::new() };
        let mut tenant = HostSession::attach(std::sync::Arc::clone(&runtime));
        let err = serve(&mut tenant, Cursor::new(query), writer)
            .expect_err("the dead client aborts its own connection");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        let stats = runtime.stats();
        assert_eq!(stats.cancelled_jobs, 1, "the running stream was cancelled");
        assert_eq!(runtime.leased_cus(), 0, "the CU lease was released");
        // The fleet is healthy: the next client's query runs normally.
        let session = runtime.register_session();
        let outcome = runtime
            .submit_query(session, QueryRequest::new(0, 1, 2), false)
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.num_paths >= 1);
    }

    #[test]
    fn dropping_a_job_ticket_cancels_a_running_engine() {
        use crate::loader::GraphHandle;
        use crate::runtime::{HostRuntime, RuntimeConfig};
        use pefp_graph::generators::{layered_dag, layered_sink, layered_source};
        use std::time::{Duration, Instant};

        let g = layered_dag(5, 6, 6, 1).to_csr();
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("layered", g),
            RuntimeConfig { compute_units: 1, ..RuntimeConfig::default() },
        );
        let session = runtime.register_session();
        let request = QueryRequest::new(layered_source().0, layered_sink(5, 6).0, 6);
        let (ticket, rx) = runtime.submit_query_streaming(session, request, 1).unwrap();
        // The first received path proves the engine is running mid-stream.
        let first = rx.recv().expect("engine delivers at least one path");
        assert!(!first.is_empty());
        drop(ticket);
        drop(rx);
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.stats().cancelled_jobs == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(runtime.stats().cancelled_jobs, 1, "ticket drop cancelled the engine");
        assert_eq!(runtime.leased_cus(), 0);
    }
}
