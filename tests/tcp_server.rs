//! End-to-end tests of the TCP front door over real sockets: protocol fuzz
//! against a live listener, cancellation on client disconnect mid-STREAM,
//! identical answers to a seeded command sequence across the binary, text
//! and in-process transports, typed BUSY backpressure when the admission
//! queue is full, the request limits at their boundaries on both codecs, and
//! the documented `STATS` keys.

use pefp::graph::generators::{layered_dag, layered_sink, layered_source};
use pefp::graph::CsrGraph;
use pefp::host::net::{NetConfig, NetServer};
use pefp::host::server::{
    handle_line, DEFAULT_STREAM_LIMIT, MAX_BATCH_QUERIES, MAX_INLINE_PATHS, MAX_LINE_BYTES,
    MAX_STREAM_LIMIT, MAX_UPDATE_EDGES,
};
use pefp::host::wire::{
    write_frame, Reply, Request, FRAME_MAGIC, MAX_FRAME_PAYLOAD, STREAM_FRAME_PATHS,
};
use pefp::host::{
    execute, CollectingWriter, GraphHandle, HostRuntime, HostSession, QueryRequest, RuntimeConfig,
    SessionConfig,
};
use pefp::workload::JsonValue;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "support/fuzz_invariants.rs"]
mod fuzz_invariants;
use fuzz_invariants::{check_fuzz_transcript, seen_line, Seen};

fn front_door(name: &str, g: CsrGraph, config: RuntimeConfig) -> NetServer {
    let runtime = HostRuntime::launch(GraphHandle::from_csr(name, g), config);
    NetServer::bind(runtime, "127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

fn diamond() -> CsrGraph {
    CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
}

fn connect(server: &NetServer) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect loopback");
    (BufReader::new(stream.try_clone().expect("clone stream")), stream)
}

/// Asserts the connection still answers a valid query after whatever abuse
/// preceded it.
fn expect_count_answers(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) {
    Request::Count { s: 0, t: 3, k: 3 }.write_to(writer).expect("send COUNT");
    match Reply::read_from(reader).expect("read reply").expect("reply present") {
        Reply::Summary { num_paths, .. } => assert_eq!(num_paths, 2),
        other => panic!("expected a Summary, got {other:?}"),
    }
}

/// One command's replies over the binary protocol: every chunk up to and
/// including the terminal reply.
fn exchange_binary(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &Request,
) -> Vec<Reply> {
    request.write_to(writer).expect("send frame");
    let mut replies = Vec::new();
    loop {
        replies.push(Reply::read_from(reader).expect("read frame").expect("frame present"));
        if !matches!(replies.last(), Some(Reply::Paths(_))) {
            return replies;
        }
    }
}

/// One command's reply lines over the text protocol: every `OK paths …` chunk
/// line up to and including the terminal line.
fn exchange_text(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> Vec<String> {
    writeln!(writer, "{line}").expect("send line");
    let mut lines = Vec::new();
    loop {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("read line") > 0, "server closed early");
        lines.push(reply.trim_end().to_string());
        if !reply.starts_with("OK paths ") {
            return lines;
        }
    }
}

/// The text line that asks for what `request` asks for.
fn to_line(request: &Request) -> String {
    match request {
        Request::Query { s, t, k } => format!("QUERY {s} {t} {k}"),
        Request::Count { s, t, k } => format!("COUNT {s} {t} {k}"),
        Request::Stream { s, t, k, limit } => format!("STREAM {s} {t} {k} {limit}"),
        Request::Batch { queries } => {
            let triples: String = queries.iter().map(|(s, t, k)| format!(" {s} {t} {k}")).collect();
            format!("BATCH{triples}")
        }
        Request::Explain { s, t, k } => format!("EXPLAIN {s} {t} {k}"),
        Request::Update { remove, edges } => {
            let pairs: String = edges.iter().map(|(u, v)| format!(" {u} {v}")).collect();
            format!("{}{pairs}", if *remove { "EXPIRE" } else { "UPDATE" })
        }
        Request::Stats => "STATS".to_string(),
        Request::Quit => "QUIT".to_string(),
    }
}

/// The part of a command's outcome every transport must agree on: path
/// counts, sampled and streamed paths, batch counts, the epoch, the error
/// message (which names its class). Wall-clock timing and cache state are
/// left out.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Summary {
        num_paths: u64,
        sample: Vec<Vec<u32>>,
    },
    Stream {
        paths: Vec<Vec<u32>>,
        streamed: u64,
        limit: u64,
    },
    /// `per_slot` is empty on the text protocol, whose reply line carries
    /// only the total.
    Batch {
        queries: u64,
        unique: u64,
        total_paths: u64,
        per_slot: Vec<u64>,
    },
    Explain(String),
    Stats {
        queries: f64,
        rejected: f64,
        total_paths: f64,
        emitted_paths: f64,
        epoch: f64,
    },
    Update {
        epoch: u64,
        edges: u64,
    },
    Bye,
    Error(String),
}

fn answer_of_json(doc: &str) -> Answer {
    let json = JsonValue::parse(doc).expect("a JSON reply parses");
    let Some(session) = json.get("session") else {
        return Answer::Explain(doc.to_string());
    };
    let number = |object: &JsonValue, key: &str| {
        object.get(key).and_then(JsonValue::as_number).unwrap_or_else(|| panic!("no {key}"))
    };
    Answer::Stats {
        queries: number(session, "queries"),
        rejected: number(session, "rejected"),
        total_paths: number(session, "total_paths"),
        emitted_paths: number(session, "emitted_paths"),
        epoch: number(json.get("runtime").expect("runtime section"), "epoch"),
    }
}

fn answer_of_replies(replies: Vec<Reply>) -> Answer {
    let mut paths = Vec::new();
    for reply in replies {
        return match reply {
            Reply::Paths(chunk) => {
                paths.extend(chunk);
                continue;
            }
            Reply::Summary { num_paths, sample, .. } => Answer::Summary { num_paths, sample },
            Reply::End { streamed, limit } => Answer::Stream { paths, streamed, limit },
            Reply::BatchOk { unique, paths_per_query, .. } => Answer::Batch {
                queries: paths_per_query.len() as u64,
                unique: u64::from(unique),
                total_paths: paths_per_query.iter().sum(),
                per_slot: paths_per_query,
            },
            Reply::Json(doc) => answer_of_json(&doc),
            Reply::UpdateOk { epoch, edges } => Answer::Update { epoch, edges: u64::from(edges) },
            Reply::Bye => Answer::Bye,
            Reply::Busy => Answer::Error("admission queue full: submission rejected".to_string()),
            Reply::Error { message, .. } => Answer::Error(message),
        };
    }
    panic!("no terminal reply");
}

fn parse_paths(text: &str) -> Vec<Vec<u32>> {
    let path = |p: &str| p.split("->").map(|v| v.parse().expect("vertex id")).collect();
    text.split_whitespace().map(path).collect()
}

fn answer_of_lines(lines: Vec<String>) -> Answer {
    let field = |body: &str, key: &str| -> u64 {
        let token = body.split_whitespace().find_map(|token| token.strip_prefix(key));
        token.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key} in {body:?}"))
    };
    let mut paths = Vec::new();
    for line in lines {
        if let Some(chunk) = line.strip_prefix("OK paths ") {
            paths.extend(parse_paths(chunk));
            continue;
        }
        if let Some(message) = line.strip_prefix("ERR ") {
            return Answer::Error(message.to_string());
        }
        let body = line.strip_prefix("OK ").unwrap_or_else(|| panic!("unprefixed line {line:?}"));
        return if body.starts_with("paths=") {
            let sample = body.split_once(" sample: ").map_or(Vec::new(), |(_, s)| parse_paths(s));
            Answer::Summary { num_paths: field(body, "paths="), sample }
        } else if body.starts_with("end ") {
            let (streamed, limit) = (field(body, "streamed="), field(body, "limit="));
            Answer::Stream { paths, streamed, limit }
        } else if body.starts_with("queries=") {
            Answer::Batch {
                queries: field(body, "queries="),
                unique: field(body, "unique="),
                total_paths: field(body, "paths="),
                per_slot: Vec::new(),
            }
        } else if body.starts_with("epoch=") {
            Answer::Update { epoch: field(body, "epoch="), edges: field(body, "edges=") }
        } else if body == "bye" {
            Answer::Bye
        } else {
            let doc = body.strip_prefix("stats ").or_else(|| body.strip_prefix("explain "));
            answer_of_json(doc.unwrap_or_else(|| panic!("unknown reply line {line:?}")))
        };
    }
    panic!("no terminal line");
}

/// What the binary transport saw, as the text transport can see it.
fn as_text_sees(answer: &Answer) -> Answer {
    match answer.clone() {
        Answer::Batch { queries, unique, total_paths, .. } => {
            Answer::Batch { queries, unique, total_paths, per_slot: Vec::new() }
        }
        other => other,
    }
}

fn seen_reply(reply: &Reply) -> Seen {
    match reply {
        Reply::Paths(_) => Seen::Chunk,
        Reply::Summary { num_paths, .. } => Seen::Answer { paths: Some(*num_paths) },
        Reply::Error { .. } | Reply::Busy => Seen::TypedError,
        Reply::Bye => Seen::Bye,
        _ => Seen::Answer { paths: None },
    }
}

#[test]
fn seeded_frame_fuzz_gets_typed_errors_and_the_listener_survives() {
    let server = front_door("diamond", diamond(), RuntimeConfig::default());

    // Deterministic splitmix-style generator: the fuzz bytes are reproducible
    // run to run.
    let mut state = 0x5EED_CAFE_F00D_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u32
    };

    // Well-formed frames (magic + valid checksum) carrying garbage opcodes
    // and payloads, pipelined, then a COUNT probe and QUIT: the shared
    // invariants hold over everything that comes back before the hang-up —
    // one terminal reply per frame, typed ERR or a valid answer when the
    // bytes happen to parse, and a connection that still serves afterwards.
    const FUZZ_FRAMES: usize = 48;
    let (mut reader, mut writer) = connect(&server);
    for _ in 0..FUZZ_FRAMES {
        let opcode = loop {
            let candidate = (next() % 256) as u8;
            if candidate != 0x08 {
                break candidate; // QUIT would (correctly) end the connection
            }
        };
        let len = (next() % 48) as usize;
        let payload: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
        write_frame(&mut writer, opcode, (next() % 4) as u16, &payload).expect("send fuzz frame");
    }
    Request::Count { s: 0, t: 3, k: 3 }.write_to(&mut writer).expect("send the probe");
    Request::Quit.write_to(&mut writer).expect("send QUIT");
    let mut seen = Vec::new();
    loop {
        match Reply::read_from(&mut reader) {
            Ok(Some(reply)) => seen.push(seen_reply(&reply)),
            Ok(None) => break,
            Err(e) => {
                eprintln!("undecodable reply frame: {e}");
                seen.push(Seen::Untyped);
                break;
            }
        }
    }
    check_fuzz_transcript(FUZZ_FRAMES, &seen, 2);
    // Random opcodes rarely land on a valid layout: almost every fuzz frame
    // was counted as a protocol error.
    let after_frames = server.stats().protocol_errors;
    assert!(after_frames >= 40, "the fuzz frames were counted");

    // The same invariants for the text protocol on the same port: random
    // byte lines, half of them biased towards a real command word. A line
    // that is not valid UTF-8 and one longer than the cap each cost one typed
    // ERR, are counted like a malformed frame, and leave the line framing
    // intact.
    const FUZZ_LINES: usize = 64;
    let stems: [&[u8]; 6] = [b"QUERY ", b"STREAM ", b"BATCH ", b"UPDATE ", b"STATS ", b"EXPLAIN "];
    let mut script: Vec<u8> = Vec::new();
    for _ in 0..FUZZ_LINES {
        let mut line: Vec<u8> = Vec::new();
        if next() % 2 == 0 {
            line.extend_from_slice(stems[(next() % 6) as usize]);
        }
        // Argument-like bytes after a command word reach deep into the
        // parser; raw bytes otherwise.
        let alphabet: &[u8] = if line.is_empty() { &[] } else { b" 0123456789-xCUS=" };
        let len = (next() % 40) as usize;
        line.extend((0..len).map(|_| match alphabet {
            [] => (next() % 256) as u8,
            _ => alphabet[next() as usize % alphabet.len()],
        }));
        line.retain(|&b| b != b'\n');
        let word: Vec<u8> = line.iter().map(u8::to_ascii_uppercase).collect();
        let word = word.trim_ascii_start();
        if word.starts_with(b"QUIT")
            || word.starts_with(b"EXIT")
            || line.first() == Some(&FRAME_MAGIC)
        {
            line.insert(0, b'x'); // not a farewell, not a binary connection
        }
        script.extend_from_slice(&line);
        script.push(b'\n');
    }
    script.extend_from_slice(b"COUNT \xff\xfe 3\n");
    script.extend(std::iter::repeat_n(b'A', MAX_LINE_BYTES + 1));
    script.extend_from_slice(b"\nCOUNT 0 3 3\nQUIT\n");
    let (mut reader, mut writer) = connect(&server);
    writer.write_all(&script).expect("send the fuzz lines");
    let mut transcript = String::new();
    reader.read_to_string(&mut transcript).expect("replies are UTF-8 lines up to the hang-up");
    let seen: Vec<Seen> = transcript.lines().map(seen_line).collect();
    check_fuzz_transcript(FUZZ_LINES + 2, &seen, 2);
    assert!(
        server.stats().protocol_errors >= after_frames + 2,
        "the non-UTF-8 and the over-long line were counted"
    );

    // A corrupted payload byte is caught by the checksum; the stream stays
    // framed and the connection survives.
    let (mut reader, mut writer) = connect(&server);
    let mut frame = Request::Count { s: 0, t: 3, k: 3 }.encode();
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    writer.write_all(&frame).expect("send corrupt frame");
    writer.flush().expect("flush corrupt frame");
    match Reply::read_from(&mut reader).expect("read reply").expect("reply present") {
        Reply::Error { message, .. } => {
            assert!(message.contains("checksum"), "unexpected message: {message}")
        }
        other => panic!("expected a checksum ERR, got {other:?}"),
    }
    expect_count_answers(&mut reader, &mut writer);

    // An oversized declared length is rejected with a typed ERR before any
    // allocation; the stream is desynchronised so the server hangs up, and
    // the listener accepts the next connection as if nothing happened.
    let mut header = vec![FRAME_MAGIC, 0x02, 0, 0];
    header.extend_from_slice(&((MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes()));
    header.extend_from_slice(&[0, 0, 0, 0]);
    writer.write_all(&header).expect("send oversized header");
    writer.flush().expect("flush oversized header");
    match Reply::read_from(&mut reader).expect("read reply").expect("reply present") {
        Reply::Error { message, .. } => {
            assert!(message.contains("exceeds"), "unexpected message: {message}")
        }
        other => panic!("expected an oversized ERR, got {other:?}"),
    }
    assert!(
        Reply::read_from(&mut reader).expect("clean close").is_none(),
        "the server hangs up after a desynchronised stream"
    );

    // Mid-stream garbage that does not start with the magic byte: one final
    // typed ERR, hang-up, and the listener still serves fresh connections.
    let (mut reader, mut writer) = connect(&server);
    expect_count_answers(&mut reader, &mut writer);
    writer.write_all(&[0x00, 0xFF, 0x13, 0x37]).expect("send garbage");
    writer.flush().expect("flush garbage");
    match Reply::read_from(&mut reader).expect("read reply").expect("reply present") {
        Reply::Error { message, .. } => {
            assert!(message.contains("magic"), "unexpected message: {message}")
        }
        other => panic!("expected a bad-magic ERR, got {other:?}"),
    }
    let (mut reader, mut writer) = connect(&server);
    expect_count_answers(&mut reader, &mut writer);
    server.shutdown();
}

#[test]
fn client_disconnect_mid_stream_cancels_the_engine_over_real_sockets() {
    // 6^5 = 7776 paths, streamed with a limit above the total so the FirstN
    // sink never breaks on its own: the only way `cancelled_jobs` can become
    // 1 is the disconnect below.
    let g = layered_dag(5, 6, 6, 1).to_csr();
    let server =
        front_door("layered", g, RuntimeConfig { compute_units: 1, ..RuntimeConfig::default() });
    let runtime = Arc::clone(server.runtime());

    let (mut reader, mut writer) = connect(&server);
    let request =
        Request::Stream { s: layered_source().0, t: layered_sink(5, 6).0, k: 6, limit: 10_000 };
    request.write_to(&mut writer).expect("send STREAM");
    match Reply::read_from(&mut reader).expect("read first chunk").expect("chunk present") {
        Reply::Paths(chunk) => assert!(!chunk.is_empty(), "the engine is streaming"),
        other => panic!("expected a Paths chunk, got {other:?}"),
    }
    // Hang up mid-stream: dropping both halves closes the socket; the
    // server's next flush fails, the sink breaks, the session cancels the
    // running job's ticket.
    drop(reader);
    drop(writer);

    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.stats().cancelled_jobs == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(runtime.stats().cancelled_jobs, 1, "the disconnect cancelled the running stream");
    assert_eq!(runtime.leased_cus(), 0, "the CU lease went back to the pool");

    // The runtime serves the next connection normally.
    let (mut reader, mut writer) = connect(&server);
    Request::Count { s: layered_source().0, t: layered_sink(5, 6).0, k: 6 }
        .write_to(&mut writer)
        .expect("send COUNT");
    match Reply::read_from(&mut reader).expect("read reply").expect("reply present") {
        Reply::Summary { num_paths, .. } => assert_eq!(num_paths, 7776),
        other => panic!("expected a Summary, got {other:?}"),
    }
    assert!(server.stats().io_disconnects >= 1, "the hang-up was counted");
    server.shutdown();
}

/// A seeded mix of every command, valid and not: out-of-range vertices,
/// `k = 0`, `k` beyond the engine's maximum, zero and over-ceiling stream
/// limits, empty and oversized batches and updates.
fn seeded_commands(seed: u64, vertices: u32, count: usize) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let triple = move |rng: &mut ChaCha8Rng| {
        let k = [0, 1, 2, 3, 4, 4, 5, 31][rng.gen_range(0..8usize)];
        (rng.gen_range(0..vertices + 2), rng.gen_range(0..vertices + 2), k)
    };
    let mut commands = Vec::with_capacity(count);
    let mut oversized = 0;
    while commands.len() < count {
        let (s, t, k) = triple(&mut rng);
        commands.push(match rng.gen_range(0..8u32) {
            0 => Request::Query { s, t, k },
            1 => Request::Count { s, t, k },
            2 => {
                let limits = [0, 1, 7, 33, DEFAULT_STREAM_LIMIT, MAX_STREAM_LIMIT + 1];
                Request::Stream { s, t, k, limit: limits[rng.gen_range(0..limits.len())] }
            }
            3 => {
                // Mostly small batches; the over-limit one is big, so twice.
                let len = match rng.gen_range(0..6u32) {
                    0 if oversized < 2 => {
                        oversized += 1;
                        MAX_BATCH_QUERIES + 1
                    }
                    n => n as usize,
                };
                Request::Batch { queries: (0..len).map(|_| triple(&mut rng)).collect() }
            }
            4 => Request::Explain { s, t, k },
            5 | 6 => {
                let len = rng.gen_range(0..4usize);
                let edges = (0..len).map(|_| triple(&mut rng)).map(|(u, v, _)| (u, v)).collect();
                Request::Update { remove: rng.gen_bool(0.5), edges }
            }
            _ => Request::Stats,
        });
    }
    commands
}

#[test]
fn binary_text_and_in_process_stream_answers_are_byte_identical() {
    // 4^3 = 64 source-to-sink paths. UPDATE/EXPIRE mutate the graph, so
    // every transport gets its own runtime over the same starting graph.
    let g = layered_dag(3, 4, 4, 2).to_csr();
    let vertices = g.num_vertices() as u32;
    let config = RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() };
    let binary_server = front_door("layered_small", g.clone(), config.clone());
    let text_server = front_door("layered_small", g.clone(), config.clone());
    let mut in_process =
        HostSession::attach(HostRuntime::launch(GraphHandle::from_csr("layered_small", g), config));
    let (s, t, k) = (layered_source().0, layered_sink(3, 4).0, 4u32);

    // In-process reference: the collected result set.
    let runtime = Arc::clone(binary_server.runtime());
    let session = runtime.register_session();
    let reference: Vec<Vec<u32>> = runtime
        .submit_query(session, QueryRequest::new(s, t, k), true)
        .expect("admit reference query")
        .wait()
        .expect("run reference query")
        .paths
        .into_iter()
        .map(|path| path.into_iter().map(|v| v.0).collect())
        .collect();
    assert_eq!(reference.len(), 64);

    // The full STREAM first, then the seeded sequence. Every command runs
    // through `execute` in process, as a frame over TCP and as a line over
    // TCP; the same dispatcher and PathSink pipeline sit under all three, so
    // the answers are identical sequences, not just identical sets.
    let mut commands = vec![Request::Stream { s, t, k, limit: 10_000 }];
    commands.extend(seeded_commands(0x5EED_D1FF, vertices, 120));
    let (mut binary_reader, mut binary_writer) = connect(&binary_server);
    let (mut text_reader, mut text_writer) = connect(&text_server);
    for (i, command) in commands.iter().enumerate() {
        let mut collected = CollectingWriter::new(STREAM_FRAME_PATHS);
        execute(&mut in_process, command.clone(), &mut collected).expect("collecting cannot fail");
        let expected = answer_of_replies(collected.replies);
        let binary =
            answer_of_replies(exchange_binary(&mut binary_reader, &mut binary_writer, command));
        let text =
            answer_of_lines(exchange_text(&mut text_reader, &mut text_writer, &to_line(command)));
        assert_eq!(binary, expected, "command {i} {command:?}: binary vs in-process");
        assert_eq!(text, as_text_sees(&expected), "command {i} {command:?}: text vs in-process");
        if i == 0 {
            let Answer::Stream { paths, streamed: 64, .. } = expected else {
                panic!("the full STREAM streamed {expected:?}");
            };
            assert_eq!(paths, reference, "STREAM matches the collected result set");
        }
    }
    binary_server.shutdown();
    text_server.shutdown();
}

#[test]
fn queue_full_surfaces_as_a_typed_busy_frame_and_the_connection_survives() {
    // One CU, a one-slot admission queue: wedge the CU with a streaming job
    // whose 1-path channel nobody drains (the engine blocks on backpressure
    // holding its lease), park a second job in the only queue slot, and the
    // TCP request below is deterministically rejected with QueueFull.
    let g = layered_dag(5, 6, 6, 1).to_csr();
    let server = front_door(
        "layered",
        g,
        RuntimeConfig { compute_units: 1, queue_capacity: 1, ..RuntimeConfig::default() },
    );
    let runtime = Arc::clone(server.runtime());
    let session = runtime.register_session();
    let wedge_request = QueryRequest::new(layered_source().0, layered_sink(5, 6).0, 6);
    let (wedge_ticket, wedge_rx) =
        runtime.submit_query_streaming(session, wedge_request, 1).expect("admit wedge");
    let first = wedge_rx.recv().expect("the wedge engine is running");
    assert!(!first.is_empty());
    let parked =
        runtime.submit_query(session, QueryRequest::new(0, 1, 2), false).expect("park a job");

    let (mut reader, mut writer) = connect(&server);
    Request::Count { s: 0, t: 1, k: 2 }.write_to(&mut writer).expect("send COUNT");
    match Reply::read_from(&mut reader).expect("read reply").expect("reply present") {
        Reply::Busy => {}
        other => panic!("expected BUSY backpressure, got {other:?}"),
    }
    assert_eq!(server.stats().busy_replies, 1);
    // The text protocol's BUSY is an ERR line (`loadgen --protocol line`
    // classifies on its wording) and lands in the same counter.
    let (mut text_reader, mut text_writer) = connect(&server);
    let busy = exchange_text(&mut text_reader, &mut text_writer, "COUNT 0 1 2");
    assert!(busy[0].starts_with("ERR") && busy[0].contains("admission queue full"), "{busy:?}");
    assert_eq!(server.stats().busy_replies, 2);

    // Release the wedge; the same connection recovers with plain retries.
    drop(wedge_ticket);
    drop(wedge_rx);
    parked.wait().expect("the parked job completes");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        Request::Count { s: 0, t: 1, k: 2 }.write_to(&mut writer).expect("send retry");
        match Reply::read_from(&mut reader).expect("read reply").expect("reply present") {
            Reply::Summary { .. } => break,
            Reply::Busy if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            other => panic!("expected Summary or transient BUSY, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn request_limits_bite_at_the_same_boundary_on_both_codecs() {
    // 0 -> {2..=7} -> 1 is six 2-hop paths, 8 -> {2..=6} -> 1 is five.
    let mut edges: Vec<(u32, u32)> = (2..=7).flat_map(|m| [(0, m), (m, 1)]).collect();
    edges.extend((2..=6).map(|m| (8, m)));
    let server = front_door("fan", CsrGraph::from_edges(9, &edges), RuntimeConfig::default());
    let (mut reader, mut writer) = connect(&server);
    let (mut text_reader, mut text_writer) = connect(&server);

    // What a limit decides: answered or refused, and the size it let through.
    let class = |answer: &Answer| match answer {
        Answer::Summary { sample, .. } => format!("sample of {}", sample.len()),
        Answer::Stream { limit, .. } => format!("stream under limit {limit}"),
        Answer::Batch { queries, .. } => format!("batch of {queries}"),
        Answer::Update { .. } => "updated".to_string(),
        Answer::Error(_) => "refused".to_string(),
        other => panic!("unexpected answer {other:?}"),
    };
    let stream = |limit| Request::Stream { s: 0, t: 1, k: 2, limit };
    let batch = |n| Request::Batch { queries: vec![(0, 1, 2); n] };
    let update = |n| Request::Update { remove: false, edges: vec![(0, 1); n] };
    // (limit, request at it or one past it, the text line when it is not
    // just the request's, the expected outcome on both codecs)
    let cases: Vec<(&str, Request, Option<&str>, String)> = vec![
        ("MAX_INLINE_PATHS", Request::Query { s: 8, t: 1, k: 2 }, None, "sample of 5".into()),
        ("MAX_INLINE_PATHS + 1", Request::Query { s: 0, t: 1, k: 2 }, None, "sample of 5".into()),
        (
            "DEFAULT_STREAM_LIMIT",
            stream(DEFAULT_STREAM_LIMIT),
            Some("STREAM 0 1 2"),
            format!("stream under limit {DEFAULT_STREAM_LIMIT}"),
        ),
        (
            "MAX_STREAM_LIMIT",
            stream(MAX_STREAM_LIMIT),
            None,
            format!("stream under limit {MAX_STREAM_LIMIT}"),
        ),
        (
            "MAX_STREAM_LIMIT + 1",
            stream(MAX_STREAM_LIMIT + 1),
            None,
            format!("stream under limit {MAX_STREAM_LIMIT}"),
        ),
        (
            "MAX_BATCH_QUERIES",
            batch(MAX_BATCH_QUERIES),
            None,
            format!("batch of {MAX_BATCH_QUERIES}"),
        ),
        ("MAX_BATCH_QUERIES + 1", batch(MAX_BATCH_QUERIES + 1), None, "refused".into()),
        ("MAX_UPDATE_EDGES", update(MAX_UPDATE_EDGES), None, "updated".into()),
        ("MAX_UPDATE_EDGES + 1", update(MAX_UPDATE_EDGES + 1), None, "refused".into()),
    ];
    assert_eq!(MAX_INLINE_PATHS, 5, "the fan graph is built around a sample of five");
    for (limit, request, line, expected) in cases {
        let binary = answer_of_replies(exchange_binary(&mut reader, &mut writer, &request));
        let line = line.map_or_else(|| to_line(&request), str::to_string);
        let text = answer_of_lines(exchange_text(&mut text_reader, &mut text_writer, &line));
        assert_eq!(class(&binary), expected, "{limit}: binary");
        assert_eq!(class(&text), expected, "{limit}: text");
    }
    server.shutdown();
}

#[test]
fn stats_objects_carry_exactly_the_documented_keys() {
    // The README's "`STATS` fields" table is the documentation of record: a
    // row is `| `object` | `key` | meaning |`.
    let documented = |object: &str| -> Vec<String> {
        let prefix = format!("| `{object}` | `");
        let rows = include_str!("../README.md").lines().filter_map(|row| row.strip_prefix(&prefix));
        let mut keys: Vec<String> =
            rows.map(|rest| rest.split('`').next().expect("a key cell").to_string()).collect();
        keys.sort();
        keys
    };
    let keys_of = |doc: &JsonValue, object: &str| -> Vec<String> {
        let Some(JsonValue::Object(pairs)) = doc.get(object) else {
            panic!("STATS has no {object} object");
        };
        let mut keys: Vec<String> = pairs.iter().map(|(key, _)| key.clone()).collect();
        keys.sort();
        keys
    };

    let server = front_door("diamond", diamond(), RuntimeConfig::default());
    let (mut reader, mut writer) = connect(&server);
    let binary = match exchange_binary(&mut reader, &mut writer, &Request::Stats).pop() {
        Some(Reply::Json(doc)) => doc,
        other => panic!("expected a JSON reply, got {other:?}"),
    };
    let (mut reader, mut writer) = connect(&server);
    let text = exchange_text(&mut reader, &mut writer, "STATS").pop().expect("one line");
    let text = text.strip_prefix("OK stats ").expect("a stats line").to_string();
    for doc in [binary, text] {
        let doc = JsonValue::parse(&doc).expect("STATS is JSON");
        for object in ["session", "runtime", "net"] {
            assert!(!documented(object).is_empty(), "README documents no {object} key");
            assert_eq!(keys_of(&doc, object), documented(object), "keys of the {object} object");
        }
        assert_eq!(keys_of(&doc, "net").len(), 10, "every NetStats counter is in STATS");
    }
    server.shutdown();

    // Served in process there is no front door, hence no `net` object.
    let mut session = HostSession::with_graph(diamond(), SessionConfig::default());
    let reply = handle_line(&mut session, "STATS").render();
    let doc = JsonValue::parse(reply.strip_prefix("OK stats ").expect("a stats line")).unwrap();
    assert!(doc.get("session").is_some() && doc.get("runtime").is_some());
    assert!(doc.get("net").is_none(), "in-process STATS has no net object");
}
