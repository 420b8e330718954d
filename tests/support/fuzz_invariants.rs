//! The one invariant checker behind both front-door fuzz harnesses: frames
//! and lines against a live listener (`tests/tcp_server.rs`) and lines
//! through the in-process `serve` loop (the `pefp-host::server` unit test,
//! which includes this file with `#[path]`). It depends on nothing but
//! `std`; each harness reduces what it read to [`Seen`] values
//! ([`seen_line`] does it for a text reply line).
//!
//! A harness feeds its fuzz inputs (with anything that parses as `QUIT`
//! taken out), then a `COUNT` probe, then `QUIT`, and hands over everything
//! that came back.

/// One reply as a fuzz harness saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// A non-terminal `STREAM` chunk.
    Chunk,
    /// A terminal success reply; `paths` is the count a `QUERY`/`COUNT`
    /// summary carried.
    Answer { paths: Option<u64> },
    /// A terminal error reply of a known type: an `ERR` line, an `Error`
    /// frame with a decodable code, `BUSY`.
    TypedError,
    /// The farewell to `QUIT`.
    Bye,
    /// Anything else: a line without an `OK`/`ERR` prefix, a frame that does
    /// not decode.
    Untyped,
}

/// Reduces one text-protocol reply line to what the invariants need.
pub fn seen_line(line: &str) -> Seen {
    let count = |rest: &str| rest.split_whitespace().next().and_then(|n| n.parse().ok());
    match line {
        "OK bye" => Seen::Bye,
        _ if line.starts_with("OK paths ") => Seen::Chunk,
        _ if line.starts_with("ERR ") => Seen::TypedError,
        _ => match line.strip_prefix("OK ") {
            Some(body) => Seen::Answer { paths: body.strip_prefix("paths=").and_then(count) },
            None => Seen::Untyped,
        },
    }
}

/// Checks the transcript of one fuzzed connection. Getting a complete
/// transcript at all means nothing panicked and the framing held; beyond
/// that every one of the `sent` fuzz inputs got exactly one terminal reply,
/// every failure was typed, and the connection survived to answer the final
/// `COUNT` probe with `probe_paths` before the `QUIT`.
pub fn check_fuzz_transcript(sent: usize, seen: &[Seen], probe_paths: u64) {
    assert!(!seen.contains(&Seen::Untyped), "an untyped reply: {seen:?}");
    let terminal: Vec<Seen> = seen.iter().copied().filter(|s| *s != Seen::Chunk).collect();
    assert_eq!(
        terminal.len(),
        sent + 2,
        "exactly one terminal reply per fuzz input, plus the probe's and the farewell"
    );
    assert_eq!(
        terminal.iter().filter(|s| **s == Seen::Bye).count(),
        1,
        "QUIT was kept out of the fuzz inputs, so only the final one is answered"
    );
    assert_eq!(
        &terminal[sent..],
        &[Seen::Answer { paths: Some(probe_paths) }, Seen::Bye],
        "the connection survived the fuzz and still answered the COUNT probe"
    );
}
