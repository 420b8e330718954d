//! Codec tests for the binary wire protocol (`pefp_host::wire`).
//!
//! Every frame type — all eight requests and all nine replies — must survive
//! an encode → decode → re-encode cycle with the decoded value equal to the
//! original and the re-encoded bytes *identical* to the first encoding
//! (there is exactly one wire form per value, so checksums, logs and replay
//! tooling can compare frames byte-wise). Each arm is checked at its
//! boundary values (0, 1 and the type's maximum in every integer field,
//! empty and non-empty lists and strings, every error code) and on seeded
//! random values. Every strict prefix of every request frame must fail to
//! decode without panicking or over-allocating, and every single-byte
//! payload corruption must fail the checksum.

use pefp::host::wire::{read_frame, ErrCode, Reply, Request, WireError};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

#[path = "support/seeded_cases.rs"]
mod seeded_cases;
use seeded_cases::for_each_seed;

const U32S: [u32; 3] = [0, 1, u32::MAX];
const U64S: [u64; 3] = [0, 1, u64::MAX];

const ERR_CODES: [ErrCode; 7] = [
    ErrCode::Malformed,
    ErrCode::UnknownOpcode,
    ErrCode::BadChecksum,
    ErrCode::Oversized,
    ErrCode::BadQuery,
    ErrCode::Host,
    ErrCode::AtCapacity,
];

/// Every `len`-long sequence over `values`.
fn tuples<T: Copy>(values: &[T], len: u32) -> Vec<Vec<T>> {
    let count = values.len().pow(len);
    (0..count)
        .map(|i| (0..len).map(|d| values[i / values.len().pow(d) % values.len()]).collect())
        .collect()
}

fn boundary_triples() -> Vec<(u32, u32, u32)> {
    tuples(&U32S, 3).into_iter().map(|v| (v[0], v[1], v[2])).collect()
}

fn boundary_paths() -> Vec<Vec<Vec<u32>>> {
    vec![vec![], vec![vec![]], vec![U32S.to_vec()], vec![vec![u32::MAX; 12], vec![], vec![0]]]
}

fn boundary_texts() -> Vec<String> {
    vec![String::new(), "x".into(), "{\"k\": [0, 1]}".into(), "ünïcödé ≤ k".into()]
}

/// Every request arm at every boundary value.
fn boundary_requests() -> Vec<Request> {
    let triples = boundary_triples();
    let mut requests = vec![Request::Stats, Request::Quit];
    for &(s, t, k) in &triples {
        requests.push(Request::Query { s, t, k });
        requests.push(Request::Count { s, t, k });
        requests.push(Request::Explain { s, t, k });
        requests.extend(U64S.map(|limit| Request::Stream { s, t, k, limit }));
    }
    for queries in [vec![], vec![(u32::MAX, 0, 1)], triples] {
        requests.push(Request::Batch { queries });
    }
    let pairs: Vec<(u32, u32)> = tuples(&U32S, 2).into_iter().map(|v| (v[0], v[1])).collect();
    for remove in [false, true] {
        for edges in [vec![], vec![(u32::MAX, 0)], pairs.clone()] {
            requests.push(Request::Update { remove, edges });
        }
    }
    requests
}

/// Every reply arm at every boundary value.
fn boundary_replies() -> Vec<Reply> {
    let mut replies = vec![Reply::Bye, Reply::Busy];
    for v in tuples(&U64S, 4) {
        for cache_hit in [false, true] {
            replies.extend(boundary_paths().into_iter().map(|sample| Reply::Summary {
                num_paths: v[0],
                preprocess_ns: v[1],
                transfer_ns: v[2],
                device_ns: v[3],
                cache_hit,
                sample,
            }));
        }
        for unique in U32S {
            replies.push(Reply::BatchOk {
                unique,
                cache_hits: v[0],
                preprocess_ns: v[1],
                transfer_ns: v[2],
                device_ns: v[3],
                paths_per_query: v.clone(),
            });
        }
    }
    replies.extend(boundary_paths().into_iter().map(Reply::Paths));
    replies
        .extend(tuples(&U64S, 2).into_iter().map(|v| Reply::End { streamed: v[0], limit: v[1] }));
    for epoch in U64S {
        replies.extend(U32S.map(|edges| Reply::UpdateOk { epoch, edges }));
    }
    for text in boundary_texts() {
        replies.push(Reply::Json(text.clone()));
        replies.extend(ERR_CODES.map(|code| Reply::Error { code, message: text.clone() }));
    }
    replies
}

/// A bounded `(s, t, k)` query triple (values are arbitrary on the wire; the
/// protocol layer does not validate against a graph).
fn random_triple(rng: &mut ChaCha8Rng) -> (u32, u32, u32) {
    (rng.gen_range(0..50_000), rng.gen_range(0..50_000), rng.gen_range(0..16))
}

/// One request of every arm, with random field values.
fn random_requests(rng: &mut ChaCha8Rng) -> Vec<Request> {
    let mut triple = || random_triple(rng);
    let ((s, t, k), (s2, t2, k2), (s3, t3, k3), (s4, t4, k4)) =
        (triple(), triple(), triple(), triple());
    let limit = rng.gen_range(0..20_000);
    let queries = (0..rng.gen_range(0..40)).map(|_| random_triple(rng)).collect();
    let edges = (0..rng.gen_range(0..40))
        .map(|_| (rng.gen_range(0..50_000), rng.gen_range(0..50_000)))
        .collect();
    vec![
        Request::Query { s, t, k },
        Request::Count { s: s2, t: t2, k: k2 },
        Request::Stream { s: s3, t: t3, k: k3, limit },
        Request::Batch { queries },
        Request::Explain { s: s4, t: t4, k: k4 },
        Request::Update { remove: rng.gen_bool(0.5), edges },
        Request::Stats,
        Request::Quit,
    ]
}

/// Up to 20 paths of up to 12 vertices each.
fn random_paths(rng: &mut ChaCha8Rng) -> Vec<Vec<u32>> {
    (0..rng.gen_range(0..20))
        .map(|_| (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..100_000)).collect())
        .collect()
}

/// Up to 47 printable-ASCII characters.
fn random_text(rng: &mut ChaCha8Rng) -> String {
    (0..rng.gen_range(0..48)).map(|_| char::from(rng.gen_range(32u8..127))).collect()
}

/// One reply of every arm, with random field values.
fn random_replies(rng: &mut ChaCha8Rng) -> Vec<Reply> {
    let mut ns = || rng.gen_range(0..1u64 << 40);
    let (num_paths, preprocess_ns, transfer_ns, device_ns) = (ns(), ns(), ns(), ns());
    let code = ERR_CODES[rng.gen_range(0..ERR_CODES.len())];
    vec![
        Reply::Summary {
            num_paths,
            preprocess_ns,
            transfer_ns,
            device_ns,
            cache_hit: rng.gen_bool(0.5),
            sample: random_paths(rng),
        },
        Reply::Paths(random_paths(rng)),
        Reply::End { streamed: num_paths, limit: device_ns },
        Reply::BatchOk {
            unique: rng.gen_range(0..5_000),
            cache_hits: num_paths,
            preprocess_ns,
            transfer_ns,
            device_ns,
            paths_per_query: (0..rng.gen_range(0..40)).map(|_| rng.gen_range(0..100_000)).collect(),
        },
        Reply::Json(random_text(rng)),
        Reply::UpdateOk { epoch: rng.gen_range(0..1 << 30), edges: rng.gen_range(0..5_000) },
        Reply::Bye,
        Reply::Busy,
        Reply::Error { code, message: random_text(rng) },
    ]
}

/// The boundary requests, then 24 seeded rounds of one random request per
/// arm (192 random frames).
fn every_request_case(mut check: impl FnMut(&Request)) {
    boundary_requests().iter().for_each(&mut check);
    for_each_seed(0x1300_0000, 24, |rng| random_requests(rng).iter().for_each(&mut check));
}

fn encode(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    request.write_to(&mut bytes).expect("encode to memory");
    bytes
}

/// Requests decode back to themselves and re-encode byte-identically.
#[test]
fn every_request_frame_round_trips_byte_identically() {
    every_request_case(|request| {
        let bytes = encode(request);
        let mut cursor = &bytes[..];
        let decoded =
            Request::read_from(&mut cursor).expect("valid frame decodes").expect("frame present");
        assert!(cursor.is_empty(), "decoding consumed the whole frame");
        assert_eq!(&decoded, request);
        assert_eq!(encode(&decoded), bytes);
    });
}

/// Replies decode back to themselves and re-encode byte-identically.
#[test]
fn every_reply_frame_round_trips_byte_identically() {
    let check = |reply: &Reply| {
        let mut bytes = Vec::new();
        reply.write_to(&mut bytes).expect("encode to memory");
        let mut cursor = &bytes[..];
        let decoded =
            Reply::read_from(&mut cursor).expect("valid frame decodes").expect("frame present");
        assert!(cursor.is_empty(), "decoding consumed the whole frame");
        assert_eq!(&decoded, reply);
        let mut re_encoded = Vec::new();
        decoded.write_to(&mut re_encoded).expect("re-encode to memory");
        assert_eq!(re_encoded, bytes);
    };
    boundary_replies().iter().for_each(check);
    for_each_seed(0x1400_0000, 24, |rng| random_replies(rng).iter().for_each(check));
}

/// Every strict prefix of a valid frame is a clean truncation error (EOF at
/// the frame boundary, `Io` mid-frame) — never a panic, never a value.
#[test]
fn truncated_request_frames_never_panic_or_decode() {
    every_request_case(|request| {
        let bytes = encode(request);
        for cut in 1..bytes.len() {
            let mut cursor = &bytes[..cut];
            match read_frame(&mut cursor) {
                Err(WireError::Io(_)) => {}
                Ok(None) => panic!("a {cut}-byte prefix cannot be a clean EOF"),
                Ok(Some(_)) => panic!("a {cut}-byte prefix cannot be a whole frame"),
                Err(other) => panic!("unexpected error kind at cut {cut}: {other}"),
            }
        }
    });
}

/// Flipping any payload byte is caught by the frame checksum.
#[test]
fn any_payload_corruption_fails_the_checksum() {
    every_request_case(|request| {
        let bytes = encode(request);
        // Byte 12 onward is payload (the 12-byte header carries the
        // checksum); requests without a payload have nothing to corrupt.
        for idx in 12..bytes.len() {
            for xor in [0x01, 0x80, 0xFF] {
                let mut corrupted = bytes.clone();
                corrupted[idx] ^= xor;
                let mut cursor = &corrupted[..];
                match read_frame(&mut cursor) {
                    Err(WireError::Checksum { .. }) => {}
                    other => {
                        panic!("corruption {xor:#04x} at byte {idx} slipped through: {other:?}")
                    }
                }
            }
        }
    });
}
