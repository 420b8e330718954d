//! Length-prefixed binary wire protocol of the network front door.
//!
//! The line protocol ([`crate::server`]) is scriptable but pays text
//! formatting and parsing on every reply; a production client driving the
//! accelerator at thousands of queries per second wants fixed-layout frames.
//! This module defines them. Every frame — request or reply — is:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xB1 (non-ASCII on purpose: the TCP front door
//!               sniffs the first byte of a connection to pick the
//!               protocol, and no text command starts with it)
//! 1       1     opcode
//! 2       2     flags (little-endian; opcode-specific, 0 when unused)
//! 4       4     payload length in bytes (little-endian)
//! 8       4     FNV-1a checksum of the payload (little-endian,
//!               the same hash the DRAM payload format uses)
//! 12      ...   payload
//! ```
//!
//! All payload integers are little-endian, matching [`crate::binfmt`]. The
//! payload is capped at [`MAX_FRAME_PAYLOAD`]: a peer declaring more is a
//! framing attack (or a desynchronised stream) and the connection is closed
//! rather than buffered.
//!
//! [`Request`] and [`Reply`] double as the transport-neutral command and
//! response types of the whole front door: the text codec
//! ([`crate::server`]) parses lines into the same [`Request`]s and renders
//! the same [`Reply`]s, and [`crate::command::execute`] is the one function
//! that runs them. This module only knows how they look as bytes; the command
//! table (syntax, opcode, reply, limits per command) is in the
//! [`crate::command`] module docs.

use crate::binfmt::fnv1a;
use bytes::BufMut;
use std::io::{Read, Write};

/// First byte of every frame. Deliberately non-ASCII so a binary client can
/// never be mistaken for a text-protocol client (whose commands all start
/// with an ASCII letter).
pub const FRAME_MAGIC: u8 = 0xB1;

/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_BYTES: usize = 12;

pub use crate::command::{MAX_FRAME_PAYLOAD, STREAM_FRAME_PATHS};

/// Flag bit on an [`Request::Update`] frame: remove the listed edges
/// (`EXPIRE`) instead of inserting them.
pub const FLAG_UPDATE_REMOVE: u16 = 1;

/// Stable error codes carried by [`Reply::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// The frame's payload did not decode (truncated, trailing bytes,
    /// out-of-range counts).
    Malformed = 1,
    /// The opcode byte names no known request.
    UnknownOpcode = 2,
    /// The payload checksum did not match the header.
    BadChecksum = 3,
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized = 4,
    /// The query inside the frame was invalid (bad endpoints, k, limits).
    BadQuery = 5,
    /// The runtime failed the request (fault, deadline, shutdown, ...).
    Host = 6,
    /// The server is at its concurrent-connection cap.
    AtCapacity = 7,
}

impl ErrCode {
    /// Decodes a wire value back into a code.
    pub fn from_u16(v: u16) -> Option<ErrCode> {
        use ErrCode::*;
        [Malformed, UnknownOpcode, BadChecksum, Oversized, BadQuery, Host, AtCapacity]
            .into_iter()
            .find(|&code| code as u16 == v)
    }
}

/// What went wrong while reading or decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (or hit end-of-input mid-frame).
    Io(std::io::Error),
    /// The first byte of the frame was not [`FRAME_MAGIC`] — the stream is
    /// desynchronised and the connection cannot be trusted further.
    BadMagic(u8),
    /// The header declared a payload larger than [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The payload arrived but its checksum did not match the header.
    Checksum {
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The opcode byte names no known frame type.
    UnknownOpcode(u8),
    /// The payload did not decode as the opcode's layout.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::BadMagic(b) => write!(f, "bad frame magic {b:#04x}"),
            WireError::Oversized(len) => {
                write!(f, "declared payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} cap")
            }
            WireError::Checksum { stored, computed } => {
                write!(
                    f,
                    "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// The [`ErrCode`] a server reports for this decode failure.
    pub fn err_code(&self) -> ErrCode {
        match self {
            WireError::Io(_) => ErrCode::Host,
            WireError::BadMagic(_) => ErrCode::Malformed,
            WireError::Oversized(_) => ErrCode::Oversized,
            WireError::Checksum { .. } => ErrCode::BadChecksum,
            WireError::UnknownOpcode(_) => ErrCode::UnknownOpcode,
            WireError::Malformed(_) => ErrCode::Malformed,
        }
    }
}

// Request opcodes.
const OP_QUERY: u8 = 0x01;
const OP_COUNT: u8 = 0x02;
const OP_STREAM: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_EXPLAIN: u8 = 0x05;
const OP_UPDATE: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_QUIT: u8 = 0x08;

// Reply opcodes (high bit set).
const OP_SUMMARY: u8 = 0x81;
const OP_PATHS: u8 = 0x82;
const OP_END: u8 = 0x83;
const OP_BATCH_OK: u8 = 0x84;
const OP_JSON: u8 = 0x85;
const OP_UPDATE_OK: u8 = 0x86;
const OP_BYE: u8 = 0x8F;
const OP_ERR: u8 = 0xE0;
const OP_BUSY: u8 = 0xE1;

/// One frame as it crossed the wire: opcode, flags and the verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// The opcode byte.
    pub opcode: u8,
    /// The flags word.
    pub flags: u16,
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
}

/// Writes one frame (header + payload) to `w` without flushing.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    opcode: u8,
    flags: u16,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(FRAME_HEADER_BYTES);
    header.put_u8(FRAME_MAGIC);
    header.put_u8(opcode);
    header.put_u16_le(flags);
    header.put_u32_le(payload.len() as u32);
    header.put_u32_le(fnv1a(payload));
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame from `r`, verifying magic, length cap and checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream **at a frame boundary**; an
/// EOF inside a frame is an [`WireError::Io`] error. On
/// [`WireError::Checksum`] the payload has been consumed, so the stream is
/// still framed and the caller may keep the connection; on
/// [`WireError::BadMagic`] / [`WireError::Oversized`] it is not.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<RawFrame>, WireError> {
    let mut first = [0u8; 1];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(WireError::Io(e)),
    }
    if first[0] != FRAME_MAGIC {
        return Err(WireError::BadMagic(first[0]));
    }
    let mut rest = [0u8; FRAME_HEADER_BYTES - 1];
    r.read_exact(&mut rest)?;
    let opcode = rest[0];
    let flags = u16::from_le_bytes([rest[1], rest[2]]);
    let len = u32::from_le_bytes([rest[3], rest[4], rest[5], rest[6]]);
    let stored = u32::from_le_bytes([rest[7], rest[8], rest[9], rest[10]]);
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let computed = fnv1a(&payload);
    if computed != stored {
        return Err(WireError::Checksum { stored, computed });
    }
    Ok(Some(RawFrame { opcode, flags, payload }))
}

/// Bounds-checked little-endian payload cursor (the `bytes` shim panics on
/// short reads; untrusted payloads must error instead).
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) yields exactly N bytes"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bytes(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Malformed(format!(
                "payload truncated: wanted {n} more byte(s), have {}",
                self.0.len()
            )));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    /// Reads a length-prefixed repetition. The `count` items of at least
    /// `item_bytes` each must fit in the remaining payload before anything
    /// is allocated.
    fn list<T>(
        &mut self,
        item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()?;
        match (count as usize).checked_mul(item_bytes) {
            Some(need) if need <= self.0.len() => (0..count).map(|_| item(self)).collect(),
            _ => Err(WireError::Malformed(format!(
                "count {count} x {item_bytes} B items exceeds the {} remaining payload byte(s)",
                self.0.len()
            ))),
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!("{} trailing payload byte(s)", self.0.len())))
        }
    }
}

fn put_paths(buf: &mut Vec<u8>, paths: &[Vec<u32>]) {
    buf.put_u32_le(paths.len() as u32);
    for path in paths {
        buf.put_u32_le(path.len() as u32);
        for &v in path {
            buf.put_u32_le(v);
        }
    }
}

fn get_paths(r: &mut Reader<'_>) -> Result<Vec<Vec<u32>>, WireError> {
    // Each path costs at least its 4-byte length word.
    r.list(4, |r| r.list(4, Reader::u32))
}

/// A client request frame. Opcodes mirror the text commands of
/// [`crate::server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enumerate paths, reply with a [`Reply::Summary`] (count, timing and a
    /// bounded sample of paths).
    Query {
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
        /// Hop constraint.
        k: u32,
    },
    /// Count paths without materialising or sampling any.
    Count {
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
        /// Hop constraint.
        k: u32,
    },
    /// Stream up to `limit` paths as incremental [`Reply::Paths`] frames,
    /// then a final [`Reply::End`].
    Stream {
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
        /// Hop constraint.
        k: u32,
        /// Cap on the number of streamed paths (server-clamped to
        /// [`crate::server::MAX_STREAM_LIMIT`]).
        limit: u64,
    },
    /// Run a batch of `(s, t, k)` queries as one admission-queue unit.
    Batch {
        /// The query triples, in submission order.
        queries: Vec<(u32, u32, u32)>,
    },
    /// Ask the adaptive router for its placement decision without running.
    Explain {
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
        /// Hop constraint.
        k: u32,
    },
    /// Apply edge updates as one graph delta (one new epoch).
    Update {
        /// Remove the edges (`EXPIRE`) instead of inserting them.
        remove: bool,
        /// The `(u, v)` edge list.
        edges: Vec<(u32, u32)>,
    },
    /// Session + runtime statistics as one JSON document.
    Stats,
    /// Close the connection after a [`Reply::Bye`].
    Quit,
}

impl Request {
    /// Serialises the request into one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let (opcode, flags, payload) = self.parts();
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        // write_frame on a Vec cannot fail.
        write_frame(&mut frame, opcode, flags, &payload).expect("vec write");
        frame
    }

    /// Writes the request to `w` and flushes.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        let (opcode, flags, payload) = self.parts();
        write_frame(w, opcode, flags, &payload)?;
        w.flush()
    }

    fn parts(&self) -> (u8, u16, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Request::Query { s, t, k } => {
                p.put_u32_le(*s);
                p.put_u32_le(*t);
                p.put_u32_le(*k);
                (OP_QUERY, 0, p)
            }
            Request::Count { s, t, k } => {
                p.put_u32_le(*s);
                p.put_u32_le(*t);
                p.put_u32_le(*k);
                (OP_COUNT, 0, p)
            }
            Request::Stream { s, t, k, limit } => {
                p.put_u32_le(*s);
                p.put_u32_le(*t);
                p.put_u32_le(*k);
                p.put_u64_le(*limit);
                (OP_STREAM, 0, p)
            }
            Request::Batch { queries } => {
                p.put_u32_le(queries.len() as u32);
                for &(s, t, k) in queries {
                    p.put_u32_le(s);
                    p.put_u32_le(t);
                    p.put_u32_le(k);
                }
                (OP_BATCH, 0, p)
            }
            Request::Explain { s, t, k } => {
                p.put_u32_le(*s);
                p.put_u32_le(*t);
                p.put_u32_le(*k);
                (OP_EXPLAIN, 0, p)
            }
            Request::Update { remove, edges } => {
                p.put_u32_le(edges.len() as u32);
                for &(u, v) in edges {
                    p.put_u32_le(u);
                    p.put_u32_le(v);
                }
                (OP_UPDATE, if *remove { FLAG_UPDATE_REMOVE } else { 0 }, p)
            }
            Request::Stats => (OP_STATS, 0, p),
            Request::Quit => (OP_QUIT, 0, p),
        }
    }

    /// Decodes a verified [`RawFrame`] into a request.
    pub fn decode(frame: &RawFrame) -> Result<Request, WireError> {
        let mut r = Reader(&frame.payload);
        let request = match frame.opcode {
            OP_QUERY => Request::Query { s: r.u32()?, t: r.u32()?, k: r.u32()? },
            OP_COUNT => Request::Count { s: r.u32()?, t: r.u32()?, k: r.u32()? },
            OP_STREAM => Request::Stream { s: r.u32()?, t: r.u32()?, k: r.u32()?, limit: r.u64()? },
            OP_BATCH => {
                Request::Batch { queries: r.list(12, |r| Ok((r.u32()?, r.u32()?, r.u32()?)))? }
            }
            OP_EXPLAIN => Request::Explain { s: r.u32()?, t: r.u32()?, k: r.u32()? },
            OP_UPDATE => Request::Update {
                remove: frame.flags & FLAG_UPDATE_REMOVE != 0,
                edges: r.list(8, |r| Ok((r.u32()?, r.u32()?)))?,
            },
            OP_STATS => Request::Stats,
            OP_QUIT => Request::Quit,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(request)
    }

    /// Reads and decodes one request from `r`; `Ok(None)` on clean EOF.
    pub fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Option<Request>, WireError> {
        match read_frame(r)? {
            None => Ok(None),
            Some(frame) => Request::decode(&frame).map(Some),
        }
    }
}

/// A server reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Outcome of a `QUERY`/`COUNT`: the count, the paper's T1/transfer/T2
    /// timing in nanoseconds and (for `QUERY`) a bounded path sample.
    Summary {
        /// Total result paths.
        num_paths: u64,
        /// Host preprocessing time (T1) in nanoseconds.
        preprocess_ns: u64,
        /// PCIe/DMA transfer time in nanoseconds.
        transfer_ns: u64,
        /// Simulated device time (T2) in nanoseconds.
        device_ns: u64,
        /// Whether preprocessing came from the shared prepared-query cache.
        cache_hit: bool,
        /// At most [`crate::server::MAX_INLINE_PATHS`] sample paths.
        sample: Vec<Vec<u32>>,
    },
    /// One incremental chunk of streamed paths.
    Paths(Vec<Vec<u32>>),
    /// End of a stream: how many paths were emitted under which limit.
    End {
        /// Paths streamed before the enumeration finished or hit the limit.
        streamed: u64,
        /// The (clamped) limit the stream ran under.
        limit: u64,
    },
    /// Outcome of a `BATCH`.
    BatchOk {
        /// Distinct queries after in-batch deduplication.
        unique: u32,
        /// Prepared-cache hits across the batch.
        cache_hits: u64,
        /// Summed preprocessing nanoseconds.
        preprocess_ns: u64,
        /// Summed transfer nanoseconds.
        transfer_ns: u64,
        /// Summed device nanoseconds.
        device_ns: u64,
        /// Per-slot path counts, in submission order.
        paths_per_query: Vec<u64>,
    },
    /// A JSON document (`EXPLAIN` decisions, `STATS` reports).
    Json(String),
    /// Outcome of an `UPDATE`: the epoch the delta produced.
    UpdateOk {
        /// The new graph epoch.
        epoch: u64,
        /// Edges applied in the delta.
        edges: u32,
    },
    /// Farewell to a `QUIT`; the server closes after sending it.
    Bye,
    /// The admission queue is full — typed backpressure, retry later.
    Busy,
    /// The request failed; carries a stable code and a human message.
    Error {
        /// Stable error class.
        code: ErrCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Serialises the reply into one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let (opcode, flags, payload) = self.parts();
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        write_frame(&mut frame, opcode, flags, &payload).expect("vec write");
        frame
    }

    /// Writes the reply to `w` without flushing (streamed replies flush per
    /// chunk at the transport layer).
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        let (opcode, flags, payload) = self.parts();
        write_frame(w, opcode, flags, &payload)
    }

    fn parts(&self) -> (u8, u16, Vec<u8>) {
        let mut p = Vec::new();
        match self {
            Reply::Summary {
                num_paths,
                preprocess_ns,
                transfer_ns,
                device_ns,
                cache_hit,
                sample,
            } => {
                p.put_u64_le(*num_paths);
                p.put_u64_le(*preprocess_ns);
                p.put_u64_le(*transfer_ns);
                p.put_u64_le(*device_ns);
                p.put_u8(u8::from(*cache_hit));
                put_paths(&mut p, sample);
                (OP_SUMMARY, 0, p)
            }
            Reply::Paths(paths) => {
                put_paths(&mut p, paths);
                (OP_PATHS, 0, p)
            }
            Reply::End { streamed, limit } => {
                p.put_u64_le(*streamed);
                p.put_u64_le(*limit);
                (OP_END, 0, p)
            }
            Reply::BatchOk {
                unique,
                cache_hits,
                preprocess_ns,
                transfer_ns,
                device_ns,
                paths_per_query,
            } => {
                p.put_u32_le(*unique);
                p.put_u64_le(*cache_hits);
                p.put_u64_le(*preprocess_ns);
                p.put_u64_le(*transfer_ns);
                p.put_u64_le(*device_ns);
                p.put_u32_le(paths_per_query.len() as u32);
                for &n in paths_per_query {
                    p.put_u64_le(n);
                }
                (OP_BATCH_OK, 0, p)
            }
            Reply::Json(doc) => {
                p.put_slice(doc.as_bytes());
                (OP_JSON, 0, p)
            }
            Reply::UpdateOk { epoch, edges } => {
                p.put_u64_le(*epoch);
                p.put_u32_le(*edges);
                (OP_UPDATE_OK, 0, p)
            }
            Reply::Bye => (OP_BYE, 0, p),
            Reply::Busy => (OP_BUSY, 0, p),
            Reply::Error { code, message } => {
                p.put_u16_le(*code as u16);
                p.put_slice(message.as_bytes());
                (OP_ERR, 0, p)
            }
        }
    }

    /// Decodes a verified [`RawFrame`] into a reply.
    pub fn decode(frame: &RawFrame) -> Result<Reply, WireError> {
        let mut r = Reader(&frame.payload);
        let reply = match frame.opcode {
            // Struct fields are evaluated in the order written: wire order.
            OP_SUMMARY => Reply::Summary {
                num_paths: r.u64()?,
                preprocess_ns: r.u64()?,
                transfer_ns: r.u64()?,
                device_ns: r.u64()?,
                cache_hit: r.u8()? != 0,
                sample: get_paths(&mut r)?,
            },
            OP_PATHS => Reply::Paths(get_paths(&mut r)?),
            OP_END => Reply::End { streamed: r.u64()?, limit: r.u64()? },
            OP_BATCH_OK => Reply::BatchOk {
                unique: r.u32()?,
                cache_hits: r.u64()?,
                preprocess_ns: r.u64()?,
                transfer_ns: r.u64()?,
                device_ns: r.u64()?,
                paths_per_query: r.list(8, Reader::u64)?,
            },
            OP_JSON => {
                let doc = String::from_utf8(frame.payload.clone())
                    .map_err(|_| WireError::Malformed("JSON payload is not UTF-8".into()))?;
                return Ok(Reply::Json(doc));
            }
            OP_UPDATE_OK => Reply::UpdateOk { epoch: r.u64()?, edges: r.u32()? },
            OP_BYE => Reply::Bye,
            OP_BUSY => Reply::Busy,
            OP_ERR => {
                let raw = r.u16()?;
                let code = ErrCode::from_u16(raw)
                    .ok_or_else(|| WireError::Malformed(format!("unknown error code {raw}")))?;
                let message = String::from_utf8(r.0.to_vec())
                    .map_err(|_| WireError::Malformed("error message is not UTF-8".into()))?;
                return Ok(Reply::Error { code, message });
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(reply)
    }

    /// Reads and decodes one reply from `r`; `Ok(None)` on clean EOF.
    pub fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Option<Reply>, WireError> {
        match read_frame(r)? {
            None => Ok(None),
            Some(frame) => Reply::decode(&frame).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let bytes = req.encode();
        let mut cursor: &[u8] = &bytes;
        let decoded = Request::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(decoded, req);
        assert!(cursor.is_empty(), "the whole frame was consumed");
        assert_eq!(decoded.encode(), bytes, "re-encoding is byte-identical");
    }

    fn round_trip_reply(reply: Reply) {
        let bytes = reply.encode();
        let mut cursor: &[u8] = &bytes;
        let decoded = Reply::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(decoded, reply);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Query { s: 0, t: 42, k: 5 });
        round_trip_request(Request::Count { s: 7, t: 9, k: 3 });
        round_trip_request(Request::Stream { s: 1, t: 2, k: 6, limit: 10_000 });
        round_trip_request(Request::Batch { queries: vec![(0, 3, 3), (1, 3, 2)] });
        round_trip_request(Request::Batch { queries: vec![] });
        round_trip_request(Request::Explain { s: 0, t: 3, k: 3 });
        round_trip_request(Request::Update { remove: false, edges: vec![(0, 1), (2, 3)] });
        round_trip_request(Request::Update { remove: true, edges: vec![(5, 6)] });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Quit);
    }

    #[test]
    fn every_reply_round_trips() {
        round_trip_reply(Reply::Summary {
            num_paths: 7776,
            preprocess_ns: 12_345,
            transfer_ns: 678,
            device_ns: 90_000,
            cache_hit: true,
            sample: vec![vec![0, 1, 3], vec![0, 2, 3]],
        });
        round_trip_reply(Reply::Paths(vec![vec![1, 2], vec![3]]));
        round_trip_reply(Reply::Paths(vec![]));
        round_trip_reply(Reply::End { streamed: 100, limit: 100 });
        round_trip_reply(Reply::BatchOk {
            unique: 2,
            cache_hits: 1,
            preprocess_ns: 1,
            transfer_ns: 2,
            device_ns: 3,
            paths_per_query: vec![4, 4, 1],
        });
        round_trip_reply(Reply::Json("{\"engine\":\"device\"}".into()));
        round_trip_reply(Reply::UpdateOk { epoch: 3, edges: 2 });
        round_trip_reply(Reply::Bye);
        round_trip_reply(Reply::Busy);
        round_trip_reply(Reply::Error { code: ErrCode::BadQuery, message: "nope".into() });
    }

    #[test]
    fn truncated_frames_are_io_errors_not_panics() {
        let bytes = Request::Stream { s: 1, t: 2, k: 3, limit: 4 }.encode();
        for cut in 1..bytes.len() {
            let mut cursor = &bytes[..cut];
            let err = Request::read_from(&mut cursor).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "cut at {cut}: {err}");
        }
        let mut empty: &[u8] = &[];
        assert!(Request::read_from(&mut empty).unwrap().is_none());
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = Request::Query { s: 1, t: 2, k: 3 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(read_frame(&mut cursor).unwrap_err(), WireError::Checksum { .. }));
    }

    #[test]
    fn bad_magic_and_oversized_lengths_are_rejected() {
        let mut bytes = Request::Stats.encode();
        bytes[0] = b'Q';
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(read_frame(&mut cursor).unwrap_err(), WireError::BadMagic(b'Q')));

        let mut oversized = Request::Stats.encode();
        oversized[4..8].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let mut cursor: &[u8] = &oversized;
        assert!(matches!(read_frame(&mut cursor).unwrap_err(), WireError::Oversized(_)));
    }

    #[test]
    fn absurd_counts_do_not_allocate() {
        // A BATCH frame claiming u32::MAX queries in a 16-byte payload must
        // fail the count guard, not attempt a 48 GiB Vec.
        let mut payload = Vec::new();
        payload.put_u32_le(u32::MAX);
        payload.put_u32_le(0);
        payload.put_u32_le(0);
        payload.put_u32_le(0);
        let frame = RawFrame { opcode: super::OP_BATCH, flags: 0, payload };
        assert!(matches!(Request::decode(&frame).unwrap_err(), WireError::Malformed(_)));
    }

    #[test]
    fn unknown_opcodes_and_trailing_bytes_are_malformed() {
        let frame = RawFrame { opcode: 0x7F, flags: 0, payload: Vec::new() };
        assert!(matches!(Request::decode(&frame).unwrap_err(), WireError::UnknownOpcode(0x7F)));
        let mut payload = Vec::new();
        payload.put_u32_le(1);
        payload.put_u32_le(2);
        payload.put_u32_le(3);
        payload.put_u8(0xEE);
        let frame = RawFrame { opcode: super::OP_QUERY, flags: 0, payload };
        assert!(matches!(Request::decode(&frame).unwrap_err(), WireError::Malformed(_)));
    }

    #[test]
    fn the_magic_byte_is_not_ascii() {
        // The front door's protocol sniff depends on this: no text command
        // can start with the frame magic.
        assert!(!FRAME_MAGIC.is_ascii());
    }
}
