//! The TCP front door: real sockets in front of the shared [`HostRuntime`].
//!
//! Everything below [`crate::server`] is transport-agnostic (`BufRead` +
//! `Write`); this module supplies the production transport and nothing else:
//! it accepts connections, picks the codec, counts what goes out and runs
//! the binary connection loop. What a command *does* is
//! [`crate::command::execute`]'s business (the command table is in that
//! module's docs). A [`NetServer`] binds a [`std::net::TcpListener`], accepts
//! up to a configured number of concurrent connections and spawns one reader
//! thread per connection, every one of them a [`HostSession::attach`] handle
//! funnelling into one shared runtime — many tenants, one admission queue,
//! one CU cluster.
//!
//! **Protocol sniffing.** The first byte of a connection picks the protocol:
//! [`wire::FRAME_MAGIC`] (non-ASCII) selects the binary frame protocol of
//! [`crate::wire`], anything else falls through to the text line protocol of
//! [`crate::server`]. One port serves both.
//!
//! **Backpressure.** An admission-queue rejection
//! ([`crate::HostError::QueueFull`]) becomes a typed [`wire::Reply::Busy`]
//! frame (binary) or the usual `ERR admission queue full ...` line (text) —
//! the connection survives and the client decides when to retry. Beyond
//! [`NetConfig::max_connections`] concurrent connections, new arrivals get
//! one `ERR server at connection capacity` line and are closed.
//!
//! **Counters.** Both codecs' writers pass every reply through
//! [`FrontDoor::count`] on its way out, so `busy_replies` and
//! `protocol_errors` cover the text and the binary protocol alike, and a
//! `STATS` served here carries the [`NetStats`] as its `net` object.
//!
//! **Cancellation on disconnect.** Every reply is flushed as it is written,
//! `STREAM` chunks included; when the peer closes its socket mid-`STREAM`,
//! the next send fails, the sink breaks, the session cancels the running
//! job's [`crate::JobTicket`] and the engine stops at its next batch
//! boundary — the CU lease goes back to the pool.
//!
//! **Shutdown.** [`NetServer::shutdown`] (also run on drop) stops the
//! acceptor, shuts down every live connection socket and joins every
//! thread; it is idempotent.

use crate::command::{execute, FrontDoor, ResponseWriter, STREAM_FRAME_PATHS};
use crate::runtime::HostRuntime;
use crate::server;
use crate::session::HostSession;
use crate::wire::{self, ErrCode, Reply, Request, WireError};
use pefp_workload::{JsonValue, ToJson};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Configuration of the TCP front door.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum concurrent connections; arrivals beyond it are answered with
    /// one `ERR server at connection capacity` line and closed.
    pub max_connections: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { max_connections: 1024 }
    }
}

/// Declares every front-door counter once: the public [`NetStats`] snapshot,
/// its `STATS` JSON object and the live atomics all list the same names, so
/// a counter cannot be added to one and forgotten in another.
macro_rules! net_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// A snapshot of the front door's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NetStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ToJson for NetStats {
            fn to_json(&self) -> JsonValue {
                JsonValue::object(vec![
                    $((stringify!($name), JsonValue::Number(self.$name as f64)),)*
                ])
            }
        }

        #[derive(Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        impl Counters {
            fn snapshot(&self) -> NetStats {
                NetStats { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }
    };
}

net_counters! {
    /// Connections accepted by the listener.
    accepted,
    /// Connections refused because [`NetConfig::max_connections`] was
    /// reached.
    rejected_at_capacity,
    /// Connections currently being served.
    active,
    /// Connections that spoke the binary frame protocol.
    binary_connections,
    /// Connections that spoke the text line protocol.
    text_connections,
    /// Binary request frames served.
    frames,
    /// Text protocol lines served.
    lines,
    /// `BUSY` frames and `ERR admission queue full` lines sent for
    /// admission-queue rejections.
    busy_replies,
    /// Requests the codec rejected — a malformed, unknown, corrupt or
    /// oversized frame, an unparseable, over-long or non-UTF-8 line — each
    /// answered with a typed `ERR`.
    protocol_errors,
    /// Connections that ended in a transport error (typically the peer
    /// hanging up mid-reply) rather than a clean EOF or `QUIT`.
    io_disconnects,
}

struct NetShared {
    runtime: Arc<HostRuntime>,
    config: NetConfig,
    shutdown: AtomicBool,
    counters: Counters,
    /// Clones of every live connection's stream, for shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Join handles of the per-connection threads.
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
}

impl FrontDoor for NetShared {
    fn count(&self, reply: &Reply) {
        use ErrCode::{BadChecksum, Malformed, Oversized, UnknownOpcode};
        let counter = match reply {
            Reply::Busy => &self.counters.busy_replies,
            Reply::Error { code: Malformed | UnknownOpcode | BadChecksum | Oversized, .. } => {
                &self.counters.protocol_errors
            }
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> JsonValue {
        self.counters.snapshot().to_json()
    }
}

/// A running TCP front door. Dropping it shuts the listener and every
/// connection down and joins all serving threads.
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections into `runtime`.
    pub fn bind(
        runtime: Arc<HostRuntime>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            runtime,
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(NetServer { shared, addr, acceptor: Mutex::new(Some(acceptor)) })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The runtime this front door serves.
    pub fn runtime(&self) -> &Arc<HostRuntime> {
        &self.shared.runtime
    }

    /// A snapshot of the front door's counters.
    pub fn stats(&self) -> NetStats {
        self.shared.counters.snapshot()
    }

    /// Stops accepting, severs every live connection and joins all serving
    /// threads. Idempotent; also run on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor: a throwaway loopback connection makes its
        // blocking accept() return so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.lock().expect("acceptor lock").take() {
            let _ = handle.join();
        }
        // Sever live connections; their reader threads wake with EOF/error.
        let conns: Vec<TcpStream> = {
            let mut map = self.shared.conns.lock().expect("conns lock");
            map.drain().map(|(_, s)| s).collect()
        };
        for stream in conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut held = self.shared.workers.lock().expect("workers lock");
            held.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if shared.counters.active.load(Ordering::Relaxed) >= shared.config.max_connections as u64 {
            shared.counters.rejected_at_capacity.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = writeln!(
                stream,
                "ERR server at connection capacity ({})",
                shared.config.max_connections
            );
            continue; // drop closes the socket
        }
        shared.counters.active.fetch_add(1, Ordering::Relaxed);
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").insert(id, clone);
        }
        let conn_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            handle_connection(stream, id, &conn_shared);
        });
        // Join the threads of connections that have ended, so the handles
        // held are bounded by the live connections, not by every connection
        // ever accepted.
        let mut held = shared.workers.lock().expect("workers lock");
        let (finished, live) = held.drain(..).partition(JoinHandle::is_finished);
        *held = live;
        held.push(worker);
        drop(held);
        for handle in finished {
            let _: std::thread::Result<()> = handle.join();
        }
    }
}

fn handle_connection(stream: TcpStream, id: u64, shared: &Arc<NetShared>) {
    let _ = stream.set_nodelay(true);
    if serve_connection(&stream, shared).is_err() {
        shared.counters.io_disconnects.fetch_add(1, Ordering::Relaxed);
    }
    shared.conns.lock().expect("conns lock").remove(&id);
    shared.counters.active.fetch_sub(1, Ordering::Relaxed);
}

/// Sniffs the protocol from the first byte (without consuming it) and runs
/// the matching serve loop.
fn serve_connection(stream: &TcpStream, shared: &Arc<NetShared>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    let Some(&first) = reader.fill_buf()?.first() else {
        return Ok(()); // the peer connected and left without a byte
    };
    let mut session = HostSession::attach(Arc::clone(&shared.runtime));
    if first == wire::FRAME_MAGIC {
        shared.counters.binary_connections.fetch_add(1, Ordering::Relaxed);
        serve_binary(&mut session, &mut reader, &mut writer, shared)
    } else {
        shared.counters.text_connections.fetch_add(1, Ordering::Relaxed);
        let served = server::serve_behind(&mut session, reader, writer, Some(&**shared))?;
        shared.counters.lines.fetch_add(served as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// The binary codec's [`ResponseWriter`]: one frame per reply,
/// [`STREAM_FRAME_PATHS`] paths per `STREAM` chunk frame.
struct FrameWriter<'a> {
    stream: &'a mut TcpStream,
    shared: &'a NetShared,
}

impl ResponseWriter for FrameWriter<'_> {
    fn stream_chunk_paths(&self) -> usize {
        STREAM_FRAME_PATHS
    }

    fn send(&mut self, reply: &Reply) -> std::io::Result<()> {
        self.shared.count(reply);
        reply.write_to(self.stream)?;
        self.stream.flush()
    }

    fn front_door_stats(&self) -> Option<JsonValue> {
        Some(self.shared.stats())
    }
}

/// One binary connection's request loop. Frame-level failures that leave the
/// stream framed (bad checksum, unknown opcode, malformed payload) get a
/// typed `ERR` frame and the connection survives; a desynchronised stream
/// (bad magic, oversized declared length) gets a final `ERR` frame and the
/// connection closes.
fn serve_binary<R: BufRead>(
    session: &mut HostSession,
    reader: &mut R,
    stream: &mut TcpStream,
    shared: &NetShared,
) -> std::io::Result<()> {
    let mut out = FrameWriter { stream, shared };
    let error_frame = |e: &WireError| Reply::Error { code: e.err_code(), message: e.to_string() };
    loop {
        // A corrupt payload was fully consumed, so a checksum failure leaves
        // the stream framed, like a payload that does not decode.
        let request = match Request::read_from(reader) {
            Ok(None) => return Ok(()),
            Ok(Some(request)) => request,
            Err(WireError::Io(e)) => return Err(e),
            Err(e @ (WireError::BadMagic(_) | WireError::Oversized(_))) => {
                // The stream position is lost; one final ERR frame, then
                // hang up.
                let _ = out.send(&error_frame(&e));
                return Ok(());
            }
            Err(e) => {
                out.send(&error_frame(&e))?;
                continue;
            }
        };
        shared.counters.frames.fetch_add(1, Ordering::Relaxed);
        let quits = matches!(request, Request::Quit);
        execute(session, request, &mut out)?;
        if quits {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::GraphHandle;
    use crate::runtime::RuntimeConfig;
    use pefp_graph::CsrGraph;
    use std::io::Read;

    fn diamond_server(config: NetConfig) -> NetServer {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let runtime = HostRuntime::launch(
            GraphHandle::from_csr("diamond", g),
            RuntimeConfig { compute_units: 2, ..RuntimeConfig::default() },
        );
        NetServer::bind(runtime, "127.0.0.1:0", config).expect("bind loopback")
    }

    #[test]
    fn one_port_serves_both_protocols() {
        let server = diamond_server(NetConfig::default());
        // Text client.
        let mut text = TcpStream::connect(server.local_addr()).unwrap();
        writeln!(text, "COUNT 0 3 3").unwrap();
        writeln!(text, "QUIT").unwrap();
        let mut response = String::new();
        text.try_clone().unwrap().read_to_string(&mut response).unwrap();
        assert!(response.contains("paths=2"), "{response}");
        // Binary client on the same port.
        let mut bin = TcpStream::connect(server.local_addr()).unwrap();
        Request::Count { s: 0, t: 3, k: 3 }.write_to(&mut bin).unwrap();
        let mut reader = BufReader::new(bin.try_clone().unwrap());
        match Reply::read_from(&mut reader).unwrap().unwrap() {
            Reply::Summary { num_paths, sample, .. } => {
                assert_eq!(num_paths, 2);
                assert!(sample.is_empty());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        Request::Quit.write_to(&mut bin).unwrap();
        assert_eq!(Reply::read_from(&mut reader).unwrap().unwrap(), Reply::Bye);
        let stats = server.stats();
        assert_eq!(stats.binary_connections, 1);
        assert_eq!(stats.text_connections, 1);
        server.shutdown();
    }

    #[test]
    fn connections_beyond_the_cap_get_an_err_line() {
        let server = diamond_server(NetConfig { max_connections: 1 });
        let held = TcpStream::connect(server.local_addr()).unwrap();
        // The first connection only counts as active once its thread starts;
        // poke it so the server is definitely serving it.
        let mut held_writer = held.try_clone().unwrap();
        writeln!(held_writer, "GRAPH").unwrap();
        let mut held_reader = BufReader::new(held.try_clone().unwrap());
        let mut line = String::new();
        held_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK"), "{line}");

        let over = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(over);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ERR server at connection capacity"), "{reply}");
        assert_eq!(server.stats().rejected_at_capacity, 1);
        drop(held);
        server.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped_under_churn() {
        let server = diamond_server(NetConfig::default());
        for _ in 0..200 {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            writeln!(conn, "QUIT").unwrap();
            // Reads to EOF: the server has hung up, its thread is ending.
            let mut farewell = String::new();
            conn.read_to_string(&mut farewell).unwrap();
            assert_eq!(farewell, "OK bye\n");
        }
        let held = server.shared.workers.lock().unwrap().len();
        let live = server.stats().active as usize;
        assert!(held <= live + 8, "{held} handles held for {live} live connections");
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_severs_live_connections() {
        let server = diamond_server(NetConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        writeln!(conn, "GRAPH").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        server.shutdown();
        server.shutdown();
        // The severed connection reads EOF, not a hang.
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    }
}
