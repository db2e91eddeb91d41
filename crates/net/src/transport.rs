//! The [`Transport`] abstraction and its two implementations: an
//! in-memory loopback and a TCP transport over `std::net`.
//!
//! A `Transport` value is the *outbound half of one directed link*: peer
//! `i` holds one transport per remote peer `j`, and whatever the
//! implementation, delivered bytes surface on the destination peer's
//! single inbox channel as [`PooledBuf`] chunks of one or more complete
//! frames (fed directly by the loopback, or by a framed reader thread per
//! accepted TCP connection). Every chunk rings the doorbell of the worker
//! hosting the destination peer ([`InboxSender`]), which wakes it when
//! the chunk came from another thread. Senders hand
//! either single frames or coalesced batches ([`Transport::send_batch`]);
//! the TCP transport turns a batch into one `write_all`, and the reader
//! side keeps a persistent per-connection buffer that survives partial
//! reads, so steady-state traffic allocates nothing per frame on either
//! side.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::frame_len_at;
use crate::pool::{FramePool, PooledBuf};
use crate::worker::Doorbell;

/// The sending side of one peer's inbox: the chunk channel plus the
/// doorbell of the worker hosting that peer, rung after every chunk.
#[derive(Debug, Clone)]
pub struct InboxSender {
    tx: Sender<PooledBuf>,
    bell: Arc<Doorbell>,
}

impl InboxSender {
    /// Delivers into `tx` and rings `bell` after each chunk.
    pub(crate) fn new(tx: Sender<PooledBuf>, bell: Arc<Doorbell>) -> Self {
        InboxSender { tx, bell }
    }

    /// Queues `chunk`; fails once the receiving endpoint is gone.
    fn deliver(&self, chunk: PooledBuf) -> io::Result<()> {
        self.tx
            .send(chunk)
            .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        self.bell.ring();
        Ok(())
    }
}

/// An inbox read with blocking [`Endpoint::recv`](crate::Endpoint::recv)
/// rather than by a worker: its doorbell rings unheard.
impl From<Sender<PooledBuf>> for InboxSender {
    fn from(tx: Sender<PooledBuf>) -> Self {
        InboxSender::new(tx, Arc::default())
    }
}

/// Outbound half of one directed peer-to-peer link.
pub trait Transport: Send {
    /// Queues one encoded frame (length prefix included) for delivery.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Queues a batch of concatenated encoded frames for delivery.
    ///
    /// The default walks the length prefixes and sends each frame
    /// individually — fault-injecting wrappers rely on this so their
    /// per-frame decision streams are identical whether or not the sender
    /// batches. Wire transports override it with one coalesced write.
    fn send_batch(&mut self, batch: &[u8]) -> io::Result<()> {
        let mut at = 0;
        while at < batch.len() {
            let len = frame_len_at(batch, at)
                .filter(|len| at + len <= batch.len())
                .ok_or_else(|| io::Error::from(io::ErrorKind::InvalidData))?;
            self.send(&batch[at..at + len])?;
            at += len;
        }
        Ok(())
    }

    /// Retransmits a frame during fault recovery. Defaults to [`send`]
    /// (`Transport::send`); fault-injecting wrappers forward this straight
    /// to the inner transport so the recovery path itself is not faulted.
    fn resend(&mut self, frame: &[u8]) -> io::Result<()> {
        self.send(frame)
    }

    /// Re-establishes the link after a send error (no-op for loopback).
    fn reconnect(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Tears the connection down so the next send fails (fault-injection
    /// hook; no-op where there is nothing to tear down).
    fn inject_reset(&mut self) {}

    /// Graceful close: flush and release the link.
    fn close(&mut self) {}
}

/// In-memory loopback: frames land directly on the destination peer's
/// inbox channel, carried in pooled chunks.
///
/// `inject_reset` marks the link broken so the *next* send fails once —
/// this lets the endpoint's reconnect-and-replay recovery be exercised
/// without sockets.
#[derive(Debug)]
pub struct LoopbackTransport {
    inbox: InboxSender,
    pool: Arc<FramePool>,
    broken: bool,
}

impl LoopbackTransport {
    /// A loopback link delivering into `inbox`, staging chunks from `pool`.
    pub fn new(inbox: impl Into<InboxSender>, pool: Arc<FramePool>) -> Self {
        LoopbackTransport {
            inbox: inbox.into(),
            pool,
            broken: false,
        }
    }

    fn deliver(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        let mut chunk = self.pool.take();
        chunk.extend_from_slice(bytes);
        self.inbox.deliver(chunk)
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.deliver(frame)
    }

    fn send_batch(&mut self, batch: &[u8]) -> io::Result<()> {
        // One chunk, one channel send for the whole batch — the loopback
        // analogue of a single coalesced syscall.
        self.deliver(batch)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.broken = false;
        Ok(())
    }

    fn inject_reset(&mut self) {
        self.broken = true;
    }
}

/// TCP transport over `std::net`: one outbound stream per directed link,
/// dialled with bounded exponential backoff (remote peers may start later
/// than we do).
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    max_retries: u32,
    backoff_base: Duration,
}

impl TcpTransport {
    /// Connects to `addr`, retrying `max_retries` times with exponential
    /// backoff starting at `backoff_base`.
    pub fn connect(addr: SocketAddr, max_retries: u32, backoff_base: Duration) -> io::Result<Self> {
        let stream = Self::dial(addr, max_retries, backoff_base)?;
        Ok(TcpTransport {
            addr,
            stream: Some(stream),
            max_retries,
            backoff_base,
        })
    }

    fn dial(addr: SocketAddr, max_retries: u32, backoff_base: Duration) -> io::Result<TcpStream> {
        let mut attempt = 0;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(stream);
                }
                Err(e) if attempt < max_retries => {
                    std::thread::sleep(backoff_base.saturating_mul(1 << attempt.min(16)));
                    attempt += 1;
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))?;
        stream.write_all(bytes)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.write(frame)
    }

    fn send_batch(&mut self, batch: &[u8]) -> io::Result<()> {
        // One write_all — N frames, one syscall (modulo short writes).
        self.write(batch)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = None;
        self.stream = Some(Self::dial(self.addr, self.max_retries, self.backoff_base)?);
        Ok(())
    }

    fn inject_reset(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn close(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

/// A running accept loop (see [`spawn_listener`]). Dropping it stops the
/// loop and joins its thread.
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The loop blocks in `accept`: one self-connect wakes it to see
        // the flag. A refused connect means the loop has already ended.
        let wake = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
            ip => ip,
        };
        let _ = TcpStream::connect((wake, self.addr.port()));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Blocking accept loop for one peer's listening socket: every accepted
/// connection gets a detached framed-reader thread that forwards
/// complete-frame chunks to `inbox`. Runs until the returned [`Acceptor`]
/// is dropped.
///
/// # Panics
///
/// Panics if the listener has no local address.
pub fn spawn_listener(
    listener: TcpListener,
    inbox: impl Into<InboxSender>,
    pool: Arc<FramePool>,
) -> Acceptor {
    let inbox = inbox.into();
    let addr = listener.local_addr().expect("listener address");
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stopped.load(Ordering::Acquire) {
                return;
            }
            match stream {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let inbox = inbox.clone();
                    let pool = pool.clone();
                    // Reader threads are detached: they exit on EOF when the
                    // remote closes (or errors), which graceful shutdown
                    // guarantees.
                    std::thread::spawn(move || read_loop(stream, &inbox, &pool));
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(_) => return,
            }
        }
    });
    Acceptor {
        addr,
        stop,
        thread: Some(thread),
    }
}

/// Initial size of a connection's persistent read buffer; doubled while a
/// single frame exceeds the remaining space.
const READ_BUF: usize = 64 * 1024;

/// Framed read loop with a persistent per-connection buffer: each wakeup
/// reads whatever the socket has, extracts the maximal prefix of complete
/// frames into one pooled chunk, and keeps any partial frame's bytes for
/// the next read — no per-frame allocation, frames may straddle reads and
/// batches arbitrarily.
fn read_loop(mut stream: TcpStream, inbox: &InboxSender, pool: &Arc<FramePool>) {
    let mut buf = vec![0u8; READ_BUF];
    let mut filled = 0usize;
    loop {
        if filled == buf.len() {
            // A single frame larger than the buffer: grow until it fits.
            buf.resize(buf.len() * 2, 0);
        }
        let n = match stream.read(&mut buf[filled..]) {
            Ok(0) => return, // EOF
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        filled += n;
        let mut end = 0usize;
        while let Some(len) = frame_len_at(&buf[..filled], end) {
            if end + len > filled {
                break;
            }
            end += len;
        }
        if end > 0 {
            let mut chunk = pool.take();
            chunk.extend_from_slice(&buf[..end]);
            if inbox.deliver(chunk).is_err() {
                return; // receiving endpoint is gone
            }
            buf.copy_within(end..filled, 0);
            filled -= end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_frame, encode_frame, encode_frame_into, Frame, Payload};
    use crate::stats::NetCounters;
    use std::sync::mpsc::{channel, Receiver};

    use wcp_sim::ActorId;

    fn frame(seq: u64) -> Frame {
        Frame {
            peer: 0,
            from: ActorId::new(0),
            to: ActorId::new(1),
            seq,
            payload: Payload::Shutdown,
        }
    }

    fn pool() -> Arc<FramePool> {
        FramePool::shared(NetCounters::shared())
    }

    /// Collects every complete frame out of the chunked inbox.
    fn drain_frames(rx: &Receiver<PooledBuf>, want: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        while frames.len() < want {
            let chunk = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("chunk arrives");
            let mut at = 0;
            while at < chunk.len() {
                let len = frame_len_at(&chunk, at).expect("whole frames per chunk");
                frames.push(decode_frame(&chunk[at..at + len]).unwrap());
                at += len;
            }
        }
        frames
    }

    #[test]
    fn loopback_delivers_and_recovers_from_reset() {
        let (tx, rx) = channel();
        let mut t = LoopbackTransport::new(tx, pool());
        t.send(&encode_frame(&frame(0))).unwrap();
        assert_eq!(drain_frames(&rx, 1), vec![frame(0)]);
        t.inject_reset();
        assert!(t.send(&encode_frame(&frame(1))).is_err());
        t.reconnect().unwrap();
        t.send(&encode_frame(&frame(1))).unwrap();
        assert_eq!(drain_frames(&rx, 1), vec![frame(1)]);
    }

    #[test]
    fn loopback_batch_arrives_as_one_chunk() {
        let (tx, rx) = channel();
        let mut t = LoopbackTransport::new(tx, pool());
        let mut batch = Vec::new();
        for seq in 0..5 {
            encode_frame_into(&frame(seq), &mut batch);
        }
        t.send_batch(&batch).unwrap();
        let chunk = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&chunk[..], batch.as_slice(), "whole batch in one chunk");
    }

    #[test]
    fn tcp_roundtrip_through_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = channel();
        let acceptor = spawn_listener(listener, tx, pool());

        let mut t = TcpTransport::connect(addr, 4, Duration::from_millis(1)).unwrap();
        for seq in 0..3 {
            t.send(&encode_frame(&frame(seq))).unwrap();
        }
        assert_eq!(
            drain_frames(&rx, 3),
            vec![frame(0), frame(1), frame(2)],
            "frames survive arbitrary read chunking"
        );

        // A coalesced batch decodes identically.
        let mut batch = Vec::new();
        for seq in 10..13 {
            encode_frame_into(&frame(seq), &mut batch);
        }
        t.send_batch(&batch).unwrap();
        assert_eq!(drain_frames(&rx, 3), vec![frame(10), frame(11), frame(12)]);

        // Reset tears the stream; reconnect dials a fresh one.
        t.inject_reset();
        assert!(t.send(&encode_frame(&frame(3))).is_err());
        t.reconnect().unwrap();
        t.send(&encode_frame(&frame(3))).unwrap();
        assert_eq!(drain_frames(&rx, 1), vec![frame(3)]);

        t.close();
        drop(acceptor);
    }

    #[test]
    fn dropping_the_acceptor_stops_its_blocked_accept_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (tx, _rx) = channel();
        let acceptor = spawn_listener(listener, tx, pool());
        let (joined, done) = channel();
        let dropper = std::thread::spawn(move || {
            drop(acceptor);
            let _ = joined.send(());
        });
        done.recv_timeout(Duration::from_secs(30))
            .expect("the self-connect woke the accept loop and it was joined");
        dropper.join().unwrap();
    }
}
