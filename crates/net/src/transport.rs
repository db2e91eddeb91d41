//! The [`Transport`] abstraction and its implementations: an in-memory
//! loopback, the in-process TCP link, and the TCP transport of a
//! standalone `wcp serve` peer, all over `std`.
//!
//! A `Transport` value is the *outbound half of one directed link*: peer
//! `i` holds one transport per remote peer `j`, and whatever the
//! implementation, delivered bytes surface on the destination peer's
//! single inbox channel as [`PooledBuf`] chunks of one or more complete
//! frames. Every chunk rings the doorbell of the worker hosting the
//! destination peer ([`InboxSender`]), which wakes it when the chunk came
//! from another thread. Senders hand either single frames or coalesced
//! batches ([`Transport::send_batch`]); a TCP link turns a batch into one
//! write.
//!
//! An in-process run holds both ends of every socket on one thread: its
//! link writes a batch and reads it straight back off the accepted end
//! into the destination inbox, so a frame costs a write and a read, and
//! the run starts no thread. A standalone peer's bytes come from other
//! OS processes, so [`spawn_listener`] gives each accepted connection a
//! reader thread. Both read through one frame reader, which keeps a
//! persistent per-connection buffer that survives partial reads (so
//! steady-state traffic allocates nothing per frame) and refuses a frame
//! length that [`frame_len_at`] refuses: zero, over
//! [`MAX_FRAME_LEN`](crate::codec::MAX_FRAME_LEN), or a length varint
//! longer than that cap needs.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::frame_len_at;
use crate::pool::{FramePool, PooledBuf};
use crate::runner::TransportKind;
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
                .ok()
                .flatten()
                .filter(|len| at + len <= batch.len())
                .ok_or_else(|| io::Error::from(io::ErrorKind::InvalidData))?;
            self.send(&batch[at..at + len])?;
            at += len;
        }
        Ok(())
    }

    /// Retransmits a frame during fault recovery. Defaults to
    /// [`send`](Transport::send); fault-injecting wrappers forward this
    /// straight to the inner transport so the recovery path itself is not
    /// faulted.
    fn resend(&mut self, frame: &[u8]) -> io::Result<()> {
        self.send(frame)
    }

    /// Puts on the wire the frames a fault-injecting wrapper holds that
    /// are due by the virtual millisecond `now`, and returns when the
    /// next held frame is due. The worker stepping the sending peer owns
    /// that clock. Defaults to holding nothing.
    fn release(&mut self, _now: u64) -> Option<u64> {
        None
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

/// Dials the directed links of an in-process run: loopback links, or TCP
/// links paired through the run's one listener. Every link stages its
/// chunks from one pool.
pub(crate) struct Dialer {
    pool: Arc<FramePool>,
    listener: Option<Arc<Mutex<TcpListener>>>,
}

impl Dialer {
    /// A dialer for `kind`, binding the run's listener for TCP.
    ///
    /// # Panics
    ///
    /// Panics if no localhost port can be bound.
    pub(crate) fn new(kind: TransportKind, pool: Arc<FramePool>) -> Self {
        let listener = (kind == TransportKind::Tcp).then(|| {
            Arc::new(Mutex::new(
                TcpListener::bind("127.0.0.1:0").expect("bind localhost"),
            ))
        });
        Dialer { pool, listener }
    }

    /// A link delivering into `inbox`.
    ///
    /// # Panics
    ///
    /// Panics if a TCP link cannot connect through the run's listener.
    pub(crate) fn dial(&self, inbox: &InboxSender) -> Box<dyn Transport> {
        let (inbox, pool) = (inbox.clone(), self.pool.clone());
        let Some(listener) = &self.listener else {
            return Box::new(LoopbackTransport::new(inbox, pool));
        };
        let (write, read) = pair(listener).expect("pair a localhost link");
        Box::new(TcpPairTransport {
            listener: listener.clone(),
            write: Some(write),
            read,
            reader: FrameReader::new(inbox, pool),
        })
    }
}

/// A fresh connection through an in-process run's listener: its
/// connecting end (Nagle off, non-blocking) and its accepted end. Connect
/// and accept happen under one lock, and the accepted end must name the
/// connecting end's address, so a reconnect on another thread (or a
/// stranger dialling the port) never hands a link someone else's socket.
fn pair(listener: &Mutex<TcpListener>) -> io::Result<(TcpStream, TcpStream)> {
    let listener = listener.lock().unwrap_or_else(PoisonError::into_inner);
    let write = TcpStream::connect(listener.local_addr()?)?;
    let me = write.local_addr()?;
    let read = loop {
        let (read, from) = listener.accept()?;
        if from == me {
            break read;
        }
    };
    write.set_nodelay(true)?;
    write.set_nonblocking(true)?;
    read.set_read_timeout(Some(READ_BACK_TIMEOUT))?;
    Ok((write, read))
}

/// How long a read-back waits for bytes already written: loopback TCP
/// hands them over inside the kernel, so only a broken stack waits this
/// long, and the link then fails into the endpoint's reconnect-and-replay
/// recovery instead of hanging the run.
const READ_BACK_TIMEOUT: Duration = Duration::from_secs(10);

/// The in-process TCP link: one connection through the run's listener,
/// both ends held here. Every call writes its bytes and reads every one
/// of them back off the accepted end into the destination inbox before
/// it returns, on the calling thread. The bytes cross the kernel's TCP
/// stack, Nagle off, but no reader thread wakes for them, no byte is
/// left in a socket with nobody reading it, and a call's frames reach
/// the inbox in one chunk (or one per full read buffer) whatever the
/// kernel's timing.
#[derive(Debug)]
struct TcpPairTransport {
    listener: Arc<Mutex<TcpListener>>,
    /// The connecting end; `None` once reset or closed.
    write: Option<TcpStream>,
    /// The accepted end.
    read: TcpStream,
    reader: FrameReader,
}

impl TcpPairTransport {
    /// Writes `bytes` and reads them all back into the inbox. The writes
    /// never block: when the kernel takes no more, the read-back drains
    /// the connection, so a batch larger than the socket buffers goes
    /// through, and a read only waits for bytes already written.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        use io::ErrorKind::{Interrupted, UnexpectedEof, WouldBlock, WriteZero};
        let write = self
            .write
            .as_mut()
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotConnected))?;
        let (mut written, mut read) = (0, 0);
        while read < bytes.len() {
            if written < bytes.len() {
                match write.write(&bytes[written..]) {
                    Ok(0) => return Err(WriteZero.into()),
                    Ok(n) => written += n,
                    Err(e) if matches!(e.kind(), Interrupted | WouldBlock) => {}
                    Err(e) => return Err(e),
                }
            }
            if read == written {
                // The kernel holds the bytes it took until they are
                // acknowledged; the acknowledgement is on its way.
                std::thread::yield_now();
                continue;
            }
            match self.reader.fill(&mut self.read) {
                Ok(0) => return Err(UnexpectedEof.into()),
                Ok(n) => read += n,
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.reader.deliver()
    }
}

impl Transport for TcpPairTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.write(frame)
    }

    fn send_batch(&mut self, batch: &[u8]) -> io::Result<()> {
        self.write(batch)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.write = None;
        let (write, read) = pair(&self.listener)?;
        self.write = Some(write);
        self.read = read;
        // A call cut short may have left part of a frame behind; the
        // endpoint replays its log over the fresh connection.
        self.reader.filled = 0;
        Ok(())
    }

    fn inject_reset(&mut self) {
        if let Some(write) = self.write.take() {
            let _ = write.shutdown(Shutdown::Both);
        }
    }

    fn close(&mut self) {
        if let Some(write) = self.write.take() {
            let _ = write.shutdown(Shutdown::Write);
        }
    }
}

/// TCP transport of a standalone `wcp serve` peer: one outbound stream
/// per directed link, dialled with bounded exponential backoff (remote
/// peers may start later than we do).
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
                Err(_) if attempt < max_retries => {
                    std::thread::sleep(backoff_base.saturating_mul(1 << attempt.min(16)));
                    attempt += 1;
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

/// Blocking accept loop for a standalone peer's listening socket: every
/// accepted connection gets a detached reader thread that forwards
/// complete-frame chunks to `inbox`, and ends the connection on a frame
/// length [`frame_len_at`] refuses. Runs until the returned [`Acceptor`]
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
                    let reader = FrameReader::new(inbox.clone(), pool.clone());
                    // Reader threads are detached: they exit on EOF when the
                    // remote closes (or errors), which graceful shutdown
                    // guarantees.
                    std::thread::spawn(move || read_loop(stream, reader));
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

/// A reader thread's loop: reads and delivers until end of stream, an
/// error, a refused frame length or a gone inbox. Dropping the stream
/// then ends the connection.
fn read_loop(mut stream: TcpStream, mut reader: FrameReader) {
    loop {
        match reader.fill(&mut stream) {
            Ok(0) => return,
            Ok(_) => {
                if reader.deliver().is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// A connection's persistent read buffer starts at this size on the first
/// read and doubles whenever reads fill it, up to [`READ_BUF`]: a link
/// that only carries tokens never touches more than a page.
const READ_BUF_MIN: usize = 4 * 1024;

/// Past this size a full read buffer first hands its complete frames to
/// the inbox, and grows only to hold one frame longer than it.
const READ_BUF: usize = 64 * 1024;

/// Reassembles one connection's byte stream into pooled chunks of whole
/// frames for an inbox. Reads append to a persistent buffer; the complete
/// frames at its front move into one chunk, and a partial frame's bytes
/// stay for the next read, so frames may straddle reads and batches
/// arbitrarily and nothing is allocated per frame. A frame length that
/// [`frame_len_at`] refuses ends the connection before the buffer grows
/// for it.
#[derive(Debug)]
struct FrameReader {
    buf: Vec<u8>,
    filled: usize,
    inbox: InboxSender,
    pool: Arc<FramePool>,
}

impl FrameReader {
    fn new(inbox: InboxSender, pool: Arc<FramePool>) -> Self {
        FrameReader {
            buf: Vec::new(),
            filled: 0,
            inbox,
            pool,
        }
    }

    /// Whole length of the frame starting at byte `at`, once its length
    /// prefix is in; `InvalidData` for a length the reader refuses.
    fn frame_len(&self, at: usize) -> io::Result<Option<usize>> {
        frame_len_at(&self.buf[..self.filled], at).map_err(|_| io::ErrorKind::InvalidData.into())
    }

    /// One read from `stream` into the buffer's free tail; `Ok(0)` is end
    /// of stream. A full buffer grows first (see [`READ_BUF_MIN`] and
    /// [`READ_BUF`]).
    fn fill(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        if self.filled == self.buf.len() && self.buf.len() >= READ_BUF {
            self.deliver()?;
        }
        if self.filled == self.buf.len() {
            let len = match self.frame_len(0)? {
                Some(front) if self.buf.len() >= READ_BUF => front,
                _ => (2 * self.buf.len()).max(READ_BUF_MIN),
            };
            self.buf.resize(len, 0);
        }
        let n = stream.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Moves the complete frames at the buffer's front into one pooled
    /// chunk for the inbox (nothing when there are none) and keeps the
    /// rest. Fails on a refused frame length or a gone inbox.
    fn deliver(&mut self) -> io::Result<()> {
        let mut end = 0;
        while let Some(len) = self.frame_len(end)? {
            if end + len > self.filled {
                break;
            }
            end += len;
        }
        if end > 0 {
            let mut chunk = self.pool.take();
            chunk.extend_from_slice(&self.buf[..end]);
            self.buf.copy_within(end..self.filled, 0);
            self.filled -= end;
            self.inbox.deliver(chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_frame, encode_frame, encode_telemetry_into, Frame, Payload};
    use crate::stats::NetCounters;
    use crate::wire2::ClockChains;
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
                let len = frame_len_at(&chunk, at)
                    .unwrap()
                    .expect("whole frames per chunk");
                frames.push(decode_frame(&chunk[at..at + len], &mut ClockChains::new()).unwrap());
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
            batch.extend_from_slice(&encode_frame(&frame(seq)));
        }
        t.send_batch(&batch).unwrap();
        let chunk = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&chunk[..], batch.as_slice(), "whole batch in one chunk");
    }

    #[test]
    fn an_in_process_tcp_link_delivers_before_its_send_returns() {
        let (tx, rx) = channel();
        let mut t = Dialer::new(TransportKind::Tcp, pool()).dial(&tx.into());
        let mut batch = Vec::new();
        for seq in 0..3 {
            batch.extend_from_slice(&encode_frame(&frame(seq)));
        }
        t.send_batch(&batch).unwrap();
        // Read back on this thread: already in the inbox, as one chunk.
        let chunk = rx.try_recv().expect("delivered before send_batch returned");
        assert_eq!(&chunk[..], batch.as_slice());
        assert!(rx.try_recv().is_err(), "one chunk per call");

        // Reset acts on the write end; reconnect pairs a fresh connection.
        t.inject_reset();
        assert!(t.send(&encode_frame(&frame(3))).is_err());
        t.reconnect().unwrap();
        t.send(&encode_frame(&frame(3))).unwrap();
        assert_eq!(drain_frames(&rx, 1), vec![frame(3)]);
        t.close();
        assert!(t.send(&encode_frame(&frame(4))).is_err(), "closed");
    }

    #[test]
    fn a_batch_larger_than_the_socket_buffers_goes_through() {
        // 16 MiB is several times what the kernel holds unread on one
        // localhost connection, so the link must alternate writes with
        // read-backs: a blocking write would wait on its own read. Frames
        // longer than the read buffer make it grow. A regression fails
        // on the timeout instead of hanging.
        let body = vec![0xA5; READ_BUF];
        let mut batch = Vec::new();
        while batch.len() < 16 << 20 {
            encode_telemetry_into(0, &body, &mut batch);
        }
        let (tx, rx) = channel();
        let (done_tx, done) = channel();
        let sent = batch.clone();
        let sender = std::thread::spawn(move || {
            let mut link = Dialer::new(TransportKind::Tcp, pool()).dial(&tx.into());
            let _ = done_tx.send(link.send_batch(&sent).map_err(|e| e.kind()));
        });
        done.recv_timeout(Duration::from_secs(60))
            .expect("the batch went through in time")
            .expect("the batch went through without error");
        sender.join().unwrap();
        let mut received = Vec::with_capacity(batch.len());
        while let Ok(chunk) = rx.try_recv() {
            let mut at = 0;
            while at < chunk.len() {
                at += frame_len_at(&chunk, at)
                    .unwrap()
                    .expect("whole frames per chunk");
            }
            assert_eq!(at, chunk.len(), "whole frames per chunk");
            received.extend_from_slice(&chunk);
        }
        assert!(received == batch, "every byte read back, in order");
    }

    #[test]
    fn a_reader_ends_a_connection_whose_frame_length_it_refuses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = channel();
        let acceptor = spawn_listener(listener, tx, pool());
        // A length varint longer than the cap needs, a length over the
        // cap, and a zero length: each is refused at once, before any
        // body byte arrives.
        let over = [0x81, 0x80, 0x80, 0x08]; // MAX_FRAME_LEN + 1
        for (seq, len) in [&[0xFF; 4][..], &over, &[0]].into_iter().enumerate() {
            let mut hostile = TcpStream::connect(addr).unwrap();
            hostile.write_all(len).unwrap();
            hostile
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let closed = match hostile.read(&mut [0u8; 1]) {
                Ok(n) => n == 0,
                Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
            };
            assert!(closed, "a frame length of {len:?} left the connection open");
            let mut honest = TcpTransport::connect(addr, 4, Duration::from_millis(1)).unwrap();
            honest.send(&encode_frame(&frame(seq as u64))).unwrap();
            assert_eq!(drain_frames(&rx, 1), vec![frame(seq as u64)]);
            honest.close();
        }
        drop(acceptor);
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
            batch.extend_from_slice(&encode_frame(&frame(seq)));
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
