//! Frame transports: the in-process loopback pair (CI's workhorse) and
//! a length-prefixed TCP stream for real two-process deployments.
//!
//! A [`Transport`] moves whole [`Frame`]s; framing (the `u32` length
//! prefix) is part of the frame encoding itself, so both impls ship the
//! exact bytes [`Frame::encode`] produces, the bytes dispatch counts.
//! The loopback pair also supports *fault
//! injection*: an end built with a send budget dies after that many
//! sends — the peer drains whatever was already in flight and then sees
//! [`TransportError::Closed`], which is exactly how a crashed agent
//! process looks to the controller.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};

use detector_system::wire::{Frame, FrameError, MAX_FRAME};

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone (disconnected, crashed, or out of send budget).
    Closed,
    /// Received bytes failed to parse as a frame.
    Codec(FrameError),
    /// An OS-level I/O failure (TCP transport only).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Codec(e)
    }
}

/// A bidirectional, ordered frame channel. Sending is non-blocking in
/// spirit (the loopback is unbounded; TCP writes through the socket
/// buffer); `recv` blocks until a frame or a closed peer.
pub trait Transport: Send {
    /// Ships one frame already encoded — the bytes [`Frame::encode`]
    /// makes, or `wire::encode_update` makes of a list update without
    /// cloning it into a frame — as given.
    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), TransportError>;
    /// Ships one frame to the peer: [`send_bytes`](Self::send_bytes)
    /// over `frame.encode()`.
    fn send(&self, frame: &Frame) -> Result<(), TransportError> {
        self.send_bytes(frame.encode())
    }
    /// Receives the next frame, blocking until one arrives or the peer
    /// is gone.
    fn recv(&self) -> Result<Frame, TransportError>;
    /// Wire bytes this end has sent so far.
    fn bytes_sent(&self) -> u64;
}

/// A [`Transport`] whose agent→controller byte flow the controller can
/// account without owning the agent's end — what
/// [`DistributedDetector`](crate::DistributedDetector) needs from a
/// control-plane link. The loopback pair reads the peer's send counter
/// directly; TCP counts bytes as they are received (equal once the
/// stream is drained, which the window protocol guarantees at every
/// accounting point).
pub trait ControlTransport: Transport {
    /// Agent→controller wire bytes observed so far.
    fn peer_bytes_sent(&self) -> u64;
}

/// One end of an in-process loopback pair.
pub struct LoopbackEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    sent: Arc<AtomicU64>,
    peer_sent: Arc<AtomicU64>,
    /// Remaining sends before this end dies; `usize::MAX` = unlimited.
    budget: AtomicUsize,
}

/// A connected loopback pair `(controller_end, agent_end)`.
pub fn loopback() -> (LoopbackEnd, LoopbackEnd) {
    loopback_with_budgets(usize::MAX, usize::MAX)
}

/// A loopback pair whose *agent* end dies after `agent_sends` sends —
/// the injection point for crash-mid-window tests. The controller end
/// drains frames already in flight, then sees
/// [`TransportError::Closed`].
pub fn flaky_loopback(agent_sends: usize) -> (LoopbackEnd, LoopbackEnd) {
    loopback_with_budgets(usize::MAX, agent_sends)
}

fn loopback_with_budgets(a_budget: usize, b_budget: usize) -> (LoopbackEnd, LoopbackEnd) {
    let (a_tx, a_rx) = mpsc::channel();
    let (b_tx, b_rx) = mpsc::channel();
    let a_sent = Arc::new(AtomicU64::new(0));
    let b_sent = Arc::new(AtomicU64::new(0));
    let a = LoopbackEnd {
        tx: a_tx,
        rx: b_rx,
        sent: Arc::clone(&a_sent),
        peer_sent: Arc::clone(&b_sent),
        budget: AtomicUsize::new(a_budget),
    };
    let b = LoopbackEnd {
        tx: b_tx,
        rx: a_rx,
        sent: b_sent,
        peer_sent: a_sent,
        budget: AtomicUsize::new(b_budget),
    };
    (a, b)
}

impl Transport for LoopbackEnd {
    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), TransportError> {
        // A spent budget means this end "crashed": it can never send
        // again. The peer still drains what was already in flight.
        loop {
            let left = self.budget.load(Ordering::SeqCst);
            if left == 0 {
                return Err(TransportError::Closed);
            }
            let next = if left == usize::MAX { left } else { left - 1 };
            if self
                .budget
                .compare_exchange(left, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        self.sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.tx.send(bytes).map_err(|_| TransportError::Closed)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        match self.rx.recv() {
            Ok(bytes) => Ok(Frame::decode(&bytes)?),
            Err(_) => Err(TransportError::Closed),
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

impl LoopbackEnd {
    /// Non-blocking receive: `Ok(None)` when no frame is waiting but the
    /// peer is still connected.
    pub fn try_recv(&self) -> Result<Option<Frame>, TransportError> {
        match self.rx.try_recv() {
            Ok(bytes) => Ok(Some(Frame::decode(&bytes)?)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

/// The peer's send counter, read directly: counted at the peer's send
/// call, so in-flight frames are included.
impl ControlTransport for LoopbackEnd {
    fn peer_bytes_sent(&self) -> u64 {
        self.peer_sent.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] over a connected TCP stream: frames travel exactly as
/// [`Frame::encode`] lays them out. Reads and writes are independently
/// locked so one thread can block in [`recv`](Transport::recv) while
/// another sends. A lock poisoned by a thread that panicked mid-frame is
/// taken anyway: the stream, not the lock, is what such a thread may
/// have torn, and the peer's frame decoder is what checks the stream.
pub struct TcpTransport {
    reader: Mutex<std::net::TcpStream>,
    writer: Mutex<std::net::TcpStream>,
    sent: AtomicU64,
    received: AtomicU64,
}

impl TcpTransport {
    /// Wraps a connected stream.
    pub fn new(stream: std::net::TcpStream) -> std::io::Result<Self> {
        let reader = stream.try_clone()?;
        Ok(Self {
            reader: Mutex::new(reader),
            writer: Mutex::new(stream),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        })
    }

    /// Connects to a listening peer.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        Self::new(std::net::TcpStream::connect(addr)?)
    }
}

fn io_err(e: &std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => TransportError::Closed,
        _ => TransportError::Io(e.to_string()),
    }
}

impl Transport for TcpTransport {
    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), TransportError> {
        use std::io::Write;
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        w.write_all(&bytes).map_err(|e| io_err(&e))?;
        self.sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        use std::io::Read;
        let mut r = self.reader.lock().unwrap_or_else(PoisonError::into_inner);
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix).map_err(|e| io_err(&e))?;
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME {
            return Err(TransportError::Codec(FrameError::Oversize(len)));
        }
        let mut rest = vec![0u8; len as usize];
        r.read_exact(&mut rest).map_err(|e| io_err(&e))?;
        let mut whole = prefix.to_vec();
        whole.extend_from_slice(&rest);
        self.received
            .fetch_add(whole.len() as u64, Ordering::Relaxed);
        Ok(Frame::decode(&whole)?)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

impl ControlTransport for TcpTransport {
    fn peer_bytes_sent(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_moves_frames_both_ways_and_counts_bytes() {
        let (ctrl, agent) = loopback();
        let f = Frame::HeartbeatReq { nonce: 7 };
        ctrl.send(&f).unwrap();
        assert_eq!(agent.recv().unwrap(), f);
        assert_eq!(ctrl.bytes_sent(), f.encode().len() as u64);
        let ack = Frame::HeartbeatAck { nonce: 7, agent: 0 };
        agent.send(&ack).unwrap();
        assert_eq!(ctrl.recv().unwrap(), ack);
    }

    #[test]
    fn try_recv_distinguishes_empty_from_closed() {
        let (ctrl, agent) = loopback();
        assert_eq!(ctrl.try_recv().unwrap(), None);
        agent.send(&Frame::Shutdown).unwrap();
        assert_eq!(ctrl.try_recv().unwrap(), Some(Frame::Shutdown));
        drop(agent);
        assert_eq!(ctrl.try_recv(), Err(TransportError::Closed));
    }

    #[test]
    fn dropping_an_end_closes_the_peer_after_drain() {
        let (ctrl, agent) = loopback();
        agent.send(&Frame::Hello { agent: 0 }).unwrap();
        drop(agent);
        // In-flight frames drain first, then the disconnect surfaces.
        assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 0 });
        assert_eq!(ctrl.recv(), Err(TransportError::Closed));
    }

    #[test]
    fn a_spent_send_budget_looks_like_a_crash() {
        let (ctrl, agent) = flaky_loopback(2);
        agent.send(&Frame::Hello { agent: 0 }).unwrap();
        agent
            .send(&Frame::WindowDone {
                window: 0,
                agent: 0,
            })
            .unwrap();
        assert_eq!(agent.send(&Frame::Shutdown), Err(TransportError::Closed));
        // The controller still sees the two frames that made it out.
        assert_eq!(ctrl.recv().unwrap(), Frame::Hello { agent: 0 });
        assert_eq!(
            ctrl.recv().unwrap(),
            Frame::WindowDone {
                window: 0,
                agent: 0
            }
        );
    }

    #[test]
    fn tcp_round_trips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::new(stream).unwrap();
            let f = t.recv().unwrap();
            t.send(&f).unwrap(); // Echo.
            t.recv() // Expect Closed once the client hangs up.
        });
        let client = TcpTransport::connect(addr).unwrap();
        let f = Frame::WindowStart {
            window: 3,
            window_seed: 99,
            skip: vec![detector_core::types::NodeId(4)],
        };
        client.send(&f).unwrap();
        assert_eq!(client.recv().unwrap(), f);
        assert_eq!(client.bytes_sent(), f.encode().len() as u64);
        drop(client);
        assert_eq!(server.join().unwrap(), Err(TransportError::Closed));
    }

    /// A TCP transport accepted from a loopback listener, and the raw
    /// stream of the peer that connected to it.
    fn tcp_pair() -> (TcpTransport, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (TcpTransport::new(stream).unwrap(), peer)
    }

    #[test]
    fn tcp_refuses_an_oversize_length_prefix() {
        use std::io::Write;
        let (t, mut peer) = tcp_pair();
        peer.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert_eq!(
            t.recv(),
            Err(TransportError::Codec(FrameError::Oversize(u32::MAX)))
        );
    }

    #[test]
    fn tcp_peer_closing_mid_frame_is_closed() {
        use std::io::Write;
        let (t, mut peer) = tcp_pair();
        // A 10-byte frame announced, three of its bytes sent.
        peer.write_all(&10u32.to_be_bytes()).unwrap();
        peer.write_all(&[1, 2, 3]).unwrap();
        drop(peer);
        assert_eq!(t.recv(), Err(TransportError::Closed));
    }
}
