//! Table shipping: persist-format snapshots moved between shards over a
//! framed transport.
//!
//! A [`Shipment`] is the unit of replication: the target name, the
//! sending writer's lease epoch (the fence a replica checks before
//! trusting the bytes), and the snapshot's persist-format bytes exactly
//! as [`odburg_core::persist::write_tables_to`] produced them — so a
//! shipped snapshot is bit-identical to a file export, and everything
//! the persist layer validates (magic, version, checksum, grammar
//! fingerprint, table structure) is validated again on receive.
//!
//! [`ShipTransport`] is deliberately tiny — ordered delivery of opaque
//! frames — so the cluster logic is transport-agnostic:
//!
//! * [`ChannelTransport`] moves frames over an in-process channel (the
//!   test and single-process cluster path);
//! * [`SocketTransport`] length-prefixes frames over any byte stream —
//!   `TcpStream` for `odburg cluster serve --listen/--join`,
//!   `UnixStream` for same-host shipping — using std only.

use std::io::{self, Read, Write};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};

use odburg_core::{InstallError, PersistError};

use crate::service::ServiceError;

/// Frames larger than this are refused on receive: a snapshot shipment
/// is megabytes at the very most, so a larger length prefix means a
/// corrupt or hostile stream, and refusing it beats allocating it.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// Why a shipment was not produced, moved, or installed. Every refusal
/// is typed: a replica that cannot use a shipment reports *why*, it
/// never silently falls back to a cold start.
#[derive(Debug)]
pub enum ShipError {
    /// The transport failed (connection lost, short write, …).
    Io(io::Error),
    /// The shipped bytes failed persist-layer validation: truncated or
    /// corrupt frame, wrong grammar fingerprint, malformed tables.
    Persist(PersistError),
    /// The bytes were valid but the receiving core refused to install
    /// them (stale epoch, mismatched grammar — see
    /// [`InstallError`]).
    Install(InstallError),
    /// The shipment carries a writer-lease epoch older than the one the
    /// receiver has observed: a deposed writer's late broadcast,
    /// rejected by the monotonic election fence.
    StaleWriter {
        /// The target whose lease was checked.
        target: String,
        /// Lease epoch carried by the shipment.
        shipped: u64,
        /// Lease epoch the receiver currently honors.
        current: u64,
    },
    /// The receiving shard does not serve the shipped target.
    Service(ServiceError),
    /// The addressed shard is down.
    ShardDown {
        /// Index of the dead shard.
        shard: usize,
    },
    /// The frame does not decode as a shipment (bad field lengths,
    /// oversized declared payload, trailing garbage).
    Malformed(String),
}

impl std::fmt::Display for ShipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipError::Io(e) => write!(f, "transport error: {e}"),
            ShipError::Persist(e) => write!(f, "shipped tables rejected: {e}"),
            ShipError::Install(e) => write!(f, "shipment not installed: {e}"),
            ShipError::StaleWriter {
                target,
                shipped,
                current,
            } => write!(
                f,
                "stale writer for {target:?}: shipment carries lease epoch {shipped}, \
                 receiver honors {current}"
            ),
            ShipError::Service(e) => e.fmt(f),
            ShipError::ShardDown { shard } => write!(f, "shard {shard} is down"),
            ShipError::Malformed(what) => write!(f, "malformed shipment frame: {what}"),
        }
    }
}

impl std::error::Error for ShipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShipError::Io(e) => Some(e),
            ShipError::Persist(e) => Some(e),
            ShipError::Install(e) => Some(e),
            ShipError::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ShipError {
    fn from(e: io::Error) -> Self {
        ShipError::Io(e)
    }
}

impl From<PersistError> for ShipError {
    fn from(e: PersistError) -> Self {
        ShipError::Persist(e)
    }
}

impl From<InstallError> for ShipError {
    fn from(e: InstallError) -> Self {
        ShipError::Install(e)
    }
}

impl From<ServiceError> for ShipError {
    fn from(e: ServiceError) -> Self {
        ShipError::Service(e)
    }
}

/// One replication unit: a target's snapshot bytes plus the identity of
/// the writer that published them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shipment {
    /// The target the tables belong to.
    pub target: String,
    /// The sending writer's lease epoch; receivers reject anything
    /// older than the lease they honor ([`ShipError::StaleWriter`]).
    pub writer_epoch: u64,
    /// Persist-format table bytes ([`odburg_core::persist`]), verbatim.
    pub bytes: Vec<u8>,
}

impl Shipment {
    /// Serializes the shipment into one transport frame:
    /// `u32 target_len | target | u64 writer_epoch | u64 bytes_len |
    /// bytes`, all little-endian.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(4 + self.target.len() + 16 + self.bytes.len());
        #[allow(clippy::cast_possible_truncation)]
        frame.extend_from_slice(&(self.target.len() as u32).to_le_bytes());
        frame.extend_from_slice(self.target.as_bytes());
        frame.extend_from_slice(&self.writer_epoch.to_le_bytes());
        frame.extend_from_slice(&(self.bytes.len() as u64).to_le_bytes());
        frame.extend_from_slice(&self.bytes);
        frame
    }

    /// Decodes one frame produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`ShipError::Malformed`] when the frame's structure is wrong; the
    /// *contents* of `bytes` are validated later by the persist layer.
    pub fn decode(frame: &[u8]) -> Result<Shipment, ShipError> {
        let err = |what: &str| ShipError::Malformed(what.to_string());
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<&[u8], ShipError> {
            let end = at.checked_add(n).ok_or_else(|| err("length overflow"))?;
            let slice = frame.get(at..end).ok_or_else(|| err("truncated frame"))?;
            at = end;
            Ok(slice)
        };
        let target_len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
        let target = std::str::from_utf8(take(target_len)?)
            .map_err(|_| err("target name is not UTF-8"))?
            .to_string();
        let writer_epoch = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        let bytes_len = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
        if bytes_len > MAX_FRAME_BYTES {
            return Err(err("declared payload exceeds the frame cap"));
        }
        let bytes = take(bytes_len as usize)?.to_vec();
        if at != frame.len() {
            return Err(err("trailing bytes after payload"));
        }
        Ok(Shipment {
            target,
            writer_epoch,
            bytes,
        })
    }
}

/// Ordered delivery of opaque frames between two endpoints. That is the
/// whole contract: no addressing, no multiplexing — the cluster opens
/// one transport per peer and ships complete frames over it.
pub trait ShipTransport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the frame cannot be delivered.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Receives the next frame, blocking until one arrives; `Ok(None)`
    /// means the peer closed cleanly.
    ///
    /// # Errors
    ///
    /// [`io::Error`] for transport failures and dirty disconnects.
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Receives the next frame without blocking: `Ok(None)` when no
    /// frame is ready *or* the peer closed. Default implementation
    /// delegates to the blocking [`recv`](Self::recv).
    ///
    /// # Errors
    ///
    /// [`io::Error`] for transport failures.
    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.recv()
    }
}

/// In-process transport endpoint over std channels; create a connected
/// pair with [`ChannelTransport::pair`]. The test-suite and
/// single-process cluster path — same framing contract, no sockets.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Two connected endpoints: frames sent on either arrive, in order,
    /// at the other.
    #[must_use]
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, brx) = std::sync::mpsc::channel();
        let (btx, arx) = std::sync::mpsc::channel();
        (
            ChannelTransport { tx: atx, rx: arx },
            ChannelTransport { tx: btx, rx: brx },
        )
    }
}

impl ShipTransport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer endpoint dropped"))
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.rx.recv().ok())
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(frame)),
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => Ok(None),
        }
    }
}

/// Length-prefixed framing over any byte stream: each frame is
/// `u64 len (little-endian)` followed by `len` bytes. Works unchanged
/// over `TcpStream` (the `--listen`/`--join` CLI path) and `UnixStream`
/// (same-host shipping, and `UnixStream::pair()` in tests).
#[derive(Debug)]
pub struct SocketTransport<S> {
    stream: S,
}

impl<S: Read + Write + Send> SocketTransport<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        SocketTransport { stream }
    }

    /// Unwraps the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }
}

impl<S: Read + Write + Send> ShipTransport for SocketTransport<S> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(&(frame.len() as u64).to_le_bytes())?;
        self.stream.write_all(frame)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut len = [0u8; 8];
        // A clean EOF *between* frames is a normal close; inside a
        // frame it is a dirty disconnect.
        match self.stream.read(&mut len) {
            Ok(0) => return Ok(None),
            Ok(n) => self.stream.read_exact(&mut len[n..])?,
            Err(e) => return Err(e),
        }
        let len = u64::from_le_bytes(len);
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
            ));
        }
        // Grow the buffer with the bytes that actually arrive: a length
        // prefix alone, from a peer nothing has authenticated yet, must
        // not buy an allocation of up to the cap.
        let mut frame = Vec::new();
        (&mut self.stream).take(len).read_to_end(&mut frame)?;
        if (frame.len() as u64) < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("stream closed after {} of a {len}-byte frame", frame.len()),
            ));
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Shipment {
        Shipment {
            target: "x64".to_string(),
            writer_epoch: 7,
            bytes: vec![0xde, 0xad, 0xbe, 0xef],
        }
    }

    #[test]
    fn shipment_roundtrips_through_encode_decode() {
        let s = sample();
        assert_eq!(Shipment::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn decode_rejects_structural_damage() {
        let frame = sample().encode();
        assert!(matches!(
            Shipment::decode(&frame[..frame.len() - 1]),
            Err(ShipError::Malformed(_))
        ));
        let mut oversized = frame.clone();
        oversized.push(0);
        assert!(matches!(
            Shipment::decode(&oversized),
            Err(ShipError::Malformed(_))
        ));
        assert!(matches!(
            Shipment::decode(&[]),
            Err(ShipError::Malformed(_))
        ));
    }

    #[test]
    fn channel_pair_moves_frames_both_ways() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap().unwrap(), b"pong");
        assert!(b.try_recv().unwrap().is_none());
        drop(b);
        assert!(a.recv().unwrap().is_none());
    }

    #[test]
    fn socket_transport_frames_over_a_unix_socketpair() {
        let (sa, sb) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut a = SocketTransport::new(sa);
        let mut b = SocketTransport::new(sb);
        let frame = sample().encode();
        a.send(&frame).unwrap();
        a.send(b"second").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), frame);
        assert_eq!(b.recv().unwrap().unwrap(), b"second");
        drop(a);
        assert!(b.recv().unwrap().is_none());
    }

    #[test]
    fn socket_transport_refuses_a_frame_cut_short() {
        // The peer declares the largest frame the cap allows, sends four
        // bytes of it and closes: a typed EOF, not a 1 GiB buffer.
        let (mut sa, sb) = std::os::unix::net::UnixStream::pair().unwrap();
        sa.write_all(&MAX_FRAME_BYTES.to_le_bytes()).unwrap();
        sa.write_all(b"abcd").unwrap();
        drop(sa);
        let err = SocketTransport::new(sb).recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn socket_transport_refuses_a_length_above_the_cap() {
        let (mut sa, sb) = std::os::unix::net::UnixStream::pair().unwrap();
        sa.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes()).unwrap();
        let err = SocketTransport::new(sb).recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
