//! Versioned binary wire protocol for the fusion message set.
//!
//! Everything the in-process lanes ship by `Arc` reference has to become
//! actual bytes at a process boundary.  This crate is that boundary:
//!
//! - [`codec`] — a fixed-layout little-endian encoding of
//!   [`pct::messages::PctMessage`] plus the protocol-control handshake
//!   message, wrapped in length-prefixed CRC-checked frames ([`frame`]).
//!   Cube payloads serialize via [`hsi::CubeView::materialize`], the one
//!   charged deep-copy point, so the clone ledger doubles as the wire-bytes
//!   ledger — and the encode path `debug_assert`s that no other copy
//!   happened.
//! - [`transport`] — a [`Transport`] trait over whole messages with two
//!   impls: an in-process [`transport::loopback_pair`] for deterministic
//!   tests, and [`transport::TcpTransport`] over `std::net::TcpStream` for
//!   real worker processes.  [`transport::handshake`] exchanges protocol
//!   versions and rejects mismatches with a typed error.
//! - [`worker`] — the remote worker loop: receive tasks, compute via
//!   [`pct::distributed::handle_task`], reply, heartbeat.  The
//!   `fusiond-worker` binary is a `main` around [`worker::run_worker`].
//!
//! # Version policy
//!
//! [`PROTOCOL_VERSION`] is bumped on **any** layout change — field order,
//! widths, tag numbering, frame header.  Peers exchange `Hello{version}`
//! frames first; a mismatch fails the connection with
//! [`WireError::VersionMismatch`] before any payload is interpreted.  There
//! is deliberately no in-band negotiation: a fleet rolls forward by
//! draining workers on the old version, which the service's failover
//! machinery already handles (a worker that disappears has its tasks
//! re-dispatched).

#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod transport;
pub mod worker;

pub use codec::{decode_body, encode_message, WireMessage};
pub use frame::{FrameReader, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
pub use transport::{handshake, loopback_pair, LoopbackTransport, TcpTransport, Transport};

/// Protocol version spoken by this build.  Bumped on any layout change;
/// see the crate-level version policy.
pub const PROTOCOL_VERSION: u32 = 1;

/// Typed failures of the wire layer.  Decoding never panics: malformed,
/// truncated, corrupted or incompatible input always surfaces as one of
/// these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The frame body does not hash to the CRC in the frame header.
    CrcMismatch {
        /// CRC announced by the header.
        expected: u32,
        /// CRC computed over the received body.
        found: u32,
    },
    /// The stream does not start with the protocol magic — not a fusion
    /// peer, or the stream lost sync.
    BadMagic(u32),
    /// A frame header announced a body longer than [`MAX_FRAME_BYTES`].
    OversizedFrame {
        /// Announced body length.
        len: u64,
        /// The enforced ceiling.
        max: u64,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u32,
        /// The version the peer announced.
        theirs: u32,
    },
    /// The frame body starts with a tag no message is assigned to.
    UnknownTag(u8),
    /// A structurally invalid body: inconsistent lengths, dims that don't
    /// multiply out, non-UTF-8 text.
    Malformed(&'static str),
    /// An I/O failure of the underlying transport.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            WireError::CrcMismatch { expected, found } => {
                write!(f, "frame CRC mismatch: header says {expected:#010x}, body hashes to {found:#010x}")
            }
            WireError::BadMagic(got) => {
                write!(f, "bad frame magic {got:#010x}: not a fusion wire peer")
            }
            WireError::OversizedFrame { len, max } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {max}-byte ceiling"
                )
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}"
                )
            }
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            WireError::Malformed(what) => write!(f, "malformed frame body: {what}"),
            WireError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Result alias of the wire layer.
pub type Result<T> = std::result::Result<T, WireError>;
