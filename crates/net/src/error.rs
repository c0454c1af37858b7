//! Error types of the network layer.
//!
//! Everything that can go wrong on the wire — truncated frames, bad
//! tags, oversized payloads, dead peers — surfaces as a value, never a
//! panic: a half-delivered quorum round is an ordinary event in an
//! asynchronous network, and the spec-checker differential tests rely
//! on failed operations being recorded as *incomplete*, not as crashes.

use shmem_sim::NodeId;
use std::fmt;

/// Decoding errors of the binary payload codec ([`crate::wire`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value it promised.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually left.
        left: usize,
    },
    /// An enum discriminant byte was out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length field exceeded its sanity cap.
    TooLarge {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        len: u64,
        /// The cap.
        max: u64,
    },
    /// The payload decoded cleanly but bytes were left over.
    Trailing {
        /// Leftover byte count.
        left: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, left } => {
                write!(f, "payload truncated: needed {needed} bytes, {left} left")
            }
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag byte {tag:#04x}"),
            WireError::TooLarge { what, len, max } => {
                write!(f, "{what} length {len} exceeds cap {max}")
            }
            WireError::Trailing { left } => {
                write!(f, "payload has {left} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Framing errors of the length-prefixed stream protocol
/// ([`crate::frame`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-frame (a partial read at EOF).
    Truncated,
    /// The frame header's magic bytes were wrong.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 2],
    },
    /// The frame header's version byte was unsupported.
    BadVersion {
        /// The version found.
        found: u8,
    },
    /// The frame header's kind byte was unknown.
    BadKind {
        /// The kind found.
        found: u8,
    },
    /// The declared payload length exceeded the frame cap.
    Oversized {
        /// The declared length.
        len: u64,
        /// The cap.
        max: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {:#04x}{:02x}", found[0], found[1])
            }
            FrameError::BadVersion { found } => write!(f, "unsupported frame version {found}"),
            FrameError::BadKind { found } => write!(f, "unknown frame kind {found:#04x}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Errors from the transport layer and the node event loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// An I/O error, flattened to its kind and message (`std::io::Error`
    /// is not `Clone`).
    Io {
        /// `std::io::ErrorKind` as text.
        kind: String,
        /// The error message.
        detail: String,
    },
    /// A frame failed to parse off the stream.
    Frame(FrameError),
    /// A payload failed to decode.
    Wire(WireError),
    /// No route/connection to the peer, and (re)connecting failed within
    /// the retry budget.
    Disconnected {
        /// The unreachable peer.
        peer: NodeId,
    },
    /// The transport or cluster was shut down.
    Shutdown,
}

impl NetError {
    /// Flattens an `io::Error`.
    pub fn io(e: &std::io::Error) -> NetError {
        NetError::Io {
            kind: format!("{:?}", e.kind()),
            detail: e.to_string(),
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        NetError::Frame(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { kind, detail } => write!(f, "i/o error ({kind}): {detail}"),
            NetError::Frame(e) => write!(f, "framing error: {e}"),
            NetError::Wire(e) => write!(f, "payload decode error: {e}"),
            NetError::Disconnected { peer } => write!(f, "peer {peer} is unreachable"),
            NetError::Shutdown => write!(f, "transport shut down"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = NetError::Frame(FrameError::Oversized {
            len: 1 << 30,
            max: 1 << 24,
        });
        assert!(e.to_string().contains("exceeds cap"));
        let w = NetError::Wire(WireError::Truncated { needed: 8, left: 3 });
        assert!(w.to_string().contains("truncated"));
    }
}
