//! Length-prefixed framing over byte streams.
//!
//! A frame is the transport's unit of delivery: a fixed header
//! (magic, version, kind, source and destination node, payload length)
//! followed by an opaque payload that the node layer decodes with
//! [`crate::wire`]. The format is self-describing enough to reject
//! garbage early — wrong magic, unknown version/kind, or an oversized
//! length field each fail with a specific [`FrameError`] before any
//! payload allocation.
//!
//! ```text
//! offset  size  field
//!      0     2  magic  "SM"
//!      2     1  version (1)
//!      3     1  kind    (1 = protocol message)
//!      4     5  from    (1 role byte: 0 server / 1 client; 4 id bytes BE)
//!      9     5  to      (same encoding)
//!     14     4  payload length, big-endian
//!     18     …  payload
//! ```
//!
//! EOF *between* frames is a normal connection close and reads as
//! `Ok(None)`; EOF *inside* a frame is [`FrameError::Truncated`].

use crate::error::{FrameError, NetError};
use shmem_sim::{ClientId, NodeId, ServerId};
use std::io::{ErrorKind, Read};

/// Frame magic bytes.
pub const MAGIC: [u8; 2] = *b"SM";
/// Current frame format version.
pub const VERSION: u8 = 1;
/// Frame kind: a protocol message payload.
pub const KIND_MSG: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 18;
/// Hard cap on one frame's payload length.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// One routed frame: an opaque payload between two nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Encoded protocol message (see [`crate::wire`]).
    pub payload: Vec<u8>,
}

fn put_node(buf: &mut Vec<u8>, id: NodeId) {
    match id {
        NodeId::Server(ServerId(n)) => {
            buf.push(0);
            buf.extend_from_slice(&n.to_be_bytes());
        }
        NodeId::Client(ClientId(n)) => {
            buf.push(1);
            buf.extend_from_slice(&n.to_be_bytes());
        }
    }
}

fn get_node(buf: &[u8]) -> Result<NodeId, FrameError> {
    let n = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    match buf[0] {
        0 => Ok(NodeId::Server(ServerId(n))),
        1 => Ok(NodeId::Client(ClientId(n))),
        role => Err(FrameError::BadKind { found: role }),
    }
}

/// Appends `env` to `buf` as a complete frame; [`read_frame`] takes
/// frames appended one after another off one at a time.
pub fn encode_frame_into(buf: &mut Vec<u8>, env: &Envelope) {
    buf.reserve(HEADER_BYTES + env.payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(KIND_MSG);
    put_node(buf, env.from);
    put_node(buf, env.to);
    buf.extend_from_slice(&(env.payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&env.payload);
}

/// Serializes `env` into a complete frame.
pub fn encode_frame(env: &Envelope) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, env);
    buf
}

/// Reads exactly `buf.len()` bytes, distinguishing clean EOF before the
/// first byte (`Ok(false)`) from EOF mid-buffer (`FrameError::Truncated`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated.into());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::io(&e)),
        }
    }
    Ok(true)
}

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed the connection between messages).
///
/// # Errors
///
/// [`NetError::Frame`] on malformed headers or mid-frame EOF;
/// [`NetError::Io`] on transport failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Envelope>, NetError> {
    let mut header = [0u8; HEADER_BYTES];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    if header[0..2] != MAGIC {
        return Err(FrameError::BadMagic {
            found: [header[0], header[1]],
        }
        .into());
    }
    if header[2] != VERSION {
        return Err(FrameError::BadVersion { found: header[2] }.into());
    }
    if header[3] != KIND_MSG {
        return Err(FrameError::BadKind { found: header[3] }.into());
    }
    let from = get_node(&header[4..9])?;
    let to = get_node(&header[9..14])?;
    let len = u32::from_be_bytes([header[14], header[15], header[16], header[17]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            len: len as u64,
            max: MAX_PAYLOAD as u64,
        }
        .into());
    }
    let mut payload = vec![0u8; len];
    if !read_exact_or_eof(r, &mut payload)? && len > 0 {
        return Err(FrameError::Truncated.into());
    }
    Ok(Some(Envelope { from, to, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn env() -> Envelope {
        Envelope {
            from: NodeId::Client(ClientId(3)),
            to: NodeId::Server(ServerId(1)),
            payload: vec![0xde, 0xad, 0xbe, 0xef],
        }
    }

    #[test]
    fn roundtrip_and_clean_eof() {
        let bytes = encode_frame(&env());
        let mut cur = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cur).unwrap(), Some(env()));
        assert_eq!(read_frame(&mut cur).unwrap(), None);

        // Two frames appended to one buffer read back as two envelopes.
        let second = Envelope {
            payload: vec![7; 300],
            ..env()
        };
        let mut both = Vec::new();
        encode_frame_into(&mut both, &env());
        encode_frame_into(&mut both, &second);
        let mut cur = Cursor::new(both);
        assert_eq!(read_frame(&mut cur).unwrap(), Some(env()));
        assert_eq!(read_frame(&mut cur).unwrap(), Some(second));
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = encode_frame(&env());
        for cut in 1..bytes.len() {
            let mut cur = Cursor::new(&bytes[..cut]);
            let got = read_frame(&mut cur);
            assert!(
                matches!(got, Err(NetError::Frame(FrameError::Truncated))),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_oversize() {
        let mut bad = encode_frame(&env());
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(NetError::Frame(FrameError::BadMagic { .. }))
        ));

        let mut bad = encode_frame(&env());
        bad[2] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(NetError::Frame(FrameError::BadVersion { found: 9 }))
        ));

        let mut bad = encode_frame(&env());
        bad[3] = 0;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(NetError::Frame(FrameError::BadKind { found: 0 }))
        ));

        let mut bad = encode_frame(&env());
        bad[14..18].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(NetError::Frame(FrameError::Oversized { .. }))
        ));
    }

    #[test]
    fn zero_length_payload_roundtrips() {
        let e = Envelope {
            from: NodeId::Server(ServerId(0)),
            to: NodeId::Client(ClientId(0)),
            payload: Vec::new(),
        };
        let mut cur = Cursor::new(encode_frame(&e));
        assert_eq!(read_frame(&mut cur).unwrap(), Some(e));
    }
}
