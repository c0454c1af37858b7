//! [`CorruptingTransport`]: the corruption adversary at the network seam.
//!
//! A Byzantine server on a real network does not reach into other nodes'
//! state — it lies in the frames it sends. This wrapper sits between a
//! server's event loop and its transport and tampers outbound payloads
//! *post-codec*: decode the frame back into the protocol message, hand it
//! to the protocol's own [`Protocol::corrupt_msg`] hook (the same hook
//! the simulator's `corrupt_head` primitive uses, so the same `salt`
//! flips byte-identical bits), and re-encode. Only value-bearing bytes
//! are touched — coded shares in `ReadResp`/`PreWrite`, carried values in
//! ABD's replies — never routing fields, tags, nonces, or hash
//! announcements: the adversary corrupts data, it does not get to forge
//! the checksums guarding that data, and a corrupted frame still parses.
//!
//! Disarmed (`salt == None`) the wrapper is a zero-copy pass-through, so
//! [`crate::harness::NetCluster`] wraps every server unconditionally and
//! arms only the plan's corrupt set.
//!
//! [`Protocol::corrupt_msg`]: shmem_sim::Protocol::corrupt_msg

use crate::error::NetError;
use crate::frame::Envelope;
use crate::transport::Transport;
use crate::wire::WireMsg;
use shmem_sim::Protocol;
use std::marker::PhantomData;
use std::time::Duration;

/// Which servers lie on the wire, and with what tamper salt — the net
/// harness's slice of a nemesis `FaultPlan`'s corruption budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetCorruption {
    /// Indices of the corrupting servers (the caller keeps this within
    /// the `f` budget; the harness does not re-validate).
    pub servers: Vec<u32>,
    /// Deterministic tamper salt, shared with the sim and store layers.
    pub salt: u64,
}

impl NetCorruption {
    /// A corruption policy arming `servers` with `salt`.
    pub fn new(servers: Vec<u32>, salt: u64) -> NetCorruption {
        NetCorruption { servers, salt }
    }

    /// Whether server `i` is in the corrupt set.
    pub fn applies_to(&self, server: u32) -> bool {
        self.servers.contains(&server)
    }
}

/// A transport decorator that tampers outbound value-bearing payloads.
pub struct CorruptingTransport<T, P> {
    inner: T,
    salt: Option<u64>,
    _proto: PhantomData<fn() -> P>,
}

impl<T, P> CorruptingTransport<T, P> {
    /// Wraps `inner`; `None` leaves the wrapper a pass-through.
    pub fn new(inner: T, salt: Option<u64>) -> CorruptingTransport<T, P> {
        CorruptingTransport {
            inner,
            salt,
            _proto: PhantomData,
        }
    }
}

impl<T, P> Transport for CorruptingTransport<T, P>
where
    T: Transport,
    P: Protocol,
    P::Msg: WireMsg,
{
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let Some(salt) = self.salt else {
            return self.inner.send(env);
        };
        if let Ok(mut msg) = P::Msg::from_wire(&env.payload) {
            if P::corrupt_msg(&mut msg, salt) {
                return self.inner.send(&Envelope {
                    from: env.from,
                    to: env.to,
                    payload: msg.to_wire(),
                });
            }
        }
        // Value-free messages (acks, queries) and — defensively —
        // payloads that don't parse pass through untouched: this
        // adversary tampers shares, it does not jam the link.
        self.inner.send(env)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcHub;
    use shmem_algorithms::cas::{ShardedCas, ShardedCasMsg};
    use shmem_algorithms::hashed::{ShardedHashed, ShardedHashedMsg};
    use shmem_algorithms::tag::Tag;
    use shmem_sim::{ClientId, NodeId, ServerId};

    fn envelope(payload: Vec<u8>) -> Envelope {
        Envelope {
            from: NodeId::Server(ServerId(0)),
            to: NodeId::Client(ClientId(0)),
            payload,
        }
    }

    fn read_resp(share: Vec<u8>) -> ShardedCasMsg {
        ShardedCasMsg::ReadResp {
            rid: 7,
            items: vec![(3, Some(share))],
        }
    }

    fn send_through<P>(salt: Option<u64>, payload: Vec<u8>) -> Vec<u8>
    where
        P: Protocol,
        P::Msg: WireMsg,
    {
        let hub = InProcHub::new();
        let mut rx = hub.endpoint(&[NodeId::Client(ClientId(0))]);
        let tx = hub.endpoint(&[NodeId::Server(ServerId(0))]);
        let mut t = CorruptingTransport::<_, P>::new(tx, salt);
        t.send(&envelope(payload)).unwrap();
        rx.recv_timeout(Duration::from_secs(1))
            .unwrap()
            .expect("delivered")
            .payload
    }

    #[test]
    fn disarmed_is_a_pass_through() {
        let wire = read_resp(vec![1, 2, 3]).to_wire();
        assert_eq!(send_through::<ShardedCas>(None, wire.clone()), wire);
    }

    #[test]
    fn armed_tampers_shares_deterministically() {
        let wire = read_resp(vec![1, 2, 3]).to_wire();
        let once = send_through::<ShardedCas>(Some(9), wire.clone());
        assert_ne!(once, wire, "armed send must tamper the share");
        assert_eq!(
            once,
            send_through::<ShardedCas>(Some(9), wire.clone()),
            "same salt, same bits"
        );
        assert_ne!(once, send_through::<ShardedCas>(Some(10), wire.clone()));
        // The tampered frame still parses, and only the share moved.
        let msg = ShardedCasMsg::from_wire(&once).expect("tampered frame parses");
        match msg {
            ShardedCasMsg::ReadResp { rid, items } => {
                assert_eq!(rid, 7);
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].0, 3);
                assert_ne!(items[0].1, Some(vec![1, 2, 3]));
            }
            other => panic!("variant changed: {other:?}"),
        }
    }

    #[test]
    fn value_free_messages_pass_untouched() {
        let wire = ShardedCasMsg::FinAck { rid: 3 }.to_wire();
        assert_eq!(send_through::<ShardedCas>(Some(9), wire.clone()), wire);
        // Undecodable garbage is forwarded, not dropped: corruption is
        // not a link fault.
        let garbage = vec![0xFF; 5];
        assert_eq!(
            send_through::<ShardedCas>(Some(9), garbage.clone()),
            garbage
        );
    }

    #[test]
    fn hashed_read_resp_keeps_its_digests() {
        let msg = ShardedHashedMsg::ReadResp {
            rid: 1,
            items: vec![(5, Some(vec![8, 8, 8]), Some(0xD16E57))],
        };
        let out = send_through::<ShardedHashed>(Some(4), msg.to_wire());
        match ShardedHashedMsg::from_wire(&out).expect("tampered frame parses") {
            ShardedHashedMsg::ReadResp { items, .. } => {
                assert_ne!(items[0].1, Some(vec![8, 8, 8]), "share tampered");
                assert_eq!(items[0].2, Some(0xD16E57), "digest untouched");
            }
            other => panic!("variant changed: {other:?}"),
        }
        // The announcement round carries only digests — never tampered.
        let announce = ShardedHashedMsg::HashAnnounce {
            rid: 2,
            items: vec![(5, Tag::ZERO, 0xD16E57)],
        };
        let wire = announce.to_wire();
        assert_eq!(send_through::<ShardedHashed>(Some(4), wire.clone()), wire);
    }
}
