//! The transport abstraction: routed, unreliable datagram-style
//! delivery of [`Envelope`]s between nodes.
//!
//! Everything above this trait — the server event loop, the client
//! workers, the load generator — is backend-agnostic. Two backends
//! ship:
//!
//! * [`InProcHub`] (this module): lock-free-ish in-process routing over
//!   `mpsc` channels. Zero syscalls; the differential baseline.
//! * [`crate::tcp`]: real TCP sockets with the [`crate::frame`] format,
//!   per-connection reader threads, and a reconnecting pool.
//!
//! The delivery contract is deliberately weak — *at-most-once, may drop,
//! may reorder across peers* — because that is what the protocols
//! already tolerate (the simulator's adversary is far crueler). The
//! client layer adds retransmission on top, and the protocol state
//! machines dedupe via their `heard` sets.
//!
//! Every endpoint of either backend receives into the same bounded
//! inbox: at `INBOX_BOUND` untaken envelopes the newest is dropped and
//! counted (`dropped()`) — the model's message loss, which the
//! retransmit timer covers.

use crate::error::NetError;
pub use crate::frame::Envelope;
use shmem_sim::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One node-side endpoint of a message transport.
///
/// Endpoints are owned by exactly one thread (the node's event loop);
/// hence `&mut self` and no `Sync` bound.
pub trait Transport: Send {
    /// Sends `env` towards `env.to`. Best-effort: `Ok(())` means the
    /// transport accepted the message, not that the peer will see it.
    /// A backend may hold an accepted message back while the endpoint's
    /// own inbox still has an envelope its owner has not taken, and
    /// releases it at the first `send` or `recv_timeout` that finds the
    /// inbox drained — always before the owner blocks.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the peer is known-unreachable and reconnecting
    /// failed within the backend's retry budget.
    fn send(&mut self, env: &Envelope) -> Result<(), NetError>;

    /// Waits up to `timeout` for an inbound envelope. `Ok(None)` on
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Shutdown`] when the transport was closed underneath
    /// the caller.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError>;
}

/// Undelivered envelopes an inbox holds before it drops the newest.
const INBOX_BOUND: usize = 65_536;

/// Statistics only: neither counter publishes other data, so `Relaxed`.
#[derive(Default)]
struct InboxCounters {
    depth: AtomicUsize,
    dropped: AtomicU64,
}

/// The delivering half of an [`Inbox`].
#[derive(Clone)]
pub(crate) struct InboxSender {
    tx: Sender<Envelope>,
    counters: Arc<InboxCounters>,
}

impl InboxSender {
    /// Queues `env`, or drops and counts it when the inbox is at its
    /// bound. `false` only when the inbox is gone.
    pub(crate) fn deliver(&self, env: Envelope) -> bool {
        if self.counters.depth.fetch_add(1, Ordering::Relaxed) >= INBOX_BOUND {
            self.counters.depth.fetch_sub(1, Ordering::Relaxed);
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.tx.send(env).is_ok()
    }
}

/// A bounded inbox with a one-envelope look-ahead: an unbounded `mpsc` queue with a depth
/// counter beside it (a `sync_channel` would pre-allocate its bound per inbox). It keeps a
/// sender of its own, so an endpoint no route leads to is unreachable, not shut down.
pub(crate) struct Inbox {
    rx: Receiver<Envelope>,
    /// Taken off the queue by [`Inbox::more`]; the next receive returns it first.
    ahead: Option<Envelope>,
    tx: InboxSender,
}

impl Inbox {
    pub(crate) fn new() -> Inbox {
        let (tx, rx) = mpsc::channel();
        let counters = Arc::default();
        let tx = InboxSender { tx, counters };
        let ahead = None;
        Inbox { rx, ahead, tx }
    }

    pub(crate) fn sender(&self) -> InboxSender {
        self.tx.clone()
    }

    fn taken(&self, env: Envelope) -> Envelope {
        self.tx.counters.depth.fetch_sub(1, Ordering::Relaxed);
        env
    }

    /// Whether an envelope is already here for the owner to take.
    pub(crate) fn more(&mut self) -> bool {
        if self.ahead.is_none() {
            self.ahead = self.rx.try_recv().ok().map(|env| self.taken(env));
        }
        self.ahead.is_some()
    }

    /// [`Transport::recv_timeout`] over this inbox.
    pub(crate) fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        if let Some(env) = self.ahead.take() {
            return Ok(Some(env));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(self.taken(env))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Shutdown),
        }
    }

    /// Envelopes dropped at the bound so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.tx.counters.dropped.load(Ordering::Relaxed)
    }
}

type Routes = Arc<Mutex<HashMap<NodeId, InboxSender>>>;

/// In-process message hub: a shared routing table from node ids to
/// inboxes.
///
/// A "connection" here is just a table entry, so the hub is also where
/// in-process fault injection lives: [`InProcHub::drop_route`] makes a
/// node silently unreachable, exactly like an unplugged cable.
#[derive(Clone, Default)]
pub struct InProcHub {
    routes: Routes,
}

impl InProcHub {
    /// A hub with no endpoints.
    pub fn new() -> InProcHub {
        InProcHub::default()
    }

    /// Creates the endpoint owning inbound traffic for every id in
    /// `ids`. One event-loop thread typically serves one node (servers)
    /// or a whole block of logical clients (client workers); all of the
    /// block's ids map to the same inbox.
    pub fn endpoint(&self, ids: &[NodeId]) -> InProcEndpoint {
        let inbox = Inbox::new();
        let mut routes = self.routes.lock().expect("hub routes poisoned");
        for &id in ids {
            routes.insert(id, inbox.sender());
        }
        InProcEndpoint {
            routes: Arc::clone(&self.routes),
            inbox,
        }
    }

    /// Removes `id`'s route: subsequent sends to it vanish silently
    /// (delivery is best-effort, so this models a link failure, not an
    /// error the sender can observe).
    pub fn drop_route(&self, id: NodeId) {
        self.routes.lock().expect("hub routes poisoned").remove(&id);
    }
}

/// One endpoint of an [`InProcHub`].
pub struct InProcEndpoint {
    routes: Routes,
    inbox: Inbox,
}

impl InProcEndpoint {
    /// Count of envelopes dropped because this endpoint's inbox was full.
    pub fn dropped(&self) -> u64 {
        self.inbox.dropped()
    }
}

impl Transport for InProcEndpoint {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let routes = self.routes.lock().expect("hub routes poisoned");
        if let Some(tx) = routes.get(&env.to) {
            // A dead receiver is a crashed peer: drop the message, as a
            // real network would.
            tx.deliver(env.clone());
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        self.inbox.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{ClientId, ServerId};

    fn server(n: u32) -> NodeId {
        NodeId::Server(ServerId(n))
    }

    fn client(n: u32) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    #[test]
    fn routes_by_destination() {
        let hub = InProcHub::new();
        let mut a = hub.endpoint(&[server(0)]);
        let mut b = hub.endpoint(&[client(0), client(1)]);
        let env = Envelope {
            from: server(0),
            to: client(1),
            payload: vec![1, 2, 3],
        };
        a.send(&env).unwrap();
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got, env);
        // Nothing arrived at the server endpoint.
        assert_eq!(a.recv_timeout(Duration::from_millis(10)).unwrap(), None);
    }

    #[test]
    fn dropped_route_loses_messages_silently() {
        let hub = InProcHub::new();
        let mut a = hub.endpoint(&[server(0)]);
        let mut b = hub.endpoint(&[client(0)]);
        hub.drop_route(client(0));
        a.send(&Envelope {
            from: server(0),
            to: client(0),
            payload: vec![],
        })
        .unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), None);
    }

    /// Bound + k envelopes into an endpoint nobody drains: the k newest
    /// are dropped and counted, the bound's worth arrive oldest first.
    #[test]
    fn full_inbox_drops_the_newest_and_counts() {
        const K: usize = 3;
        let hub = InProcHub::new();
        let mut a = hub.endpoint(&[server(0)]);
        let mut b = hub.endpoint(&[client(0)]);
        for i in 0..INBOX_BOUND + K {
            a.send(&Envelope {
                from: server(0),
                to: client(0),
                payload: (i as u32).to_be_bytes().to_vec(),
            })
            .unwrap();
        }
        assert_eq!(b.dropped(), K as u64);
        assert_eq!(a.dropped(), 0);
        for i in 0..INBOX_BOUND {
            let got = b.recv_timeout(Duration::ZERO).unwrap().expect("queued");
            assert_eq!(got.payload, (i as u32).to_be_bytes());
        }
        assert_eq!(b.recv_timeout(Duration::ZERO).unwrap(), None);
        // Drained, the inbox accepts again.
        a.send(&Envelope {
            from: server(0),
            to: client(0),
            payload: vec![],
        })
        .unwrap();
        assert!(b.inbox.more());
    }
}
