//! The transport abstraction: routed, unreliable datagram-style
//! delivery of [`Envelope`]s between nodes.
//!
//! Everything above this trait — the server event loop, the client
//! workers, the load generator — is backend-agnostic. Two backends
//! ship:
//!
//! * [`InProcHub`] (this module): the differential baseline, routing
//!   through one locked table into `mpsc` inboxes; a wake-up is a futex call.
//! * [`crate::tcp`]: real TCP sockets with the [`crate::frame`] format,
//!   per-connection reader threads, and a reconnecting pool.
//!
//! The delivery contract is deliberately weak — *at-most-once, may drop,
//! may reorder across peers* — because that is what the protocols
//! already tolerate (the simulator's adversary is far crueler). The
//! client layer adds retransmission on top, and the protocol state
//! machines dedupe via their `heard` sets.
//!
//! Every endpoint of either backend is an [`Endpoint`]: one delivery
//! rule and one bounded inbox — at `INBOX_BOUND` untaken envelopes the
//! newest is dropped and counted (`dropped()`), the model's message loss,
//! which the retransmit timer covers.

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
    /// An [`Endpoint`] may hold an accepted message back while its owner
    /// has input left to read, and releases it before the owner blocks.
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

/// Bytes on one queue at which `send` hands them over though input is pending.
const FLUSH_BYTES: usize = 32 << 10;

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

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        if let Some(env) = self.ahead.take() {
            return Ok(Some(env));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(self.taken(env))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Shutdown),
        }
    }
}

/// What a backend does below the delivery rule.
pub(crate) trait Peers: Send {
    /// Queues `env` towards its peer: the bytes now on the queue it joined, or `send`'s error.
    fn queue(&mut self, env: &Envelope) -> Result<usize, NetError>;
    /// Hands over everything queued, to every peer or to none.
    fn flush(&mut self);
}

/// One endpoint of either backend, and the delivery rule they share: what
/// an endpoint sent leaves when it has nothing left to read. `send` queues
/// with the backend; the queues leave, to every peer or none, at the first
/// `send` or `recv_timeout` that finds the inbox drained — always before the
/// owner blocks — or at once when `FLUSH_BYTES` wait on one (DESIGN §4.10).
pub struct Endpoint<P> {
    /// Declared before `inbox`, so a backend's `Drop` hands over what is
    /// queued while the inbox its reader threads deliver into still exists.
    pub(crate) peers: P,
    pub(crate) inbox: Inbox,
}

impl<P> Endpoint<P> {
    /// Count of envelopes dropped because this endpoint's inbox was full.
    pub fn dropped(&self) -> u64 {
        self.inbox.tx.counters.dropped.load(Ordering::Relaxed)
    }
}

impl<P: Peers> Transport for Endpoint<P> {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        if self.peers.queue(env)? >= FLUSH_BYTES || !self.inbox.more() {
            self.peers.flush();
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        if !self.inbox.more() {
            self.peers.flush();
        }
        self.inbox.recv_timeout(timeout)
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
        let routes = Arc::clone(&self.routes);
        let peers = HubPeers {
            routes,
            queued: Vec::new(),
            bytes: 0,
        };
        Endpoint { peers, inbox }
    }

    /// Removes `id`'s route: subsequent sends to it vanish silently
    /// (delivery is best-effort, so this models a link failure, not an
    /// error the sender can observe).
    pub fn drop_route(&self, id: NodeId) {
        self.routes.lock().expect("hub routes poisoned").remove(&id);
    }
}

/// The hub's side of an [`InProcEndpoint`]: envelopes sent and not yet handed over.
pub struct HubPeers {
    routes: Routes,
    queued: Vec<Envelope>,
    bytes: usize,
}

impl Peers for HubPeers {
    fn queue(&mut self, env: &Envelope) -> Result<usize, NetError> {
        self.bytes += env.payload.len();
        self.queued.push(env.clone());
        Ok(self.bytes)
    }

    /// In queue order, under one lock of the route table; the queue keeps its capacity.
    fn flush(&mut self) {
        if self.queued.is_empty() {
            return;
        }
        let routes = self.routes.lock().expect("hub routes poisoned");
        for env in self.queued.drain(..) {
            // A dead receiver is a crashed peer: drop the message, as a
            // real network would.
            if let Some(tx) = routes.get(&env.to) {
                tx.deliver(env);
            }
        }
        self.bytes = 0;
    }
}

impl Drop for HubPeers {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One endpoint of an [`InProcHub`].
pub type InProcEndpoint = Endpoint<HubPeers>;

#[cfg(test)]
/// The delivery rule's contract over any server/client endpoint pair:
/// `tcp.rs`' tests run it over sockets, the tests below over the hub.
pub(crate) mod contract {
    use super::*;
    use shmem_sim::{ClientId, ServerId};
    use std::thread;
    use std::time::Instant;

    pub(crate) const SOON: Duration = Duration::from_millis(50);
    pub(crate) const LATE: Duration = Duration::from_secs(5);

    pub(crate) fn request(client: u32, payload: Vec<u8>) -> Envelope {
        Envelope {
            from: NodeId::Client(ClientId(client)),
            to: NodeId::Server(ServerId(0)),
            payload,
        }
    }

    pub(crate) fn reply(client: u32, payload: Vec<u8>) -> Envelope {
        Envelope {
            from: NodeId::Server(ServerId(0)),
            to: NodeId::Client(ClientId(client)),
            payload,
        }
    }

    /// Spins until `cond` holds; panics after five seconds.
    pub(crate) fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    /// Replies wait while the server still has input it has not taken,
    /// and all leave, in order, when it finds its inbox drained.
    pub(crate) fn replies_leave_when_the_inbox_is_drained<S: Peers, C: Peers>(
        mut server: Endpoint<S>,
        mut client: Endpoint<C>,
    ) {
        for i in 0..3 {
            client.send(&request(0, vec![i])).unwrap();
        }
        for i in 0..3 {
            wait_until("the next request is in", || server.inbox.more());
            let got = server.recv_timeout(LATE).unwrap();
            assert_eq!(got, Some(request(0, vec![i])));
            if i < 2 {
                wait_until("the request after it is in", || server.inbox.more());
            }
            server.send(&reply(0, vec![10 + i])).unwrap();
            if i < 2 {
                assert_eq!(client.recv_timeout(SOON).unwrap(), None, "reply {i} waits");
            }
        }
        for i in 0..3 {
            let got = client.recv_timeout(LATE).unwrap();
            assert_eq!(got, Some(reply(0, vec![10 + i])));
        }

        // A `recv_timeout` that finds the inbox drained releases them too.
        for i in 0..2 {
            client.send(&request(0, vec![i])).unwrap();
        }
        wait_until("the first request is in", || server.inbox.more());
        server.recv_timeout(LATE).unwrap().expect("first request");
        wait_until("the second request is in", || server.inbox.more());
        server.send(&reply(0, vec![20])).unwrap();
        assert_eq!(client.recv_timeout(SOON).unwrap(), None, "reply waits");
        server.recv_timeout(LATE).unwrap().expect("second request");
        assert_eq!(server.recv_timeout(SOON).unwrap(), None);
        assert_eq!(client.recv_timeout(LATE).unwrap(), Some(reply(0, vec![20])));
    }

    /// With input pending, a queue still leaves once [`FLUSH_BYTES`] are
    /// on it.
    pub(crate) fn a_full_queue_is_written_without_waiting<S: Peers, C: Peers>(
        mut server: Endpoint<S>,
        mut client: Endpoint<C>,
    ) {
        for i in 0..2 {
            client.send(&request(0, vec![i])).unwrap();
        }
        wait_until("the first request is in", || server.inbox.more());
        server.recv_timeout(LATE).unwrap().expect("first request");
        wait_until("the second request is in", || server.inbox.more());

        let big = reply(0, vec![0xab; FLUSH_BYTES / 4]);
        for _ in 0..3 {
            server.send(&big).unwrap();
        }
        assert_eq!(client.recv_timeout(SOON).unwrap(), None, "under the bound");
        server.send(&big).unwrap();
        for _ in 0..4 {
            assert_eq!(client.recv_timeout(LATE).unwrap().as_ref(), Some(&big));
        }
        assert!(server.inbox.more(), "the second request was never taken");
    }
}

#[cfg(test)]
mod tests {
    use super::contract::{self, reply, request, LATE, SOON};
    use super::*;
    use shmem_sim::{ClientId, ServerId};

    fn server(n: u32) -> NodeId {
        NodeId::Server(ServerId(n))
    }

    fn client(n: u32) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    /// Server 0 and client 0 on a fresh hub.
    fn pair() -> (InProcEndpoint, InProcEndpoint) {
        let hub = InProcHub::new();
        (hub.endpoint(&[server(0)]), hub.endpoint(&[client(0)]))
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

    #[test]
    fn replies_leave_when_the_inbox_is_drained() {
        let (server, client) = pair();
        contract::replies_leave_when_the_inbox_is_drained(server, client);
    }

    #[test]
    fn a_full_queue_is_written_without_waiting() {
        let (server, client) = pair();
        contract::a_full_queue_is_written_without_waiting(server, client);
    }

    /// A dropped endpoint hands over what it had queued, as a TCP
    /// endpoint's `Drop` writes it.
    #[test]
    fn dropping_an_endpoint_delivers_what_it_queued() {
        let (mut server, mut client) = pair();
        for i in 0..2 {
            client.send(&request(0, vec![i])).unwrap();
        }
        assert_eq!(
            server.recv_timeout(LATE).unwrap(),
            Some(request(0, vec![0]))
        );
        assert!(server.inbox.more(), "the second request is in");
        server.send(&reply(0, vec![10])).unwrap();
        assert_eq!(client.recv_timeout(SOON).unwrap(), None, "the reply waits");
        drop(server);
        assert_eq!(client.recv_timeout(LATE).unwrap(), Some(reply(0, vec![10])));
        assert_eq!(client.recv_timeout(SOON).unwrap(), None, "delivered once");
    }
}
