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

use crate::error::NetError;
pub use crate::frame::Envelope;
use shmem_sim::NodeId;
use std::collections::HashMap;
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

type Routes = Arc<Mutex<HashMap<NodeId, Sender<Envelope>>>>;

/// In-process message hub: a shared routing table from node ids to
/// `mpsc` inboxes.
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
        let (tx, rx) = mpsc::channel();
        let mut routes = self.routes.lock().expect("hub routes poisoned");
        for &id in ids {
            routes.insert(id, tx.clone());
        }
        InProcEndpoint {
            routes: Arc::clone(&self.routes),
            rx,
            _tx: tx,
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
    rx: Receiver<Envelope>,
    /// Keeps the channel open even when every route to it is dropped
    /// (a routeless endpoint is unreachable, not dead).
    _tx: Sender<Envelope>,
}

impl Transport for InProcEndpoint {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let routes = self.routes.lock().expect("hub routes poisoned");
        if let Some(tx) = routes.get(&env.to) {
            // A dead receiver is a crashed peer: drop the message, as a
            // real network would.
            let _ = tx.send(env.clone());
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        recv_from(&self.rx, timeout)
    }
}

/// [`Transport::recv_timeout`] over an endpoint's `mpsc` inbox.
pub(crate) fn recv_from(
    inbox: &Receiver<Envelope>,
    timeout: Duration,
) -> Result<Option<Envelope>, NetError> {
    match inbox.recv_timeout(timeout) {
        Ok(env) => Ok(Some(env)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(NetError::Shutdown),
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
}
