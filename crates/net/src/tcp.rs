//! The real-network backend: TCP sockets carrying [`crate::frame`]
//! frames.
//!
//! * [`TcpServerTransport`] — a listener plus one reader thread per
//!   accepted connection. Reply routes are learned from the `from`
//!   field of inbound frames, so any number of logical clients can
//!   multiplex over one connection with no handshake. A connection that
//!   sends garbage is closed; the server itself survives.
//! * [`TcpClientTransport`] — a lazily-connecting pool, one connection
//!   per server, with bounded-retry exponential backoff and automatic
//!   reconnection after failures. Server addresses are read from a
//!   shared [`AddrTable`] *on every connect attempt*, so a server that
//!   restarts on a new port becomes reachable the moment the table is
//!   updated.
//!
//! Both are [`Endpoint`]s and deliver by the one rule they share with the
//! hub; below it, each connection keeps a byte queue that a flush writes
//! in one write. Readers read through a buffer, so one `read` takes in
//! all the frames a peer coalesced (DESIGN §4.10).
//!
//! Both ends are best-effort: delivery failures drop the message (the
//! client layer retransmits; the protocols dedupe), and only an
//! exhausted reconnect budget surfaces as [`NetError::Disconnected`].

use crate::error::NetError;
use crate::frame::{encode_frame_into, read_frame, Envelope};
use crate::transport::{Endpoint, Inbox, InboxSender, Peers};
use shmem_sim::{NodeId, ServerId};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Shared, mutable map from server index to socket address.
///
/// The harness updates a restarted server's entry; client pools re-read
/// it on every connect attempt.
pub type AddrTable = Arc<Mutex<Vec<SocketAddr>>>;

/// Builds an [`AddrTable`] from initial addresses.
pub fn addr_table(addrs: Vec<SocketAddr>) -> AddrTable {
    Arc::new(Mutex::new(addrs))
}

/// The reader thread of `conn`: hands every frame off `stream` to
/// `deliver` until the stream ends, `deliver` declines, or the peer sends
/// garbage — counted in `decode_errors`; the connection closes, the
/// endpoint lives on.
fn spawn_reader(
    mut stream: BufReader<TcpStream>,
    conn: Conn,
    decode_errors: Arc<AtomicU64>,
    mut deliver: impl FnMut(&Conn, Envelope) -> bool + Send + 'static,
) {
    thread::spawn(move || {
        loop {
            match read_frame(&mut stream) {
                Ok(Some(env)) => {
                    if !deliver(&conn, env) {
                        break;
                    }
                }
                Ok(None) => break,
                Err(NetError::Frame(_)) | Err(NetError::Wire(_)) => {
                    decode_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(_) => break,
            }
        }
        conn.alive.store(false, Ordering::Release);
        let _ = stream.get_ref().shutdown(Shutdown::Both);
    });
}

/// The write half of a connection and the frames waiting to go out on it.
struct WriteHalf {
    stream: TcpStream,
    queued: Vec<u8>,
}

/// One pooled connection: a shared write half plus a liveness flag its
/// reader thread clears on failure.
#[derive(Clone)]
struct Conn {
    out: Arc<Mutex<WriteHalf>>,
    alive: Arc<AtomicBool>,
}

impl Conn {
    /// Takes over a fresh `stream` at either end: keeps a clone as the
    /// write half, with `queued` (whole frames a predecessor never got
    /// out) waiting on it, and hands the stream to [`spawn_reader`].
    fn open(
        stream: TcpStream,
        queued: Vec<u8>,
        decode_errors: Arc<AtomicU64>,
        deliver: impl FnMut(&Conn, Envelope) -> bool + Send + 'static,
    ) -> Result<Conn, NetError> {
        let _ = stream.set_nodelay(true);
        let conn = Conn {
            out: Arc::new(Mutex::new(WriteHalf {
                stream: stream.try_clone().map_err(|e| NetError::io(&e))?,
                queued,
            })),
            alive: Arc::new(AtomicBool::new(true)),
        };
        spawn_reader(BufReader::new(stream), conn.clone(), decode_errors, deliver);
        Ok(conn)
    }

    fn out(&self) -> std::sync::MutexGuard<'_, WriteHalf> {
        self.out.lock().expect("conn write half poisoned")
    }

    /// Appends `env`'s frame to the queue; returns the bytes now queued
    /// and whether the queue was empty before.
    fn queue(&self, env: &Envelope) -> (usize, bool) {
        let mut out = self.out();
        let was_empty = out.queued.is_empty();
        encode_frame_into(&mut out.queued, env);
        (out.queued.len(), was_empty)
    }

    /// Writes everything queued, in one write; on failure the queue is
    /// left as it was.
    fn flush(&self) -> io::Result<()> {
        let out = &mut *self.out();
        out.stream.write_all(&out.queued)?;
        out.queued.clear();
        Ok(())
    }

    /// Empties the queue without writing it.
    fn take_queued(&self) -> Vec<u8> {
        std::mem::take(&mut self.out().queued)
    }

    fn sever(&self) {
        self.alive.store(false, Ordering::Release);
        let _ = self.out().stream.shutdown(Shutdown::Both);
    }
}

/// Every connection an endpoint has open, for severing them from outside
/// the thread that owns the endpoint.
type Registry = Mutex<Vec<Conn>>;

/// Adds `conn` to `registry`, dropping the entries whose connection has
/// died since — each holds a socket open.
fn register(registry: &Registry, conn: Conn) {
    let mut conns = registry.lock().expect("conn registry poisoned");
    conns.retain(|c| c.alive.load(Ordering::Acquire));
    conns.push(conn);
}

fn sever_all(registry: &Registry) {
    for c in registry.lock().expect("conn registry poisoned").iter() {
        c.sever();
    }
}

/// Server-side TCP endpoint: accept loop, per-connection readers,
/// learned reply routes.
pub type TcpServerTransport = Endpoint<ServerPeers>;

/// The server end's queues, one per accepted connection.
pub struct ServerPeers {
    /// Connections with frames queued since the last flush.
    dirty: Vec<Conn>,
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
}

struct ServerShared {
    stop: AtomicBool,
    routes: Mutex<HashMap<NodeId, Conn>>,
    conns: Registry,
    decode_errors: Arc<AtomicU64>,
}

impl TcpServerTransport {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if binding fails.
    pub fn bind(addr: SocketAddr) -> Result<TcpServerTransport, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::io(&e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::io(&e))?;
        let local_addr = listener.local_addr().map_err(|e| NetError::io(&e))?;
        let inbox = Inbox::new();
        let inbox_tx = inbox.sender();
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            routes: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            decode_errors: Arc::new(AtomicU64::new(0)),
        });

        let accept_shared = Arc::clone(&shared);
        thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Record which connection each source node last
                        // used as its frames arrive, so replies route
                        // back without any handshake.
                        let (inbox, routes) = (inbox_tx.clone(), Arc::clone(&accept_shared));
                        let conn = Conn::open(
                            stream,
                            Vec::new(),
                            Arc::clone(&accept_shared.decode_errors),
                            move |conn, env| {
                                routes
                                    .routes
                                    .lock()
                                    .expect("server routes poisoned")
                                    .insert(env.from, conn.clone());
                                inbox.deliver(env)
                            },
                        );
                        // A socket that cannot be cloned (descriptors
                        // exhausted) is dropped; the listener lives on.
                        if let Ok(conn) = conn {
                            register(&accept_shared.conns, conn);
                        }
                    }
                    // Nothing to accept yet, or an error that passes (an aborted
                    // handshake, descriptors exhausted): only `stop` ends accepting.
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
        });

        let dirty = Vec::new();
        let peers = ServerPeers {
            dirty,
            shared,
            local_addr,
        };
        Ok(Endpoint { peers, inbox })
    }

    /// The bound socket address (with the real port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.peers.local_addr
    }

    /// Count of connections dropped for sending undecodable bytes.
    pub fn decode_errors(&self) -> u64 {
        self.peers.shared.decode_errors.load(Ordering::Relaxed)
    }
}

impl Peers for ServerPeers {
    fn queue(&mut self, env: &Envelope) -> Result<usize, NetError> {
        let conn = {
            let routes = self.shared.routes.lock().expect("server routes poisoned");
            routes.get(&env.to).cloned()
        };
        // Unknown peer: it never spoke to us, or its connection died.
        // Best-effort delivery drops the message.
        let (queued, was_empty) = conn.as_ref().map_or((0, false), |c| c.queue(env));
        if was_empty {
            self.dirty.extend(conn);
        }
        Ok(queued)
    }

    /// Writes every dirty connection; one that fails is severed and its routes forgotten.
    fn flush(&mut self) {
        for conn in self.dirty.drain(..) {
            if conn.flush().is_err() {
                conn.sever();
                let mut routes = self.shared.routes.lock().expect("server routes poisoned");
                routes.retain(|_, c| !Arc::ptr_eq(&c.out, &conn.out));
            }
        }
    }
}

impl Drop for ServerPeers {
    fn drop(&mut self) {
        self.flush();
        self.shared.stop.store(true, Ordering::Release);
        sever_all(&self.shared.conns);
    }
}

/// Connect attempts per send before giving up (the retry budget).
const MAX_ATTEMPTS: u32 = 3;
/// First backoff delay; doubles per attempt.
const BASE_BACKOFF: Duration = Duration::from_millis(5);

/// Client-side TCP endpoint: one lazily-established connection per
/// server, reconnecting with bounded exponential backoff.
pub type TcpClientTransport = Endpoint<PoolPeers>;

/// The pool end's queues, one per server connection.
pub struct PoolPeers {
    addrs: AddrTable,
    conns: HashMap<usize, Conn>,
    /// Servers whose connection has frames queued since the last flush.
    dirty: Vec<usize>,
    inbox: InboxSender,
    decode_errors: Arc<AtomicU64>,
    connects: Arc<AtomicU64>,
    registry: Arc<Registry>,
}

/// Shared handle for injecting connection faults into a
/// [`TcpClientTransport`] from another thread (the pool itself is owned
/// by its worker).
#[derive(Clone)]
pub struct PoolFaults {
    registry: Arc<Registry>,
    connects: Arc<AtomicU64>,
}

impl PoolFaults {
    /// Severs every currently-open pooled connection (both directions),
    /// as a middlebox reset would.
    pub fn sever_all(&self) {
        sever_all(&self.registry);
    }

    /// Total successful connection establishments (first connects and
    /// reconnects alike).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }
}

impl TcpClientTransport {
    /// A pool over the given address table.
    pub fn new(addrs: AddrTable) -> TcpClientTransport {
        let inbox = Inbox::new();
        let peers = PoolPeers {
            addrs,
            conns: HashMap::new(),
            dirty: Vec::new(),
            inbox: inbox.sender(),
            decode_errors: Arc::new(AtomicU64::new(0)),
            connects: Arc::new(AtomicU64::new(0)),
            registry: Arc::new(Mutex::new(Vec::new())),
        };
        Endpoint { peers, inbox }
    }

    /// A fault-injection handle sharing this pool's connection registry.
    pub fn faults(&self) -> PoolFaults {
        PoolFaults {
            registry: Arc::clone(&self.peers.registry),
            connects: Arc::clone(&self.peers.connects),
        }
    }

    /// Count of connections dropped for receiving undecodable bytes.
    pub fn decode_errors(&self) -> u64 {
        self.peers.decode_errors.load(Ordering::Relaxed)
    }
}

impl PoolPeers {
    /// Connects to `server`; `queued` — frames its last connection never got out — goes first.
    fn connect(&mut self, server: usize, queued: Vec<u8>) -> Result<Conn, NetError> {
        let mut backoff = BASE_BACKOFF;
        let mut last = NetError::Disconnected {
            peer: NodeId::Server(ServerId(server as u32)),
        };
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                thread::sleep(backoff);
                backoff *= 2;
            }
            // Re-read the table every attempt: a restarted server lands
            // on a new port, published here by whoever restarted it.
            let addr = {
                let table = self.addrs.lock().expect("addr table poisoned");
                match table.get(server) {
                    Some(&a) => a,
                    None => return Err(last),
                }
            };
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(stream) => {
                    let inbox = self.inbox.clone();
                    let decode_errors = Arc::clone(&self.decode_errors);
                    let conn = Conn::open(stream, queued, decode_errors, move |_, env| {
                        inbox.deliver(env)
                    })?;
                    self.connects.fetch_add(1, Ordering::Relaxed);
                    register(&self.registry, conn.clone());
                    self.conns.insert(server, conn.clone());
                    return Ok(conn);
                }
                Err(e) => last = NetError::io(&e),
            }
        }
        Err(last)
    }

    /// Replaces `server`'s connection; the new one inherits the frames the old never got out.
    fn reconnect(&mut self, server: usize) -> Result<Conn, NetError> {
        let old = self.conns.remove(&server);
        old.iter().for_each(Conn::sever);
        self.connect(server, old.map_or_else(Vec::new, |c| c.take_queued()))
    }

    fn conn_for(&mut self, server: usize) -> Result<Conn, NetError> {
        match self.conns.get(&server) {
            Some(conn) if conn.alive.load(Ordering::Acquire) => Ok(conn.clone()),
            _ => self.reconnect(server),
        }
    }
}

impl Peers for PoolPeers {
    fn queue(&mut self, env: &Envelope) -> Result<usize, NetError> {
        let NodeId::Server(ServerId(idx)) = env.to else {
            // Clients only talk to servers; anything else is dropped.
            return Ok(0);
        };
        let server = idx as usize;
        let (queued, was_empty) = self.conn_for(server)?.queue(env);
        if was_empty {
            self.dirty.push(server);
        }
        Ok(queued)
    }

    /// Writes every dirty connection. One that fails is replaced once and its frames re-sent
    /// (whole frames; the automata dedupe); a second failure leaves them to the retransmit timer.
    fn flush(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for server in dirty.drain(..) {
            let failed = |conn: Option<&Conn>| conn.is_some_and(|c| c.flush().is_err());
            if failed(self.conns.get(&server)) && failed(self.reconnect(server).ok().as_ref()) {
                self.conns.remove(&server).iter().for_each(Conn::sever);
            }
        }
        self.dirty = dirty;
    }
}

impl Drop for PoolPeers {
    fn drop(&mut self) {
        for conn in self.conns.values() {
            let _ = conn.flush();
            conn.sever();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::contract::{self, reply, request, wait_until, LATE, SOON};
    use crate::transport::Transport;
    use shmem_sim::ClientId;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// A server on loopback and a pool that knows it.
    fn pair() -> (TcpServerTransport, TcpClientTransport) {
        let server = TcpServerTransport::bind(loopback()).unwrap();
        let client = TcpClientTransport::new(addr_table(vec![server.local_addr()]));
        (server, client)
    }

    #[test]
    fn request_reply_over_tcp() {
        let mut server = TcpServerTransport::bind(loopback()).unwrap();
        let table = addr_table(vec![server.local_addr()]);
        let mut client = TcpClientTransport::new(table);

        let req = Envelope {
            from: NodeId::Client(ClientId(9)),
            to: NodeId::Server(ServerId(0)),
            payload: vec![1, 2, 3],
        };
        client.send(&req).unwrap();
        let got = server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("request arrives");
        assert_eq!(got, req);

        // The learned route carries the reply back.
        let reply = Envelope {
            from: NodeId::Server(ServerId(0)),
            to: NodeId::Client(ClientId(9)),
            payload: vec![4, 5],
        };
        server.send(&reply).unwrap();
        let got = client
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("reply arrives");
        assert_eq!(got, reply);
    }

    #[test]
    fn garbage_closes_connection_but_not_server() {
        let mut server = TcpServerTransport::bind(loopback()).unwrap();
        let addr = server.local_addr();

        // A raw socket spraying garbage.
        {
            use std::io::Write;
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"this is not a frame at all........").unwrap();
        }

        // The server keeps serving well-formed traffic afterwards.
        let table = addr_table(vec![addr]);
        let mut client = TcpClientTransport::new(table);
        let req = Envelope {
            from: NodeId::Client(ClientId(1)),
            to: NodeId::Server(ServerId(0)),
            payload: vec![7],
        };
        client.send(&req).unwrap();
        let got = server.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, Some(req));
        // The garbage connection's reader thread counts on its own
        // schedule; nothing above waits for it.
        wait_until("the garbage is counted", || server.decode_errors() >= 1);
    }

    #[test]
    fn pool_reconnects_after_sever() {
        let mut server = TcpServerTransport::bind(loopback()).unwrap();
        let table = addr_table(vec![server.local_addr()]);
        let mut client = TcpClientTransport::new(table);
        let faults = client.faults();

        let env = Envelope {
            from: NodeId::Client(ClientId(0)),
            to: NodeId::Server(ServerId(0)),
            payload: vec![1],
        };
        client.send(&env).unwrap();
        assert!(server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_some());
        let before = faults.connects();

        faults.sever_all();
        // The next send notices the dead connection and re-establishes.
        client.send(&env).unwrap();
        assert!(server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_some());
        assert!(faults.connects() > before);

        // Sever while bytes are queued. With a reply waiting untaken the
        // next request is held back; the flush that then fails replaces
        // the connection and the frame arrives exactly as sent, once.
        server.send(&reply(0, vec![2])).unwrap();
        wait_until("the reply is in", || client.inbox.more());
        let held = request(0, vec![3; 100]);
        client.send(&held).unwrap();
        assert_eq!(server.recv_timeout(SOON).unwrap(), None, "held back");
        let before = faults.connects();
        faults.sever_all();
        assert_eq!(client.recv_timeout(LATE).unwrap(), Some(reply(0, vec![2])));
        assert_eq!(client.recv_timeout(SOON).unwrap(), None);
        assert_eq!(server.recv_timeout(LATE).unwrap(), Some(held));
        assert_eq!(server.recv_timeout(SOON).unwrap(), None, "sent once");
        assert_eq!(faults.connects(), before + 1);

        // The same when the next `send` finds the connection dead before
        // any flush has: what was queued moves to the new connection,
        // ahead of the new frame.
        server.send(&reply(0, vec![4])).unwrap();
        wait_until("the reply is in", || client.inbox.more());
        let (first, second) = (request(0, vec![5; 100]), request(0, vec![6]));
        client.send(&first).unwrap();
        faults.sever_all();
        client.send(&second).unwrap();
        assert_eq!(faults.connects(), before + 2);
        assert_eq!(server.recv_timeout(SOON).unwrap(), None, "both held back");
        assert_eq!(client.recv_timeout(LATE).unwrap(), Some(reply(0, vec![4])));
        assert_eq!(client.recv_timeout(SOON).unwrap(), None);
        assert_eq!(server.recv_timeout(LATE).unwrap(), Some(first));
        assert_eq!(server.recv_timeout(LATE).unwrap(), Some(second));
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

    /// One `read` may carry a good frame and garbage behind it: the frame
    /// is delivered, the garbage counted once, and only that connection
    /// closes.
    #[test]
    fn garbage_behind_a_frame_closes_only_its_connection() {
        use std::io::{Read, Write};
        let mut server = TcpServerTransport::bind(loopback()).unwrap();
        let mut client = TcpClientTransport::new(addr_table(vec![server.local_addr()]));
        client.send(&request(1, vec![1])).unwrap();
        assert_eq!(
            server.recv_timeout(LATE).unwrap(),
            Some(request(1, vec![1]))
        );

        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let mut bytes = crate::frame::encode_frame(&request(2, vec![2]));
        bytes.extend_from_slice(b"this is not a frame at all........");
        raw.write_all(&bytes).unwrap();
        assert_eq!(
            server.recv_timeout(LATE).unwrap(),
            Some(request(2, vec![2]))
        );
        wait_until("the garbage is counted", || server.decode_errors() == 1);
        // The raw connection reads end-of-stream (or a reset)…
        raw.set_read_timeout(Some(LATE)).unwrap();
        assert!(matches!(raw.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        // …while the pool's still carries traffic both ways.
        server.send(&reply(1, vec![3])).unwrap();
        assert_eq!(client.recv_timeout(LATE).unwrap(), Some(reply(1, vec![3])));
        client.send(&request(1, vec![4])).unwrap();
        assert_eq!(
            server.recv_timeout(LATE).unwrap(),
            Some(request(1, vec![4]))
        );
        assert_eq!(server.decode_errors(), 1);
        assert_eq!(client.faults().connects(), 1);
    }

    /// The client half of the shared reader: a server that answers with
    /// garbage is counted once, loses that connection, and the next
    /// `send` connects afresh.
    #[test]
    fn garbage_from_a_server_is_counted_and_the_pool_reconnects() {
        use std::io::Write;
        let listener = TcpListener::bind(loopback()).unwrap();
        let mut client = TcpClientTransport::new(addr_table(vec![listener.local_addr().unwrap()]));
        client.send(&request(0, vec![1])).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        assert_eq!(
            read_frame(&mut peer).unwrap(),
            Some(request(0, vec![1])),
            "the request arrives"
        );
        peer.write_all(b"this is not a frame at all........")
            .unwrap();
        wait_until("the garbage is counted", || client.decode_errors() == 1);
        wait_until("the connection is given up", || {
            !client.peers.conns[&0].alive.load(Ordering::Acquire)
        });
        assert_eq!(client.recv_timeout(SOON).unwrap(), None);

        client.send(&request(0, vec![2])).unwrap();
        assert_eq!(client.faults().connects(), 2);
        let (mut peer, _) = listener.accept().unwrap();
        assert_eq!(read_frame(&mut peer).unwrap(), Some(request(0, vec![2])));
        assert_eq!(client.decode_errors(), 1);
    }

    /// Every reconnect used to leave its predecessor's cloned socket in
    /// both registries for the life of the endpoint.
    #[test]
    fn dead_connections_leave_the_registries() {
        let mut server = TcpServerTransport::bind(loopback()).unwrap();
        let mut client = TcpClientTransport::new(addr_table(vec![server.local_addr()]));
        let faults = client.faults();
        let env = Envelope {
            from: NodeId::Client(ClientId(0)),
            to: NodeId::Server(ServerId(0)),
            payload: vec![1],
        };
        let live = |registry: &Registry| {
            let conns = registry.lock().unwrap();
            conns
                .iter()
                .filter(|c| c.alive.load(Ordering::Acquire))
                .count()
        };
        for cycle in 0..200 {
            client.send(&env).unwrap();
            let got = server.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.as_ref(), Some(&env), "cycle {cycle}");
            let held = (
                client.peers.registry.lock().unwrap().len(),
                server.peers.shared.conns.lock().unwrap().len(),
            );
            assert!(held.0 <= 2 && held.1 <= 2, "cycle {cycle}: {held:?} held");
            faults.sever_all();
            // The server's reader sees the reset on its own schedule;
            // once it has, the next accept has nothing live to keep.
            wait_until("the server notices the reset", || {
                live(&server.peers.shared.conns) == 0
            });
        }
        assert_eq!(faults.connects(), 200);
    }

    #[test]
    fn exhausted_backoff_reports_disconnected() {
        // A port with no listener: grab one, then drop it.
        let dead = TcpListener::bind(loopback()).unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);

        let mut client = TcpClientTransport::new(addr_table(vec![addr]));
        let env = Envelope {
            from: NodeId::Client(ClientId(0)),
            to: NodeId::Server(ServerId(0)),
            payload: vec![],
        };
        assert!(client.send(&env).is_err());
    }
}
