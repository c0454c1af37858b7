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
//! Both ends are best-effort: delivery failures drop the message (the
//! client layer retransmits; the protocols dedupe), and only an
//! exhausted reconnect budget surfaces as [`NetError::Disconnected`].

use crate::error::NetError;
use crate::frame::{read_frame, write_frame, Envelope};
use crate::transport::{recv_from, Transport};
use shmem_sim::{NodeId, ServerId};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
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
    mut stream: TcpStream,
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
        let _ = stream.shutdown(Shutdown::Both);
    });
}

/// One pooled connection: a shared write half plus a liveness flag its
/// reader thread clears on failure.
#[derive(Clone)]
struct Conn {
    stream: Arc<Mutex<TcpStream>>,
    alive: Arc<AtomicBool>,
}

impl Conn {
    /// Takes over a fresh `stream` at either end: keeps a clone as the
    /// write half and hands the stream to [`spawn_reader`].
    fn open(
        stream: TcpStream,
        decode_errors: Arc<AtomicU64>,
        deliver: impl FnMut(&Conn, Envelope) -> bool + Send + 'static,
    ) -> Result<Conn, NetError> {
        let _ = stream.set_nodelay(true);
        let conn = Conn {
            stream: Arc::new(Mutex::new(
                stream.try_clone().map_err(|e| NetError::io(&e))?,
            )),
            alive: Arc::new(AtomicBool::new(true)),
        };
        spawn_reader(stream, conn.clone(), decode_errors, deliver);
        Ok(conn)
    }

    fn write(&self, env: &Envelope) -> Result<(), NetError> {
        let mut guard = self.stream.lock().expect("conn stream poisoned");
        write_frame(&mut *guard, env)
    }

    fn sever(&self) {
        self.alive.store(false, Ordering::Release);
        let guard = self.stream.lock().expect("conn stream poisoned");
        let _ = guard.shutdown(Shutdown::Both);
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
pub struct TcpServerTransport {
    inbox_rx: Receiver<Envelope>,
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
        let (inbox_tx, inbox_rx) = mpsc::channel::<Envelope>();
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
                            Arc::clone(&accept_shared.decode_errors),
                            move |conn, env| {
                                routes
                                    .routes
                                    .lock()
                                    .expect("server routes poisoned")
                                    .insert(env.from, conn.clone());
                                inbox.send(env).is_ok()
                            },
                        );
                        // A socket that cannot be cloned (descriptors
                        // exhausted) is dropped; the listener lives on.
                        if let Ok(conn) = conn {
                            register(&accept_shared.conns, conn);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(TcpServerTransport {
            inbox_rx,
            shared,
            local_addr,
        })
    }

    /// The bound socket address (with the real port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Count of connections dropped for sending undecodable bytes.
    pub fn decode_errors(&self) -> u64 {
        self.shared.decode_errors.load(Ordering::Relaxed)
    }
}

impl Transport for TcpServerTransport {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let conn = {
            let routes = self.shared.routes.lock().expect("server routes poisoned");
            routes.get(&env.to).cloned()
        };
        let Some(conn) = conn else {
            // Unknown peer: it never spoke to us, or its connection died.
            // Best-effort delivery drops the message.
            return Ok(());
        };
        if !conn.alive.load(Ordering::Acquire) || conn.write(env).is_err() {
            conn.sever();
            let mut routes = self.shared.routes.lock().expect("server routes poisoned");
            routes.remove(&env.to);
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        recv_from(&self.inbox_rx, timeout)
    }
}

impl Drop for TcpServerTransport {
    fn drop(&mut self) {
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
pub struct TcpClientTransport {
    addrs: AddrTable,
    conns: HashMap<usize, Conn>,
    inbox_tx: Sender<Envelope>,
    inbox_rx: Receiver<Envelope>,
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
        let (inbox_tx, inbox_rx) = mpsc::channel();
        TcpClientTransport {
            addrs,
            conns: HashMap::new(),
            inbox_tx,
            inbox_rx,
            decode_errors: Arc::new(AtomicU64::new(0)),
            connects: Arc::new(AtomicU64::new(0)),
            registry: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A fault-injection handle sharing this pool's connection registry.
    pub fn faults(&self) -> PoolFaults {
        PoolFaults {
            registry: Arc::clone(&self.registry),
            connects: Arc::clone(&self.connects),
        }
    }

    fn connect(&mut self, server: usize) -> Result<Conn, NetError> {
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
                    let inbox = self.inbox_tx.clone();
                    let conn =
                        Conn::open(stream, Arc::clone(&self.decode_errors), move |_, env| {
                            inbox.send(env).is_ok()
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

    fn conn_for(&mut self, server: usize) -> Result<Conn, NetError> {
        if let Some(conn) = self.conns.get(&server) {
            if conn.alive.load(Ordering::Acquire) {
                return Ok(conn.clone());
            }
            self.conns.remove(&server);
        }
        self.connect(server)
    }
}

impl Transport for TcpClientTransport {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let NodeId::Server(ServerId(idx)) = env.to else {
            // Clients only talk to servers; anything else is dropped.
            return Ok(());
        };
        let server = idx as usize;
        let conn = self.conn_for(server)?;
        if conn.write(env).is_err() {
            conn.sever();
            self.conns.remove(&server);
            // One reconnect-and-retry; a second failure drops the
            // message and lets the retransmit timer try again later.
            let conn = self.connect(server)?;
            if conn.write(env).is_err() {
                conn.sever();
                self.conns.remove(&server);
            }
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        recv_from(&self.inbox_rx, timeout)
    }
}

impl Drop for TcpClientTransport {
    fn drop(&mut self) {
        for conn in self.conns.values() {
            conn.sever();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::ClientId;
    use std::time::Instant;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// Spins until `cond` holds; panics after five seconds.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
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
                client.registry.lock().unwrap().len(),
                server.shared.conns.lock().unwrap().len(),
            );
            assert!(held.0 <= 2 && held.1 <= 2, "cycle {cycle}: {held:?} held");
            faults.sever_all();
            // The server's reader sees the reset on its own schedule;
            // once it has, the next accept has nothing live to keep.
            wait_until("the server notices the reset", || {
                live(&server.shared.conns) == 0
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
