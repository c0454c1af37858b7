//! Run the shared-memory emulations over a real network.
//!
//! The simulator (`shmem-sim`) executes the ABD/CAS/hashed automata
//! under an adversarial scheduler; this crate executes the *same,
//! unchanged* automata over actual message transports — in-process
//! channels or real TCP sockets — and proves the two worlds equivalent
//! by feeding net-mode invocation/response histories to the same
//! `shmem-spec` atomicity checkers the simulator uses.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — a strict binary codec for every protocol message type
//!   (`decode(encode(m)) == m`, hostile input rejected as errors).
//! * [`frame`] — length-prefixed frames with source/destination routing.
//! * [`transport`] — the [`transport::Transport`] trait, the one
//!   [`transport::Endpoint`] (the bounded inbox every endpoint receives
//!   into and the rule it delivers by), and the in-process hub backend.
//! * [`corrupt`] — the Byzantine corruption seam: a transport decorator
//!   that tampers value-bearing payloads post-codec, driven by the same
//!   protocol hooks and salts as the simulator's adversary.
//! * [`tcp`] — the TCP backend: listener + reader threads server-side, a
//!   reconnecting pool client-side, one write per connection per flush.
//! * [`serve`] — the server event loop adapting a `Protocol` automaton
//!   to a transport via the `Ctx::new` hook.
//! * [`client`] — logical clients multiplexed over worker threads, with
//!   retransmission and retire-on-timeout (crash-stop clients).
//! * [`harness`] — cluster orchestration, fault injection (kill/restart
//!   servers, sever connections), load generation, storage probes.
//!
//! The `shmem-server` / `shmem-client` binaries expose the same pieces
//! on the command line.

pub mod client;
pub mod corrupt;
pub mod error;
pub mod frame;
pub mod harness;
pub mod serve;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use client::{LoadConfig, WorkerReport};
pub use corrupt::{CorruptingTransport, NetCorruption};
pub use error::{FrameError, NetError, WireError};
pub use frame::Envelope;
pub use harness::{
    run_remote, serve_forever, LoadHandle, NetAlgorithm, NetBackend, NetCluster, NetOutcome,
    NetRunReport, NetScenario,
};
pub use serve::{serve_until, ServeStats};
pub use tcp::{addr_table, AddrTable, PoolFaults, TcpClientTransport, TcpServerTransport};
pub use transport::{InProcHub, Transport};
pub use wire::{WireMsg, WireReader, WireWriter};
