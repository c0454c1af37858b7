//! Protocol markers binding the sharded automata to the shared store
//! backends.
//!
//! [`StoreAbd`] / [`StoreCas`] / [`StoreHashed`] are drop-in siblings of
//! `ShardedAbd` / `ShardedCas` / `ShardedHashed`: same wire messages,
//! same clients, same invocation types — only the server's state backend
//! differs. Anything generic over `Protocol` (the simulator, the net
//! harness, the differential tests) runs them unchanged.

use crate::striped::{StoreAbdBackend, StoreCasBackend, StoreHashedBackend};
use shmem_algorithms::abd::{ShardedAbdClient, ShardedAbdMsg, ShardedAbdServerOn};
use shmem_algorithms::cas::{ShardedCasClient, ShardedCasMsg, ShardedCasServerOn};
use shmem_algorithms::hashed::{ShardedHashedClient, ShardedHashedMsg, ShardedHashedServerOn};
use shmem_algorithms::multikey::{MultiInv, MultiResp};
use shmem_sim::Protocol;

/// Sharded ABD over the shared register store.
pub struct StoreAbd;

impl Protocol for StoreAbd {
    type Msg = ShardedAbdMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedAbdServerOn<StoreAbdBackend>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &ShardedAbdMsg) -> u64 {
        msg.wire_bytes()
    }
}

/// Sharded CAS over the shared coded store.
pub struct StoreCas;

impl Protocol for StoreCas {
    type Msg = ShardedCasMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedCasServerOn<StoreCasBackend>;
    type Client = ShardedCasClient;

    fn msg_wire_bytes(msg: &ShardedCasMsg) -> u64 {
        msg.wire_bytes()
    }
}

/// Sharded hashed CAS over the shared coded store + hash side-table.
pub struct StoreHashed;

impl Protocol for StoreHashed {
    type Msg = ShardedHashedMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedHashedServerOn<StoreHashedBackend>;
    type Client = ShardedHashedClient;

    fn msg_wire_bytes(msg: &ShardedHashedMsg) -> u64 {
        msg.wire_bytes()
    }
}
