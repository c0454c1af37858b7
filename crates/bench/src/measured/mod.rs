//! Measured tables: real algorithm implementations run on the simulator (and,
//! for `tab-net`, over real transports) and confronted with the bounds. One
//! file per table or experiment id; none of them reads a clock.

use shmem_algorithms::abd::{Abd, AbdClient, AbdServer};
use shmem_algorithms::cas::{Cas, CasClient, CasConfig, CasServer};
use shmem_algorithms::value::ValueSpec;
use shmem_sim::{ServerId, Sim, SimConfig};

mod corrupt;
mod counting;
mod fuzz;
mod metrics;
mod nemesis;
mod net;
mod shapes;
mod shard;
mod storage;
mod store;

pub use corrupt::corrupt_table;
pub use counting::{constraint_table, multiwrite_table, probe_cache_table};
pub use fuzz::fuzz_table;
pub use metrics::metrics_table;
pub use nemesis::nemesis_table;
pub use net::net_table;
pub use shapes::{phases_table, traffic_table, workloads_table};
pub use shard::shard_table;
pub use storage::{gc_ablation_table, measured_table};
pub use store::store_storage_frontier;

/// CAS needs `2f < N`; when the requested `f` violates that, fall back to
/// the largest legal value so the measured tables still show a coded
/// datapoint.
fn cas_f_for(n: u32, f: u32) -> u32 {
    if 2 * f < n {
        f
    } else {
        (n - 1) / 2
    }
}

/// A gossip-free ABD world: `n` servers holding 0, `clients` clients.
fn abd_world(n: u32, clients: u32, spec: ValueSpec) -> Sim<Abd> {
    Sim::new(
        SimConfig::without_gossip(),
        (0..n).map(|_| AbdServer::new(0, spec)).collect(),
        (0..clients).map(|c| AbdClient::new(n, c)).collect(),
    )
}

/// A gossip-free CAS world with the native `k = N − 2f` code.
fn cas_world(n: u32, f: u32, clients: u32, spec: ValueSpec) -> Sim<Cas> {
    let cfg = CasConfig::native(n, f, spec);
    Sim::new(
        SimConfig::without_gossip(),
        (0..n)
            .map(|i| CasServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..clients).map(|c| CasClient::new(cfg, c)).collect(),
    )
}
