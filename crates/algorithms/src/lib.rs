//! Shared-memory emulation algorithms over the [`shmem_sim`] substrate,
//! instrumented for storage cost.
//!
//! These are the algorithms the paper's bounds are confronted with:
//!
//! * [`abd`] — the Attiya–Bar-Noy–Dolev replication algorithm \[3\]
//!   (multi-writer multi-reader atomic register; every server stores one
//!   `(tag, value)` pair). Its total storage is `Θ(N)·log2|V|`
//!   (`(f+1)·log2|V|` on a minimal replica set), independent of write
//!   concurrency.
//! * [`cas`] — Coded Atomic Storage \[5, 6\]: servers store Reed–Solomon
//!   codeword symbols of `log2|V|/k` bits per version, `k ≤ N − 2f`; with
//!   garbage collection ([`cas::CasConfig::gc_depth`], i.e. CASGC) at most
//!   `δ + 1` finalized versions are retained.
//! * [`lossy`] — a deliberately *incorrect* cheap algorithm (servers store
//!   only `b < log2|V|` bits of the value). It under-runs the paper's
//!   bounds and correspondingly violates regularity — the falsification
//!   target for the proof machinery in `shmem-core`.
//!
//! The register interface is uniform: [`reg::RegInv`] / [`reg::RegResp`]
//! invocations carrying [`value::Value`]s, and [`harness`] builds clusters,
//! drives workloads, and extracts [`shmem_spec`] histories.

pub mod abd;
pub mod abd_gossip;
pub mod backend;
pub mod cas;
pub mod corrupt;
pub mod harness;
pub mod hashed;
pub mod lossy;
pub mod multikey;
pub mod nemesis;
pub mod nowriteback;
pub mod reg;
pub mod swmr;
pub mod tag;
pub mod value;
pub mod workloads;

pub use backend::{AbdBackend, Absorb, CasBackend, HashedBackend, LocalAbd, LocalCas, LocalHashed};
pub use harness::{AbdCluster, CasCluster, GossipCluster, HashedCluster, LossyCluster, NwbCluster};
pub use harness::{ShardedAbdCluster, ShardedCasCluster, ShardedHashedCluster};
pub use multikey::{project_histories, Key, MultiInv, MultiResp, ShardMap};
pub use reg::{RegInv, RegResp};
pub use tag::Tag;
pub use value::{Value, ValueSpec};
