//! `shmem-ledger`: the repo's benchmark. See `benchmark/README.md`.

pub mod alloc;
pub mod catalog;
pub mod layers;
pub mod net;
pub mod proc;
pub mod report;
pub mod run;
pub mod sim_sweep;
pub mod stats;
pub mod trace;

/// Always on, in every binary that links this crate, so both sides of a
/// comparison pay for the counting.
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
