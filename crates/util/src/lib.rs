//! Dependency-free utility substrate for the workspace.
//!
//! The build environment is fully offline, so everything the repo needs
//! beyond the standard library lives here:
//!
//! * [`rng`] — a small, fast, seedable deterministic PRNG ([`rng::DetRng`],
//!   SplitMix64) used for seeded adversarial schedules and randomized
//!   tests. Determinism across platforms and runs is a hard requirement for
//!   the proof machinery (probe verdicts are memoized by digest).
//! * [`par`] — the deterministic indexed fan-out every worker-count
//!   invariant sweep runs on ([`par::map_indexed`]).
//! * [`prop`] — a miniature property-testing harness with a
//!   `proptest!`-compatible macro surface (strategies over ranges, vectors,
//!   tuples, `prop_map`/`prop_flat_map`, `Just`, weighted booleans).
//! * [`json`] — a tiny JSON emitter and parser for the table/figure
//!   exporters and the nemesis counterexample corpus.
//! * [`cli`] — a tiny clap-style argument parser for the workspace
//!   binaries (`--key value` options, flags, `--help`).
//! * [`shrink`] — counterexample minimization (ddmin delta debugging and
//!   scalar shrinking), the shrinking hook the property harness itself
//!   omits.
//! * [`tamper`] — the canonical corruption-adversary byte tamper, defined
//!   once so the simulator, the shared store, and the network layer
//!   corrupt payloads byte-identically.

#![forbid(unsafe_code)]

pub mod cli;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;
pub mod shrink;
pub mod tamper;

pub use rng::DetRng;
pub use tamper::{tamper_bytes, tamper_mix, tamper_value};
