//! Figure and table generators reproducing the paper's evaluation.
//!
//! The paper's quantitative content is Figure 1 plus the corollaries'
//! finite-`|V|` forms and the Section 2/7 comparisons. Each generator here
//! returns typed rows (so tests can assert on them) and the
//! `figures` binary renders them as aligned text and CSV.
//!
//! | Generator | Paper artifact | Experiment id (DESIGN.md) |
//! |---|---|---|
//! | [`fig1::figure1`] | Figure 1 | E1 |
//! | [`tables::finite_v_table`] | Corollaries B.2/4.2/5.2/6.6 exact forms | E2 |
//! | [`tables::ratio_table`] | §2.2 "twice as strong" | E3 |
//! | [`tables::crossover_table`] | §2.3 coding/replication crossover | E4 |
//! | [`measured::measured_table`] | measured ABD/CAS/CASGC vs bounds | E5, E6 |
//! | [`measured::constraint_table`] | Thm B.1/4.1 counting verification | E7 |
//! | [`measured::multiwrite_table`] | §6 staged construction | E8 |
//! | [`measured::probe_cache_table`] | probe-engine cost on E7/E8 verifiers | — |
//! | [`tables::section7_table`] | §7 trichotomy | E9 |
//! | [`measured::phases_table`] | §6.1 write-phase structure | E11 |
//! | [`measured::gc_ablation_table`] | CASGC gc-depth ablation | E12 |
//! | [`measured::workloads_table`] | workload shapes and measured ν | E13 |
//! | [`measured::traffic_table`] | messages per operation | E14 |
//! | [`measured::nemesis_table`] | consistency under fault schedules | E15 |
//! | [`measured::metrics_table`] | message/operation accounting | E16 |
//! | [`measured::fuzz_table`] | coverage-guided vs random fault search | E17 |
//! | [`measured::shard_table`] | batched rounds over a sharded keyspace | E19 |
//! | [`measured::net_table`] | the emulations over real transports | E20 |
//! | [`measured::store_storage_frontier`] | shared store on the `N/(N−f)` frontier | E21 |
//! | [`measured::corrupt_table`] | corruption adversary verdicts | E22 |
//!
//! No generator reads a clock: wall-clock numbers are the ledger's
//! (`BENCHMARK.json`), and same-run ratio gates are the `perf_smoke` binary's.

#![forbid(unsafe_code)]

pub mod fig1;
pub mod measured;
pub mod render;
pub mod tables;

pub use fig1::{figure1, Fig1Row};
pub use render::{render_csv, render_json, render_text, Table};
