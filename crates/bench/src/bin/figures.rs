//! Regenerates every figure and table of the paper's evaluation.
//!
//! ```text
//! figures [all|<id>...] [--csv DIR] [--json DIR]
//! ```
//!
//! The ids are the keys of `TABLES` (an unknown id prints them);
//! EXPERIMENTS.md says what each one shows. With `--csv DIR` /
//! `--json DIR`, each table is also written as `DIR/<id>.csv` /
//! `DIR/<id>.json`.

use shmem_bench::fig1::{as_table, paper_figure1};
use shmem_bench::render::{render_csv, render_json, render_text, Table};
use shmem_bench::{measured, tables};
use shmem_bounds::SystemParams;
use std::path::PathBuf;

/// Figure 1's parameters.
fn p21() -> SystemParams {
    SystemParams::new(21, 10).expect("paper parameters")
}

/// Worker threads for the sweeps whose verdicts are worker-count invariant.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

type Generator = fn() -> Table;

/// Every table id and its generator, in the order `all` renders them.
const TABLES: &[(&str, Generator)] = &[
    ("fig1", || as_table(p21(), &paper_figure1())),
    ("tab-finite-v", || {
        tables::finite_v_table(p21(), 3, &[8, 16, 32, 64, 256, 4096])
    }),
    ("tab-ratio", || {
        tables::ratio_table(10, &[21, 31, 51, 101, 501, 1001, 10001])
    }),
    ("tab-crossover", || {
        tables::crossover_table(&[
            (5, 2),
            (7, 3),
            (9, 4),
            (21, 10),
            (31, 10),
            (51, 25),
            (101, 50),
            (101, 10),
        ])
    }),
    ("tab-measured", || {
        measured::measured_table(5, 2, &[1, 2, 3, 4], 42)
    }),
    ("tab-constraint", || measured::constraint_table(5, 2, 4, 2)),
    ("tab-multiwrite", || measured::multiwrite_table(4, 6)),
    ("tab-section7", || tables::section7_table(p21(), 16)),
    ("tab-gc", || {
        measured::gc_ablation_table(5, 1, 3, &[0, 1, 2, 4], 9)
    }),
    ("tab-phases", measured::phases_table),
    ("tab-workloads", || measured::workloads_table(7)),
    ("tab-traffic", measured::traffic_table),
    ("tab-probe-cache", || {
        measured::probe_cache_table(5, 2, 4, 2)
    }),
    ("tab-nemesis", || {
        measured::nemesis_table(100_000, workers())
    }),
    ("tab-corrupt", || measured::corrupt_table(1000, workers())),
    ("tab-metrics", || {
        measured::metrics_table(5, 1, &[1, 2, 3], 42)
    }),
    ("tab-fuzz", || measured::fuzz_table(21, 100_000, workers())),
    ("tab-shard", || measured::shard_table(42)),
    ("tab-net", || measured::net_table(42)),
];

fn generator(id: &str) -> Option<Generator> {
    TABLES.iter().find(|(name, _)| *name == id).map(|(_, f)| *f)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--csv" {
            csv_dir = Some(PathBuf::from(
                it.next().expect("--csv requires a directory"),
            ));
        } else if a == "--json" {
            json_dir = Some(PathBuf::from(
                it.next().expect("--json requires a directory"),
            ));
        } else {
            which.push(a);
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = TABLES.iter().map(|(id, _)| id.to_string()).collect();
    }

    for id in &which {
        let Some(generate) = generator(id) else {
            let ids: Vec<&str> = TABLES.iter().map(|(id, _)| *id).collect();
            eprintln!("unknown table id: {id}\nvalid ids: all {}", ids.join(" "));
            std::process::exit(2);
        };
        let table = generate();
        println!("{}", render_text(&table));
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{id}.csv"));
            std::fs::write(&path, render_csv(&table)).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = dir.join(format!("{id}.json"));
            std::fs::write(&path, render_json(&table)).expect("write json");
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_documented() {
        let experiments = include_str!("../../../../EXPERIMENTS.md");
        for (i, (id, _)) in TABLES.iter().enumerate() {
            assert!(
                TABLES[..i].iter().all(|(earlier, _)| earlier != id),
                "duplicate table id {id}"
            );
            assert!(
                experiments.contains(&format!("`{id}`")),
                "EXPERIMENTS.md does not mention `{id}`"
            );
        }
    }

    /// No table has a timed column, so rendering one twice in a process
    /// gives the same bytes. (`tab-nemesis`, `tab-corrupt` and `tab-fuzz`
    /// have their own worker-invariance suites; `tab-net` runs real
    /// threads and sockets, and its retransmit count may differ.)
    #[test]
    fn tables_render_byte_identically_twice() {
        for id in [
            "tab-measured",
            "tab-constraint",
            "tab-multiwrite",
            "tab-gc",
            "tab-phases",
            "tab-workloads",
            "tab-traffic",
            "tab-metrics",
            "tab-shard",
            "tab-probe-cache",
        ] {
            let generate = generator(id).expect("registered id");
            let render = || render_csv(&generate());
            assert_eq!(render(), render(), "{id} differs between two renders");
        }
    }
}
