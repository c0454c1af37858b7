//! Step-throughput regression gate (`perf-smoke`).
//!
//! Measures the `tab-simperf` configurations and gates on *same-run
//! ratios*, never on absolute nanoseconds: each cell's min-of-trials
//! ns/step divided by the min ns/iteration of a fixed calibration loop
//! timed in this process on either side of the cell, plus two ratios
//! between normalized cells (metered ÷ plain, n = 21 ÷ n = 5). A faster,
//! slower or busier machine moves numerator and denominator together, so
//! the limits below hold on any box; a real regression — say the hot
//! loop reacquiring a per-step `Arc::make_mut` — moves only the
//! numerator. Each limit is about twice the ratio measured when it was
//! set, the same deliberately loose tolerance the gate has always had,
//! so shared CI runners don't flap.
//!
//! The run also writes `results/tab-simperf.{csv,json}` so the run that
//! gated is the run that is recorded.

use shmem_bench::measured::{shardperf_cell, simperf_cell, simperf_table, SimperfCell};
use shmem_bench::render::{render_csv, render_json};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Trials per cell; more than the figures default because a gate wants
/// its min-of-trials estimator saturated.
const TRIALS: u32 = 15;
/// Writes per trial.
const WRITES: u32 = 50;

/// The gated single-register cells: (n, f, fault permille, metered) and
/// the limit on min ns/step ÷ calibration ns/iteration.
const CELLS: &[(u32, u32, u32, bool, f64)] = &[
    (5, 2, 0, false, 6.0),
    (21, 10, 0, false, 6.0),
    (21, 10, 0, true, 18.0),
    (21, 10, 100, false, 8.0),
];
/// Limit for the batched multi-key cell: a Zipf batch-16 workload over a
/// metered two-shard sharded ABD keyspace (see `shardperf_cell`).
const SHARD_LIMIT: f64 = 140.0;
/// Limit on metered ÷ plain at n = 21: what full metering may cost.
const METERED_OVER_PLAIN: f64 = 6.0;
/// Limit on n = 21 ÷ n = 5, plain: a step must not grow with the cluster.
const N21_OVER_N5: f64 = 2.0;

/// Min-of-trials ns per iteration of a fixed loop: small buffers of
/// mixed sizes allocated into a queue and freed off its other end — the
/// allocator and queue traffic a simulator step is made of, with nothing
/// of the simulator in it. (A pure ALU or load-latency chain does not
/// do: a busy sibling hyperthread halves the simulator's speed and this
/// loop's, but barely touches a dependent chain's.)
fn calibration_ns() -> f64 {
    const ITERS: usize = 1 << 16;
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
        let start = Instant::now();
        for i in 0..ITERS {
            queue.push_back(vec![i as u8; 24 + (i % 5) * 16]);
            if queue.len() > 32 {
                black_box(queue.pop_front());
            }
        }
        black_box(&queue);
        best = best.min(start.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

fn key(n: u32, f: u32, fault_permille: u32, metered: bool) -> String {
    format!(
        "n{n}_f{f}_fault{fault_permille}_{}",
        if metered { "metered" } else { "plain" }
    )
}

fn main() {
    // Write the full table first so every run leaves the artifacts the
    // evaluation references.
    let table = simperf_table(9, WRITES);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/tab-simperf.csv", render_csv(&table)).expect("write csv");
    std::fs::write("results/tab-simperf.json", render_json(&table)).expect("write json");
    println!("wrote results/tab-simperf.{{csv,json}}");

    // A cell's min ns/step over the slower of the calibrations on either
    // side of it: if the machine slowed down under the cell, one of them
    // saw it too.
    let mut before = calibration_ns();
    let mut normalized = |name: &str, cell: SimperfCell| {
        let after = calibration_ns();
        let calib = before.max(after);
        before = after;
        println!(
            "{name:<28} {:>6} ns/step (median {} ns, {} events/trial, calibration {calib:.1} ns)",
            cell.min_ns, cell.median_ns, cell.events
        );
        cell.min_ns as f64 / calib
    };
    let mut ratios = Vec::new();
    for &(n, f, fault, metered, limit) in CELLS {
        let name = key(n, f, fault, metered);
        let ratio = normalized(&name, simperf_cell(n, f, fault, metered, TRIALS, WRITES));
        ratios.push((format!("{name} ÷ calibration"), ratio, limit));
    }
    let shard = normalized("shard_n10x2_b16_metered", shardperf_cell(TRIALS, 8));
    ratios.push((
        "shard_n10x2_b16_metered ÷ calibration".into(),
        shard,
        SHARD_LIMIT,
    ));
    // CELLS order: n5 plain, n21 plain, n21 metered, n21 faulty.
    let (n5, n21, n21_metered) = (ratios[0].1, ratios[1].1, ratios[2].1);
    ratios.push((
        "metered ÷ plain (n=21)".into(),
        n21_metered / n21,
        METERED_OVER_PLAIN,
    ));
    ratios.push(("n=21 ÷ n=5 (plain)".into(), n21 / n5, N21_OVER_N5));

    let mut failed = false;
    for (what, ratio, limit) in ratios {
        if ratio > limit {
            eprintln!("FAIL {what}: {ratio:.2} > {limit}");
            failed = true;
        } else {
            println!("ok   {what}: {ratio:.2} ≤ {limit}");
        }
    }
    if failed {
        eprintln!("perf-smoke: step-throughput regression detected");
        std::process::exit(1);
    }
    println!("perf-smoke: every ratio within its limit");
}
