//! `shmem-ledger` — see `benchmark/README.md`.
//!
//! ```text
//! shmem-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--append <set.json>]
//! shmem-ledger compare <a.json> <b.json>
//! shmem-ledger repeat [--sets 2] [--runs 10] [--seed 1] [--seconds 30] [--workloads a,b]
//! ```

use shmem_ledger::catalog::{self, PER_LAYER, RUN_SECONDS, WORKLOADS};
use shmem_ledger::proc;
use shmem_ledger::{layers, report, run};
use shmem_util::cli::{Cli, CliError, Parsed};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Where span files and set files go: `out/` beside this package's
/// manifest, inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn fail(message: &str) -> ExitCode {
    eprintln!("shmem-ledger: {message}");
    ExitCode::FAILURE
}

/// Parses `args`, or says which exit code `--help` / a bad option ends in.
fn parse(cli: &Cli, args: impl Iterator<Item = String>) -> Result<Parsed, ExitCode> {
    cli.parse(args).map_err(|e| match e {
        CliError::Help(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        CliError::Invalid(msg) => fail(&msg),
    })
}

/// One workload in this process: the driver's contract. Prints the
/// metrics as a table, then the result line as the last line of stdout.
/// Any correctness failure exits non-zero with no result line.
fn one_workload(clock: Instant, args: impl Iterator<Item = String>) -> ExitCode {
    // Before anything spawns a thread: threads inherit the affinity.
    let pinned = proc::pin_to_one_cpu();
    let seconds_default = RUN_SECONDS.to_string();
    let cli = Cli::new("shmem-ledger", "measure one workload in this process")
        .req("workload", "workload name (see benchmark/README.md)")
        .opt("seed", "1", "seed of every generated input")
        .opt(
            "seconds",
            &seconds_default,
            "run-time budget: how many fixed-size rounds fit",
        )
        .opt(
            "trace",
            "0",
            "0: end-to-end metrics, undecorated; 1: per-layer metrics, one extra decorated round",
        )
        .opt(
            "append",
            "",
            "also append the run's end-to-end metrics to this set file",
        );
    let parsed = match parse(&cli, args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let (workload, seed) = (parsed.get("workload"), parsed.get_u64("seed"));
    let Ok(seconds) = parsed.get("seconds").parse::<f64>() else {
        return fail("--seconds takes a number");
    };
    let (measured, line) = match parsed.get("trace") {
        "0" => match run::measure(workload, seed, seconds, clock, run::MIN_ROUNDS, 0.0) {
            Ok(measured) => {
                print!("{}", report::end_to_end_table(&measured));
                for (name, unit, value) in layers::diagnostics(&measured) {
                    println!("  {name:<44} {value:>16.4} {unit}");
                }
                let values: Vec<(&str, &str, f64)> = measured
                    .end_to_end()
                    .iter()
                    .map(|(m, r)| (m.name, m.unit, r.value))
                    .collect();
                let line = report::result_line(measured.attempted(), &values);
                (measured, line)
            }
            Err(e) => return fail(&format!("{workload}: {e}")),
        },
        "1" => match layers::trace_pass(workload, seed, seconds, clock, &pinned, &out_dir()) {
            Ok(pass) => {
                print!("{}", report::end_to_end_table(&pass.run));
                print!("{}", report::per_layer_table(workload, &pass.values));
                let values: Vec<(&str, &str, f64)> = PER_LAYER
                    .iter()
                    .zip(&pass.values)
                    .map(|(m, &v)| (m.name, m.unit, v))
                    .collect();
                (pass.run, report::result_line(pass.attempted, &values))
            }
            Err(e) => return fail(&format!("{workload}: {e}")),
        },
        other => return fail(&format!("--trace takes 0 or 1, not `{other}`")),
    };
    let set = parsed.get("append");
    if !set.is_empty() {
        if let Err(e) = report::append_to_set(Path::new(set), &measured) {
            return fail(&e);
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn compare(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(a), Some(b), None) = (args.next(), args.next(), args.next()) else {
        return fail("usage: shmem-ledger compare <a.json> <b.json>");
    };
    match report::compare(Path::new(&a), Path::new(&b)) {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                fail("at least one pairing regressed")
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}

/// Runs every workload `runs` times for each of `sets` sets of this same
/// binary — one child process per run, the sets alternated run by run,
/// every run under another seed — then prints each cell's interquartile
/// spread and, for two sets, their comparison.
fn repeat(args: impl Iterator<Item = String>) -> ExitCode {
    let seconds_default = RUN_SECONDS.to_string();
    let cli = Cli::new("shmem-ledger repeat", "does this commit agree with itself?")
        .opt("sets", "2", "sets of runs, alternated run by run")
        .opt("runs", "10", "runs per set and workload")
        .opt(
            "seed",
            "1",
            "seed of the first run; every run takes the next",
        )
        .opt("seconds", &seconds_default, "run-time budget of every run")
        .opt(
            "workloads",
            "",
            "comma-separated workloads to run (default: all)",
        );
    let parsed = match parse(&cli, args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    // The children confine themselves to one CPU; so does the parent, so
    // that the fingerprint's host reading is taken the way theirs are.
    let _pinned = proc::pin_to_one_cpu();
    let (sets, runs) = (parsed.get_usize("sets"), parsed.get_usize("runs"));
    let only = parsed.get_list("workloads");
    if let Some(unknown) = only.iter().find(|name| catalog::workload(name).is_none()) {
        return fail(&format!("unknown workload `{unknown}`"));
    }
    println!("machine: {}", proc::fingerprint());
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot find my own executable: {e}")),
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        return fail(&format!("cannot create {}: {e}", out_dir().display()));
    }
    let files: Vec<PathBuf> = (0..sets)
        .map(|k| out_dir().join(format!("set-{k}.json")))
        .collect();
    for file in &files {
        let _ = std::fs::remove_file(file);
    }
    let mut seed = parsed.get_u64("seed");
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_empty() || only.iter().any(|name| name == w.name))
    {
        for run in 0..runs {
            for (k, file) in files.iter().enumerate() {
                // `output()` waits for the child: none outlives this loop.
                let child = Command::new(&exe)
                    .args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", parsed.get("seconds"), "--trace", "0"])
                    .arg("--append")
                    .arg(file)
                    .output();
                match child {
                    Ok(o) if o.status.success() => {
                        println!("{} set {k} run {run} seed {seed}: done", w.name);
                    }
                    Ok(o) => {
                        return fail(&format!(
                            "{} seed {seed}: child exited with {}: {}",
                            w.name,
                            o.status,
                            String::from_utf8_lossy(&o.stderr).trim()
                        ));
                    }
                    Err(e) => return fail(&format!("{}: cannot spawn child: {e}", w.name)),
                }
                seed += 1;
            }
        }
    }
    let paths: Vec<&Path> = files.iter().map(PathBuf::as_path).collect();
    let held = match report::spreads(&paths) {
        Ok((table, held)) => {
            print!("{table}");
            held
        }
        Err(e) => return fail(&e),
    };
    let mut agreed = true;
    if let [a, b] = paths[..] {
        match report::compare(a, b) {
            Ok((table, regressed)) => {
                print!("{table}");
                agreed = !regressed;
            }
            Err(e) => return fail(&e),
        }
    }
    match (held, agreed) {
        (true, true) => ExitCode::SUCCESS,
        (false, _) => fail("a cell's interquartile spread exceeds its bound (marked `!`)"),
        (true, false) => fail("the two sets of the same commit disagree"),
    }
}

fn main() -> ExitCode {
    let clock = Instant::now();
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("compare") => compare(args.skip(1)),
        Some("repeat") => repeat(args.skip(1)),
        _ => one_workload(clock, args),
    }
}
