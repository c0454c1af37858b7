//! One emulation server over TCP.
//!
//! ```text
//! shmem-server --algo abd --index 0 --addr 127.0.0.1:7000 --n 5 --f 1
//! ```
//!
//! Prints `listening on <addr>` once bound (with the real port when
//! `--addr` ends in `:0`), then serves until killed. Server state is
//! in-memory; restarting a killed server starts fresh, so production
//! use pairs this with `f`-bounded concurrent failures, exactly like
//! the paper's model.

#![forbid(unsafe_code)]

use shmem_net::{serve_forever, NetAlgorithm, NetBackend, NetScenario};
use shmem_util::cli::Cli;

fn main() {
    let cli = Cli::new(
        "shmem-server",
        "one shared-memory emulation server over TCP",
    )
    .opt("algo", "abd", "algorithm: abd | cas | coded-cas | hashed")
    .opt("index", "0", "this server's index in 0..n")
    .opt("addr", "127.0.0.1:0", "listen address (port 0 = ephemeral)")
    .opt("n", "5", "total servers")
    .opt("f", "1", "failure tolerance")
    .opt("shards", "1", "shards (1 = every server covers every key)")
    .opt(
        "replicas",
        "5",
        "replicas per shard (ignored when shards=1)",
    )
    .opt("initial", "0", "register initial value");
    let args = cli.parse_or_exit();

    let Some(algorithm) = NetAlgorithm::parse(args.get("algo")) else {
        eprintln!("error: unknown --algo `{}`", args.get("algo"));
        std::process::exit(2);
    };
    let addr = match args.get("addr").parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bad --addr `{}`: {e}", args.get("addr"));
            std::process::exit(2);
        }
    };

    let mut scenario = NetScenario::new(algorithm, NetBackend::Tcp);
    scenario.n = args.get_u32("n");
    scenario.f = args.get_u32("f");
    scenario.shards = args.get_u32("shards");
    scenario.replicas = args.get_u32("replicas");
    scenario.initial = args.get_u64("initial");

    let index = args.get_u32("index");
    if index >= scenario.n {
        eprintln!("error: --index {index} out of range 0..{}", scenario.n);
        std::process::exit(2);
    }

    if let Err(e) = serve_forever(&scenario, index, addr, |bound| {
        println!("listening on {bound}");
    }) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
