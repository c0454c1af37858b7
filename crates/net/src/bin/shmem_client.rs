//! Closed-loop load generator against running `shmem-server` processes.
//!
//! ```text
//! shmem-client --algo abd --servers 127.0.0.1:7000,127.0.0.1:7001,... \
//!     --clients 1000 --workers 8 --ops 50 --batch 4 --check
//! ```
//!
//! Prints a one-line JSON summary (ops, throughput, latency quantiles,
//! wire bytes); with `--check`, also projects the recorded history per
//! key and runs the `shmem-spec` atomicity checker, exiting nonzero on
//! any violation.

#![forbid(unsafe_code)]

use shmem_net::{run_remote, NetAlgorithm, NetBackend, NetScenario};
use shmem_util::cli::Cli;
use shmem_util::json::Json;
use std::net::SocketAddr;
use std::time::Duration;

fn main() {
    let cli = Cli::new(
        "shmem-client",
        "closed-loop load generator for shmem-server clusters",
    )
    .req("servers", "comma-separated server addresses, index order")
    .opt("algo", "abd", "algorithm: abd | cas | coded-cas | hashed")
    .opt("f", "1", "failure tolerance")
    .opt("shards", "1", "shards (1 = every server covers every key)")
    .opt(
        "replicas",
        "5",
        "replicas per shard (ignored when shards=1)",
    )
    .opt("initial", "0", "register initial value")
    .opt(
        "clients",
        "100",
        "logical clients (closed loop, 1 op in flight each)",
    )
    .opt("workers", "4", "worker threads the clients multiplex over")
    .opt("ops", "20", "operations per client")
    .opt("batch", "1", "distinct keys per batched operation")
    .opt("keyspace", "64", "keyspace size")
    .opt("write-ratio", "0.5", "probability an op is a write batch")
    .opt("seed", "1", "workload seed")
    .opt(
        "op-timeout-ms",
        "20000",
        "per-op deadline before the client retires",
    )
    .opt(
        "retransmit-ms",
        "500",
        "silence before a round is retransmitted",
    )
    .flag("check", "run the per-key atomicity checker on the history");
    let args = cli.parse_or_exit();

    let Some(algorithm) = NetAlgorithm::parse(args.get("algo")) else {
        eprintln!("error: unknown --algo `{}`", args.get("algo"));
        std::process::exit(2);
    };
    let addrs: Vec<SocketAddr> = args
        .get_list("servers")
        .iter()
        .map(|s| match s.parse() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: bad server address `{s}`: {e}");
                std::process::exit(2);
            }
        })
        .collect();
    if addrs.is_empty() {
        eprintln!("error: --servers must list at least one address");
        std::process::exit(2);
    }

    let mut scenario = NetScenario::new(algorithm, NetBackend::Tcp);
    scenario.n = addrs.len() as u32;
    scenario.f = args.get_u32("f");
    scenario.shards = args.get_u32("shards");
    scenario.replicas = args.get_u32("replicas");
    scenario.initial = args.get_u64("initial");
    scenario.load.clients = args.get_u32("clients");
    scenario.load.workers = args.get_usize("workers");
    scenario.load.ops_per_client = args.get_usize("ops");
    scenario.load.batch = args.get_usize("batch");
    scenario.load.keyspace = args.get_u64("keyspace");
    scenario.load.write_ratio = args.get("write-ratio").parse().unwrap_or(0.5);
    scenario.load.seed = args.get_u64("seed");
    scenario.load.op_timeout = Duration::from_millis(args.get_u64("op-timeout-ms"));
    scenario.load.retransmit = Duration::from_millis(args.get_u64("retransmit-ms"));

    let report = run_remote(&scenario, addrs);

    let mut violations = 0usize;
    let mut keys_checked = 0usize;
    if args.get_flag("check") {
        match report.check_atomic_all(scenario.initial) {
            Ok(n) => keys_checked = n,
            Err((key, v)) => {
                eprintln!("ATOMICITY VIOLATION at key {key}: {v}");
                violations = 1;
            }
        }
    }

    let summary = Json::Obj(vec![
        ("algo".to_string(), Json::str(algorithm.name())),
        (
            "clients".to_string(),
            Json::Num(f64::from(scenario.load.clients)),
        ),
        ("completed".to_string(), Json::Num(report.completed as f64)),
        ("retired".to_string(), Json::Num(report.retired as f64)),
        (
            "throughput_ops_s".to_string(),
            Json::Num(report.throughput()),
        ),
        ("p50_us".to_string(), Json::Num(report.latency_us(0.50))),
        ("p99_us".to_string(), Json::Num(report.latency_us(0.99))),
        ("msgs_sent".to_string(), Json::Num(report.msgs_sent as f64)),
        (
            "wire_bytes".to_string(),
            Json::Num(report.wire_bytes as f64),
        ),
        (
            "retransmits".to_string(),
            Json::Num(report.retransmits as f64),
        ),
        ("keys_checked".to_string(), Json::Num(keys_checked as f64)),
        ("violations".to_string(), Json::Num(violations as f64)),
    ]);
    println!("{}", summary.to_compact());

    if violations > 0 {
        std::process::exit(1);
    }
}
