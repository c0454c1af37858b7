//! `explore` — evaluate the paper's bounds at arbitrary parameters from
//! the command line.
//!
//! ```text
//! explore bounds --n 21 --f 10 --nu 6 [--bits 64]
//! explore sweep  --n 21 --f 10 --nu-max 16
//! explore crossover --f 10 --n-max 101
//! explore audit --algo abd|cas|casgc --n 5 --f 2 --nu 3 [--seed 42]
//! ```

#![forbid(unsafe_code)]

use shmem_algorithms::harness::{run_concurrent_workload, AbdCluster, CasCluster};
use shmem_algorithms::value::ValueSpec;
use shmem_bounds::{lower, upper, SystemParams, ValueDomain};
use shmem_core::audit::StorageAudit;
use std::collections::BTreeMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  explore bounds --n N --f F --nu NU [--bits B]\n  \
         explore sweep --n N --f F --nu-max M\n  \
         explore crossover --f F --n-max M\n  \
         explore audit --algo abd|cas|casgc --n N --f F --nu NU [--seed S]\n  \
         explore alpha --n N --f F [--v1 1 --v2 2 --seeds 4]"
    );
    exit(2);
}

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            match it.next() {
                Some(v) => {
                    flags.insert(name.to_string(), v.clone());
                }
                None => usage(),
            }
        } else {
            usage();
        }
    }
    flags
}

fn get_u32(flags: &BTreeMap<String, String>, key: &str, default: Option<u32>) -> u32 {
    match (flags.get(key), default) {
        (Some(v), _) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{key} must be an integer, got {v:?}");
            usage()
        }),
        (None, Some(d)) => d,
        (None, None) => {
            eprintln!("missing required flag --{key}");
            usage()
        }
    }
}

fn params_of(flags: &BTreeMap<String, String>) -> SystemParams {
    let n = get_u32(flags, "n", None);
    let f = get_u32(flags, "f", None);
    SystemParams::new(n, f).unwrap_or_else(|e| {
        eprintln!("invalid parameters: {e}");
        exit(2);
    })
}

fn cmd_bounds(flags: BTreeMap<String, String>) {
    let p = params_of(&flags);
    let nu = get_u32(&flags, "nu", Some(1));
    let bits = get_u32(&flags, "bits", Some(64));
    let d = ValueDomain::from_bits(bits);
    println!("{p}, nu = {nu}, |V| = 2^{bits}\n");
    println!("lower bounds (normalized total / exact total bits):");
    println!(
        "  Theorem B.1   {:>10}  /  {:>12.2} bits",
        lower::singleton_total(p).to_string(),
        lower::singleton_total_bits(p, d)
    );
    if p.supports_no_gossip_bound() {
        println!(
            "  Theorem 4.1   {:>10}  /  {:>12.2} bits   (no gossip)",
            lower::no_gossip_total(p).to_string(),
            lower::no_gossip_total_bits(p, d)
        );
    }
    println!(
        "  Theorem 5.1   {:>10}  /  {:>12.2} bits   (universal)",
        lower::universal_total(p).to_string(),
        lower::universal_total_bits(p, d)
    );
    println!(
        "  Theorem 6.5   {:>10}  /  {:>12.2} bits   (nu* = {})",
        lower::multi_version_total(p, nu).to_string(),
        lower::multi_version_total_bits(p, nu, d),
        p.nu_star(nu)
    );
    println!("\nupper bounds (normalized total):");
    println!(
        "  ABD (f+1)        {:>8}",
        upper::replication_total(p).to_string()
    );
    println!(
        "  coded nuN/(N-f)  {:>8}",
        upper::coded_total(p, nu).to_string()
    );
    if let Some(cas) = upper::cas_total(p, nu) {
        println!(
            "  CAS nuN/(N-2f)   {:>8}   (k = {})",
            cas.to_string(),
            upper::cas_code_dimension(p).expect("checked")
        );
    }
    println!(
        "\ncoding beats replication below nu = {}",
        upper::coding_replication_crossover(p)
    );
}

fn cmd_sweep(flags: BTreeMap<String, String>) {
    let p = params_of(&flags);
    let nu_max = get_u32(&flags, "nu-max", Some(16));
    println!("{p}: normalized total-storage bounds vs nu\n");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "nu", "Thm B.1", "Thm 5.1", "Thm 6.5", "ABD", "coded"
    );
    for nu in 0..=nu_max {
        println!(
            "{:>4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            nu,
            lower::singleton_total(p).to_f64(),
            lower::universal_total(p).to_f64(),
            lower::multi_version_total(p, nu).to_f64(),
            upper::replication_total(p).to_f64(),
            upper::coded_total(p, nu).to_f64(),
        );
    }
}

fn cmd_crossover(flags: BTreeMap<String, String>) {
    let f = get_u32(&flags, "f", None);
    let n_max = get_u32(&flags, "n-max", Some(101));
    println!("crossover nu = ceil((f+1)(N-f)/N) for f = {f}\n");
    println!("{:>6} {:>12} {:>14}", "N", "crossover", "5.1/B.1 ratio");
    let mut n = 2 * f + 1;
    while n <= n_max {
        if let Ok(p) = SystemParams::new(n, f) {
            let ratio = (lower::universal_total(p) / lower::singleton_total(p)).to_f64();
            println!(
                "{:>6} {:>12} {:>14.4}",
                n,
                upper::coding_replication_crossover(p),
                ratio
            );
        }
        n += (n_max / 10).max(1);
    }
}

fn cmd_audit(flags: BTreeMap<String, String>) {
    let p = params_of(&flags);
    let nu = get_u32(&flags, "nu", Some(2));
    let seed = get_u32(&flags, "seed", Some(42)) as u64;
    let algo = flags.get("algo").map(String::as_str).unwrap_or("abd");
    let spec = ValueSpec::from_bits(64.0);
    let domain = ValueDomain::from_bits(64);

    let report = match algo {
        "abd" => {
            let mut c = AbdCluster::new(p.n(), p.f(), nu + 1, spec);
            run_concurrent_workload(&mut c, nu, 1, 2, seed).expect("workload");
            StorageAudit::new("ABD", p, domain, nu).assess(&c.storage())
        }
        "cas" => {
            let mut c = CasCluster::new(p.n(), p.f(), nu + 1, spec);
            run_concurrent_workload(&mut c, nu, 1, 2, seed).expect("workload");
            StorageAudit::new("CAS", p, domain, nu)
                .unconditional_liveness(false)
                .assess(&c.storage())
        }
        "casgc" => {
            let mut c = CasCluster::with_gc(p.n(), p.f(), nu, nu + 1, spec);
            run_concurrent_workload(&mut c, nu, 1, 2, seed).expect("workload");
            StorageAudit::new("CASGC", p, domain, nu)
                .unconditional_liveness(false)
                .assess(&c.storage())
        }
        other => {
            eprintln!("unknown --algo {other:?} (abd|cas|casgc)");
            usage()
        }
    };
    println!("{report}");
    if !report.lower_bounds_respected() {
        eprintln!("!! a lower bound is violated — this would refute the paper");
        exit(1);
    }
}

fn cmd_alpha(flags: BTreeMap<String, String>) {
    use shmem_algorithms::abd::{Abd, AbdClient, AbdServer};
    use shmem_core::critical::{find_critical_pair, valency_profile};
    use shmem_core::execution::AlphaExecution;
    use shmem_sim::{ClientId, Sim, SimConfig};

    let p = params_of(&flags);
    let v1 = u64::from(get_u32(&flags, "v1", Some(1)));
    let v2 = u64::from(get_u32(&flags, "v2", Some(2)));
    let seeds = u64::from(get_u32(&flags, "seeds", Some(4)));
    let spec = ValueSpec::from_cardinality(8);
    let sim: Sim<Abd> = Sim::new(
        SimConfig::without_gossip(),
        (0..p.n()).map(|_| AbdServer::new(0, spec)).collect(),
        (0..2).map(|c| AbdClient::new(p.n(), c)).collect(),
    );
    println!(
        "building alpha^(v1={v1}, v2={v2}) against ABD, {p}, probing with          {seeds} random schedules per point...\n"
    );
    let alpha = AlphaExecution::build(sim, ClientId(0), p.f(), v1, v2).unwrap_or_else(|e| {
        eprintln!("alpha failed: {e} (is f within the algorithm's tolerance?)");
        exit(1);
    });
    let profile = valency_profile(&alpha, ClientId(1), false, seeds);
    print!("valency profile over {} points: ", alpha.len());
    for vals in &profile {
        let tag = match (vals.contains(&v1), vals.contains(&v2)) {
            (true, false) => '1',
            (false, true) => '2',
            (true, true) => 'B',
            _ => '?',
        };
        print!("{tag}");
    }
    println!("\n  (1 = only v1 observable, 2 = only v2, B = both)");
    match find_critical_pair(&alpha, ClientId(1), false, seeds) {
        Ok(pair) => println!(
            "critical pair at (P{}, P{}); changed surviving server: {:?}",
            pair.index,
            pair.index + 1,
            pair.changed_server
        ),
        Err(e) => println!("no critical pair: {e}"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    let flags = parse_flags(&args);
    match cmd.as_str() {
        "bounds" => cmd_bounds(flags),
        "sweep" => cmd_sweep(flags),
        "crossover" => cmd_crossover(flags),
        "audit" => cmd_audit(flags),
        "alpha" => cmd_alpha(flags),
        _ => usage(),
    }
}
