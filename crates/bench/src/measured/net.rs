//! `tab-net`: the emulations over in-process channels and TCP loopback.

use crate::render::Table;

/// `tab-net`: closed-loop runs of the emulations over real transports,
/// with the same message accounting, atomicity oracle and storage probe
/// the simulator tables use. (Throughput and latency are the ledger's:
/// `ops_per_s` and `unloaded_p50_ms` on its three net workloads.)
///
/// Every row spins an actual cluster — server event loops on their own
/// threads, client workers multiplexing hundreds of logical clients —
/// over either in-process channels or TCP loopback, then checks every
/// per-key projected history with `shmem-spec`. The final row is the
/// headline: ≥ 1000 concurrent TCP clients driving coded CAS (`k = N−f`,
/// GC depth 0), whose drained steady-state storage must sit exactly on
/// the paper's `N/(N−f)` frontier.
pub fn net_table(seed: u64) -> Table {
    use shmem_net::{NetAlgorithm, NetBackend, NetScenario};

    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut t = Table::new(
        "Net-layer closed loop (5 servers, f=1, 64-bit values, loopback)",
        &[
            "backend",
            "algo",
            "clients",
            "batch",
            "ops",
            "msgs/op",
            "wire B/op",
            "retrans",
            "retired",
            "keys atomic",
            "violations",
            "per-key storage",
            "bound N/(N-f)",
            "bound ok",
        ],
    );

    let cells: &[(NetBackend, NetAlgorithm, u32, usize, usize)] = &[
        (NetBackend::InProc, NetAlgorithm::Abd, 256, 1, 6),
        (NetBackend::InProc, NetAlgorithm::Cas, 256, 4, 6),
        (NetBackend::Tcp, NetAlgorithm::Abd, 256, 1, 6),
        (NetBackend::Tcp, NetAlgorithm::Cas, 256, 4, 6),
        (NetBackend::Tcp, NetAlgorithm::Hashed, 256, 4, 6),
        // The headline row: ≥ 1000 concurrent TCP clients, storage on the
        // coded frontier.
        (NetBackend::Tcp, NetAlgorithm::CodedCas, 1024, 4, 4),
    ];
    for &(backend, algorithm, clients, batch, ops) in cells {
        let mut s = NetScenario::new(algorithm, backend);
        s.load.clients = clients;
        s.load.workers = workers;
        s.load.ops_per_client = ops;
        s.load.batch = batch;
        // Target ~24 operations per key so no projection outgrows the
        // atomicity checker's 128-op budget.
        s.load.keyspace = (u64::from(clients) * ops as u64 * batch as u64 / 24).max(64);
        s.load.seed = seed;
        let outcome = s.run();

        let (keys, violations) = match outcome.report.check_atomic_all(s.initial) {
            Ok(k) => (k, 0usize),
            Err(_) => (0, 1),
        };
        let total_ops = outcome.report.completed.max(1);
        let bound = f64::from(s.n) / f64::from(s.n - s.f);
        let (storage, bound_col, ok) = match (algorithm, outcome.per_key_storage()) {
            // Only coded CAS with GC pins steady state to the frontier;
            // the other variants retain history by design.
            (NetAlgorithm::CodedCas, Some(per_key)) => (
                format!("{per_key:.3}"),
                format!("{bound:.3}"),
                ((per_key - bound).abs() < 1e-9).to_string(),
            ),
            _ => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        t.push(vec![
            backend.name().to_string(),
            algorithm.name().to_string(),
            clients.to_string(),
            batch.to_string(),
            outcome.report.completed.to_string(),
            format!("{:.2}", outcome.report.msgs_sent as f64 / total_ops as f64),
            format!("{:.1}", outcome.report.wire_bytes as f64 / total_ops as f64),
            outcome.report.retransmits.to_string(),
            outcome.report.retired.to_string(),
            keys.to_string(),
            violations.to_string(),
            storage,
            bound_col,
            ok,
        ]);
    }
    t
}
