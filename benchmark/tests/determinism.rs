//! What the ledger's exact counts rest on: the same seed gives the same
//! allocator traffic, messages and wire bytes; the decorators change
//! nothing the program can see; and a traced thread's spans tile its wall
//! clock.
//!
//! The allocator counters are process-wide, so the tests of this file
//! take turns.

use shmem_ledger::net::{self, Abd, Algo, NetSpec, TracedAbd, TracedCoded};
use shmem_ledger::run::{self, RoundSample, TrialSample};
use shmem_ledger::sim_sweep::{self, SimSpec};
use shmem_ledger::trace::{Kind, TraceCtx};
use shmem_net::NetBackend;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// A net workload small enough for a debug build: 256 keys, 512-operation
/// trials.
fn tiny(algo: Algo, backend: NetBackend, batch: usize, write_ratio: f64) -> NetSpec {
    NetSpec {
        algo,
        backend,
        batch,
        keyspace: 256,
        write_ratio,
        preload_ops_per_client: (256 / (net::CLIENTS as usize * batch)).max(1),
        unloaded_ops: 40,
        trial_ops_per_client: 8,
    }
}

/// What the program itself counted in a round's trials: exact.
fn program_counts(round: &RoundSample) -> Vec<(u64, f64, f64)> {
    let of = |t: &TrialSample| (t.ops, t.msgs_per_op, t.wire_bytes_per_op);
    round.trials.iter().map(of).collect()
}

/// Allocator traffic of a round's trials together.
fn traffic(round: &RoundSample) -> (f64, f64) {
    let sum = |f: fn(&TrialSample) -> u64| round.trials.iter().map(f).sum::<u64>() as f64;
    (sum(|t| t.alloc.allocs), sum(|t| t.alloc.bytes))
}

#[test]
fn same_seed_inproc_rounds_count_the_same() {
    let _turn = my_turn();
    let spec = tiny(Algo::Abd, NetBackend::InProc, 1, 0.5);
    // The first round of a process pays one-off allocations (thread-local
    // channel contexts, lazily grown tables); it is not one of the two.
    run::net_round(&spec, &Abd, 7).expect("warm-up round passes its gate");
    let (first, _) = run::net_round(&spec, &Abd, 7).expect("first round passes its gate");
    let (second, _) = run::net_round(&spec, &Abd, 7).expect("second round passes its gate");
    assert_eq!(program_counts(&first), program_counts(&second));
    assert_eq!(first.attempted, second.attempted);
    assert_eq!(first.storage_per_key_norm, 5.0);
    // Five server threads send into the client's one `mpsc` inbox, and two
    // senders that reach the end of a channel block together may both
    // allocate its successor (the loser frees it again): a handful of
    // allocations in 300 000 depend on how the threads raced, so the
    // allocator's counts agree to a tenth of their 1 % bound, not to the
    // last digit.
    let ((allocs_a, bytes_a), (allocs_b, bytes_b)) = (traffic(&first), traffic(&second));
    assert!(
        (allocs_a - allocs_b).abs() <= 1e-3 * allocs_a,
        "{allocs_a} vs {allocs_b}"
    );
    assert!(
        (bytes_a - bytes_b).abs() <= 1e-3 * bytes_a,
        "{bytes_a} vs {bytes_b}"
    );
    // Another seed is another load of the same shape.
    let (other, _) = run::net_round(&spec, &Abd, 8).expect("other round passes its gate");
    assert_eq!(program_counts(&first), program_counts(&other));
    assert_ne!(traffic(&first), traffic(&other));
}

#[test]
fn same_seed_sim_trials_count_the_same() {
    let _turn = my_turn();
    let spec = SimSpec {
        setup_seeds: 20,
        unloaded_execs: 20,
        trial_seeds: 60,
        fingerprint_seeds: 10,
    };
    // The first round of a process fills the shared decode-plan cache as
    // erasure patterns first appear; it is not one of the two.
    sim_sweep::run_round(&spec, 3).expect("warm-up round passes its gate");
    let first = sim_sweep::run_round(&spec, 3).expect("first round passes its gate");
    let second = sim_sweep::run_round(&spec, 3).expect("second round passes its gate");
    assert_eq!(first.audit, second.audit);
    // One thread: the allocator's counts repeat to the last digit.
    let allocs = |r: &sim_sweep::SimRound| r.trials.iter().map(|t| t.alloc).collect::<Vec<_>>();
    assert_eq!(allocs(&first), allocs(&second));
    assert_eq!(first.audit.execs, 120);
    assert!(first.audit.msgs > 0 && first.audit.wire_bytes > 0);
    // ABD's worst case is 5 whatever the schedule; CAS without GC holds
    // at least the initial version and one more.
    assert!(first.storage_per_key_norm > (5.0 + 5.0 / 3.0) / 2.0);
    let other = sim_sweep::run_round(&spec, 4).expect("other round passes its gate");
    assert_ne!(first.audit.digest, other.audit.digest);
}

/// A decorated round against an undecorated one under the same seed: the
/// program sends, receives and stores the same, and each traced thread's
/// parentless spans — idle waits, handled messages, ticks — add up to its
/// wall clock.
fn traced_round_is_transparent<T: net::Stack>(
    spec: &NetSpec,
    plain: &impl net::Stack,
    make: fn(Arc<TraceCtx>) -> T,
) {
    let (untraced, untraced_out) =
        run::net_round(spec, plain, 11).expect("undecorated round passes");
    let ctx = TraceCtx::new(Instant::now());
    let stack = make(Arc::clone(&ctx));
    let (traced, traced_out) = run::net_round(spec, &stack, 11).expect("decorated round passes");
    drop(stack);

    assert_eq!(untraced.attempted, traced.attempted);
    assert_eq!(untraced.storage_per_key_norm, traced.storage_per_key_norm);
    assert_eq!(untraced_out.serve, traced_out.serve);
    let sent = |out: &net::RoundOut| -> Vec<(u64, u64, u64)> {
        out.phases()
            .map(|p| (p.report.completed, p.report.msgs_sent, p.report.wire_bytes))
            .collect()
    };
    assert_eq!(sent(&untraced_out), sent(&traced_out));

    let threads = ctx.threads();
    let names: Vec<&str> = threads.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names.len(), 6, "five servers and the client: {names:?}");
    let mut sends = 0;
    for t in &threads {
        let (wall, tiled) = (t.totals.wall_ns() as f64, t.totals.top_level_ns as f64);
        assert!(
            (wall - tiled).abs() <= 0.02 * wall,
            "{}: wall {wall} ns, parentless spans {tiled} ns",
            t.name
        );
        sends += t.totals.of(Kind::Send).count;
    }
    // Every message the program counted went through a decorated send.
    assert_eq!(sends, traced_out.serve.msgs_out + traced_out.serve.msgs_in);
    // The saturated phases attributed CPU to every traced thread.
    for trial in &traced_out.trials {
        assert_eq!(trial.traced.len(), 6);
        assert!(trial.traced.iter().all(|(_, t)| t.of(Kind::Send).count > 0));
    }
    assert!(!ctx.take_payloads().is_empty());
}

#[test]
fn decorators_are_transparent_and_spans_tile_inproc_abd() {
    let _turn = my_turn();
    let spec = tiny(Algo::Abd, NetBackend::InProc, 1, 0.5);
    traced_round_is_transparent(&spec, &Abd, TracedAbd);
}

#[test]
fn decorators_are_transparent_and_spans_tile_tcp_coded() {
    let _turn = my_turn();
    let spec = tiny(Algo::Coded, NetBackend::Tcp, 4, 0.0);
    traced_round_is_transparent(&spec, &net::Coded, TracedCoded);
}
