#!/usr/bin/env bash
# The full local gate: formatting, lints, tests. CI-equivalent; run before
# every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> corpus replay (nemesis counterexamples)"
cargo test -q --test corpus_replay

echo "==> metrics gate: conservation + determinism + schema (release)"
cargo test --release -q --test metrics_conservation --test metrics_determinism \
  --test metrics_schema

echo "==> fuzz gate: differential + mutator properties (release)"
cargo test --release -q --test fuzz_differential
cargo test --release -q -p shmem-algorithms --test mutator_properties

echo "==> shard gate: batch-1 ≡ legacy differential + chaos projections (release)"
cargo test --release -q -p shmem-algorithms --test shard_differential

echo "==> net gate: TCP/in-proc differential + wire properties + fault soup (release)"
cargo test --release -q --test net_differential
cargo test --release -q -p shmem-net --lib --test wire_roundtrip --test transport_faults

echo "==> one write per drain: an endpoint's queued frames leave through one call"
if [ "$(sed '/#\[cfg(test)\]/,$d' crates/net/src/tcp.rs | grep -c "write_all")" != 1 ]; then
  echo "crates/net/src/tcp.rs must name write_all exactly once (Conn::flush) before its tests" >&2
  exit 1
fi
if grep -rn "write_frame" crates tests examples; then
  echo "the per-frame write was replaced by the per-connection queue (DESIGN §4.10); do not bring it back" >&2
  exit 1
fi
if [ "$(cat crates/net/src/*.rs | grep -c "mpsc::channel")" != 1 ]; then
  echo "crates/net/src must build its queues through transport.rs' bounded inbox (one mpsc::channel)" >&2
  exit 1
fi

echo "==> one delivery rule: every endpoint is transport.rs' Endpoint, whatever its backend"
for f in $(find crates/net/src -name '*.rs' ! -path crates/net/src/transport.rs); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n "\.more()"; then
    echo "$f looks ahead in an inbox; when to hand over is decided in transport.rs alone" >&2
    exit 1
  fi
done
if [ "$(grep -rh "const FLUSH_BYTES" crates/net/src | wc -l)" != 1 ]; then
  echo "FLUSH_BYTES must be defined once under crates/net/src (transport.rs)" >&2
  exit 1
fi
if grep -n "Transport for" crates/net/src/tcp.rs; then
  echo "crates/net/src/tcp.rs implements Transport; a TCP endpoint is an Endpoint over its queues" >&2
  exit 1
fi

echo "==> no waiting on a dead server: a refused dial marks it down, no worker sleeps"
if [ "$(sed '/#\[cfg(test)\]/,$d' crates/net/src/tcp.rs | grep -c "thread::sleep")" != 1 ]; then
  echo "crates/net/src/tcp.rs must name thread::sleep once (the accept loop's poll) before its tests" >&2
  exit 1
fi

echo "==> one serve loop: a server is one automaton on one thread"
if sed '/#\[cfg(test)\]/,$d' crates/net/src/serve.rs | grep -n "thread::\|Condvar\|mpsc"; then
  echo "crates/net/src/serve.rs names a thread or a queue; serve_until is the one loop" >&2
  exit 1
fi
if grep -rn "serve_shared\|start_pooled" crates tests examples; then
  echo "the pooled serving path was measured and deleted (DESIGN §4.11); do not bring it back" >&2
  exit 1
fi

echo "==> one send loop: a message enters a channel on one loop, metered or not"
if [ "$(sed '/#\[cfg(test)\]/,$d' crates/sim/src/world/channels.rs | grep -c "push_back(")" != 1 ]; then
  echo "crates/sim/src/world/channels.rs must name push_back( exactly once (apply_effects' send loop) before its tests" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/sim/src/metrics.rs | grep -n "BTreeMap<(NodeId, NodeId)\|\.entry("; then
  echo "crates/sim/src/metrics.rs looks a ledger up by channel; ledgers are indexed by channel-table row (DESIGN §4.2)" >&2
  exit 1
fi

echo "==> plain-data world: the simulator is owned data and forbids unsafe code"
if ! grep -q '^#!\[forbid(unsafe_code)\]' crates/sim/src/lib.rs; then
  echo "crates/sim/src/lib.rs must carry #![forbid(unsafe_code)]" >&2
  exit 1
fi
for f in $(find crates/sim/src -name '*.rs' ! -name tests.rs); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n "make_mut\|hot_owned\|meter_pending_ticks\|get_unchecked\|is_x86_feature_detected"; then
    echo "$f shares world state copy-on-write or skips a check; Sim is plain owned data (DESIGN §4.2)" >&2
    exit 1
  fi
done
if grep -rln "Arc<" crates/sim/src | grep -v '^crates/sim/src/world/fork\.rs$'; then
  echo "the files above name Arc<; only Snapshot (crates/sim/src/world/fork.rs) shares a world" >&2
  exit 1
fi

echo "==> unsafe only in the erasure kernels"
if grep -rlw "unsafe" crates/*/src src | grep -v '^crates/erasure/src/kernel\.rs$'; then
  echo "the files above use unsafe; only the runtime-detected SIMD kernels in crates/erasure/src/kernel.rs may" >&2
  exit 1
fi

echo "==> corrupt gate: 1000-seed acceptance sweep + cross-world differential (release)"
cargo test --release -q --test corrupt_sweep --test corrupt_differential

echo "==> store gate: linearizability stress + differential + storage frontier (release)"
cargo test --release -q -p shmem-store
cargo test --release -q -p shmem-bench --test store_gate

echo "==> ledger gate: the benchmark crate builds and passes against the workspace's public API (release)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> one timing harness: the ledger and perf_smoke time things, nothing else under crates/"
if grep -rn "^\[\[bench\]\]" --include=Cargo.toml . --exclude-dir=target; then
  echo "a bench target is back; wall-clock numbers belong to the ledger or perf_smoke" >&2
  exit 1
fi
if ls -d crates/*/benches 2>/dev/null; then
  echo "the directories above hold benches; wall-clock numbers belong to the ledger or perf_smoke" >&2
  exit 1
fi
if grep -rln "Instant" crates/*/src | grep -v '^crates/bench/src/bin/perf_smoke\.rs$\|^crates/net/src/'; then
  echo "the files above read a clock; timing belongs to perf_smoke, the net layer or the ledger" >&2
  exit 1
fi

echo "==> one probe engine: the proof machinery probes sequentially, through one memoized engine"
if grep -rn "with_workers\|sequential_view\|available_parallelism\|map_indexed" crates/core/src; then
  echo "crates/core/src fans probes out again; the worker fan-out lost on its own grid and was deleted" >&2
  exit 1
fi

echo "==> no sleeping tests: a test waits on what it observes, not on the clock"
if grep -rn "thread::sleep" crates/*/tests tests; then
  echo "the tests above sleep; wait on an observed condition with a deadline instead" >&2
  exit 1
fi

echo "==> perf smoke: same-run ratios — sim steps ÷ calibration, store floor, codec floor (release)"
cargo run --release -q -p shmem-bench --bin perf_smoke

echo "==> cargo build --examples"
cargo build --examples -q

echo "All checks passed."
