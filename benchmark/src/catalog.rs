//! The ledger's vocabulary: workload names, end-to-end metric names with
//! unit, direction and bound, and per-layer metric names. `BENCHMARK.json`
//! at the repo root repeats these tables; a unit test keeps the two in
//! step.

use crate::stats::Better::{self, Higher, Lower};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// One named workload and the reason it exists.
pub struct Workload {
    /// Final name.
    pub name: &'static str,
    /// One line: which layers do the work, and what claim it is for.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp-abd-mixed",
        why: "ShardedAbd, TCP loopback, batch 1, 50% writes: frame+tcp+serve+client do nearly all the work, automaton and backend under 2% of CPU/op; where a net hot-path gain is claimed",
    },
    Workload {
        name: "inproc-abd-mixed",
        why: "same load over InProcHub: bypasses frame/tcp, so a socket-path change must show no change here; wire, client-mux, serve-loop and automaton changes show here first",
    },
    Workload {
        name: "tcp-coded-read-b16",
        why: "storage-optimal ShardedCas (k=N-f, gc 0) over TCP, batch-16 reads after a batch-16 write preload: two-phase reads, decode, 16-key messages where wire and share copying outweigh syscalls",
    },
    Workload {
        name: "sim-sweep",
        why: "one-worker nemesis sweep of the legacy ABD and CAS clusters under Oracle::Atomic: the metered sim step loop, single-register automata and spec checkers; no net, no store, one thread",
    },
];

/// The catalog entry called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Final name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which a later change may worsen the
    /// metric before it counts as a regression.
    pub bound: f64,
    /// Whether the value is a time (reported as the best decile of its
    /// samples) or a count (reported as their median).
    pub timed: bool,
}

/// The nine end-to-end metrics; every workload reports every one.
pub const END_TO_END: [EndToEnd; 9] = [
    // completed operations / wall, per inner group of a saturated trial;
    // one seeded execution in sim-sweep
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
        timed: true,
    },
    // median invocation-to-response latency with one logical client; one
    // execution timed alone in sim-sweep
    EndToEnd {
        name: "unloaded_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        timed: true,
    },
    // nothing to warm loaded system: build automata, bind and spawn
    // servers, connect, preload the keyspace
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.10,
        timed: true,
    },
    // VmHWM at the end of round 0's unloaded phase: servers holding a
    // loaded keyspace plus connections and one client
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        timed: false,
    },
    // heap allocations over a saturated trial / completed operations,
    // every thread
    EndToEnd {
        name: "allocs_per_op",
        unit: "1",
        better: Lower,
        bound: 0.01,
        timed: false,
    },
    // bytes those allocations requested / completed operations
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Lower,
        bound: 0.01,
        timed: false,
    },
    // protocol messages clients sent (retransmissions included) /
    // completed operations; per execution in sim-sweep
    EndToEnd {
        name: "msgs_per_op",
        unit: "1",
        better: Lower,
        bound: 0.01,
        timed: false,
    },
    // client msg_wire_bytes / completed operations
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Lower,
        bound: 0.01,
        timed: false,
    },
    // after drain, sum of Node::state_bits / (touched keys x 64): the
    // paper's normalised storage
    EndToEnd {
        name: "storage_per_key_norm",
        unit: "1",
        better: Lower,
        bound: 0.001,
        timed: false,
    },
];

/// One per-layer metric.
pub struct Layer {
    /// Final name: `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// The fifty per-layer metrics, from the `--trace 1` round. A workload
/// reports 0 for a layer it does not run.
pub const PER_LAYER: [Layer; 50] = [
    layer("net.transport.send_ns_per_msg", "ns", Lower),
    layer("net.transport.rtt_us", "us", Lower),
    layer("net.tcp.offthread_cpu_us_per_op", "us", Lower),
    layer("net.frame.encode_ns_per_msg", "ns", Lower),
    layer("net.frame.decode_ns_per_msg", "ns", Lower),
    layer("net.wire.encode_ns_per_msg", "ns", Lower),
    layer("net.wire.decode_ns_per_msg", "ns", Lower),
    layer("net.wire.bytes_per_msg", "B", Lower),
    layer("net.serve.self_ns_per_msg", "ns", Lower),
    layer("net.serve.busy_share", "1", Lower),
    layer("net.serve.idle_poll_share", "1", Lower),
    layer("net.serve.msgs_in", "count", Lower),
    layer("net.serve.msgs_out", "count", Lower),
    layer("net.serve.decode_errors", "count", Lower),
    layer("net.client.self_ns_per_op", "ns", Lower),
    layer("net.client.op_wait_share", "1", Lower),
    layer("net.client.unloaded_read_us", "us", Lower),
    layer("net.client.unloaded_write_us", "us", Lower),
    layer("net.client.retransmits", "count", Lower),
    layer("net.client.retired", "count", Lower),
    layer("algorithms.server_ns_per_msg", "ns", Lower),
    layer("algorithms.client_ns_per_msg", "ns", Lower),
    layer("algorithms.client_invoke_ns_per_op", "ns", Lower),
    layer("algorithms.metadata_bits_per_key", "bit", Lower),
    layer("algorithms.nemesis.plan_sample_ns_per_exec", "ns", Lower),
    layer("store.backend_ns_per_call", "ns", Lower),
    layer("store.backend_calls_per_op", "1", Lower),
    layer("store.ops_per_s_t1", "1/s", Higher),
    layer("store.local_ops_per_s_t1", "1/s", Higher),
    layer("store.scaling_t2_over_t1", "1", Higher),
    layer("store.read_ns_per_call", "ns", Lower),
    layer("store.write_ns_per_call", "ns", Lower),
    layer("store.coded_write_ns_per_key", "ns", Lower),
    layer("erasure.encode_ns_per_call", "ns", Lower),
    layer("erasure.decode_ns_per_call", "ns", Lower),
    layer("erasure.plan_hit_rate", "1", Higher),
    layer("sim.ns_per_step", "ns", Lower),
    layer("sim.steps_per_exec", "1", Lower),
    layer("sim.metered_over_plain", "1", Lower),
    layer("spec.check_ns_per_history", "ns", Lower),
    layer("run.cpu_us_per_op", "us", Lower),
    layer("run.ctx_switches_per_op", "1", Lower),
    layer("run.loaded_p50_ms", "ms", Lower),
    layer("run.loaded_p99_ms", "ms", Lower),
    layer("run.loaded_peak_rss_mb", "MB", Lower),
    layer("run.trials", "count", Higher),
    layer("host.pingpong_us", "us", Lower),
    layer("host.disturbed_round_share", "1", Lower),
    layer("trace.overhead_share", "1", Lower),
    layer("trace.attributed_cpu_share", "1", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_util::json::Json;
    use std::collections::BTreeSet;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key)
            .unwrap_or_else(|| panic!("`{key}` missing from {obj:?}"))
    }

    fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
        field(obj, key)
            .as_str()
            .unwrap_or_else(|| panic!("`{key}` is not a string"))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "`{name}` is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; the catalog is what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_is_in_step_with_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let Json::Obj(keys) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(field(&doc, "paths").as_arr().map(<[Json]>::len), Some(1));
        assert_eq!(
            field(&doc, "paths").as_arr().unwrap()[0].as_str(),
            Some("benchmark")
        );

        let workloads = field(&doc, "workloads").as_arr().expect("workloads array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((text(json, "name"), text(json, "why")), (w.name, w.why));
        }
        let end_to_end = field(&doc, "end_to_end")
            .as_arr()
            .expect("end_to_end array");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(
                (text(json, "name"), text(json, "unit"), text(json, "better")),
                (m.name, m.unit, m.better.name())
            );
            assert_eq!(field(json, "bound").as_f64(), Some(m.bound), "{}", m.name);
        }
        let per_layer = field(&doc, "per_layer").as_arr().expect("per_layer array");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(
                (text(json, "name"), text(json, "unit"), text(json, "better")),
                (m.name, m.unit, m.better.name())
            );
        }
    }
}
