//! Cluster harnesses: build worlds, drive workloads, extract histories.

use crate::abd::{Abd, AbdClient, AbdServer, ShardedAbd, ShardedAbdClient, ShardedAbdServer};
use crate::abd_gossip::{AbdGossip, GossipServer};
use crate::cas::{
    Cas, CasClient, CasConfig, CasServer, ShardedCas, ShardedCasClient, ShardedCasConfig,
    ShardedCasServer,
};
use crate::hashed::{
    HashedCas, HashedClient, HashedServer, ShardedHashed, ShardedHashedClient, ShardedHashedServer,
};
use crate::lossy::{Lossy, LossyServer};
use crate::multikey::{project_histories, Key, MultiInv, MultiResp, ShardMap};
use crate::nowriteback::{NoWriteBack, NwbClient};
use crate::reg::{RegInv, RegResp};
use crate::value::{Value, ValueSpec};
use shmem_erasure::{Codec, Gf256};
use shmem_sim::{ClientId, Protocol, RunError, ServerId, Sim, SimConfig, StorageSnapshot};
use shmem_spec::history::{History, OpKind};
use shmem_util::json::Json;
use shmem_util::DetRng;
use std::collections::BTreeMap;

/// Appends a `"codecs"` section to a metrics JSON document: one entry per
/// erasure-code geometry the cluster uses, with the [`Codec::shared`]
/// decode-plan LRU counters. The counters are process-wide per geometry
/// (the registry memoizes codecs), which is exactly the cache whose
/// effectiveness the export is meant to surface.
fn append_codecs_section(doc: &mut Json, geometries: &[(u32, u32)]) {
    let codecs = Json::Arr(
        geometries
            .iter()
            .map(|&(n, k)| {
                let stats = Codec::<Gf256>::shared(n as usize, k as usize)
                    .expect("cluster geometries are validated at construction")
                    .stats();
                Json::Obj(vec![
                    ("n".to_string(), Json::Num(f64::from(n))),
                    ("k".to_string(), Json::Num(f64::from(k))),
                    (
                        "decode_plan_hits".to_string(),
                        Json::Num(stats.decode_plan_hits as f64),
                    ),
                    (
                        "decode_plan_misses".to_string(),
                        Json::Num(stats.decode_plan_misses as f64),
                    ),
                ])
            })
            .collect(),
    );
    match doc {
        Json::Obj(fields) => fields.push(("codecs".to_string(), codecs)),
        _ => unreachable!("metrics export is an object"),
    }
}

/// A running cluster of any protocol: a simulated world plus what the
/// harness needs to read it back — the registers' initial value, the
/// key → server placement and the failure budget.
///
/// Single-register protocols ([`RegInv`]/[`RegResp`]) get
/// [`Cluster::write`], [`Cluster::read`] and [`Cluster::history`];
/// sharded multi-register protocols ([`MultiInv`]/[`MultiResp`]) get
/// [`Cluster::write_batch`], [`Cluster::read_batch`] and
/// [`Cluster::histories`]. Everything else is shared.
///
/// # Examples
///
/// ```
/// use shmem_algorithms::harness::{AbdCluster, ShardedAbdCluster};
/// use shmem_algorithms::{RegResp, ShardMap, ValueSpec};
///
/// let mut c = AbdCluster::new(5, 2, 2, ValueSpec::from_bits(64.0));
/// c.write(0, 42)?;
/// assert_eq!(c.read(1)?, 42);
/// assert!(shmem_spec::check_atomic(&c.history()).is_ok());
///
/// let map = ShardMap::new(6, 2, 3);
/// let mut c = ShardedAbdCluster::new(map, 1, 2, ValueSpec::from_bits(64.0));
/// c.write_batch(0, &[(1, 11), (2, 22)])?;
/// let got = c.read_batch(1, &[1, 2])?;
/// assert_eq!(got.get(1), Some(&RegResp::ReadValue(11)));
/// # Ok::<(), shmem_sim::RunError>(())
/// ```
pub struct Cluster<P: Protocol> {
    /// The underlying simulated world, exposed for adversary control.
    pub sim: Sim<P>,
    initial: Value,
    map: ShardMap,
    f: u32,
    /// Erasure-code geometries `(n, k)` this cluster decodes with — the
    /// codecs whose plan-cache stats `metrics_json` reports (empty for
    /// replication-only protocols).
    codec_geometries: Vec<(u32, u32)>,
}

/// ABD cluster alias.
pub type AbdCluster = Cluster<Abd>;
/// CAS/CASGC cluster alias.
pub type CasCluster = Cluster<Cas>;
/// Lossy-strawman cluster alias.
pub type LossyCluster = Cluster<Lossy>;
/// Gossiping-ABD cluster alias.
pub type GossipCluster = Cluster<AbdGossip>;
/// Write-back-less (broken) ABD cluster alias.
pub type NwbCluster = Cluster<NoWriteBack>;
/// Hash-commitment CAS cluster alias.
pub type HashedCluster = Cluster<HashedCas>;
/// Sharded multi-register ABD cluster alias.
pub type ShardedAbdCluster = Cluster<ShardedAbd>;
/// Sharded multi-register CAS cluster alias.
pub type ShardedCasCluster = Cluster<ShardedCas>;
/// Sharded multi-register hashed-CAS cluster alias.
pub type ShardedHashedCluster = Cluster<ShardedHashed>;

impl<P: Protocol> Cluster<P> {
    /// The one constructor behind every `*Cluster::new`.
    fn assemble(
        config: SimConfig,
        map: ShardMap,
        f: u32,
        initial: Value,
        codec_geometries: Vec<(u32, u32)>,
        servers: Vec<P::Server>,
        clients: Vec<P::Client>,
    ) -> Cluster<P> {
        Cluster {
            sim: Sim::new(config, servers, clients),
            initial,
            map,
            f,
            codec_geometries,
        }
    }

    /// The (per-shard) failure budget the cluster was built for.
    pub fn f(&self) -> u32 {
        self.f
    }

    /// Every register's initial value.
    pub fn initial(&self) -> Value {
        self.initial
    }

    /// The key → shard → server placement ([`ShardMap::full`] for a
    /// single-register cluster).
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Turns on full metering ([`shmem_sim::MetricsLevel::Full`]) and
    /// returns the cluster — chainable after any constructor:
    /// `AbdCluster::new(5, 2, 2, spec).metered()`.
    #[must_use]
    pub fn metered(mut self) -> Self {
        self.sim.set_metrics(shmem_sim::MetricsLevel::Full);
        self
    }

    /// The cluster's metrics registry (empty unless [`Cluster::metered`]
    /// or `sim.set_metrics` enabled metering).
    pub fn metrics(&self) -> &shmem_sim::MetricsRegistry {
        self.sim.metrics()
    }

    /// Deterministic JSON export of the metrics registry plus live gauges
    /// and the decode-plan cache counters of every codec geometry in use.
    pub fn metrics_json(&self) -> shmem_util::json::Json {
        let mut doc = self.sim.metrics_json();
        append_codecs_section(&mut doc, &self.codec_geometries);
        doc
    }

    /// The erasure-code geometries `(n, k)` this cluster reports codec
    /// stats for.
    pub fn codec_geometries(&self) -> &[(u32, u32)] {
        &self.codec_geometries
    }

    /// Starts an operation without running it — for concurrent workloads.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn begin(&mut self, client: u32, inv: P::Inv) -> Result<(), RunError> {
        self.sim.invoke(ClientId(client), inv)
    }

    /// Takes `step`s until it reports quiescence, under the world's step
    /// limit.
    fn run_with(&mut self, mut step: impl FnMut(&mut Sim<P>) -> bool) -> Result<u64, RunError> {
        let limit = self.sim.config().step_limit;
        let mut steps = 0u64;
        while step(&mut self.sim) {
            steps += 1;
            if steps > limit {
                return Err(RunError::StepLimit { steps: limit });
            }
        }
        Ok(steps)
    }

    /// Runs the world under a seeded random schedule until quiescence —
    /// completes all open operations under an arbitrary interleaving.
    ///
    /// # Errors
    ///
    /// [`RunError::StepLimit`] if the protocol livelocks.
    pub fn run_seeded(&mut self, seed: u64) -> Result<u64, RunError> {
        let mut rng = DetRng::seed_from_u64(seed);
        self.run_with(|sim| sim.step_with(|opts| rng.gen_range(0..opts.len())).is_some())
    }

    /// Runs the world under a seeded random schedule that also reorders
    /// messages within channels (requires the cluster to have been built
    /// with [`shmem_sim::ChannelOrder::Any`]) until quiescence.
    ///
    /// # Errors
    ///
    /// [`RunError::StepLimit`] if the protocol livelocks.
    pub fn run_seeded_reorder(&mut self, seed: u64) -> Result<u64, RunError> {
        let mut rng = DetRng::seed_from_u64(seed);
        self.run_with(|sim| {
            sim.step_with_reorder(|opts| {
                let oi = rng.gen_range(0..opts.len());
                let mi = rng.gen_range(0..opts[oi].1);
                (oi, mi)
            })
            .is_some()
        })
    }

    /// Steps under `rng`'s schedule until no client of `watch` has an
    /// open operation; returns the steps taken.
    ///
    /// # Errors
    ///
    /// [`RunError::Stuck`] if the world quiesces first,
    /// [`RunError::StepLimit`] if the protocol livelocks.
    pub(crate) fn drain(&mut self, rng: &mut DetRng, watch: &[u32]) -> Result<u64, RunError> {
        let mut stuck = false;
        let steps = self.run_with(|sim| {
            if !watch.iter().any(|&c| sim.has_open_op(ClientId(c))) {
                return false;
            }
            stuck = sim.step_with(|opts| rng.gen_range(0..opts.len())).is_none();
            !stuck
        })?;
        if stuck {
            return Err(RunError::Stuck {
                client: ClientId(watch[0]),
            });
        }
        Ok(steps)
    }

    /// Runs the world fairly until quiescence.
    ///
    /// # Errors
    ///
    /// [`RunError::StepLimit`] if the protocol livelocks.
    pub fn run_fair(&mut self) -> Result<u64, RunError> {
        self.sim.run_to_quiescence()
    }

    /// Measured storage peaks.
    pub fn storage(&self) -> StorageSnapshot {
        self.sim.storage()
    }
}

impl<P: Protocol<Inv = RegInv, Resp = RegResp>> Cluster<P> {
    /// Completes a full write at `client`, running the world fairly.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (liveness failure, busy client, …).
    pub fn write(&mut self, client: u32, value: Value) -> Result<(), RunError> {
        self.sim.invoke(ClientId(client), RegInv::Write(value))?;
        self.sim.run_until_op_completes(ClientId(client))?;
        Ok(())
    }

    /// Completes a full read at `client`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; a protocol-level read failure (e.g.
    /// codeword symbols that did not decode) surfaces as
    /// [`RunError::OperationFailed`].
    ///
    /// # Panics
    ///
    /// Panics if the protocol answers a read with a write-ack (protocol
    /// bug).
    pub fn read(&mut self, client: u32) -> Result<Value, RunError> {
        self.sim.invoke(ClientId(client), RegInv::Read)?;
        match self.sim.run_until_op_completes(ClientId(client))? {
            RegResp::ReadValue(v) => Ok(v),
            RegResp::ReadFailed(e) => Err(RunError::OperationFailed {
                client: ClientId(client),
                detail: e.to_string(),
            }),
            RegResp::WriteAck => panic!("read must not be answered with a write-ack"),
        }
    }

    /// The execution's history as a [`shmem_spec`] register history.
    pub fn history(&self) -> History<Value> {
        let mut h = History::new(self.initial);
        for op in self.sim.ops() {
            let kind = match op.invocation {
                RegInv::Write(v) => OpKind::Write(v),
                RegInv::Read => OpKind::Read,
            };
            let id = h.begin(op.client.0, kind, op.invoked_at);
            if let Some(t) = op.responded_at {
                let returned = op.response.and_then(RegResp::read_value);
                h.complete(id, t, returned);
            }
        }
        h
    }
}

impl<P: Protocol<Inv = MultiInv, Resp = MultiResp>> Cluster<P> {
    /// Completes a batched write at `client`, running the world fairly.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn write_batch(&mut self, client: u32, pairs: &[(Key, Value)]) -> Result<(), RunError> {
        self.sim.invoke(ClientId(client), MultiInv::writes(pairs))?;
        self.sim.run_until_op_completes(ClientId(client))?;
        Ok(())
    }

    /// Completes a batched read at `client`, returning per-key outcomes.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn read_batch(&mut self, client: u32, keys: &[Key]) -> Result<MultiResp, RunError> {
        self.sim.invoke(ClientId(client), MultiInv::reads(keys))?;
        self.sim.run_until_op_completes(ClientId(client))
    }

    /// The execution projected into one single-register history per key —
    /// feed each to the unmodified `shmem-spec` checkers.
    pub fn histories(&self) -> BTreeMap<Key, History<Value>> {
        project_histories(self.initial, self.sim.ops())
    }
}

impl AbdCluster {
    fn build(
        config: SimConfig,
        n: u32,
        f: u32,
        clients: u32,
        spec: ValueSpec,
        initial: Value,
    ) -> Self {
        assert!(2 * f < n, "ABD requires a failure minority (2f < N)");
        Cluster::assemble(
            config,
            ShardMap::full(n),
            f,
            initial,
            Vec::new(),
            (0..n).map(|_| AbdServer::new(initial, spec)).collect(),
            (0..clients).map(|c| AbdClient::new(n, c)).collect(),
        )
    }

    /// An ABD cluster: `n` servers tolerating `f` failures (must be a
    /// minority), `clients` clients, values from a `spec`-sized domain.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn new(n: u32, f: u32, clients: u32, spec: ValueSpec) -> AbdCluster {
        Self::with_initial(n, f, clients, spec, 0)
    }

    /// Same, with arbitrary-order (non-FIFO) channels — the paper's
    /// weakest channel model.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn reordering(n: u32, f: u32, clients: u32, spec: ValueSpec) -> AbdCluster {
        let config = SimConfig::without_gossip().reordering();
        Self::build(config, n, f, clients, spec, 0)
    }

    /// Same, with an explicit initial register value.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn with_initial(
        n: u32,
        f: u32,
        clients: u32,
        spec: ValueSpec,
        initial: Value,
    ) -> AbdCluster {
        Self::build(SimConfig::without_gossip(), n, f, clients, spec, initial)
    }
}

impl CasCluster {
    fn build(config: SimConfig, cfg: CasConfig, clients: u32, initial: Value) -> CasCluster {
        Cluster::assemble(
            config,
            ShardMap::full(cfg.n),
            cfg.f,
            initial,
            vec![(cfg.n, cfg.k)],
            (0..cfg.n)
                .map(|i| CasServer::new(cfg, ServerId(i), initial))
                .collect(),
            (0..clients).map(|c| CasClient::new(cfg, c)).collect(),
        )
    }

    /// A CAS/CASGC cluster from a validated [`CasConfig`].
    pub fn from_config(cfg: CasConfig, clients: u32) -> CasCluster {
        Self::from_config_with_initial(cfg, clients, 0)
    }

    /// Same, with an explicit initial register value.
    pub fn from_config_with_initial(cfg: CasConfig, clients: u32, initial: Value) -> CasCluster {
        Self::build(SimConfig::without_gossip(), cfg, clients, initial)
    }

    /// Plain CAS with the native `k = N − 2f` code.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn new(n: u32, f: u32, clients: u32, spec: ValueSpec) -> CasCluster {
        Self::from_config(CasConfig::native(n, f, spec), clients)
    }

    /// CASGC with garbage-collection depth `delta`.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn with_gc(n: u32, f: u32, delta: u32, clients: u32, spec: ValueSpec) -> CasCluster {
        Self::from_config(CasConfig::native(n, f, spec).with_gc(delta), clients)
    }

    /// Plain CAS with arbitrary-order (non-FIFO) channels.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn reordering(n: u32, f: u32, clients: u32, spec: ValueSpec) -> CasCluster {
        let config = SimConfig::without_gossip().reordering();
        Self::build(config, CasConfig::native(n, f, spec), clients, 0)
    }
}

impl GossipCluster {
    /// A gossiping-ABD cluster (server-to-server channels enabled).
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn new(n: u32, f: u32, clients: u32, spec: ValueSpec) -> GossipCluster {
        assert!(2 * f < n, "ABD requires a failure minority (2f < N)");
        Cluster::assemble(
            SimConfig::with_gossip(),
            ShardMap::full(n),
            f,
            0,
            Vec::new(),
            (0..n).map(|i| GossipServer::new(i, n, 0, spec)).collect(),
            (0..clients).map(|c| AbdClient::new(n, c)).collect(),
        )
    }
}

impl LossyCluster {
    /// The broken cheap cluster: servers keep only `kept_bits` per value.
    pub fn new(n: u32, f: u32, clients: u32, kept_bits: u32, spec: ValueSpec) -> LossyCluster {
        Self::with_bit_rot(n, f, clients, n, kept_bits, spec)
    }

    /// The *subtly* broken cheap cluster: only the first `rotten` servers
    /// truncate to `kept_bits`; the rest keep (effectively) everything.
    ///
    /// Unlike [`LossyCluster::new`], whose corruption surfaces on almost
    /// any completed read, a single bit-rotted replica only corrupts a
    /// read when faults carve a quorum in which the rotted server holds
    /// the highest tag alone — a rare, fault-timing-dependent event, which
    /// makes this the sparse falsification target for guided search.
    pub fn with_bit_rot(
        n: u32,
        f: u32,
        clients: u32,
        rotten: u32,
        kept_bits: u32,
        spec: ValueSpec,
    ) -> LossyCluster {
        Cluster::assemble(
            SimConfig::without_gossip(),
            ShardMap::full(n),
            f,
            0,
            Vec::new(),
            (0..n)
                // 63 kept bits is lossless for every value the nemesis
                // driver writes; the server type stays uniform.
                .map(|i| LossyServer::new(0, if i < rotten { kept_bits } else { 63 }, spec))
                .collect(),
            (0..clients).map(|c| AbdClient::new(n, c)).collect(),
        )
    }
}

impl NwbCluster {
    /// The broken write-back-less ABD cluster — ABD servers, clients whose
    /// reads return straight after the query phase. Regular but not
    /// atomic; the nemesis explorer's positive control.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn new(n: u32, f: u32, clients: u32, spec: ValueSpec) -> NwbCluster {
        assert!(2 * f < n, "ABD requires a failure minority (2f < N)");
        Cluster::assemble(
            SimConfig::without_gossip(),
            ShardMap::full(n),
            f,
            0,
            Vec::new(),
            (0..n).map(|_| AbdServer::new(0, spec)).collect(),
            (0..clients).map(|c| NwbClient::new(n, c)).collect(),
        )
    }
}

impl HashedCluster {
    /// A hash-commitment CAS cluster with the native `k = N − 2f` code.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n`.
    pub fn new(n: u32, f: u32, clients: u32, spec: ValueSpec) -> HashedCluster {
        let cfg = CasConfig::native(n, f, spec);
        Cluster::assemble(
            SimConfig::without_gossip(),
            ShardMap::full(n),
            f,
            0,
            vec![(cfg.n, cfg.k)],
            (0..cfg.n)
                .map(|i| HashedServer::new(cfg, ServerId(i), 0))
                .collect(),
            (0..clients).map(|c| HashedClient::new(cfg, c)).collect(),
        )
    }
}

impl ShardedAbdCluster {
    /// A sharded ABD cluster over `map`, tolerating `f` failures per shard.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < replicas` (each shard needs a failure-minority
    /// majority quorum).
    pub fn new(map: ShardMap, f: u32, clients: u32, spec: ValueSpec) -> ShardedAbdCluster {
        assert!(
            2 * f < map.replicas(),
            "sharded ABD requires 2f < replicas per shard"
        );
        Cluster::assemble(
            SimConfig::without_gossip(),
            map,
            f,
            0,
            Vec::new(),
            (0..map.n())
                .map(|_| ShardedAbdServer::new(0, spec))
                .collect(),
            (0..clients)
                .map(|c| ShardedAbdClient::new(map, c))
                .collect(),
        )
    }
}

impl ShardedCasCluster {
    /// A sharded CAS cluster from a validated [`ShardedCasConfig`].
    pub fn from_config(cfg: ShardedCasConfig, clients: u32) -> ShardedCasCluster {
        Cluster::assemble(
            SimConfig::without_gossip(),
            cfg.map,
            cfg.f,
            0,
            vec![(cfg.map.replicas(), cfg.k)],
            (0..cfg.map.n())
                .map(|i| ShardedCasServer::new(cfg.clone(), ServerId(i), 0))
                .collect(),
            (0..clients)
                .map(|c| ShardedCasClient::new(cfg.clone(), c))
                .collect(),
        )
    }

    /// Sharded CAS with the native per-shard `k = replicas − 2f` code.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < replicas`.
    pub fn new(map: ShardMap, f: u32, clients: u32, spec: ValueSpec) -> ShardedCasCluster {
        Self::from_config(ShardedCasConfig::native(map, f, spec), clients)
    }

    /// Sharded CAS with the storage-optimal `k = replicas − f` MDS code —
    /// the profile whose per-key storage sits exactly on the `ν·N/(N−f)`
    /// bound (conditional liveness; see [`ShardedCasConfig::coded`]).
    ///
    /// # Panics
    ///
    /// Panics unless `f < replicas`.
    pub fn coded(map: ShardMap, f: u32, clients: u32, spec: ValueSpec) -> ShardedCasCluster {
        Self::from_config(ShardedCasConfig::coded(map, f, spec), clients)
    }
}

impl ShardedHashedCluster {
    /// A sharded hashed-CAS cluster with the native per-shard code.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < replicas`.
    pub fn new(map: ShardMap, f: u32, clients: u32, spec: ValueSpec) -> ShardedHashedCluster {
        let cfg = ShardedCasConfig::native(map, f, spec);
        Cluster::assemble(
            SimConfig::without_gossip(),
            map,
            f,
            0,
            vec![(map.replicas(), cfg.k)],
            (0..map.n())
                .map(|i| ShardedHashedServer::new(cfg.clone(), ServerId(i), 0))
                .collect(),
            (0..clients)
                .map(|c| ShardedHashedClient::new(cfg.clone(), c))
                .collect(),
        )
    }
}

/// A reproducible concurrent workload: `writers` clients each performing
/// `rounds` writes of unique values, interleaved with `readers` clients
/// reading, under a seeded random schedule.
///
/// Returns the completed steps.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_concurrent_workload<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    cluster: &mut Cluster<P>,
    writers: u32,
    readers: u32,
    rounds: u32,
    seed: u64,
) -> Result<(), RunError> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut next_value = 1u64;
    let watch: Vec<u32> = (0..writers + readers).collect();
    for _ in 0..rounds {
        for w in 0..writers {
            cluster.begin(w, RegInv::Write(next_value))?;
            next_value += 1;
        }
        for r in 0..readers {
            cluster.begin(writers + r, RegInv::Read)?;
        }
        // Interleave: random schedule until all ops of the round complete.
        cluster.drain(&mut rng, &watch)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_spec::{check_atomic, check_regular};

    #[test]
    fn abd_sequential_history_is_atomic() {
        let mut c = AbdCluster::new(5, 2, 3, ValueSpec::from_bits(64.0));
        c.write(0, 1).unwrap();
        assert_eq!(c.read(2), Ok(1));
        c.write(1, 2).unwrap();
        assert_eq!(c.read(2), Ok(2));
        let h = c.history();
        assert!(h.is_well_formed());
        assert!(check_atomic(&h).is_ok());
        assert!(check_regular(&h).is_ok());
    }

    #[test]
    fn abd_concurrent_histories_atomic_across_seeds() {
        for seed in 0..8 {
            let mut c = AbdCluster::new(5, 2, 4, ValueSpec::from_bits(64.0));
            run_concurrent_workload(&mut c, 2, 2, 2, seed).unwrap();
            let h = c.history();
            assert!(
                check_atomic(&h).is_ok(),
                "seed {seed} produced non-atomic history: {h:?}"
            );
        }
    }

    #[test]
    fn cas_concurrent_histories_atomic_across_seeds() {
        for seed in 0..8 {
            let mut c = CasCluster::new(5, 1, 4, ValueSpec::from_bits(64.0));
            run_concurrent_workload(&mut c, 2, 2, 2, seed).unwrap();
            let h = c.history();
            assert!(
                check_atomic(&h).is_ok(),
                "seed {seed} produced non-atomic history: {h:?}"
            );
        }
    }

    #[test]
    fn casgc_concurrent_histories_atomic_across_seeds() {
        for seed in 0..8 {
            // δ = 4 comfortably covers 2 concurrent writers.
            let mut c = CasCluster::with_gc(5, 1, 4, 4, ValueSpec::from_bits(64.0));
            run_concurrent_workload(&mut c, 2, 2, 2, seed).unwrap();
            assert!(check_atomic(&c.history()).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn lossy_cluster_violates_regularity() {
        let mut c = LossyCluster::new(3, 1, 2, 2, ValueSpec::from_bits(8.0));
        c.write(0, 0xAB).unwrap();
        let got = c.read(1).unwrap();
        assert_ne!(got, 0xAB); // truncated
        let h = c.history();
        assert!(check_regular(&h).is_err());
        assert!(check_atomic(&h).is_err());
    }

    #[test]
    fn abd_storage_flat_in_concurrency_cas_grows() {
        let spec = ValueSpec::from_bits(64.0);
        // Three concurrent writers.
        let mut abd = AbdCluster::new(5, 2, 3, spec);
        run_concurrent_workload(&mut abd, 3, 0, 2, 7).unwrap();
        let abd_total = abd.storage().peak_total_bits;
        assert_eq!(abd_total, 5.0 * 64.0); // one value per server, always

        let mut cas = CasCluster::new(5, 1, 3, spec);
        run_concurrent_workload(&mut cas, 3, 0, 2, 7).unwrap();
        let cas_total = cas.storage().peak_total_bits;
        // k = 3; at least 2 versions coexist somewhere along the run.
        assert!(cas_total > 5.0 * 64.0 / 3.0, "cas_total={cas_total}");
    }

    #[test]
    fn history_records_incomplete_ops() {
        let mut c = AbdCluster::new(3, 1, 1, ValueSpec::from_bits(64.0));
        c.begin(0, RegInv::Write(9)).unwrap();
        // Never run: the op stays open.
        let h = c.history();
        assert_eq!(h.len(), 1);
        assert!(!h.ops()[0].is_complete());
    }
}
