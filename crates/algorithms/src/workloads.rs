//! Workload generators: reproducible operation patterns for storage
//! measurements and consistency sweeps.
//!
//! The paper's storage costs are driven by the number of *active writes*
//! `ν`; these generators shape that number deliberately — steady
//! concurrency, bursts, ramps, and a crash-prone writer whose abandoned
//! writes stay active forever (the "failed write operations whose codeword
//! symbols have not been propagated" scenario of the introduction).

use crate::harness::Cluster;
use crate::multikey::{Key, MultiInv, MultiResp};
use crate::reg::{RegInv, RegResp};
use shmem_sim::{NodeId, Protocol, RunError};
use shmem_util::DetRng;

/// Outcome of a workload run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadReport {
    /// Operations invoked.
    pub invoked: usize,
    /// Operations completed.
    pub completed: usize,
    /// Steps executed.
    pub steps: u64,
    /// The measured `ν`: the maximum number of concurrently active writes
    /// (per Section 2.3's definition, computed from the history).
    pub measured_nu: usize,
}

fn report<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    cluster: &Cluster<P>,
    steps: u64,
) -> WorkloadReport {
    let h = cluster.history();
    WorkloadReport {
        invoked: h.len(),
        completed: h.ops().iter().filter(|o| o.is_complete()).count(),
        steps,
        measured_nu: h.max_active_writes(),
    }
}

/// Bursts: all `writers` write simultaneously, the system drains, repeat.
/// Produces `ν ≈ writers` during each burst and `ν = 0` between bursts.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_bursty<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    cluster: &mut Cluster<P>,
    writers: u32,
    bursts: u32,
    seed: u64,
) -> Result<WorkloadReport, RunError> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut next = 1u64;
    let mut steps = 0;
    let watch: Vec<u32> = (0..writers).collect();
    for _ in 0..bursts {
        for w in 0..writers {
            cluster.begin(w, RegInv::Write(next))?;
            next += 1;
        }
        steps += cluster.drain(&mut rng, &watch)?;
    }
    Ok(report(cluster, steps))
}

/// Ramp: round `r` has `r + 1` concurrent writers (up to `max_writers`),
/// so the measured `ν` climbs the Figure 1 x-axis within one execution.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_ramp<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    cluster: &mut Cluster<P>,
    max_writers: u32,
    seed: u64,
) -> Result<WorkloadReport, RunError> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut next = 1u64;
    let mut steps = 0;
    for round in 1..=max_writers {
        let watch: Vec<u32> = (0..round).collect();
        for w in 0..round {
            cluster.begin(w, RegInv::Write(next))?;
            next += 1;
        }
        steps += cluster.drain(&mut rng, &watch)?;
    }
    Ok(report(cluster, steps))
}

/// A crash-prone writer: in each of `rounds`, writer 0 begins a write and
/// crashes after `partial_steps` steps, leaving the write active forever;
/// a fresh writer then completes a write and a reader reads. Models the
/// introduction's "failed write operations" that erasure-coded servers
/// must keep symbols for.
///
/// Uses clients `0..rounds` as the crashing writers (a crashed client
/// cannot be reused), client `rounds` as the surviving writer and client
/// `rounds + 1` as the reader.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_crashy<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    cluster: &mut Cluster<P>,
    rounds: u32,
    partial_steps: u32,
    seed: u64,
) -> Result<WorkloadReport, RunError> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut steps = 0;
    let survivor = rounds;
    let reader = rounds + 1;
    for round in 0..rounds {
        let next = u64::from(round) + 1;
        cluster.begin(round, RegInv::Write(1000 + u64::from(round)))?;
        for _ in 0..partial_steps {
            if cluster
                .sim
                .step_with(|opts| rng.gen_range(0..opts.len()))
                .is_none()
            {
                break;
            }
            steps += 1;
        }
        cluster.sim.fail(NodeId::client(round));
        // A surviving writer and reader still make progress.
        cluster.begin(survivor, RegInv::Write(next))?;
        steps += cluster.drain(&mut rng, &[survivor])?;
        cluster.begin(reader, RegInv::Read)?;
        steps += cluster.drain(&mut rng, &[reader])?;
    }
    Ok(report(cluster, steps))
}

/// A Zipfian key-popularity distribution over `0..universe`: key `i` is
/// drawn with probability proportional to `1/(i+1)^theta`. Deterministic
/// and seed-stable — the weight table is integer-quantized once at
/// construction, and sampling uses only [`DetRng::weighted_index`], so a
/// given `(universe, theta, seed)` triple reproduces the same key stream
/// on every platform.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    weights: Vec<u64>,
}

impl ZipfKeys {
    /// Quantization scale for the most popular key's weight. Large enough
    /// that even steep `theta` keeps distinct ranks distinct until the
    /// clamp at weight 1.
    const SCALE: f64 = 1_000_000.0;

    /// A distribution over keys `0..universe` with exponent `theta`
    /// (`theta = 0` is uniform; ~1 is the classic web-workload skew).
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0` or `theta` is negative or non-finite.
    pub fn new(universe: u64, theta: f64) -> ZipfKeys {
        assert!(universe > 0, "need a nonempty key universe");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be finite and nonnegative"
        );
        let weights = (0..universe)
            .map(|i| {
                (Self::SCALE / ((i + 1) as f64).powf(theta))
                    .round()
                    .max(1.0) as u64
            })
            .collect();
        ZipfKeys { weights }
    }

    /// The key universe size.
    pub fn universe(&self) -> u64 {
        self.weights.len() as u64
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut DetRng) -> Key {
        rng.weighted_index(&self.weights) as Key
    }

    /// Draws a batch of `size` *distinct* keys — the shape batched
    /// invocations require. Popular keys saturate first, so small batches
    /// stay skewed while `size → universe` degrades gracefully to a
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the key universe.
    pub fn sample_batch(&self, rng: &mut DetRng, size: usize) -> Vec<Key> {
        assert!(
            size as u64 <= self.universe(),
            "batch of {size} distinct keys exceeds universe {}",
            self.universe()
        );
        let mut picked = Vec::with_capacity(size);
        while picked.len() < size {
            let k = self.sample(rng);
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        picked
    }
}

/// A reproducible batched multi-key workload: each of `rounds`, every
/// writer writes a batch of `batch` Zipf-drawn distinct keys and every
/// reader reads such a batch, interleaved under a seeded random schedule.
///
/// Returns the total scheduler steps.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_zipf_batches<P: Protocol<Inv = MultiInv, Resp = MultiResp>>(
    cluster: &mut Cluster<P>,
    zipf: &ZipfKeys,
    writers: u32,
    readers: u32,
    batch: usize,
    rounds: u32,
    seed: u64,
) -> Result<u64, RunError> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut next_value = 1u64;
    let mut steps = 0u64;
    let watch: Vec<u32> = (0..writers + readers).collect();
    for _ in 0..rounds {
        for w in 0..writers {
            let keys = zipf.sample_batch(&mut rng, batch);
            let pairs: Vec<(Key, u64)> = keys
                .iter()
                .map(|&k| {
                    next_value += 1;
                    (k, next_value)
                })
                .collect();
            cluster.begin(w, MultiInv::writes(&pairs))?;
        }
        for r in 0..readers {
            let keys = zipf.sample_batch(&mut rng, batch);
            cluster.begin(writers + r, MultiInv::reads(&keys))?;
        }
        steps += cluster.drain(&mut rng, &watch)?;
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{AbdCluster, CasCluster};
    use crate::value::ValueSpec;
    use shmem_spec::check_atomic;

    fn spec64() -> ValueSpec {
        ValueSpec::from_bits(64.0)
    }

    #[test]
    fn bursty_measures_full_concurrency() {
        let mut c = AbdCluster::new(5, 2, 3, spec64());
        let r = run_bursty(&mut c, 3, 2, 1).unwrap();
        assert_eq!(r.invoked, 6);
        assert_eq!(r.completed, 6);
        assert_eq!(r.measured_nu, 3);
        assert!(check_atomic(&c.history()).is_ok());
    }

    #[test]
    fn ramp_climbs_concurrency() {
        let mut c = AbdCluster::new(7, 3, 4, spec64());
        let r = run_ramp(&mut c, 4, 2).unwrap();
        assert_eq!(r.invoked, 1 + 2 + 3 + 4);
        assert_eq!(r.measured_nu, 4);
        assert!(check_atomic(&c.history()).is_ok());
    }

    #[test]
    fn crashy_leaves_writes_active_but_stays_atomic() {
        let mut c = AbdCluster::new(5, 2, 5, spec64());
        let r = run_crashy(&mut c, 3, 4, 3).unwrap();
        // The 3 crashed writes never complete.
        assert_eq!(r.invoked - r.completed, 3);
        assert!(check_atomic(&c.history()).is_ok());
    }

    #[test]
    fn crashy_cas_accumulates_orphan_versions() {
        // Abandoned pre-writes leave orphan symbols at the servers (plain
        // CAS has no GC): exactly the storage blow-up the paper's
        // introduction describes.
        let mut c = CasCluster::new(5, 1, 5, spec64());
        let before = c.storage().peak_total_bits;
        run_crashy(&mut c, 3, 20, 5).unwrap();
        let after = c.storage().peak_total_bits;
        assert!(after > before, "orphans must consume storage");
        assert!(check_atomic(&c.history()).is_ok());
    }

    #[test]
    fn workload_reports_are_deterministic() {
        let run = || {
            let mut c = AbdCluster::new(5, 2, 3, spec64());
            run_bursty(&mut c, 3, 2, 11).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zipf_is_seed_stable_and_skewed() {
        let z = ZipfKeys::new(64, 0.99);
        let draw = |seed| {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        // Same seed → same stream; different seed → different stream.
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Skew: key 0 must dominate any deep-tail key by a wide margin.
        let stream = draw(7);
        let count = |k: Key| stream.iter().filter(|&&x| x == k).count();
        assert!(count(0) > 10 * count(60).max(1), "not skewed: {}", count(0));
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = ZipfKeys::new(4, 0.0);
        let mut rng = DetRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "skewed: {counts:?}");
    }

    #[test]
    fn zipf_batches_are_distinct_keys() {
        let z = ZipfKeys::new(16, 1.2);
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..50 {
            let batch = z.sample_batch(&mut rng, 8);
            let mut sorted = batch.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), batch.len());
        }
        // A full-universe batch is a permutation.
        let full = z.sample_batch(&mut rng, 16);
        let mut sorted = full.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_batched_workload_runs_and_projects_atomically() {
        use crate::harness::ShardedAbdCluster;
        use crate::multikey::ShardMap;
        let map = ShardMap::new(6, 2, 3);
        let mut c = ShardedAbdCluster::new(map, 1, 4, spec64());
        let zipf = ZipfKeys::new(32, 0.99);
        run_zipf_batches(&mut c, &zipf, 2, 2, 4, 3, 17).unwrap();
        let histories = c.histories();
        assert!(!histories.is_empty());
        for (key, h) in histories {
            assert!(check_atomic(&h).is_ok(), "key {key}");
        }
    }
}
