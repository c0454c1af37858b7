//! The memoized, parallel valency-probe engine.
//!
//! Every lower-bound construction in this crate bottoms out in the same
//! primitive: *fork the world at a point, run a read under an adversarial
//! schedule, observe what it returns*. Two facts about that primitive do
//! all the work here:
//!
//! 1. **Probes are pure.** The simulator is deterministic, a probe runs on
//!    a fork, and the schedule is fixed by the configuration — so the
//!    verdict is a function of (point state, probe configuration) alone.
//! 2. **The constructions re-probe.** Critical-pair scans revisit points,
//!    the counting enumerations replay overlapping executions, and the
//!    profile/figure pipelines probe the same `α` several times over.
//!
//! [`ProbeEngine`] exploits both:
//!
//! * **Memoization** — verdicts are cached under `(point digest, config
//!   digest)`. [`Snapshot`](shmem_sim::Snapshot) memoizes the point digest
//!   (the expensive full-world walk), so repeated probes of one point pay
//!   for the walk once.
//! * **Deterministic fan-out** — [`ProbeEngine::map`] runs independent
//!   jobs on `std::thread::scope` workers that pull indices from a shared
//!   atomic counter and deposit results into index-addressed slots. The
//!   merged output is in job order regardless of completion order, and a
//!   1-worker engine runs the *same* code path inline — so parallel and
//!   sequential runs are bit-identical by construction (and asserted by
//!   the `engine_parity` integration tests).
//!
//! Engines are cheap handles: [`ProbeEngine::view`] produces a handle with
//! a different worker count over the *same* cache, which is how outer
//! enumerations (over value pairs or vectors) parallelize while their
//! inner critical-pair searches run inline on the worker without nested
//! thread explosions.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use shmem_algorithms::value::Value;

/// The delivery schedule of one probe extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Deterministic fair round-robin over the enabled steps.
    Fair,
    /// Seeded pseudo-random delivery order ([`shmem_util::DetRng`]).
    Seeded(u64),
}

/// What one probe extension's read returned (`None` = the read got stuck —
/// a liveness violation of the probed algorithm under that schedule).
pub type ProbeVerdict = Option<Value>;

/// Cumulative counters of one engine's cache behaviour.
///
/// `probes` is deterministic — every request is counted. `hits` can be
/// lower under parallel execution than sequentially: two workers racing
/// on the same fresh key may both miss before either inserts (the
/// verdicts still agree, so the duplicate compute is harmless).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Total memoized-probe requests.
    pub probes: u64,
    /// Requests answered from the verdict cache.
    pub hits: u64,
}

impl ProbeStats {
    /// Requests that had to run a fresh probe.
    pub fn misses(&self) -> u64 {
        self.probes - self.hits
    }

    /// Fraction of requests answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

#[derive(Debug, Default)]
struct EngineShared {
    cache: Mutex<BTreeMap<(u64, u64), ProbeVerdict>>,
    probes: AtomicU64,
    hits: AtomicU64,
}

/// A memoizing, optionally parallel executor for valency probes.
///
/// See the [module docs](self) for the design. All views created with
/// [`ProbeEngine::view`] share one verdict cache and one set of counters.
#[derive(Debug)]
pub struct ProbeEngine {
    shared: Arc<EngineShared>,
    workers: NonZeroUsize,
}

impl ProbeEngine {
    /// An engine that runs every probe inline on the calling thread.
    pub fn sequential() -> ProbeEngine {
        ProbeEngine::with_workers(1)
    }

    /// An engine with `workers` fan-out threads (clamped to at least 1).
    pub fn with_workers(workers: usize) -> ProbeEngine {
        ProbeEngine {
            shared: Arc::new(EngineShared::default()),
            workers: NonZeroUsize::new(workers.max(1)).expect("clamped to >= 1"),
        }
    }

    /// An engine sized to the machine (capped at 8 workers; probe jobs are
    /// short enough that more rarely pays).
    pub fn parallel() -> ProbeEngine {
        let n = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        ProbeEngine::with_workers(n.min(8))
    }

    /// The fan-out width.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// A handle over the *same* cache and counters with a different
    /// fan-out width.
    pub fn view(&self, workers: usize) -> ProbeEngine {
        ProbeEngine {
            shared: Arc::clone(&self.shared),
            workers: NonZeroUsize::new(workers.max(1)).expect("clamped to >= 1"),
        }
    }

    /// A 1-worker handle over the same cache — what outer fan-outs hand to
    /// the nested searches running on their workers.
    pub fn sequential_view(&self) -> ProbeEngine {
        self.view(1)
    }

    /// Cache counters so far.
    pub fn stats(&self) -> ProbeStats {
        ProbeStats {
            probes: self.shared.probes.load(Ordering::Relaxed),
            hits: self.shared.hits.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct `(point, config)` verdicts currently cached.
    pub fn cached_verdicts(&self) -> usize {
        self.shared.cache.lock().expect("cache lock poisoned").len()
    }

    /// A memoized probe: answers from the cache when `(point, config)` was
    /// seen before, otherwise runs `run` and records its verdict.
    ///
    /// `point` must be the [`Sim::digest`](shmem_sim::Sim::digest) of the
    /// probed point and `config` a digest of *everything else* the verdict
    /// depends on (reader, schedule, restrictions, a kind tag). Two
    /// concurrent misses on the same key may both run the probe; purity
    /// makes the double write harmless.
    pub fn probe(
        &self,
        point: u64,
        config: u64,
        run: impl FnOnce() -> ProbeVerdict,
    ) -> ProbeVerdict {
        self.shared.probes.fetch_add(1, Ordering::Relaxed);
        if let Some(&verdict) = self
            .shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .get(&(point, config))
        {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        let verdict = run();
        self.shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .insert((point, config), verdict);
        verdict
    }

    /// Runs `job(0) … job(jobs − 1)` and returns their results *in job
    /// order*.
    ///
    /// [`shmem_util::par::map_indexed`] over this engine's workers: the
    /// output (and therefore every verdict derived from it) is independent
    /// of thread scheduling, and a panicking job propagates its panic to
    /// the caller.
    pub fn map<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        shmem_util::par::map_indexed(self.workers.get(), jobs, job)
    }
}

impl Default for ProbeEngine {
    fn default() -> ProbeEngine {
        ProbeEngine::parallel()
    }
}

impl Clone for ProbeEngine {
    /// Clones share the cache (an engine is a handle, not the store).
    fn clone(&self) -> ProbeEngine {
        ProbeEngine {
            shared: Arc::clone(&self.shared),
            workers: self.workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_job_order() {
        for workers in [1, 2, 4, 7] {
            let engine = ProbeEngine::with_workers(workers);
            let out = engine.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_job_sets() {
        let engine = ProbeEngine::with_workers(4);
        assert_eq!(engine.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(engine.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn parallel_map_equals_sequential_map() {
        let seq = ProbeEngine::sequential();
        let par = ProbeEngine::with_workers(4);
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        assert_eq!(seq.map(257, f), par.map(257, f));
    }

    #[test]
    fn probe_caches_by_point_and_config() {
        let engine = ProbeEngine::sequential();
        let runs = AtomicU32::new(0);
        let run = || {
            runs.fetch_add(1, Ordering::Relaxed);
            Some(42)
        };
        assert_eq!(engine.probe(1, 1, run), Some(42));
        assert_eq!(engine.probe(1, 1, run), Some(42)); // hit
        assert_eq!(engine.probe(1, 2, run), Some(42)); // different config
        assert_eq!(engine.probe(2, 1, run), Some(42)); // different point
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        let stats = engine.stats();
        assert_eq!(stats.probes, 4);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses(), 3);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(engine.cached_verdicts(), 3);
    }

    #[test]
    fn views_share_the_cache() {
        let engine = ProbeEngine::with_workers(4);
        assert_eq!(engine.probe(9, 9, || Some(5)), Some(5));
        let seq = engine.sequential_view();
        assert_eq!(seq.workers(), 1);
        // The view answers from the parent's cache without running.
        assert_eq!(seq.probe(9, 9, || unreachable!()), Some(5));
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn stuck_verdicts_are_cached_too() {
        let engine = ProbeEngine::sequential();
        assert_eq!(engine.probe(3, 3, || None), None);
        assert_eq!(engine.probe(3, 3, || unreachable!()), None);
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(ProbeEngine::with_workers(0).workers(), 1);
        assert!(ProbeEngine::parallel().workers() >= 1);
        let engine = ProbeEngine::sequential();
        assert_eq!(engine.view(0).workers(), 1);
    }
}
