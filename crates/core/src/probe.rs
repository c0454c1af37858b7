//! The memoized valency-probe engine.
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
//! [`ProbeEngine`] therefore caches verdicts under `(point digest, config
//! digest)`. [`Snapshot`](shmem_sim::Snapshot) memoizes the point digest
//! (the expensive full-world walk), so repeated probes of one point pay
//! for the walk once.
//!
//! Engines are cheap handles: clones share one cache and one set of
//! counters, which is how a nested search reuses its parent's verdicts.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

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
    cache: RefCell<BTreeMap<(u64, u64), ProbeVerdict>>,
    probes: Cell<u64>,
    hits: Cell<u64>,
}

/// A memoizing executor for valency probes; `ProbeEngine::default()` is a
/// fresh engine with an empty cache.
///
/// See the [module docs](self) for the design. Clones share one verdict
/// cache and one set of counters.
#[derive(Clone, Debug, Default)]
pub struct ProbeEngine {
    shared: Rc<EngineShared>,
}

impl ProbeEngine {
    /// Cache counters so far.
    pub fn stats(&self) -> ProbeStats {
        ProbeStats {
            probes: self.shared.probes.get(),
            hits: self.shared.hits.get(),
        }
    }

    /// Number of distinct `(point, config)` verdicts currently cached.
    pub fn cached_verdicts(&self) -> usize {
        self.shared.cache.borrow().len()
    }

    /// A memoized probe: answers from the cache when `(point, config)` was
    /// seen before, otherwise runs `run` and records its verdict.
    ///
    /// `point` must be the [`Sim::digest`](shmem_sim::Sim::digest) of the
    /// probed point and `config` a digest of *everything else* the verdict
    /// depends on (reader, schedule, restrictions, a kind tag).
    pub fn probe(
        &self,
        point: u64,
        config: u64,
        run: impl FnOnce() -> ProbeVerdict,
    ) -> ProbeVerdict {
        let shared = &self.shared;
        shared.probes.set(shared.probes.get() + 1);
        let cached = shared.cache.borrow().get(&(point, config)).copied();
        if let Some(verdict) = cached {
            shared.hits.set(shared.hits.get() + 1);
            return verdict;
        }
        let verdict = run();
        shared.cache.borrow_mut().insert((point, config), verdict);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_caches_by_point_and_config() {
        let engine = ProbeEngine::default();
        let runs = Cell::new(0);
        let run = || {
            runs.set(runs.get() + 1);
            Some(42)
        };
        assert_eq!(engine.probe(1, 1, run), Some(42));
        assert_eq!(engine.probe(1, 1, run), Some(42)); // hit
        assert_eq!(engine.probe(1, 2, run), Some(42)); // different config
        assert_eq!(engine.probe(2, 1, run), Some(42)); // different point
        assert_eq!(runs.get(), 3);
        let stats = engine.stats();
        assert_eq!(stats.probes, 4);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses(), 3);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(engine.cached_verdicts(), 3);
    }

    #[test]
    fn clones_share_the_cache() {
        let engine = ProbeEngine::default();
        assert_eq!(engine.probe(9, 9, || Some(5)), Some(5));
        let clone = engine.clone();
        // The clone answers from the original's cache without running,
        // and the original's counters see the clone's hit.
        assert_eq!(clone.probe(9, 9, || unreachable!()), Some(5));
        assert_eq!(engine.stats().hits, 1);
        // A miss recorded through the clone is a hit for the original.
        assert_eq!(clone.probe(8, 8, || None), None);
        assert_eq!(engine.probe(8, 8, || unreachable!()), None);
        assert_eq!(engine.stats(), clone.stats());
        assert_eq!(engine.cached_verdicts(), 2);
    }

    #[test]
    fn stuck_verdicts_are_cached_too() {
        let engine = ProbeEngine::default();
        assert_eq!(engine.probe(3, 3, || None), None);
        assert_eq!(engine.probe(3, 3, || unreachable!()), None);
        assert_eq!(engine.stats().hits, 1);
    }
}
