//! The counting arguments — the injective mappings at the heart of
//! Theorems B.1, 4.1 and 5.1, verified by enumeration over small domains.
//!
//! * **Theorem B.1** (Appendix B): the map `v ↦ ~S^{(v)}` from written
//!   values to surviving-server state vectors (after a solo write of `v`
//!   and full message delivery) must be injective — hence
//!   `Π|S_i| ≥ |V|` over every surviving subset.
//! * **Theorems 4.1 / 5.1** (Sections 4.3.3 / 5.3.2): the map
//!   `(v1, v2) ↦ ~S^{(v1,v2)}` from ordered pairs of distinct values to
//!   critical-pair state vectors must be injective — hence
//!   `Π|S_i| · (N−f) · max|S_i| ≥ |V|(|V|−1)`.
//!
//! Running these maps against a real algorithm over an enumerable domain
//! both *validates the proof mechanics* (the maps really are injective for
//! correct algorithms) and *measures* the per-server state-space footprint
//! the theorems bound.

use crate::critical::{find_critical_pair_with, CriticalError};
use crate::execution::AlphaExecution;
use crate::probe::ProbeEngine;
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::Value;
use shmem_sim::{ClientId, Protocol, Sim};
use std::collections::{BTreeMap, BTreeSet};

/// Result of the Appendix B (Theorem B.1) enumeration.
#[derive(Clone, Debug, PartialEq)]
pub struct SingletonReport {
    /// The enumerated domain.
    pub domain: Vec<Value>,
    /// Whether `v ↦ ~S^{(v)}` was injective.
    pub injective: bool,
    /// Colliding value pairs, if any.
    pub collisions: Vec<(Value, Value)>,
    /// Distinct observed states per surviving-server position.
    pub distinct_states: Vec<usize>,
}

impl SingletonReport {
    /// `Σ log2(observed |S_i|)` — a lower estimate of the subset's total
    /// storage, which Theorem B.1 says must reach `log2 |V|`.
    pub fn observed_bits(&self) -> f64 {
        self.distinct_states
            .iter()
            .map(|&c| (c as f64).log2())
            .sum()
    }

    /// The Theorem B.1 right-hand side for the enumerated domain.
    pub fn required_bits(&self) -> f64 {
        (self.domain.len() as f64).log2()
    }

    /// Whether the observed profile satisfies the theorem's inequality
    /// (guaranteed by injectivity; exposed for reporting).
    pub fn inequality_holds(&self) -> bool {
        self.observed_bits() >= self.required_bits() - 1e-9
    }
}

/// Runs the Appendix B construction for every value of `domain`: fresh
/// world from `make_sim`, fail the last `f` servers, complete `write(v)`,
/// deliver all remaining messages, record the surviving servers' states.
///
/// # Panics
///
/// Panics if a write fails to terminate (the algorithm must tolerate `f`
/// failures) or if `domain` has fewer than two values.
pub fn singleton_counting<P, F>(
    make_sim: F,
    writer: ClientId,
    f: u32,
    domain: &[Value],
) -> SingletonReport
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P>,
{
    assert!(domain.len() >= 2, "need at least two values to count");
    let mut vectors: BTreeMap<Vec<u64>, Value> = BTreeMap::new();
    let mut collisions = Vec::new();
    let mut per_position: Vec<BTreeSet<u64>> = Vec::new();
    for &v in domain {
        let mut sim = make_sim();
        sim.fail_last_servers(f);
        sim.invoke(writer, RegInv::Write(v))
            .expect("writer is available");
        sim.run_until_op_completes(writer)
            .expect("write must terminate with <= f failures");
        // "At P̃(v), all the channels in the system act, delivering all
        // their messages" (Appendix B).
        sim.run_to_quiescence().expect("delivery terminates");

        let all = sim.server_digests();
        let surviving: Vec<u64> = (0..sim.server_count())
            .filter(|&s| !sim.is_failed(shmem_sim::NodeId::server(s as u32)))
            .map(|s| all[s])
            .collect();
        if per_position.is_empty() {
            per_position = vec![BTreeSet::new(); surviving.len()];
        }
        for (slot, &d) in per_position.iter_mut().zip(&surviving) {
            slot.insert(d);
        }
        if let Some(&prev) = vectors.get(&surviving) {
            collisions.push((prev, v));
        } else {
            vectors.insert(surviving, v);
        }
    }

    SingletonReport {
        domain: domain.to_vec(),
        injective: collisions.is_empty(),
        collisions,
        distinct_states: per_position.iter().map(BTreeSet::len).collect(),
    }
}

/// Result of the Theorem 4.1 / 5.1 pairwise enumeration.
#[derive(Clone, Debug, PartialEq)]
pub struct CountingReport {
    /// Number of ordered pairs enumerated: `|V|·(|V|−1)`.
    pub pairs: usize,
    /// Whether `(v1,v2) ↦ ~S^{(v1,v2)}` was injective.
    pub injective: bool,
    /// Colliding pair-of-pairs, if any.
    pub collisions: Vec<((Value, Value), (Value, Value))>,
    /// Distinct observed `Q₁` states per surviving-server position.
    pub distinct_states_q1: Vec<usize>,
    /// Distinct observed `(changed index, Q₂ state)` combinations.
    pub distinct_change_records: usize,
    /// Pairs whose critical-pair search failed (empty for a regular
    /// algorithm; non-empty output is a *refutation* of the algorithm's
    /// regularity).
    pub failures: Vec<((Value, Value), CriticalError)>,
}

impl CountingReport {
    /// Left-hand side of the cardinality inequality, in bits:
    /// `Σ log2|S_i^obs| + log2(#change records)`.
    pub fn observed_bits(&self) -> f64 {
        let sum: f64 = self
            .distinct_states_q1
            .iter()
            .map(|&c| (c as f64).log2())
            .sum();
        sum + (self.distinct_change_records.max(1) as f64).log2()
    }

    /// Right-hand side: `log2(|V|·(|V|−1))`.
    pub fn required_bits(&self) -> f64 {
        (self.pairs as f64).log2()
    }

    /// Whether the observed profile satisfies the theorem's inequality.
    pub fn inequality_holds(&self) -> bool {
        self.observed_bits() >= self.required_bits() - 1e-9
    }
}

/// Runs the Section 4.3.3 (or, with `flush_gossip`, Section 5.3.2)
/// enumeration: for every ordered pair of distinct values in `domain`,
/// build `α^{(v1,v2)}`, locate its critical pair, and collect the
/// `~S^{(v1,v2)}` vector. Verifies injectivity of the map.
///
/// # Panics
///
/// Panics if `domain` has fewer than two values or an `α` execution cannot
/// be built (liveness failure under `f` crashes).
pub fn pairwise_counting<P, F>(
    make_sim: F,
    writer: ClientId,
    reader: ClientId,
    f: u32,
    domain: &[Value],
    flush_gossip: bool,
    seeds: u64,
) -> CountingReport
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P>,
{
    pairwise_counting_with(
        &ProbeEngine::default(),
        make_sim,
        writer,
        reader,
        f,
        domain,
        flush_gossip,
        seeds,
    )
}

/// [`pairwise_counting`] through a [`ProbeEngine`]: every pair's
/// critical-pair search probes through `engine`, so the verdicts of all
/// `|V|·(|V|−1)` searches share one cache.
#[allow(clippy::too_many_arguments)]
pub fn pairwise_counting_with<P, F>(
    engine: &ProbeEngine,
    make_sim: F,
    writer: ClientId,
    reader: ClientId,
    f: u32,
    domain: &[Value],
    flush_gossip: bool,
    seeds: u64,
) -> CountingReport
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P>,
{
    assert!(domain.len() >= 2, "need at least two values to count");
    let ordered: Vec<(Value, Value)> = domain
        .iter()
        .flat_map(|&v1| domain.iter().map(move |&v2| (v1, v2)))
        .filter(|&(v1, v2)| v1 != v2)
        .collect();
    let mut vectors: BTreeMap<(Vec<u64>, usize, u64), (Value, Value)> = BTreeMap::new();
    let mut collisions = Vec::new();
    let mut failures = Vec::new();
    let mut per_position: Vec<BTreeSet<u64>> = Vec::new();
    let mut change_records: BTreeSet<(usize, u64)> = BTreeSet::new();
    let pairs = ordered.len();

    for &(v1, v2) in &ordered {
        let alpha = AlphaExecution::build(make_sim(), writer, f, v1, v2)
            .expect("alpha execution must complete under <= f failures");
        match find_critical_pair_with(engine, &alpha, reader, flush_gossip, seeds) {
            Ok(pair) => {
                if per_position.is_empty() {
                    per_position = vec![BTreeSet::new(); pair.states_q1.len()];
                }
                for (slot, &d) in per_position.iter_mut().zip(&pair.states_q1) {
                    slot.insert(d);
                }
                change_records.insert((pair.changed_server.unwrap_or(0), pair.state_q2));
                let key = pair.state_vector();
                if let Some(&prev) = vectors.get(&key) {
                    collisions.push((prev, (v1, v2)));
                } else {
                    vectors.insert(key, (v1, v2));
                }
            }
            Err(e) => failures.push(((v1, v2), e)),
        }
    }

    CountingReport {
        pairs,
        injective: collisions.is_empty() && failures.is_empty(),
        collisions,
        distinct_states_q1: per_position.iter().map(BTreeSet::len).collect(),
        distinct_change_records: change_records.len(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_algorithms::abd::{Abd, AbdClient, AbdServer};
    use shmem_algorithms::cas::{Cas, CasClient, CasConfig, CasServer};
    use shmem_algorithms::lossy::{Lossy, LossyServer};
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::{ServerId, SimConfig};

    fn abd_world() -> Sim<Abd> {
        let spec = ValueSpec::from_cardinality(8);
        Sim::new(
            SimConfig::without_gossip(),
            (0..5).map(|_| AbdServer::new(0, spec)).collect(),
            (0..2).map(|c| AbdClient::new(5, c)).collect(),
        )
    }

    fn cas_world() -> Sim<Cas> {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_cardinality(8));
        Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|i| CasServer::new(cfg, ServerId(i), 0))
                .collect(),
            (0..2).map(|c| CasClient::new(cfg, c)).collect(),
        )
    }

    fn lossy_world(kept_bits: u32) -> Sim<Lossy> {
        let spec = ValueSpec::from_cardinality(8);
        Sim::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|_| LossyServer::new(0, kept_bits, spec))
                .collect(),
            (0..2).map(|c| AbdClient::new(5, c)).collect(),
        )
    }

    #[test]
    fn abd_singleton_map_is_injective() {
        let report = singleton_counting(abd_world, ClientId(0), 2, &[1, 2, 3, 4, 5, 6, 7]);
        assert!(report.injective, "collisions: {:?}", report.collisions);
        assert!(report.inequality_holds());
        // ABD: every surviving server ends with the written value, so each
        // position saw all 7 states.
        assert_eq!(report.distinct_states, vec![7, 7, 7]);
    }

    #[test]
    fn cas_singleton_map_is_injective() {
        let report = singleton_counting(cas_world, ClientId(0), 1, &[1, 2, 3, 4]);
        assert!(report.injective);
        assert!(report.inequality_holds());
        assert_eq!(report.distinct_states.len(), 4); // 5 servers, 1 failed
    }

    #[test]
    fn lossy_singleton_map_collides() {
        // Servers keep 1 bit: at most 2 states per position, so over a
        // domain of 4 values the map must collide — the Theorem B.1
        // counting argument detects the cheat through non-injectivity.
        let report = singleton_counting(|| lossy_world(1), ClientId(0), 2, &[0, 1, 2, 3]);
        assert!(!report.injective);
        assert!(!report.collisions.is_empty());
        // Note the *marginal* inequality 3 servers x 1 bit >= log2(4) still
        // holds here — the violation is in the joint state space, which is
        // exactly why the theorem's proof argues via injectivity.
        assert!(report.observed_bits() >= report.required_bits());
    }

    #[test]
    fn lossy_singleton_marginals_fail_for_wide_domain() {
        // Over 16 values, 3 surviving 1-bit servers cannot even satisfy the
        // marginal form: 3 bits < log2(16) = 4.
        let domain: Vec<u64> = (0..16).collect();
        let report = singleton_counting(|| lossy_world(1), ClientId(0), 2, &domain);
        assert!(!report.injective);
        assert!(report.observed_bits() < report.required_bits());
        assert!(!report.inequality_holds());
    }

    #[test]
    fn abd_pairwise_map_is_injective() {
        let domain = [1, 2, 3];
        let report = pairwise_counting(abd_world, ClientId(0), ClientId(1), 2, &domain, false, 2);
        assert_eq!(report.pairs, 6);
        assert!(
            report.injective,
            "collisions={:?} failures={:?}",
            report.collisions, report.failures
        );
        assert!(report.inequality_holds());
    }

    #[test]
    fn cas_pairwise_map_is_injective() {
        let domain = [1, 2, 3];
        let report = pairwise_counting(cas_world, ClientId(0), ClientId(1), 1, &domain, false, 2);
        assert_eq!(report.pairs, 6);
        assert!(
            report.injective,
            "collisions={:?} failures={:?}",
            report.collisions, report.failures
        );
    }

    #[test]
    fn lossy_pairwise_enumeration_refutes_regularity() {
        // With 1-bit servers, a write of 2 or 3 is truncated, so probes
        // return values outside {v1, v2}: the critical-pair search fails,
        // refuting regularity exactly as the theorems predict for an
        // algorithm below the bound.
        let domain = [1, 2, 3];
        let report = pairwise_counting(
            || lossy_world(1),
            ClientId(0),
            ClientId(1),
            2,
            &domain,
            false,
            0,
        );
        assert!(!report.injective);
        assert!(!report.failures.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two values")]
    fn tiny_domain_rejected() {
        let _ = singleton_counting(abd_world, ClientId(0), 2, &[1]);
    }
}
