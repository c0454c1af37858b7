//! Acceptance tests for the probe engine: its memoized verdicts must equal
//! the uncached reference path ([`observed_values`]), and a warm engine —
//! reached through a clone — must answer a repeat run of every
//! construction in the crate entirely from its cache, with an identical
//! report, including the refutation (error) paths.

use std::fmt::Debug;

use shmem_algorithms::abd::{self, Abd, AbdClient, AbdServer};
use shmem_algorithms::cas::{Cas, CasClient, CasConfig, CasServer};
use shmem_algorithms::lossy::{Lossy, LossyServer};
use shmem_algorithms::value::ValueSpec;
use shmem_algorithms::{RegInv, RegResp};
use shmem_core::counting::{pairwise_counting, pairwise_counting_with};
use shmem_core::critical::{
    find_critical_pair, find_critical_pair_with, valency_profile_with, CriticalError,
};
use shmem_core::execution::AlphaExecution;
use shmem_core::multiwrite::{
    build_alpha0, probe_restricted_with, staged_search_with, vector_counting_with, MultiWriteSetup,
};
use shmem_core::probe::ProbeEngine;
use shmem_core::valency::{observed_values, observed_values_at};
use shmem_sim::{ClientId, Protocol, ServerId, Sim, SimConfig};
use shmem_util::prop::prelude::*;

fn abd_world() -> Sim<Abd> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5).map(|_| AbdServer::new(0, spec)).collect(),
        (0..3).map(|c| AbdClient::new(5, c)).collect(),
    )
}

fn cas_world() -> Sim<Cas> {
    let cfg = CasConfig::native(5, 1, ValueSpec::from_cardinality(8));
    Sim::new(
        SimConfig::without_gossip(),
        (0..5)
            .map(|i| CasServer::new(cfg, ServerId(i), 0))
            .collect(),
        (0..3).map(|c| CasClient::new(cfg, c)).collect(),
    )
}

fn lossy_world() -> Sim<Lossy> {
    let spec = ValueSpec::from_cardinality(8);
    Sim::new(
        SimConfig::without_gossip(),
        (0..5).map(|_| LossyServer::new(0, 1, spec)).collect(),
        (0..2).map(|c| AbdClient::new(5, c)).collect(),
    )
}

fn abd_setup() -> MultiWriteSetup<Abd> {
    MultiWriteSetup {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    }
}

/// The critical-pair scan over the uncached reference path, written
/// independently of the engine's: the largest index whose sampled reads
/// return `v1`, or the refutation the search must report.
fn uncached_critical_index<P>(alpha: &AlphaExecution<P>, seeds: u64) -> Result<usize, CriticalError>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    let observed =
        |i: usize| observed_values(alpha.point(i), alpha.writer, ClientId(1), false, seeds);
    let at_p0 = observed(0);
    if !at_p0.contains(&alpha.v1) {
        return Err(CriticalError::P0NotOneValent {
            observed: at_p0.into_iter().collect(),
        });
    }
    let m = alpha.len() - 1;
    let valent: Vec<usize> = (0..=m)
        .filter(|&i| observed(i).contains(&alpha.v1))
        .collect();
    match valent.last() {
        Some(&i) if i < m => Ok(i),
        _ => Err(CriticalError::NoTransition),
    }
}

/// Runs `run` on a fresh engine, then again through a clone of it: the
/// repeat must report the same thing, re-request every probe, and answer
/// every one of them from the cache the first run filled.
fn assert_replays_from_cache<T: PartialEq + Debug>(what: &str, run: impl Fn(&ProbeEngine) -> T) {
    let engine = ProbeEngine::default();
    let first = run(&engine);
    let cold = engine.stats();
    assert!(cold.probes > 0, "{what}: no probe issued");
    let clone = engine.clone();
    let second = run(&clone);
    let warm = engine.stats();
    assert_eq!(first, second, "{what}: a warm engine changed the report");
    assert_eq!(
        warm,
        clone.stats(),
        "{what}: a clone keeps its own counters"
    );
    assert_eq!(warm.probes, 2 * cold.probes, "{what}");
    assert_eq!(
        warm.misses(),
        cold.misses(),
        "{what}: a repeat probe missed"
    );
}

#[test]
fn cached_observed_values_equal_uncached_at_every_alpha_point() {
    let engine = ProbeEngine::default();
    // With no crash (f = 0) a read picks its quorum from all five
    // servers, so some point answers a seeded schedule differently from
    // the fair one: a cache that confused schedules would show there.
    let mut schedules_matter = false;
    for f in [2, 0] {
        let alpha = AlphaExecution::build(abd_world(), ClientId(0), f, 1, 2).unwrap();
        for i in 0..alpha.len() {
            let reference = observed_values(alpha.point(i), ClientId(0), ClientId(1), false, 5);
            let got = observed_values_at(
                &engine,
                alpha.snapshot(i),
                ClientId(0),
                ClientId(1),
                false,
                5,
            );
            assert_eq!(reference, got, "f = {f}, point {i}");
            let fair_only = observed_values(alpha.point(i), ClientId(0), ClientId(1), false, 0);
            schedules_matter |= fair_only != reference;
        }
    }
    assert!(schedules_matter, "no point tells the schedules apart");
}

#[test]
fn critical_pair_equals_the_uncached_scan() {
    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    let got = find_critical_pair(&alpha, ClientId(1), false, 4).map(|pair| pair.index);
    assert_eq!(got, uncached_critical_index(&alpha, 4));
    assert!(got.is_ok());

    let cas_alpha = AlphaExecution::build(cas_world(), ClientId(0), 1, 3, 5).unwrap();
    let got = find_critical_pair(&cas_alpha, ClientId(1), false, 4).map(|pair| pair.index);
    assert_eq!(got, uncached_critical_index(&cas_alpha, 4));
    assert!(got.is_ok());
}

#[test]
fn refutations_equal_the_uncached_scan() {
    // The lossy algorithm fails the critical-pair search for truncated
    // values; the failure list must name exactly the pairs the uncached
    // scan refutes, with the same errors, in enumeration order.
    let domain = [1, 2, 3];
    let report = pairwise_counting(lossy_world, ClientId(0), ClientId(1), 2, &domain, false, 0);
    assert!(!report.injective);
    assert!(!report.failures.is_empty());
    let mut expected = Vec::new();
    for &v1 in &domain {
        for &v2 in domain.iter().filter(|&&v2| v2 != v1) {
            let alpha = AlphaExecution::build(lossy_world(), ClientId(0), 2, v1, v2).unwrap();
            if let Err(e) = uncached_critical_index(&alpha, 0) {
                expected.push(((v1, v2), e));
            }
        }
    }
    assert_eq!(report.failures, expected);
}

#[test]
fn warm_engine_answers_every_construction_from_cache() {
    let domain = [1, 2, 3];
    let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, 2).unwrap();
    assert_replays_from_cache("critical pair", |engine| {
        find_critical_pair_with(engine, &alpha, ClientId(1), false, 4)
    });
    assert_replays_from_cache("valency profile", |engine| {
        valency_profile_with(engine, &alpha, ClientId(1), false, 3)
    });
    assert_replays_from_cache("pairwise counting", |engine| {
        pairwise_counting_with(
            engine,
            abd_world,
            ClientId(0),
            ClientId(1),
            2,
            &domain,
            false,
            2,
        )
    });
    assert_replays_from_cache("pairwise refutation", |engine| {
        pairwise_counting_with(
            engine,
            lossy_world,
            ClientId(0),
            ClientId(1),
            2,
            &domain,
            false,
            0,
        )
    });

    let setup = abd_setup();
    let alpha0 = build_alpha0(abd_world(), &setup, &[1, 2]).unwrap();
    let restricted: std::collections::BTreeSet<ClientId> = setup.writers().into_iter().collect();
    let point = alpha0.snapshot();
    assert_replays_from_cache("restricted probe", |engine| {
        probe_restricted_with(engine, &point, &setup, &restricted, 8)
    });
    assert_replays_from_cache("staged search", |engine| {
        staged_search_with(engine, abd_world, &setup, &[1, 2], 8)
    });
    assert_replays_from_cache("vector counting", |engine| {
        let report = vector_counting_with(engine, abd_world, &setup, &domain, 4);
        assert!(report.injective);
        report
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary value pairs and seed counts, the engine's critical
    /// pair sits where the uncached scan puts it.
    #[test]
    fn prop_critical_pair_matches_uncached_scan(
        v1 in 1u64..8,
        delta in 1u64..7,
        seeds in 0u64..4,
    ) {
        // Distinct second value in 1..8 by construction.
        let v2 = 1 + ((v1 - 1) + delta) % 7;
        let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, v1, v2).unwrap();
        let got = find_critical_pair(&alpha, ClientId(1), false, seeds).map(|pair| pair.index);
        prop_assert_eq!(got, uncached_critical_index(&alpha, seeds));
    }

    /// Cached and uncached valency sets agree for arbitrary points and
    /// schedule counts.
    #[test]
    fn prop_cached_observed_values_match_uncached(
        v2 in 2u64..8,
        seeds in 0u64..6,
    ) {
        let alpha = AlphaExecution::build(abd_world(), ClientId(0), 2, 1, v2).unwrap();
        let mid = alpha.len() / 2;
        let cached = observed_values_at(
            &ProbeEngine::default(),
            alpha.snapshot(mid),
            ClientId(0),
            ClientId(1),
            false,
            seeds,
        );
        let uncached = observed_values(alpha.point(mid), ClientId(0), ClientId(1), false, seeds);
        prop_assert_eq!(cached, uncached);
    }
}
