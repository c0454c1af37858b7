//! The Section 6 staged-delivery construction, executable.
//!
//! Theorem 6.5's proof builds an execution with `ν` concurrent writers,
//! each halted at the start of its (single) value-dependent phase, so that
//! every value-dependent message sits undelivered in the client-to-server
//! channels (the point `P₀^{~v}` of Section 6.4.1). The adversary then
//! releases those messages to growing server *prefixes*: all writers'
//! messages to the first `a₁` servers, all-but-one writer's to servers
//! `a₁..a₂`, and so on (Figure 4). At each stage the construction asks
//! which value `v_j` has become *returnable without its own writer's
//! further help* — the `(j, C₀)`-valency of Section 6.4.2 — and Lemma 6.10
//! extracts an order `σ` and thresholds `a₁ < a₂ < … < a_ν` that make the
//! map from value-vectors to `(σ, ~a, server states)` injective, which
//! forces `Π |S_i| ≥ C(|V|−1, ν) / (ν! · (N−f+ν−1)^ν)`.
//!
//! This module reproduces the construction against real algorithms:
//! [`build_alpha0`] halts the writers at the value-dependent frontier,
//! [`deliver_value_dependent`] scripts the staged releases,
//! [`probe_restricted`] implements the `(j, C₀)`-valency probes, and
//! [`staged_search`] runs the Lemma 6.10 search. [`vector_counting`]
//! enumerates value-vectors over a small domain and verifies injectivity.

use crate::probe::{ProbeEngine, Schedule};
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::Value;
use shmem_sim::{hash_of, ClientId, NodeId, Point, Protocol, RunError, Sim};
use shmem_util::DetRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parameters of a Section 6 experiment.
pub struct MultiWriteSetup<P: Protocol> {
    /// Number of concurrent writers `ν`.
    pub nu: u32,
    /// Failure tolerance `f` of the probed algorithm (with bounded
    /// concurrency: Theorem 6.5's liveness condition).
    pub f: u32,
    /// Classifier for *upstream* (client-to-server) value-dependent
    /// messages — the paper's Definition 6.4.
    pub is_value_dependent: fn(&P::Msg) -> bool,
}

impl<P: Protocol> MultiWriteSetup<P> {
    /// Writer clients `C₁ … C_ν` are clients `0 .. ν`.
    pub fn writers(&self) -> Vec<ClientId> {
        (0..self.nu).map(ClientId).collect()
    }

    /// The reader is client `ν`.
    pub fn reader(&self) -> ClientId {
        ClientId(self.nu)
    }

    /// How many servers the construction fails at the beginning:
    /// `max(f + 1 − ν, 0)` (Section 6.4.1 line 2, for `ν ≤ f + 1`).
    pub fn failures(&self) -> u32 {
        (self.f + 1).saturating_sub(self.nu)
    }
}

/// Errors from the staged construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiWriteError {
    /// The simulator reported an error.
    Sim(RunError),
    /// No `(a, j)` candidate was found at some stage — for an algorithm
    /// satisfying Theorem 6.5's assumptions this refutes its liveness or
    /// weak regularity.
    NoCandidate {
        /// The stage (1-based) that found no candidate.
        stage: u32,
    },
}

impl fmt::Display for MultiWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiWriteError::Sim(e) => write!(f, "simulation error: {e}"),
            MultiWriteError::NoCandidate { stage } => {
                write!(f, "no (a, j) candidate at stage {stage}")
            }
        }
    }
}

impl std::error::Error for MultiWriteError {}

impl From<RunError> for MultiWriteError {
    fn from(e: RunError) -> MultiWriteError {
        MultiWriteError::Sim(e)
    }
}

/// Builds the execution `α₀^{~v}` of Section 6.4.1: fail the designated
/// servers, invoke `write(values[i])` at writer `i`, then deliver
/// *everything except upstream value-dependent messages* until quiescence.
/// At the returned point every writer has sent its value-dependent
/// messages, none of which has been delivered.
///
/// # Errors
///
/// Propagates simulator errors (step-limit exhaustion on livelock).
///
/// # Panics
///
/// Panics unless `values.len() == ν`.
pub fn build_alpha0<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    mut sim: Sim<P>,
    setup: &MultiWriteSetup<P>,
    values: &[Value],
) -> Result<Sim<P>, MultiWriteError> {
    assert_eq!(values.len(), setup.nu as usize, "one value per writer");
    sim.fail_last_servers(setup.failures());
    for (i, &v) in values.iter().enumerate() {
        sim.invoke(ClientId(i as u32), RegInv::Write(v))?;
    }
    run_withholding(&mut sim, setup, &setup.writers().into_iter().collect())?;
    Ok(sim)
}

/// Steps the world fairly, never delivering an upstream value-dependent
/// message from a client in `restricted`, until no other step is possible.
fn run_withholding<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    sim: &mut Sim<P>,
    setup: &MultiWriteSetup<P>,
    restricted: &BTreeSet<ClientId>,
) -> Result<u64, MultiWriteError> {
    let limit = sim.config().step_limit;
    let mut steps = 0u64;
    let mut cursor = 0usize;
    loop {
        let options = sim.step_options();
        let allowed: Vec<(NodeId, NodeId)> = options
            .into_iter()
            .filter(|&(from, to)| !is_withheld(sim, setup, restricted, from, to))
            .collect();
        if allowed.is_empty() {
            return Ok(steps);
        }
        let pick = allowed[cursor % allowed.len()];
        cursor += 1;
        sim.deliver_one(pick.0, pick.1)?;
        steps += 1;
        if steps > limit {
            return Err(RunError::StepLimit { steps: limit }.into());
        }
    }
}

fn is_withheld<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    sim: &Sim<P>,
    setup: &MultiWriteSetup<P>,
    restricted: &BTreeSet<ClientId>,
    from: NodeId,
    to: NodeId,
) -> bool {
    let NodeId::Client(c) = from else {
        return false;
    };
    if !restricted.contains(&c) || !to.is_server() {
        return false;
    }
    sim.peek_head(from, to)
        .is_some_and(|m| (setup.is_value_dependent)(m))
}

/// Delivers the queued upstream value-dependent messages from each client
/// in `writers` to each server in `servers` (the staged releases of
/// Section 6.4.1). Messages triggered by these deliveries (acks, gossip)
/// are left in flight.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn deliver_value_dependent<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    sim: &mut Sim<P>,
    setup: &MultiWriteSetup<P>,
    writers: &[ClientId],
    servers: std::ops::Range<u32>,
) -> Result<(), MultiWriteError> {
    for &w in writers {
        for s in servers.start..servers.end {
            let from = NodeId::Client(w);
            let to = NodeId::server(s);
            if sim.is_failed(to) {
                continue;
            }
            while sim
                .peek_head(from, to)
                .is_some_and(|m| (setup.is_value_dependent)(m))
            {
                sim.deliver_one(from, to)?;
            }
        }
    }
    Ok(())
}

/// The `(j, C₀)`-valency probe of Section 6.4.2, by schedule sampling:
/// fork the point, invoke a read, and run schedules (one fair + `seeds`
/// random) in which clients in `restricted` never deliver upstream
/// value-dependent messages. Returns every value some schedule's read
/// returned.
pub fn probe_restricted<P>(
    point: &Sim<P>,
    setup: &MultiWriteSetup<P>,
    restricted: &BTreeSet<ClientId>,
    seeds: u64,
) -> BTreeSet<Value>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    probe_restricted_with(
        &ProbeEngine::default(),
        &point.snapshot(),
        setup,
        restricted,
        seeds,
    )
}

/// The schedule of the `i`-th restricted probe: fair round-robin first,
/// then random schedules seeded `1..=seeds` (matching the legacy sampling
/// loop, whose seed 0 *was* the fair schedule).
fn nth_restricted_schedule(i: usize) -> Schedule {
    if i == 0 {
        Schedule::Fair
    } else {
        Schedule::Seeded(i as u64)
    }
}

/// Runs one restricted probe under an explicit [`Schedule`].
fn probe_once_schedule<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    setup: &MultiWriteSetup<P>,
    restricted: &BTreeSet<ClientId>,
    schedule: Schedule,
) -> Option<Value> {
    match schedule {
        Schedule::Fair => {
            let mut cursor = 0u64;
            probe_once(point, setup, restricted, move |len| {
                let c = cursor as usize % len;
                cursor += 1;
                c
            })
        }
        Schedule::Seeded(seed) => {
            let mut rng = DetRng::seed_from_u64(seed);
            probe_once(point, setup, restricted, move |len| rng.gen_range(0..len))
        }
    }
}

/// [`probe_restricted`] through a [`ProbeEngine`]: each of the `seeds + 1`
/// schedule verdicts is memoized under the point digest plus a digest of
/// the probe configuration (the restriction set, the schedule, and the
/// setup — the classifier enters as a function-pointer address, which is
/// stable for the lifetime of the process the cache lives in).
pub fn probe_restricted_with<P>(
    engine: &ProbeEngine,
    point: &Point<P>,
    setup: &MultiWriteSetup<P>,
    restricted: &BTreeSet<ClientId>,
    seeds: u64,
) -> BTreeSet<Value>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    (0..seeds as usize + 1)
        .filter_map(|i| {
            let schedule = nth_restricted_schedule(i);
            let config = hash_of(&(
                "restricted",
                setup.nu,
                setup.f,
                setup.is_value_dependent as usize,
                restricted,
                schedule,
            ));
            engine.probe(point.digest(), config, || {
                probe_once_schedule(point.sim(), setup, restricted, schedule)
            })
        })
        .collect()
}

fn probe_once<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    point: &Sim<P>,
    setup: &MultiWriteSetup<P>,
    restricted: &BTreeSet<ClientId>,
    mut choose: impl FnMut(usize) -> usize,
) -> Option<Value> {
    let mut sim = point.fork();
    let reader = setup.reader();
    sim.invoke(reader, RegInv::Read).ok()?;
    let limit = sim.config().step_limit;
    let mut steps = 0u64;
    while sim.has_open_op(reader) {
        let options: Vec<(NodeId, NodeId)> = sim
            .step_options()
            .into_iter()
            .filter(|&(from, to)| !is_withheld(&sim, setup, restricted, from, to))
            .collect();
        if options.is_empty() {
            return None;
        }
        let pick = options[choose(options.len())];
        sim.deliver_one(pick.0, pick.1).ok()?;
        steps += 1;
        if steps > limit {
            return None;
        }
    }
    sim.ops()
        .iter()
        .rev()
        .find(|o| o.client == reader)
        .and_then(|o| o.response)
        .and_then(RegResp::read_value)
}

/// The profile Lemma 6.10 extracts from one value-vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagedProfile {
    /// `σ`: `sigma[i]` is the (0-based) writer index chosen at stage `i+1`.
    pub sigma: Vec<u32>,
    /// The thresholds `a₁ < a₂ < … < a_ν` (numbers of servers, 1-based
    /// counts).
    pub a: Vec<u32>,
    /// Digests of the first `min(N − f + ν − 1, N)` servers at the final
    /// point — the `~S^{~v}_ν` of Section 6.4.4.
    pub final_states: Vec<u64>,
}

/// The injectivity key of Section 6.4.4: `(σ, ~a, ~S)`.
pub type ProfileKey = (Vec<u32>, Vec<u32>, Vec<u64>);

impl StagedProfile {
    /// The injectivity key of Section 6.4.4: `(σ, ~a, ~S)`.
    pub fn key(&self) -> ProfileKey {
        (
            self.sigma.clone(),
            self.a.clone(),
            self.final_states.clone(),
        )
    }
}

/// Runs the Lemma 6.10 search for one value-vector: starting from
/// `α₀^{~v}`, at each stage `i+1` find the smallest prefix size
/// `a > a_i` such that delivering the not-yet-chosen writers' value-
/// dependent messages to servers `a_i .. a` makes some unchosen `v_j`
/// returnable with `{σ(1..i), j}` restricted; commit `(a, j)` with the
/// value-order tie-break.
///
/// # Errors
///
/// [`MultiWriteError::NoCandidate`] if no stage candidate exists —
/// impossible for algorithms satisfying the theorem's hypotheses.
///
/// # Panics
///
/// Panics unless `values.len() == ν`.
pub fn staged_search<P, F>(
    make_sim: F,
    setup: &MultiWriteSetup<P>,
    values: &[Value],
    seeds: u64,
) -> Result<StagedProfile, MultiWriteError>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P>,
{
    staged_search_with(&ProbeEngine::default(), make_sim, setup, values, seeds)
}

/// [`staged_search`] through a [`ProbeEngine`]: each candidate prefix is
/// forked once and snapshotted, and the `(j, C₀)`-valency probes of every
/// unchosen writer run on it with memoized verdicts.
pub fn staged_search_with<P, F>(
    engine: &ProbeEngine,
    make_sim: F,
    setup: &MultiWriteSetup<P>,
    values: &[Value],
    seeds: u64,
) -> Result<StagedProfile, MultiWriteError>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P>,
{
    let mut sim = build_alpha0(make_sim(), setup, values)?;
    let n = sim.server_count() as u32;
    let nu = setup.nu;
    let width = (n - setup.f + nu - 1).min(n);

    let mut sigma: Vec<u32> = Vec::new();
    let mut a: Vec<u32> = Vec::new();
    let mut chosen: BTreeSet<ClientId> = BTreeSet::new();

    for stage in 1..=nu {
        let a_prev = a.last().copied().unwrap_or(0);
        let unchosen: Vec<u32> = (0..nu)
            .filter(|w| !chosen.contains(&ClientId(*w)))
            .collect();
        let senders: Vec<ClientId> = unchosen.iter().map(|&w| ClientId(w)).collect();
        // Candidate prefix sizes: a_prev < a <= N - f + stage - 1.
        let max_a = (n - setup.f + stage - 1).min(n);
        let mut found: Option<(u32, u32)> = None;
        for cand in (a_prev + 1)..=max_a {
            let mut fork = sim.fork();
            deliver_value_dependent(&mut fork, setup, &senders, a_prev..cand)?;
            let point = fork.into_snapshot();
            // Tie-break by value order among j's valent at this prefix.
            let mut best: Option<(Value, u32)> = None;
            for &j in &unchosen {
                let mut restricted = chosen.clone();
                restricted.insert(ClientId(j));
                let observed = probe_restricted_with(engine, &point, setup, &restricted, seeds);
                let vj = values[j as usize];
                if observed.contains(&vj) && best.is_none_or(|(bv, _)| vj < bv) {
                    best = Some((vj, j));
                }
            }
            if let Some((_, j)) = best {
                found = Some((cand, j));
                break;
            }
        }
        let Some((cand, j)) = found else {
            return Err(MultiWriteError::NoCandidate { stage });
        };
        deliver_value_dependent(&mut sim, setup, &senders, a_prev..cand)?;
        chosen.insert(ClientId(j));
        sigma.push(j);
        a.push(cand);
    }

    let digests = sim.server_digests();
    Ok(StagedProfile {
        sigma,
        a,
        final_states: digests[..width as usize].to_vec(),
    })
}

/// Result of the Section 6.4.4 enumeration over value-vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorCountingReport {
    /// Number of value-vectors enumerated.
    pub vectors: usize,
    /// Whether `~v ↦ (σ, ~a, ~S)` was injective.
    pub injective: bool,
    /// Colliding vector pairs, if any.
    pub collisions: Vec<(Vec<Value>, Vec<Value>)>,
    /// Vectors whose staged search failed.
    pub failures: Vec<(Vec<Value>, MultiWriteError)>,
}

/// Enumerates all ordered `ν`-tuples of distinct values from `domain` and
/// verifies that the Lemma 6.10 profile map is injective — the Section
/// 6.4.4 counting argument.
pub fn vector_counting<P, F>(
    make_sim: F,
    setup: &MultiWriteSetup<P>,
    domain: &[Value],
    seeds: u64,
) -> VectorCountingReport
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P> + Copy,
{
    vector_counting_with(&ProbeEngine::default(), make_sim, setup, domain, seeds)
}

/// [`vector_counting`] through a [`ProbeEngine`]: every vector's staged
/// search probes through `engine`, so all the searches share one cache.
pub fn vector_counting_with<P, F>(
    engine: &ProbeEngine,
    make_sim: F,
    setup: &MultiWriteSetup<P>,
    domain: &[Value],
    seeds: u64,
) -> VectorCountingReport
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Sim<P> + Copy,
{
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    enumerate_tuples(domain, setup.nu as usize, &mut Vec::new(), &mut tuples);
    let mut seen: BTreeMap<ProfileKey, Vec<Value>> = BTreeMap::new();
    let mut collisions = Vec::new();
    let mut failures = Vec::new();
    for tuple in &tuples {
        match staged_search_with(engine, make_sim, setup, tuple, seeds) {
            Ok(profile) => {
                let key = profile.key();
                if let Some(prev) = seen.get(&key) {
                    collisions.push((prev.clone(), tuple.clone()));
                } else {
                    seen.insert(key, tuple.clone());
                }
            }
            Err(e) => failures.push((tuple.clone(), e)),
        }
    }
    VectorCountingReport {
        vectors: tuples.len(),
        injective: collisions.is_empty() && failures.is_empty(),
        collisions,
        failures,
    }
}

fn enumerate_tuples(
    domain: &[Value],
    arity: usize,
    prefix: &mut Vec<Value>,
    out: &mut Vec<Vec<Value>>,
) {
    if prefix.len() == arity {
        out.push(prefix.clone());
        return;
    }
    for &v in domain {
        if !prefix.contains(&v) {
            prefix.push(v);
            enumerate_tuples(domain, arity, prefix, out);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_algorithms::abd::{self, Abd, AbdClient, AbdServer};
    use shmem_algorithms::cas::{self, Cas, CasClient, CasConfig, CasServer};
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::{ServerId, SimConfig};

    fn abd_world() -> Sim<Abd> {
        let spec = ValueSpec::from_cardinality(8);
        Sim::new(
            SimConfig::without_gossip(),
            (0..5).map(|_| AbdServer::new(0, spec)).collect(),
            (0..3).map(|c| AbdClient::new(5, c)).collect(),
        )
    }

    fn abd_setup() -> MultiWriteSetup<Abd> {
        MultiWriteSetup {
            nu: 2,
            f: 2,
            is_value_dependent: abd::is_value_dependent_upstream,
        }
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

    fn cas_setup() -> MultiWriteSetup<Cas> {
        MultiWriteSetup {
            nu: 2,
            f: 1,
            is_value_dependent: cas::is_value_dependent_upstream,
        }
    }

    #[test]
    fn alpha0_halts_at_the_value_frontier() {
        let setup = abd_setup();
        let sim = build_alpha0(abd_world(), &setup, &[1, 2]).unwrap();
        // Both writers have Store messages queued to every alive server
        // and no other deliverable steps exist except those stores.
        for w in 0..2u32 {
            for s in 0..4u32 {
                assert_eq!(
                    sim.in_flight(NodeId::client(w), NodeId::server(s)),
                    1,
                    "writer {w} server {s}"
                );
            }
        }
        // Neither write has completed.
        assert!(sim.has_open_op(ClientId(0)));
        assert!(sim.has_open_op(ClientId(1)));
    }

    #[test]
    fn failures_pattern_follows_section_6() {
        assert_eq!(abd_setup().failures(), 1); // f+1-nu = 2+1-2
        assert_eq!(cas_setup().failures(), 0); // 1+1-2
        let s = MultiWriteSetup::<Abd> {
            nu: 1,
            f: 2,
            is_value_dependent: abd::is_value_dependent_upstream,
        };
        assert_eq!(s.failures(), 2);
    }

    #[test]
    fn probe_before_any_delivery_returns_initial() {
        // Lemma 6.12's essence: with no value-dependent message delivered,
        // no written value is returnable; the read sees the initial value.
        let setup = abd_setup();
        let alpha0 = build_alpha0(abd_world(), &setup, &[1, 2]).unwrap();
        let restricted: BTreeSet<ClientId> = setup.writers().into_iter().collect();
        let observed = probe_restricted(&alpha0, &setup, &restricted, 8);
        assert_eq!(observed, [0u64].into_iter().collect());
    }

    #[test]
    fn abd_staged_search_finds_profile() {
        let setup = abd_setup();
        let profile = staged_search(abd_world, &setup, &[1, 2], 8).unwrap();
        assert_eq!(profile.sigma.len(), 2);
        assert_eq!(profile.a.len(), 2);
        // Lemma 6.12: a1 >= 1; Lemma 6.10(a): a strictly increasing.
        assert!(profile.a[0] >= 1);
        assert!(profile.a[1] > profile.a[0]);
        // width = N - f + nu - 1 = 5 - 2 + 1 = 4 servers recorded.
        assert_eq!(profile.final_states.len(), 4);
        // Both writers were eventually chosen.
        let mut s = profile.sigma.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn cas_staged_search_finds_profile() {
        let setup = cas_setup();
        let profile = staged_search(cas_world, &setup, &[3, 5], 8).unwrap();
        assert!(profile.a[0] >= 1);
        assert!(profile.a[1] > profile.a[0]);
        // CAS needs a full write quorum of symbols before anything is
        // returnable: a1 = q = N - f = 4 (Lemma 6.11's witness).
        assert_eq!(profile.a[0], 4);
        assert_eq!(profile.final_states.len(), 5);
    }

    #[test]
    fn abd_vector_counting_is_injective() {
        let setup = abd_setup();
        let report = vector_counting(abd_world, &setup, &[1, 2, 3], 8);
        assert_eq!(report.vectors, 6); // ordered pairs of distinct values
        assert!(
            report.injective,
            "collisions={:?} failures={:?}",
            report.collisions, report.failures
        );
    }

    #[test]
    fn cas_vector_counting_is_injective() {
        let setup = cas_setup();
        let report = vector_counting(cas_world, &setup, &[1, 2, 3], 8);
        assert_eq!(report.vectors, 6);
        assert!(
            report.injective,
            "collisions={:?} failures={:?}",
            report.collisions, report.failures
        );
    }

    #[test]
    fn deterministic_profiles() {
        let setup = abd_setup();
        let p1 = staged_search(abd_world, &setup, &[1, 2], 4).unwrap();
        let p2 = staged_search(abd_world, &setup, &[1, 2], 4).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn nu_exceeding_f_plus_one_caps_width() {
        // nu = 3 > f + 1 = 2 (f = 1): no servers fail
        // (failures saturates at 0) and the recorded width caps at N.
        let setup = MultiWriteSetup::<Abd> {
            nu: 3,
            f: 1,
            is_value_dependent: abd::is_value_dependent_upstream,
        };
        assert_eq!(setup.failures(), 0);
        let make = || {
            let spec = ValueSpec::from_cardinality(8);
            Sim::<Abd>::new(
                SimConfig::without_gossip(),
                (0..5).map(|_| AbdServer::new(0, spec)).collect(),
                (0..4).map(|c| AbdClient::new(5, c)).collect(),
            )
        };
        let profile = staged_search(make, &setup, &[1, 2, 3], 12).unwrap();
        // width = min(N - f + nu - 1, N) = min(7, 5) = 5.
        assert_eq!(profile.final_states.len(), 5);
        assert_eq!(profile.a.len(), 3);
        assert!(profile.a.windows(2).all(|w| w[0] < w[1]));
        assert!(*profile.a.last().unwrap() <= 5);
    }
}
