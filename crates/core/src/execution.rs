//! The adversarial two-write executions `α^{(v1,v2)}` of Sections 4 and 5.
//!
//! Construction (Section 4.3.1): the `f` servers outside the chosen subset
//! `𝒩` fail at the beginning; a write `π₁ = write(v1)` runs to completion
//! with all components except readers taking fair turns; then
//! `π₂ = write(v2)` is invoked and the execution is recorded **point by
//! point** until `π₂` terminates. The recorded points
//! `P₀, P₁, …, P_M` (world snapshots) are what the valency and
//! critical-pair machinery analyzes.

use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::value::Value;
use shmem_sim::{ClientId, Point, Protocol, RunError, Sim};

/// A fully recorded `α^{(v1,v2)}` execution: a snapshot of the world at
/// every point from `P₀` (after `π₁` terminates, before `π₂` is invoked)
/// to `P_M` (after `π₂` terminates).
///
/// Points are stored as [`Point`]s (immutable, digest-cached snapshots):
/// recording one costs a fork of the world, and the probe engine's
/// verdict cache keys off the memoized point digests.
pub struct AlphaExecution<P: Protocol<Inv = RegInv, Resp = RegResp>> {
    /// World snapshots at points `P₀ … P_M`. `points[0]` is `P₀`;
    /// the last entry is a point after `π₂`'s termination.
    pub points: Vec<Point<P>>,
    /// The first written value.
    pub v1: Value,
    /// The second written value.
    pub v2: Value,
    /// The (single) writer client.
    pub writer: ClientId,
}

impl<P: Protocol<Inv = RegInv, Resp = RegResp>> AlphaExecution<P> {
    /// Builds `α^{(v1,v2)}` from a fresh world.
    ///
    /// ```
    /// use shmem_algorithms::abd::{Abd, AbdClient, AbdServer};
    /// use shmem_algorithms::value::ValueSpec;
    /// use shmem_core::execution::AlphaExecution;
    /// use shmem_sim::{ClientId, Sim, SimConfig};
    ///
    /// let spec = ValueSpec::from_cardinality(8);
    /// let sim: Sim<Abd> = Sim::new(
    ///     SimConfig::without_gossip(),
    ///     (0..5).map(|_| AbdServer::new(0, spec)).collect(),
    ///     (0..2).map(|c| AbdClient::new(5, c)).collect(),
    /// );
    /// let alpha = AlphaExecution::build(sim, ClientId(0), 2, 1, 2)?;
    /// assert!(alpha.len() > 2); // P0 .. PM, one snapshot per step
    /// # Ok::<(), shmem_sim::RunError>(())
    /// ```
    ///
    /// `sim` must be a newly constructed world (no prior operations); the
    /// last `f` servers are failed at the beginning, matching the proofs'
    /// canonical subset `𝒩 = {1, …, N − f}`.
    ///
    /// # Errors
    ///
    /// Propagates liveness failures from the simulator (e.g. if `f` exceeds
    /// what the algorithm tolerates, the writes never terminate and this
    /// returns [`RunError::Stuck`]).
    ///
    /// # Panics
    ///
    /// Panics if `v1 == v2` — the proofs require distinct values.
    pub fn build(
        mut sim: Sim<P>,
        writer: ClientId,
        f: u32,
        v1: Value,
        v2: Value,
    ) -> Result<AlphaExecution<P>, RunError> {
        assert_ne!(v1, v2, "alpha executions need two distinct values");
        sim.fail_last_servers(f);

        // π₁ = write(v1): run fairly to completion. Readers hold no
        // pending work, so fair stepping only involves the writer, the
        // servers, and their channels — as the construction requires.
        sim.invoke(writer, RegInv::Write(v1))?;
        sim.run_until_op_completes(writer)?;

        // P₀: an arbitrary point after π₁'s termination, before π₂.
        let mut points = vec![sim.snapshot()];

        // π₂ = write(v2): record a snapshot after every step.
        sim.invoke(writer, RegInv::Write(v2))?;
        points.push(sim.snapshot());
        let limit = sim.config().step_limit;
        let mut steps = 0u64;
        while sim.has_open_op(writer) {
            if sim.step_fair().is_none() {
                return Err(RunError::Stuck { client: writer });
            }
            points.push(sim.snapshot());
            steps += 1;
            if steps > limit {
                return Err(RunError::StepLimit { steps: limit });
            }
        }

        Ok(AlphaExecution {
            points,
            v1,
            v2,
            writer,
        })
    }

    /// Number of recorded points (`M + 1`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the execution recorded no points (never happens for a
    /// successfully built execution).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point `P_i` as a plain world reference.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> &Sim<P> {
        self.points[i].sim()
    }

    /// The point `P_i` as a digest-cached [`Point`] handle — what the
    /// probe engine's memoization wants.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn snapshot(&self, i: usize) -> &Point<P> {
        &self.points[i]
    }

    /// Per-server state digests at point `i` — the `~S` vectors of the
    /// counting arguments.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn server_digests_at(&self, i: usize) -> Vec<u64> {
        self.points[i].server_digests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_algorithms::abd::{Abd, AbdClient, AbdServer};
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::{NodeId, SimConfig};

    fn abd_world(n: u32, clients: u32) -> Sim<Abd> {
        let spec = ValueSpec::from_cardinality(8);
        Sim::new(
            SimConfig::without_gossip(),
            (0..n).map(|_| AbdServer::new(0, spec)).collect(),
            (0..clients).map(|c| AbdClient::new(n, c)).collect(),
        )
    }

    #[test]
    fn builds_with_both_writes_complete() {
        let alpha = AlphaExecution::build(abd_world(5, 2), ClientId(0), 2, 1, 2).unwrap();
        assert!(alpha.len() > 2);
        // At P0 the first write has completed and the second not begun.
        let p0 = alpha.point(0);
        assert!(!p0.has_open_op(ClientId(0)));
        assert_eq!(p0.ops().len(), 1);
        // At the final point both writes are complete.
        let last = alpha.point(alpha.len() - 1);
        assert_eq!(last.ops().len(), 2);
        assert!(last.ops().iter().all(|o| o.is_complete()));
    }

    #[test]
    fn failed_servers_never_change_state() {
        let alpha = AlphaExecution::build(abd_world(5, 2), ClientId(0), 2, 3, 4).unwrap();
        let d0 = alpha.server_digests_at(0);
        let dm = alpha.server_digests_at(alpha.len() - 1);
        // Servers 3 and 4 failed at the beginning: state frozen throughout.
        assert_eq!(d0[3], dm[3]);
        assert_eq!(d0[4], dm[4]);
        // Some surviving server did change (the second write landed).
        assert!((0..3).any(|i| d0[i] != dm[i]));
    }

    #[test]
    fn adjacent_points_differ_in_at_most_one_server() {
        // Lemma 4.8(b) holds structurally in the simulator: one step
        // touches at most one node.
        let alpha = AlphaExecution::build(abd_world(5, 2), ClientId(0), 2, 1, 2).unwrap();
        for i in 0..alpha.len() - 1 {
            let a = alpha.server_digests_at(i);
            let b = alpha.server_digests_at(i + 1);
            let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert!(changed <= 1, "point {i} changed {changed} servers");
        }
    }

    #[test]
    fn readers_stay_initial_throughout() {
        // Lemma 4.8(a): readers and their channels take no actions in α.
        let alpha = AlphaExecution::build(abd_world(5, 2), ClientId(0), 2, 1, 2).unwrap();
        for i in 0..alpha.len() {
            let p = alpha.point(i);
            assert_eq!(p.in_flight(NodeId::client(1), NodeId::server(0)), 0);
            assert_eq!(p.in_flight(NodeId::server(0), NodeId::client(1)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct values")]
    fn equal_values_rejected() {
        let _ = AlphaExecution::build(abd_world(3, 1), ClientId(0), 1, 5, 5);
    }

    #[test]
    fn too_many_failures_reported_as_stuck() {
        // ABD with 3 of 5 failed cannot complete a write.
        let result = AlphaExecution::build(abd_world(5, 1), ClientId(0), 3, 1, 2);
        assert!(matches!(result, Err(RunError::Stuck { .. })));
    }
}
