//! Forking: the deep-copy `Sim::clone` and the [`Snapshot`] / [`Point`]
//! handle API.
//!
//! `Sim::clone` copies the whole world — node state, queued messages,
//! operation records, meter and observers — except the scratch buffers,
//! which are empty between steps. A fork and its source share nothing, so
//! each mutates its own fields with no ownership bookkeeping.
//!
//! [`Snapshot`] wraps an immutable point of an execution behind an `Arc`
//! and memoizes its [`Sim::digest`], which walks every queued message and
//! is by far the most expensive observation the proof machinery makes.
//! The probe engine in `shmem-core` keys its verdict cache on exactly this
//! digest, so caching it per point is what makes memoization pay.

use super::Sim;
use crate::node::Protocol;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

impl<P: Protocol> Clone for Sim<P> {
    fn clone(&self) -> Self {
        Sim {
            config: self.config,
            servers: self.servers.clone(),
            clients: self.clients.clone(),
            channels: self.channels.clone(),
            failed: self.failed.clone(),
            frozen: self.frozen.clone(),
            cut_links: self.cut_links.clone(),
            blocked: self.blocked.clone(),
            blocked_count: self.blocked_count,
            now: self.now,
            rr_cursor: self.rr_cursor,
            open_ops: self.open_ops.clone(),
            ops: self.ops.clone(),
            meter: self.meter.clone(),
            metrics: self.metrics.clone(),
            metrics_level: self.metrics_level,
            coverage: self.coverage.clone(),
            coverage_on: self.coverage_on,
            send_log: self.send_log.clone(),
            traffic: self.traffic,
            digest_acc: self.digest_acc,
            node_comp: self.node_comp.clone(),
            node_dirty: self.node_dirty.clone(),
            // Scratch buffers are empty between steps; a fork starts with
            // fresh (empty) ones rather than copying capacity.
            scratch_outbox: Vec::new(),
            scratch_resp: Vec::new(),
            scratch_options: Vec::new(),
            scratch_weighted: Vec::new(),
        }
    }
}

impl<P: Protocol> Sim<P> {
    /// A fork of the world at this point — alias of `clone`, named
    /// for call sites where the *intent* is the paper's "extend a copy of
    /// the execution from point `P`".
    pub fn fork(&self) -> Sim<P> {
        self.clone()
    }

    /// Freezes this world into an immutable, digest-cached [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot<P> {
        Snapshot::capture(self)
    }

    /// Consumes the world into a [`Snapshot`] without the intermediate
    /// fork.
    pub fn into_snapshot(self) -> Snapshot<P> {
        Snapshot {
            inner: Arc::new(self),
            digest: OnceLock::new(),
        }
    }
}

/// An immutable point of an execution with a memoized digest.
///
/// Dereferences to [`Sim`], so any `&Sim<P>`-taking observation works on a
/// `&Snapshot<P>` unchanged. To extend the execution from this point, take
/// a mutable fork with [`Snapshot::fork`].
pub struct Snapshot<P: Protocol> {
    inner: Arc<Sim<P>>,
    digest: OnceLock<u64>,
}

/// A point of an `α` execution — the paper's `P ∈ points(α)`. Identical to
/// [`Snapshot`]; the alias exists so proof-machinery signatures can say
/// what they mean.
pub type Point<P> = Snapshot<P>;

impl<P: Protocol> Snapshot<P> {
    /// Captures the world at this point (a fork).
    pub fn capture(sim: &Sim<P>) -> Snapshot<P> {
        Snapshot {
            inner: Arc::new(sim.clone()),
            digest: OnceLock::new(),
        }
    }

    /// The world digest at this point, computed once and cached.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.inner.digest())
    }

    /// A mutable fork of the world to extend from this point.
    pub fn fork(&self) -> Sim<P> {
        (*self.inner).clone()
    }

    /// The underlying world.
    pub fn sim(&self) -> &Sim<P> {
        &self.inner
    }
}

impl<P: Protocol> Clone for Snapshot<P> {
    fn clone(&self) -> Self {
        Snapshot {
            inner: Arc::clone(&self.inner),
            digest: self.digest.clone(),
        }
    }
}

impl<P: Protocol> Deref for Snapshot<P> {
    type Target = Sim<P>;
    fn deref(&self) -> &Sim<P> {
        &self.inner
    }
}

impl<P: Protocol> std::fmt::Debug for Snapshot<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot {{ {:?} }}", *self.inner)
    }
}
