//! Metrics access, runtime enablement, the conservation audit, and the
//! world-level JSON export.
//!
//! The registry itself lives in [`crate::metrics`]; this file is the glue
//! between it and the world: the copy-on-write accessor the step relation
//! and fault primitives use, the mid-run enablement that baselines
//! in-flight messages so the conservation law holds from the switch-on
//! point, and the audit that compares the ledgers against the queues the
//! world actually holds.

use super::Sim;
use crate::metrics::{ConservationError, MetricsLevel, MetricsRegistry};
use crate::node::Protocol;
use shmem_util::json::Json;
use std::sync::{Arc, OnceLock};

/// The registry [`Sim::metrics`] returns while metering is off: one
/// process-wide empty instance, so the accessor's type stays simple
/// without unmetered worlds allocating anything.
fn empty_registry() -> &'static MetricsRegistry {
    static EMPTY: OnceLock<MetricsRegistry> = OnceLock::new();
    EMPTY.get_or_init(|| MetricsRegistry::new(MetricsLevel::Off, 0))
}

impl<P: Protocol> Sim<P> {
    /// The metrics registry (a shared empty one at [`MetricsLevel::Off`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        match &self.metrics {
            Some(m) => m,
            None => empty_registry(),
        }
    }

    /// The current metering level.
    pub fn metrics_level(&self) -> MetricsLevel {
        self.metrics_level
    }

    /// The metered-or-nothing accessor every hook site goes through: at
    /// [`MetricsLevel::Off`] this is a single branch on an inline field —
    /// no `Arc` exists, let alone gets dereferenced — which is the "off
    /// reduces to branch-on-enum" guarantee.
    #[inline]
    pub(super) fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        if self.metrics_level == MetricsLevel::Off {
            None
        } else {
            self.metrics.as_mut().map(Arc::make_mut)
        }
    }

    /// Replaces the registry with a fresh one at `level`, usable at any
    /// point of an execution. Messages already in flight are credited to
    /// the new ledgers' `baseline` so the conservation law holds from here
    /// on; counters and histograms measure the execution *since* this
    /// call. Per-server counters restart at zero.
    pub fn set_metrics(&mut self, level: MetricsLevel) {
        self.metrics = (level != MetricsLevel::Off).then(|| {
            let t = &*self.channels;
            let mut reg = MetricsRegistry::with_rows(level, self.servers.len(), &t.keys);
            for row in t.nonempty.iter() {
                reg.baseline_in_flight(row as usize, u64::from(t.len[row as usize]));
            }
            Arc::new(reg)
        });
        self.metrics_level = level;
    }

    /// Queued messages currently *held* — undeliverable because their link
    /// is cut or an endpoint is crashed or frozen. A gauge computed from
    /// the world, not a counter: a heal or unfreeze releases held messages
    /// without any ledger movement.
    pub fn held_messages(&self) -> u64 {
        let t = &*self.channels;
        t.nonempty
            .iter()
            .map(|row| row as usize)
            .filter(|&r| {
                t.cut[r]
                    || self.blocked[t.src_slot[r] as usize]
                    || self.blocked[t.dst_slot[r] as usize]
            })
            .map(|r| u64::from(t.len[r]))
            .sum()
    }

    /// Queued messages a scheduler could deliver right now (total in
    /// flight minus [`Sim::held_messages`]).
    pub fn deliverable_in_flight(&self) -> u64 {
        self.total_in_flight() as u64 - self.held_messages()
    }

    /// Checks the conservation law — per channel and globally,
    /// `baseline + sent + duplicated = delivered + dropped + purged +
    /// queued` — against the queues the world holds at this point. Exact
    /// at *every* point of an execution, not only at quiescence. A no-op
    /// `Ok` at [`MetricsLevel::Off`].
    ///
    /// # Errors
    ///
    /// The first imbalanced channel (or the global imbalance) as a
    /// [`ConservationError`] — always a metrics-wiring bug, never a
    /// legitimate execution.
    pub fn audit_conservation(&self) -> Result<(), ConservationError> {
        if self.metrics_level == MetricsLevel::Off {
            return Ok(());
        }
        self.metrics().check_conservation(&self.channels.len)
    }

    /// The registry's byte-stable JSON export plus a `gauges` object with
    /// the world's point-in-time queue state (`in_flight` deliverable,
    /// `held` behind cuts/blocks).
    pub fn metrics_json(&self) -> Json {
        let mut doc = self.metrics().to_json();
        let gauges = Json::Obj(vec![
            (
                "in_flight".to_string(),
                Json::Num(self.deliverable_in_flight() as f64),
            ),
            ("held".to_string(), Json::Num(self.held_messages() as f64)),
        ]);
        match &mut doc {
            Json::Obj(fields) => fields.push(("gauges".to_string(), gauges)),
            _ => unreachable!("registry export is an object"),
        }
        doc
    }
}
