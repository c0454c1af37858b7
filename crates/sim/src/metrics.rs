//! Deterministic metrics: message-accounting ledgers, log-bucketed
//! histograms, conservation-law audits, and a byte-stable JSON export.
//!
//! The paper's subject is a *measured quantity* (per-server storage), and
//! the [`crate::meter::StorageMeter`] covers exactly that. This module
//! meters everything else an execution does — messages sent, delivered,
//! dropped, duplicated and purged, per channel and per server; bytes on
//! the wire; operation step-latencies; channel queue depths — so tables
//! can explain *why* a run cost what it did.
//!
//! Three invariants shape the design:
//!
//! 1. **Determinism.** Every count is a pure function of the execution,
//!    per-channel ledgers sit in the channel table's row order (ascending
//!    `(from, to)`), and the export is a
//!    byte-stable [`Json`] document: two runs with equal inputs export
//!    identical bytes, and merged per-seed registries are worker-count
//!    invariant (merging is commutative and associative, and callers merge
//!    in seed order anyway).
//! 2. **Conservation.** The ledgers obey an exact accounting law at every
//!    point of an execution, not just at quiescence (see
//!    [`ChannelLedger::balances_with`]):
//!
//!    ```text
//!    baseline + sent + duplicated = delivered + dropped + purged + queued
//!    ```
//!
//!    per channel and globally, where `queued` is what the channel holds
//!    right now (deliverable in-flight plus messages held behind cut links
//!    or blocked endpoints). [`MetricsRegistry::check_conservation`] is the
//!    audit the simulator runs at quiescence; any imbalance is a
//!    metrics-wiring bug by construction.
//! 3. **Zero cost when off.** [`MetricsLevel::Off`] (the default) reduces
//!    every hook to one branch on the enum — the simulator checks the level
//!    before touching the registry's `Arc` — so proof machinery and
//!    benchmarks built on raw [`crate::world::Sim`] pay nothing.
//!
//! The registry is *not* part of the world digest
//! ([`crate::world::Sim::digest`]): metrics observe the history of an
//! execution, while the digest certifies indistinguishability of world
//! *states* — two forks that converge to the same state through different
//! histories must digest identically even though their metrics differ.

use crate::ids::NodeId;
use shmem_util::json::Json;
use std::fmt;

/// How much the simulator meters.
///
/// Part of [`crate::config::SimConfig`]; also switchable at runtime with
/// [`crate::world::Sim::set_metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricsLevel {
    /// No metering: every hook is a single branch on this enum. The
    /// default, so raw `Sim` users (proof machinery, benchmarks) are
    /// unaffected by the metrics layer.
    #[default]
    Off,
    /// Message ledgers (global, per channel, per server), wire bytes,
    /// operation counts, and the op-latency and queue-depth histograms.
    Full,
}

impl MetricsLevel {
    /// Stable lowercase name (export field).
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Full => "full",
        }
    }
}

/// Message accounting for one channel (or the global totals).
///
/// `baseline` counts messages that were already in flight when metering
/// was enabled mid-execution ([`crate::world::Sim::set_metrics`]); it is
/// zero when metering starts at construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelLedger {
    /// In flight when metering began (mid-run enablement only).
    pub baseline: u64,
    /// Messages enqueued by a node's outbox.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages discarded by the nemesis ([`crate::world::Sim::drop_head`]).
    pub dropped: u64,
    /// Extra copies enqueued by [`crate::world::Sim::duplicate_head`].
    pub duplicated: u64,
    /// Messages discarded because an endpoint crashed
    /// ([`crate::world::Sim::fail`] purges the node's channels).
    pub purged: u64,
}

impl ChannelLedger {
    /// The conservation law, exact at every point of an execution: every
    /// message that entered the channel is delivered, dropped, purged, or
    /// still queued.
    pub fn balances_with(&self, queued: u64) -> bool {
        self.baseline + self.sent + self.duplicated
            == self.delivered + self.dropped + self.purged + queued
    }

    fn merge(&mut self, other: &ChannelLedger) {
        self.baseline += other.baseline;
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.purged += other.purged;
    }

    fn to_json_fields(self, fields: &mut Vec<(String, Json)>) {
        for (k, v) in [
            ("baseline", self.baseline),
            ("sent", self.sent),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("duplicated", self.duplicated),
            ("purged", self.purged),
        ] {
            fields.push((k.to_string(), Json::Num(v as f64)));
        }
    }
}

/// Number of histogram buckets: one for the value 0, then one per
/// power-of-two magnitude of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed (power-of-two) histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `k ≥ 1` holds values in
/// `[2^(k−1), 2^k − 1]`. Merging is bucket-wise addition, so it is
/// associative and commutative — per-seed histograms aggregate to the same
/// result under any worker count or merge order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index a value falls in.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest value bucket `i` covers.
    pub fn bucket_lo(i: usize) -> u64 {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The largest value bucket `i` covers.
    pub fn bucket_hi(i: usize) -> u64 {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Histogram::bucket_of(value)] += 1;
    }

    /// Bucket-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Bounds `(lo, hi)` bracketing the `q`-quantile of the recorded
    /// samples: the true quantile value lies in `lo ..= hi`. `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss)] // q >= 0 and count >= 1
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cum += self.buckets[i];
            if cum >= rank {
                let lo = Histogram::bucket_lo(i).max(self.min);
                let hi = Histogram::bucket_hi(i).min(self.max);
                return Some((lo, hi));
            }
        }
        unreachable!("cumulative bucket count reaches self.count")
    }

    /// Byte-stable JSON form: totals plus a sparse `[bucket, count]` list.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".to_string(), Json::Num(self.count as f64)),
            ("sum".to_string(), Json::Num(self.sum as f64)),
            ("min".to_string(), Json::Num(self.min().unwrap_or(0) as f64)),
            ("max".to_string(), Json::Num(self.max().unwrap_or(0) as f64)),
            (
                "buckets".to_string(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The registry of everything metered: message ledgers (global, per
/// channel, per server), wire bytes, operation spans, and histograms.
///
/// Lives behind an `Arc` inside [`crate::world::Sim`] and copies on write
/// like the rest of the world, so forking a metered execution is still a
/// handful of reference-count bumps.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsRegistry {
    level: MetricsLevel,
    global: ChannelLedger,
    wire_bytes: u64,
    ops_started: u64,
    ops_completed: u64,
    reads_failed_detect: u64,
    server_sent: Vec<u64>,
    server_recv: Vec<u64>,
    /// One ledger per row of the world's channel table, in the same
    /// ascending `(from, to)` order, so a hook indexes the row the
    /// simulator already holds.
    per_channel: Vec<((NodeId, NodeId), ChannelLedger)>,
    op_latency: Histogram,
    queue_depth: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new(MetricsLevel::Off, 0)
    }
}

impl MetricsRegistry {
    /// An empty registry at `level` for a world of `servers` servers.
    pub fn new(level: MetricsLevel, servers: usize) -> MetricsRegistry {
        MetricsRegistry::with_rows(level, servers, &[])
    }

    /// An empty registry with one zeroed ledger per channel-table row
    /// (`rows` ascending) — sized once, when a world switches metering on.
    pub(crate) fn with_rows(
        level: MetricsLevel,
        servers: usize,
        rows: &[(NodeId, NodeId)],
    ) -> MetricsRegistry {
        MetricsRegistry {
            level,
            global: ChannelLedger::default(),
            wire_bytes: 0,
            ops_started: 0,
            ops_completed: 0,
            reads_failed_detect: 0,
            server_sent: vec![0; servers],
            server_recv: vec![0; servers],
            per_channel: rows
                .iter()
                .map(|&k| (k, ChannelLedger::default()))
                .collect(),
            op_latency: Histogram::new(),
            queue_depth: Histogram::new(),
        }
    }

    /// The metering level.
    pub fn level(&self) -> MetricsLevel {
        self.level
    }

    /// Global message ledger.
    pub fn global(&self) -> ChannelLedger {
        self.global
    }

    /// Estimated bytes sent: sends × `size_of` the protocol's in-memory
    /// message envelope (messages are generic Rust values; no wire format
    /// exists to measure).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Operations invoked.
    pub fn ops_started(&self) -> u64 {
        self.ops_started
    }

    /// Operations that produced a response.
    pub fn ops_completed(&self) -> u64 {
        self.ops_completed
    }

    /// Per-key reads that failed with a *detected* integrity mismatch —
    /// the hashed-CAS client caught tampered share bytes before returning
    /// a value. Counted separately from ordinary decode-length failures,
    /// so corruption detection is distinguishable in the export.
    pub fn reads_failed_detect(&self) -> u64 {
        self.reads_failed_detect
    }

    /// Per-server sends, indexed by server id.
    pub fn server_sent(&self) -> &[u64] {
        &self.server_sent
    }

    /// Per-server deliveries, indexed by server id.
    pub fn server_recv(&self) -> &[u64] {
        &self.server_recv
    }

    /// Per-channel ledgers in ascending `(from, to)` order: a world's
    /// registry holds one per channel-table row, zero where nothing was
    /// booked.
    pub fn per_channel(&self) -> &[((NodeId, NodeId), ChannelLedger)] {
        &self.per_channel
    }

    /// Operation step-latency histogram (response step − invocation step);
    /// populated at [`MetricsLevel::Full`].
    pub fn op_latency(&self) -> &Histogram {
        &self.op_latency
    }

    /// Channel queue depth observed after each send; populated at
    /// [`MetricsLevel::Full`].
    pub fn queue_depth(&self) -> &Histogram {
        &self.queue_depth
    }

    /// Books a row the channel table inserted at `row` (a channel outside
    /// the pre-built mesh, created by its first send).
    pub(crate) fn insert_row(&mut self, row: usize, key: (NodeId, NodeId)) {
        self.per_channel
            .insert(row, (key, ChannelLedger::default()));
    }

    pub(crate) fn on_sent(&mut self, row: usize, bytes: u64, depth_after: u64) {
        self.global.sent += 1;
        self.wire_bytes += bytes;
        let ((from, _), ledger) = &mut self.per_channel[row];
        ledger.sent += 1;
        if let NodeId::Server(s) = from {
            self.server_sent[s.0 as usize] += 1;
        }
        if self.level == MetricsLevel::Full {
            self.queue_depth.record(depth_after);
        }
    }

    pub(crate) fn on_delivered(&mut self, row: usize) {
        self.global.delivered += 1;
        let ((_, to), ledger) = &mut self.per_channel[row];
        ledger.delivered += 1;
        if let NodeId::Server(s) = to {
            self.server_recv[s.0 as usize] += 1;
        }
    }

    pub(crate) fn on_dropped(&mut self, row: usize) {
        self.global.dropped += 1;
        self.per_channel[row].1.dropped += 1;
    }

    pub(crate) fn on_duplicated(&mut self, row: usize) {
        self.global.duplicated += 1;
        self.per_channel[row].1.duplicated += 1;
    }

    pub(crate) fn on_purged(&mut self, row: usize, count: u64) {
        self.global.purged += count;
        self.per_channel[row].1.purged += count;
    }

    pub(crate) fn on_op_started(&mut self) {
        self.ops_started += 1;
    }

    pub(crate) fn on_op_completed(&mut self, latency_steps: u64) {
        self.ops_completed += 1;
        if self.level == MetricsLevel::Full {
            self.op_latency.record(latency_steps);
        }
    }

    pub(crate) fn on_read_failed_detect(&mut self, count: u64) {
        self.reads_failed_detect += count;
    }

    pub(crate) fn baseline_in_flight(&mut self, row: usize, count: u64) {
        self.global.baseline += count;
        self.per_channel[row].1.baseline += count;
    }

    /// Merges another registry into this one (counters add, histograms add
    /// bucket-wise, per-server vectors extend to the longer length, ledgers
    /// add channel by channel, so worlds of different shapes merge). The
    /// level becomes the more detailed of the two.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.level = self.level.max(other.level);
        self.global.merge(&other.global);
        self.wire_bytes += other.wire_bytes;
        self.ops_started += other.ops_started;
        self.ops_completed += other.ops_completed;
        self.reads_failed_detect += other.reads_failed_detect;
        if self.server_sent.len() < other.server_sent.len() {
            self.server_sent.resize(other.server_sent.len(), 0);
            self.server_recv.resize(other.server_recv.len(), 0);
        }
        for (i, &v) in other.server_sent.iter().enumerate() {
            self.server_sent[i] += v;
        }
        for (i, &v) in other.server_recv.iter().enumerate() {
            self.server_recv[i] += v;
        }
        for (key, ledger) in &other.per_channel {
            match self.per_channel.binary_search_by_key(key, |&(k, _)| k) {
                Ok(i) => self.per_channel[i].1.merge(ledger),
                Err(i) => self.per_channel.insert(i, (*key, *ledger)),
            }
        }
        self.op_latency.merge(&other.op_latency);
        self.queue_depth.merge(&other.queue_depth);
    }

    /// Checks the conservation law per channel and globally against the
    /// queue lengths the world holds right now, `queued[r]` for the
    /// channel of ledger row `r` (missing entries count as empty).
    ///
    /// # Errors
    ///
    /// The first imbalanced channel (in channel order), or the global
    /// imbalance, as a [`ConservationError`].
    pub fn check_conservation(&self, queued: &[u32]) -> Result<(), ConservationError> {
        for (r, &(key, ledger)) in self.per_channel.iter().enumerate() {
            let q = u64::from(queued.get(r).copied().unwrap_or(0));
            if !ledger.balances_with(q) {
                return Err(ConservationError {
                    channel: Some(key),
                    ledger,
                    queued: q,
                });
            }
        }
        let total_queued: u64 = queued.iter().map(|&q| u64::from(q)).sum();
        if !self.global.balances_with(total_queued) {
            return Err(ConservationError {
                channel: None,
                ledger: self.global,
                queued: total_queued,
            });
        }
        Ok(())
    }

    /// The byte-stable JSON export (schema `shmem-metrics/v1`). Key order
    /// is fixed and channels render in ascending `(from, to)` order, those
    /// with nothing booked left out, so equal registries export equal
    /// bytes.
    pub fn to_json(&self) -> Json {
        let mut counters = vec![];
        self.global.to_json_fields(&mut counters);
        counters.push(("wire_bytes".to_string(), Json::Num(self.wire_bytes as f64)));
        counters.push((
            "ops_started".to_string(),
            Json::Num(self.ops_started as f64),
        ));
        counters.push((
            "ops_completed".to_string(),
            Json::Num(self.ops_completed as f64),
        ));
        counters.push((
            "reads_failed_detect".to_string(),
            Json::Num(self.reads_failed_detect as f64),
        ));
        let per_server = self
            .server_sent
            .iter()
            .zip(&self.server_recv)
            .map(|(&s, &r)| {
                Json::Obj(vec![
                    ("sent".to_string(), Json::Num(s as f64)),
                    ("recv".to_string(), Json::Num(r as f64)),
                ])
            })
            .collect();
        let per_channel = self
            .per_channel
            .iter()
            .filter(|(_, ledger)| *ledger != ChannelLedger::default())
            .map(|&((from, to), ledger)| {
                let mut fields = vec![
                    ("from".to_string(), Json::str(from.to_string())),
                    ("to".to_string(), Json::str(to.to_string())),
                ];
                ledger.to_json_fields(&mut fields);
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::str("shmem-metrics/v1")),
            ("level".to_string(), Json::str(self.level.name())),
            ("counters".to_string(), Json::Obj(counters)),
            ("per_server".to_string(), Json::Arr(per_server)),
            ("per_channel".to_string(), Json::Arr(per_channel)),
            (
                "histograms".to_string(),
                Json::Obj(vec![
                    ("op_latency_steps".to_string(), self.op_latency.to_json()),
                    ("queue_depth".to_string(), self.queue_depth.to_json()),
                ]),
            ),
        ])
    }
}

/// A conservation-law violation: the ledger of the offending channel (or
/// the global ledger when `channel` is `None`) and the queue length it
/// failed to balance with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConservationError {
    /// The imbalanced channel, or `None` for the global ledger.
    pub channel: Option<(NodeId, NodeId)>,
    /// The imbalanced ledger.
    pub ledger: ChannelLedger,
    /// Messages queued on the channel(s) at audit time.
    pub queued: u64,
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = self.ledger;
        let scope = match self.channel {
            Some((from, to)) => format!("channel {from} -> {to}"),
            None => "global ledger".to_string(),
        };
        write!(
            f,
            "{scope}: baseline {} + sent {} + duplicated {} != delivered {} + dropped {} + \
             purged {} + queued {}",
            l.baseline, l.sent, l.duplicated, l.delivered, l.dropped, l.purged, self.queued
        )
    }
}

impl std::error::Error for ConservationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_util::DetRng;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = (Histogram::bucket_lo(i), Histogram::bucket_hi(i));
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(Histogram::bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_of(hi), i, "hi of bucket {i}");
            if i > 0 {
                assert_eq!(
                    Histogram::bucket_hi(i - 1) + 1,
                    lo,
                    "buckets {i} contiguous"
                );
            }
        }
    }

    #[test]
    fn count_equals_sum_of_buckets() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(rng.gen_range(0..100_000u64));
        }
        assert_eq!(h.count(), 500);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let sample = |seed: u64, n: u64| {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(rng.gen_range(0..1_000_000u64));
            }
            h
        };
        let (a, b, c) = (sample(1, 100), sample(2, 37), sample(3, 250));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge associates");
    }

    #[test]
    fn quantiles_bracket_true_values() {
        let mut rng = DetRng::seed_from_u64(77);
        let mut h = Histogram::new();
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..1000 {
            let v = rng.gen_range(0..50_000u64);
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "q={q}: true {truth} outside [{lo}, {hi}]"
            );
        }
        assert_eq!(h.quantile_bounds(0.0).unwrap().0, samples[0]);
        assert_eq!(h.quantile_bounds(1.0).unwrap().1, *samples.last().unwrap());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_bounds(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn ledger_balances() {
        let l = ChannelLedger {
            baseline: 2,
            sent: 10,
            delivered: 7,
            dropped: 1,
            duplicated: 3,
            purged: 2,
        };
        // 2 + 10 + 3 = 7 + 1 + 2 + queued  =>  queued = 5.
        assert!(l.balances_with(5));
        assert!(!l.balances_with(4));
    }

    #[test]
    fn registry_merge_and_conservation() {
        let ch = (NodeId::client(0), NodeId::server(1));
        let mut a = MetricsRegistry::with_rows(MetricsLevel::Full, 2, &[ch]);
        a.on_sent(0, 16, 1);
        a.on_sent(0, 16, 2);
        a.on_delivered(0);
        let mut b = MetricsRegistry::with_rows(MetricsLevel::Full, 2, &[ch]);
        b.on_sent(0, 16, 1);
        b.on_dropped(0);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.global().sent, 3);
        assert_eq!(m.global().delivered, 1);
        assert_eq!(m.global().dropped, 1);
        assert_eq!(m.wire_bytes(), 48);
        // One message of `a`'s still queued; `b`'s was dropped.
        let queued = [1u32];
        assert!(m.check_conservation(&queued).is_ok());
        assert!(m.check_conservation(&[]).is_err());
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let ch = (NodeId::client(0), NodeId::server(0));
            let mut r = MetricsRegistry::with_rows(MetricsLevel::Full, 2, &[ch]);
            r.on_sent(0, 8, 1);
            r.on_delivered(0);
            r.on_op_started();
            r.on_op_completed(12);
            r.to_json().to_compact()
        };
        assert_eq!(build(), build());
        let text = build();
        assert!(text.contains("\"schema\":\"shmem-metrics/v1\""));
        // Round-trips through the workspace parser.
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn conservation_error_reports_channel() {
        let ch = (NodeId::client(0), NodeId::server(0));
        let mut r = MetricsRegistry::with_rows(MetricsLevel::Off, 1, &[ch]);
        r.on_sent(0, 8, 1);
        // Below `Full` a hook that is called anyway keeps its ledger and
        // leaves the histograms alone.
        assert_eq!(r.queue_depth().count(), 0);
        let err = r.check_conservation(&[]).unwrap_err();
        assert_eq!(err.channel, Some((NodeId::client(0), NodeId::server(0))));
        let text = err.to_string();
        assert!(text.contains("c0 -> s0"), "{text}");
    }
}
