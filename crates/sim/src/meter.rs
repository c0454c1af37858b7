//! Storage-cost metering, following the paper's definitions:
//! `MaxStorage = max_i log2 |S_i|` and `TotalStorage = Σ_i log2 |S_i|`,
//! evaluated over the states actually reached in an execution.

/// One server's meter state: peaks plus the last observed values. Kept as
/// one struct per server (not parallel vectors) because the per-step
/// update touches all four fields of exactly one server — one cache line
/// instead of four.
#[derive(Clone, Copy, Debug, Default)]
struct ServerMeter {
    peak: f64,
    peak_meta: f64,
    /// Last observed values — what makes the O(1) single-server update of
    /// [`StorageMeter::observe_server`] sound.
    cur: f64,
    cur_meta: f64,
}

/// Tracks per-server storage high-water marks over an execution.
///
/// At every point of the execution the simulator reports each server's
/// value-bearing storage (`state_bits`) and metadata (`metadata_bits`);
/// the meter keeps per-server peaks, the peak of the per-point total, and
/// the peak of the per-point maximum.
#[derive(Clone, Debug)]
pub struct StorageMeter {
    servers: Vec<ServerMeter>,
    current_total: f64,
    current_total_meta: f64,
    peak_total: f64,
    peak_total_meta: f64,
    peak_max: f64,
    samples: u64,
}

impl StorageMeter {
    /// A meter for `n` servers, all peaks zero.
    pub fn new(n: usize) -> StorageMeter {
        StorageMeter {
            servers: vec![ServerMeter::default(); n],
            current_total: 0.0,
            current_total_meta: 0.0,
            peak_total: 0.0,
            peak_total_meta: 0.0,
            peak_max: 0.0,
            samples: 0,
        }
    }

    /// Records one point's per-server `(state_bits, metadata_bits)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices don't match the server count.
    pub fn observe(&mut self, state_bits: &[f64], metadata_bits: &[f64]) {
        assert_eq!(state_bits.len(), self.servers.len());
        assert_eq!(metadata_bits.len(), self.servers.len());
        self.observe_with(state_bits.len(), |i| (state_bits[i], metadata_bits[i]));
    }

    /// [`StorageMeter::observe`] with the per-server values produced by a
    /// callback — the allocation-free form the simulator's construction
    /// sample uses.
    pub fn observe_with(&mut self, n: usize, mut f: impl FnMut(usize) -> (f64, f64)) {
        assert_eq!(n, self.servers.len());
        let mut total = 0.0;
        let mut total_meta = 0.0;
        let mut max = 0.0f64;
        for (i, s) in self.servers.iter_mut().enumerate() {
            let (b, m) = f(i);
            s.peak = s.peak.max(b);
            s.peak_meta = s.peak_meta.max(m);
            s.cur = b;
            s.cur_meta = m;
            total += b;
            total_meta += m;
            max = max.max(b);
        }
        self.current_total = total;
        self.current_total_meta = total_meta;
        self.peak_total = self.peak_total.max(total);
        self.peak_total_meta = self.peak_total_meta.max(total_meta);
        self.peak_max = self.peak_max.max(max);
        self.samples += 1;
    }

    /// Records one point at which only server `i`'s storage can have moved
    /// — the simulator's per-step sample. O(1): running totals are adjusted
    /// by the server's delta, and `peak_max` only needs the new value
    /// because every *other* server's current value was already a
    /// `peak_max` candidate when it was last observed. Requires one initial
    /// full [`StorageMeter::observe`] to seed the currents.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn observe_server(&mut self, i: usize, state_bits: f64, metadata_bits: f64) {
        self.samples += 1;
        let s = &mut self.servers[i];
        if state_bits == s.cur && metadata_bits == s.cur_meta {
            // Storage unchanged: every peak already covers this point.
            return;
        }
        s.peak = s.peak.max(state_bits);
        s.peak_meta = s.peak_meta.max(metadata_bits);
        self.current_total += state_bits - s.cur;
        self.current_total_meta += metadata_bits - s.cur_meta;
        s.cur = state_bits;
        s.cur_meta = metadata_bits;
        self.peak_total = self.peak_total.max(self.current_total);
        self.peak_total_meta = self.peak_total_meta.max(self.current_total_meta);
        self.peak_max = self.peak_max.max(state_bits);
    }

    /// Records one point at which no server's storage moved (a client
    /// step): the point still counts toward `points_observed`, but every
    /// peak is unchanged by construction.
    #[inline]
    pub fn observe_tick(&mut self) {
        self.samples += 1;
    }

    /// The current snapshot of all peaks.
    pub fn snapshot(&self) -> StorageSnapshot {
        StorageSnapshot {
            per_server_peak_bits: self.servers.iter().map(|s| s.peak).collect(),
            per_server_peak_metadata_bits: self.servers.iter().map(|s| s.peak_meta).collect(),
            peak_total_bits: self.peak_total,
            peak_total_metadata_bits: self.peak_total_meta,
            peak_max_bits: self.peak_max,
            points_observed: self.samples,
        }
    }
}

/// Measured storage peaks of one execution.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageSnapshot {
    /// Per-server peak of value-bearing storage, in bits.
    pub per_server_peak_bits: Vec<f64>,
    /// Per-server peak of metadata storage, in bits.
    pub per_server_peak_metadata_bits: Vec<f64>,
    /// Peak over points of the per-point total value-bearing storage —
    /// the measured `TotalStorage`.
    pub peak_total_bits: f64,
    /// Peak over points of the per-point total metadata.
    pub peak_total_metadata_bits: f64,
    /// Peak over points of the per-point maximum per-server storage —
    /// the measured `MaxStorage`.
    pub peak_max_bits: f64,
    /// How many points were sampled.
    pub points_observed: u64,
}

impl StorageSnapshot {
    /// Sum of per-server peaks — an upper estimate of `TotalStorage` that
    /// treats each server's state space as its own peak (this is the
    /// quantity the theorems constrain: `Σ_i log2 |S_i|` over the reachable
    /// state spaces `S_i`).
    pub fn sum_of_server_peaks_bits(&self) -> f64 {
        self.per_server_peak_bits.iter().sum()
    }

    /// `TotalStorage` normalized by `log2 |V|`.
    pub fn normalized_total(&self, log2_v: f64) -> f64 {
        self.sum_of_server_peaks_bits() / log2_v
    }

    /// `MaxStorage` normalized by `log2 |V|`.
    pub fn normalized_max(&self, log2_v: f64) -> f64 {
        self.per_server_peak_bits
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
            / log2_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_peaks_not_currents() {
        let mut m = StorageMeter::new(2);
        m.observe(&[4.0, 0.0], &[1.0, 1.0]);
        m.observe(&[0.0, 3.0], &[0.5, 2.0]);
        let s = m.snapshot();
        assert_eq!(s.per_server_peak_bits, vec![4.0, 3.0]);
        assert_eq!(s.per_server_peak_metadata_bits, vec![1.0, 2.0]);
        // Per-point totals were 4 then 3; peak total is 4, not 7.
        assert_eq!(s.peak_total_bits, 4.0);
        assert_eq!(s.peak_max_bits, 4.0);
        assert_eq!(s.points_observed, 2);
        // Sum of per-server peaks is the state-space total: 7.
        assert_eq!(s.sum_of_server_peaks_bits(), 7.0);
    }

    #[test]
    fn normalization() {
        let mut m = StorageMeter::new(3);
        m.observe(&[8.0, 8.0, 8.0], &[0.0; 3]);
        let s = m.snapshot();
        assert_eq!(s.normalized_total(8.0), 3.0);
        assert_eq!(s.normalized_max(8.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn wrong_width_panics() {
        let mut m = StorageMeter::new(2);
        m.observe(&[1.0], &[1.0]);
    }

    #[test]
    fn incremental_single_server_updates_match_full_observes() {
        let mut full = StorageMeter::new(3);
        let mut inc = StorageMeter::new(3);
        let mut bits = [2.0, 5.0, 1.0];
        let mut meta = [0.5, 0.25, 1.0];
        full.observe(&bits, &meta);
        inc.observe(&bits, &meta);
        let updates = [
            (0, 7.0, 0.5),
            (2, 3.0, 2.0),
            (0, 1.0, 0.0),
            (1, 9.0, 0.125),
            // An unchanged re-observation exercises the fast exit.
            (1, 9.0, 0.125),
        ];
        for &(i, b, m) in &updates {
            bits[i] = b;
            meta[i] = m;
            full.observe(&bits, &meta);
            inc.observe_server(i, b, m);
        }
        // A client step: samples advance, peaks don't.
        full.observe(&bits, &meta);
        inc.observe_tick();
        assert_eq!(inc.snapshot(), full.snapshot());
    }

    #[test]
    fn empty_meter_snapshot() {
        let s = StorageMeter::new(4).snapshot();
        assert_eq!(s.peak_total_bits, 0.0);
        assert_eq!(s.points_observed, 0);
        assert_eq!(s.sum_of_server_peaks_bits(), 0.0);
    }
}
