//! The run loop shared by every workload.
//!
//! A run is as many whole *rounds* as fit the seconds budget, at least
//! [`MIN_ROUNDS`]: round `r` builds a fresh system under seed `seed + r`,
//! times its set-up, runs an unloaded phase and a fixed number of
//! saturated trials of fixed operation counts, and passes the workload's
//! correctness gate. Fixed counts, not fixed durations, so both sides of a
//! later comparison do identical work per round; the budget only decides
//! how many rounds there are.
//!
//! Every timed metric is reported as the *best decile* of its samples (see
//! [`Summary::best_decile`]), every count as the median of its samples;
//! `peak_rss_mb` is the one reading of round 0.

use crate::alloc::Traffic;
use crate::catalog::{self, EndToEnd, END_TO_END};
use crate::net::{self, Abd, Algo, Coded, NetSpec, PhaseOut, Stack, TRIAL_GROUPS};
use crate::proc;
use crate::sim_sweep::{self, SimRound};
use crate::stats::{self, Summary};
use std::time::Instant;

/// Rounds a run measures however short its budget.
pub const MIN_ROUNDS: usize = 8;
/// Unloaded operations per latency sample: the phase's per-operation
/// latencies are cut into consecutive windows of this many and each
/// window's median is one `unloaded_p50_ms` sample, so a run has several
/// times more samples than rounds.
pub const UNLOADED_WINDOW: usize = 100;
/// A round whose host reading is this far above the run's best was
/// disturbed.
pub const DISTURBED_ABOVE: f64 = 1.15;

/// One saturated trial, reduced to what the metrics need.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialSample {
    /// Operations completed.
    pub ops: u64,
    /// Completed operations per second of each inner group of the trial
    /// (see [`TRIAL_GROUPS`]).
    pub group_ops_per_s: Vec<f64>,
    /// Process CPU over the trial, seconds.
    pub cpu_s: f64,
    /// Allocator traffic over the trial, every thread.
    pub alloc: Traffic,
    /// Voluntary context switches over the trial, every thread.
    pub switches: u64,
    /// Protocol messages clients sent per operation.
    pub msgs_per_op: f64,
    /// Client wire bytes per operation.
    pub wire_bytes_per_op: f64,
    /// Loaded latency: samples, median and (when at least ten samples lie
    /// beyond it) 99th percentile, nanoseconds. `None` where operations
    /// are not timed one by one (`sim-sweep`'s sweeps).
    pub loaded: Option<(usize, u64, Option<u64>)>,
}

/// One round, reduced to what the metrics need.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundSample {
    /// Seconds of set-up.
    pub setup_s: f64,
    /// Median of each [`UNLOADED_WINDOW`] of the unloaded phase,
    /// nanoseconds.
    pub unloaded_p50_ns: Vec<u64>,
    /// Median unloaded latency of reads and of writes, nanoseconds (net
    /// workloads; `None` for a kind the mix lacks).
    pub unloaded_read_write_ns: (Option<u64>, Option<u64>),
    /// The saturated trials.
    pub trials: Vec<TrialSample>,
    /// `VmHWM` when the unloaded phase ended, megabytes.
    pub rss_after_unloaded_mb: f64,
    /// `VmHWM` when the last trial ended, megabytes.
    pub rss_after_trials_mb: f64,
    /// The paper's normalized storage after drain.
    pub storage_per_key_norm: f64,
    /// Metadata bits per touched key after drain (net workloads).
    pub metadata_bits_per_key: f64,
    /// Operations the round set out to perform.
    pub attempted: u64,
    /// Retransmission rounds the load generator fired.
    pub retransmits: u64,
    /// Wall clock of the whole round, gate included, seconds.
    pub round_s: f64,
    /// [`proc::pingpong_us`] right after the round.
    pub pingpong_us: f64,
}

/// Medians of consecutive windows of `latencies` (in operation order).
fn window_medians(latencies: &[u64]) -> Vec<u64> {
    latencies
        .chunks(UNLOADED_WINDOW)
        .filter(|w| w.len() == UNLOADED_WINDOW)
        .filter_map(|w| stats::p50(w.to_vec()).ok())
        .collect()
}

/// Completions per second of each inner group of `trial` (the first and
/// the last of the [`TRIAL_GROUPS`] — the closed loop filling up and
/// draining — are dropped): the group's operations over the time from the
/// group before's last completion to its own, exact `OpRecord`
/// nanoseconds.
fn group_rates(trial: &PhaseOut) -> Vec<f64> {
    let mut done: Vec<u64> = trial
        .report
        .records
        .iter()
        .filter_map(|r| r.responded_at)
        .collect();
    done.sort_unstable();
    let size = done.len() / TRIAL_GROUPS;
    (1..TRIAL_GROUPS - 1)
        .filter(|_| size > 0)
        .map(|g| (done[g * size - 1], done[(g + 1) * size - 1]))
        .filter(|(start, end)| end > start)
        .map(|(start, end)| size as f64 * 1e9 / (end - start) as f64)
        .collect()
}

fn trial_sample(trial: &PhaseOut) -> TrialSample {
    let ops = trial.report.completed;
    let mut ns: Vec<u64> = trial.latencies().map(|(ns, _)| ns).collect();
    ns.sort_unstable();
    let loaded = stats::percentile(&ns, 0.50)
        .ok()
        .map(|p50| (ns.len(), p50, stats::percentile(&ns, 0.99).ok()));
    TrialSample {
        ops,
        group_ops_per_s: group_rates(trial),
        cpu_s: trial.cpu_s,
        alloc: trial.alloc,
        switches: trial.switches,
        msgs_per_op: trial.report.msgs_sent as f64 / ops as f64,
        wire_bytes_per_op: trial.report.wire_bytes as f64 / ops as f64,
        loaded,
    }
}

/// Runs and judges one net round of `spec` on `stack` under `seed`.
///
/// # Errors
///
/// The gate's complaint.
pub fn net_round<S: Stack>(
    spec: &NetSpec,
    stack: &S,
    seed: u64,
) -> Result<(RoundSample, net::RoundOut), String> {
    let started = Instant::now();
    let plan = net::plan(spec, seed);
    let out = net::run_round(stack, spec.backend, &plan);
    let attempted = net::judge(spec, &plan, &out)?;
    let ordered: Vec<u64> = out.unloaded.latencies().map(|(ns, _)| ns).collect();
    let of_kind = |write: bool| {
        stats::p50(
            out.unloaded
                .latencies()
                .filter(|&(_, w)| w == write)
                .map(|(ns, _)| ns)
                .collect(),
        )
        .ok()
    };
    let sample = RoundSample {
        setup_s: out.setup_s,
        unloaded_p50_ns: window_medians(&ordered),
        unloaded_read_write_ns: (of_kind(false), of_kind(true)),
        trials: out.trials.iter().map(trial_sample).collect(),
        rss_after_unloaded_mb: out.rss_after_unloaded_mb,
        rss_after_trials_mb: out.rss_after_trials_mb,
        storage_per_key_norm: out.storage_per_key_norm(),
        metadata_bits_per_key: out.metadata_bits / out.touched_keys(),
        attempted,
        retransmits: out.phases().map(|p| p.report.retransmits).sum(),
        round_s: started.elapsed().as_secs_f64(),
        pingpong_us: proc::pingpong_us(),
    };
    Ok((sample, out))
}

fn sim_sample(round: &SimRound, round_s: f64) -> RoundSample {
    let execs = round.audit.execs as f64;
    RoundSample {
        setup_s: round.setup_s,
        // One sample per window of pairs: the mean of the two halves'
        // medians (their executions differ in length by a third, so a
        // median over both would sit in the gap between two populations).
        unloaded_p50_ns: {
            let (abd, cas): (Vec<u64>, Vec<u64>) = round.unloaded_ns.iter().copied().unzip();
            window_medians(&abd)
                .into_iter()
                .zip(window_medians(&cas))
                .map(|(a, c)| (a + c) / 2)
                .collect()
        },
        unloaded_read_write_ns: (None, None),
        trials: round
            .trials
            .iter()
            .map(|t| TrialSample {
                ops: t.execs,
                group_ops_per_s: t.group_ops_per_s.clone(),
                cpu_s: t.cpu_s,
                alloc: t.alloc,
                switches: 0,
                msgs_per_op: round.audit.msgs as f64 / execs,
                wire_bytes_per_op: round.audit.wire_bytes as f64 / execs,
                loaded: None,
            })
            .collect(),
        rss_after_unloaded_mb: round.rss_after_unloaded_mb,
        rss_after_trials_mb: round.rss_after_trials_mb,
        storage_per_key_norm: round.storage_per_key_norm,
        metadata_bits_per_key: 0.0,
        attempted: round.attempted,
        retransmits: 0,
        round_s,
        pingpong_us: proc::pingpong_us(),
    }
}

/// Runs and judges the round of `workload` seeded `seed`.
///
/// # Errors
///
/// Unknown workload, or the gate's complaint.
pub fn round(workload: &str, seed: u64) -> Result<RoundSample, String> {
    if workload == "sim-sweep" {
        let started = Instant::now();
        let round = sim_sweep::run_round(&sim_sweep::SPEC, seed)?;
        return Ok(sim_sample(&round, started.elapsed().as_secs_f64()));
    }
    let spec = net::net_spec(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    match spec.algo {
        Algo::Abd => net_round(&spec, &Abd, seed).map(|(sample, _)| sample),
        Algo::Coded => net_round(&spec, &Coded, seed).map(|(sample, _)| sample),
    }
}

/// Everything a run measured.
#[derive(Clone, Debug)]
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed`.
    pub seed: u64,
    /// The measured rounds.
    pub rounds: Vec<RoundSample>,
}

/// One end-to-end metric of a run: the reported value beside the summary
/// of the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reported {
    /// The run's value: best decile (timed), median (count), or the one
    /// reading (`peak_rss_mb`).
    pub value: f64,
    /// Median, quartiles and count of the samples.
    pub samples: Summary,
}

impl Run {
    /// Every saturated trial of the run.
    pub fn trials(&self) -> impl Iterator<Item = &TrialSample> {
        self.rounds.iter().flat_map(|r| &r.trials)
    }

    /// The samples behind an end-to-end metric: one per inner group of
    /// every saturated trial for `ops_per_s`, one per unloaded window for
    /// `unloaded_p50_ms`, one per round for the rest (a count is taken over the round's trials
    /// together: in a round's later trials fewer keys are met for the
    /// first time, so single trials differ by design).
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let per_round = |count: fn(&TrialSample) -> f64| -> Vec<f64> {
            self.rounds
                .iter()
                .map(|r| {
                    let ops: u64 = r.trials.iter().map(|t| t.ops).sum();
                    r.trials.iter().map(count).sum::<f64>() / ops as f64
                })
                .collect()
        };
        match name {
            "ops_per_s" => self
                .trials()
                .flat_map(|t| t.group_ops_per_s.iter().copied())
                .collect(),
            "unloaded_p50_ms" => self
                .rounds
                .iter()
                .flat_map(|r| &r.unloaded_p50_ns)
                .map(|&ns| ns as f64 / 1e6)
                .collect(),
            "setup_s" => self.rounds.iter().map(|r| r.setup_s).collect(),
            "peak_rss_mb" => vec![self.rounds[0].rss_after_unloaded_mb],
            "allocs_per_op" => per_round(|t| t.alloc.allocs as f64),
            "alloc_bytes_per_op" => per_round(|t| t.alloc.bytes as f64),
            "msgs_per_op" => per_round(|t| t.msgs_per_op * t.ops as f64),
            "wire_bytes_per_op" => per_round(|t| t.wire_bytes_per_op * t.ops as f64),
            "storage_per_key_norm" => self.rounds.iter().map(|r| r.storage_per_key_norm).collect(),
            other => panic!("`{other}` is not an end-to-end metric"),
        }
    }

    /// The run's value of `metric` and the summary of its samples.
    pub fn reported(&self, metric: &EndToEnd) -> Reported {
        let samples = Summary::of(&self.samples(metric.name));
        let value = if metric.timed {
            samples.best_decile(metric.better)
        } else {
            samples.median
        };
        Reported { value, samples }
    }

    /// Every end-to-end metric, in catalog order.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Reported)> {
        END_TO_END.iter().map(|m| (m, self.reported(m))).collect()
    }

    /// Σ attempted over rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Share of rounds whose host reading was more than
    /// [`DISTURBED_ABOVE`] times the run's best.
    pub fn disturbed_round_share(&self) -> f64 {
        let best = self
            .rounds
            .iter()
            .map(|r| r.pingpong_us)
            .fold(f64::INFINITY, f64::min);
        let disturbed = self
            .rounds
            .iter()
            .filter(|r| r.pingpong_us > DISTURBED_ABOVE * best)
            .count();
        disturbed as f64 / self.rounds.len() as f64
    }
}

/// Measures rounds of `workload` until the next one would overrun
/// `seconds` on `clock` (the process's age: building the run's first
/// system is part of its budget) less `reserve_rounds` round-lengths kept
/// back for the caller, but at least `min_rounds`.
///
/// # Errors
///
/// Unknown workload, or the first correctness-gate failure.
pub fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    clock: Instant,
    min_rounds: usize,
    reserve_rounds: f64,
) -> Result<Run, String> {
    let name = catalog::workload(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?
        .name;
    let mut rounds: Vec<RoundSample> = Vec::new();
    loop {
        rounds.push(round(name, seed.wrapping_add(rounds.len() as u64))?);
        let longest = rounds.iter().map(|r| r.round_s).fold(0.0, f64::max);
        let next_ends = clock.elapsed().as_secs_f64() + longest * (1.05 + reserve_rounds);
        if rounds.len() >= min_rounds && next_ends > seconds {
            break;
        }
    }
    Ok(Run {
        workload: name,
        seed,
        rounds,
    })
}
