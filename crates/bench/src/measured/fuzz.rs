//! `tab-fuzz`: coverage-guided fuzzing against the random seed sweep.

use crate::render::Table;
use shmem_algorithms::harness::{AbdCluster, CasCluster};
use shmem_algorithms::value::ValueSpec;

/// `tab-fuzz`: coverage-guided fuzzing vs the random seed sweep.
///
/// For each broken control the table reports the median number of
/// executions until the first oracle violation over `trials` independent
/// trials, for both search strategies. Trial `t` gives each strategy the
/// *same* fresh-plan stream (seeds `t·10_000..`): the random baseline
/// scans it sequentially, the guided fuzzer draws its fresh candidates
/// from it and additionally mutates coverage-discovering parents. Both
/// are capped at `cap` executions per trial; a miss records `cap`.
///
/// The three controls span the violation-density spectrum, and that is
/// the experiment: guidance pays off on `no-write-back`, whose atomicity
/// violations are sparse (~0.25%/execution) and fault-timing-driven —
/// exactly the regime mutation can exploit; it exactly ties the sweep on
/// the saturated 8-bit `lossy` control (any strategy's first handful of
/// probes hits); and it roughly matches the sweep on the sparse bit-rot
/// control, whose safeness violations hinge on workload geometry the
/// fault mutators do not steer.
///
/// Every algorithm (sound ones included) also gets a bounded non-stopping
/// campaign whose coverage curve is sampled at 64/256/1024 executions —
/// the sound rows show that guidance keeps discovering behavior even when
/// no violation exists.
pub fn fuzz_table(trials: u64, cap: u64, workers: usize) -> Table {
    use shmem_algorithms::harness::{
        Cluster, GossipCluster, HashedCluster, LossyCluster, NwbCluster,
    };
    use shmem_algorithms::nemesis::{fuzz, run_seed, FuzzConfig, Oracle};
    use shmem_algorithms::{RegInv, RegResp};

    const BATCH: u32 = 16;

    fn median(mut xs: Vec<u64>) -> u64 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    fn coverage_at(curve: &[(u64, usize)], execs: u64) -> String {
        curve
            .iter()
            .find(|(e, _)| *e >= execs)
            .map_or_else(|| "—".into(), |(_, c)| c.to_string())
    }

    #[allow(clippy::too_many_arguments)]
    fn row<P, F>(
        t: &mut Table,
        name: &str,
        oracle: Oracle,
        factory: &F,
        trials: u64,
        cap: u64,
        workers: usize,
        expect_violation: bool,
    ) where
        P: shmem_sim::Protocol<Inv = RegInv, Resp = RegResp>,
        F: Fn() -> Cluster<P> + Sync,
    {
        // Coverage growth: one guided campaign that never stops early.
        let growth_rounds = (cap.min(1024) / u64::from(BATCH)).max(1) as u32;
        let growth = fuzz(
            factory,
            oracle,
            FuzzConfig {
                seed: 1,
                rounds: growth_rounds,
                batch: BATCH,
                workers,
                stop_on_violation: false,
                ..FuzzConfig::default()
            },
        );

        let (rand_med, guided_med, speedup) = if expect_violation {
            let mut random = Vec::with_capacity(trials as usize);
            let mut guided = Vec::with_capacity(trials as usize);
            for trial in 0..trials {
                let start = trial * 10_000;
                let mut first = cap;
                for i in 0..cap {
                    if run_seed(factory, oracle, start + i).is_some() {
                        first = i + 1;
                        break;
                    }
                }
                random.push(first);
                let out = fuzz(
                    factory,
                    oracle,
                    FuzzConfig {
                        seed: trial + 1,
                        seed_start: start,
                        rounds: (cap / u64::from(BATCH)).max(1) as u32,
                        batch: BATCH,
                        workers,
                        ..FuzzConfig::default()
                    },
                );
                guided.push(out.executions_to_first_violation.unwrap_or(cap));
            }
            let (r, g) = (median(random), median(guided));
            (
                r.to_string(),
                g.to_string(),
                format!("{:.2}x", r as f64 / g as f64),
            )
        } else {
            ("—".into(), "—".into(), "—".into())
        };

        t.push(vec![
            name.into(),
            format!("{oracle:?}"),
            trials.to_string(),
            rand_med,
            guided_med,
            speedup,
            coverage_at(&growth.coverage_curve, 64),
            coverage_at(&growth.coverage_curve, 256),
            coverage_at(&growth.coverage_curve, 1024),
        ]);
    }

    let spec = ValueSpec::from_bits(64.0);
    let mut t = Table::new(
        format!(
            "Coverage-guided fuzzing vs random sweep, n=3 f=1 clients=3, \
             {trials} trials, cap {cap} executions/trial"
        ),
        &[
            "algorithm",
            "oracle",
            "trials",
            "random med execs",
            "guided med execs",
            "speedup",
            "cov@64",
            "cov@256",
            "cov@1024",
        ],
    );
    row(
        &mut t,
        "no-write-back",
        Oracle::Atomic,
        &|| NwbCluster::new(3, 1, 3, spec),
        trials,
        cap,
        workers,
        true,
    );
    row(
        &mut t,
        "lossy (8 bits)",
        Oracle::Regular,
        &|| LossyCluster::new(3, 1, 3, 8, spec),
        trials,
        cap,
        workers,
        true,
    );
    row(
        &mut t,
        "lossy (1/3 bit-rot)",
        Oracle::Safe,
        &|| LossyCluster::with_bit_rot(3, 1, 3, 1, 8, spec),
        trials,
        cap,
        workers,
        true,
    );
    row(
        &mut t,
        "ABD",
        Oracle::Atomic,
        &|| AbdCluster::new(3, 1, 3, spec),
        trials,
        cap,
        workers,
        false,
    );
    row(
        &mut t,
        "ABD (gossip)",
        Oracle::Atomic,
        &|| GossipCluster::new(3, 1, 3, spec),
        trials,
        cap,
        workers,
        false,
    );
    row(
        &mut t,
        "CAS",
        Oracle::Atomic,
        &|| CasCluster::new(3, 1, 3, spec),
        trials,
        cap,
        workers,
        false,
    );
    row(
        &mut t,
        "Hashed CAS",
        Oracle::Atomic,
        &|| HashedCluster::new(3, 1, 3, spec),
        trials,
        cap,
        workers,
        false,
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_table_guided_beats_random_where_it_can() {
        // Small version of the acceptance run (`figures tab-fuzz` does 21
        // trials at cap 2048). The contract mirrors the density spectrum
        // the table documents: a strict guided win on the sparse
        // fault-driven control, an exact tie on the saturated one.
        let t = fuzz_table(5, 512, 4);
        assert_eq!(t.rows.len(), 7);

        // no-write-back: sparse, fault-timing-driven — guidance must win.
        let nwb = &t.rows[0];
        let rand: u64 = nwb[3].parse().unwrap();
        let guided: u64 = nwb[4].parse().unwrap();
        assert!(guided < 512, "nwb: guided fuzz hit the cap");
        assert!(
            guided < rand,
            "nwb: guided median {guided} must beat random {rand}"
        );

        // saturated lossy: both strategies hit within the first probes,
        // and the guided stream starts with the same fresh seeds, so the
        // medians tie exactly.
        let lossy = &t.rows[1];
        let rand: u64 = lossy[3].parse().unwrap();
        let guided: u64 = lossy[4].parse().unwrap();
        assert!(rand <= 16, "saturated lossy stopped being saturated");
        assert_eq!(guided, rand, "saturated control must tie");

        // bit-rot: sparse but workload-driven; just require both columns
        // to be populated (the table's point is that guidance ≈ random
        // here, and small-trial medians of a geometric are too noisy to
        // pin an inequality on).
        let bitrot = &t.rows[2];
        assert!(bitrot[3].parse::<u64>().is_ok());
        assert!(bitrot[4].parse::<u64>().is_ok());

        for r in &t.rows[3..] {
            assert_eq!(r[3], "—");
            // Coverage keeps growing on the sound algorithms.
            let c64: u64 = r[6].parse().unwrap();
            let c256: u64 = r[7].parse().unwrap();
            assert!(c64 > 0 && c256 > c64, "{}: coverage did not grow", r[0]);
        }
        // Deterministic: byte-identical on rerun.
        assert_eq!(t.rows, fuzz_table(5, 512, 4).rows);
    }
}
