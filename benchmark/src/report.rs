//! The ledger's documents: the tables a person reads, the one-line result
//! the driver reads, the *set* files that collect the runs of one commit,
//! and the two judgements made over sets — `compare` (did B regress
//! against A?) and the spread check of `repeat` (does one commit agree
//! with itself?).

use crate::catalog::{EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::Run;
use crate::stats::Summary;
use shmem_util::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// An object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The end-to-end table of a run: every metric by name with its unit, the
/// reported value, and the median, quartiles and count of its samples.
pub fn end_to_end_table(run: &Run) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed {}: {} rounds, {} saturated trials; loopback / in-process, no injected delay: latency is processor and scheduler time only",
        run.workload,
        run.seed,
        run.rounds.len(),
        run.trials().count()
    );
    for (m, r) in run.end_to_end() {
        let s = r.samples;
        let _ = writeln!(
            out,
            "  {:<22} {:>16.6} {:<4} {} of n {:<3} median {:.6} q1 {:.6} q3 {:.6}",
            m.name,
            r.value,
            m.unit,
            if !m.timed {
                "median       "
            } else {
                "best decile  "
            },
            s.n,
            s.median,
            s.q1,
            s.q3
        );
    }
    out
}

/// The per-layer table of a trace pass (`values` in catalog order).
pub fn per_layer_table(workload: &str, values: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{workload}: per-layer metrics of the decorated round (0 = the workload does not run that layer)"
    );
    for (m, v) in PER_LAYER.iter().zip(values) {
        let _ = writeln!(out, "  {:<44} {:>16.4} {}", m.name, v, m.unit);
    }
    out
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`. Only a run that passed every
/// correctness gate gets this far, so `correct` is true and `failed` is 0.
pub fn result_line(attempted: u64, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(0.0)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact()
}

/// A run as a set file keeps it: per end-to-end metric the reported value
/// and every sample behind it.
fn run_json(run: &Run) -> Json {
    let metrics = run
        .end_to_end()
        .into_iter()
        .map(|(m, r)| {
            let samples = run.samples(m.name).into_iter().map(Json::Num).collect();
            (
                m.name.to_string(),
                obj(vec![
                    ("value", Json::Num(r.value)),
                    ("samples", Json::Arr(samples)),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("workload", Json::str(run.workload)),
        ("seed", Json::Num(run.seed as f64)),
        ("rounds", Json::Num(run.rounds.len() as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn load(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
}

/// Appends `run` to the set file at `path` (created if absent).
///
/// # Errors
///
/// An unreadable, malformed or unwritable file.
pub fn append_to_set(path: &Path, run: &Run) -> Result<(), String> {
    let mut runs = if path.exists() {
        match load(path)? {
            Json::Obj(fields) => fields
                .into_iter()
                .find(|(k, _)| k == "runs")
                .and_then(|(_, v)| match v {
                    Json::Arr(runs) => Some(runs),
                    _ => None,
                })
                .ok_or_else(|| format!("{} is not a set file", path.display()))?,
            _ => return Err(format!("{} is not a set file", path.display())),
        }
    } else {
        Vec::new()
    };
    runs.push(run_json(run));
    let doc = obj(vec![
        ("schema", Json::str("shmem-ledger-set/v1")),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The values a set holds for `metric` on `workload`, one per run.
fn set_values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How one workload × metric cell of B stands against A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Standing {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// One of the sets' own interquartile spreads is wider than the bound:
    /// the sets cannot tell.
    Unresolved,
}

impl Standing {
    /// How the tables spell it.
    pub fn name(self) -> &'static str {
        match self {
            Standing::Ok => "ok",
            Standing::Regressed => "regressed",
            Standing::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs of one cell against A's.
pub fn standing(metric: &EndToEnd, a: &Summary, b: &Summary) -> Standing {
    if a.spread().max(b.spread()) > metric.bound {
        Standing::Unresolved
    } else if metric.better.worsening(a.median, b.median) > metric.bound {
        Standing::Regressed
    } else {
        Standing::Ok
    }
}

fn cells<'a>(
    a: &'a Json,
    b: &'a Json,
) -> impl Iterator<Item = (&'static str, &'static EndToEnd, Summary, Summary)> + 'a {
    WORKLOADS.iter().flat_map(move |w| {
        END_TO_END.iter().filter_map(move |m| {
            let (va, vb) = (set_values(a, w.name, m.name), set_values(b, w.name, m.name));
            (!va.is_empty() && !vb.is_empty())
                .then(|| (w.name, m, Summary::of(&va), Summary::of(&vb)))
        })
    })
}

/// Compares two set files: one row per workload × end-to-end metric with
/// both medians and quartiles, the ratio B/A with its base, and the
/// cell's [`Standing`]. Returns the table and whether any cell regressed.
///
/// # Errors
///
/// An unreadable or malformed file, or no cell the two sets share.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<22} {:>14} {:>21} {:>14} {:>21} {:>16} {:>6}  standing",
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B/A (base A)",
        "bound"
    );
    let mut regressed = false;
    let mut rows = 0;
    for (workload, m, sa, sb) in cells(&a, &b) {
        let standing = standing(m, &sa, &sb);
        regressed |= standing == Standing::Regressed;
        rows += 1;
        let _ = writeln!(
            out,
            "{:<20} {:<22} {:>14.5} {:>10.5}..{:<9.5} {:>14.5} {:>10.5}..{:<9.5} {:>7.4} of {:<7.5} {:>6}  {}",
            workload,
            m.name,
            sa.median,
            sa.q1,
            sa.q3,
            sb.median,
            sb.q1,
            sb.q3,
            sb.median / sa.median,
            sa.median,
            m.bound,
            standing.name()
        );
    }
    if rows == 0 {
        return Err("the two sets share no workload".to_string());
    }
    Ok((out, regressed))
}

/// The spread check over the sets of one commit: per workload × metric the
/// interquartile spread of each set's runs as a share of their median,
/// against the metric's bound. Returns the table and whether every cell
/// held.
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn spreads(sets: &[&Path]) -> Result<(String, bool), String> {
    let sets = sets
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<Json>, String>>()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<22} {:>6}  per set: median, interquartile spread / median (n)",
        "workload", "metric", "bound"
    );
    let mut held = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let mut row = String::new();
            for set in &sets {
                let values = set_values(set, w.name, m.name);
                if values.is_empty() {
                    continue;
                }
                let s = Summary::of(&values);
                let wide = s.spread() > m.bound;
                held &= !wide;
                let _ = write!(
                    row,
                    "  {:>14.5} {:>7.4}{} ({})",
                    s.median,
                    s.spread(),
                    if wide { "!" } else { " " },
                    s.n
                );
            }
            if !row.is_empty() {
                let _ = writeln!(out, "{:<20} {:<22} {:>6}{row}", w.name, m.name, m.bound);
            }
        }
    }
    Ok((out, held))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "1",
            better,
            bound,
            timed: true,
        }
    }

    #[test]
    fn standing_follows_direction_bound_and_spread() {
        let tight = |median: f64| Summary::of(&[median * 0.99, median, median * 1.01]);
        let up = metric(Better::Higher, 0.10);
        assert_eq!(standing(&up, &tight(100.0), &tight(95.0)), Standing::Ok);
        assert_eq!(standing(&up, &tight(100.0), &tight(120.0)), Standing::Ok);
        assert_eq!(
            standing(&up, &tight(100.0), &tight(85.0)),
            Standing::Regressed
        );
        let down = metric(Better::Lower, 0.10);
        assert_eq!(standing(&down, &tight(100.0), &tight(85.0)), Standing::Ok);
        assert_eq!(
            standing(&down, &tight(100.0), &tight(115.0)),
            Standing::Regressed
        );
        // A set whose own quartiles are wider than the bound decides nothing.
        let wide = Summary::of(&[80.0, 100.0, 120.0]);
        assert_eq!(standing(&down, &wide, &tight(150.0)), Standing::Unresolved);
        assert_eq!(standing(&down, &tight(100.0), &wide), Standing::Unresolved);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(7, &[("setup_s", "s", 0.8127)]);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(7));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
