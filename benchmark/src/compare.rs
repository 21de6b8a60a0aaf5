//! `loom-benchmark compare A B`: do two sets of runs agree?
//!
//! A and B are directories; every `result.json` beneath them is one run.
//! For each (end-to-end metric, workload) pair the table gives both sides'
//! median and quartiles over their runs, the metric's bound, and a verdict:
//! `worse` when B's median is worse than A's by more than the bound,
//! `unresolved` when either side's own spread is wider than the bound (the
//! runs cannot tell a change from noise) — unless every run of B reads
//! better than every run of A — and `ok` otherwise.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(dir: &Path, runs: &mut Runs) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect(&path, runs)?;
        } else if path.file_name().is_some_and(|n| n == "result.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no workload", path.display()))?;
            let metrics = run.get("metrics").map(Json::entries).unwrap_or_default();
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    runs.entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let bound = def.bound.unwrap_or(0.0);
    if sa.spread().max(sb.spread()) > bound {
        let b_always_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worsening(def, sa.median, sb.median) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison table, as Markdown. The flag is true when every pair is `ok`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (mut runs_a, mut runs_b) = (Runs::new(), Runs::new());
    collect(a, &mut runs_a)?;
    collect(b, &mut runs_b)?;
    if runs_a.is_empty() || runs_b.is_empty() {
        return Err("no result.json found under one of the two directories".to_string());
    }
    let mut out = String::from(
        "| workload | metric | unit | A median | A q1 | A q3 | B median | B q1 | B q3 | B vs A | spread A / B | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut all_ok = true;
    let empty = BTreeMap::new();
    for workload in crate::inputs::WORKLOADS {
        let (Some(ma), mb) = (runs_a.get(workload), runs_b.get(workload).unwrap_or(&empty)) else {
            continue;
        };
        for def in &END_TO_END {
            let none = Vec::new();
            let va = ma.get(def.name).unwrap_or(&none);
            let vb = mb.get(def.name).unwrap_or(&none);
            let (Some(sa), Some(sb)) = (Summary::of(va), Summary::of(vb)) else {
                continue;
            };
            let verdict = verdict(def, va, vb);
            all_ok &= verdict == Verdict::Ok;
            out.push_str(&format!(
                "| {workload} | {} | {} | {:.6} | {:.6} | {:.6} | {:.6} | {:.6} | {:.6} | {:+.2}% | {:.2}% / {:.2}% | {:.1}% | {} |\n",
                def.name,
                def.unit,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                worsening(def, sa.median, sb.median) * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str(),
            ));
        }
    }
    let counted = |runs: &Runs| {
        runs.values()
            .filter_map(|m| m.values().map(Vec::len).max())
            .max()
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "\nA: {} ({} runs per workload), B: {} ({} runs per workload). \
         \"B vs A\" is how much worse B's median is (negative = better).\n",
        a.display(),
        counted(&runs_a),
        b.display(),
        counted(&runs_b),
    ));
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &'static str, better: Better) -> MetricDef {
        MetricDef {
            name,
            unit: "x",
            better,
            bound: Some(0.10),
            timed: true,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let qps = &def("query_qps", Better::Higher);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.0, 101.0, 99.0];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        let faster = [200.0, 240.0, 170.0, 220.0, 185.0];
        assert_eq!(verdict(qps, &steady, &same), Verdict::Ok);
        assert_eq!(verdict(qps, &steady, &slower), Verdict::Worse);
        assert_eq!(verdict(qps, &steady, &noisy), Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        assert_eq!(verdict(qps, &steady, &faster), Verdict::Ok);
        let setup = &def("setup_s", Better::Lower);
        assert_eq!(verdict(setup, &steady, &slower), Verdict::Ok);
        assert_eq!(verdict(setup, &slower, &steady), Verdict::Worse);
    }
}
