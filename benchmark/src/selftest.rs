//! Self-test: the whole benchmark at sizes ÷ 20.

use crate::inputs::{Inputs, WORKLOADS};
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{execute, RunArgs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SCALE: usize = 20;

/// A result directory of this test's own, removed when it goes out of scope.
struct OutDir(PathBuf);

impl OutDir {
    fn new(test: &str) -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("selftest-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload and return the metrics of its result line.
fn run(out: &OutDir, workload: &str, seed: u64, trace: bool) -> BTreeMap<String, (f64, String)> {
    let outcome = execute(&RunArgs {
        workload: workload.to_string(),
        seed,
        // Too short for anything but the minimum round count.
        seconds: 1.0,
        trace,
        out: out.0.clone(),
        scale: SCALE,
    })
    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
    assert!(
        outcome.correct,
        "{workload} trace={trace} failed its gate:\n{}",
        outcome.stdout
    );
    let line = outcome.stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    result
        .get("metrics")
        .expect("metrics")
        .entries()
        .iter()
        .map(|(name, metric)| {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}: `{name}` has no finite value"));
            let unit = metric.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn assert_reports(workload: &str, defs: &[MetricDef], reported: &BTreeMap<String, (f64, String)>) {
    assert_eq!(reported.len(), defs.len(), "{workload}: metric count");
    for def in defs {
        let (value, unit) = reported
            .get(def.name)
            .unwrap_or_else(|| panic!("{workload}: `{}` was not printed", def.name));
        assert!(value.is_finite(), "{workload}: `{}` = {value}", def.name);
        assert_eq!(unit, def.unit, "{workload}: unit of `{}`", def.name);
    }
}

#[test]
fn benchmark_json_and_the_catalogue_agree() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).unwrap();
    let names: Vec<&str> = file
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = file.get(key).unwrap().as_array();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            let text = |k: &str| entry.get(k).and_then(Json::as_str).unwrap();
            assert_eq!(text("name"), def.name);
            assert_eq!(text("unit"), def.unit, "{}", def.name);
            assert_eq!(text("better"), def.better.as_str(), "{}", def.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert!(
                def.name.len() <= 64
                    && def
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "`{}` is not a metric name",
                def.name
            );
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn the_seed_picks_the_requests_and_the_data_set_is_fixed() {
    for workload in WORKLOADS {
        let a = Inputs::generate(workload, 7, SCALE).unwrap();
        let b = Inputs::generate(workload, 7, SCALE).unwrap();
        let c = Inputs::generate(workload, 8, SCALE).unwrap();
        for other in [&b, &c] {
            assert_eq!(
                a.full_stream.elements(),
                other.full_stream.elements(),
                "{workload}"
            );
            assert_eq!(
                a.serve_stream.elements(),
                other.serve_stream.elements(),
                "{workload}"
            );
            assert_eq!(a.dissolve, other.dissolve, "{workload}");
            // Round 0 asks the data set's own request: `ipt` is read from it.
            assert_eq!(a.request(0), other.request(0), "{workload}");
        }
        assert_eq!(a.request(1), b.request(1), "{workload}");
        assert_ne!(a.request(1), c.request(1), "{workload}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let out = OutDir::new("e2e");
    for workload in WORKLOADS {
        let reported = run(&out, workload, 3, false);
        assert_reports(workload, &END_TO_END, &reported);
        for def in &END_TO_END {
            assert!(
                reported[def.name].0 > 0.0,
                "{workload}: `{}` is zero",
                def.name
            );
        }
        let file = std::fs::read_to_string(out.0.join(workload).join("result.json")).unwrap();
        let file = Json::parse(&file).unwrap();
        for key in ["revision", "rustc", "nproc", "scratch_fs"] {
            assert!(file.get("provenance").unwrap().get(key).is_some(), "{key}");
        }
        assert!(file.get("rounds").and_then(Json::as_f64).unwrap() >= 3.0);
        let setup = file.get("metrics").unwrap().get("setup_s").unwrap();
        for key in ["n", "median", "q1", "q3"] {
            assert!(setup.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
    }
}

#[test]
fn counts_repeat_exactly_whatever_the_seed() {
    let out = OutDir::new("counts");
    let exact = ["ipt", "imbalance", "disk_bytes_per_element"];
    let first = run(&out, "churn", 5, false);
    let second = run(&out, "churn", 6, false);
    for name in exact {
        assert_eq!(first[name], second[name], "{name}");
    }
    let first = run(&out, "ingest", 5, true);
    let second = run(&out, "ingest", 6, true);
    for def in PER_LAYER.iter().filter(|m| m.unit == "count") {
        if def.name != "serve.peak_queue_depth" {
            assert_eq!(first[def.name], second[def.name], "{}", def.name);
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_a_trace() {
    let out = OutDir::new("layers");
    for workload in WORKLOADS {
        let reported = run(&out, workload, 3, true);
        assert_reports(workload, &PER_LAYER, &reported);
        assert!(reported["sim.traversals_per_query"].0 > 0.0);
        let churn = workload == "churn";
        assert_eq!(
            reported["adapt.compact_now_ms"].0 > 0.0,
            churn,
            "{workload}"
        );
        let open_loop = matches!(workload, "point" | "scan");
        assert_eq!(
            reported["load.open_p50_us"].0 > 0.0,
            open_loop,
            "{workload}"
        );

        // Spans nest round → phase → call, and the self times under a round
        // sum to the round's span: nothing in a round goes unattributed.
        let trace = std::fs::read_to_string(out.0.join(workload).join("trace.jsonl")).unwrap();
        let spans: Vec<Json> = trace.lines().map(|l| Json::parse(l).unwrap()).collect();
        let number = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).unwrap();
        let rounds: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("round"))
            .collect();
        assert!(!rounds.is_empty(), "{workload}: no round span");
        for round in rounds {
            let id = number(round, "id");
            let span_ns = number(round, "end_ns") - number(round, "start_ns");
            let mut inside = vec![id];
            let mut self_ns = number(round, "self_ns");
            for span in &spans {
                if span
                    .get("parent")
                    .and_then(Json::as_f64)
                    .is_some_and(|p| inside.contains(&p))
                {
                    inside.push(number(span, "id"));
                    self_ns += number(span, "self_ns");
                }
            }
            assert!(inside.len() > 5, "{workload}: a round has phases and calls");
            assert!(
                (self_ns - span_ns).abs() <= 0.05 * span_ns,
                "{workload}: self times {self_ns} ns vs round span {span_ns} ns"
            );
        }
    }
}
