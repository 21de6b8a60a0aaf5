//! The shape of a run: many interleaved rounds, one sample per round.
//!
//! An untraced run repeats the full lifecycle round until `--seconds` are
//! used up (a default run completes at least 30) and reports the ten
//! end-to-end metrics. A traced run makes up to ten observed rounds, each
//! paired with an unobserved serve-and-query round so the cost of observing
//! is itself measured, then runs the per-layer probes and writes the spans.

use crate::host::Reference;
use crate::inputs::Inputs;
use crate::json::{obj, Json};
use crate::layers::{self, RoundFacts};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::report::{self, Reported, RunReport};
use crate::round::{Ops, Phases, RoundContext, RoundSample};
use crate::stats::Summary;
use crate::trace::Tracer;
use loom::loom_obs::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Rounds an untraced run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Observed rounds of a traced run.
const TRACED_ROUNDS: usize = 10;
/// Share of `--seconds` a traced run may spend on rounds before it moves on
/// to the probes.
const TRACED_ROUND_SHARE: f64 = 0.6;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Result files go to `<out>/<workload>/`.
    pub out: PathBuf,
    /// Divides the generator sizes (the self-test runs at 20).
    pub scale: usize,
}

/// What a finished run leaves behind.
pub struct Outcome {
    pub correct: bool,
    /// `MISMATCH …` lines, the metric table, then the one-line JSON result.
    pub stdout: String,
    pub result_file: PathBuf,
}

/// Scratch root for durability roots, one directory per process, removed
/// when the run ends. It sits on tmpfs when there is one, so a flush costs a
/// syscall and not a wait on a shared device: device time cannot be measured
/// honestly on a shared virtual disk, so flushes and bytes are counted.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> Result<Self, String> {
        // The self-test makes several runs in one process.
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "loom-benchmark-{}.{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        );
        let shm = Path::new("/dev/shm");
        if report::filesystem_of(shm) == "tmpfs" && std::fs::create_dir(shm.join(&name)).is_ok() {
            return Ok(Self(shm.join(name)));
        }
        let root = out.join("scratch").join(name);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Self(root))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn execute(args: &RunArgs) -> Result<Outcome, String> {
    let inputs = Inputs::generate(&args.workload, args.seed, args.scale)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let scratch = Scratch::create(&args.out)?;
    let provenance = report::provenance(&scratch.0);
    eprintln!(
        "loom-benchmark: {} seed {} |V|={} |E|={} elements={} B={} scratch {} ({})",
        inputs.name,
        inputs.seed,
        inputs.serve_graph.vertex_count(),
        inputs.serve_graph.edge_count(),
        inputs.full_stream.len(),
        inputs.sizes.batch,
        scratch.0.display(),
        report::filesystem_of(&scratch.0),
    );
    let dir = args.out.join(inputs.name);
    if args.trace {
        traced(args, &inputs, &scratch.0, provenance, &dir)
    } else {
        untraced(args, &inputs, &scratch.0, provenance, &dir)
    }
}

fn column(samples: &[RoundSample], f: impl Fn(&RoundSample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// One round's raw wall-clock reading of the timed end-to-end metric `name`
/// and the host-speed index of the moment it was taken.
fn reading(sample: &RoundSample, name: &str) -> (f64, f64) {
    match name {
        "setup_s" => (sample.setup_s, sample.host.setup),
        "ingest_eps" => (sample.ingest_eps, sample.host.ingest),
        "durable_eps" => (sample.durable_eps, sample.host.durable),
        "query_qps" => (sample.query_qps, sample.host.query),
        "checkpoint_s" => (sample.checkpoint_s, sample.host.checkpoint),
        "recover_s" => (sample.recover_s, sample.host.recover),
        other => unreachable!("`{other}` is not a timed end-to-end metric"),
    }
}

/// The per-round samples of a timed end-to-end metric, raw and at the
/// reference host's speed: a time is divided by the index, a rate multiplied.
fn timed_metric(def: &'static MetricDef, samples: &[RoundSample]) -> Reported {
    let raw = column(samples, |s| reading(s, def.name).0);
    let at_reference_speed = column(samples, |s| {
        let (value, index) = reading(s, def.name);
        match def.better {
            Better::Lower => value / index,
            Better::Higher => value * index,
        }
    });
    Reported::timed(def, at_reference_speed, raw)
}

/// The host-speed index over a run: one reading per round (the mean over
/// the round's timed steps), summarised and listed.
fn host_index(samples: &[RoundSample]) -> Json {
    let per_round = column(samples, |s| {
        let h = s.host;
        let steps = [
            h.setup,
            h.ingest,
            h.durable,
            h.query,
            h.checkpoint,
            h.recover,
        ];
        let taken = steps.iter().filter(|index| **index > 0.0).count();
        steps.iter().sum::<f64>() / taken.max(1) as f64
    });
    let mut pairs = vec![(
        "nominal_slice_s".to_string(),
        crate::host::NOMINAL_SLICE_S.into(),
    )];
    if let Some(summary) = Summary::of(&per_round) {
        eprintln!(
            "loom-benchmark: host-speed index {:.3} (q1 {:.3}, q3 {:.3}; 1 = undisturbed build host)",
            summary.median, summary.q1, summary.q3
        );
        pairs.push(("median".to_string(), summary.median.into()));
        pairs.push(("q1".to_string(), summary.q1.into()));
        pairs.push(("q3".to_string(), summary.q3.into()));
    }
    pairs.push(("per_round".to_string(), per_round.into()));
    Json::Obj(pairs)
}

/// Every count-type reading must be identical on every round.
fn check_counts_repeat(samples: &[RoundSample], mismatches: &mut Vec<String>) {
    let Some(first) = samples.first() else {
        return;
    };
    for (round, sample) in samples.iter().enumerate().skip(1) {
        if sample.imbalance != first.imbalance
            || sample.disk_bytes != first.disk_bytes
            || sample.wal_records != first.wal_records
        {
            mismatches.push(format!(
                "MISMATCH round {round}: counts differ from round 0 \
                 (imbalance {} vs {}, disk bytes {} vs {}, WAL records {} vs {})",
                sample.imbalance,
                first.imbalance,
                sample.disk_bytes,
                first.disk_bytes,
                sample.wal_records,
                first.wal_records
            ));
        }
    }
}

fn finish(report: &RunReport<'_>, dir: &Path, file: &str) -> Result<Outcome, String> {
    let result_file = report::write_file(dir, file, &report.file().pretty())?;
    let mut stdout = String::new();
    for line in report.mismatches {
        stdout.push_str(line);
        stdout.push('\n');
    }
    stdout.push_str(&report.table());
    stdout.push_str(&report.line());
    stdout.push('\n');
    Ok(Outcome {
        correct: report.correct(),
        stdout,
        result_file,
    })
}

fn untraced(
    args: &RunArgs,
    inputs: &Inputs,
    scratch: &Path,
    provenance: Json,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut context = RoundContext {
        inputs,
        scratch,
        telemetry: None,
        ops: Ops::default(),
        mismatches: Vec::new(),
        reference: Reference::new(args.scale),
    };
    let mut tracer = Tracer::disabled();
    let mut samples: Vec<RoundSample> = Vec::new();
    let started = Instant::now();
    // Stop at the round boundary nearest to `--seconds`.
    let mut longest_round = 0.0f64;
    while samples.len() < MIN_ROUNDS
        || started.elapsed().as_secs_f64() + longest_round / 2.0 < args.seconds
    {
        let round = samples.len() as u64;
        let round_started = Instant::now();
        // The gate runs on round 0 only, outside the timed regions.
        samples.push(context.run_round(round, Phases::All, round == 0, &mut tracer)?);
        if round > 0 {
            longest_round = longest_round.max(round_started.elapsed().as_secs_f64());
        }
    }
    check_counts_repeat(&samples, &mut context.mismatches);

    let first = &samples[0];
    let metrics: Vec<Reported> = END_TO_END
        .iter()
        .map(|def| match def.name {
            _ if def.timed => timed_metric(def, &samples),
            "ipt" => Reported::exact(def, first.ipt),
            "imbalance" => Reported::exact(def, first.imbalance),
            "disk_bytes_per_element" => Reported::exact(
                def,
                first.disk_bytes as f64 / inputs.full_stream.len() as f64,
            ),
            "peak_rss_mb" => Reported::exact(def, report::peak_rss_mb()),
            other => unreachable!("end-to-end metric `{other}` has no reading"),
        })
        .collect();
    let report = RunReport {
        inputs,
        trace: false,
        seconds: args.seconds,
        rounds: samples.len(),
        attempted: context.ops.attempted,
        failed: context.ops.failed,
        mismatches: &context.mismatches,
        metrics: &metrics,
        provenance,
        extra: vec![("host_index".to_string(), host_index(&samples))],
    };
    finish(&report, dir, "result.json")
}

fn traced(
    args: &RunArgs,
    inputs: &Inputs,
    scratch: &Path,
    provenance: Json,
    dir: &Path,
) -> Result<Outcome, String> {
    let telemetry = Telemetry::new();
    let before = telemetry.snapshot();
    let mut observed = RoundContext {
        inputs,
        scratch,
        telemetry: Some(&telemetry),
        ops: Ops::default(),
        mismatches: Vec::new(),
        reference: Reference::new(args.scale),
    };
    let mut unobserved = RoundContext {
        inputs,
        scratch,
        telemetry: None,
        ops: Ops::default(),
        mismatches: Vec::new(),
        reference: Reference::new(args.scale),
    };
    let mut tracer = Tracer::enabled();
    let mut silent = Tracer::disabled();
    let mut samples: Vec<RoundSample> = Vec::new();
    let mut unobserved_qps: Vec<f64> = Vec::new();
    let started = Instant::now();
    while samples.len() < TRACED_ROUNDS
        && (samples.is_empty()
            || started.elapsed().as_secs_f64() < args.seconds * TRACED_ROUND_SHARE)
    {
        let round = samples.len() as u64;
        // The gate runs on every traced round.
        samples.push(observed.run_round(round, Phases::All, true, &mut tracer)?);
        let twin = unobserved.run_round(round, Phases::ServeOnly, false, &mut silent)?;
        unobserved_qps.push(twin.query_qps);
    }
    check_counts_repeat(&samples, &mut observed.mismatches);
    if inputs.name == "scan" {
        let first = &samples[0].matches_per_query;
        if samples.iter().any(|s| &s.matches_per_query != first) {
            observed
                .mismatches
                .push("MISMATCH scan: per-query match counts differ between rounds".to_string());
        }
    }

    let delta = telemetry.snapshot().since(&before);
    let rate = |values: Vec<f64>| Summary::of(&values).map_or(f64::NAN, |s| s.median);
    let facts = RoundFacts {
        ingest_eps: rate(column(&samples, |s| s.ingest_eps)),
        query_qps: rate(column(&samples, |s| s.query_qps)),
        untraced_query_qps: rate(unobserved_qps),
        rounds: samples.len(),
        telemetry: &delta,
        ingest_wall_s: tracer.total_s("session/ingest_stream")
            + tracer.total_s("session/ingest_stream_durable"),
    };
    let values = layers::probe(inputs, scratch, &facts, &mut tracer)?;

    let trace_file = dir.join("trace.jsonl");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    let totals = tracer.totals_ms();
    // A span is named `<layer>/<call>`; a layer's self time is the sum over
    // its spans of each span minus its children.
    let mut layer_self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, (_, _, self_ms)) in &totals {
        let layer = name.split('/').next().unwrap_or(name);
        *layer_self_ms.entry(layer).or_default() += self_ms;
    }
    let layer_self_ms = Json::Obj(
        layer_self_ms
            .into_iter()
            .map(|(layer, ms)| (layer.to_string(), ms.into()))
            .collect(),
    );
    let spans = Json::Obj(
        totals
            .into_iter()
            .map(|(name, (count, total_ms, self_ms))| {
                (
                    name.to_string(),
                    obj([
                        ("count", count.into()),
                        ("total_ms", total_ms.into()),
                        ("self_ms", self_ms.into()),
                    ]),
                )
            })
            .collect(),
    );
    let rounds_section = Json::Obj(
        END_TO_END
            .iter()
            .filter(|def| def.timed)
            .map(|def| {
                (
                    def.name.to_string(),
                    Json::from(column(&samples, |s| reading(s, def.name).0)),
                )
            })
            .collect(),
    );

    let metrics: Vec<Reported> = PER_LAYER
        .iter()
        .map(|def| Reported::exact(def, values[def.name]))
        .collect();
    let mut mismatches = observed.mismatches;
    mismatches.extend(unobserved.mismatches);
    let report = RunReport {
        inputs,
        trace: true,
        seconds: args.seconds,
        rounds: samples.len(),
        attempted: observed.ops.attempted + unobserved.ops.attempted,
        failed: observed.ops.failed + unobserved.ops.failed,
        mismatches: &mismatches,
        metrics: &metrics,
        provenance,
        extra: vec![
            (
                "trace_file".to_string(),
                trace_file.display().to_string().into(),
            ),
            ("traced_round_samples".to_string(), rounds_section),
            ("host_index".to_string(), host_index(&samples)),
            ("layer_self_ms".to_string(), layer_self_ms),
            ("spans".to_string(), spans),
        ],
    };
    finish(&report, dir, "layers.json")
}
