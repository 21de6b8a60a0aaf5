//! Result files and provenance: every number is stamped with the revision
//! and machine shape it was taken on.

use crate::inputs::{Inputs, DATASET_SEED};
use crate::json::{obj, Json};
use crate::metrics::MetricDef;
use crate::stats::Summary;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One reported metric: the value on the result line, and for timed metrics
/// the per-round samples it summarises.
pub struct Reported {
    pub def: &'static MetricDef,
    pub value: f64,
    pub summary: Option<Summary>,
    pub samples: Vec<f64>,
    /// Timed metrics: the same rounds as the wall clock read them, before
    /// the host-speed index was applied.
    pub raw_samples: Vec<f64>,
}

impl Reported {
    /// A timed metric sampled once per round: the median over the rounds,
    /// with n and the quartiles beside it. `samples` are at the reference
    /// host's speed (`host.rs`), `raw_samples` as the wall clock read them.
    pub fn timed(def: &'static MetricDef, samples: Vec<f64>, raw_samples: Vec<f64>) -> Self {
        let summary = Summary::of(&samples);
        Self {
            def,
            value: summary.map_or(f64::NAN, |s| s.median),
            summary,
            samples,
            raw_samples,
        }
    }

    /// A count or a single reading.
    pub fn exact(def: &'static MetricDef, value: f64) -> Self {
        Self {
            def,
            value,
            summary: None,
            samples: Vec::new(),
            raw_samples: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value".to_string(), self.value.into()),
            ("unit".to_string(), self.def.unit.into()),
        ];
        if let Some(s) = self.summary {
            pairs.push(("n".to_string(), s.n.into()));
            pairs.push(("median".to_string(), s.median.into()));
            pairs.push(("q1".to_string(), s.q1.into()));
            pairs.push(("q3".to_string(), s.q3.into()));
            pairs.push(("samples".to_string(), self.samples.clone().into()));
        }
        if let Some(raw) = Summary::of(&self.raw_samples) {
            pairs.push(("raw_median".to_string(), raw.median.into()));
            pairs.push(("raw_samples".to_string(), self.raw_samples.clone().into()));
        }
        Json::Obj(pairs)
    }
}

/// First line of `program args…`'s standard output, or `unknown`.
fn first_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Revision, toolchain and machine shape of this run.
pub fn provenance(scratch: &Path) -> Json {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    obj([
        (
            "revision",
            first_line("git", &["rev-parse", "HEAD"], package).into(),
        ),
        ("rustc", first_line("rustc", &["--version"], package).into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("scratch_root", scratch.display().to_string().into()),
        ("scratch_fs", filesystem_of(scratch).into()),
    ])
}

/// |V|, |E|, stream elements and B of a workload's generated inputs.
pub fn sizes(inputs: &Inputs) -> Json {
    obj([
        ("vertices", inputs.serve_graph.vertex_count().into()),
        ("edges", inputs.serve_graph.edge_count().into()),
        ("elements", inputs.full_stream.len().into()),
        ("mutations", inputs.dissolve.len().into()),
        ("batch", inputs.sizes.batch.into()),
        (
            "background_vertices",
            inputs.sizes.background_vertices.into(),
        ),
        ("planted_per_motif", inputs.sizes.instances.into()),
    ])
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Everything one run reports.
pub struct RunReport<'a> {
    pub inputs: &'a Inputs,
    pub trace: bool,
    pub seconds: f64,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: &'a [String],
    pub metrics: &'a [Reported],
    pub provenance: Json,
    /// Extra sections of a traced run (span totals per name).
    pub extra: Vec<(String, Json)>,
}

impl RunReport<'_> {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result file: provenance, sizes and every metric with its samples.
    pub fn file(&self) -> Json {
        let mut pairs = vec![
            ("benchmark".to_string(), "loom-benchmark".into()),
            ("workload".to_string(), self.inputs.name.into()),
            ("trace".to_string(), self.trace.into()),
            ("seed".to_string(), self.inputs.seed.into()),
            ("dataset_seed".to_string(), DATASET_SEED.into()),
            ("seconds".to_string(), self.seconds.into()),
            ("provenance".to_string(), self.provenance.clone()),
            ("sizes".to_string(), sizes(self.inputs)),
            ("rounds".to_string(), self.rounds.into()),
            ("correct".to_string(), self.correct().into()),
            ("attempted".to_string(), self.attempted.into()),
            ("failed".to_string(), self.failed.into()),
            ("mismatches".to_string(), self.mismatches.to_vec().into()),
            (
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.def.name.to_string(), m.to_json()))
                        .collect(),
                ),
            ),
        ];
        pairs.extend(self.extra.iter().cloned());
        Json::Obj(pairs)
    }

    /// The one-line result the acceptance pipeline reads from standard output.
    pub fn line(&self) -> String {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.to_string(),
                                obj([("value", m.value.into()), ("unit", m.def.unit.into())]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics {
            let detail = m.summary.map_or_else(String::new, |s| {
                format!("  (n={} q1={:.6} q3={:.6})", s.n, s.q1, s.q3)
            });
            out.push_str(&format!(
                "{:<32} {:>16.6} {}{}\n",
                m.def.name, m.value, m.def.unit, detail
            ));
        }
        out
    }
}

/// Write `text` to `dir/name`, creating `dir`.
pub fn write_file(dir: &Path, name: &str, text: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
