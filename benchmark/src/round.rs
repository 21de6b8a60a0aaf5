//! One round: the full lifecycle a user of the stack walks through.
//!
//! build → ingest → serve → query → durable ingest → checkpoint → recover,
//! every step through the `loom::session` façade and the `QueryEngine`
//! trait only, so the numbers survive any reshaping of the crates below.
//! Each timed step yields **one sample per round**; a run's metric is the
//! median over its rounds, so no wall-clock number is ever taken once and
//! every metric's samples are spread over the whole run. The reference slice
//! of `host.rs` runs between the timed steps, so each sample comes with the
//! speed of the host at that moment.
//!
//! The correctness gate runs inside the same round, outside the timed
//! regions: on round 0 of the untraced run and on every traced round.

use crate::host::{self, Reference};
use crate::inputs::{Inputs, CHUNK, SCAN_MATCH_LIMIT, WORKERS};
use crate::layers;
use crate::trace::Tracer;
use loom::loom_adapt::{AdaptConfig, AdaptiveServing};
use loom::loom_obs::Telemetry;
use loom::loom_sim::engine::{QueryEngine, QueryRequest, QueryResponse};
use loom::loom_sim::executor::{ExecutionMetrics, QueryMode};
use loom::session::{Serving, SessionBuilder, SessionError, ShardedServing};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// How long `sync_durability` may wait for the background checkpoint.
const SYNC_TIMEOUT: Duration = Duration::from_secs(120);

/// Host-speed index of each timed step of a round: the reference slices run
/// just before and just after the step, over the slice's nominal time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostIndex {
    pub setup: f64,
    pub ingest: f64,
    pub durable: f64,
    pub query: f64,
    pub checkpoint: f64,
    pub recover: f64,
}

/// What one round measured. The timings are raw wall-clock readings.
#[derive(Debug, Clone, Default)]
pub struct RoundSample {
    pub setup_s: f64,
    pub ingest_eps: f64,
    pub durable_eps: f64,
    pub query_qps: f64,
    pub checkpoint_s: f64,
    pub recover_s: f64,
    pub host: HostIndex,
    /// Exact per request: the paper's metric for the round's request.
    pub ipt: f64,
    /// Exact: identical on every round.
    pub imbalance: f64,
    pub disk_bytes: u64,
    pub wal_records: u64,
    /// The round's response, for the per-layer ratios.
    pub metrics: ExecutionMetrics,
    /// `scan` only: full-enumeration matches per workload query.
    pub matches_per_query: Vec<usize>,
}

/// Operations attempted and failed, counted per run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Where a run's rounds happen and what observes them.
pub struct RoundContext<'a> {
    pub inputs: &'a Inputs,
    /// Durability roots live here, one fresh sub-directory per round.
    pub scratch: &'a Path,
    /// Attached to every session of a traced run.
    pub telemetry: Option<&'a Arc<Telemetry>>,
    /// The reference computation the host's speed is read from.
    pub reference: Reference,
    pub ops: Ops,
    /// `MISMATCH <what>` lines of the correctness gate.
    pub mismatches: Vec<String>,
}

/// Which phases a round walks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phases {
    /// The full lifecycle.
    All,
    /// Setup and query only: the unobserved twin of a traced round, there
    /// to price the observation.
    ServeOnly,
}

/// The engine a round's queries go to: the sharded engine, or on `churn`
/// the adaptive engine serving its tombstoned, uncompacted epoch.
enum Engine {
    Sharded(ShardedServing),
    Adaptive(Box<AdaptiveServing>),
}

impl Engine {
    fn run(&self, request: QueryRequest) -> QueryResponse {
        match self {
            Engine::Sharded(engine) => engine.run(request),
            Engine::Adaptive(engine) => engine.run(request),
        }
    }
}

fn fail(what: &str, error: SessionError) -> String {
    format!("{what}: {error}")
}

impl RoundContext<'_> {
    fn builder(&self, durable: Option<&Path>) -> SessionBuilder {
        let builder = match durable {
            Some(root) => self.inputs.builder().with_durability(root),
            None => self.inputs.builder(),
        };
        match self.telemetry {
            Some(telemetry) => builder.telemetry(Arc::clone(telemetry)),
            None => builder,
        }
    }

    fn mismatch(&mut self, round: u64, what: impl AsRef<str>) {
        self.mismatches
            .push(format!("MISMATCH round {round}: {}", what.as_ref()));
    }

    /// One reference slice, between two timed steps.
    fn slice(&mut self, tracer: &mut Tracer) -> f64 {
        tracer.scope("host/reference_slice", |_| self.reference.slice())
    }

    /// Count a batch of queries; a query that did not run, or ran past a
    /// deadline or a cancellation, counts as failed.
    fn count_queries(&mut self, asked: usize, metrics: &ExecutionMetrics) {
        self.ops.attempted += asked as u64;
        if metrics.deadline_exceeded || metrics.cancelled {
            self.ops.failed += asked as u64;
        } else {
            self.ops.failed += asked.saturating_sub(metrics.queries_executed) as u64;
        }
    }

    /// Run round `round`. `gate` adds the correctness checks. An `Err` is an
    /// operation the program refused: the run stops and reports it.
    pub fn run_round(
        &mut self,
        round: u64,
        phases: Phases,
        gate: bool,
        tracer: &mut Tracer,
    ) -> Result<RoundSample, String> {
        tracer.set_round(round);
        let dir = self.scratch.join(format!("round-{round}"));
        let result = tracer.scope("round", |tracer| {
            self.lifecycle(round, phases, gate, &dir, tracer)
        });
        // A fresh durability root per round, removed when the round ends.
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn lifecycle(
        &mut self,
        round: u64,
        phases: Phases,
        gate: bool,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> Result<RoundSample, String> {
        let inputs = self.inputs;
        let request = inputs.request(round);
        let mut sample = RoundSample::default();
        let all = phases == Phases::All;

        let mut before = self.slice(tracer);
        // Close a timed step: index it by the slices on either side.
        let mut step = |context: &mut Self, tracer: &mut Tracer| {
            let after = context.slice(tracer);
            let index = host::index(before, after);
            before = after;
            index
        };
        if all {
            tracer.scope("phase/ingest", |t| self.ingest(&mut sample, t))?;
            sample.host.ingest = step(self, tracer);
        }
        let (serving, engine) = tracer.scope("phase/setup", |t| self.setup(&mut sample, t))?;
        sample.host.setup = step(self, tracer);

        // ---- query: one closed-loop client, B queries per request -------
        tracer.scope("phase/query", |tracer| {
            let (response, seconds) = tracer.timed("engine/run", || engine.run(request));
            self.count_queries(inputs.sizes.batch, &response.metrics);
            sample.query_qps = response.metrics.queries_executed as f64 / seconds;
            sample.ipt = response.metrics.inter_partition_probability();
            sample.metrics = response.metrics;
            if inputs.name == "scan" && response.matches_limited() {
                self.mismatch(round, "scan response was cut short by the match limit");
            }
        });
        sample.host.query = step(self, tracer);

        // What a from-scratch engine answers for this request: the measured
        // engine's own answer, or on `churn` that of a rebuild from the
        // final graph.
        let mut reference = sample.metrics;
        if gate {
            tracer.scope("phase/gate", |_| {
                reference = self.gate_serving(round, &serving, engine, &mut sample);
            });
        } else {
            drop(engine);
        }
        drop(serving);

        if all {
            if gate {
                // The gate took a while: read the host's speed afresh.
                step(self, tracer);
            }
            tracer.scope("phase/durable", |t| {
                self.durable(dir, &mut sample, t, &mut step)
            })?;
            tracer.scope("phase/recover", |t| {
                self.recover(round, gate, dir, &reference, &mut sample, t)
            })?;
            sample.host.recover = step(self, tracer);
        }
        Ok(sample)
    }

    /// In-memory session over the full stream.
    fn ingest(&mut self, sample: &mut RoundSample, tracer: &mut Tracer) -> Result<(), String> {
        let inputs = self.inputs;
        let (session, _) = tracer.timed("session/build", || self.builder(None).build());
        let mut session = session.map_err(|e| fail("build", e))?;
        self.ops.attempted += inputs.chunks();
        let (partitioning, seconds) = tracer.timed("session/ingest_stream", || {
            session.ingest_stream(&inputs.full_stream)?;
            // Placement is not done until the window is flushed.
            session.into_partitioning()
        });
        let partitioning = partitioning.map_err(|e| {
            self.ops.failed += 1;
            fail("ingest_stream", e)
        })?;
        sample.ingest_eps = inputs.full_stream.len() as f64 / seconds;
        sample.imbalance = tracer.scope("quality/imbalance", |_| {
            layers::imbalance(inputs.final_graph(), &partitioning)
        });
        Ok(())
    }

    /// What a user pays before the first query: build the session (mining,
    /// partitioner construction), `serve` (window flush, plan compile, store
    /// build) and stand the engine up (CSR freeze). Ingesting the stream in
    /// between is not set-up and is not in `setup_s`.
    fn setup(
        &mut self,
        sample: &mut RoundSample,
        tracer: &mut Tracer,
    ) -> Result<(Serving, Engine), String> {
        let inputs = self.inputs;
        let (session, build_s) = tracer.timed("session/build", || self.builder(None).build());
        let mut session = session.map_err(|e| fail("build", e))?;
        self.ops.attempted += inputs.serve_stream.len().div_ceil(CHUNK) as u64;
        let (ingested, _) = tracer.timed("session/ingest_stream", || {
            session.ingest_stream(&inputs.serve_stream)
        });
        ingested.map_err(|e| {
            self.ops.failed += 1;
            fail("ingest_stream", e)
        })?;
        let graph = inputs.serve_graph.clone();
        let (serving, serve_s) = tracer.timed("session/serve", || session.serve(graph));
        let serving = serving.map_err(|e| fail("serve", e))?;
        let (engine, engine_s) = if inputs.name == "churn" {
            let (adaptive, seconds) = tracer.timed("serving/adaptive", || {
                serving.adaptive(WORKERS, AdaptConfig::default())
            });
            let mut adaptive = adaptive.map_err(|e| fail("adaptive", e))?;
            // The dissolve stream is a write, not set-up; the queries then
            // run on the tombstoned, uncompacted epoch it leaves.
            tracer.scope("adaptive/apply_mutations", |_| {
                adaptive.apply_mutations(&inputs.dissolve)
            });
            (Engine::Adaptive(Box::new(adaptive)), seconds)
        } else {
            let (sharded, seconds) =
                tracer.timed("serving/sharded", || serving.sharded(inputs.workers()));
            (Engine::Sharded(sharded), seconds)
        };
        sample.setup_s = build_s + serve_s + engine_s;
        Ok((serving, engine))
    }

    /// Durable session over the full stream, then one checkpoint.
    fn durable(
        &mut self,
        dir: &Path,
        sample: &mut RoundSample,
        tracer: &mut Tracer,
        step: &mut impl FnMut(&mut Self, &mut Tracer) -> f64,
    ) -> Result<(), String> {
        let inputs = self.inputs;
        let (session, _) =
            tracer.timed("session/build_durable", || self.builder(Some(dir)).build());
        let mut session = session.map_err(|e| fail("durable build", e))?;
        self.ops.attempted += inputs.chunks();
        let (ingested, seconds) = tracer.timed("session/ingest_stream_durable", || {
            session.ingest_stream(&inputs.full_stream)
        });
        ingested.map_err(|e| {
            self.ops.failed += 1;
            fail("durable ingest_stream", e)
        })?;
        sample.durable_eps = inputs.full_stream.len() as f64 / seconds;
        sample.host.durable = step(self, tracer);

        self.ops.attempted += 1;
        let (synced, seconds) = tracer.timed("session/checkpoint", || {
            session.checkpoint()?;
            session.sync_durability(SYNC_TIMEOUT)
        });
        synced.map_err(|e| {
            self.ops.failed += 1;
            fail("checkpoint", e)
        })?;
        sample.checkpoint_s = seconds;
        sample.host.checkpoint = step(self, tracer);
        sample.wal_records = session.wal_records().unwrap_or(0);
        sample.disk_bytes = dir_bytes(dir);
        Ok(())
    }

    /// Restart from only what is under the durability root.
    fn recover(
        &mut self,
        round: u64,
        gate: bool,
        dir: &Path,
        reference: &ExecutionMetrics,
        sample: &mut RoundSample,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let inputs = self.inputs;
        self.ops.attempted += 1;
        let (recovered, seconds) =
            tracer.timed("session/recover", || self.builder(Some(dir)).recover());
        let recovered = recovered.map_err(|e| {
            self.ops.failed += 1;
            fail("recover", e)
        })?;
        sample.recover_s = seconds;
        for (who, records) in [
            ("recovery replayed", recovered.report().wal_records),
            ("the session acknowledged", sample.wal_records),
        ] {
            if records != inputs.chunks() {
                self.mismatch(
                    round,
                    format!(
                        "{who} {records} WAL records, {} chunks were appended",
                        inputs.chunks()
                    ),
                );
            }
        }
        if gate {
            tracer.scope("phase/gate", |_| {
                // A checkpoint holds the partitioner's snapshot: the last
                // window of vertices is still unplaced in it, so remote-hop
                // counts may differ from a finished session's. What was
                // searched and found may not, and the recovered engines must
                // agree with each other exactly.
                let request = inputs.request(round);
                let sharded = recovered.sharded(WORKERS).run(request).metrics;
                let sequential = recovered.serving().run(request).metrics;
                self.count_queries(inputs.sizes.batch, &sharded);
                self.count_queries(inputs.sizes.batch, &sequential);
                if sharded != sequential {
                    self.mismatch(
                        round,
                        format!(
                            "recovered sharded({WORKERS}) answered {sharded:?}, \
                             recovered sequential {sequential:?}"
                        ),
                    );
                }
                let found = |m: &ExecutionMetrics| {
                    (m.queries_executed, m.matches_found, m.total_traversals)
                };
                if found(&sharded) != found(reference) {
                    self.mismatch(
                        round,
                        format!("recovered engine answered {sharded:?}, expected {reference:?}"),
                    );
                }
            });
        }
        Ok(())
    }

    /// The serving half of the gate. Returns the metrics a recovered engine
    /// must reproduce for the round's request.
    fn gate_serving(
        &mut self,
        round: u64,
        serving: &Serving,
        engine: Engine,
        sample: &mut RoundSample,
    ) -> ExecutionMetrics {
        let inputs = self.inputs;
        let request = inputs.request(round);
        let batch = inputs.sizes.batch;
        match engine {
            Engine::Sharded(sharded) => {
                let sequential = serving.run(request).metrics;
                self.count_queries(batch, &sequential);
                let mut answers = vec![(inputs.workers(), sample.metrics)];
                if inputs.workers() != WORKERS {
                    let two = serving.sharded(WORKERS).run(request).metrics;
                    self.count_queries(batch, &two);
                    answers.push((WORKERS, two));
                }
                for (workers, answer) in answers {
                    if sequential != answer {
                        self.mismatch(
                            round,
                            format!(
                                "sequential engine answered {sequential:?}, sharded({workers}) {answer:?}"
                            ),
                        );
                    }
                }
                if inputs.name == "scan" {
                    self.gate_scan(round, &sharded, sample);
                }
                sample.metrics
            }
            Engine::Adaptive(mut adaptive) => {
                // Before the dissolve stream: sequential ≡ sharded.
                let sequential = serving.run(request).metrics;
                let sharded = serving.sharded(WORKERS).run(request).metrics;
                self.count_queries(batch, &sequential);
                self.count_queries(batch, &sharded);
                if sequential != sharded {
                    self.mismatch(
                        round,
                        format!("sequential engine answered {sequential:?}, sharded({WORKERS}) {sharded:?}"),
                    );
                }
                // Tombstoned ≡ compacted ≡ rebuilt from the final graph.
                let every = full_enumeration(inputs);
                let before = serving.run(every).metrics.matches_found;
                let tombstoned = adaptive.run(every).metrics.matches_found;
                adaptive.compact_now(0.0);
                let compacted = adaptive.run(every).metrics.matches_found;
                let compacted_answer = adaptive.run(request).metrics;
                self.count_queries(batch, &compacted_answer);
                if compacted_answer != sample.metrics {
                    self.mismatch(
                        round,
                        format!(
                            "compacted epoch answered {compacted_answer:?}, tombstoned {:?}",
                            sample.metrics
                        ),
                    );
                }
                let rebuilt = self.rebuilt();
                let (rebuilt_every, rebuilt_answer) = match rebuilt {
                    Ok(engine) => (
                        engine.run(every).metrics.matches_found,
                        engine.run(request).metrics,
                    ),
                    Err(error) => {
                        self.mismatch(
                            round,
                            format!("rebuild from the final graph failed: {error}"),
                        );
                        return sample.metrics;
                    }
                };
                self.count_queries(batch, &rebuilt_answer);
                if tombstoned != compacted || tombstoned != rebuilt_every {
                    self.mismatch(
                        round,
                        format!(
                            "abc matches: tombstoned {tombstoned}, compacted {compacted}, rebuilt {rebuilt_every}"
                        ),
                    );
                }
                // Every dissolved or relabelled instance takes its planted
                // embedding with it (and any embedding it shared with the
                // background, hence at least).
                let retired = inputs.dissolved_instances + inputs.relabelled_instances;
                if before < tombstoned + retired {
                    self.mismatch(
                        round,
                        format!("abc matches fell {before} -> {tombstoned}, {retired} instances were retired"),
                    );
                }
                rebuilt_answer
            }
        }
    }

    /// `churn`: a from-scratch session over the whole stream, serving the
    /// final graph — what the recovered engine must equal.
    fn rebuilt(&self) -> Result<ShardedServing, SessionError> {
        let inputs = self.inputs;
        // Unobserved: the run's telemetry covers the lifecycle, not the gate.
        let mut session = inputs.builder().build()?;
        session.ingest_stream(&inputs.full_stream)?;
        Ok(session
            .serve(inputs.final_graph().clone())?
            .sharded(WORKERS))
    }

    /// `scan` finds at least the planted instances, and the round's match
    /// count is the sum of its scheduled queries' full counts.
    fn gate_scan(&mut self, round: u64, sharded: &ShardedServing, sample: &mut RoundSample) {
        let inputs = self.inputs;
        let per_query: Vec<usize> = inputs
            .workload
            .queries()
            .iter()
            .map(|q| {
                sharded
                    .run(QueryRequest::query(q.id()).with_match_limit(SCAN_MATCH_LIMIT))
                    .metrics
                    .matches_found
            })
            .collect();
        for (motif, &planted) in inputs.planted.iter().enumerate() {
            if per_query[motif] < planted {
                self.mismatch(
                    round,
                    format!(
                        "scan found {} matches of motif {motif}, {planted} were planted",
                        per_query[motif]
                    ),
                );
            }
        }
        let expected: usize = layers::scheduled_queries(&inputs.workload, &inputs.request(round))
            .into_iter()
            .map(|q| per_query[q])
            .sum();
        if expected != sample.metrics.matches_found {
            self.mismatch(
                round,
                format!(
                    "scan found {} matches, its scheduled queries have {expected}",
                    sample.metrics.matches_found
                ),
            );
        }
        sample.matches_per_query = per_query;
    }
}

/// The one `churn` query, over every root and past any match limit.
fn full_enumeration(inputs: &Inputs) -> QueryRequest {
    QueryRequest::query(inputs.workload.queries()[0].id())
        .with_mode(QueryMode::FullEnumeration)
        .with_match_limit(SCAN_MATCH_LIMIT)
}

/// Bytes of every regular file under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let mut total = 0;
    let mut pending: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => pending.push(entry.path()),
                Ok(meta) => total += meta.len(),
                Err(_) => {}
            }
        }
    }
    total
}
