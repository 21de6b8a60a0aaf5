//! Per-layer probes: the one file that calls crate APIs below the façade.
//!
//! Each probe is a timed call into a public function of one crate, or a
//! count read from one of its public reports, recorded under a span named
//! `<crate>/<call>`. They run only in the traced run, after its rounds, so
//! nothing here can perturb an end-to-end number. Layers are the crates.

use crate::inputs::{Inputs, CHUNK, K, WORKERS};
use crate::round::dir_bytes;
use crate::stats::quantile;
use crate::trace::Tracer;
use loom::loom_adapt::AdaptConfig;
use loom::loom_core::{workload_registry, LoomPartitioner};
use loom::loom_graph::LabelledGraph;
use loom::loom_load::{ArrivalProcess, LoadConfig, RampSchedule};
use loom::loom_motif::mining::MotifMiner;
use loom::loom_motif::workload::Workload;
use loom::loom_obs::{stage, TelemetryDelta};
use loom::loom_partition::fennel::FennelConfig;
use loom::loom_partition::hash::HashConfig;
use loom::loom_partition::ldg::LdgConfig;
use loom::loom_partition::metrics::evaluate;
use loom::loom_partition::spec::PartitionerSpec;
use loom::loom_partition::{Partitioner, Partitioning};
use loom::loom_serve::ShardedStore;
use loom::loom_sim::engine::{request_schedule, QueryEngine, QueryRequest};
use loom::loom_sim::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlanner};
use loom::loom_sim::PartitionedStore;
use loom::loom_store::checkpoint::{load_checkpoint, write_checkpoint, CHECKPOINT_DIR};
use loom::loom_store::Wal;
use loom::session::{Serving, Session, ShardedServing};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// Passes each partitioner probe makes over the stream; the fastest counts
/// (on a shared host interference only ever adds time).
const PASSES: usize = 3;
/// Longest a latency probe keeps issuing single-query requests (at full
/// scale; the self-test's smaller inputs get proportionally less).
const SINGLES_BUDGET: Duration = Duration::from_millis(1500);
/// Most single-query requests a latency probe issues.
const SINGLES_MAX: usize = 2000;
/// Length of the one open-loop step at full scale.
const OPEN_LOOP_STEP: Duration = Duration::from_secs(5);

/// `max_i |V_i| / (n / k)` of a final partitioning.
pub fn imbalance(graph: &LabelledGraph, partitioning: &Partitioning) -> f64 {
    evaluate(graph, partitioning).imbalance
}

/// The workload query index of every sample `request` schedules.
pub fn scheduled_queries(workload: &Workload, request: &QueryRequest) -> Vec<usize> {
    request_schedule(workload, request)
        .into_iter()
        .map(|(query, _)| query)
        .collect()
}

/// What the traced rounds hand to the probes.
pub struct RoundFacts<'a> {
    /// The traced rounds' own end-to-end readings.
    pub ingest_eps: f64,
    pub query_qps: f64,
    /// `query_qps` of the interleaved rounds run without telemetry or spans.
    pub untraced_query_qps: f64,
    /// Traced rounds completed (the telemetry below covers all of them).
    pub rounds: usize,
    /// Everything the sessions' `Telemetry` recorded over those rounds.
    pub telemetry: &'a TelemetryDelta,
    /// Wall seconds of every telemetered `ingest_stream` call.
    pub ingest_wall_s: f64,
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Run every probe that applies to `inputs`' workload. Metrics of layers
/// the workload does not exercise stay at zero.
pub fn probe(
    inputs: &Inputs,
    scratch: &Path,
    facts: &RoundFacts<'_>,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let mut values: Values = crate::metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, 0.0))
        .collect();
    tracer.scope("phase/layers", |tracer| {
        values.insert("graph.generate_ms", inputs.generate_ms);
        values.insert("graph.stream_build_ms", inputs.stream_build_ms);
        let partitioning = partitioners(inputs, facts, tracer, &mut values)?;
        let serving = engines(inputs, &partitioning, tracer, &mut values)?;
        if inputs.name == "churn" {
            mutations(inputs, &serving, &partitioning, tracer, &mut values)?;
        }
        storage(inputs, scratch, &partitioning, tracer, &mut values)?;
        if matches!(inputs.name, "point" | "scan") {
            open_loop(
                inputs,
                &serving.sharded(inputs.workers()),
                facts,
                tracer,
                &mut values,
            )?;
        }
        observed(facts, &mut values);
        Ok(values)
    })
}

/// loom-motif, loom-partition, loom-core: mining and the four partitioners
/// over the same stream. Returns LOOM's final partitioning of the serve
/// stream, which the store probes below are built on.
fn partitioners(
    inputs: &Inputs,
    facts: &RoundFacts<'_>,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Partitioning, String> {
    let (tpstry, mine_s) = tracer.timed("loom-motif/mine", || {
        MotifMiner::default().mine(&inputs.workload)
    });
    let tpstry = tpstry.map_err(|e| format!("mine: {e}"))?;
    values.insert("motif.mine_us", mine_s * 1e6);
    values.insert("motif.tpstry_nodes", tpstry.node_count() as f64);

    let vertices = inputs.serve_graph.vertex_count();
    let edges = inputs.serve_graph.edge_count();
    let registry = workload_registry(&tpstry);
    let elements = inputs.full_stream.elements();
    let hash = PartitionerSpec::Hash(HashConfig::new(K, vertices.div_ceil(K as usize)));
    let baselines = [
        ("partition.hash_eps", "loom-partition/hash", hash),
        (
            "partition.ldg_eps",
            "loom-partition/ldg",
            PartitionerSpec::Ldg(LdgConfig::new(K, vertices)),
        ),
        (
            "partition.fennel_eps",
            "loom-partition/fennel",
            PartitionerSpec::Fennel(FennelConfig::new(K, vertices, edges)),
        ),
    ];
    for (metric, span, spec) in baselines {
        let mut best = f64::INFINITY;
        for _ in 0..PASSES {
            let mut partitioner = registry.build(&spec).map_err(|e| format!("{span}: {e}"))?;
            let (done, s) = tracer.timed(span, || -> Result<_, _> {
                for chunk in elements.chunks(CHUNK) {
                    partitioner.ingest_batch(chunk)?;
                }
                partitioner.finish()
            });
            done.map_err(|e| format!("{span}: {e}"))?;
            best = best.min(s);
        }
        values.insert(metric, elements.len() as f64 / best);
    }

    // The bare LOOM partitioner, no session around it. The concrete type is
    // what the registry builds; it is named here to read `loom_stats()`.
    let config = inputs.loom_config();
    let mut fastest: Option<(f64, f64, Vec<f64>, LoomPartitioner)> = None;
    for _ in 0..PASSES {
        let mut loom = LoomPartitioner::new(config, &tpstry).map_err(|e| format!("loom: {e}"))?;
        let mut batch_us = Vec::with_capacity(elements.len() / CHUNK + 1);
        let (ingested, ingest_s) = tracer.timed("loom-core/ingest_batch", || {
            for chunk in elements.chunks(CHUNK) {
                let started = Instant::now();
                loom.ingest_batch(chunk)?;
                batch_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            Ok::<_, loom::loom_partition::PartitionError>(())
        });
        ingested.map_err(|e| format!("loom ingest: {e}"))?;
        let (finished, finish_s) = tracer.timed("loom-partition/finish", || loom.finish());
        finished.map_err(|e| format!("loom finish: {e}"))?;
        if fastest
            .as_ref()
            .is_none_or(|f| ingest_s + finish_s < f.0 + f.1)
        {
            fastest = Some((ingest_s, finish_s, batch_us, loom));
        }
    }
    let (ingest_s, finish_s, batch_us, loom) = fastest.expect("at least one pass");
    let loom_eps = elements.len() as f64 / (ingest_s + finish_s);
    values.insert("partition.finish_ms", finish_s * 1e3);
    values.insert("core.loom_eps", loom_eps);
    values.insert(
        "core.session_overhead_frac",
        1.0 - facts.ingest_eps / loom_eps,
    );
    values.insert("core.batch_p99_us", quantile(&sorted(batch_us), 0.99));
    let stats = loom.loom_stats();
    values.insert("core.signatures_computed", stats.signatures_computed as f64);
    values.insert("core.motif_matches_found", stats.motif_matches_found as f64);
    values.insert("core.verifications", stats.verifications as f64);
    values.insert(
        "core.false_positive_matches",
        stats.false_positive_matches as f64,
    );
    values.insert("core.cluster_vertex_frac", stats.cluster_fraction());

    // LOOM must beat hash placement on the paper's metric: the same request
    // through the same façade, only the spec differs.
    let hash_ipt = tracer.scope("loom-partition/hash_ipt", |_| -> Result<f64, String> {
        let mut session = Session::builder(hash)
            .workload(inputs.workload.clone())
            .chunk_size(CHUNK)
            .query_mode(inputs.mode)
            .build()
            .map_err(|e| format!("hash session: {e}"))?;
        session
            .ingest_stream(&inputs.serve_stream)
            .map_err(|e| format!("hash ingest: {e}"))?;
        let serving = session
            .serve(inputs.serve_graph.clone())
            .map_err(|e| format!("hash serve: {e}"))?;
        let request = inputs.request(0);
        let metrics = if inputs.name == "churn" {
            let mut adaptive = serving
                .adaptive(WORKERS, AdaptConfig::default())
                .map_err(|e| format!("hash adaptive: {e}"))?;
            adaptive.apply_mutations(&inputs.dissolve);
            adaptive.run(request).metrics
        } else {
            serving.run(request).metrics
        };
        Ok(metrics.inter_partition_probability())
    })?;
    values.insert("partition.hash_ipt", hash_ipt);

    // The store probes serve the graph as it stands after the serve stream.
    let mut partitioner = registry
        .build(&PartitionerSpec::Loom(config))
        .map_err(|e| format!("loom: {e}"))?;
    for chunk in inputs.serve_stream.elements().chunks(CHUNK) {
        partitioner
            .ingest_batch(chunk)
            .map_err(|e| format!("loom ingest: {e}"))?;
    }
    partitioner
        .finish()
        .map_err(|e| format!("loom finish: {e}"))
}

/// loom-sim and loom-serve: store builds, plan compilation, the sequential
/// baseline and the sharded engine's dispatch cost.
fn engines(
    inputs: &Inputs,
    partitioning: &Partitioning,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<Serving, String> {
    let graph = &inputs.serve_graph;
    let (graph_copy, partitioning_copy) = (graph.clone(), partitioning.clone());
    let (store, s) = tracer.timed("loom-sim/store_build", || {
        PartitionedStore::new(graph_copy, partitioning_copy)
    });
    drop(store);
    values.insert("sim.store_build_ms", s * 1e3);
    let (plans, s) = tracer.timed("loom-sim/plan_compile", || {
        let stats = GraphStatistics::from_graph(graph);
        PlanCache::compile(
            &QueryPlanner::new(PlanStrategy::default()),
            &inputs.workload,
            &stats,
        )
    });
    drop(plans);
    values.insert("sim.plan_compile_us", s * 1e6);
    let (frozen, s) = tracer.timed("loom-serve/freeze", || {
        ShardedStore::from_parts(graph, partitioning)
    });
    drop(frozen);
    values.insert("serve.freeze_ms", s * 1e3);

    // One un-observed serving stack for the engine probes.
    let mut session = inputs
        .builder()
        .build()
        .map_err(|e| format!("probe session: {e}"))?;
    session
        .ingest_stream(&inputs.serve_stream)
        .map_err(|e| format!("probe ingest: {e}"))?;
    let serving = session
        .serve(graph.clone())
        .map_err(|e| format!("probe serve: {e}"))?;
    let request = inputs.request(0);
    let batch = inputs.sizes.batch as f64;

    let (response, s) = tracer.timed("loom-sim/run", || serving.run(request));
    let seq = response.metrics;
    let seq_qps = seq.queries_executed as f64 / s;
    values.insert("sim.seq_qps", seq_qps);
    values.insert(
        "sim.traversals_per_query",
        seq.total_traversals as f64 / batch,
    );
    values.insert("sim.matches_per_query", seq.matches_found as f64 / batch);
    values.insert(
        "sim.ns_per_traversal",
        s * 1e9 / seq.total_traversals.max(1) as f64,
    );
    let singles = tracer.scope("loom-sim/run_single", |_| {
        single_request_us(inputs, &serving)
    });
    values.insert("sim.seq_single_p50_us", quantile(&singles, 0.5));
    values.insert("sim.seq_single_p99_us", quantile(&singles, 0.99));
    let (collected, s) = tracer.timed("loom-sim/run_collect", || {
        let response = serving.run(request.collect_matches(true));
        let executed = response.metrics.queries_executed;
        (executed, response.into_cursor().count())
    });
    values.insert("sim.collect_qps", collected.0 as f64 / s);

    let one = serving.sharded(1);
    let (response, s) = tracer.timed("loom-serve/run_w1", || one.run(request));
    let w1_qps = response.metrics.queries_executed as f64 / s;
    values.insert("serve.w1_qps", w1_qps);
    values.insert(
        "serve.dispatch_us_per_query",
        (1.0 / w1_qps - 1.0 / seq_qps) * 1e6,
    );
    let sharded = serving.sharded(WORKERS);
    let singles = tracer.scope("loom-serve/run_single", |_| {
        single_request_us(inputs, &sharded)
    });
    values.insert("serve.single_p50_us", quantile(&singles, 0.5));
    values.insert("serve.single_p99_us", quantile(&singles, 0.99));
    let (report, _) = tracer.scope("loom-serve/serve_request", |_| {
        sharded.serve_request(request)
    });
    let depth = report.shards.iter().map(|s| s.max_queue_depth).max();
    values.insert("serve.peak_queue_depth", depth.unwrap_or(0) as f64);
    values.insert("serve.remote_hop_fraction", report.remote_hop_fraction());
    Ok(serving)
}

/// Wall time in µs of single-query (B = 1) requests, ascending.
fn single_request_us(inputs: &Inputs, engine: &dyn QueryEngine) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    let budget = SINGLES_BUDGET / inputs.scale as u32;
    while samples.len() < SINGLES_MAX && (samples.len() < 20 || started.elapsed() < budget) {
        let request = inputs
            .request(0)
            .with_samples(1)
            .with_seed(inputs.seed + samples.len() as u64);
        let issued = Instant::now();
        std::hint::black_box(engine.run(request));
        samples.push(issued.elapsed().as_secs_f64() * 1e6);
    }
    sorted(samples)
}

/// `churn` only — loom-serve and loom-adapt on the dissolve stream:
/// tombstoning, compaction, and serving the compacted epoch.
fn mutations(
    inputs: &Inputs,
    serving: &Serving,
    partitioning: &Partitioning,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let frozen = ShardedStore::from_parts(&inputs.serve_graph, partitioning);
    let (mutated, s) = tracer.timed("loom-serve/apply_mutations", || {
        frozen.apply_mutations(&inputs.dissolve)
    });
    values.insert("serve.apply_mutations_ms", s * 1e3);
    values.insert(
        "serve.tombstone_fraction",
        mutated.store.tombstoned_vertices() as f64 / frozen.vertex_count().max(1) as f64,
    );
    let (compacted, s) = tracer.timed("loom-serve/compact", || mutated.store.compact(0.0));
    drop(compacted);
    values.insert("serve.compact_ms", s * 1e3);

    let mut adaptive = serving
        .adaptive(WORKERS, AdaptConfig::default())
        .map_err(|e| format!("adaptive: {e}"))?;
    let (_, s) = tracer.timed("loom-adapt/apply_mutations", || {
        adaptive.apply_mutations(&inputs.dissolve)
    });
    values.insert("adapt.apply_mutations_ms", s * 1e3);
    let (_, s) = tracer.timed("loom-adapt/compact_now", || adaptive.compact_now(0.0));
    values.insert("adapt.compact_now_ms", s * 1e3);
    let (response, s) = tracer.timed("loom-adapt/run_compacted", || {
        adaptive.run(inputs.request(0))
    });
    values.insert(
        "serve.compacted_qps",
        response.metrics.queries_executed as f64 / s,
    );
    Ok(())
}

/// loom-store: the log and the checkpoint, each on its own.
fn storage(
    inputs: &Inputs,
    scratch: &Path,
    partitioning: &Partitioning,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let root = scratch.join("layers-store");
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let outcome = (|| -> Result<(), String> {
        let wal_path = root.join("wal.log");
        let elements = inputs.full_stream.elements();
        let mut wal = Wal::create(&wal_path).map_err(|e| format!("wal: {e}"))?;
        let mut append_us = Vec::with_capacity(elements.len() / CHUNK + 1);
        tracer.scope("loom-store/wal_append", |_| -> Result<(), String> {
            for chunk in elements.chunks(CHUNK) {
                let started = Instant::now();
                wal.append(chunk).map_err(|e| format!("wal append: {e}"))?;
                append_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            Ok(())
        })?;
        let records = wal.records();
        drop(wal);
        let append_us = sorted(append_us);
        values.insert("store.wal_append_p50_us", quantile(&append_us, 0.5));
        values.insert("store.wal_append_p99_us", quantile(&append_us, 0.99));
        let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
        values.insert(
            "store.wal_bytes_per_element",
            wal_bytes as f64 / elements.len() as f64,
        );
        let (replay, s) = tracer.timed("loom-store/wal_replay", || Wal::replay(&wal_path));
        let replay = replay.map_err(|e| format!("wal replay: {e}"))?;
        if replay.records != records {
            return Err(format!(
                "wal replayed {} records, {records} were appended",
                replay.records
            ));
        }
        values.insert("store.wal_replay_eps", elements.len() as f64 / s);

        let store = ShardedStore::from_parts(&inputs.serve_graph, partitioning).with_epoch(1);
        let (meta, s) = tracer.timed("loom-store/write_checkpoint", || {
            write_checkpoint(&root, &store, records, "loom")
        });
        let meta = meta.map_err(|e| format!("write_checkpoint: {e}"))?;
        values.insert("store.checkpoint_write_ms", s * 1e3);
        let checkpoints = root.join(CHECKPOINT_DIR);
        values.insert("store.checkpoint_bytes", dir_bytes(&checkpoints) as f64);
        let dir = checkpoints.join(format!("{:010}", meta.epoch_seq));
        let (loaded, s) = tracer.timed("loom-store/load_checkpoint", || load_checkpoint(&dir));
        loaded.map_err(|e| format!("load_checkpoint: {e}"))?;
        values.insert("store.checkpoint_load_ms", s * 1e3);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

/// loom-load: one fixed-rate open-loop step at half the closed-loop rate,
/// Poisson arrivals, real work (no service hold), through the crate's own
/// driver. Sojourn counts from the scheduled arrival. The driver issues the
/// request itself, at the engine's default match limit.
fn open_loop(
    inputs: &Inputs,
    sharded: &ShardedServing,
    facts: &RoundFacts<'_>,
    tracer: &mut Tracer,
    values: &mut Values,
) -> Result<(), String> {
    let rate = (0.5 * facts.query_qps).max(1.0);
    let step = OPEN_LOOP_STEP / inputs.scale as u32;
    let config = LoadConfig::new(RampSchedule::new(rate, 0.0, step, rate))
        .with_process(ArrivalProcess::Poisson)
        .with_seed(inputs.seed);
    let run = tracer
        .scope("loom-load/capacity", |_| sharded.capacity(&config))
        .map_err(|e| format!("capacity: {e}"))?;
    let step = run.steps.first().ok_or("capacity: the ramp has no step")?;
    values.insert("load.open_p50_us", step.p50_us as f64);
    values.insert("load.open_p99_us", step.p99_us as f64);
    values.insert(
        "load.shed_frac",
        (step.shed + step.rejected) as f64 / step.offered.max(1) as f64,
    );
    Ok(())
}

/// loom-obs: the program's own stage totals per traced round, whether they
/// add up to the wall time they cover, and what observing costs.
fn observed(facts: &RoundFacts<'_>, values: &mut Values) {
    let rounds = facts.rounds.max(1) as f64;
    let total_us = |name: &str| facts.telemetry.histogram_merged(name).sum as f64;
    let wal_append = total_us(stage::INGEST_WAL_APPEND);
    let partition = total_us(stage::INGEST_PARTITION);
    let apply_delete = total_us(stage::INGEST_APPLY_DELETE);
    values.insert("obs.ingest.wal_append_us", wal_append / rounds);
    values.insert("obs.ingest.partition_us", partition / rounds);
    values.insert("obs.ingest.apply_delete_us", apply_delete / rounds);
    values.insert("obs.store.fsync_us", total_us(stage::STORE_FSYNC) / rounds);
    values.insert(
        "obs.store.checkpoint_write_us",
        total_us(stage::STORE_CHECKPOINT_WRITE) / rounds,
    );
    values.insert(
        "obs.serve.execute_us",
        total_us(stage::SERVE_EXECUTE) / rounds,
    );
    values.insert(
        "obs.serve.queue_wait_p99_us",
        facts
            .telemetry
            .histogram_merged(stage::SERVE_QUEUE_WAIT)
            .quantile(0.99) as f64,
    );
    // The three ingest stages partition an `ingest_stream` call
    // (`store.fsync` nests inside `ingest.wal_append`).
    values.insert(
        "obs.stage_sum_frac",
        (wal_append + partition + apply_delete) / (facts.ingest_wall_s * 1e6),
    );
    values.insert(
        "obs.trace_overhead_frac",
        1.0 - facts.query_qps / facts.untraced_query_qps,
    );
    values.insert(
        "store.fsyncs",
        facts.telemetry.histogram_merged(stage::STORE_FSYNC).count as f64 / rounds,
    );
}
