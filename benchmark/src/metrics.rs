//! The metric catalogue: every name `BENCHMARK.json` lists, with its unit,
//! direction and (for end-to-end metrics) regression bound. The self-test
//! checks the two agree, so the file and the program cannot drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median a metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
    /// Sampled once per round, at the reference host's speed, and reported
    /// as the median over the rounds, with n and the quartiles beside it.
    pub timed: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    timed: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        timed,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        timed: false,
    }
}

use Better::{Higher, Lower};

/// What a user of the stack sees. A timed metric may worsen by 25 % before
/// a change counts as a regression: ten runs of one revision spread by up to
/// 8 % on a busy host even at the reference host's speed (README, *Bounds*),
/// and a bound has to stand three times clear of that. The data set is
/// fixed, so `ipt`, `imbalance` and `disk_bytes_per_element` read the same to
/// the last digit on every run of one revision and any movement is the
/// program's: 0.5 %.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25, true),
    e2e("ingest_eps", "elements/s", Higher, 0.25, true),
    e2e("durable_eps", "elements/s", Higher, 0.25, true),
    e2e("ipt", "probability", Lower, 0.005, false),
    e2e("imbalance", "ratio", Lower, 0.005, false),
    e2e("query_qps", "queries/s", Higher, 0.25, true),
    e2e("checkpoint_s", "s", Lower, 0.25, true),
    e2e("recover_s", "s", Lower, 0.25, true),
    e2e("disk_bytes_per_element", "bytes", Lower, 0.005, false),
    e2e("peak_rss_mb", "MiB", Lower, 0.05, false),
];

/// Single layers, from the traced run only. Zero means the layer is not
/// exercised on that workload (`adapt.*` off `churn`, `load.*` off `point`
/// and `scan`).
pub const PER_LAYER: [MetricDef; 59] = [
    layer("graph.generate_ms", "ms", Lower),
    layer("graph.stream_build_ms", "ms", Lower),
    layer("motif.mine_us", "us", Lower),
    layer("motif.tpstry_nodes", "count", Lower),
    layer("partition.hash_eps", "elements/s", Higher),
    layer("partition.ldg_eps", "elements/s", Higher),
    layer("partition.fennel_eps", "elements/s", Higher),
    layer("partition.finish_ms", "ms", Lower),
    layer("partition.hash_ipt", "probability", Lower),
    layer("core.loom_eps", "elements/s", Higher),
    layer("core.session_overhead_frac", "ratio", Lower),
    layer("core.batch_p99_us", "us", Lower),
    layer("core.signatures_computed", "count", Lower),
    layer("core.motif_matches_found", "count", Higher),
    layer("core.verifications", "count", Lower),
    layer("core.false_positive_matches", "count", Lower),
    layer("core.cluster_vertex_frac", "ratio", Higher),
    layer("sim.store_build_ms", "ms", Lower),
    layer("sim.plan_compile_us", "us", Lower),
    layer("sim.seq_qps", "queries/s", Higher),
    layer("sim.traversals_per_query", "count", Lower),
    layer("sim.matches_per_query", "count", Higher),
    layer("sim.ns_per_traversal", "ns", Lower),
    layer("sim.seq_single_p50_us", "us", Lower),
    layer("sim.seq_single_p99_us", "us", Lower),
    layer("sim.collect_qps", "queries/s", Higher),
    layer("serve.freeze_ms", "ms", Lower),
    layer("serve.w1_qps", "queries/s", Higher),
    layer("serve.dispatch_us_per_query", "us", Lower),
    layer("serve.single_p50_us", "us", Lower),
    layer("serve.single_p99_us", "us", Lower),
    layer("serve.peak_queue_depth", "count", Lower),
    layer("serve.remote_hop_fraction", "ratio", Lower),
    layer("serve.apply_mutations_ms", "ms", Lower),
    layer("serve.compact_ms", "ms", Lower),
    layer("serve.tombstone_fraction", "ratio", Lower),
    layer("serve.compacted_qps", "queries/s", Higher),
    layer("store.wal_append_p50_us", "us", Lower),
    layer("store.wal_append_p99_us", "us", Lower),
    layer("store.wal_bytes_per_element", "bytes", Lower),
    layer("store.fsyncs", "count", Lower),
    layer("store.checkpoint_write_ms", "ms", Lower),
    layer("store.checkpoint_bytes", "bytes", Lower),
    layer("store.checkpoint_load_ms", "ms", Lower),
    layer("store.wal_replay_eps", "elements/s", Higher),
    layer("adapt.apply_mutations_ms", "ms", Lower),
    layer("adapt.compact_now_ms", "ms", Lower),
    layer("load.open_p50_us", "us", Lower),
    layer("load.open_p99_us", "us", Lower),
    layer("load.shed_frac", "ratio", Lower),
    layer("obs.ingest.wal_append_us", "us", Lower),
    layer("obs.ingest.partition_us", "us", Lower),
    layer("obs.ingest.apply_delete_us", "us", Lower),
    layer("obs.store.fsync_us", "us", Lower),
    layer("obs.store.checkpoint_write_us", "us", Lower),
    layer("obs.serve.execute_us", "us", Lower),
    layer("obs.serve.queue_wait_p99_us", "us", Lower),
    layer("obs.stage_sum_frac", "ratio", Higher),
    layer("obs.trace_overhead_frac", "ratio", Lower),
];
