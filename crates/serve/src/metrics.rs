//! Serving metrics: per-shard and aggregate reports.
//!
//! Latency figures come from the [`LatencyModel`](loom_sim::executor::LatencyModel)
//! the matcher already charges per traversal — the same cost model the rest
//! of `loom-sim` uses — so they are deterministic and include the simulated
//! network cost of remote hops. Throughput is reported both ways: the
//! **modelled** aggregate QPS (queries ÷ the makespan of the busiest shard
//! under the latency model — the simulated cluster's throughput, which is
//! what the paper's partitioning quality argument is about) and the raw
//! wall-clock QPS of this process for reference.

use loom_sim::executor::ExecutionMetrics;
use serde::{Deserialize, Serialize};

/// Per-shard serving metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardServeMetrics {
    /// Shard (worker) index.
    pub shard: u32,
    /// Queries this shard executed.
    pub queries: usize,
    /// Merged execution metrics over those queries.
    pub execution: ExecutionMetrics,
    /// Modelled busy time: the sum of per-query estimated latencies, µs.
    pub busy_us: f64,
    /// Median per-query modelled latency, µs.
    pub p50_latency_us: f64,
    /// 99th-percentile per-query modelled latency, µs.
    pub p99_latency_us: f64,
    /// Deepest the shard's work queue got (bounded by the configured
    /// capacity; hitting the bound means backpressure engaged).
    pub max_queue_depth: usize,
    /// 99th-percentile wall-clock wait of this shard's messages between
    /// enqueue and dequeue, µs — the queueing delay backpressure added on
    /// top of execution time.
    pub queue_wait_p99_us: f64,
    /// Requests routed to this shard but rejected at admission because the
    /// queue stayed full past the request deadline. Rejected requests still
    /// count in the aggregate (flagged `deadline_exceeded`, zero
    /// traversals); this counter says the *queue*, not the matcher, spent
    /// their budget.
    pub rejected: usize,
    /// Completed executions on this shard whose metrics came back flagged
    /// `deadline_exceeded` — the matcher's pre-flight short-circuit or a
    /// mid-run deadline unwind. Disjoint from `rejected` (those never reach
    /// a worker), so `rejected + deadline_expired` is the shard's full
    /// dropped-request count.
    pub deadline_expired: usize,
    /// The highest epoch sequence number this shard's queries were pinned to,
    /// or `None` for a shard that served nothing (an idle shard is thereby
    /// distinguishable from one genuinely pinned at epoch 0). Epoch sequences
    /// are monotonic across restarts — a recovered store resumes at its
    /// checkpointed `epoch_seq` — so recovered-vs-live runs are diffable by
    /// this number.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub epoch_seq: Option<u64>,
}

impl ShardServeMetrics {
    /// Modelled per-shard throughput: queries ÷ busy seconds (0 when idle).
    pub fn qps(&self) -> f64 {
        if self.busy_us <= 0.0 {
            0.0
        } else {
            self.queries as f64 / (self.busy_us / 1e6)
        }
    }

    /// Fraction of this shard's traversals that crossed partitions.
    pub fn remote_hop_fraction(&self) -> f64 {
        self.execution.inter_partition_probability()
    }
}

/// Per-run dropped-request accounting: how many of the run's requests were
/// rejected at admission or completed past their deadline. Open-loop
/// capacity steps assert against this ("≤ X% dropped") instead of scraping
/// per-shard counters or telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorBudget {
    /// Requests the run issued (admitted + rejected + shed).
    pub requests: usize,
    /// Requests rejected at admission (full queue, or shed by an open-loop
    /// driver as hopelessly late) — they never reached a worker.
    pub rejected: usize,
    /// Requests that reached a worker but completed flagged
    /// `deadline_exceeded` (pre-flight short-circuit or mid-run unwind).
    pub deadline_expired: usize,
}

impl ErrorBudget {
    /// Total requests that did not complete a full execution in time.
    pub fn dropped(&self) -> usize {
        self.rejected + self.deadline_expired
    }

    /// Dropped requests as a fraction of issued requests (0.0 when idle).
    pub fn dropped_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.requests as f64
        }
    }

    /// Whether the run stayed within a budget of `max_fraction` dropped.
    pub fn within(&self, max_fraction: f64) -> bool {
        self.dropped_fraction() <= max_fraction
    }
}

/// The aggregate report one serving run produces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-shard breakdown, indexed by worker shard.
    pub shards: Vec<ShardServeMetrics>,
    /// Execution metrics merged across every shard.
    pub aggregate: ExecutionMetrics,
    /// Total queries served.
    pub queries: usize,
    /// Modelled makespan: the busiest shard's busy time, µs. Shards run
    /// concurrently, so this is the simulated cluster's completion time.
    pub makespan_us: f64,
    /// Wall-clock duration of the run in this process, µs.
    pub wall_clock_us: f64,
    /// Median per-query modelled latency across all shards, µs.
    pub p50_latency_us: f64,
    /// 99th-percentile per-query modelled latency across all shards, µs.
    pub p99_latency_us: f64,
    /// Distinct epochs the run's queries were pinned to (a single-element
    /// list unless ingestion published new snapshots mid-run).
    pub epochs_observed: Vec<u64>,
    /// How many of the run's sampled executions hit each workload query,
    /// indexed by the workload's query order. This is the *observed* query
    /// mix — the signal the `loom-adapt` workload tracker compares against
    /// the mix the partitioning was mined for to detect drift.
    pub query_counts: Vec<usize>,
    /// Dropped-request accounting for the whole run (admission rejections +
    /// deadline-expired completions, summed across shards).
    pub error_budget: ErrorBudget,
}

impl ServeReport {
    /// Modelled aggregate throughput: queries ÷ makespan seconds. This is the
    /// number the shard-count sweep is about — more shards divide the same
    /// total work into a shorter makespan.
    pub fn aggregate_qps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            0.0
        } else {
            self.queries as f64 / (self.makespan_us / 1e6)
        }
    }

    /// Wall-clock throughput of this process (subject to host parallelism).
    pub fn wall_clock_qps(&self) -> f64 {
        if self.wall_clock_us <= 0.0 {
            0.0
        } else {
            self.queries as f64 / (self.wall_clock_us / 1e6)
        }
    }

    /// Fraction of all traversals that crossed partitions.
    pub fn remote_hop_fraction(&self) -> f64 {
        self.aggregate.inter_partition_probability()
    }
}

/// Sort a latency sample in place, once, so any number of
/// [`sorted_quantile`] reads follow for free. Callers that want p50 *and*
/// p99 from one buffer pay one sort instead of one per quantile.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
}

/// The `q`-th quantile (0.0 ≤ q ≤ 1.0) of an **already sorted** sample, by
/// the nearest-rank method. Returns 0.0 for an empty sample — the guard
/// matters because idle shards (a worker that served zero queries)
/// legitimately hand this function an empty latency vector; without it the
/// computed rank would index `samples[0]` and panic.
pub fn sorted_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(samples.len() - 1);
    samples[rank]
}

/// One-shot convenience: [`sort_samples`] then [`sorted_quantile`]. For a
/// single quantile this is fine; for several from the same buffer, sort once
/// and use [`sorted_quantile`] directly.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    sort_samples(samples);
    sorted_quantile(samples, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut s, 0.5), 3.0);
        assert_eq!(quantile(&mut s, 0.99), 5.0);
        assert_eq!(quantile(&mut s, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn sort_once_answers_every_quantile() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        sort_samples(&mut s);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(sorted_quantile(&s, 0.5), 3.0);
        assert_eq!(sorted_quantile(&s, 0.99), 5.0);
        assert_eq!(sorted_quantile(&s, 0.0), 1.0);
        assert_eq!(sorted_quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn shard_qps_and_remote_fraction() {
        let m = ShardServeMetrics {
            shard: 0,
            queries: 100,
            execution: ExecutionMetrics {
                queries_executed: 100,
                total_traversals: 10,
                remote_traversals: 4,
                ..ExecutionMetrics::default()
            },
            busy_us: 2_000_000.0,
            ..ShardServeMetrics::default()
        };
        assert!((m.qps() - 50.0).abs() < 1e-9);
        assert!((m.remote_hop_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(ShardServeMetrics::default().qps(), 0.0);
    }

    #[test]
    fn empty_samples_never_index_out_of_bounds() {
        // Regression: every quantile of an empty sample is 0.0, including the
        // extremes whose nearest rank would otherwise read samples[0].
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&mut [], q), 0.0);
        }
        // A single sample answers every quantile with itself.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(quantile(&mut [7.5], q), 7.5);
        }
    }

    #[test]
    fn zero_query_shard_reports_zeros() {
        // A shard that served nothing: no latency samples, no busy time.
        let idle = ShardServeMetrics {
            shard: 3,
            ..ShardServeMetrics::default()
        };
        assert_eq!(idle.queries, 0);
        assert_eq!(idle.qps(), 0.0);
        assert_eq!(idle.p50_latency_us, 0.0);
        assert_eq!(idle.p99_latency_us, 0.0);
        assert_eq!(idle.remote_hop_fraction(), 0.0);
    }

    #[test]
    fn report_throughputs() {
        let report = ServeReport {
            queries: 300,
            makespan_us: 1_500_000.0,
            wall_clock_us: 3_000_000.0,
            ..ServeReport::default()
        };
        assert!((report.aggregate_qps() - 200.0).abs() < 1e-9);
        assert!((report.wall_clock_qps() - 100.0).abs() < 1e-9);
        assert_eq!(ServeReport::default().aggregate_qps(), 0.0);
    }

    #[test]
    fn error_budget_fractions() {
        let budget = ErrorBudget {
            requests: 200,
            rejected: 6,
            deadline_expired: 4,
        };
        assert_eq!(budget.dropped(), 10);
        assert!((budget.dropped_fraction() - 0.05).abs() < 1e-12);
        assert!(budget.within(0.05));
        assert!(!budget.within(0.049));
        // An idle run dropped nothing and fits any budget, including zero.
        assert_eq!(ErrorBudget::default().dropped_fraction(), 0.0);
        assert!(ErrorBudget::default().within(0.0));
    }
}
