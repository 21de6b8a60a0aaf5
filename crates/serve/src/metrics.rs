//! Serving metrics: per-shard and aggregate reports.
//!
//! A report carries two kinds of number and keeps them apart. The
//! *counts* — [`ExecutionMetrics`] per shard and merged, the query mix, the
//! epochs touched, the [`ErrorBudget`] — are deterministic and equal a
//! sequential run's. The *timings* — `wall_clock_us`, queue waits, queue
//! depth, and the hand-off counts that depend on scheduling (stalls, runs,
//! wake-ups) — are this process's, and [`ServeReport::wall_clock_qps`] is the
//! only throughput a report has.

use loom_sim::executor::ExecutionMetrics;

/// Per-shard serving metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardServeMetrics {
    /// Shard (worker) index.
    pub shard: u32,
    /// Queries this shard executed.
    pub queries: usize,
    /// Merged execution metrics over those queries.
    pub execution: ExecutionMetrics,
    /// Deepest the shard's work queue got (bounded by the configured
    /// capacity; hitting the bound means backpressure engaged).
    pub max_queue_depth: usize,
    /// 99th-percentile wall-clock wait of this shard's messages between
    /// enqueue and the worker's take of the run holding them, µs — the
    /// queueing delay backpressure added on top of execution time (the wait
    /// behind a message's run-mates, once taken, is not in it).
    pub queue_wait_p99_us: f64,
    /// How often an admission, refused by this shard's full inbox, waited a
    /// whole retry slice on the coordinator's own inbox without one message
    /// arriving — a millisecond each in which nothing was admitted (a wait
    /// the request's deadline cut short is not counted). A healthy run
    /// reads zero or close to it: a completion arrives, and is the signal
    /// to offer the task again, long before the slice ends. Depends on
    /// scheduling, like the two timings above.
    pub admit_stalls: usize,
    /// Runs this shard's worker took off its inbox: receives that found at
    /// least one message. `queries / runs` is the mean run; one would mean
    /// every query was a hand-off of its own. Depends on scheduling.
    pub runs: usize,
    /// Pushes into this shard's inbox that woke its parked worker, a futex
    /// wake-up each. Depends on scheduling.
    pub wake_ups: usize,
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
    pub epoch_seq: Option<u64>,
}

impl ShardServeMetrics {
    /// Fraction of this shard's traversals that crossed partitions.
    pub fn remote_hop_fraction(&self) -> f64 {
        self.execution.inter_partition_probability()
    }
}

/// Per-run dropped-request accounting: how many of the run's requests were
/// rejected at admission or completed past their deadline. Open-loop
/// capacity steps assert against this ("≤ X% dropped") instead of scraping
/// per-shard counters or telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Per-shard breakdown, indexed by worker shard.
    pub shards: Vec<ShardServeMetrics>,
    /// Execution metrics merged across every shard.
    pub aggregate: ExecutionMetrics,
    /// Total queries served.
    pub queries: usize,
    /// Wall-clock duration of the run in this process, µs.
    pub wall_clock_us: f64,
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
    /// Wall-clock goodput of this process (subject to host parallelism):
    /// requests that completed a full execution in time ÷ the run's wall
    /// clock. Rejected, shed and deadline-expired requests are issued but
    /// not served, so an overloaded run reads lower, not higher.
    pub fn wall_clock_qps(&self) -> f64 {
        if self.wall_clock_us <= 0.0 {
            0.0
        } else {
            let served = self
                .error_budget
                .requests
                .saturating_sub(self.error_budget.dropped());
            served as f64 / (self.wall_clock_us / 1e6)
        }
    }

    /// Fraction of all traversals that crossed partitions.
    pub fn remote_hop_fraction(&self) -> f64 {
        self.aggregate.inter_partition_probability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ..ShardServeMetrics::default()
        };
        assert!((m.remote_hop_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_query_shard_reports_zeros() {
        // A shard that served nothing: no traversals to take a fraction of.
        let idle = ShardServeMetrics {
            shard: 3,
            ..ShardServeMetrics::default()
        };
        assert_eq!(idle.queries, 0);
        assert_eq!(idle.remote_hop_fraction(), 0.0);
    }

    #[test]
    fn report_throughputs() {
        let mut report = ServeReport {
            queries: 300,
            wall_clock_us: 3_000_000.0,
            error_budget: ErrorBudget {
                requests: 300,
                ..ErrorBudget::default()
            },
            ..ServeReport::default()
        };
        assert!((report.wall_clock_qps() - 100.0).abs() < 1e-9);
        // Goodput: issued-but-dropped requests are not throughput.
        report.error_budget.rejected = 45;
        report.error_budget.deadline_expired = 15;
        assert!((report.wall_clock_qps() - 80.0).abs() < 1e-9);
        assert_eq!(ServeReport::default().wall_clock_qps(), 0.0);
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
