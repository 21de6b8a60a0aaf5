//! The open-loop driver: paces one seeded arrival schedule through a
//! [`ServeEngine`]'s non-blocking injection path and measures each ramp
//! step.
//!
//! The driver never waits for the engine: each arrival is issued at its
//! pre-computed instant via
//! [`OpenLoopInjector::inject_next`](loom_serve::OpenLoopInjector::inject_next)
//! (which rejects instead of blocking when the home shard's queue is full),
//! and arrivals the driver itself could not issue on time — it fell behind
//! by more than 50 ms — are shed, not retried. Both count against the step's
//! error budget. Between arrivals the driver pumps completions, timestamping
//! each to build the per-step wall-clock sojourn histogram.

use crate::arrival::{step_seed, ArrivalProcess};
use crate::knee::{detect_knee, Knee};
use crate::ramp::RampSchedule;
use crate::report::StepMetrics;
use loom_motif::workload::Workload;
use loom_obs::{stage, Histogram};
use loom_serve::{Admission, Completion, ServeEngine, ServeReport, ShardedStore};
use loom_sim::engine::QueryRequest;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shed (drop without offering) any arrival the driver is running this late
/// on — open-loop drivers shed, they never inject stale load.
const SHED_AFTER: Duration = Duration::from_millis(50);
/// After the last step, wait at most this long for in-flight stragglers
/// before handing the run back to the engine's teardown.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Everything one capacity run needs beyond the engine and workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// The offered-RPS ramp.
    pub ramp: RampSchedule,
    /// How inter-arrival gaps are drawn.
    pub process: ArrivalProcess,
    /// Base seed: drives both the workload sampling and (per step, via
    /// `step_seed`) the arrival gaps.
    pub seed: u64,
    /// Per-request deadline, measured from the request's *arrival* instant.
    /// Admitted requests that sit queued past it are cut short by the
    /// worker's pre-flight deadline check and counted `deadline_expired`.
    pub request_timeout: Option<Duration>,
}

impl LoadConfig {
    /// A config with the given ramp, Poisson arrivals, seed 42 and no
    /// per-request deadline.
    pub fn new(ramp: RampSchedule) -> Self {
        Self {
            ramp,
            process: ArrivalProcess::Poisson,
            seed: 42,
            request_timeout: None,
        }
    }

    /// Builder-style arrival process.
    #[must_use]
    pub fn with_process(mut self, process: ArrivalProcess) -> Self {
        self.process = process;
        self
    }

    /// Builder-style base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style per-request deadline (from arrival).
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = Some(timeout);
        self
    }

    /// The planned arrival offsets of every step (µs from each step's
    /// start) — a pure function of the config, computable before, during,
    /// or after a run.
    pub fn planned_offsets_us(&self) -> Vec<Vec<u64>> {
        self.ramp
            .steps()
            .iter()
            .map(|s| {
                self.process
                    .offsets_us(s.offered_rps, s.duration, step_seed(self.seed, s.index))
            })
            .collect()
    }
}

/// One measured ramp against one engine configuration.
#[derive(Debug, Clone)]
pub struct CapacityRun {
    /// The arrival process driven.
    pub process: ArrivalProcess,
    /// The base seed driven.
    pub seed: u64,
    /// Per-step measurements, in ramp order.
    pub steps: Vec<StepMetrics>,
    /// The detected saturation knee.
    pub knee: Knee,
    /// Completions observed after the last step window (stragglers drained
    /// before teardown; their latencies belong to no step).
    pub drained: usize,
    /// The engine's own report for the whole run — its
    /// [`loom_serve::ErrorBudget`] covers every issued request.
    pub report: ServeReport,
}

impl CapacityRun {
    /// Scheduled arrivals across all steps.
    pub fn offered_total(&self) -> usize {
        self.steps.iter().map(|s| s.offered).sum()
    }
}

/// Consume a batch of completions into the current step's accumulators.
fn absorb(
    completions: Vec<Completion>,
    arrivals: &[Instant],
    metrics: &mut StepMetrics,
    hist: &Histogram,
) {
    for c in completions {
        metrics.completed += 1;
        if c.deadline_exceeded {
            metrics.deadline_expired += 1;
        }
        if let Some(&arrived) = arrivals.get(c.seq as usize) {
            hist.record(c.at.saturating_duration_since(arrived).as_micros() as u64);
        }
    }
}

/// Drive one open-loop ramp against `engine` serving `store`/`workload`.
///
/// Per step: pre-computed arrivals are injected at their scheduled instants
/// (never blocking, shedding when hopelessly late); completions observed
/// inside the step's wall-clock window feed its goodput and sojourn
/// quantiles; and, when the engine is observed, the step's queue-wait p99
/// comes from a telemetry interval diff. The knee is detected over the
/// finished step table by [`detect_knee`].
pub fn run_capacity(
    engine: &ServeEngine,
    store: &Arc<ShardedStore>,
    workload: &Workload,
    config: &LoadConfig,
) -> CapacityRun {
    let specs = config.ramp.steps();
    let offsets = config.planned_offsets_us();
    let total: usize = offsets.iter().map(Vec::len).sum();
    let request = QueryRequest::workload(total).with_seed(config.seed);
    let telemetry = engine.telemetry().cloned();

    let (report, (steps, drained)) = engine.open_loop(store, workload, request, |inj| {
        let run_start = inj.run_start();
        // Arrival instant per sequence number — schedule order is injection
        // order, so `seq` indexes this directly.
        let mut arrivals: Vec<Instant> = Vec::with_capacity(total);
        let mut steps: Vec<StepMetrics> = Vec::with_capacity(specs.len());
        let mut base = Duration::ZERO;
        for (spec, step_offsets) in specs.iter().zip(&offsets) {
            let snap_before = telemetry.as_ref().map(|t| t.snapshot());
            let hist = Histogram::new();
            let mut metrics = StepMetrics {
                index: spec.index,
                offered_rps: spec.offered_rps,
                offered: step_offsets.len(),
                ..StepMetrics::default()
            };
            for &offset in step_offsets {
                let due = run_start + base + Duration::from_micros(offset);
                inj.pump_until(due);
                absorb(inj.drain_completions(), &arrivals, &mut metrics, &hist);
                // The arrival's timestamp is its *scheduled* instant: the
                // schedule, not the engine, owns time in an open-loop run.
                if Instant::now().saturating_duration_since(due) > SHED_AFTER {
                    if inj.shed_next().is_some() {
                        metrics.shed += 1;
                        arrivals.push(due);
                    }
                    continue;
                }
                let deadline = config.request_timeout.map(|t| due + t);
                match inj.inject_next(deadline) {
                    Admission::Admitted { .. } => {
                        metrics.admitted += 1;
                        arrivals.push(due);
                    }
                    Admission::Rejected { .. } => {
                        metrics.rejected += 1;
                        arrivals.push(due);
                    }
                    Admission::Exhausted => break,
                }
            }
            let step_end = run_start + base + spec.duration;
            inj.pump_until(step_end);
            absorb(inj.drain_completions(), &arrivals, &mut metrics, &hist);
            metrics.achieved_rps =
                (metrics.completed - metrics.deadline_expired) as f64 / spec.duration.as_secs_f64();
            metrics.p50_us = hist.quantile(0.50);
            metrics.p99_us = hist.quantile(0.99);
            metrics.p999_us = hist.quantile(0.999);
            if let (Some(t), Some(before)) = (telemetry.as_ref(), snap_before) {
                let delta = t.snapshot().since(&before);
                metrics.queue_wait_p99_us = delta
                    .histogram_merged(stage::SERVE_QUEUE_WAIT)
                    .quantile(0.99);
            }
            metrics.inflight_end = inj.outstanding();
            steps.push(metrics);
            base += spec.duration;
        }
        // Drain stragglers within the grace window so teardown is quick and
        // their count is visible (their latencies belong to no step).
        let drain_deadline = Instant::now() + DRAIN_GRACE;
        let mut drained = 0usize;
        while inj.outstanding() > 0 && Instant::now() < drain_deadline {
            inj.pump_until((Instant::now() + Duration::from_millis(5)).min(drain_deadline));
            drained += inj.drain_completions().len();
        }
        drained += inj.drain_completions().len();
        (steps, drained)
    });

    let knee = detect_knee(&steps);
    CapacityRun {
        process: config.process,
        seed: config.seed,
        steps,
        knee,
        drained,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::generators::{barabasi_albert, GeneratorConfig};
    use loom_graph::Label;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_partition::partition::{PartitionId, Partitioning};
    use loom_serve::ServeConfig;
    use loom_sim::context::RequestContext;
    use loom_sim::executor::QueryMode;

    fn fixture() -> (Arc<ShardedStore>, Workload) {
        let g = path_graph(12, &[Label::new(0), Label::new(1), Label::new(2)]);
        let mut part = Partitioning::new(4, 12).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i / 3) as u32)).unwrap();
        }
        let store = Arc::new(ShardedStore::from_parts(&g, &part));
        let workload = Workload::uniform(vec![
            PatternQuery::path(
                QueryId::new(0),
                &[Label::new(0), Label::new(1), Label::new(2)],
            )
            .unwrap(),
            PatternQuery::path(QueryId::new(1), &[Label::new(1), Label::new(2)]).unwrap(),
        ])
        .unwrap();
        (store, workload)
    }

    fn tiny_ramp() -> RampSchedule {
        RampSchedule::new(200.0, 200.0, Duration::from_millis(60), 400.0)
    }

    #[test]
    fn unsaturated_run_completes_everything_it_offers() {
        let (store, workload) = fixture();
        let engine =
            ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::Rooted { seed_count: 4 }));
        let config = LoadConfig::new(tiny_ramp());
        let run = run_capacity(&engine, &store, &workload, &config);
        assert_eq!(run.steps.len(), 2);
        assert_eq!(run.report.queries, run.offered_total());
        assert_eq!(run.report.error_budget.requests, run.offered_total());
        // An unloaded engine keeps up: nothing rejected, knee not found.
        assert_eq!(run.report.error_budget.dropped(), 0);
        assert!(!run.knee.found());
        let completed: usize = run.steps.iter().map(|s| s.completed).sum();
        assert_eq!(completed + run.drained, run.offered_total());
        let planned = config.planned_offsets_us();
        assert_eq!(planned.len(), 2);
        for (step, offsets) in run.steps.iter().zip(&planned) {
            assert_eq!(step.offered, offsets.len());
        }
    }

    #[test]
    fn saturated_run_rejects_and_finds_a_knee() {
        // Queries that cost real time — every a-b-a path of a
        // Barabási–Albert graph, enumerated in full — on one worker behind
        // a 2-deep queue. Overload is offered as a multiple of what one
        // worker sustains closed-loop here and now, so the ramp saturates at
        // step 0 on any host and in any build profile.
        let graph = barabasi_albert(
            GeneratorConfig {
                vertices: 600,
                label_count: 2,
                seed: 11,
            },
            3,
        )
        .unwrap();
        let mut part = Partitioning::new(4, graph.vertex_count()).unwrap();
        for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i % 4) as u32)).unwrap();
        }
        let store = Arc::new(ShardedStore::from_parts(&graph, &part));
        let aba = [Label::new(0), Label::new(1), Label::new(0)];
        let workload =
            Workload::uniform(vec![PatternQuery::path(QueryId::new(0), &aba).unwrap()]).unwrap();
        let one_worker = ServeConfig::new(1).with_mode(QueryMode::FullEnumeration);
        let (probe, _) = ServeEngine::new(one_worker).run(
            &store,
            &workload,
            QueryRequest::workload(40).with_seed(9),
            &RequestContext::unbounded(),
        );
        let sustained = probe.wall_clock_qps();
        let engine = ServeEngine::new(one_worker.with_queue_capacity(2));
        let ramp = RampSchedule::new(
            4.0 * sustained,
            4.0 * sustained,
            Duration::from_millis(60),
            8.0 * sustained,
        );
        let config = LoadConfig::new(ramp).with_seed(9);
        let run = run_capacity(&engine, &store, &workload, &config);
        assert!(run.knee.found(), "overload must saturate: {:?}", run.knee);
        assert!(run.report.error_budget.dropped() > 0);
        let rejected: usize = run.steps.iter().map(|s| s.rejected + s.shed).sum();
        assert!(rejected > 0, "full queues must reject open-loop arrivals");
        // Issued requests are conserved regardless of saturation.
        assert_eq!(run.report.error_budget.requests, run.offered_total());
    }

    #[test]
    fn capacity_runs_are_reproducible_from_the_seed() {
        let (store, workload) = fixture();
        let engine =
            ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::Rooted { seed_count: 4 }));
        let config = LoadConfig::new(tiny_ramp()).with_seed(31);
        let a = run_capacity(&engine, &store, &workload, &config);
        let b = run_capacity(&engine, &store, &workload, &config);
        // Offered counts are schedule-determined; wall-clock measurements
        // may differ run to run.
        let offered_a: Vec<usize> = a.steps.iter().map(|s| s.offered).collect();
        let offered_b: Vec<usize> = b.steps.iter().map(|s| s.offered).collect();
        assert_eq!(offered_a, offered_b);
        assert_eq!(
            a.report.aggregate.matches_found,
            b.report.aggregate.matches_found
        );
    }
}
