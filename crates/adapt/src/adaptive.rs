//! The adaptation driver: close the loop from observed queries to placement.
//!
//! [`AdaptiveServing`] owns the pieces the loop needs — the graph, the live
//! [`Partitioning`], an [`EpochStore`] of immutable shard snapshots, a
//! [`WorkloadTracker`] and a [`MigrationPlanner`] — and ties them into
//!
//! ```text
//!   serve batch ──► track query mix ──► drift? ──► plan bounded moves
//!        ▲                                              │
//!        │                                              ▼
//!   publish epoch ◄── rebuild affected shards ◄── apply to partitioning
//! ```
//!
//! Adaptation never blocks reads: queries pin whatever epoch is current when
//! they execute, the migrated snapshot is built incrementally *off to the
//! side* ([`ShardedStore::apply_migration`] rebuilds only the shards the
//! moves touched) and is published atomically through the epoch store.

use crate::tracker::WorkloadTracker;
use loom_graph::{LabelledGraph, StreamElement, VertexId};
use loom_motif::workload::Workload;
use loom_obs::{stage, FlightKind, SpanTimer, Telemetry};
use loom_partition::error::Result;
use loom_partition::migrate::{MigrationConfig, MigrationPlanner};
use loom_partition::partition::{PartitionId, Partitioning};
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::epoch::EpochStore;
use loom_serve::metrics::ServeReport;
use loom_serve::shard::{record_tombstone_gauges, ShardedStore};
use loom_sim::context::{CancelToken, RequestContext};
use loom_sim::engine::{QueryEngine, QueryRequest, QueryResponse};
use loom_sim::plan::PlanCache;
use std::sync::Arc;

/// Configuration for [`AdaptiveServing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Per-round migration budget.
    pub migration: MigrationConfig,
    /// Maximum planning rounds per adaptation (each round re-plans against
    /// the placement the previous round produced, so bounded batches can
    /// chase a large drift without one huge stale plan).
    pub max_rounds: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            migration: MigrationConfig::default(),
            max_rounds: 4,
        }
    }
}

/// What one adaptation pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptOutcome {
    /// Total-variation drift that triggered the pass.
    pub drift_before: f64,
    /// Drift after the pass (0 right after a rebase).
    pub drift_after: f64,
    /// Vertices whose home shard changed.
    pub moved: usize,
    /// Planning rounds that produced at least one move.
    pub rounds: usize,
    /// Shards whose indexes were rebuilt (0 when no move was applied).
    pub affected_shards: usize,
    /// The epoch the migrated snapshot was published under (unchanged when
    /// no move was applied).
    pub epoch: u64,
}

/// What one mutation batch ([`AdaptiveServing::apply_mutations`]) did to the
/// serving state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Vertices tombstoned in the published snapshot.
    pub removed_vertices: usize,
    /// Edges tombstoned in the published snapshot.
    pub removed_edges: usize,
    /// Vertices relabelled in place.
    pub relabelled: usize,
    /// The epoch the tombstoned snapshot was published under (unchanged when
    /// the batch touched nothing in the store).
    pub epoch: u64,
}

/// What one epoch-compaction pass ([`AdaptiveServing::compact_now`]) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Shards physically rewritten by the pass.
    pub compacted_shards: usize,
    /// Tombstoned vertices physically removed.
    pub purged_vertices: usize,
    /// Tombstoned adjacency slots physically reclaimed.
    pub purged_slots: usize,
    /// The epoch the compacted snapshot was published under (unchanged when
    /// nothing crossed the threshold).
    pub epoch: u64,
}

/// A serving endpoint that notices workload drift and incrementally migrates
/// the placement underneath in-flight queries.
#[derive(Debug)]
pub struct AdaptiveServing {
    graph: LabelledGraph,
    partitioning: Partitioning,
    epochs: EpochStore,
    engine: ServeEngine,
    tracker: WorkloadTracker,
    planner: MigrationPlanner,
    config: AdaptConfig,
    adaptations: usize,
    total_moved: usize,
    /// Optional telemetry: adaptation passes charge `adapt.plan` /
    /// `adapt.migrate` spans and leave flight-recorder events; the serving
    /// engine underneath is observed with the same handle.
    telemetry: Option<Arc<Telemetry>>,
    /// Cancellation token covering the current serving round. An adaptation
    /// pass fires it before migrating — in-flight executions running under
    /// it unwind cooperatively against their pinned (pre-migration)
    /// snapshot — and swaps in a fresh token for the next round.
    round_cancel: CancelToken,
}

impl AdaptiveServing {
    /// Stand up adaptive serving over `graph` placed by `partitioning`,
    /// tracking drift against `mined_workload` — the workload (query set
    /// *and* frequencies) the partitioning was mined for.
    pub fn new(
        graph: LabelledGraph,
        partitioning: Partitioning,
        mined_workload: Workload,
        serve: ServeConfig,
        config: AdaptConfig,
    ) -> Self {
        let store = ShardedStore::from_parts(&graph, &partitioning);
        Self {
            epochs: EpochStore::new(store),
            engine: ServeEngine::new(serve),
            tracker: WorkloadTracker::new(mined_workload),
            planner: MigrationPlanner::new(config.migration),
            graph,
            partitioning,
            config,
            adaptations: 0,
            total_moved: 0,
            telemetry: None,
            round_cancel: CancelToken::new(),
        }
    }

    /// Builder-style telemetry: the serving engine underneath populates the
    /// shard counters and stage histograms, and adaptation passes charge
    /// `adapt.plan` / `adapt.migrate` spans plus [`FlightKind::Migrated`] and
    /// [`FlightKind::EpochPublished`] flight-recorder events.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.engine = std::mem::take(&mut self.engine).with_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
        self
    }

    /// Builder-style plan cache: the serving engine underneath (router and
    /// workers alike) executes the cache's compiled plans instead of
    /// re-deriving matching orders per run.
    #[must_use]
    pub fn with_plan_cache(mut self, plans: Arc<PlanCache>) -> Self {
        self.engine = std::mem::take(&mut self.engine).with_plan_cache(plans);
        self
    }

    /// The live placement (kept in lock-step with the published snapshots).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The epoch store serving queries; external readers may pin snapshots
    /// from it at any time.
    pub fn epochs(&self) -> &EpochStore {
        &self.epochs
    }

    /// The drift tracker.
    pub fn tracker(&self) -> &WorkloadTracker {
        &self.tracker
    }

    /// The epoch currently being served.
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current_epoch()
    }

    /// Adaptation passes that applied at least one move.
    pub fn adaptations(&self) -> usize {
        self.adaptations
    }

    /// Total vertices migrated over the store's lifetime.
    pub fn total_moved(&self) -> usize {
        self.total_moved
    }

    /// The cancellation token covering the current serving round. Execute
    /// long-lived queries under a context carrying a clone of it
    /// (`RequestContext::unbounded().with_cancel(...)`) to have the next
    /// adaptation pass cancel them cooperatively instead of letting them
    /// finish against a placement that is about to be migrated away. Rotated
    /// (fired and replaced) at the start of every [`AdaptiveServing::adapt_now`].
    pub fn round_token(&self) -> CancelToken {
        self.round_cancel.clone()
    }

    /// Serve `samples` queries from the *live* workload, track the observed
    /// mix, and — when it has drifted past the threshold — run one adaptation
    /// pass before returning. Queries in flight keep their pinned snapshot;
    /// only queries admitted after the pass see the migrated placement.
    ///
    /// `workload` must present the same query set (and order) as the mined
    /// workload the tracker was built with; its frequencies are the live
    /// traffic's and may differ arbitrarily.
    ///
    /// # Errors
    ///
    /// Propagates placement errors from applying a migration plan (cannot
    /// occur for plans produced against the live partitioning).
    pub fn serve(
        &mut self,
        workload: &Workload,
        samples: usize,
        seed: u64,
    ) -> Result<(ServeReport, Option<AdaptOutcome>)> {
        // The batch runs under the round token, so a concurrent adaptation
        // (another handle firing the round) unwinds it cooperatively.
        let ctx = RequestContext::unbounded().with_cancel(self.round_cancel.clone());
        let request = QueryRequest::workload(samples).with_seed(seed);
        let (report, _) = self.engine.run(&self.epochs, workload, request, &ctx);
        self.tracker.observe(&report);
        let outcome = if self.tracker.is_drifted() {
            Some(self.adapt_now()?)
        } else {
            None
        };
        Ok((report, outcome))
    }

    /// Apply a mutation batch to the live serving state: removed vertices
    /// and edges leave the graph and the placement (so the planner can never
    /// again propose moving a dead vertex), and the **published** snapshot
    /// gets the matching tombstone marks — queries admitted after the publish
    /// skip the dead entries without any shard rebuild, while in-flight
    /// queries keep their pinned epoch. `AddVertex`/`AddEdge` elements are
    /// ignored here: additions change shard layout and go through a full
    /// republish (checkpoint or rebuild), not a tombstone pass.
    ///
    /// Reclaiming the tombstones' physical space is a separate, explicitly
    /// triggered pass: [`AdaptiveServing::compact_now`].
    pub fn apply_mutations(&mut self, batch: &[StreamElement]) -> MutationOutcome {
        for element in batch {
            match *element {
                StreamElement::AddVertex { .. } | StreamElement::AddEdge { .. } => {}
                StreamElement::RemoveVertex { id } => {
                    if self.graph.remove_vertex(id) {
                        self.partitioning.unassign(id);
                    }
                }
                StreamElement::RemoveEdge { source, target } => {
                    self.graph.remove_edge(source, target);
                }
                StreamElement::Relabel { id, label } => {
                    let _ = self.graph.set_label(id, label);
                }
            }
        }
        let mutated = self.epochs.load().apply_mutations(batch);
        let touched = mutated.removed_vertices + mutated.removed_edges + mutated.relabelled;
        let epoch = if touched > 0 {
            let epoch = self.epochs.publish(mutated.store);
            if let Some(t) = &self.telemetry {
                t.flight().record(FlightKind::EpochPublished { epoch });
            }
            epoch
        } else {
            self.epochs.current_epoch()
        };
        if let Some(t) = &self.telemetry {
            record_tombstone_gauges(&self.epochs.load(), t);
        }
        MutationOutcome {
            removed_vertices: mutated.removed_vertices,
            removed_edges: mutated.removed_edges,
            relabelled: mutated.relabelled,
            epoch,
        }
    }

    /// Run one epoch-compaction pass: rewrite every shard whose tombstone
    /// fraction is at least `threshold` (dropping its dead vertices and
    /// reclaiming its dead adjacency slots) and publish the result exactly
    /// like a migration. Shards below the threshold are carried over
    /// verbatim, tombstones and all — their queries keep skipping the marks.
    ///
    /// Compaction never moves a live vertex between shards, so — unlike
    /// [`AdaptiveServing::adapt_now`] — it does not cancel the serving round:
    /// in-flight queries finish against their pinned snapshot and observe
    /// exactly the same matches.
    pub fn compact_now(&mut self, threshold: f64) -> CompactOutcome {
        let hist = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_histogram(stage::SERVE_COMPACTION));
        let span = SpanTimer::start(hist.as_deref());
        let compacted = self.epochs.load().compact(threshold);
        if compacted.compacted_shards.is_empty()
            && compacted.purged_vertices == 0
            && compacted.purged_slots == 0
        {
            drop(span);
            return CompactOutcome {
                compacted_shards: 0,
                purged_vertices: 0,
                purged_slots: 0,
                epoch: self.epochs.current_epoch(),
            };
        }
        let shards = compacted.compacted_shards.len();
        let epoch = self.epochs.publish(compacted.store);
        drop(span);
        if let Some(t) = &self.telemetry {
            t.flight().record(FlightKind::Compacted {
                purged: compacted.purged_vertices as u64,
                shards: shards as u32,
                epoch,
            });
            t.flight().record(FlightKind::EpochPublished { epoch });
            record_tombstone_gauges(&self.epochs.load(), t);
        }
        CompactOutcome {
            compacted_shards: shards,
            purged_vertices: compacted.purged_vertices,
            purged_slots: compacted.purged_slots,
            epoch,
        }
    }

    /// Run one adaptation pass immediately, regardless of the drift flag:
    /// plan up to `max_rounds` bounded move batches against the observed
    /// mix's hot labels, apply them to the placement, rebuild only the
    /// affected shards and publish the result as a new epoch.
    ///
    /// The tracker is rebased onto the observed mix only once the planner
    /// runs dry. If the pass instead stopped on the round budget with moves
    /// still worth making, the drift flag stays raised so the next serving
    /// batch continues the repair — rebasing there would zero the signal
    /// with the placement only partially adapted.
    ///
    /// # Errors
    ///
    /// Propagates placement errors from applying a migration plan.
    pub fn adapt_now(&mut self) -> Result<AdaptOutcome> {
        // Cancel whatever is still executing under the old round before the
        // placement moves underneath it; the replacement token covers the
        // rounds served against the migrated snapshot.
        let retired = std::mem::replace(&mut self.round_cancel, CancelToken::new());
        retired.cancel();
        let drift_before = self.tracker.drift();
        let hot = self.tracker.hot_label_weights();
        let plan_hist = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_histogram(stage::ADAPT_PLAN));
        let plan_span = SpanTimer::start(plan_hist.as_deref());
        let mut moves: Vec<(VertexId, PartitionId)> = Vec::new();
        let mut rounds = 0;
        let mut planner_ran_dry = false;
        for _ in 0..self.config.max_rounds.max(1) {
            let plan = self.planner.plan(&self.graph, &self.partitioning, &hot);
            if plan.is_empty() {
                planner_ran_dry = true;
                break;
            }
            rounds += 1;
            moves.extend(plan.moves.iter().map(|m| (m.vertex, m.to)));
            plan.apply(&mut self.partitioning)?;
        }
        drop(plan_span);
        if moves.is_empty() {
            // Nothing worth moving (the placement already suits the mix):
            // accept the observed mix as the new baseline so the same drift
            // is not re-flagged every batch.
            self.tracker.rebase();
            return Ok(AdaptOutcome {
                drift_before,
                drift_after: self.tracker.drift(),
                moved: 0,
                rounds: 0,
                affected_shards: 0,
                epoch: self.epochs.current_epoch(),
            });
        }
        let migrate_hist = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_histogram(stage::ADAPT_MIGRATE));
        let migrate_span = SpanTimer::start(migrate_hist.as_deref());
        let migrated = self.epochs.load().apply_migration(&moves);
        let epoch = self.epochs.publish(migrated.store);
        drop(migrate_span);
        if let Some(t) = &self.telemetry {
            t.flight().record(FlightKind::Migrated {
                moved: migrated.moved as u64,
                epoch,
            });
            t.flight().record(FlightKind::EpochPublished { epoch });
        }
        if planner_ran_dry {
            self.tracker.rebase();
        }
        self.adaptations += 1;
        self.total_moved += migrated.moved;
        Ok(AdaptOutcome {
            drift_before,
            drift_after: self.tracker.drift(),
            moved: migrated.moved,
            rounds,
            affected_shards: migrated.affected_shards.len(),
            epoch,
        })
    }
}

/// The read-only serving path of the unified engine API: requests execute
/// against the **current** epoch's snapshots (each query pins the epoch
/// live at its execution), sampling from the *mined* workload mix.
///
/// `run` never adapts — it neither observes the mix nor migrates — so it is
/// safe to call concurrently with external epoch readers; drifted live
/// traffic goes through [`AdaptiveServing::serve`], which closes the loop.
/// Metric parity: for the same request, `run` returns exactly the metrics
/// of [`loom_serve::engine::ServeEngine::run`] on the epoch store over the
/// mined workload at the current epoch.
impl QueryEngine for AdaptiveServing {
    fn run_ctx(&self, request: QueryRequest, ctx: &RequestContext) -> QueryResponse {
        self.engine
            .run(&self.epochs, self.tracker.workload(), request, ctx)
            .1
    }

    fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.engine.plan_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::Label;
    use loom_motif::query::{PatternQuery, QueryId};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    /// A closed-loop run straight through the engine underneath: no drift
    /// tracking, no adaptation.
    fn engine_report(
        adaptive: &AdaptiveServing,
        workload: &Workload,
        samples: usize,
        seed: u64,
    ) -> ServeReport {
        let request = QueryRequest::workload(samples).with_seed(seed);
        adaptive
            .engine
            .run(
                &adaptive.epochs,
                workload,
                request,
                &RequestContext::unbounded(),
            )
            .0
    }

    /// A 12-vertex abc-path graph over 2 partitions, deliberately splitting
    /// every abc triple across the partition boundary at vertex granularity.
    fn fixture() -> (LabelledGraph, Partitioning, Workload) {
        let g = path_graph(12, &[l(0), l(1), l(2)]);
        let mut part = Partitioning::new(2, 12).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            // Alternate assignment: maximally scattered.
            part.assign(v, PartitionId::new((i % 2) as u32)).unwrap();
        }
        let workload = Workload::uniform(vec![PatternQuery::path(
            QueryId::new(0),
            &[l(0), l(1), l(2)],
        )
        .unwrap()])
        .unwrap();
        (g, part, workload)
    }

    #[test]
    fn query_engine_run_matches_the_legacy_epoch_path() {
        let (g, part, workload) = fixture();
        let adaptive = AdaptiveServing::new(
            g,
            part,
            workload.clone(),
            ServeConfig::new(2),
            AdaptConfig::default(),
        );
        let request = QueryRequest::workload(60).with_seed(11);
        let response = adaptive.run(request);
        let legacy = engine_report(&adaptive, &workload, 60, 11);
        assert_eq!(response.metrics, legacy.aggregate);
        // Read-only: no adaptation, no epoch churn, no observation.
        assert_eq!(adaptive.current_epoch(), 1);
        assert_eq!(adaptive.adaptations(), 0);
        assert_eq!(adaptive.tracker().batches(), 0);
        assert!(adaptive.plan_cache().is_none());
    }

    #[test]
    fn serving_without_drift_keeps_the_epoch() {
        let (g, part, workload) = fixture();
        let mut adaptive = AdaptiveServing::new(
            g,
            part,
            workload.clone(),
            ServeConfig::new(2),
            AdaptConfig::default(),
        );
        let (report, outcome) = adaptive.serve(&workload, 50, 3).unwrap();
        assert_eq!(report.queries, 50);
        assert!(outcome.is_none(), "uniform traffic matches the baseline");
        assert_eq!(adaptive.current_epoch(), 1);
        assert_eq!(adaptive.adaptations(), 0);
    }

    #[test]
    fn adapt_now_repairs_locality_and_publishes_an_epoch() {
        let (g, part, workload) = fixture();
        let mut adaptive = AdaptiveServing::new(
            g.clone(),
            part,
            workload.clone(),
            ServeConfig::new(2),
            AdaptConfig::default(),
        );
        let before = engine_report(&adaptive, &workload, 200, 7);
        adaptive.tracker.observe_counts(&[200]);
        let outcome = adaptive.adapt_now().unwrap();
        assert!(outcome.moved > 0);
        assert!(outcome.rounds >= 1);
        assert_eq!(outcome.epoch, 2);
        assert_eq!(adaptive.current_epoch(), 2);
        let after = engine_report(&adaptive, &workload, 200, 7);
        assert!(
            after.remote_hop_fraction() < before.remote_hop_fraction(),
            "migration should cut remote hops: {} -> {}",
            before.remote_hop_fraction(),
            after.remote_hop_fraction()
        );
        // The live partitioning matches the published snapshot.
        let snapshot = adaptive.epochs().load();
        for (v, p) in adaptive.partitioning().assignments() {
            assert_eq!(snapshot.home_shard(v), Some(p));
        }
    }

    #[test]
    fn exhausted_round_budget_keeps_the_drift_flag_raised() {
        // A budget far too small for the pending repair: the pass must NOT
        // rebase, so the next batch continues migrating instead of stranding
        // the remaining gains behind a zeroed drift signal.
        let (g, part, _) = fixture();
        let q_fwd = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let q_rev = PatternQuery::path(QueryId::new(1), &[l(2), l(1), l(0)]).unwrap();
        let mined = Workload::new(vec![(q_fwd.clone(), 9.0), (q_rev.clone(), 1.0)]).unwrap();
        let live = Workload::new(vec![(q_fwd, 1.0), (q_rev, 9.0)]).unwrap();
        let config = AdaptConfig {
            migration: MigrationConfig::new(1),
            max_rounds: 1,
        };
        let mut adaptive = AdaptiveServing::new(g, part, mined, ServeConfig::new(2), config);
        adaptive.tracker.observe_counts(&[0, 200]);
        assert!(adaptive.tracker.is_drifted());
        let first = adaptive.adapt_now().unwrap();
        assert_eq!(first.moved, 1);
        assert!(
            adaptive.tracker.is_drifted(),
            "budget-exhausted pass must not rebase"
        );
        // Serving the still-drifted traffic again triggers another pass.
        let (_, outcome) = adaptive.serve(&live, 100, 4).unwrap();
        assert!(outcome.is_some(), "repair continues on the next batch");
        assert!(adaptive.total_moved() >= 2);
    }

    #[test]
    fn adapt_now_fires_and_rotates_the_round_token() {
        let (g, part, workload) = fixture();
        let mut adaptive = AdaptiveServing::new(
            g,
            part,
            workload,
            ServeConfig::new(2),
            AdaptConfig::default(),
        );
        let old_round = adaptive.round_token();
        assert!(!old_round.is_cancelled());
        assert!(old_round.is_linked_to(&adaptive.round_token()));
        adaptive.tracker.observe_counts(&[200]);
        adaptive.adapt_now().unwrap();
        // Executions under the retired round observe the cancellation; the
        // fresh round's token is unfired and unlinked.
        assert!(old_round.is_cancelled());
        let new_round = adaptive.round_token();
        assert!(!new_round.is_cancelled());
        assert!(!new_round.is_linked_to(&old_round));
        // A cancelled-round request unwinds with zero traversals.
        let ctx = RequestContext::unbounded().with_cancel(old_round);
        let response = adaptive.run_ctx(QueryRequest::workload(10).with_seed(2), &ctx);
        assert!(response.metrics.cancelled);
        assert_eq!(response.metrics.total_traversals, 0);
    }

    #[test]
    fn adaptation_without_useful_moves_rebases_quietly() {
        // Already-perfect placement: each abc triple wholly inside one
        // partition. Drift gets flagged, but no move clears the gain bar.
        let g = path_graph(6, &[l(0), l(1), l(2)]);
        let mut part = Partitioning::new(2, 6).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i / 3) as u32)).unwrap();
        }
        let workload = Workload::new(vec![
            (
                PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap(),
                9.0,
            ),
            (
                PatternQuery::path(QueryId::new(1), &[l(2), l(1)]).unwrap(),
                1.0,
            ),
        ])
        .unwrap();
        let mut adaptive = AdaptiveServing::new(
            g,
            part,
            workload,
            ServeConfig::new(2),
            AdaptConfig::default(),
        );
        adaptive.tracker.observe_counts(&[0, 100]);
        assert!(adaptive.tracker.is_drifted());
        let outcome = adaptive.adapt_now().unwrap();
        assert_eq!(adaptive.current_epoch(), 1, "no pointless epoch churn");
        assert!(!adaptive.tracker.is_drifted(), "rebased");
        assert!(outcome.drift_before > 0.0);
        assert_eq!(outcome.drift_after, 0.0);
    }

    #[test]
    fn mutations_tombstone_the_snapshot_and_starve_the_planner() {
        let (g, part, workload) = fixture();
        let dead = g.vertices_sorted()[0];
        let mut adaptive = AdaptiveServing::new(
            g,
            part,
            workload,
            ServeConfig::new(2),
            AdaptConfig::default(),
        );
        let outcome = adaptive.apply_mutations(&[StreamElement::RemoveVertex { id: dead }]);
        assert_eq!(outcome.removed_vertices, 1);
        assert_eq!(outcome.epoch, 2, "tombstone publish bumps the epoch");
        // Dead everywhere: published snapshot, live graph, live placement.
        let snapshot = adaptive.epochs().load();
        assert_eq!(snapshot.home_shard(dead), None);
        assert_eq!(snapshot.tombstoned_vertices(), 1);
        assert!(adaptive.graph.label(dead).is_none());
        assert!(adaptive.partitioning.assignments().all(|(v, _)| v != dead));
        // A forced adaptation pass can no longer name the dead vertex: the
        // migrated snapshot keeps it tombstoned and the placement keeps it
        // unassigned.
        adaptive.tracker.observe_counts(&[200]);
        adaptive.adapt_now().unwrap();
        assert_eq!(adaptive.epochs().load().home_shard(dead), None);
        assert!(adaptive.partitioning.assignments().all(|(v, _)| v != dead));
        // Idempotent: re-removing touches nothing and keeps the epoch.
        let epoch = adaptive.current_epoch();
        let again = adaptive.apply_mutations(&[StreamElement::RemoveVertex { id: dead }]);
        assert_eq!(again.removed_vertices, 0);
        assert_eq!(again.epoch, epoch);
    }

    #[test]
    fn compact_now_reclaims_tombstones_and_publishes_like_a_migration() {
        let (g, part, workload) = fixture();
        let dead = g.vertices_sorted()[5];
        let telemetry = Arc::new(Telemetry::new());
        let mut adaptive = AdaptiveServing::new(
            g,
            part,
            workload.clone(),
            ServeConfig::new(2),
            AdaptConfig::default(),
        )
        .with_telemetry(Arc::clone(&telemetry));
        // Nothing tombstoned yet: compaction is a no-op and keeps the epoch.
        let idle = adaptive.compact_now(0.0);
        assert_eq!(idle.compacted_shards, 0);
        assert_eq!(idle.epoch, 1);
        assert_eq!(adaptive.current_epoch(), 1);
        adaptive.apply_mutations(&[StreamElement::RemoveVertex { id: dead }]);
        let before = engine_report(&adaptive, &workload, 100, 3);
        let outcome = adaptive.compact_now(0.0);
        assert_eq!(outcome.purged_vertices, 1);
        assert!(outcome.purged_slots >= 2, "a path vertex frees both arcs");
        assert!(outcome.compacted_shards >= 1);
        assert_eq!(outcome.epoch, 3);
        let snapshot = adaptive.epochs().load();
        assert_eq!(snapshot.tombstoned_vertices(), 0);
        for shard in snapshot.shards() {
            assert_eq!(snapshot.tombstone_fraction(shard.id()), 0.0);
        }
        // Same answers over the compacted snapshot as over the tombstoned one.
        let after = engine_report(&adaptive, &workload, 100, 3);
        assert_eq!(
            before.aggregate.matches_found,
            after.aggregate.matches_found
        );
        assert_eq!(
            before.aggregate.queries_executed,
            after.aggregate.queries_executed
        );
        // The pass left its flight-recorder trail.
        let dump = telemetry.flight().dump("test");
        assert!(dump
            .events
            .iter()
            .any(|e| matches!(e.kind, FlightKind::Compacted { purged: 1, .. })));
    }
}
