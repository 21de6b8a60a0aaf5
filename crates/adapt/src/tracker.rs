//! Workload-drift tracking: a decayed histogram of the observed query mix.
//!
//! The partitioning a serving engine runs on was mined for one query-mix —
//! the workload frequencies handed to the TPSTry++ miner. [`WorkloadTracker`]
//! watches the mix actually arriving (the
//! [`ServeReport::query_counts`](loom_serve::metrics::ServeReport) each
//! serving batch produces), folds it into an exponentially-decayed sliding
//! histogram, and reports the **total-variation distance** between the two
//! distributions. Crossing a fixed threshold flags *drift*: the traffic
//! no longer looks like what the placement was optimised for, and the
//! adaptation loop should re-plan.

use loom_graph::fxhash::FxHashMap;
use loom_graph::Label;
use loom_motif::workload::Workload;
use loom_serve::metrics::ServeReport;

/// Multiplicative decay applied to the accumulated histogram before each
/// new observation batch is folded in: it halves the weight of history per
/// batch.
const DECAY: f64 = 0.5;
/// Total-variation distance (in `[0, 1]`) between the observed and the
/// baseline distribution above which drift is flagged.
const THRESHOLD: f64 = 0.15;
/// Minimum decayed sample mass before drift can be flagged at all — guards
/// against reacting to a handful of queries.
const MIN_SAMPLES: f64 = 32.0;

/// Tracks the observed query mix against the mix a partitioning was mined
/// for, and flags drift.
#[derive(Debug, Clone)]
pub struct WorkloadTracker {
    workload: Workload,
    /// The distribution the current placement was optimised for, normalised.
    baseline: Vec<f64>,
    /// Decayed observation counts per query index.
    observed: Vec<f64>,
    batches: usize,
}

impl WorkloadTracker {
    /// Track drift against the mined `workload`'s frequencies. The workload's
    /// *query set and order* must match the workloads later served (only the
    /// frequencies may differ between phases) so that
    /// [`ServeReport::query_counts`] indexes line up.
    pub fn new(workload: Workload) -> Self {
        let baseline = (0..workload.len()).map(|i| workload.frequency(i)).collect();
        let observed = vec![0.0; workload.len()];
        Self {
            workload,
            baseline,
            observed,
            batches: 0,
        }
    }

    /// The query set the tracker indexes against.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Number of observation batches folded in so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Fold one serving report's observed query mix into the histogram.
    /// Reports over a different query-set length are ignored (they cannot be
    /// aligned with the baseline).
    pub(crate) fn observe(&mut self, report: &ServeReport) {
        self.observe_counts(&report.query_counts);
    }

    /// Fold raw per-query-index counts into the decayed histogram.
    pub(crate) fn observe_counts(&mut self, counts: &[usize]) {
        if counts.len() != self.observed.len() {
            return;
        }
        for o in &mut self.observed {
            *o *= DECAY;
        }
        for (o, &c) in self.observed.iter_mut().zip(counts) {
            *o += c as f64;
        }
        self.batches += 1;
    }

    /// Total decayed sample mass currently in the histogram.
    pub(crate) fn sample_mass(&self) -> f64 {
        self.observed.iter().sum()
    }

    /// The normalised observed distribution (the baseline when nothing has
    /// been observed yet, so an idle tracker never reports drift).
    pub(crate) fn observed_distribution(&self) -> Vec<f64> {
        let mass = self.sample_mass();
        if mass <= 0.0 {
            return self.baseline.clone();
        }
        self.observed.iter().map(|&o| o / mass).collect()
    }

    /// Total-variation distance between the observed mix and the baseline:
    /// `0.5 · Σ |observed_i − baseline_i|`, in `[0, 1]`. Reports 0 until the
    /// decayed sample mass reaches 32 queries.
    pub fn drift(&self) -> f64 {
        if self.sample_mass() < MIN_SAMPLES {
            return 0.0;
        }
        let observed = self.observed_distribution();
        0.5 * observed
            .iter()
            .zip(&self.baseline)
            .map(|(o, b)| (o - b).abs())
            .sum::<f64>()
    }

    /// Whether the tracked mix has drifted past a total-variation distance of 0.15.
    pub(crate) fn is_drifted(&self) -> bool {
        self.drift() > THRESHOLD
    }

    /// Per-label heat under the observed mix, normalised so the hottest label
    /// weighs 1.0: each query spreads its observed probability uniformly over
    /// its pattern's vertex labels. This is the weight map the
    /// [`MigrationPlanner`](loom_partition::migrate::MigrationPlanner) scores
    /// edges with.
    pub(crate) fn hot_label_weights(&self) -> FxHashMap<Label, f64> {
        let observed = self.observed_distribution();
        let mut heat: FxHashMap<Label, f64> = FxHashMap::default();
        for (i, query) in self.workload.queries().iter().enumerate() {
            let pattern = query.graph();
            if pattern.is_empty() {
                continue;
            }
            let share = observed[i] / pattern.vertex_count() as f64;
            for (_, label) in pattern.labelled_vertices() {
                *heat.entry(label).or_insert(0.0) += share;
            }
        }
        let max = heat.values().fold(0.0f64, |a, &b| a.max(b));
        if max > 0.0 {
            for w in heat.values_mut() {
                *w /= max;
            }
        }
        heat
    }

    /// Accept the observed mix as the new baseline — called after the
    /// placement has been adapted to it, so drift is measured against what
    /// the partitioning is *now* optimised for.
    pub(crate) fn rebase(&mut self) {
        self.baseline = self.observed_distribution();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::Label;
    use loom_motif::query::{PatternQuery, QueryId};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn two_query_workload(w0: f64, w1: f64) -> Workload {
        Workload::new(vec![
            (
                PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap(),
                w0,
            ),
            (
                PatternQuery::path(QueryId::new(1), &[l(2), l(3)]).unwrap(),
                w1,
            ),
        ])
        .unwrap()
    }

    #[test]
    fn idle_tracker_reports_no_drift() {
        let tracker = WorkloadTracker::new(two_query_workload(9.0, 1.0));
        assert_eq!(tracker.drift(), 0.0);
        assert!(!tracker.is_drifted());
        assert_eq!(tracker.observed_distribution(), vec![0.9, 0.1]);
    }

    #[test]
    fn matching_traffic_stays_under_threshold() {
        let mut tracker = WorkloadTracker::new(two_query_workload(9.0, 1.0));
        tracker.observe_counts(&[90, 10]);
        tracker.observe_counts(&[89, 11]);
        assert!(tracker.drift() < 0.02);
        assert!(!tracker.is_drifted());
    }

    #[test]
    fn flipped_traffic_is_flagged_as_drift() {
        let mut tracker = WorkloadTracker::new(two_query_workload(9.0, 1.0));
        tracker.observe_counts(&[10, 90]);
        // TV distance between (0.9, 0.1) and (0.1, 0.9) is 0.8.
        assert!((tracker.drift() - 0.8).abs() < 1e-9);
        assert!(tracker.is_drifted());
    }

    #[test]
    fn small_samples_are_ignored() {
        let mut tracker = WorkloadTracker::new(two_query_workload(9.0, 1.0));
        tracker.observe_counts(&[0, 5]);
        assert_eq!(tracker.drift(), 0.0, "below min_samples");
        tracker.observe_counts(&[0, 60]);
        assert!(tracker.is_drifted());
    }

    #[test]
    fn decay_forgets_old_phases() {
        let mut tracker = WorkloadTracker::new(two_query_workload(1.0, 1.0));
        tracker.observe_counts(&[100, 0]);
        for _ in 0..4 {
            tracker.observe_counts(&[0, 100]);
        }
        let observed = tracker.observed_distribution();
        assert!(observed[1] > 0.95, "old phase should have decayed away");
    }

    #[test]
    fn mismatched_report_lengths_are_ignored() {
        let mut tracker = WorkloadTracker::new(two_query_workload(1.0, 1.0));
        tracker.observe_counts(&[1, 2, 3]);
        assert_eq!(tracker.batches(), 0);
        assert_eq!(tracker.sample_mass(), 0.0);
    }

    #[test]
    fn hot_label_weights_follow_the_observed_mix() {
        let mut tracker = WorkloadTracker::new(two_query_workload(9.0, 1.0));
        tracker.observe_counts(&[10, 90]);
        let heat = tracker.hot_label_weights();
        // Query 1's labels (2, 3) are hot; query 0's (0, 1) are not.
        assert_eq!(heat[&l(2)], 1.0);
        assert_eq!(heat[&l(3)], 1.0);
        assert!(heat[&l(0)] < 0.2);
    }

    #[test]
    fn rebase_resets_the_drift_reference() {
        let mut tracker = WorkloadTracker::new(two_query_workload(9.0, 1.0));
        tracker.observe_counts(&[10, 90]);
        assert!(tracker.is_drifted());
        tracker.rebase();
        assert!(!tracker.is_drifted());
        // The same traffic keeps matching the new baseline.
        tracker.observe_counts(&[10, 90]);
        assert!(tracker.drift() < 0.05);
    }
}
