//! The query router: anchor each query on its home shard.
//!
//! A rooted pattern query enters the engine as `(plan, root_seed)`. The
//! router consumes the **compiled plan's root label** — the same plan the
//! executing worker will run, fetched once per query set from the shared
//! [`PlanCache`](loom_sim::plan::PlanCache) — so routing performs no
//! matching-order derivation at all (the double derivation the plan
//! redesign removed). It takes the roots the matcher will anchor on from
//! the plan-driven [`loom_sim::matcher::plan_roots`] lookup — arena
//! positions, so each root's home shard is a slot read — and dispatches the
//! query to the shard hosting the **most** roots (vote ties broken
//! deterministically by the root seed, so no shard is systematically
//! favoured). Queries with no assigned roots at all are spread by
//! `root_seed % shards`, so unmatched queries round-robin across shards
//! instead of piling onto a single one.
//!
//! A router is made for one run and routes every arrival of it, so it keeps
//! the vote and root buffers arrivals share: routing allocates nothing per
//! query.

use crate::shard::ShardedStore;
use loom_partition::partition::PartitionId;
use loom_sim::executor::QueryMode;
use loom_sim::matcher::plan_roots;
use loom_sim::plan::QueryPlan;

/// Routes queries to home shards ahead of execution.
#[derive(Debug, Clone)]
pub(crate) struct QueryRouter {
    mode: QueryMode,
    /// Per-shard votes of the arrival being routed.
    votes: Vec<usize>,
    /// Rooted mode: the roots of the arrival being routed, as positions.
    roots: Vec<u32>,
}

impl QueryRouter {
    /// Create a router for queries executed under `mode` (the mode determines
    /// which roots the matcher will anchor on, and therefore the home shard).
    pub fn new(mode: QueryMode) -> Self {
        Self {
            mode,
            votes: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// The home shard for one `(plan, root_seed)` execution: the shard
    /// hosting the plurality of the roots the matcher will anchor on —
    /// resolved from the plan's pre-compiled root label, with no ordering
    /// derivation. Vote ties are broken deterministically by `root_seed`
    /// (not towards a fixed shard, which would systematically overload low
    /// shard ids). When *no* vote lands on any shard (the plan's root label
    /// is unindexed, or every root is unassigned) the query is spread by
    /// `root_seed % shards` explicitly — per-query root seeds are
    /// consecutive, so unmatched queries round-robin across shards instead
    /// of hotspotting near shard 0.
    ///
    /// A rooted execution that draws at most one root skips the vote table:
    /// one root's home is the whole plurality, and a root without a home (or
    /// no root at all) is the zero-vote spread, so the answer is the same.
    pub(crate) fn home_shard_planned(
        &mut self,
        store: &ShardedStore,
        plan: &QueryPlan,
        root_seed: u64,
    ) -> PartitionId {
        let shards = store.shard_count().max(1) as usize;
        let spread = || PartitionId::new((root_seed % shards as u64) as u32);
        let votes = &mut self.votes;
        votes.clear();
        match self.mode {
            QueryMode::FullEnumeration => {
                // Every root-label vertex anchors the scan, so each shard's
                // vote is the count it keeps for that label — no per-vertex
                // home lookups.
                votes.resize(shards, 0);
                for (vote, shard) in votes.iter_mut().zip(store.shards()) {
                    *vote = shard.label_count(plan.root_label());
                }
            }
            QueryMode::Rooted { .. } => {
                let roots = plan_roots(store, plan, self.mode, root_seed, &mut self.roots);
                if let [] | [_] = roots {
                    return roots
                        .first()
                        .and_then(|&root| store.home_of(root))
                        .unwrap_or_else(spread);
                }
                votes.resize(shards, 0);
                for &root in roots {
                    if let Some(p) = store.home_of(root) {
                        votes[p.index()] += 1;
                    }
                }
            }
        }
        let best = votes.iter().copied().max().expect("at least one shard");
        if best == 0 {
            return spread();
        }
        // The seed picks among the tied shards by position, counted rather
        // than listed.
        let tied = votes.iter().filter(|&&v| v == best).count();
        let pick = votes
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v == best)
            .nth(root_seed as usize % tied)
            .expect("fewer than `tied` shards skipped");
        PartitionId::new(pick.0 as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::Label;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_partition::partition::Partitioning;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    /// Path 0-1-2-3 with labels a,b,a,b; partition {0,1} / {2,3}.
    fn store() -> ShardedStore {
        let g = path_graph(4, &[l(0), l(1)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 4).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(0)).unwrap();
        part.assign(vs[2], PartitionId::new(1)).unwrap();
        part.assign(vs[3], PartitionId::new(1)).unwrap();
        ShardedStore::from_parts(&g, &part)
    }

    #[test]
    fn full_enumeration_routes_to_the_plurality_shard() {
        let store = store();
        // Root label a lives at vertices 0 (shard 0) and 2 (shard 1): a tie,
        // broken deterministically by the root seed.
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        let mut router = QueryRouter::new(QueryMode::FullEnumeration);
        assert_eq!(
            router.home_shard_planned(&store, &plan, 0),
            PartitionId::new(0)
        );
        assert_eq!(
            router.home_shard_planned(&store, &plan, 1),
            PartitionId::new(1)
        );
    }

    /// Path 0-1-2-3-4 with labels a,b,a,b,a; partition {0,1} / {2,3}, and
    /// vertex 4 left unassigned.
    fn store_with_an_unassigned_root() -> ShardedStore {
        let g = path_graph(5, &[l(0), l(1)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 5).unwrap();
        for (i, &v) in vs.iter().take(4).enumerate() {
            part.assign(v, PartitionId::new((i / 2) as u32)).unwrap();
        }
        ShardedStore::from_parts(&g, &part)
    }

    /// The plurality vote every arrival went through before an arrival with
    /// at most one root skipped it: the reference the router must equal.
    fn voted_home(
        store: &ShardedStore,
        plan: &QueryPlan,
        mode: QueryMode,
        seed: u64,
    ) -> PartitionId {
        let shards = store.shard_count().max(1) as usize;
        let mut votes = vec![0usize; shards];
        match mode {
            QueryMode::FullEnumeration => {
                for (vote, shard) in votes.iter_mut().zip(store.shards()) {
                    *vote = shard.label_count(plan.root_label());
                }
            }
            QueryMode::Rooted { .. } => {
                for &root in plan_roots(store, plan, mode, seed, &mut Vec::new()) {
                    if let Some(p) = store.home_of(root) {
                        votes[p.index()] += 1;
                    }
                }
            }
        }
        let best = votes.iter().copied().max().unwrap();
        if best == 0 {
            return PartitionId::new((seed % shards as u64) as u32);
        }
        let tied: Vec<usize> = (0..shards).filter(|&p| votes[p] == best).collect();
        PartitionId::new(tied[seed as usize % tied.len()] as u32)
    }

    /// Routing is a function of the seed, and equals the vote: on roots
    /// that all have a home and on a store whose one `a` vertex has none,
    /// for one drawn root (the path that skips the vote) and several.
    #[test]
    fn rooted_routing_is_deterministic_per_seed() {
        let store = store();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        let mut router = QueryRouter::new(QueryMode::Rooted { seed_count: 1 });
        for seed in 0..20 {
            let a = router.home_shard_planned(&store, &plan, seed);
            let b = router.home_shard_planned(&store, &plan, seed);
            assert_eq!(a, b);
        }
        let reversed = PatternQuery::path(QueryId::new(1), &[l(1), l(0)]).unwrap();
        for store in [store, store_with_an_unassigned_root()] {
            for query in [&query, &reversed] {
                let plan = QueryPlan::legacy(query);
                for seed_count in [1, 2, 3] {
                    let mode = QueryMode::Rooted { seed_count };
                    let mut router = QueryRouter::new(mode);
                    for seed in 0..64 {
                        assert_eq!(
                            router.home_shard_planned(&store, &plan, seed),
                            voted_home(&store, &plan, mode, seed),
                            "{mode:?}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_vote_queries_spread_across_shards() {
        // Regression: queries whose roots land on no shard must not hotspot
        // near shard 0 — they spread by `root_seed % shards`.
        let store = store();
        let query = PatternQuery::path(QueryId::new(0), &[l(9), l(1)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        for mode in [
            QueryMode::FullEnumeration,
            QueryMode::Rooted { seed_count: 1 },
            QueryMode::Rooted { seed_count: 2 },
        ] {
            let mut router = QueryRouter::new(mode);
            let mut hits = [0usize; 2];
            // Consecutive root seeds, exactly as the engine assigns them.
            for seed in 1..=40u64 {
                let home = router.home_shard_planned(&store, &plan, seed);
                // A label with no vertex draws no root: the vote's spread.
                assert_eq!(home, voted_home(&store, &plan, mode, seed), "{mode:?}");
                hits[home.index()] += 1;
            }
            assert_eq!(hits, [20, 20], "mode {mode:?} hotspots zero-vote load");
        }
        // A root with no home is a zero vote too, whichever path routes it.
        let store = store_with_an_unassigned_root();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        let mode = QueryMode::Rooted { seed_count: 1 };
        let mut router = QueryRouter::new(mode);
        let mut homeless = 0;
        for seed in 1..=40u64 {
            let roots = plan_roots(&store, &plan, mode, seed, &mut Vec::new()).to_vec();
            if store.home_of(roots[0]).is_none() {
                homeless += 1;
                let home = router.home_shard_planned(&store, &plan, seed);
                assert_eq!(home.index() as u64, seed % 2);
                assert_eq!(home, voted_home(&store, &plan, mode, seed));
            }
        }
        assert!(homeless > 0, "the unassigned root is never drawn");
    }
}
