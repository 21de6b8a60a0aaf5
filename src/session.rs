//! The top-level `Session` façade over the whole LOOM stack.
//!
//! A [`Session`] ties the paper's pipeline (§4) into one entry point:
//!
//! 1. **mine** — the query workload `Q` is summarised into a TPSTry++ when
//!    the session is built;
//! 2. **build** — the partitioner is constructed from a declarative
//!    [`PartitionerSpec`] through the workload-aware registry, as a
//!    `Box<dyn Partitioner>`;
//! 3. **ingest** — stream elements are fed in batches
//!    ([`Session::ingest_stream`] chunks a whole [`GraphStream`]);
//! 4. **plan** — [`Session::serve`] compiles every workload query **once**
//!    into a [`QueryPlan`](loom_sim::plan::QueryPlan) against the graph's
//!    statistics, read off the frozen store
//!    ([`ShardedStore::statistics`]; with the default cost-ranked
//!    [`PlanStrategy`]), shared through an `Arc<PlanCache>` by every layer
//!    below;
//! 5. **serve** — the partitioned graph is frozen, once, into the
//!    `loom-serve` [`ShardedStore`] and dropped; the returned [`Serving`]
//!    keeps only that store, and every engine it stands up runs on it: it is
//!    itself the sequential [`QueryEngine`] over that arena,
//!    [`Serving::sharded`] puts the concurrent worker-shard engine in front
//!    of the same arena, [`ShardedServing::capacity`] drives that open-loop,
//!    and [`Serving::adaptive`] serves it as its first epoch — one store,
//!    same plans, same metrics.
//!
//! ```
//! use loom::session::Session;
//! use loom::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = paper_example_graph();
//! let workload = paper_example_workload();
//! let spec = PartitionerSpec::Loom(
//!     LoomConfig::new(2, graph.vertex_count()).with_window_size(4),
//! );
//!
//! let mut session = Session::builder(spec).workload(workload).build()?;
//! let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
//! session.ingest_stream(&stream)?;
//!
//! let serving = session.serve(graph)?;
//! let response = serving.run(QueryRequest::workload(100).with_seed(7));
//! assert!(response.metrics.inter_partition_probability() <= 1.0);
//! # Ok(())
//! # }
//! ```

use loom_adapt::adaptive::{AdaptConfig, AdaptiveServing};
use loom_graph::{GraphStream, LabelledGraph, StreamElement};
use loom_load::{run_capacity, CapacityRun, LoadConfig};
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_motif::MotifError;
use loom_obs::{stage, FlightKind, Histogram, SpanTimer, Telemetry};
use loom_partition::partition::Partitioning;
use loom_partition::spec::{PartitionerRegistry, PartitionerSpec};
use loom_partition::traits::{Partitioner, PartitionerStats, DEFAULT_BATCH_SIZE};
use loom_partition::PartitionError;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::metrics::ServeReport;
use loom_serve::shard::{ArenaView, ShardedStore};
use loom_sim::context::RequestContext;
use loom_sim::engine::{QueryEngine, QueryRequest, QueryResponse};
use loom_sim::executor::{ExecutionMetrics, QueryMode};
use loom_sim::plan::{PlanCache, PlanStrategy, QueryPlanner};
use loom_store::checkpoint::CHECKPOINT_DIR;
use loom_store::recovery::{Beside, RecoverSpans, RecoveryReport};
use loom_store::{
    commit_checkpoint, segment_path, segments, CheckpointImage, PartitionerBlob, StoreError, Wal,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Errors produced while building or driving a [`Session`].
#[derive(Debug)]
pub enum SessionError {
    /// The partitioner layer failed (invalid spec, assignment error, …).
    Partition(PartitionError),
    /// Workload mining failed.
    Motif(MotifError),
    /// An operation needed a workload but none was configured.
    MissingWorkload(&'static str),
    /// The durability layer failed (IO error, corrupt on-disk state, …).
    Store(StoreError),
    /// Durable state on disk is inconsistent with the session configuration
    /// (e.g. a checkpoint written by a different partitioner spec), or a
    /// durability operation was invoked on a session without one.
    Durability(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Partition(e) => write!(f, "partitioning failed: {e}"),
            SessionError::Motif(e) => write!(f, "workload mining failed: {e}"),
            SessionError::MissingWorkload(what) => {
                write!(
                    f,
                    "{what} needs a workload: pass one via Session::builder(..).workload(..)"
                )
            }
            SessionError::Store(e) => write!(f, "durability failed: {e}"),
            SessionError::Durability(detail) => write!(f, "durability mismatch: {detail}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Partition(e) => Some(e),
            SessionError::Motif(e) => Some(e),
            SessionError::Store(e) => Some(e),
            SessionError::MissingWorkload(_) | SessionError::Durability(_) => None,
        }
    }
}

impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> Self {
        SessionError::Store(e)
    }
}

impl From<PartitionError> for SessionError {
    fn from(e: PartitionError) -> Self {
        SessionError::Partition(e)
    }
}

impl From<MotifError> for SessionError {
    fn from(e: MotifError) -> Self {
        SessionError::Motif(e)
    }
}

/// Result alias for session operations.
pub type SessionResult<T> = std::result::Result<T, SessionError>;

/// Fluent builder for [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    spec: PartitionerSpec,
    workload: Option<Workload>,
    chunk_size: usize,
    query_mode: QueryMode,
    match_limit: Option<usize>,
    durability: Option<PathBuf>,
    telemetry: Option<Arc<Telemetry>>,
}

impl SessionBuilder {
    /// The query workload the partitioner should optimise for. Mandatory for
    /// [`PartitionerSpec::Loom`]; optional (it only drives serving-side
    /// query execution) for the workload-agnostic baselines.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Chunk size for [`Session::ingest_stream`] (default
    /// [`DEFAULT_BATCH_SIZE`]). Batched and per-element ingestion yield
    /// identical partitionings; this only affects throughput.
    #[must_use]
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Query execution mode for every serving engine of the session.
    #[must_use]
    pub fn query_mode(mut self, mode: QueryMode) -> Self {
        self.query_mode = mode;
        self
    }

    /// Cap the number of embeddings enumerated per query execution (guards
    /// against pathological queries on dense graphs).
    #[must_use]
    pub fn match_limit(mut self, limit: usize) -> Self {
        self.match_limit = Some(limit);
        self
    }

    /// Persist everything this session ingests under `root`: every batch is
    /// written to a write-ahead log before it reaches the partitioner, and
    /// every [`Session::checkpoint`] writes the partitioned graph to disk
    /// before it returns. A session built this way can be brought back after
    /// a crash with [`Session::recover`].
    #[must_use]
    pub fn with_durability(mut self, root: impl Into<PathBuf>) -> Self {
        self.durability = Some(root.into());
        self
    }

    /// Observe this session with a [`Telemetry`] bundle: ingestion charges
    /// `ingest.wal_append` / `ingest.partition` spans, the durable layer
    /// charges `store.fsync` / `store.checkpoint_write` and leaves
    /// checkpoint-seal flight events, and every engine spawned from the
    /// session's [`Serving`] handle inherits the same bundle. Sessions built
    /// without telemetry take **zero** extra clock reads and produce
    /// bit-identical reports.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Build the partitioner this configuration describes (used by both
    /// `build` and the recovery path, which restores a fresh instance from
    /// the checkpoint and replays the WAL past it).
    fn make_partitioner(&self) -> SessionResult<Box<dyn Partitioner>> {
        let registry = match &self.workload {
            Some(workload) => {
                let tpstry = MotifMiner::default().mine(workload)?;
                loom_core::workload_registry(&tpstry)
            }
            None => {
                if matches!(self.spec, PartitionerSpec::Loom(_)) {
                    return Err(SessionError::MissingWorkload("building a LOOM partitioner"));
                }
                PartitionerRegistry::baselines()
            }
        };
        Ok(registry.build(&self.spec)?)
    }

    /// Mine the workload (if any) and build the partitioner from its spec.
    ///
    /// # Errors
    ///
    /// Fails when the spec is [`PartitionerSpec::Loom`] but no workload was
    /// given, when mining fails, when the spec's configuration is invalid,
    /// or — for durable sessions — when the durability root already holds
    /// state (recover it with [`Session::recover`] instead of overwriting).
    pub fn build(self) -> SessionResult<Session> {
        let partitioner = self.make_partitioner()?;
        let durable = match &self.durability {
            Some(root) => Some(DurableState::create(root, &self)?),
            None => None,
        };
        Ok(self.into_session(partitioner, durable))
    }

    /// The one place a [`Session`] is assembled from its configuration
    /// (fresh and recovered alike).
    fn into_session(
        self,
        partitioner: Box<dyn Partitioner>,
        durable: Option<DurableState>,
    ) -> Session {
        Session {
            partitioner,
            durable,
            ingest_spans: self.telemetry.as_deref().map(IngestSpans::resolve),
            telemetry: self.telemetry,
            spec: self.spec,
            workload: self.workload,
            chunk_size: self.chunk_size,
            query_mode: self.query_mode,
            match_limit: self.match_limit,
        }
    }

    /// Recover a crashed durable session from this configuration's
    /// durability root — shorthand for [`Session::recover`].
    ///
    /// # Errors
    ///
    /// See [`Session::recover`].
    pub fn recover(self) -> SessionResult<Recovered> {
        Session::recover(self)
    }
}

/// The durable half of a session: the write-ahead log, the graph mirror
/// every acknowledged batch reaches and the epochs of its checkpoints.
struct DurableState {
    root: PathBuf,
    wal: Wal,
    mirror: Mirror,
    /// The epoch the last checkpoint was taken at (recovery resumes it);
    /// the next one is taken at `epoch + 1`.
    epoch: u64,
    /// The newest epoch a checkpoint of this session wrote (0 before one).
    written: u64,
}

impl fmt::Debug for DurableState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableState")
            .field("root", &self.root)
            .field("wal_records", &self.wal.records())
            .finish_non_exhaustive()
    }
}

/// Make sure the durability root exists.
fn create_root(root: &Path) -> SessionResult<()> {
    std::fs::create_dir_all(root).map_err(|e| {
        SessionError::Store(StoreError::Io {
            path: root.to_path_buf(),
            source: e.to_string(),
        })
    })
}

/// The durable session's graph: every acknowledged batch applied in order.
enum Mirror {
    /// The graph itself: a fresh session's, one recovered without a
    /// checkpoint, and every session once it has written.
    Built(LabelledGraph),
    /// A session recovered from a checkpoint, before anything reads its
    /// graph: the proven arena — the `Arc` [`Recovered::store`] shares — and
    /// the log's batches past it. [`Mirror::graph`] builds the graph from
    /// them once, on first use, so a recovered session that only serves
    /// keeps one copy of its graph.
    Deferred {
        proven: Arc<ShardedStore>,
        tail: Vec<Vec<StreamElement>>,
        spans: RecoverSpans,
    },
}

impl Mirror {
    /// The mirror as a graph: a deferred one is built here — the proven
    /// arena's graph ([`ShardedStore::to_graph`]), then the log's tail
    /// applied — charged to `recover.mirror`, and kept.
    fn graph(&mut self) -> &mut LabelledGraph {
        if let Mirror::Deferred {
            proven,
            tail,
            spans,
        } = self
        {
            let span = spans.mirror();
            let graph = applied(proven.to_graph(), tail);
            drop(span);
            *self = Mirror::Built(graph);
        }
        let Mirror::Built(graph) = self else {
            unreachable!("a deferred mirror was built above")
        };
        graph
    }
}

/// `graph` with `batches` applied in order ([`LabelledGraph::apply`], the
/// semantics an acknowledged batch reaches the mirror with).
fn applied(mut graph: LabelledGraph, batches: &[Vec<StreamElement>]) -> LabelledGraph {
    for element in batches.iter().flatten() {
        graph.apply(element);
    }
    graph
}

impl DurableState {
    /// Stand up a **fresh** durability root: refuses to clobber one that
    /// already holds any log segment or any checkpoint directory (that state
    /// belongs to [`Session::recover`]).
    fn create(root: &Path, builder: &SessionBuilder) -> SessionResult<Self> {
        create_root(root)?;
        let checkpoints = std::fs::read_dir(root.join(CHECKPOINT_DIR));
        if !segments(root)?.is_empty() || checkpoints.is_ok_and(|mut dirs| dirs.next().is_some()) {
            return Err(SessionError::Durability(format!(
                "{} already holds durable state; use Session::recover to resume it \
                 (or point with_durability at a fresh directory)",
                root.display()
            )));
        }
        let wal = Wal::create(&segment_path(root, 0))?;
        Ok(Self::attach(
            root,
            wal,
            Mirror::Built(LabelledGraph::with_capacity(
                builder.spec.expected_vertices(),
                0,
            )),
            0,
            builder.telemetry.as_ref(),
        ))
    }

    /// Wrap recovered (or fresh) state: resume the epoch counter at
    /// `epoch_seq`, and — when the session is observed — point the WAL at
    /// the telemetry bundle's `store.fsync` histogram.
    fn attach(
        root: &Path,
        mut wal: Wal,
        mirror: Mirror,
        epoch_seq: u64,
        telemetry: Option<&Arc<Telemetry>>,
    ) -> Self {
        if let Some(t) = telemetry {
            wal.set_fsync_histogram(t.stage_histogram(stage::STORE_FSYNC));
        }
        Self {
            root: root.to_path_buf(),
            wal,
            mirror,
            epoch: epoch_seq,
            written: 0,
        }
    }
}

/// The ingest-stage histograms an observed session resolves once at build
/// time, so the per-batch hot path is a handle deref, not a registry lookup.
struct IngestSpans {
    wal_append: Arc<Histogram>,
    partition: Arc<Histogram>,
    apply_delete: Arc<Histogram>,
}

impl IngestSpans {
    fn resolve(telemetry: &Telemetry) -> Self {
        Self {
            wal_append: telemetry.stage_histogram(stage::INGEST_WAL_APPEND),
            partition: telemetry.stage_histogram(stage::INGEST_PARTITION),
            apply_delete: telemetry.stage_histogram(stage::INGEST_APPLY_DELETE),
        }
    }
}

/// A live partitioning session: one partitioner consuming a graph stream,
/// ready to hand the result off for query serving.
pub struct Session {
    partitioner: Box<dyn Partitioner>,
    durable: Option<DurableState>,
    ingest_spans: Option<IngestSpans>,
    telemetry: Option<Arc<Telemetry>>,
    spec: PartitionerSpec,
    workload: Option<Workload>,
    chunk_size: usize,
    query_mode: QueryMode,
    match_limit: Option<usize>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("partitioner", &self.partitioner.name())
            .field("spec", &self.spec)
            .field("chunk_size", &self.chunk_size)
            .field("workload", &self.workload.is_some())
            .field("durable", &self.durable.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl Session {
    /// Start building a session around a declarative partitioner spec.
    pub fn builder(spec: PartitionerSpec) -> SessionBuilder {
        SessionBuilder {
            spec,
            workload: None,
            chunk_size: DEFAULT_BATCH_SIZE,
            query_mode: QueryMode::default(),
            match_limit: None,
            durability: None,
            telemetry: None,
        }
    }

    /// The partitioner's short, stable name.
    pub fn partitioner_name(&self) -> &'static str {
        self.partitioner.name()
    }

    /// Feed a single stream element. On a durable session the element is
    /// WAL-appended (and fsynced) as a one-element batch before the
    /// partitioner sees it.
    ///
    /// # Errors
    ///
    /// Propagates partitioner assignment and WAL-append errors.
    pub fn ingest(&mut self, element: &StreamElement) -> SessionResult<()> {
        self.ingest_batch(std::slice::from_ref(element))
    }

    /// Feed a contiguous chunk of stream elements at once. On a durable
    /// session the batch is WAL-appended (and fsynced) **before** it reaches
    /// the partitioner — on `Ok`, the batch survives a crash. Once the
    /// partitioner has it, the batch is applied to the session's
    /// [`LabelledGraph`] mirror on this thread, so the mirror is never behind
    /// what was acknowledged and nothing has to be drained later. The mirror
    /// is the only copy of the adjacency an ingesting session keeps: every
    /// checkpoint's blobs are encoded from it. A session recovered from a
    /// checkpoint builds it on its first write (or checkpoint, or
    /// `serve_ingested`) from the proven arena plus the log behind that, and
    /// charges the build to `recover.mirror`.
    ///
    /// # Errors
    ///
    /// Propagates partitioner assignment and WAL-append errors.
    pub fn ingest_batch(&mut self, batch: &[StreamElement]) -> SessionResult<()> {
        if let Some(durable) = self.durable.as_mut() {
            let span = SpanTimer::start(self.ingest_spans.as_ref().map(|s| &*s.wal_append));
            let appended = durable.wal.append(batch);
            drop(span);
            appended?;
        }
        let span = SpanTimer::start(self.ingest_spans.as_ref().map(|s| &*s.partition));
        let ingested = self.partitioner.ingest_batch(batch);
        drop(span);
        ingested?;
        if let Some(durable) = self.durable.as_mut() {
            let graph = durable.mirror.graph();
            // Batches carrying destructive elements charge the mirror
            // application to `ingest.apply_delete`; insert-only batches stay
            // off that series so its count is the number of mutating batches.
            let span = if batch.iter().any(|e| e.is_mutation()) {
                SpanTimer::start(self.ingest_spans.as_ref().map(|s| &*s.apply_delete))
            } else {
                SpanTimer::start(None)
            };
            for element in batch {
                graph.apply(element);
            }
            drop(span);
        }
        Ok(())
    }

    /// Feed a whole stream, chunked at the session's configured chunk size
    /// (each chunk is one WAL record on a durable session).
    ///
    /// # Errors
    ///
    /// Propagates partitioner assignment and WAL-append errors.
    pub fn ingest_stream(&mut self, stream: &GraphStream) -> SessionResult<()> {
        let chunk_size = self.chunk_size;
        for chunk in stream.elements().chunks(chunk_size) {
            self.ingest_batch(chunk)?;
        }
        Ok(())
    }

    /// Checkpoint the current partitioning under the next epoch sequence,
    /// write it to disk on this thread, and return the epoch. First the log
    /// is cut: unless its current segment is still empty, the next batch
    /// goes to a new segment starting at this checkpoint's record
    /// ([`Wal::rotate`]), so once the checkpoint and its fallback are both
    /// past a segment it can be deleted. Then the blobs are encoded straight
    /// from the graph mirror [`Session::ingest_batch`] keeps current, laid
    /// out by the partitioner's snapshot ([`CheckpointImage::from_graph`]:
    /// the mirror walked in id order, no copy of its rows, no store frozen), and written with
    /// the WAL records they fold in and the partitioner's state
    /// ([`Partitioner::encode_state`]) by [`commit_checkpoint`]. On `Ok(n)`
    /// checkpoint `n` is sealed — its `MANIFEST` on disk — the checkpoints
    /// it supersedes are pruned and the log segments behind them deleted.
    ///
    /// # Errors
    ///
    /// Fails on sessions built without [`SessionBuilder::with_durability`];
    /// when the new log segment cannot be created — then nothing is written
    /// and the epoch does not advance; and with the [`StoreError`] the write
    /// raised ([`StoreError::Io`] for a failed create, write or `fsync`).
    /// A failed write still uses up its epoch, because the log was already
    /// cut there: the next checkpoint takes the one after it. A checkpoint
    /// that is sealed but could not prune or retire what it supersedes
    /// returns that failure too; the next checkpoint tries again.
    pub fn checkpoint(&mut self) -> SessionResult<u64> {
        let Some(durable) = self.durable.as_mut() else {
            return Err(SessionError::Durability(
                "checkpoint() needs a durable session: configure with_durability(root)".into(),
            ));
        };
        durable.wal.rotate()?;
        let state = self.partitioner.encode_state();
        durable.epoch += 1;
        let image = CheckpointImage::from_graph(
            durable.mirror.graph(),
            self.partitioner.partitioning(),
            durable.epoch,
        );
        commit_checkpoint(
            &durable.root,
            &image,
            durable.wal.records(),
            self.partitioner.name(),
            &state,
            self.telemetry.as_deref(),
        )?;
        durable.written = durable.epoch;
        Ok(durable.epoch)
    }

    /// The newest epoch a [`Session::checkpoint`] of this session wrote, 0
    /// before one did. Every checkpoint is on disk when `checkpoint`
    /// returns, so there is nothing to wait for: `_timeout` is ignored.
    ///
    /// # Errors
    ///
    /// Fails on non-durable sessions.
    pub fn sync_durability(&self, _timeout: Duration) -> SessionResult<u64> {
        let durable = self.durable.as_ref().ok_or_else(|| {
            SessionError::Durability(
                "sync_durability() needs a durable session: configure with_durability(root)".into(),
            )
        })?;
        Ok(durable.written)
    }

    /// Number of batches fsynced to the write-ahead log so far, retired
    /// segments' included.
    pub fn wal_records(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.wal.records())
    }

    /// Finish a **durable** session and serve the graph it ingested — the
    /// durable layer mirrors every acknowledged batch, so no separate graph
    /// argument is needed (compare [`Session::serve`]). The mirror is moved
    /// into the freeze, not copied; a recovered session that has not written
    /// yet builds it here first, from the proven arena and the log's tail.
    ///
    /// # Errors
    ///
    /// Fails on non-durable sessions; propagates flush errors.
    pub fn serve_ingested(mut self) -> SessionResult<Serving> {
        let Some(durable) = self.durable.as_mut() else {
            return Err(SessionError::Durability(
                "serve_ingested() needs a durable session: configure with_durability(root) \
                 or pass the graph to serve()"
                    .into(),
            ));
        };
        // The session is spent here: move the mirror out, do not copy it.
        let graph = std::mem::take(durable.mirror.graph());
        self.serve(graph)
    }

    /// A non-destructive copy of the partitioning built so far (buffered
    /// vertices are still awaiting placement and are not included).
    pub fn snapshot(&self) -> Partitioning {
        self.partitioner.snapshot()
    }

    /// Unified ingestion counters.
    pub fn stats(&self) -> PartitionerStats {
        self.partitioner.stats()
    }

    /// Flush buffered vertices and move the final partitioning out, spending
    /// the session's partitioner. Prefer [`Session::serve`] to continue into
    /// query serving.
    ///
    /// # Errors
    ///
    /// Propagates partitioner assignment errors from the flush.
    pub fn into_partitioning(mut self) -> SessionResult<Partitioning> {
        Ok(self.partitioner.finish()?)
    }

    /// Finish partitioning and hand off to the serving layer: `graph` is
    /// frozen under the final partitioning into the one [`ShardedStore`]
    /// every engine of the returned [`Serving`] runs on, stamped epoch 1 —
    /// the epoch a first published snapshot carries — and dropped: no
    /// serving handle keeps a graph. Then every workload query is compiled
    /// **once** into a plan against the store's statistics
    /// ([`ShardedStore::statistics`], the graph's to the digit; the
    /// compile-once step every engine below reuses). The handle's one
    /// [`ServeEngine`] is configured from the session.
    ///
    /// # Errors
    ///
    /// Propagates partitioner assignment errors from the final flush.
    pub fn serve(mut self, graph: LabelledGraph) -> SessionResult<Serving> {
        let partitioning = self.partitioner.finish()?;
        let store = ShardedStore::from_parts(&graph, &partitioning).with_epoch(1);
        drop(graph);
        let plans = self.compile_plans(&store);
        Ok(self.serving_over(Arc::new(store), partitioning, plans))
    }

    /// The compile-once step: every workload query planned against the
    /// statistics of the graph `store` holds, read off the store (`None`
    /// without a workload).
    fn compile_plans(&self, store: &ShardedStore) -> Option<Arc<PlanCache>> {
        self.workload.as_ref().map(|workload| {
            let stats = store.statistics();
            let planner = QueryPlanner::new(PlanStrategy::default());
            Arc::new(PlanCache::compile(&planner, workload, &stats))
        })
    }

    /// The one place a [`Serving`] is wired (live and recovered alike): one
    /// [`ServeEngine`] carrying the session's query mode, match limit and
    /// telemetry over `plans`, which every engine the handle stands up
    /// clones, in front of `store`, the arena that holds the served graph
    /// under `partitioning`.
    fn serving_over(
        &self,
        store: Arc<ShardedStore>,
        partitioning: Partitioning,
        plans: Option<Arc<PlanCache>>,
    ) -> Serving {
        let mut config = ServeConfig::new(1).with_mode(self.query_mode);
        if let Some(limit) = self.match_limit {
            config = config.with_match_limit(limit);
        }
        let mut engine = ServeEngine::new(config);
        if let Some(plans) = plans {
            engine = engine.with_plan_cache(plans);
        }
        if let Some(telemetry) = &self.telemetry {
            engine = engine.with_telemetry(Arc::clone(telemetry));
        }
        Serving {
            store,
            partitioning,
            engine,
            workload: self.workload.clone(),
        }
    }

    /// Bring a crashed (or cleanly stopped) durable session back. The newest
    /// valid checkpoint under the builder's durability root is read straight
    /// into the store's arena and proven on a thread of its own — arena
    /// invariants, manifest totals, bit identity. Meanwhile this thread
    /// decodes the WAL from the segment holding the checkpoint's record on
    /// ([`loom_store::recover`]; the segments before it, which the
    /// checkpoint folded in, are neither read nor required) and, if the
    /// checkpoint's partitioner and `k` are this builder's, rebuilds the
    /// session out of the checkpoint as read. A fresh partitioner built from
    /// the same configuration is **restored** ([`Partitioner::restore_state`]:
    /// the checkpoint's partitioner blob, the assignment read off the arena)
    /// and the restore proven — re-encoded, it must give back the blob's
    /// bytes. It is fed the log past the checkpoint, and lands in the exact
    /// pre-crash state, streaming window included. A checkpoint without a
    /// partitioner blob (written by [`loom_store::write_checkpoint`], or
    /// before the blob existed) restores nothing, and the whole log is
    /// replayed instead. None of it is kept unless the checkpoint's proof
    /// holds. Recovery builds no graph out of the arena: the durable graph
    /// mirror — the graph the arena holds plus the batches the log
    /// holds past the checkpoint — is kept as that arena (the `Arc`
    /// [`Recovered::store`] shares) and those batches, and built only when
    /// the session first writes, checkpoints or calls
    /// [`Session::serve_ingested`]. With no checkpoint there is no arena:
    /// the mirror is the empty graph plus the whole log, built here, and the
    /// recovered store is frozen from it. Serving resumes pinned at the
    /// checkpoint's original `epoch_seq`. The newest log segment's torn
    /// tail is truncated only once everything that can fail has succeeded:
    /// a recovery that fails leaves the root as found. Recovery deletes no
    /// segment; the next [`Session::checkpoint`] retires what is folded in.
    ///
    /// # Errors
    ///
    /// Fails when the builder has no durability root, when on-disk state is
    /// corrupt beyond the WAL's torn tail (a partitioner blob that does not
    /// decode, disagrees with the arena or does not re-encode to itself
    /// included), when the WAL holds fewer records than the checkpoint
    /// folded in or is missing a segment the recovery needs (a checkpoint
    /// without a partitioner blob needs them all), when the checkpoint was
    /// written by a different partitioner, configuration or workload, or when
    /// replay hits an assignment error.
    pub fn recover(builder: SessionBuilder) -> SessionResult<Recovered> {
        let root = builder.durability.clone().ok_or_else(|| {
            SessionError::Durability(
                "recover() needs a durability root: configure with_durability(root)".into(),
            )
        })?;
        create_root(&root)?;
        let spans = builder
            .telemetry
            .as_deref()
            .map(RecoverSpans::resolve)
            .unwrap_or_default();
        let (mut state, rebuilt) = loom_store::recover(&root, &spans, |beside| {
            let tail_len = beside.tail().len();
            rebuild(&builder, &root, &spans, beside).map(|partitioner| (partitioner, tail_len))
        })?;
        let (partitioner, tail_len) = rebuilt?;
        let report = state.report.clone();

        // Everything that can fail has succeeded: now the only write.
        let wal = state.resume_wal()?;
        if let Some(t) = &builder.telemetry {
            if report.wal_truncated_bytes > 0 {
                t.flight().record(FlightKind::WalTruncated {
                    bytes: report.wal_truncated_bytes,
                });
            }
        }
        // Keep only the batches past the checkpoint: what its arena lacks.
        let mut tail = std::mem::take(&mut state.batches);
        tail.drain(..tail.len() - tail_len);
        let (store, mirror) = match state.checkpoint {
            Some(checkpoint) => {
                let store = Arc::new(checkpoint.store.with_epoch(report.epoch_seq));
                let proven = Arc::clone(&store);
                (
                    store,
                    Mirror::Deferred {
                        proven,
                        tail,
                        spans,
                    },
                )
            }
            None => {
                let span = spans.mirror();
                let empty = LabelledGraph::with_capacity(builder.spec.expected_vertices(), 0);
                let graph = applied(empty, &tail);
                drop(span);
                let store = ShardedStore::from_parts(&graph, partitioner.partitioning());
                (Arc::new(store), Mirror::Built(graph))
            }
        };
        let durable = DurableState::attach(
            &root,
            wal,
            mirror,
            report.epoch_seq,
            builder.telemetry.as_ref(),
        );
        Ok(Recovered {
            session: builder.into_session(partitioner, Some(durable)),
            store,
            report,
            serving: OnceLock::new(),
        })
    }
}

/// What [`Session::recover`] builds beside the checkpoint's proof, out of
/// the checkpoint as read and the decoded log: the partitioner, restored
/// from the checkpoint's state when it carries one, then fed the log from
/// where that state ends. No graph is built here: the mirror waits for the
/// proven arena ([`Mirror::Deferred`]). A checkpoint another partitioner or
/// another `k` wrote is refused before anything is built.
/// [`loom_store::recover`] hands the result on only once the checkpoint is
/// proven, and drops it otherwise.
fn rebuild(
    builder: &SessionBuilder,
    root: &Path,
    spans: &RecoverSpans,
    beside: Beside<'_>,
) -> SessionResult<Box<dyn Partitioner>> {
    if let Some(meta) = beside.checkpoint.map(|c| c.meta) {
        if meta.spec != builder.spec.name() {
            return Err(SessionError::Durability(format!(
                "checkpoint at {} was written by partitioner `{}`, but this session \
                 is configured for `{}`",
                root.display(),
                meta.spec,
                builder.spec.name()
            )));
        }
        if meta.shards != builder.spec.k() {
            return Err(SessionError::Durability(format!(
                "checkpoint at {} has {} shards, but this session is configured \
                 for k = {}",
                root.display(),
                meta.shards,
                builder.spec.k()
            )));
        }
    }

    let mut partitioner = builder.make_partitioner()?;
    let span = spans.replay();
    if let Some(checkpoint) = beside.checkpoint {
        if let Some(blob) = checkpoint.partitioner {
            restore_partitioner(&mut *partitioner, blob, checkpoint.arena)?;
        }
    }
    for batch in beside.replay() {
        partitioner.ingest_batch(batch)?;
    }
    drop(span);
    Ok(partitioner)
}

/// Restore a freshly built `partitioner` from a checkpoint's partitioner
/// `blob` and the homes its `arena` holds, then prove the restore:
/// re-encoded, the partitioner must give back the blob's bytes exactly.
fn restore_partitioner(
    partitioner: &mut dyn Partitioner,
    blob: &PartitionerBlob,
    arena: ArenaView<'_>,
) -> SessionResult<()> {
    let corrupt = |detail: String| {
        SessionError::Store(StoreError::Corrupt {
            path: blob.path.clone(),
            detail,
        })
    };
    match partitioner.restore_state(&blob.bytes, &mut arena.homes()) {
        Ok(()) => {}
        Err(PartitionError::StateMismatch(detail)) => {
            return Err(SessionError::Durability(format!(
                "{}: {detail}",
                blob.path.display()
            )))
        }
        Err(PartitionError::CorruptState(detail)) => return Err(corrupt(detail)),
        Err(other) => return Err(other.into()),
    }
    if partitioner.encode_state() != blob.bytes {
        return Err(corrupt(
            "the restored partitioner does not re-encode to its blob".into(),
        ));
    }
    Ok(())
}

/// A durable session brought back by [`Session::recover`]: the live
/// [`Session`] (ready to keep ingesting against the reopened WAL) plus the
/// recovered checkpoint state, pinned at its pre-crash epoch, ready to
/// serve.
#[derive(Debug)]
pub struct Recovered {
    session: Session,
    store: Arc<ShardedStore>,
    report: RecoveryReport,
    /// Serving over `store` itself, set up on first use: the assignment
    /// `store` holds, read off its homes — never from the WAL replay, so this
    /// handle stays consistent with the checkpoint's blobs whatever the
    /// builder's configuration says — and plans compiled once from its
    /// statistics ([`ShardedStore::statistics`]: no graph is built), shared
    /// by every engine this handle stands up (the compile-once contract).
    serving: OnceLock<Serving>,
}

impl Recovered {
    /// Epoch sequence serving resumes at (0 when no checkpoint existed).
    pub fn epoch_seq(&self) -> u64 {
        self.report.epoch_seq
    }

    /// What recovery found on disk.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The recovered sharded store, bit-identical to the checkpointed one
    /// and stamped with its original epoch.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// The checkpointed vertex→partition assignment, derived from the
    /// recovered store on first use.
    pub fn partitioning(&self) -> &Partitioning {
        self.serving().partitioning()
    }

    /// The live session: keep ingesting (WAL-backed), checkpoint again, or
    /// finish into serving.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Give up the recovered snapshot and keep only the live session.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Sequential serving over the recovered store itself — no store is
    /// rebuilt and no graph is built: the handle's arena is
    /// [`Recovered::store`], its partitioning the arena's homes — configured
    /// exactly like the original session (same query mode and match limit;
    /// plans compiled once from the recovered store's statistics, which
    /// equal the checkpointed graph's, and shared with
    /// [`Recovered::sharded`]). Set up on the first call; every call
    /// returns the same handle. Its [`Serving::adaptive`] engine starts at
    /// [`Recovered::epoch_seq`] and publishes from the epoch after it.
    pub fn serving(&self) -> &Serving {
        self.serving.get_or_init(|| {
            let plans = self.session.compile_plans(&self.store);
            self.session
                .serving_over(Arc::clone(&self.store), self.store.to_partitioning(), plans)
        })
    }

    /// Concurrent serving over the recovered store with `workers` worker
    /// shards ([`Serving::sharded`] of [`Recovered::serving`]) — the store
    /// keeps its pre-crash `epoch_seq`, so per-shard metrics are directly
    /// diffable against the pre-crash run.
    pub fn sharded(&self, workers: usize) -> ShardedServing {
        self.serving().sharded(workers)
    }
}

/// The serving half of a session: the one [`ShardedStore`] every engine of
/// this handle runs on — the only in-memory form of the served graph, frozen
/// by [`Session::serve`] or recovered by [`Session::recover`] — the final
/// partitioning, and the one [`ServeEngine`] — query mode, match limit,
/// compiled plan cache and telemetry — that its sequential runs use and its
/// sharded and adaptive engines clone. Read the graph back with
/// `store().to_graph()`.
/// It is not `Clone`: a copy would carry the partitioning again.
#[derive(Debug)]
pub struct Serving {
    store: Arc<ShardedStore>,
    partitioning: Partitioning,
    engine: ServeEngine,
    workload: Option<Workload>,
}

impl Serving {
    /// The sharded store every engine of this handle runs on.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// The final partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The session's workload, if one was configured.
    pub fn workload(&self) -> Option<&Workload> {
        self.workload.as_ref()
    }

    /// Stand up the concurrent serving engine with `workers` worker shards
    /// over [`Serving::store`] — the same `Arc` for every call. The engine
    /// is this handle's own with the worker count set: the session's query
    /// mode, match limit **and compiled plan cache**, so its aggregate
    /// metrics are directly comparable to (in fact, identical to) the
    /// sequential [`Serving::run`] path for the same request.
    pub fn sharded(&self, workers: usize) -> ShardedServing {
        ShardedServing {
            store: Arc::clone(self.store()),
            engine: self.engine.clone().with_workers(workers),
            workload: self.workload.clone(),
        }
    }

    /// Stand up **adaptive** serving with `workers` worker shards: the
    /// `loom-adapt` loop tracks the observed query mix against the session's
    /// mined workload, and on drift incrementally migrates the placement —
    /// rebuilding only the affected shards and publishing the result as a new
    /// epoch, while in-flight queries keep their pinned snapshot. The engine
    /// inherits the session's query mode and match limit like
    /// [`Serving::sharded`].
    ///
    /// The adaptive engine shares [`Serving::store`] as its first epoch and
    /// copies only the partitioning; its mutations, compactions and
    /// migrations publish snapshots of its own, never writing through the
    /// shared one. It is not durable: its `apply_mutations` ignores
    /// `AddVertex` / `AddEdge`, and none of its tombstones, compactions or
    /// drift migrations reaches the session's WAL — a crash recovers the
    /// placement from before every migration (ROADMAP item 15(c)).
    ///
    /// # Errors
    ///
    /// Fails when the session was built without a workload — drift is
    /// measured against the mined mix, so adaptive serving requires one.
    pub fn adaptive(&self, workers: usize, config: AdaptConfig) -> SessionResult<AdaptiveServing> {
        let Some(workload) = &self.workload else {
            return Err(SessionError::MissingWorkload("adaptive serving"));
        };
        Ok(AdaptiveServing::new(
            Arc::clone(&self.store),
            self.partitioning.clone(),
            workload.clone(),
            self.engine.clone().with_workers(workers),
            config,
        ))
    }
}

/// The sequential face of the unified engine API: requests run on the
/// calling thread through [`ServeEngine::run_sequential`] of the handle's
/// engine over [`Serving::store`] and the shared compiled plan cache. The
/// [`RequestContext`]'s deadline and cancellation token are observed by
/// every scheduled execution.
///
/// Sessions without a workload return an empty response for workload
/// requests (there is nothing to sample).
impl QueryEngine for Serving {
    fn run_ctx(&self, request: QueryRequest, ctx: &RequestContext) -> QueryResponse {
        match &self.workload {
            Some(workload) => {
                self.engine
                    .run_sequential(self.store.as_ref(), workload, request, ctx)
            }
            None => QueryResponse::from_engine(ExecutionMetrics::default(), Vec::new()),
        }
    }

    fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.engine.plan_cache()
    }
}

/// The concurrent serving half of a session: an immutable sharded snapshot
/// plus the `loom-serve` engine, created by [`Serving::sharded`] or
/// [`Recovered::sharded`].
#[derive(Debug, Clone)]
pub struct ShardedServing {
    store: Arc<ShardedStore>,
    engine: ServeEngine,
    workload: Option<Workload>,
}

impl ShardedServing {
    /// The pinned sharded snapshot.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Execute a unified [`QueryRequest`] and return both the per-shard
    /// [`ServeReport`] and the request's [`QueryResponse`]. Sessions without
    /// a workload serve an empty report.
    pub fn serve_request(&self, request: QueryRequest) -> (ServeReport, QueryResponse) {
        match &self.workload {
            Some(workload) => {
                self.engine
                    .run(&self.store, workload, request, &RequestContext::unbounded())
            }
            None => (ServeReport::default(), self.run(request)),
        }
    }

    /// Drive this serving stack **open-loop** through `loom-load`: pace the
    /// config's seeded arrival schedule against this handle's engine and the
    /// work its queries really do, never blocking on backpressure, and
    /// return the per-step capacity table with its detected saturation knee.
    ///
    /// # Errors
    ///
    /// Fails when the session was built without a workload — the arrival
    /// schedule needs queries to offer.
    pub fn capacity(&self, config: &LoadConfig) -> SessionResult<CapacityRun> {
        let Some(workload) = &self.workload else {
            return Err(SessionError::MissingWorkload("capacity measurement"));
        };
        Ok(run_capacity(&self.engine, &self.store, workload, config))
    }
}

/// The concurrent face of the unified engine API: requests are routed and
/// executed across the worker shards from the same compiled plans as the
/// sequential path, so for any request without a deadline or cancellation
/// `run` returns **identical** metrics (and cursor contents) to
/// [`Serving::run`] over the same session. The context's deadline
/// (tightened by the request's own) bounds admission and execution, and
/// firing its cancel token cooperatively unwinds every in-flight worker.
/// Sessions without a workload return an empty response.
impl QueryEngine for ShardedServing {
    fn run_ctx(&self, request: QueryRequest, ctx: &RequestContext) -> QueryResponse {
        match &self.workload {
            Some(workload) => self.engine.run(&self.store, workload, request, ctx).1,
            None => QueryResponse::from_engine(ExecutionMetrics::default(), Vec::new()),
        }
    }

    fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.engine.plan_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::ordering::StreamOrder;
    use loom_graph::{Label, VertexId};
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};
    use loom_partition::ldg::LdgConfig;
    use loom_partition::spec::LoomConfig;

    #[test]
    fn full_pipeline_runs_through_the_facade() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let spec =
            PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
        let mut session = Session::builder(spec)
            .workload(workload)
            .chunk_size(3)
            .build()
            .unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        session.ingest_stream(&stream).unwrap();
        assert_eq!(session.partitioner_name(), "loom");
        assert_eq!(session.stats().vertices_ingested, graph.vertex_count());
        let serving = session.serve(graph.clone()).unwrap();
        assert_eq!(
            serving.partitioning().assigned_count(),
            graph.vertex_count()
        );
        // Plans were compiled once per workload query at serve() time.
        let cache = serving
            .plan_cache()
            .expect("workload session compiles plans");
        assert_eq!(cache.len(), 3);
        let response = serving.run(QueryRequest::workload(200).with_seed(7));
        assert_eq!(response.metrics.queries_executed, 200);
        assert!(response.metrics.inter_partition_probability() <= 1.0);
        // One resolution per distinct sampled query — observably reused.
        assert!(cache.hits() >= 1 && cache.hits() <= cache.len());
    }

    #[test]
    fn baselines_run_without_a_workload() {
        let graph = paper_example_graph();
        let spec = PartitionerSpec::Ldg(LdgConfig::new(2, graph.vertex_count()));
        let mut session = Session::builder(spec).build().unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        session.ingest_stream(&stream).unwrap();
        let partitioning = session.into_partitioning().unwrap();
        assert_eq!(partitioning.assigned_count(), graph.vertex_count());
    }

    #[test]
    fn loom_spec_without_workload_is_rejected_at_build() {
        let spec = PartitionerSpec::Loom(LoomConfig::new(2, 8));
        let err = Session::builder(spec).build().expect_err("must fail");
        assert!(err.to_string().contains("workload"));
    }

    #[test]
    fn serving_without_workload_serves_empty_responses() {
        let graph = paper_example_graph();
        let spec = PartitionerSpec::Ldg(LdgConfig::new(2, graph.vertex_count()));
        let mut session = Session::builder(spec).build().unwrap();
        session
            .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
            .unwrap();
        let serving = session.serve(graph).unwrap();
        assert!(serving.plan_cache().is_none(), "no workload, no plans");
        // The unified API serves an empty response instead of failing.
        let response = serving.run(QueryRequest::workload(10));
        assert_eq!(response.metrics.queries_executed, 0);
    }

    #[test]
    fn unified_api_agrees_across_engines_and_reports() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let spec =
            PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
        let mut session = Session::builder(spec).workload(workload).build().unwrap();
        session
            .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
            .unwrap();
        let serving = session.serve(graph).unwrap();
        let request = QueryRequest::workload(60).with_seed(9);
        let sharded = serving.sharded(2);
        // The per-shard report's aggregate is the response's metrics.
        let (report, response) = sharded.serve_request(request);
        assert_eq!(report.aggregate, response.metrics);
        assert!(report.shards.iter().all(|s| s.rejected == 0));
        // Sequential and sharded answers agree request-for-request, and an
        // unbounded context reproduces `run` exactly.
        assert_eq!(serving.run(request).metrics, sharded.run(request).metrics);
        assert_eq!(
            serving
                .run_ctx(request, &RequestContext::unbounded())
                .metrics,
            sharded.run(request).metrics
        );
    }

    #[test]
    fn deadline_bounded_request_flags_the_response() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let spec =
            PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
        let mut session = Session::builder(spec).workload(workload).build().unwrap();
        session
            .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
            .unwrap();
        let serving = session.serve(graph).unwrap();
        let expired = std::time::Instant::now() - std::time::Duration::from_secs(1);
        let request = QueryRequest::workload(25)
            .with_seed(3)
            .with_deadline(expired);
        let response = serving.run(request);
        assert_eq!(response.metrics.queries_executed, 25);
        assert_eq!(response.metrics.total_traversals, 0);
        assert!(response.metrics.deadline_exceeded);
        // The sharded engine reports the same short-circuit.
        let sharded = serving.sharded(2);
        let sharded_response = sharded.run(request);
        assert_eq!(sharded_response.metrics.queries_executed, 25);
        assert_eq!(sharded_response.metrics.total_traversals, 0);
        assert!(sharded_response.metrics.deadline_exceeded);
    }

    #[test]
    fn adaptive_serving_stands_up_through_the_facade() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let spec =
            PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
        let mut session = Session::builder(spec).workload(workload).build().unwrap();
        session
            .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
            .unwrap();
        let serving = session.serve(graph).unwrap();
        let full = QueryRequest::workload(40)
            .with_seed(5)
            .with_mode(QueryMode::FullEnumeration)
            .collect_matches(true);
        let before = serving.run(full);
        let workload = paper_example_workload();
        let mut adaptive = serving.adaptive(2, AdaptConfig::default()).unwrap();
        // Before any publish the adaptive engine serves the handle's own
        // snapshot: shared, not copied and frozen a second time.
        let shared = Arc::clone(serving.store());
        assert!(Arc::ptr_eq(&adaptive.epochs().load(), &shared));
        let (report, outcome) = adaptive.serve(&workload, 50, 5).unwrap();
        assert_eq!(report.queries, 50);
        // Matching traffic: no adaptation fires.
        assert!(outcome.is_none());
        assert_eq!(adaptive.current_epoch(), 1);

        // A removal-and-relabel batch, a compaction and a drifted batch that
        // adapts each publish a snapshot of the adaptive engine's own...
        let mutated = adaptive.apply_mutations(&[
            StreamElement::RemoveVertex {
                id: VertexId::new(8),
            },
            // d → c.
            StreamElement::Relabel {
                id: VertexId::new(7),
                label: Label::new(2),
            },
        ]);
        assert_eq!((mutated.removed_vertices, mutated.relabelled), (1, 1));
        assert_eq!(adaptive.compact_now(0.0).purged_vertices, 1);
        let queries = workload.queries().iter().cloned();
        let drifted = Workload::new(queries.zip([1.0, 1.0, 40.0]).collect()).unwrap();
        let (_, outcome) = adaptive.serve(&drifted, 200, 6).unwrap();
        assert!(outcome.is_some(), "the drifted mix runs an adaptation pass");
        assert!(adaptive.current_epoch() >= 3);
        // ...and the handle's snapshot is never written through: it is the
        // same `Arc`, and it answers exactly as it did before.
        assert!(Arc::ptr_eq(serving.store(), &shared));
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.tombstoned_vertices(), 0);
        assert_eq!(shared.vertex_count(), 8);
        let after = serving.run(full);
        assert_eq!(after.metrics, before.metrics);
        assert!(after.metrics.matches_found > 0);
        assert!(after.into_cursor().eq(before.into_cursor()));
    }

    #[test]
    fn adaptive_serving_without_workload_is_rejected() {
        let graph = paper_example_graph();
        let spec = PartitionerSpec::Ldg(LdgConfig::new(2, graph.vertex_count()));
        let mut session = Session::builder(spec).build().unwrap();
        session
            .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
            .unwrap();
        let serving = session.serve(graph).unwrap();
        assert!(serving.adaptive(2, AdaptConfig::default()).is_err());
    }

    #[test]
    fn snapshot_mid_stream_is_partial_but_consistent() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let spec =
            PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
        let mut session = Session::builder(spec).workload(workload).build().unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let half = stream.len() / 2;
        session.ingest_batch(&stream.elements()[..half]).unwrap();
        let snap = session.snapshot();
        assert!(snap.assigned_count() <= graph.vertex_count());
        // Continue after the snapshot: the session is undisturbed.
        session.ingest_batch(&stream.elements()[half..]).unwrap();
        let partitioning = session.into_partitioning().unwrap();
        assert_eq!(partitioning.assigned_count(), graph.vertex_count());
    }
}
