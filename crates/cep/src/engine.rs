//! The sharded, stream-driven, multi-query CEP engine.
//!
//! The eSPICE prototype deliberately throttles itself to a single operator
//! thread; this engine is the scale-out counterpart. It hash-partitions the
//! window population by global window id across `N` independent [`Shard`]s,
//! fed through **bounded per-shard SPSC queues**: the producer thread pulls
//! events incrementally from an [`EventSource`], appends them once into a
//! sequence-stamped shared [`EventChunk`](crate::arena::EventChunk), and
//! broadcasts each sealed chunk to every shard's queue as an `Arc`
//! reference, blocking while a queue is full (backpressure), while each
//! shard's scoped thread drains its own queue and scans the shared chunks
//! in place (see [`ShardedEngine::set_chunk_capacity`]). Shards therefore
//! start before the stream is fully buffered, and the *measured* queue
//! depth and drain rate are reported back to the deciders (see
//! [`ShardedEngine::set_check_interval`]) — the hook eSPICE's closed-loop
//! overload detection attaches to. [`ShardedEngine::run`] remains as the
//! slice-compatible wrapper over the same pipeline.
//!
//! # One ingestion pipeline, N queries
//!
//! An engine executes a whole [`QuerySet`]: each shard owns one
//! [`Operator`] **per query** (each with its own [`WindowEventDecider`]
//! instance) and offers every event to all of them in a fused assignment
//! pass. The ingestion costs are paid once per shard, not once per query —
//! one chunk hand-off per shard covering a whole batch of events, one
//! window-open evaluation per *distinct* open policy — which is what makes
//! the fused engine faster than N independent engines on the same stream.
//! Deciders and outputs are per query: `deciders[shard * queries + query]`
//! (shard-major), and the `*_per_query` run methods return each query's
//! complex events separately, byte-identical to what N independent
//! single-query engines would produce.
//!
//! # Query lifecycle
//!
//! The per-query axis is **live**: [`ShardedEngine::control`] hands out a
//! cloneable [`EngineControl`] whose `admit` / `retire` requests are
//! drained by the producer at event boundaries and broadcast *in-band*
//! into every shard queue, so they take effect at the same stream position
//! everywhere. An admitted query starts opening windows at the first event
//! after its admission and produces byte-identical output to a fresh
//! static engine started at that position; a retiring query stops opening
//! windows, drains its open windows to completion, and is then torn down
//! (operator, decider, size predictor). Lifecycle runs own their deciders
//! as type-erased [`BoxedDecider`] rows — rows grow on admission, shrink
//! on retirement, and may mix shedder types freely — via
//! [`run_source_live`](ShardedEngine::run_source_live) and
//! [`run_slice_live`](ShardedEngine::run_slice_live); the monomorphic
//! `&mut [D]` paths remain for static sets.
//!
//! Because window-open decisions depend only on the stream, every shard
//! derives the same global window ids without coordination, and the merged
//! output is *identical* (ids, constituents and order included) to a single
//! unsharded operator run — regardless of shard count, queue capacity or
//! thread timing — for any decider whose decisions are a function of
//! `(window id, position, event)`; on count-based windows, whose size is
//! exact, `predicted size` joins that list, which covers eSPICE (its
//! boundary-thinning accumulator is keyed per `(query, window id)`), so
//! shedded output is shard-invariant there. The exception is `predicted
//! size` on time-based (variable-size) windows: each query's shards share
//! one [`SharedSizePredictor`] — a per-query engine-wide running mean, so
//! predictions no longer drift with the shard count, but they deliberately
//! differ from the *local EWMA* a standalone [`Operator`] keeps (and their
//! mid-run values can vary with thread timing). Deciders that scale
//! positions by the predicted size (eSPICE on time windows) therefore match
//! the engine's own runs across shard counts, not a standalone operator's.
//!
//! [`Operator`]: crate::Operator
//! [`WindowEventDecider`]: crate::WindowEventDecider
//! [`EventSource`]: espice_events::EventSource
//! [`SharedSizePredictor`]: crate::SharedSizePredictor

use crate::arena::{ChunkBuilder, EventChunk};
use crate::faults::{ArmedFaults, FaultPlan};
use crate::lifecycle::{
    Anchoring, EngineControl, LifecycleReport, LifecycleRequest, LiveRunOutcome, ShardCommand,
    ShardInput,
};
use crate::queue::{spsc, QueueConsumer, QueueProducer, QueueStats};
use crate::resilience::{panic_message, EngineError, ShardFailure};
use crate::shard::DeciderRow;
use crate::window::{OwnershipPolicy, SharedSizePredictor};
use crate::{
    BoxedDecider, ComplexEvent, KeepAll, OperatorStats, Query, QueryHandle, QueryId, QuerySet,
    Shard, WindowEventDecider,
};
use espice_events::{Event, EventSource, EventStream, SliceSource};
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default capacity of each shard's bounded input queue, in hand-offs
/// (chunks on the chunked path): large enough to amortise
/// producer/consumer hand-off, small enough that backpressure engages well
/// before memory matters.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Default number of events batched into one shared [`EventChunk`] on the
/// streaming path: large enough that the per-chunk hand-off (one `Arc`
/// clone and one queue push per shard) amortises to noise per event, small
/// enough that the producer publishes work long before a queue could run
/// dry behind it.
pub const DEFAULT_CHUNK_CAPACITY: usize = 256;

/// How long a partial chunk may age in the producer of a *paced* source
/// before it is flushed to the shards: paced replay trades no hand-off
/// latency for batching. Saturated sources never read the clock.
const PACED_FLUSH_INTERVAL: Duration = Duration::from_millis(1);

/// Engine-level statistics: per-shard and per-query operator counters plus
/// their merged totals.
///
/// `merged.events_processed` counts each ingested stream event **once**
/// (every shard scans the whole stream for every query, so naively summing
/// would multiply the count by shards × queries); each `per_query` entry
/// reports the events *that query* processed — the full run for static
/// queries, the suffix from admission for queries admitted mid-stream, and
/// the prefix until the last window drained for retired ones. All other
/// counters are disjoint and sum exactly to what the corresponding single
/// operators would report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Totals across all shards and queries.
    pub merged: OperatorStats,
    /// Per-shard counters (merged over the shard's queries), indexed by
    /// shard. `events_processed` counts each event the shard saw once.
    pub per_shard: Vec<OperatorStats>,
    /// Per-query counters (merged over shards), indexed by query slot —
    /// each entry is comparable to the `merged` stats of a single-query
    /// engine running that query alone over the same span of the stream.
    /// Retired slots keep their final counters.
    pub per_query: Vec<OperatorStats>,
}

/// A rejected [`ShardedEngine`] configuration value.
///
/// The typed counterpart of the constructor/setter panics: every `try_*`
/// configuration entry point returns this, and the panicking wrappers
/// (`new`, `for_queries`, `set_queue_capacity`, …) format it into the
/// panic message, so existing callers observe the exact same text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `shard_count` was zero.
    ZeroShards,
    /// The per-shard queue capacity was zero.
    ZeroQueueCapacity,
    /// The events-per-chunk capacity was zero.
    ZeroChunkCapacity,
    /// The sampling interval was `Some(Duration::ZERO)`.
    ZeroCheckInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "the engine needs at least one shard"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
            ConfigError::ZeroChunkCapacity => write!(f, "chunk capacity must be at least 1"),
            ConfigError::ZeroCheckInterval => write!(f, "check interval must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates the shard-major decider count of a static run.
fn check_decider_count(
    got: usize,
    shards: usize,
    queries: usize,
    live_only: bool,
) -> Result<(), EngineError> {
    let expected = shards * queries;
    if got == expected {
        Ok(())
    } else {
        Err(EngineError::DeciderMismatch { expected, got, live_only })
    }
}

/// A sharded CEP engine executing a [`QuerySet`] across `N` worker shards.
///
/// # Example
///
/// ```
/// use espice_cep::{ShardedEngine, Operator, Query, Pattern, WindowSpec, KeepAll};
/// use espice_events::{Event, EventType, Timestamp, VecStream};
///
/// let a = EventType::from_index(0);
/// let b = EventType::from_index(1);
/// let query = Query::builder()
///     .pattern(Pattern::sequence([a, b]))
///     .window(WindowSpec::count_on_types(vec![a], 4))
///     .build();
/// let events: Vec<Event> = (0..16)
///     .map(|i| Event::new(if i % 4 == 0 { a } else { b }, Timestamp::from_secs(i), i))
///     .collect();
/// let stream = VecStream::from_ordered(events);
///
/// let mut engine = ShardedEngine::new(query.clone(), 4);
/// let sharded = engine.run_keep_all(&stream);
/// let single = Operator::new(query).run(&stream, &mut KeepAll);
/// assert_eq!(sharded, single);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    pub(crate) shards: Vec<Shard>,
    pub(crate) queries: QuerySet,
    /// The generation-stamped admission handle of every slot (index =
    /// slot). Initial queries carry generations `0..n`.
    handles: Vec<QueryHandle>,
    /// Which slots are currently live (`false` = retired).
    pub(crate) live: Vec<bool>,
    pub(crate) events_processed: u64,
    /// Capacity of each shard's bounded input queue on the streaming path,
    /// in hand-offs (chunks and in-band commands).
    pub(crate) queue_capacity: usize,
    /// Events batched per shared chunk on the streaming path; 1 ships
    /// single-event chunks.
    pub(crate) chunk_capacity: usize,
    /// Cadence at which drain loops report [`QueueSample`]s to their
    /// deciders; `None` (the default) disables sampling entirely so
    /// slice-style runs pay no clock reads.
    ///
    /// [`QueueSample`]: crate::QueueSample
    pub(crate) check_interval: Option<Duration>,
    /// Queue counters of the most recent streaming run, one per shard.
    pub(crate) queue_stats: Vec<QueueStats>,
    /// Window-size prediction shared by every shard, one predictor per
    /// query (no drift with the shard count on time-based windows).
    pub(crate) size_predictors: Vec<Arc<SharedSizePredictor>>,
    /// The last hint from [`set_window_size_hint`]; admitted queries with
    /// variable-size windows seed their fresh predictor from it, exactly
    /// as a fresh engine configured with the same hint would.
    ///
    /// [`set_window_size_hint`]: ShardedEngine::set_window_size_hint
    window_size_hint: Option<usize>,
    /// How window ownership is assigned across shards — see
    /// [`set_ownership_policy`](ShardedEngine::set_ownership_policy).
    ownership: OwnershipPolicy,
    /// The lifecycle control channel, created lazily by
    /// [`control`](ShardedEngine::control).
    control: Option<EngineControl>,
    control_rx: Option<Receiver<LifecycleRequest>>,
    /// Faults to inject into subsequent streaming runs (deterministic
    /// chaos testing); `None` — the default — arms nothing and costs one
    /// branch per queue hand-off.
    pub(crate) fault_plan: Option<FaultPlan>,
}

impl ShardedEngine {
    /// Creates an engine running the single `query` on `shard_count`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn new(query: Query, shard_count: usize) -> Self {
        Self::for_queries(QuerySet::single(query), shard_count)
    }

    /// Creates an engine running every query of `queries` on `shard_count`
    /// shards, sharing one ingestion pipeline (and, per shard, one event
    /// scan) across the whole set.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn for_queries(queries: QuerySet, shard_count: usize) -> Self {
        Self::try_for_queries(queries, shard_count).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) with a typed error instead of a panic.
    pub fn try_new(query: Query, shard_count: usize) -> Result<Self, ConfigError> {
        Self::try_for_queries(QuerySet::single(query), shard_count)
    }

    /// [`for_queries`](Self::for_queries) with a typed error instead of a
    /// panic.
    pub fn try_for_queries(queries: QuerySet, shard_count: usize) -> Result<Self, ConfigError> {
        if shard_count == 0 {
            return Err(ConfigError::ZeroShards);
        }
        let size_predictors = Self::build_predictors(&queries, None);
        let shards = Self::build_shards(
            &queries,
            shard_count,
            &size_predictors,
            OwnershipPolicy::StaticModulo,
        );
        let handles = (0..queries.len())
            .map(|slot| QueryHandle { slot: slot as QueryId, generation: slot as u64 })
            .collect();
        let live = vec![true; queries.len()];
        Ok(ShardedEngine {
            shards,
            handles,
            live,
            queries,
            events_processed: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            check_interval: None,
            queue_stats: Vec::new(),
            size_predictors,
            window_size_hint: None,
            ownership: OwnershipPolicy::StaticModulo,
            control: None,
            control_rx: None,
            fault_plan: None,
        })
    }

    /// One fresh shared size predictor per query, seeded from the query's
    /// exact window size, the engine's hint, or the generic default.
    fn build_predictors(queries: &QuerySet, hint: Option<usize>) -> Vec<Arc<SharedSizePredictor>> {
        queries
            .queries()
            .iter()
            .map(|query| {
                let initial = query.window().expected_size().or(hint).unwrap_or(100).max(1);
                Arc::new(SharedSizePredictor::new(initial))
            })
            .collect()
    }

    /// Builds one fresh shard (all slots live) wired to the engine's shared
    /// per-query predictors — the replacement-shard constructor chunk-replay
    /// recovery uses, identical to what [`build_shards`](Self::build_shards)
    /// produces at engine construction.
    pub(crate) fn fresh_shard(&self, index: usize, count: usize) -> Shard {
        let mut shard = Shard::for_queries(&self.queries, index, count);
        for (query, predictor) in self.size_predictors.iter().enumerate() {
            shard.share_size_predictor_for(query, Arc::clone(predictor));
        }
        // The replacement must route replayed window opens exactly as the
        // survivors did: same size hint, same ownership policy (the live
        // ownership table itself is restored from the checkpoint).
        if let Some(hint) = self.window_size_hint {
            shard.set_window_size_hint(hint);
        }
        shard.set_ownership_policy(self.ownership);
        shard
    }

    /// Builds `shard_count` fresh shards for `queries`, all slots live,
    /// wired to the given per-query predictors.
    fn build_shards(
        queries: &QuerySet,
        shard_count: usize,
        predictors: &[Arc<SharedSizePredictor>],
        ownership: OwnershipPolicy,
    ) -> Vec<Shard> {
        (0..shard_count)
            .map(|index| {
                let mut shard = Shard::for_queries(queries, index, shard_count);
                for (query, predictor) in predictors.iter().enumerate() {
                    shard.share_size_predictor_for(query, Arc::clone(predictor));
                }
                shard.set_ownership_policy(ownership);
                shard
            })
            .collect()
    }

    /// Sets the capacity of every shard's bounded input queue for
    /// subsequent streaming runs. Smaller capacities backpressure the
    /// producer earlier; the default is [`DEFAULT_QUEUE_CAPACITY`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_queue_capacity(&mut self, capacity: usize) {
        self.try_set_queue_capacity(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`set_queue_capacity`](Self::set_queue_capacity) with a typed error
    /// instead of a panic.
    pub fn try_set_queue_capacity(&mut self, capacity: usize) -> Result<(), ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        self.queue_capacity = capacity;
        Ok(())
    }

    /// The configured per-shard queue capacity (in hand-offs).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Sets how many events the producer batches into one shared
    /// [`EventChunk`] before broadcasting it (one `Arc` reference per
    /// shard) on subsequent streaming runs. Capacity 1 ships single-event
    /// chunks (every path hands over chunks only); the default is
    /// [`DEFAULT_CHUNK_CAPACITY`]. Output is invariant in this knob — it
    /// trades hand-off amortisation against publication latency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_chunk_capacity(&mut self, capacity: usize) {
        self.try_set_chunk_capacity(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`set_chunk_capacity`](Self::set_chunk_capacity) with a typed error
    /// instead of a panic.
    pub fn try_set_chunk_capacity(&mut self, capacity: usize) -> Result<(), ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroChunkCapacity);
        }
        self.chunk_capacity = capacity;
        Ok(())
    }

    /// The configured events-per-chunk of the streaming hand-off.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// Enables (or disables, with `None`) periodic queue sampling: every
    /// `interval` of wall time each drain loop hands every query's decider
    /// a measured [`QueueSample`] via [`WindowEventDecider::queue_sample`].
    /// This is the hook closed-loop overload detection attaches to.
    ///
    /// [`QueueSample`]: crate::QueueSample
    pub fn set_check_interval(&mut self, interval: Option<Duration>) {
        self.try_set_check_interval(interval).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`set_check_interval`](Self::set_check_interval) with a typed error
    /// instead of a panic.
    pub fn try_set_check_interval(
        &mut self,
        interval: Option<Duration>,
    ) -> Result<(), ConfigError> {
        if interval == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroCheckInterval);
        }
        self.check_interval = interval;
        Ok(())
    }

    /// Installs (or clears, with `None`) a deterministic [`FaultPlan`] to
    /// inject into subsequent **streaming** runs (`run_source*`,
    /// [`run_source_resilient`](Self::run_source_resilient)). Slice scans
    /// have no hand-off boundaries and ignore the plan. With no plan
    /// installed the fault hook costs one branch per queue hand-off and
    /// nothing per event.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Queue counters of the most recent streaming run (empty before the
    /// first run), indexed by shard. One queue serves all queries of a
    /// shard, so there is no per-query axis here.
    pub fn queue_stats(&self) -> &[QueueStats] {
        &self.queue_stats
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Length of the per-query axis: every query the engine has ever
    /// carried, live or retired. Outputs, statistics and decider rows are
    /// indexed by it.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of queries currently live (admitted and not retired).
    pub fn live_query_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Whether the query at `slot` is currently live.
    pub fn is_live(&self, slot: QueryId) -> bool {
        self.live.get(slot as usize).copied().unwrap_or(false)
    }

    /// The generation-stamped handle of the live query at `slot`, or `None`
    /// if the slot is retired or out of range. Pass it to
    /// [`EngineControl::retire`] to tear the query down mid-stream.
    pub fn query_handle(&self, slot: QueryId) -> Option<QueryHandle> {
        let index = slot as usize;
        (self.is_live(slot)).then(|| self.handles[index])
    }

    /// The executed query set: the whole per-query axis, retired slots
    /// included (a slot's query is never removed, so slot indices stay
    /// stable).
    pub fn queries(&self) -> &QuerySet {
        &self.queries
    }

    /// The first (or only) query the engine executes.
    pub fn query(&self) -> &Query {
        &self.queries.queries()[0]
    }

    /// The engine's lifecycle control handle (created on first call; every
    /// call returns a clone of the same channel). Requests sent through it
    /// are drained at event boundaries of the next (or current) live run —
    /// see [`run_source_live`](Self::run_source_live) /
    /// [`run_slice_live`](Self::run_slice_live). Static runs (`run`,
    /// `run_slice`, …) never drain the channel.
    pub fn control(&mut self) -> EngineControl {
        if self.control.is_none() {
            let (control, receiver) = EngineControl::create(self.shards.len(), self.queries.len());
            self.control = Some(control);
            self.control_rx = Some(receiver);
        }
        self.control.clone().expect("control created above")
    }

    /// Seeds every query's engine-wide window-size prediction, e.g. with
    /// the average window size observed during model training. Queries
    /// admitted later inherit the hint for their fresh predictors.
    pub fn set_window_size_hint(&mut self, hint: usize) {
        self.window_size_hint = Some(hint);
        for shard in &mut self.shards {
            shard.set_window_size_hint(hint);
        }
    }

    /// Selects how window ownership is assigned across shards for
    /// subsequent runs. The default, [`OwnershipPolicy::StaticModulo`],
    /// keeps the zero-cost `id % shard_count` assignment;
    /// [`OwnershipPolicy::StealAtOpen`] routes each opening window to the
    /// shard the deterministic [`WindowBalancer`] projects as least loaded
    /// — every shard computes the identical assignment from the shared
    /// stream, so no cross-shard coordination happens on the hot path (see
    /// [`Shard::set_ownership_policy`] for the load-signal derivation).
    /// Merged output is byte-identical under either policy.
    ///
    /// [`WindowBalancer`]: crate::WindowBalancer
    ///
    /// # Panics
    ///
    /// Panics if any shard has already processed events — switch policies
    /// only on a fresh engine or after [`reset`](Self::reset).
    pub fn set_ownership_policy(&mut self, policy: OwnershipPolicy) {
        self.ownership = policy;
        for shard in &mut self.shards {
            shard.set_ownership_policy(policy);
        }
    }

    /// The active window-ownership policy.
    pub fn ownership_policy(&self) -> OwnershipPolicy {
        self.ownership
    }

    /// Windows the balancer routed away from their static `id %
    /// shard_count` owner, summed over all shards — always 0 under
    /// [`OwnershipPolicy::StaticModulo`].
    pub fn stolen_windows(&self) -> u64 {
        self.shards.iter().map(Shard::stolen_windows).sum()
    }

    /// The window-size predictor shared by all shards for query `query`
    /// (relevant for time-based, variable-size windows).
    ///
    /// # Panics
    ///
    /// Panics if `query` is out of range.
    pub fn size_predictor_for(&self, query: usize) -> &SharedSizePredictor {
        &self.size_predictors[query]
    }

    /// The window-size predictor of query 0 (single-query compatibility
    /// wrapper over [`size_predictor_for`](Self::size_predictor_for)).
    pub fn shared_size_predictor(&self) -> &SharedSizePredictor {
        self.size_predictor_for(0)
    }

    /// Runs a materialised stream through the engine: the slice-compatible
    /// wrapper over [`run_source`](Self::run_source). Existing callers and
    /// benches keep compiling, but the execution underneath is the
    /// streaming pipeline — a producer fan-out over bounded per-shard
    /// queues — not a shared-slice scan. The hand-off costs one append per
    /// event plus one `Arc` push/pop per chunk per shard *for the whole
    /// query set*; batch
    /// callers that only ever process fully materialised streams and want
    /// the zero-copy scan should call [`run_slice`](Self::run_slice)
    /// instead.
    ///
    /// For a multi-query engine the returned vector is the per-query
    /// outputs concatenated in query order (see
    /// [`run_source_per_query`](Self::run_source_per_query) to keep them
    /// apart); with a single query it is exactly the single-operator
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from `shards × queries`.
    pub fn run<S, D>(&mut self, stream: &S, deciders: &mut [D]) -> Vec<ComplexEvent>
    where
        S: EventStream + ?Sized,
        D: WindowEventDecider + Send,
    {
        let mut source = SliceSource::new(stream.events());
        self.run_source(&mut source, deciders)
    }

    /// [`run`](Self::run), returning each query's complex events
    /// separately (indexed by query, each in single-operator emission
    /// order).
    pub fn run_per_query<S, D>(&mut self, stream: &S, deciders: &mut [D]) -> Vec<Vec<ComplexEvent>>
    where
        S: EventStream + ?Sized,
        D: WindowEventDecider + Send,
    {
        let mut source = SliceSource::new(stream.events());
        self.run_source_per_query(&mut source, deciders)
    }

    /// Runs a materialised stream through all shards as a *shared-slice
    /// scan*: no queues, no producer thread — every shard (on its own
    /// scoped thread when there is more than one) iterates the slice
    /// directly, offering each event to every query's operator in the
    /// fused pass. This is the batch path: it avoids the streaming
    /// pipeline's queue hand-off for workloads that are fully
    /// materialised anyway, and serves as the oracle the streaming path is
    /// property-tested against. Output and statistics are identical to
    /// [`run_source`](Self::run_source) for deciders whose decisions are a
    /// function of `(window id, position, event)` — plus `predicted size`
    /// on count-based windows, where the prediction is exact.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from `shards × queries`.
    pub fn run_slice<S, D>(&mut self, stream: &S, deciders: &mut [D]) -> Vec<ComplexEvent>
    where
        S: EventStream + ?Sized,
        D: WindowEventDecider + Send,
    {
        flatten(self.run_slice_per_query(stream, deciders))
    }

    /// [`run_slice`](Self::run_slice), returning each query's complex
    /// events separately.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from `shards × queries`.
    pub fn run_slice_per_query<S, D>(
        &mut self,
        stream: &S,
        deciders: &mut [D],
    ) -> Vec<Vec<ComplexEvent>>
    where
        S: EventStream + ?Sized,
        D: WindowEventDecider + Send,
    {
        self.try_run_slice_per_query(stream, deciders).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_slice_per_query`](Self::run_slice_per_query) with panic
    /// containment: a decider-count mismatch and shard-thread panics come
    /// back as a typed [`EngineError`] instead of unwinding the caller.
    /// Surviving shards run to completion before the error is returned.
    /// After [`EngineError::ShardsFailed`] the engine's internal state is
    /// unspecified (a crashed scan stops mid-window); call
    /// [`reset`](Self::reset) before reusing the engine, or use
    /// [`run_source_resilient`](Self::run_source_resilient) to recover the
    /// run itself.
    pub fn try_run_slice_per_query<S, D>(
        &mut self,
        stream: &S,
        deciders: &mut [D],
    ) -> Result<Vec<Vec<ComplexEvent>>, EngineError>
    where
        S: EventStream + ?Sized,
        D: WindowEventDecider + Send,
    {
        let queries = self.queries.len();
        check_decider_count(deciders.len(), self.shards.len(), queries, false)?;
        let events = stream.events();
        self.events_processed += events.len() as u64;
        let commands = (0..self.shards.len()).map(|_| VecDeque::new()).collect();
        let results = scan_slice(&mut self.shards, events, deciders.chunks_mut(queries), commands)?;
        Ok(merge_outputs(results.into_iter().map(|(outputs, _)| outputs).collect(), queries))
    }

    /// Streams events from `source` through all shards, with one decider
    /// per shard per query, and returns the merged complex events (the
    /// per-query outputs concatenated in query order; see
    /// [`run_source_per_query`](Self::run_source_per_query)).
    ///
    /// Every shard owns a bounded SPSC input queue drained by its own
    /// scoped thread; the calling thread acts as the producer, pulling
    /// events from the source, appending them **once** into a shared
    /// sequence-stamped chunk, and broadcasting each sealed chunk to every
    /// shard's queue as an `Arc` reference (each shard derives the same
    /// global window ids from the full stream, so no coordination is
    /// needed). A full queue blocks the producer — bounded-queue
    /// backpressure instead of unbounded buffering — and shards start
    /// processing before the stream has been fully produced. Each chunk is
    /// handed over **once per shard**, no matter how many queries the
    /// engine executes: the shard's drain loop scans the shared buffer in
    /// place and fans every event out to every query's operator in
    /// process. Paced sources flush partial chunks on a deadline (see
    /// [`set_chunk_capacity`](Self::set_chunk_capacity)); the measured
    /// per-queue state — event-denominated, so a half-full chunk is never
    /// mistaken for a full queue — can be fed back to the deciders via
    /// [`set_check_interval`](Self::set_check_interval).
    ///
    /// Each shard owns a disjoint subset of every query's windows, so
    /// decider `[shard s, query q]` only ever sees the (event, window)
    /// pairs of query `q`'s windows owned by shard `s`. Deciders whose
    /// decisions depend only on `(window id, position, event, predicted
    /// size)` — [`KeepAll`], the eSPICE shedder with its per-window-keyed
    /// boundary thinning — produce output identical to an unsharded slice
    /// run on count-based windows, for every queue capacity. Deciders with
    /// genuinely cross-window state (e.g. random sampling) may pick
    /// different events; on time-based windows the shards share one size
    /// predictor per query, so `predicted_size` no longer drifts with the
    /// shard count, but its mid-run values can vary with thread timing.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from `shards × queries`.
    pub fn run_source<Src, D>(&mut self, source: &mut Src, deciders: &mut [D]) -> Vec<ComplexEvent>
    where
        Src: EventSource + ?Sized,
        D: WindowEventDecider + Send,
    {
        flatten(self.run_source_per_query(source, deciders))
    }

    /// [`run_source`](Self::run_source), returning each query's complex
    /// events separately (indexed by query, each in single-operator
    /// emission order).
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from `shards × queries`.
    pub fn run_source_per_query<Src, D>(
        &mut self,
        source: &mut Src,
        deciders: &mut [D],
    ) -> Vec<Vec<ComplexEvent>>
    where
        Src: EventSource + ?Sized,
        D: WindowEventDecider + Send,
    {
        self.try_run_source_per_query(source, deciders).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_source_per_query`](Self::run_source_per_query) with panic
    /// containment: when a drain thread dies, the producer marks that shard
    /// dead and **keeps feeding the survivors** to completion, then returns
    /// [`EngineError::ShardsFailed`] carrying each dead shard's panic
    /// message and the stream position (chunk sequence) its producer hand-off
    /// first failed at — the diagnostics the old silent `break` discarded.
    /// After a failure the engine's internal state is unspecified; call
    /// [`reset`](Self::reset) before reuse, or use
    /// [`run_source_resilient`](Self::run_source_resilient) to recover the
    /// run itself.
    pub fn try_run_source_per_query<Src, D>(
        &mut self,
        source: &mut Src,
        deciders: &mut [D],
    ) -> Result<Vec<Vec<ComplexEvent>>, EngineError>
    where
        Src: EventSource + ?Sized,
        D: WindowEventDecider + Send,
    {
        let queries = self.queries.len();
        check_decider_count(deciders.len(), self.shards.len(), queries, false)?;
        let (results, _) = self.stream_rows(source, deciders.chunks_mut(queries), false)?;
        Ok(merge_outputs(results.into_iter().map(|(outputs, _)| outputs).collect(), queries))
    }

    /// Splits the flat shard-major initial deciders into per-shard rows
    /// aligned with the slot axis (`None` at retired slots).
    fn build_rows(
        &self,
        deciders: Vec<BoxedDecider>,
    ) -> Result<Vec<Vec<Option<BoxedDecider>>>, EngineError> {
        let live_slots: Vec<usize> = (0..self.queries.len()).filter(|&s| self.live[s]).collect();
        check_decider_count(deciders.len(), self.shards.len(), live_slots.len(), true)?;
        let mut iter = deciders.into_iter();
        Ok((0..self.shards.len())
            .map(|_| {
                let mut row: Vec<Option<BoxedDecider>> =
                    (0..self.queries.len()).map(|_| None).collect();
                for &slot in &live_slots {
                    row[slot] = Some(iter.next().expect("length checked above"));
                }
                row
            })
            .collect())
    }

    /// The lifecycle-enabled batch scan: like
    /// [`run_slice_per_query`](Self::run_slice_per_query), but the decider
    /// rows are engine-owned [`BoxedDecider`]s and every request already
    /// sitting in the control channel is applied at its anchored stream
    /// position (unanchored requests apply at position 0). Requests sent
    /// *while* this run executes are left for the next run — the slice scan
    /// is the deterministic batch path; continuous admission needs
    /// [`run_source_live`](Self::run_source_live).
    ///
    /// `deciders` supplies one decider per shard per **live** query,
    /// shard-major, exactly as the static paths do.
    ///
    /// # Panics
    ///
    /// Panics if the decider count does not match `shards × live queries`.
    pub fn run_slice_live<S>(&mut self, stream: &S, deciders: Vec<BoxedDecider>) -> LiveRunOutcome
    where
        S: EventStream + ?Sized,
    {
        self.try_run_slice_live(stream, deciders).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_slice_live`](Self::run_slice_live) with panic containment: a
    /// decider-count mismatch and shard-thread panics come back as a typed
    /// [`EngineError`]. Surviving shards complete their scan first. After
    /// [`EngineError::ShardsFailed`] the engine's internal state is
    /// unspecified; call [`reset`](Self::reset) before reuse.
    pub fn try_run_slice_live<S>(
        &mut self,
        stream: &S,
        deciders: Vec<BoxedDecider>,
    ) -> Result<LiveRunOutcome, EngineError>
    where
        S: EventStream + ?Sized,
    {
        let rows = self.build_rows(deciders)?;
        let events = stream.events();
        let end = events.len() as u64;
        self.events_processed += end;

        // Drain the channel once, anchor (unanchored → 0, admissions
        // non-decreasing in send order, see [`Anchoring`]) and clamp to the
        // end of the slice; commands apply in (position, send order).
        let (shards, mut control) = self.split_lifecycle();
        control.drain_channel(0);
        let mut per_shard: Vec<VecDeque<(u64, ShardCommand)>> =
            shards.iter().map(|_| VecDeque::new()).collect();
        for (at, request) in std::mem::take(&mut control.pending) {
            let at = at.min(end);
            if let Some(commands) = control.apply(request, at) {
                for (shard, command) in per_shard.iter_mut().zip(commands) {
                    shard.push_back((at, command));
                }
            }
        }
        let report = control.report;
        let results = scan_slice(shards, events, rows, per_shard)?;
        Ok(live_outcome(results, self.queries.len(), report))
    }

    /// The lifecycle-enabled streaming run: like
    /// [`run_source_per_query`](Self::run_source_per_query), but the
    /// decider rows are engine-owned [`BoxedDecider`]s and the control
    /// channel is drained **continuously** at event boundaries — this is
    /// the live multi-tenant service loop. Every accepted request is
    /// broadcast in-band into all shard queues, so it takes effect at the
    /// same stream position on every shard: an admitted query's output is
    /// byte-identical to a fresh static engine started at its admission
    /// position, and a retiring query drains its open windows to
    /// completion before teardown. Requests anchored at a position already
    /// passed apply at the drain point.
    ///
    /// `deciders` supplies one decider per shard per **live** query,
    /// shard-major.
    ///
    /// # Panics
    ///
    /// Panics if the decider count does not match `shards × live queries`.
    pub fn run_source_live<Src>(
        &mut self,
        source: &mut Src,
        deciders: Vec<BoxedDecider>,
    ) -> LiveRunOutcome
    where
        Src: EventSource + ?Sized,
    {
        self.try_run_source_live(source, deciders).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_source_live`](Self::run_source_live) with panic containment:
    /// when a drain thread dies the producer marks the shard dead, keeps
    /// feeding the survivors (events and in-band lifecycle commands) to
    /// completion, and returns [`EngineError::ShardsFailed`] with each dead
    /// shard's panic message and the stream position its hand-off first
    /// failed at. After a failure the engine's internal state is
    /// unspecified; call [`reset`](Self::reset) before reuse. (Chunk-replay
    /// recovery is a static-path feature — see
    /// [`run_source_resilient`](Self::run_source_resilient); combining it
    /// with mid-stream lifecycle is future work.)
    pub fn try_run_source_live<Src>(
        &mut self,
        source: &mut Src,
        deciders: Vec<BoxedDecider>,
    ) -> Result<LiveRunOutcome, EngineError>
    where
        Src: EventSource + ?Sized,
    {
        let rows = self.build_rows(deciders)?;
        let (results, report) = self.stream_rows(source, rows, true)?;
        Ok(live_outcome(results, self.queries.len(), report))
    }

    /// The one streaming run behind the static and live paths: one drain
    /// thread per shard over a bounded queue, the [`produce`] loop on the
    /// calling thread (fed by the engine's control channel when
    /// `lifecycle` is set), then close and join. A dead drain thread is
    /// skipped while the survivors are fed to completion; its panic comes
    /// back as [`EngineError::ShardsFailed`] with the stream position its
    /// hand-off first failed at.
    fn stream_rows<Src, R>(
        &mut self,
        source: &mut Src,
        rows: impl IntoIterator<Item = R>,
        lifecycle: bool,
    ) -> Result<(Vec<ShardResult<R>>, LifecycleReport), EngineError>
    where
        Src: EventSource + ?Sized,
        R: DeciderRow + Send,
    {
        let capacity = self.queue_capacity;
        let chunk_capacity = self.chunk_capacity;
        let check_interval = self.check_interval;
        let faults = self.fault_plan.as_ref().map(ArmedFaults::arm);
        let kill_after = faults.as_ref().and_then(|f| f.producer_kill_after());

        let (shards, control) = self.split_lifecycle();
        let mut control = lifecycle.then_some(control);
        let (joined, delivered, sink) = std::thread::scope(|scope| {
            let mut sink = Broadcast::default();
            let threads: Vec<_> = shards
                .iter_mut()
                .zip(rows)
                .map(|(shard, mut row)| {
                    let queue = sink.add_queue(capacity);
                    let faults = faults.clone();
                    scope.spawn(move || {
                        let outputs = shard
                            .drain(
                                Vec::new(),
                                queue,
                                &mut row,
                                check_interval,
                                faults.as_deref(),
                                &mut (),
                            )
                            .expect("only the resilient path aborts a drain");
                        (outputs, row)
                    })
                })
                .collect();
            let delivered =
                produce(source, chunk_capacity, kill_after, control.as_mut(), &mut sink);
            sink.close();
            let joined: Vec<_> = threads.into_iter().map(|thread| thread.join()).collect();
            (joined, delivered, sink)
        });
        let report = control.map(|control| control.report).unwrap_or_default();
        // Every shard dead leaves the count unspecified, like the rest of
        // the engine state after a failure.
        self.events_processed += delivered.unwrap_or(0);
        self.queue_stats = sink.producers.iter().map(QueueProducer::stats).collect();
        Ok((collect_joined(joined, &sink.deaths)?, report))
    }

    /// Splits the engine into its shards and the lifecycle feed over the
    /// rest of its query bookkeeping — disjoint borrows, so the producer
    /// can admit and retire while the shards drain their queues.
    fn split_lifecycle(&mut self) -> (&mut [Shard], LiveControl<'_>) {
        let shard_count = self.shards.len();
        let ShardedEngine {
            shards,
            queries,
            handles,
            live,
            size_predictors,
            window_size_hint,
            control_rx,
            ..
        } = self;
        let control = LiveControl {
            receiver: control_rx.as_ref(),
            anchoring: Anchoring::new(),
            pending: Vec::new(),
            queries,
            handles,
            live,
            size_predictors,
            window_size_hint: *window_size_hint,
            shard_count,
            report: LifecycleReport::default(),
        };
        (shards, control)
    }

    /// [`run`](Self::run) with a keep-everything decider on every shard and
    /// query (ground-truth runs and throughput benchmarks).
    pub fn run_keep_all<S>(&mut self, stream: &S) -> Vec<ComplexEvent>
    where
        S: EventStream + ?Sized,
    {
        let mut deciders = vec![KeepAll; self.shards.len() * self.queries.len()];
        self.run(stream, &mut deciders)
    }

    /// Sum of the shards' peak resident entry counts: an upper bound on the
    /// engine's total peak window-storage footprint in events (per-shard
    /// peaks need not coincide in time).
    pub fn peak_resident_entries(&self) -> usize {
        self.shards.iter().map(Shard::peak_resident_entries).sum()
    }

    /// Engine statistics: per-shard and per-query counters plus merged
    /// totals. The per-query axis covers every slot, retired queries
    /// included (their counters freeze at teardown).
    pub fn stats(&self) -> EngineStats {
        let per_shard: Vec<OperatorStats> = self.shards.iter().map(Shard::stats).collect();
        let mut per_query: Vec<OperatorStats> = Vec::with_capacity(self.queries.len());
        for slot in 0..self.queries.len() {
            let mut merged = OperatorStats::default();
            let mut events = 0u64;
            for shard in &self.shards {
                let stats = shard.slot_stats(slot);
                merged.merge(stats);
                // Every shard's operator processes the same stream span for
                // this slot, except that a draining shard stops once *its*
                // windows closed — the slot's span is the longest of them,
                // which is exactly what a single-operator run would report.
                events = events.max(stats.events_processed);
            }
            merged.events_processed = events;
            per_query.push(merged);
        }
        let mut merged = OperatorStats::default();
        for stats in &per_query {
            merged.merge(stats);
        }
        // Engine-level totals count each ingested event once.
        merged.events_processed = self.events_processed;
        EngineStats { merged, per_shard, per_query }
    }

    /// Resets the engine to a fresh start over its current per-query axis:
    /// every slot — including previously retired ones — is rebuilt live
    /// with a fresh operator, open tracker and size predictor (seeded from
    /// the last window-size hint, if any). Admission handles and
    /// generations are preserved; counters and queue statistics clear.
    pub fn reset(&mut self) {
        self.size_predictors = Self::build_predictors(&self.queries, self.window_size_hint);
        self.shards = Self::build_shards(
            &self.queries,
            self.shards.len(),
            &self.size_predictors,
            self.ownership,
        );
        if let Some(hint) = self.window_size_hint {
            for shard in &mut self.shards {
                shard.set_window_size_hint(hint);
            }
        }
        for live in &mut self.live {
            *live = true;
        }
        self.events_processed = 0;
        self.queue_stats.clear();
    }
}

/// The live paths' lifecycle feed: requests drained from the engine's
/// control channel, anchored (see [`Anchoring`]), validated against the
/// engine's query bookkeeping — split out as disjoint field borrows so the
/// producer can admit and retire while the shards (borrowed separately)
/// drain their queues — and turned into per-shard in-band commands.
pub(crate) struct LiveControl<'a> {
    receiver: Option<&'a Receiver<LifecycleRequest>>,
    anchoring: Anchoring,
    /// Requests drained but not yet due, sorted by anchor position (stable
    /// within a position: send order).
    pending: Vec<(u64, LifecycleRequest)>,
    queries: &'a mut QuerySet,
    handles: &'a mut Vec<QueryHandle>,
    live: &'a mut Vec<bool>,
    size_predictors: &'a mut Vec<Arc<SharedSizePredictor>>,
    window_size_hint: Option<usize>,
    shard_count: usize,
    report: LifecycleReport,
}

impl LiveControl<'_> {
    /// Moves every request waiting in the channel into `pending`, anchored
    /// no earlier than `position` (the position the producer has reached).
    fn drain_channel(&mut self, position: u64) {
        let Some(receiver) = self.receiver else { return };
        let before = self.pending.len();
        for request in receiver.try_iter() {
            let at = self.anchoring.anchor(&request, position);
            self.pending.push((at, request));
        }
        if self.pending.len() > before {
            self.pending.sort_by_key(|(at, _)| *at);
        }
    }

    /// The per-shard commands of every request due at `position`, in
    /// order (rejected requests yield none), or `None` when no request is
    /// due. Requests anchored at a position already passed apply here.
    fn due(&mut self, position: u64) -> Option<Vec<Vec<ShardCommand>>> {
        self.drain_channel(position);
        let due = self.pending.partition_point(|(at, _)| *at <= position);
        if due == 0 {
            return None;
        }
        let requests: Vec<_> = self.pending.drain(..due).collect();
        Some(
            requests.into_iter().filter_map(|(_, request)| self.apply(request, position)).collect(),
        )
    }

    /// The per-shard commands of every request still pending at the end of
    /// the stream, applied at the end position `position` (admissions open
    /// no windows; retirements still tear down before the final flush).
    fn finish(&mut self, position: u64) -> Vec<Vec<ShardCommand>> {
        self.drain_channel(position);
        let requests = std::mem::take(&mut self.pending);
        requests.into_iter().filter_map(|(_, request)| self.apply(request, position)).collect()
    }

    /// Validates one request at stream `position`. Returns the per-shard
    /// commands to broadcast, or `None` when the request was rejected
    /// (stale retire handle).
    fn apply(&mut self, request: LifecycleRequest, position: u64) -> Option<Vec<ShardCommand>> {
        match request {
            LifecycleRequest::Admit { handle, query, deciders, .. } => {
                assert_eq!(
                    handle.slot as usize,
                    self.queries.len(),
                    "admissions must arrive in slot order (one control channel per engine)"
                );
                assert_eq!(
                    deciders.len(),
                    self.shard_count,
                    "an admission needs exactly one decider per shard"
                );
                let initial =
                    query.window().expected_size().or(self.window_size_hint).unwrap_or(100).max(1);
                let predictor = Arc::new(SharedSizePredictor::new(initial));
                self.queries.push(query.clone());
                self.handles.push(handle);
                self.live.push(true);
                self.size_predictors.push(Arc::clone(&predictor));
                self.report.admitted.push((handle, position));
                Some(
                    deciders
                        .into_iter()
                        .map(|decider| ShardCommand::Admit {
                            slot: handle.slot,
                            query: query.clone(),
                            decider,
                            predictor: Arc::clone(&predictor),
                        })
                        .collect(),
                )
            }
            LifecycleRequest::Retire { handle, .. } => {
                let slot = handle.slot as usize;
                let valid = self.live.get(slot).copied().unwrap_or(false)
                    && self.handles.get(slot) == Some(&handle);
                if valid {
                    self.live[slot] = false;
                    self.report.retired.push((handle, position));
                    Some(
                        (0..self.shard_count)
                            .map(|_| ShardCommand::Retire { slot: handle.slot })
                            .collect(),
                    )
                } else {
                    self.report.rejected += 1;
                    None
                }
            }
        }
    }
}

/// What one shard's run returns: per-slot outputs plus its decider row
/// (on the live paths: admitted deciders included, retired ones dropped).
type ShardResult<R> = (Vec<Vec<ComplexEvent>>, R);

/// Where [`produce`] hands its output: sealed chunks and, on the live
/// path, per-shard in-band lifecycle commands.
pub(crate) trait ChunkSink {
    /// Why delivery stopped early.
    type Stop;

    /// Delivers one sealed chunk to every shard.
    fn chunk(&mut self, chunk: Arc<EventChunk>) -> Result<(), Self::Stop>;

    /// Delivers one command per shard, taking effect at stream `position`
    /// (between two chunks).
    fn commands(&mut self, commands: Vec<ShardCommand>, position: u64) -> Result<(), Self::Stop>;
}

/// The one producer loop behind every streaming path. Events are pulled
/// from `source` and appended **once** into shared sequence-stamped chunks
/// of `chunk_capacity` events (capacity 1 ships single-event chunks); each
/// sealed chunk goes to `sink`, whose queues' Release tail stores publish
/// the whole batch — O(1) amortised hand-off per event regardless of the
/// shard or query count.
///
/// * A paced source can dribble: a partial chunk older than
///   [`PACED_FLUSH_INTERVAL`] is flushed, so batching never adds hand-off
///   latency to a paced replay (saturated sources never read the clock).
/// * With `control`, requests due at the current event boundary seal the
///   partial chunk first and then go out as in-band commands, so they apply
///   at the same stream position on every shard; requests that arrive too
///   late for any boundary apply after the trailing chunk.
/// * An injected producer kill (`kill_after`) drops the partial chunk: the
///   delivered stream is the sealed-chunk prefix.
///
/// Returns the number of events delivered in sealed chunks.
pub(crate) fn produce<Src, K>(
    source: &mut Src,
    chunk_capacity: usize,
    kill_after: Option<u64>,
    mut control: Option<&mut LiveControl<'_>>,
    sink: &mut K,
) -> Result<u64, K::Stop>
where
    Src: EventSource + ?Sized,
    K: ChunkSink,
{
    let paced = source.is_paced();
    let mut builder = ChunkBuilder::new(chunk_capacity);
    let mut oldest_pending: Option<Instant> = None;
    let mut produced = 0u64;
    loop {
        if let Some(due) = control.as_deref_mut().and_then(|control| control.due(produced)) {
            if let Some(partial) = builder.seal() {
                sink.chunk(partial)?;
                oldest_pending = None;
            }
            for commands in due {
                sink.commands(commands, produced)?;
            }
        }
        if oldest_pending.is_some_and(|since| since.elapsed() >= PACED_FLUSH_INTERVAL) {
            if let Some(partial) = builder.seal() {
                sink.chunk(partial)?;
            }
            oldest_pending = None;
        }
        if kill_after.is_some_and(|kill| produced >= kill) {
            return Ok(builder.base());
        }
        let Some(event) = source.next_event() else { break };
        produced += 1;
        if paced && oldest_pending.is_none() {
            oldest_pending = Some(Instant::now());
        }
        if let Some(full) = builder.push(event) {
            sink.chunk(full)?;
            oldest_pending = None;
        }
    }
    if let Some(partial) = builder.seal() {
        sink.chunk(partial)?;
    }
    if let Some(control) = control {
        for commands in control.finish(produced) {
            sink.commands(commands, produced)?;
        }
    }
    Ok(builder.base())
}

/// The static and live paths' hand-off: one bounded queue per shard, each
/// chunk broadcast as one `Arc` reference per queue (one weighted push
/// counting the chunk's events, blocking while the queue is full). A shard
/// whose drain thread died is skipped from then on (cold path: at most once
/// per shard per run), with the stream position its hand-off first failed
/// at recorded in `deaths`; the survivors keep being fed.
#[derive(Default)]
struct Broadcast {
    producers: Vec<QueueProducer<ShardInput>>,
    dead: Vec<bool>,
    deaths: Vec<(usize, u64)>,
}

/// Every shard's drain thread has died: nothing is left to feed.
struct AllShardsDead;

impl Broadcast {
    /// Adds one shard's queue, returning its consumer end.
    fn add_queue(&mut self, capacity: usize) -> QueueConsumer<ShardInput> {
        let (producer, consumer) = spsc(capacity);
        self.producers.push(producer);
        self.dead.push(false);
        consumer
    }

    /// Pushes one item per live shard (`items` yields them in shard order),
    /// each standing for `events` stream events.
    fn send(
        &mut self,
        position: u64,
        events: u64,
        items: impl Iterator<Item = ShardInput>,
    ) -> Result<(), AllShardsDead> {
        let mut alive = false;
        for ((shard, producer), item) in self.producers.iter_mut().enumerate().zip(items) {
            if self.dead[shard] {
                continue;
            }
            if producer.push_blocking_weighted(item, events) {
                alive = true;
            } else {
                self.dead[shard] = true;
                self.deaths.push((shard, position));
            }
        }
        if alive {
            Ok(())
        } else {
            Err(AllShardsDead)
        }
    }

    /// Closes every queue: the drain loops finish once they are empty.
    fn close(&mut self) {
        for producer in &mut self.producers {
            producer.close();
        }
    }
}

impl ChunkSink for Broadcast {
    type Stop = AllShardsDead;

    fn chunk(&mut self, chunk: Arc<EventChunk>) -> Result<(), AllShardsDead> {
        let items = std::iter::repeat_with(|| ShardInput::Chunk(Arc::clone(&chunk)));
        self.send(chunk.base(), chunk.len() as u64, items)
    }

    fn commands(
        &mut self,
        commands: Vec<ShardCommand>,
        position: u64,
    ) -> Result<(), AllShardsDead> {
        // Commands occupy a queue slot but no stream position: weight 0
        // keeps the measured event depth exact.
        let items = commands.into_iter().map(|command| ShardInput::Command(Box::new(command)));
        self.send(position, 0, items)
    }
}

/// The one slice scan behind the static and live batch paths: every shard
/// runs [`Shard::run_events_core`] over the shared slice with its decider
/// row and position-anchored commands — inline when there is a single
/// shard, on scoped threads otherwise. Surviving shards finish before
/// shard panics come back as [`EngineError::ShardsFailed`].
fn scan_slice<R: DeciderRow + Send>(
    shards: &mut [Shard],
    events: &[Event],
    rows: impl IntoIterator<Item = R>,
    commands: Vec<VecDeque<(u64, ShardCommand)>>,
) -> Result<Vec<ShardResult<R>>, EngineError> {
    let scan = |shard: &mut Shard, mut row: R, commands: VecDeque<(u64, ShardCommand)>| {
        let outputs = shard.run_events_core(events, commands, &mut row);
        (outputs, row)
    };
    let single = shards.len() == 1;
    let mut inputs = shards.iter_mut().zip(rows).zip(commands);
    let joined: Vec<std::thread::Result<ShardResult<R>>> = if single {
        let ((shard, row), commands) = inputs.next().expect("one shard");
        vec![std::panic::catch_unwind(AssertUnwindSafe(|| scan(shard, row, commands)))]
    } else {
        std::thread::scope(|scope| {
            let threads: Vec<_> = inputs
                .map(|((shard, row), commands)| scope.spawn(move || scan(shard, row, commands)))
                .collect();
            threads.into_iter().map(|thread| thread.join()).collect()
        })
    };
    collect_joined(joined, &[])
}

/// Unwraps joined shard results, or converts every panic into a
/// [`ShardFailure`] annotated with the stream position the producer first
/// saw that shard's queue die at (from `deaths`), when the death was
/// noticed before the end of the stream.
fn collect_joined<T>(
    joined: Vec<std::thread::Result<T>>,
    deaths: &[(usize, u64)],
) -> Result<Vec<T>, EngineError> {
    let mut results = Vec::with_capacity(joined.len());
    let mut failures = Vec::new();
    for (shard, result) in joined.into_iter().enumerate() {
        match result {
            Ok(result) => results.push(result),
            Err(payload) => {
                let position = deaths.iter().find(|(s, _)| *s == shard).map(|&(_, p)| p);
                failures.push(ShardFailure { shard, message: panic_message(payload), position });
            }
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(EngineError::ShardsFailed { failures })
    }
}

/// Splits the live paths' per-shard results into merged outputs and the
/// decider rows.
fn live_outcome(
    results: Vec<ShardResult<Vec<Option<BoxedDecider>>>>,
    queries: usize,
    lifecycle: LifecycleReport,
) -> LiveRunOutcome {
    let (outputs, deciders) = results.into_iter().unzip();
    LiveRunOutcome { complex_events: merge_outputs(outputs, queries), deciders, lifecycle }
}

/// Merges the per-shard, per-query outputs into per-query single-operator
/// emission order. Within a query, windows close in id order (each window's
/// matches are emitted contiguously when it closes), so a stable sort by
/// window id restores the exact single-operator order. Shared by the slice
/// and streaming paths so the merge invariant cannot diverge between them.
pub(crate) fn merge_outputs(
    outputs: Vec<Vec<Vec<ComplexEvent>>>,
    queries: usize,
) -> Vec<Vec<ComplexEvent>> {
    let mut per_query: Vec<Vec<ComplexEvent>> = (0..queries).map(|_| Vec::new()).collect();
    for mut shard_outputs in outputs {
        for (query, output) in shard_outputs.iter_mut().enumerate() {
            per_query[query].append(output);
        }
    }
    for output in &mut per_query {
        output.sort_by_key(ComplexEvent::window_id);
    }
    per_query
}

/// Concatenates per-query outputs in query order (the single flat vector
/// the compatibility entry points return).
fn flatten(per_query: Vec<Vec<ComplexEvent>>) -> Vec<ComplexEvent> {
    let mut flat = Vec::with_capacity(per_query.iter().map(Vec::len).sum());
    for mut output in per_query {
        flat.append(&mut output);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decision, Operator, Pattern, WindowMeta, WindowSpec};
    use espice_events::{Event, EventType, Timestamp, VecStream};

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn keyed_stream(len: u64) -> VecStream {
        VecStream::from_ordered(
            (0..len).map(|i| Event::new(ty((i % 5) as u32), Timestamp::from_secs(i), i)).collect(),
        )
    }

    fn query(window: usize) -> Query {
        Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1), ty(2)]))
            .window(WindowSpec::count_on_types(vec![ty(0)], window))
            .build()
    }

    fn boxed_keepers(n: usize) -> Vec<BoxedDecider> {
        (0..n).map(|_| Box::new(KeepAll) as BoxedDecider).collect()
    }

    #[test]
    fn engine_output_matches_single_operator_for_all_shard_counts() {
        let stream = keyed_stream(200);
        let single = Operator::new(query(12)).run(&stream, &mut crate::KeepAll);
        assert!(!single.is_empty());
        for shards in [1, 2, 3, 4, 7] {
            let mut engine = ShardedEngine::new(query(12), shards);
            let merged = engine.run_keep_all(&stream);
            assert_eq!(merged, single, "shard count {shards} diverged");
        }
    }

    #[test]
    fn engine_stats_merge_to_single_operator_totals() {
        let stream = keyed_stream(150);
        let mut single = Operator::new(query(10));
        let _ = single.run(&stream, &mut crate::KeepAll);
        let mut engine = ShardedEngine::new(query(10), 4);
        let _ = engine.run_keep_all(&stream);
        let stats = engine.stats();
        assert_eq!(&stats.merged, single.stats());
        assert_eq!(stats.per_shard.len(), 4);
        assert_eq!(stats.per_query.len(), 1);
        assert_eq!(&stats.per_query[0], single.stats());
        let opened: u64 = stats.per_shard.iter().map(|s| s.windows_opened).sum();
        assert_eq!(opened, single.stats().windows_opened);
    }

    /// A deterministic per-(window, position) decider: shard-invariant, so
    /// the sharded run must equal the single-operator run even with drops.
    #[derive(Debug, Clone, Copy)]
    struct DropEveryThird;

    impl WindowEventDecider for DropEveryThird {
        fn decide(&mut self, _meta: &WindowMeta, position: usize, _event: &Event) -> Decision {
            if position % 3 == 2 {
                Decision::Drop
            } else {
                Decision::Keep
            }
        }
    }

    #[test]
    fn engine_matches_single_operator_under_stateless_shedding() {
        let stream = keyed_stream(200);
        let single = Operator::new(query(12)).run(&stream, &mut DropEveryThird);
        let mut engine = ShardedEngine::new(query(12), 4);
        let mut deciders = vec![DropEveryThird; 4];
        let merged = engine.run(&stream, &mut deciders);
        assert_eq!(merged, single);
        assert!(engine.stats().merged.dropped > 0);
    }

    #[test]
    fn reset_makes_runs_repeatable() {
        let stream = keyed_stream(100);
        let mut engine = ShardedEngine::new(query(8), 3);
        let first = engine.run_keep_all(&stream);
        let first_stats = engine.stats();
        engine.reset();
        let second = engine.run_keep_all(&stream);
        assert_eq!(first, second);
        assert_eq!(first_stats, engine.stats());
    }

    #[test]
    fn streaming_source_run_equals_slice_run_even_with_tiny_queues() {
        let stream = keyed_stream(300);
        let single = Operator::new(query(12)).run(&stream, &mut crate::KeepAll);
        for (shards, capacity) in [(1usize, 1usize), (2, 2), (4, 7), (3, 1024)] {
            let mut engine = ShardedEngine::new(query(12), shards);
            engine.set_queue_capacity(capacity);
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let mut deciders = vec![crate::KeepAll; shards];
            let merged = engine.run_source(&mut source, &mut deciders);
            assert_eq!(merged, single, "{shards} shards at capacity {capacity} diverged");
            let stats = engine.queue_stats();
            assert_eq!(stats.len(), shards);
            for queue in stats {
                assert_eq!(queue.capacity, capacity);
                assert_eq!(queue.pushed, stream.len() as u64);
                assert!(queue.peak_depth <= capacity);
            }
        }
    }

    #[test]
    fn streaming_run_reports_engine_stats_like_the_slice_path() {
        let stream = keyed_stream(200);
        let mut single = Operator::new(query(10));
        let _ = single.run(&stream, &mut crate::KeepAll);
        let mut engine = ShardedEngine::new(query(10), 2);
        engine.set_queue_capacity(8);
        let mut source = espice_events::SliceSource::from_stream(&stream);
        let _ = engine.run_source(&mut source, &mut [crate::KeepAll; 2]);
        assert_eq!(&engine.stats().merged, single.stats());
    }

    #[test]
    fn multi_query_engine_equals_independent_engines_per_query() {
        let stream = keyed_stream(260);
        let set = QuerySet::new(vec![query(12), query(7), query(9)]);
        for shards in [1usize, 2, 4] {
            let mut fused = ShardedEngine::for_queries(set.clone(), shards);
            let mut deciders = vec![crate::KeepAll; shards * set.len()];
            let per_query = fused.run_per_query(&stream, &mut deciders);
            assert_eq!(per_query.len(), set.len());
            let stats = fused.stats();
            for (id, q) in set.iter() {
                let mut solo = ShardedEngine::new(q.clone(), shards);
                let expected = solo.run_keep_all(&stream);
                assert_eq!(
                    per_query[id as usize], expected,
                    "query {id} diverged at {shards} shards"
                );
                assert_eq!(
                    stats.per_query[id as usize],
                    solo.stats().merged,
                    "query {id} stats diverged at {shards} shards"
                );
            }
            // The flat compatibility output is the per-query concatenation.
            fused.reset();
            let mut deciders = vec![crate::KeepAll; shards * set.len()];
            let flat = fused.run(&stream, &mut deciders);
            assert_eq!(flat.len(), stats.merged.complex_events as usize);
        }
    }

    #[test]
    fn multi_query_streaming_equals_multi_query_slice() {
        let stream = keyed_stream(300);
        let set = QuerySet::new(vec![query(12), query(5)]);
        for (shards, capacity) in [(1usize, 1usize), (2, 4), (3, 1024)] {
            let mut slice_engine = ShardedEngine::for_queries(set.clone(), shards);
            let mut slice_deciders = vec![crate::KeepAll; shards * set.len()];
            let expected = slice_engine.run_slice_per_query(&stream, &mut slice_deciders);

            let mut engine = ShardedEngine::for_queries(set.clone(), shards);
            engine.set_queue_capacity(capacity);
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let mut deciders = vec![crate::KeepAll; shards * set.len()];
            let streamed = engine.run_source_per_query(&mut source, &mut deciders);
            assert_eq!(streamed, expected, "{shards} shards at capacity {capacity} diverged");
            assert_eq!(engine.stats(), slice_engine.stats());
            // One queue per shard, each carrying every event once —
            // independent engines would have paid the hand-off per query.
            for queue in engine.queue_stats() {
                assert_eq!(queue.pushed, stream.len() as u64);
            }
        }
    }

    #[test]
    fn admission_mid_stream_equals_fresh_engine_over_the_suffix() {
        let stream = keyed_stream(300);
        let admit_at = 117u64;
        let suffix = VecStream::from_ordered(stream.events()[admit_at as usize..].to_vec());
        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query(12), shards);
            let control = engine.control();
            let handle = control.admit_at(admit_at, query(9), boxed_keepers(shards));
            assert_eq!(handle.slot, 1);

            let mut source = espice_events::SliceSource::from_stream(&stream);
            let outcome = engine.run_source_live(&mut source, boxed_keepers(shards));
            assert_eq!(outcome.lifecycle.admitted, vec![(handle, admit_at)]);
            assert_eq!(outcome.complex_events.len(), 2);
            assert!(engine.is_live(1));
            assert_eq!(engine.query_handle(1), Some(handle));

            let mut fresh = ShardedEngine::new(query(9), shards);
            let expected = fresh.run_keep_all(&suffix);
            assert_eq!(
                outcome.complex_events[1], expected,
                "admitted query diverged from a fresh engine at {shards} shards"
            );
            assert_eq!(engine.stats().per_query[1], fresh.stats().merged);

            // The original query is untouched.
            let mut solo = ShardedEngine::new(query(12), shards);
            assert_eq!(outcome.complex_events[0], solo.run_keep_all(&stream));
        }
    }

    #[test]
    fn retirement_mid_stream_drains_and_leaves_survivors_untouched() {
        let stream = keyed_stream(300);
        let set = QuerySet::new(vec![query(12), query(7)]);
        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::for_queries(set.clone(), shards);
            let control = engine.control();
            let handle = engine.query_handle(0).expect("slot 0 is live");
            control.retire_at(40, handle);

            let outcome = engine.run_slice_live(&stream, boxed_keepers(shards * 2));
            assert_eq!(outcome.lifecycle.retired, vec![(handle, 40)]);
            assert!(!engine.is_live(0));
            assert_eq!(engine.query_handle(0), None);
            assert_eq!(engine.live_query_count(), 1);
            // The retired slot's deciders are torn down on every shard.
            for row in &outcome.deciders {
                assert!(row[0].is_none());
                assert!(row[1].is_some());
            }

            // The survivor is byte-identical to running alone.
            let mut solo = ShardedEngine::new(query(7), shards);
            assert_eq!(outcome.complex_events[1], solo.run_keep_all(&stream));
            assert_eq!(engine.stats().per_query[1], solo.stats().merged);

            // The retired query emitted a prefix of its static output: all
            // windows opened before position 40, drained to completion.
            let mut full = ShardedEngine::new(query(12), shards);
            let full_output = full.run_keep_all(&stream);
            let retired = &outcome.complex_events[0];
            assert!(retired.len() < full_output.len());
            assert_eq!(retired.as_slice(), &full_output[..retired.len()]);
        }
    }

    #[test]
    fn out_of_order_admission_anchors_are_clamped_not_panicked() {
        // Slots are allocated in send order; a later admission anchored
        // *earlier* is clamped up to the previous admission's anchor, and
        // a retire anchored before its own admission applies at the
        // admission ("admitted and immediately retired"), never as a
        // silent rejection.
        let stream = keyed_stream(300);
        let mut engine = ShardedEngine::new(query(12), 2);
        let control = engine.control();
        let first = control.admit_at(200, query(9), boxed_keepers(2));
        let second = control.admit_at(50, query(7), boxed_keepers(2)); // clamped to 200
        control.retire_at(10, second); // clamped to second's admission

        let outcome = engine.run_slice_live(&stream, boxed_keepers(2));
        assert_eq!(outcome.lifecycle.rejected, 0);
        assert_eq!(outcome.lifecycle.admitted, vec![(first, 200), (second, 200)]);
        assert_eq!(outcome.lifecycle.retired, vec![(second, 200)]);
        // The clamped admission behaves like a fresh engine at 200.
        let suffix = VecStream::from_ordered(stream.events()[200..].to_vec());
        let mut fresh = ShardedEngine::new(query(9), 2);
        assert_eq!(outcome.complex_events[1], fresh.run_keep_all(&suffix));
        // Admitted-and-immediately-retired: no windows, empty output,
        // decider torn down.
        assert!(outcome.complex_events[2].is_empty());
        assert!(!engine.is_live(2));
    }

    #[test]
    fn shard_event_counts_survive_full_retirement() {
        // Retire the only query early: its slot counters freeze once its
        // windows drained, but the shards keep draining the stream — the
        // per-shard events_processed must count every event, as before
        // lifecycle existed.
        let stream = keyed_stream(300);
        let mut engine = ShardedEngine::new(query(8), 2);
        let control = engine.control();
        control.retire_at(10, engine.query_handle(0).expect("live"));
        let _ = engine.run_slice_live(&stream, boxed_keepers(2));
        let stats = engine.stats();
        assert!(stats.per_query[0].events_processed < 300, "slot counters freeze at teardown");
        for shard in &stats.per_shard {
            assert_eq!(shard.events_processed, 300, "shards keep counting after teardown");
        }
    }

    #[test]
    fn stale_retire_handles_are_rejected() {
        let stream = keyed_stream(120);
        let mut engine = ShardedEngine::new(query(8), 2);
        let control = engine.control();
        let handle = engine.query_handle(0).expect("live");
        control.retire_at(10, handle);
        control.retire_at(20, handle); // second retire of the same handle
        let forged = QueryHandle { slot: 0, generation: 999 };
        control.retire(forged);
        let outcome = engine.run_slice_live(&stream, boxed_keepers(2));
        assert_eq!(outcome.lifecycle.retired.len(), 1);
        assert_eq!(outcome.lifecycle.rejected, 2);
    }

    #[test]
    fn admissions_after_retirement_get_fresh_slots_and_generations() {
        let stream = keyed_stream(200);
        let mut engine = ShardedEngine::new(query(12), 1);
        let control = engine.control();
        let first = engine.query_handle(0).expect("live");
        control.retire_at(50, first);
        // Re-admit an identical query: fresh slot, fresh generation.
        let readmitted = control.admit_at(100, query(12), boxed_keepers(1));
        assert_ne!(readmitted.slot, first.slot);
        assert_ne!(readmitted.generation, first.generation);

        let outcome = engine.run_slice_live(&stream, boxed_keepers(1));
        assert_eq!(outcome.lifecycle.admitted.len(), 1);
        assert_eq!(outcome.lifecycle.retired.len(), 1);
        assert_eq!(engine.query_count(), 2);
        assert_eq!(engine.live_query_count(), 1);

        let suffix = VecStream::from_ordered(stream.events()[100..].to_vec());
        let mut fresh = ShardedEngine::new(query(12), 1);
        assert_eq!(outcome.complex_events[1], fresh.run_keep_all(&suffix));
    }

    #[test]
    fn reset_revives_retired_slots() {
        let stream = keyed_stream(150);
        let mut engine = ShardedEngine::new(query(8), 2);
        let control = engine.control();
        control.retire_at(30, engine.query_handle(0).expect("live"));
        let _ = engine.run_slice_live(&stream, boxed_keepers(2));
        assert_eq!(engine.live_query_count(), 0);

        engine.reset();
        assert_eq!(engine.live_query_count(), 1);
        let revived = engine.run_keep_all(&stream);
        let mut solo = ShardedEngine::new(query(8), 2);
        assert_eq!(revived, solo.run_keep_all(&stream));
    }

    #[test]
    fn chunk_capacity_is_output_invariant_across_the_sweep() {
        // The chunk size is a pure hand-off knob: every capacity — the
        // per-event degenerate 1, sizes that leave partial trailing chunks,
        // and sizes larger than the stream — must produce identical output
        // and event-exact queue accounting.
        let stream = keyed_stream(300);
        let single = Operator::new(query(12)).run(&stream, &mut crate::KeepAll);
        for chunk_capacity in [1usize, 2, 7, 64, 512] {
            let mut engine = ShardedEngine::new(query(12), 3);
            engine.set_queue_capacity(4);
            engine.set_chunk_capacity(chunk_capacity);
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let mut deciders = vec![crate::KeepAll; 3];
            let merged = engine.run_source(&mut source, &mut deciders);
            assert_eq!(merged, single, "chunk capacity {chunk_capacity} diverged");
            for queue in engine.queue_stats() {
                assert_eq!(queue.pushed, stream.len() as u64, "pushed counts events");
                assert!(queue.peak_depth <= 4, "peak depth counts hand-off slots");
            }
        }
    }

    #[test]
    fn lifecycle_commands_land_at_exact_positions_for_every_chunk_size() {
        // An admission mid-chunk forces the producer to seal a partial
        // chunk; the admitted query's output must still equal a fresh
        // engine over the exact suffix, for chunk sizes that put the
        // admission at every possible offset within a chunk.
        let stream = keyed_stream(300);
        let admit_at = 117u64;
        let suffix = VecStream::from_ordered(stream.events()[admit_at as usize..].to_vec());
        for chunk_capacity in [1usize, 2, 5, 64, 400] {
            let mut engine = ShardedEngine::new(query(12), 2);
            engine.set_chunk_capacity(chunk_capacity);
            let control = engine.control();
            let handle = control.admit_at(admit_at, query(9), boxed_keepers(2));
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let outcome = engine.run_source_live(&mut source, boxed_keepers(2));
            assert_eq!(outcome.lifecycle.admitted, vec![(handle, admit_at)]);

            let mut fresh = ShardedEngine::new(query(9), 2);
            let expected = fresh.run_keep_all(&suffix);
            assert_eq!(
                outcome.complex_events[1], expected,
                "admission drifted at chunk capacity {chunk_capacity}"
            );
            let mut solo = ShardedEngine::new(query(12), 2);
            assert_eq!(outcome.complex_events[0], solo.run_keep_all(&stream));
        }
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_queue_capacity_rejected() {
        let mut engine = ShardedEngine::new(query(8), 1);
        engine.set_queue_capacity(0);
    }

    #[test]
    #[should_panic(expected = "chunk capacity")]
    fn zero_chunk_capacity_rejected() {
        let mut engine = ShardedEngine::new(query(8), 1);
        engine.set_chunk_capacity(0);
    }

    #[test]
    #[should_panic(expected = "one decider per shard per query")]
    fn mismatched_decider_count_panics() {
        let mut engine = ShardedEngine::new(query(8), 2);
        let mut deciders = vec![crate::KeepAll];
        let _ = engine.run(&keyed_stream(10), &mut deciders);
    }

    #[test]
    #[should_panic(expected = "per shard per live query")]
    fn mismatched_live_decider_count_panics() {
        let mut engine = ShardedEngine::new(query(8), 2);
        let _ = engine.run_slice_live(&keyed_stream(10), boxed_keepers(1));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::new(query(8), 0);
    }
}
