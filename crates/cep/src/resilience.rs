//! Fault tolerance for the sharded engine: typed failure reporting,
//! chunk-replay shard recovery, and stall detection.
//!
//! eSPICE frames load shedding as *controlled degradation* — keep the
//! latency bound by dropping the least useful work. Component failure is
//! the other instance of the same idea: a shard thread that panics (a bug
//! in a decider, an injected fault) should degrade the run, not destroy
//! it. This module adds three escalating answers:
//!
//! 1. **Containment** (`try_run_*` on [`ShardedEngine`]): shard panics come
//!    back as [`EngineError::ShardsFailed`] values carrying the panic
//!    message and the stream position the failure was first observed at,
//!    while surviving shards drain to completion.
//! 2. **Recovery** ([`ShardedEngine::run_source_resilient`]): the producer
//!    retains sealed [`EventChunk`]s above a
//!    per-shard low-water acknowledgement — the chunk containing the start
//!    of the shard's oldest open window, pruned exactly like the event ring
//!    prunes its slots — and on a shard panic spawns a fresh replacement
//!    that replays the retained chunks. Already-emitted windows are
//!    deduplicated by the shard's deterministic window-id watermark, so the
//!    merged output of a crashed-and-recovered run is **byte-identical** to
//!    the fault-free run.
//! 3. **Stall safety**: a progress watchdog turns a wedged shard into
//!    [`EngineError::Stalled`] after a configurable deadline instead of
//!    blocking the producer forever.
//!
//! Recovery adds no second ingestion pipeline. The resilient run feeds its
//! shards through the engine's one producer loop (its chunk sink retains
//! every delivered chunk and replaces dead shards), and every shard
//! incarnation — replacements included — runs the one shard drain loop,
//! replaying its retained chunks first. The resilient parts plug in as
//! that loop's hooks: a coordinator abort flag, and a per-chunk boundary
//! callback that swaps out of the replay phase and publishes the
//! checkpoint described below.
//!
//! # The recovery argument
//!
//! Window-open decisions are a pure function of the stream, and windows are
//! hash-partitioned by a per-slot id counter that advances deterministically
//! with the stream — or, under [`OwnershipPolicy::StealAtOpen`], routed by a
//! window balancer whose assignments are an equally pure function of the
//! stream, so the same argument covers stolen windows. At every chunk
//! boundary `b` the drain loop flushes its emissions to a shard monitor
//! together with a checkpoint (open-tracker slide state, per-slot window-id
//! counters, the window-ownership table, and per-slot snapshots of the
//! shared size predictor) and the boundary's *low-water mark* `low(b)` — the stream position of the oldest event any still-open
//! window starts at. Checkpoints below the current low-water mark are
//! pruned, so the oldest retained checkpoint position `R̂` always satisfies
//! `R̂ ≤ low(b)` for the latest flushed boundary `b = c`. A replacement
//! shard restored at `R̂` that replays `[R̂, c)` therefore re-opens exactly
//! the windows that were open at `c` (their starts are all ≥ `low(c) ≥ R̂`)
//! with the same ids, and re-closes exactly the windows the crashed
//! incarnation already flushed — which the per-slot id watermark filters
//! out. Shedding decisions are reproduced by running the replay against
//! *pristine clones* of the initial deciders (window-scoped deciders such
//! as the eSPICE accumulator, keyed per `(query, window id)`, take the same
//! decisions they took the first time); at `c` the replacement swaps in
//! clones of the deciders snapshotted at `c` and overwrites its counters
//! wholesale with the crashed incarnation's, so everything from `c` onward
//! — emissions, statistics, decider state — continues exactly as the
//! fault-free run would have.
//!
//! The byte-identity guarantee is scoped to deciders whose decisions are a
//! function of `(window id, position, event, predicted size)` with
//! count-based windows (exact predicted size) — the same scope every other
//! shard-invariance guarantee in this crate has. On time-based windows the
//! [`SharedSizePredictor`] is rewound to the snapshot of the *newest*
//! flushed checkpoint (the swap boundary `c`) and the replacement's own
//! observations are muted for the replayed span — every close at or below
//! `c` already fed the estimator once, and rewinding further back would
//! lose the closes of windows the replay never re-opens. A single-shard
//! recovery therefore ends with exactly the fault-free observation count.
//! With *multiple* shards the rewind also discards observations other live
//! shards contributed after boundary `c`, so shared predictions on time
//! windows keep their existing thread-timing sensitivity, nothing worse;
//! queue samples report the replacement's own clocks. Mid-stream lifecycle
//! (admit/retire) is
//! containment-only for now: recovery requires the static query set.
//!
//! [`OwnershipPolicy::StealAtOpen`]: crate::OwnershipPolicy::StealAtOpen
//! [`SharedSizePredictor`]: crate::SharedSizePredictor

use crate::arena::EventChunk;
use crate::engine::{merge_outputs, produce, ChunkSink, ConfigError, ShardedEngine};
use crate::faults::ArmedFaults;
use crate::lifecycle::{ShardCommand, ShardInput};
use crate::queue::{spsc, PushOutcome, QueueConsumer, QueueProducer, QueueStats};
use crate::shard::{DeciderRow, DrainHooks, ShardCheckpoint};
use crate::window::WindowId;
use crate::{BoxedDecider, ComplexEvent, FaultPlan, OperatorStats, Shard, WindowEventDecider};
use espice_events::EventSource;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One shard's failure, reported as a value instead of an unwinding panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the failed shard.
    pub shard: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
    /// The stream position (chunk sequence / event position) at which the
    /// failure was first observed — the producer-side hand-off position on
    /// streaming paths, `None` when the position is unknown (slice scans,
    /// or a death only discovered at join time).
    pub position: Option<u64>,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.position {
            Some(position) => write!(
                f,
                "shard {} panicked at stream position {}: {}",
                self.shard, position, self.message
            ),
            None => write!(f, "shard {} panicked: {}", self.shard, self.message),
        }
    }
}

/// A failed engine run, reported as a typed value by the `try_run_*` and
/// resilient entry points (the panicking wrappers format it into their
/// panic message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A rejected configuration value (see [`ConfigError`]).
    Config(ConfigError),
    /// The decider count does not match the engine's shard-major layout.
    DeciderMismatch {
        /// `shards × queries` (or `shards × live queries` on live paths).
        expected: usize,
        /// The decider count actually supplied.
        got: usize,
        /// Whether the expectation counts live queries only (live paths).
        live_only: bool,
    },
    /// The resilient path was invoked on an engine with retired query
    /// slots; recovery rebuilds shards from the static query set, so every
    /// slot must be live ([`ShardedEngine::reset`] revives them).
    RetiredSlots,
    /// One or more shard threads panicked; survivors drained to
    /// completion. The engine's internal state is unspecified afterwards —
    /// call [`ShardedEngine::reset`] before reuse.
    ShardsFailed {
        /// The per-shard failures, in shard order.
        failures: Vec<ShardFailure>,
    },
    /// A shard stopped making progress past the configured deadline
    /// (resilient path only). The engine's shards have been rebuilt fresh.
    Stalled {
        /// Index of the wedged shard.
        shard: usize,
        /// The last stream position the shard had completed.
        last_progress: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(error) => write!(f, "{error}"),
            EngineError::DeciderMismatch { expected, got, live_only } => {
                let axis = if *live_only { "live query" } else { "query" };
                write!(
                    f,
                    "need exactly one decider per shard per {axis} (shard-major): \
                     expected {expected}, got {got}"
                )
            }
            EngineError::RetiredSlots => {
                write!(f, "the resilient path needs every query slot live; reset() revives them")
            }
            EngineError::ShardsFailed { failures } => {
                let mut first = true;
                for failure in failures {
                    if !first {
                        write!(f, "; ")?;
                    }
                    first = false;
                    write!(f, "{failure}")?;
                }
                Ok(())
            }
            EngineError::Stalled { shard, last_progress } => write!(
                f,
                "shard {shard} stalled: no progress past stream position {last_progress} \
                 within the deadline"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigError> for EngineError {
    fn from(error: ConfigError) -> Self {
        EngineError::Config(error)
    }
}

/// Renders a panic payload (`Box<dyn Any>`) to a string: the common
/// `&str` / `String` payloads verbatim, anything else a placeholder.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-shard outcome of a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// The shard ran fault-free.
    Healthy,
    /// The shard crashed and was recovered by chunk replay; its output is
    /// byte-identical to a fault-free run (see the module docs for scope).
    Recovered {
        /// How many times the shard was restarted.
        restarts: u32,
        /// Total chunks replayed across all restarts.
        replayed_chunks: u64,
    },
    /// The shard exhausted its restart budget; the run completed degraded.
    /// The merged output still contains every window this shard flushed
    /// before its final crash.
    Failed(ShardFailure),
}

/// Knobs of [`ShardedEngine::run_source_resilient`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// How long a shard may go without completing a chunk boundary before
    /// the run is declared [`EngineError::Stalled`]. `None` uses
    /// [`DEFAULT_STALL_DEADLINE`].
    pub stall_deadline: Option<Duration>,
    /// How many times one shard may be restarted before it is marked
    /// [`ShardStatus::Failed`]. `None` uses [`DEFAULT_MAX_RESTARTS`].
    pub max_restarts: Option<u32>,
    /// Faults to inject into this run (overrides the engine-level plan
    /// installed with [`ShardedEngine::set_fault_plan`] when set).
    pub fault_plan: Option<FaultPlan>,
}

/// Default progress deadline before a wedged shard yields
/// [`EngineError::Stalled`].
pub const DEFAULT_STALL_DEADLINE: Duration = Duration::from_secs(5);

/// Default per-shard restart budget of the resilient path.
pub const DEFAULT_MAX_RESTARTS: u32 = 2;

/// What a resilient run returns: the merged per-query outputs plus the
/// fault/recovery record.
#[derive(Debug)]
pub struct RunReport<D> {
    /// Each query's complex events, merged across shards into
    /// single-operator emission order — byte-identical to the fault-free
    /// run when every shard is `Healthy` or `Recovered`.
    pub complex_events: Vec<Vec<ComplexEvent>>,
    /// Per-shard outcome, indexed by shard.
    pub shard_status: Vec<ShardStatus>,
    /// Total shard restarts across the run.
    pub recoveries: u32,
    /// The final decider row of each shard (slot-major within a shard), or
    /// `None` for shards that failed permanently.
    pub deciders: Vec<Option<Vec<D>>>,
}

impl<D> RunReport<D> {
    /// Whether any shard failed permanently (output is missing that
    /// shard's unflushed windows).
    pub fn is_degraded(&self) -> bool {
        self.shard_status.iter().any(|s| matches!(s, ShardStatus::Failed(_)))
    }

    /// Whether any shard crashed and was recovered.
    pub fn recovered(&self) -> bool {
        self.shard_status.iter().any(|s| matches!(s, ShardStatus::Recovered { .. }))
    }
}

/// The decider/counter snapshot of the latest flushed boundary `c`: what a
/// replacement swaps in when its replay reaches `c`.
#[derive(Debug, Clone)]
struct LatestCell<D> {
    position: u64,
    stats: Vec<OperatorStats>,
    peaks: Vec<usize>,
    deciders: Vec<D>,
}

/// The coordinator-visible state of one shard, shared (via `Arc`) between
/// the producer loop and every incarnation of the shard's drain thread.
#[derive(Debug)]
struct ShardMonitor<D> {
    /// Last chunk boundary the shard completed (watchdog input).
    progress: AtomicU64,
    /// The replay acknowledgement `R̂`: the producer may prune retained
    /// chunks that end at or below the minimum ack across shards.
    ack: AtomicU64,
    /// Set by the coordinator to make the drain thread bail out (stall
    /// teardown). Injected stalls poll it too.
    abort: AtomicBool,
    state: Mutex<MonitorState<D>>,
}

#[derive(Debug)]
struct MonitorState<D> {
    /// Flushed (deduplicated) emissions per slot, in close order.
    flushed: Vec<Vec<ComplexEvent>>,
    /// Highest flushed window id per slot: the replay dedup watermark.
    watermarks: Vec<Option<WindowId>>,
    /// Retained checkpoints, oldest (= `R̂`) first.
    checkpoints: VecDeque<ShardCheckpoint>,
    /// Snapshot of the latest flushed boundary.
    latest: LatestCell<D>,
}

impl<D: Clone> ShardMonitor<D> {
    fn new(slots: usize, initial_checkpoint: ShardCheckpoint, initial_deciders: &[D]) -> Self {
        let latest = LatestCell {
            position: initial_checkpoint.position,
            stats: vec![OperatorStats::default(); slots],
            peaks: vec![0; slots],
            deciders: initial_deciders.to_vec(),
        };
        ShardMonitor {
            progress: AtomicU64::new(initial_checkpoint.position),
            ack: AtomicU64::new(initial_checkpoint.position),
            abort: AtomicBool::new(false),
            state: Mutex::new(MonitorState {
                flushed: vec![Vec::new(); slots],
                watermarks: vec![None; slots],
                checkpoints: VecDeque::from([initial_checkpoint]),
                latest,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MonitorState<D>> {
        // A drain thread can only die between flushes (the flush itself is
        // plain data movement); recover the guard so the coordinator can
        // still read the last consistent snapshot.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The replay phase of a replacement shard: while the stream position is
/// below `swap_at` (= the crashed incarnation's last flushed boundary `c`),
/// events run against pristine decider clones; at `swap_at` the counters
/// are overwritten with the crashed incarnation's snapshot and the drain
/// switches to the `c`-state decider row.
struct PhaseA<D> {
    deciders: Vec<D>,
    swap_at: u64,
    stats: Vec<OperatorStats>,
    peaks: Vec<usize>,
}

/// The decider row of one resilient drain incarnation: the "real" row —
/// the initial row for the first incarnation, the `c`-state clones for a
/// replacement — shadowed by the pristine replay row while phase A lasts.
struct ResilientRow<D> {
    deciders: Vec<D>,
    phase_a: Option<PhaseA<D>>,
}

impl<D: WindowEventDecider> DeciderRow for ResilientRow<D> {
    type Decider = D;

    fn get(&mut self, slot: usize) -> Option<&mut D> {
        match &mut self.phase_a {
            Some(phase) => phase.deciders.get_mut(slot),
            None => self.deciders.get_mut(slot),
        }
    }

    fn install(&mut self, _slot: usize, _decider: BoxedDecider) {
        unreachable!("the resilient path runs a static query set");
    }

    fn remove(&mut self, _slot: usize) {}
}

impl<D> ResilientRow<D> {
    /// Leaves phase A once the replay has reached the crashed incarnation's
    /// last flushed boundary: counters continue from the original's values
    /// and subsequent events run against the `c`-state decider row.
    fn maybe_swap(&mut self, shard: &mut Shard, position: u64) {
        if self.phase_a.as_ref().is_some_and(|phase| position >= phase.swap_at) {
            let phase = self.phase_a.take().expect("checked above");
            shard.overwrite_slot_counters(&phase.stats, &phase.peaks, phase.swap_at);
            // Closes past the boundary are new work the crashed incarnation
            // never observed: resume feeding the shared size predictor.
            shard.set_shared_predictor_muted(false);
        }
    }
}

impl<D: Clone> ShardMonitor<D> {
    /// Publishes the boundary at `position`: dedup-filtered emissions, a
    /// fresh checkpoint (pruned against the boundary's low-water mark), the
    /// ack for chunk retention, and — outside phase A — the latest-boundary
    /// snapshot a future replacement would swap in. Phase A never touches
    /// the snapshot: its pristine deciders carry replay-local, not global,
    /// state.
    fn flush_boundary(
        &self,
        shard: &Shard,
        row: &ResilientRow<D>,
        outputs: &mut [Vec<ComplexEvent>],
        position: u64,
    ) {
        let low = shard.oldest_open_start_pos().unwrap_or(position);
        let checkpoint = shard.cut_checkpoint(position);
        let (stats, peaks) = shard.slot_counters();
        let mut state = self.lock();
        for (slot, lane) in outputs.iter_mut().enumerate() {
            if lane.is_empty() {
                continue;
            }
            // Windows close in ascending id order per slot, so the lane's
            // last emission carries its highest id; everything at or below
            // the watermark was already flushed by the crashed incarnation.
            let prior = state.watermarks[slot];
            let highest = lane.last().expect("non-empty lane").window_id();
            for complex in lane.drain(..) {
                if prior.is_none_or(|w| complex.window_id() > w) {
                    state.flushed[slot].push(complex);
                }
            }
            state.watermarks[slot] = Some(prior.map_or(highest, |w| w.max(highest)));
        }
        state.checkpoints.push_back(checkpoint);
        while state.checkpoints.len() > 1 && state.checkpoints[1].position <= low {
            state.checkpoints.pop_front();
        }
        let ack = state.checkpoints.front().expect("pushed above").position;
        if row.phase_a.is_none() {
            state.latest = LatestCell { position, stats, peaks, deciders: row.deciders.clone() };
        }
        drop(state);
        self.ack.store(ack, Ordering::Release);
        self.progress.store(position, Ordering::Release);
    }
}

/// The resilient drain's hooks into [`Shard::drain`]: the coordinator's
/// abort flag, and at every chunk boundary the phase-A swap check followed
/// by the boundary flush to the monitor.
impl<D: Clone> DrainHooks<ResilientRow<D>> for &ShardMonitor<D> {
    fn abort_flag(&self) -> Option<&AtomicBool> {
        Some(&self.abort)
    }

    fn on_boundary(
        &mut self,
        shard: &mut Shard,
        row: &mut ResilientRow<D>,
        outputs: &mut [Vec<ComplexEvent>],
        position: u64,
    ) {
        row.maybe_swap(shard, position);
        self.flush_boundary(shard, row, outputs, position);
    }
}

/// The completion message a drain thread sends the coordinator.
enum DriveOutcome<D> {
    Finished(Box<(Shard, Vec<D>)>),
    Aborted,
    Panicked(String),
}

/// Coordinator-side bookkeeping for one shard.
struct Seat<D> {
    producer: Option<QueueProducer<ShardInput>>,
    monitor: Arc<ShardMonitor<D>>,
    /// Clones of the shard's *initial* deciders, taken at run start: the
    /// replay-phase row of every replacement.
    pristine: Vec<D>,
    restarts: u32,
    replayed_chunks: u64,
    running: bool,
    finished: Option<(Shard, Vec<D>)>,
    failure: Option<ShardFailure>,
    last_progress: u64,
    last_change: Instant,
    queue_stats: Vec<QueueStats>,
}

impl<D> Seat<D> {
    /// Accumulated queue counters across the seat's incarnations.
    fn merged_queue_stats(&self, capacity: usize) -> QueueStats {
        let mut merged = QueueStats {
            capacity,
            pushed: 0,
            peak_depth: 0,
            peak_event_depth: 0,
            backpressure_events: 0,
        };
        for stats in &self.queue_stats {
            merged.pushed += stats.pushed;
            merged.peak_depth = merged.peak_depth.max(stats.peak_depth);
            merged.peak_event_depth = merged.peak_event_depth.max(stats.peak_event_depth);
            merged.backpressure_events += stats.backpressure_events;
        }
        merged
    }

    fn retire_producer(&mut self) {
        if let Some(producer) = self.producer.take() {
            self.queue_stats.push(producer.stats());
            // Dropping the producer closes the queue.
        }
    }
}

/// The producer side of a resilient run: the [`ChunkSink`] the shared
/// producer loop delivers into, plus shard replacement and the watchdog.
struct Coordinator<'e, D> {
    engine: &'e ShardedEngine,
    seats: Vec<Seat<D>>,
    /// Retained chunk log: every sealed chunk above the minimum ack across
    /// live shards, pruned after each delivery. This is the recovery
    /// source a replacement replays from.
    retained: VecDeque<Arc<EventChunk>>,
    done_tx: mpsc::Sender<(usize, DriveOutcome<D>)>,
    done_rx: mpsc::Receiver<(usize, DriveOutcome<D>)>,
    faults: Option<Arc<ArmedFaults>>,
    stall_deadline: Duration,
    max_restarts: u32,
    /// A push re-checks the watchdog at this granularity while a queue
    /// stays full.
    push_slice: Duration,
}

impl ShardedEngine {
    /// Streams `source` through all shards like
    /// [`run_source_per_query`](Self::run_source_per_query), but survives
    /// shard crashes and stalls:
    ///
    /// * a panicking shard is **replaced**: a fresh shard (fresh operators,
    ///   pristine decider clones) replays the retained chunks from the
    ///   shard's low-water acknowledgement and rejoins the live stream with
    ///   output byte-identical to a fault-free run (see the module docs for
    ///   the argument and its scope);
    /// * a shard that keeps crashing past `options.max_restarts` is marked
    ///   [`ShardStatus::Failed`] and the run completes **degraded** — the
    ///   report still carries every window the shard flushed;
    /// * a shard that stops making progress for `options.stall_deadline`
    ///   yields [`EngineError::Stalled`] instead of wedging the producer.
    ///
    /// `deciders` supplies one decider per shard per query (shard-major),
    /// by value: each shard's row is moved into its drain thread and
    /// returned in the report. Unlike the scoped paths this spawns owned
    /// threads, so `D` must be `Clone + Send + 'static` (`Clone` is what
    /// revives a replacement's deciders, the same way
    /// [`reset`](Self::reset) machinery revives engine state).
    ///
    /// The producer and drain loops are the ones every streaming path
    /// runs: the stream is chunk-framed (a checkpoint is a chunk sequence
    /// number), and queue sampling
    /// ([`set_check_interval`](Self::set_check_interval)) fires during live
    /// draining but not during replay.
    ///
    /// # Errors
    ///
    /// [`EngineError::DeciderMismatch`] on a bad decider count,
    /// [`EngineError::RetiredSlots`] if any slot was retired, and
    /// [`EngineError::Stalled`] on a progress deadline violation (the
    /// engine's shards are rebuilt fresh in that case).
    pub fn run_source_resilient<Src, D>(
        &mut self,
        source: &mut Src,
        deciders: Vec<D>,
        options: &ResilienceOptions,
    ) -> Result<RunReport<D>, EngineError>
    where
        Src: EventSource + ?Sized,
        D: WindowEventDecider + Clone + Send + 'static,
    {
        let shard_count = self.shards.len();
        let queries = self.queries.len();
        if self.live.iter().any(|&live| !live) {
            return Err(EngineError::RetiredSlots);
        }
        if deciders.len() != shard_count * queries {
            return Err(EngineError::DeciderMismatch {
                expected: shard_count * queries,
                got: deciders.len(),
                live_only: false,
            });
        }
        let stall_deadline = options.stall_deadline.unwrap_or(DEFAULT_STALL_DEADLINE);
        let faults = options.fault_plan.as_ref().or(self.fault_plan.as_ref()).map(ArmedFaults::arm);
        let kill_after = faults.as_ref().and_then(|f| f.producer_kill_after());
        let chunk_capacity = self.chunk_capacity;

        // Move the engine's shards into their drain threads, each with its
        // slice of the flat shard-major deciders.
        let shards = std::mem::take(&mut self.shards);
        let (done_tx, done_rx) = mpsc::channel();
        let mut coordinator = Coordinator {
            engine: &*self,
            seats: Vec::with_capacity(shard_count),
            retained: VecDeque::new(),
            done_tx,
            done_rx,
            faults,
            stall_deadline,
            max_restarts: options.max_restarts.unwrap_or(DEFAULT_MAX_RESTARTS),
            push_slice: (stall_deadline / 4)
                .clamp(Duration::from_millis(1), Duration::from_millis(100)),
        };
        let mut iter = deciders.into_iter();
        for (index, shard) in shards.into_iter().enumerate() {
            coordinator.seat(index, shard, iter.by_ref().take(queries).collect());
        }
        let outcome = produce(source, chunk_capacity, kill_after, None, &mut coordinator)
            .and_then(|delivered| coordinator.finish().map(|()| delivered));
        let Coordinator { seats, done_rx, .. } = coordinator;
        // The events actually sealed and delivered — after an injected
        // producer kill, the sealed-chunk prefix. The engine-level counter
        // must match what the shards (and a fault-free oracle over the
        // delivered prefix) saw.
        let delivered = match outcome {
            Ok(delivered) => delivered,
            Err(error) => return Err(self.abort_run(seats, &done_rx, error)),
        };

        // Assemble the report and restore the engine: finished shards move
        // back in (their counters feed `stats()`), failed seats get fresh
        // shards.
        let mut complex: Vec<Vec<Vec<ComplexEvent>>> = Vec::with_capacity(shard_count);
        let mut shard_status = Vec::with_capacity(shard_count);
        let mut deciders_out = Vec::with_capacity(shard_count);
        let mut restored: Vec<Shard> = Vec::with_capacity(shard_count);
        let mut recoveries = 0u32;
        let mut queue_stats = Vec::with_capacity(shard_count);
        for (index, mut seat) in seats.into_iter().enumerate() {
            complex.push(std::mem::take(&mut seat.monitor.lock().flushed));
            queue_stats.push(seat.merged_queue_stats(self.queue_capacity));
            recoveries += seat.restarts;
            match (seat.finished.take(), seat.failure.take()) {
                (Some((shard, row)), _) => {
                    shard_status.push(if seat.restarts > 0 {
                        ShardStatus::Recovered {
                            restarts: seat.restarts,
                            replayed_chunks: seat.replayed_chunks,
                        }
                    } else {
                        ShardStatus::Healthy
                    });
                    restored.push(shard);
                    deciders_out.push(Some(row));
                }
                (None, Some(failure)) => {
                    shard_status.push(ShardStatus::Failed(failure));
                    restored.push(self.fresh_shard(index, shard_count));
                    deciders_out.push(None);
                }
                (None, None) => unreachable!("a non-running seat is finished or failed"),
            }
        }
        self.shards = restored;
        self.events_processed += delivered;
        self.queue_stats = queue_stats;

        Ok(RunReport {
            complex_events: merge_outputs(complex, queries),
            shard_status,
            recoveries,
            deciders: deciders_out,
        })
    }

    /// Stall/error teardown: aborts every drain thread, briefly drains the
    /// completion channel (injected stalls poll the abort flag and exit
    /// early; a genuinely wedged thread is detached), rebuilds the engine's
    /// shards fresh, and passes the error through.
    fn abort_run<D>(
        &mut self,
        mut seats: Vec<Seat<D>>,
        done_rx: &mpsc::Receiver<(usize, DriveOutcome<D>)>,
        error: EngineError,
    ) -> EngineError {
        for seat in &mut seats {
            seat.monitor.abort.store(true, Ordering::Release);
            seat.retire_producer();
        }
        let grace = Instant::now() + Duration::from_millis(250);
        while seats.iter().any(|seat| seat.running) {
            let now = Instant::now();
            if now >= grace {
                break;
            }
            match done_rx.recv_timeout(grace - now) {
                Ok((index, _)) => seats[index].running = false,
                Err(_) => break,
            }
        }
        let shard_count = seats.len();
        self.shards = (0..shard_count).map(|index| self.fresh_shard(index, shard_count)).collect();
        self.queue_stats =
            seats.iter().map(|seat| seat.merged_queue_stats(self.queue_capacity)).collect();
        error
    }
}

impl<D: WindowEventDecider + Clone + Send + 'static> Coordinator<'_, D> {
    /// Seats shard `index` with its initial decider `row` and starts its
    /// first drain incarnation.
    fn seat(&mut self, index: usize, shard: Shard, row: Vec<D>) {
        let monitor =
            Arc::new(ShardMonitor::new(shard.query_count(), shard.cut_checkpoint(0), &row));
        let (producer, queue) = spsc(self.engine.queue_capacity);
        self.seats.push(Seat {
            producer: Some(producer),
            monitor,
            pristine: row.clone(),
            restarts: 0,
            replayed_chunks: 0,
            running: true,
            finished: None,
            failure: None,
            last_progress: 0,
            last_change: Instant::now(),
            queue_stats: Vec::new(),
        });
        self.spawn_drain(
            index,
            shard,
            ResilientRow { deciders: row, phase_a: None },
            Vec::new(),
            queue,
        );
    }

    /// Spawns one drain-thread incarnation of shard `index`: `replay`, then
    /// the live queue, through the shared drain loop with the shard
    /// monitor as its boundary hooks. The outcome goes to the completion
    /// channel.
    fn spawn_drain(
        &self,
        index: usize,
        mut shard: Shard,
        mut row: ResilientRow<D>,
        replay: Vec<Arc<EventChunk>>,
        queue: QueueConsumer<ShardInput>,
    ) {
        let monitor = Arc::clone(&self.seats[index].monitor);
        let faults = self.faults.clone();
        let check_interval = self.engine.check_interval;
        let done_tx = self.done_tx.clone();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                let mut hooks = &*monitor;
                let drained = shard.drain(
                    replay,
                    queue,
                    &mut row,
                    check_interval,
                    faults.as_deref(),
                    &mut hooks,
                );
                drained.map(|_| (shard, row.deciders))
            }));
            let outcome = match result {
                Ok(Some(finished)) => DriveOutcome::Finished(Box::new(finished)),
                Ok(None) => DriveOutcome::Aborted,
                Err(payload) => DriveOutcome::Panicked(panic_message(payload)),
            };
            // The coordinator may have torn the run down already; a closed
            // channel just means nobody is listening any more.
            let _ = done_tx.send((index, outcome));
        });
    }

    /// End of stream: closes every live queue and collects completions,
    /// restarting crashed shards (their replacement replays and flushes
    /// against an already-closed queue) and watching for stalls.
    fn finish(&mut self) -> Result<(), EngineError> {
        for seat in &mut self.seats {
            seat.retire_producer();
        }
        while self.seats.iter().any(|seat| seat.running) {
            match self.done_rx.recv_timeout(self.push_slice) {
                Ok((index, outcome)) => self.absorb_outcome(index, outcome, true)?,
                Err(RecvTimeoutError::Timeout) => self.check_watchdog()?,
                // We hold `done_tx`, so the channel cannot disconnect.
                Err(RecvTimeoutError::Disconnected) => unreachable!("coordinator holds a sender"),
            }
        }
        Ok(())
    }

    /// Blocks until shard `index`'s completion message arrives (it is
    /// imminent: its queue consumer was observed dropped), absorbing other
    /// shards' completions on the way, then replaces or permanently fails
    /// the shard.
    fn wait_for_death(&mut self, index: usize) -> Result<(), EngineError> {
        let deadline = Instant::now() + self.stall_deadline.max(Duration::from_secs(1));
        loop {
            let now = Instant::now();
            if now >= deadline {
                // The consumer is gone but no completion arrived: treat as a
                // wedge of the unwinding thread.
                let last_progress = self.seats[index].monitor.progress.load(Ordering::Acquire);
                return Err(EngineError::Stalled { shard: index, last_progress });
            }
            match self.done_rx.recv_timeout(deadline - now) {
                Ok((done_index, outcome)) => {
                    self.absorb_outcome(done_index, outcome, false)?;
                    if done_index == index {
                        return Ok(());
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => unreachable!("coordinator holds a sender"),
            }
        }
    }

    /// Applies one completion message: a finished shard is parked for the
    /// report; a panicked shard is replaced (fresh shard + checkpoint
    /// restore + retained-chunk replay) or, past its restart budget, marked
    /// failed. `closed` selects whether the replacement's queue starts
    /// closed (end of stream already reached).
    fn absorb_outcome(
        &mut self,
        index: usize,
        outcome: DriveOutcome<D>,
        closed: bool,
    ) -> Result<(), EngineError> {
        let shard_count = self.seats.len();
        let seat = &mut self.seats[index];
        let message = match outcome {
            DriveOutcome::Finished(finished) => {
                seat.running = false;
                seat.finished = Some(*finished);
                seat.retire_producer();
                return Ok(());
            }
            // Only the stall teardown sets the abort flag, and it stops
            // listening; an abort seen here means the thread noticed a flag
            // from a previous teardown attempt — treat as failed.
            DriveOutcome::Aborted => {
                seat.running = false;
                seat.failure = Some(ShardFailure {
                    shard: index,
                    message: "drain thread aborted".to_string(),
                    position: Some(seat.monitor.progress.load(Ordering::Acquire)),
                });
                seat.retire_producer();
                return Ok(());
            }
            DriveOutcome::Panicked(message) => message,
        };
        let position = seat.monitor.progress.load(Ordering::Acquire);
        let failure = ShardFailure { shard: index, message, position: Some(position) };
        seat.retire_producer();
        if seat.restarts >= self.max_restarts {
            seat.running = false;
            seat.failure = Some(failure);
            return Ok(());
        }
        seat.restarts += 1;

        // Build the replacement: restore the replay checkpoint R̂; phase A
        // runs pristine decider clones up to the last flushed boundary c,
        // where the c-state snapshot takes over.
        let (checkpoint, rewind, latest) = {
            let mut state = seat.monitor.lock();
            // The shared size predictor rewinds to the *newest* flushed
            // boundary's snapshot, not the replay checkpoint's: windows that
            // opened before the replay checkpoint but closed before that
            // boundary are never re-opened by the replay (their output is
            // watermark-deduped), so rewinding further back would lose their
            // observations for good. The replayed span itself is muted
            // instead — see `Shard::set_shared_predictor_muted`.
            let rewind = state
                .checkpoints
                .back()
                .expect("monitor seeded with a checkpoint")
                .predictor_snapshots()
                .to_vec();
            state.checkpoints.truncate(1);
            let checkpoint =
                state.checkpoints.front().expect("monitor seeded with a checkpoint").clone();
            (checkpoint, rewind, state.latest.clone())
        };
        let replay: Vec<Arc<EventChunk>> = self
            .retained
            .iter()
            .filter(|chunk| chunk.base() >= checkpoint.position)
            .cloned()
            .collect();
        // Checkpoints are cut at chunk boundaries, so the replay must anchor
        // exactly at the checkpoint: its first chunk covers the checkpoint
        // position at offset 0 (sequence-stamped chunks are the cursor — see
        // `EventChunk::offset_of`).
        if let Some(first) = replay.first() {
            debug_assert_eq!(
                first.offset_of(checkpoint.position),
                Some(0),
                "replay does not anchor at the restored checkpoint"
            );
        }
        seat.replayed_chunks += replay.len() as u64;
        let mut row = ResilientRow {
            deciders: latest.deciders,
            phase_a: Some(PhaseA {
                deciders: seat.pristine.clone(),
                swap_at: latest.position,
                stats: latest.stats,
                peaks: latest.peaks,
            }),
        };
        let mut shard = self.engine.fresh_shard(index, shard_count);
        shard.restore_checkpoint(&checkpoint);
        shard.restore_predictors(&rewind);
        // Every close the replay re-derives up to the swap boundary was
        // already observed by the crashed incarnation; stay muted until the
        // swap hands the counters over. A checkpoint cut exactly at the
        // swap boundary makes phase A empty: swap before touching any event.
        shard.set_shared_predictor_muted(true);
        row.maybe_swap(&mut shard, checkpoint.position);
        let (producer, queue) = spsc(self.engine.queue_capacity);
        // End of stream already: the replacement replays and flushes
        // against a closed, empty queue.
        seat.producer = (!closed).then_some(producer);
        seat.last_progress = seat.monitor.progress.load(Ordering::Acquire);
        seat.last_change = Instant::now();
        self.spawn_drain(index, shard, row, replay, queue);
        Ok(())
    }

    /// Advances every running seat's progress observation; a seat whose
    /// progress has not moved within the stall deadline fails the run.
    fn check_watchdog(&mut self) -> Result<(), EngineError> {
        for (index, seat) in self.seats.iter_mut().enumerate() {
            if !seat.running {
                continue;
            }
            let progress = seat.monitor.progress.load(Ordering::Acquire);
            if progress != seat.last_progress {
                seat.last_progress = progress;
                seat.last_change = Instant::now();
            } else if seat.last_change.elapsed() > self.stall_deadline {
                return Err(EngineError::Stalled { shard: index, last_progress: progress });
            }
        }
        Ok(())
    }
}

impl<D: WindowEventDecider + Clone + Send + 'static> ChunkSink for Coordinator<'_, D> {
    type Stop = EngineError;

    /// Delivers one sealed chunk to every running shard, handling deaths
    /// (replace or fail the shard), watching for stalls while a queue stays
    /// full, and pruning the retained log afterwards.
    fn chunk(&mut self, chunk: Arc<EventChunk>) -> Result<(), EngineError> {
        let events = chunk.len() as u64;
        self.retained.push_back(Arc::clone(&chunk));
        // Restart generations before this delivery. Handling one shard's
        // death below (`wait_for_death`) absorbs every completion that has
        // already arrived — including another shard's simultaneous panic,
        // whose replacement is spawned with a replay of the retained log,
        // which already contains *this* chunk. Pushing the chunk into that
        // fresh queue as the loop continues would deliver it twice;
        // skipping seats whose generation advanced keeps replay and live
        // delivery disjoint.
        let generations: Vec<u32> = self.seats.iter().map(|seat| seat.restarts).collect();
        for (index, generation) in generations.into_iter().enumerate() {
            if !self.seats[index].running || self.seats[index].restarts != generation {
                continue;
            }
            let mut item = ShardInput::Chunk(Arc::clone(&chunk));
            while let Some(producer) = self.seats[index].producer.as_mut() {
                let deadline = Instant::now() + self.push_slice;
                match producer.push_blocking_weighted_until(item, events, deadline) {
                    PushOutcome::Pushed => break,
                    PushOutcome::ConsumerGone(_) => {
                        // The drain thread died; its completion message is
                        // imminent. Handle it (replace or fail the shard)
                        // and do NOT re-push this chunk: it is already in
                        // the retained log the replacement replays from.
                        self.wait_for_death(index)?;
                        break;
                    }
                    PushOutcome::TimedOut(rejected) => {
                        item = rejected;
                        self.check_watchdog()?;
                    }
                }
            }
        }
        // Prune the retained log below the minimum acknowledgement across
        // running shards (a replaced shard's ack stays frozen at its replay
        // checkpoint until the replacement catches up, holding its chunks).
        if let Some(min_ack) = self
            .seats
            .iter()
            .filter(|seat| seat.running)
            .map(|seat| seat.monitor.ack.load(Ordering::Acquire))
            .min()
        {
            while self.retained.front().is_some_and(|front| front.end() <= min_ack) {
                self.retained.pop_front();
            }
        }
        Ok(())
    }

    fn commands(
        &mut self,
        _commands: Vec<ShardCommand>,
        _position: u64,
    ) -> Result<(), EngineError> {
        unreachable!("the resilient path runs a static query set");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::window::OwnershipPolicy;
    use crate::{Decision, Pattern, Query, WindowMeta, WindowSpec};
    use espice_events::{Event, EventType, SimDuration, SliceSource, Timestamp, VecStream};

    /// A stateless-decision decider with state: the keep/drop choice is a
    /// pure function of `(window id, position)` — so a pristine clone
    /// replays the exact decisions of the crashed incarnation — while the
    /// counters accumulate history, so comparing them end-to-end proves
    /// the recovery restored decider state, not just emissions.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ParityShed {
        modulo: u64,
        kept: u64,
        dropped: u64,
    }

    impl ParityShed {
        fn new(modulo: u64) -> Self {
            ParityShed { modulo, kept: 0, dropped: 0 }
        }
    }

    impl crate::WindowEventDecider for ParityShed {
        fn decide(&mut self, meta: &WindowMeta, position: usize, _event: &Event) -> Decision {
            if (meta.id + position as u64).is_multiple_of(self.modulo) {
                self.dropped += 1;
                Decision::Drop
            } else {
                self.kept += 1;
                Decision::Keep
            }
        }
    }

    fn query(window: usize, slide: usize) -> Query {
        Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window, slide))
            .build()
    }

    fn stream(len: usize) -> VecStream {
        let events: Vec<Event> = (0..len)
            .map(|i| {
                Event::new(
                    EventType::from_index((i % 3 % 2) as u32),
                    Timestamp::from_secs(i as u64),
                    i as u64,
                )
            })
            .collect();
        VecStream::from_ordered(events)
    }

    fn engine(shards: usize, chunk: usize) -> ShardedEngine {
        let mut engine = ShardedEngine::new(query(6, 2), shards);
        engine.set_chunk_capacity(chunk);
        engine
    }

    fn resilient_run(
        shards: usize,
        chunk: usize,
        len: usize,
        options: &ResilienceOptions,
    ) -> Result<RunReport<ParityShed>, EngineError> {
        let mut e = engine(shards, chunk);
        let deciders = vec![ParityShed::new(3); shards];
        let events = stream(len);
        let mut source = SliceSource::from_stream(&events);
        e.run_source_resilient(&mut source, deciders, options)
    }

    #[test]
    fn fault_free_resilient_run_matches_streaming_path() {
        let shards = 2;
        let mut baseline = engine(shards, 7);
        let mut deciders = vec![ParityShed::new(3); shards];
        let events = stream(100);
        let mut source = SliceSource::from_stream(&events);
        let expected = baseline.run_source_per_query(&mut source, &mut deciders);

        let report = resilient_run(shards, 7, 100, &ResilienceOptions::default()).unwrap();
        assert_eq!(report.complex_events, expected);
        assert_eq!(report.shard_status, vec![ShardStatus::Healthy; shards]);
        assert_eq!(report.recoveries, 0);
        assert!(!report.is_degraded());
        // Final decider state matches the non-resilient run's too.
        let returned: Vec<ParityShed> =
            report.deciders.into_iter().map(|row| row.unwrap().remove(0)).collect();
        assert_eq!(returned, deciders);
    }

    #[test]
    fn injected_panic_recovers_byte_identical() {
        let shards = 2;
        let oracle = resilient_run(shards, 7, 120, &ResilienceOptions::default()).unwrap();

        let plan = FaultPlan::new().with(FaultKind::PanicShard { shard: 1, at_position: 70 });
        let options = ResilienceOptions { fault_plan: Some(plan), ..Default::default() };
        let report = resilient_run(shards, 7, 120, &options).unwrap();

        assert_eq!(report.complex_events, oracle.complex_events);
        assert_eq!(report.deciders[0], oracle.deciders[0]);
        assert_eq!(report.deciders[1], oracle.deciders[1], "recovered decider state diverged");
        assert_eq!(report.shard_status[0], ShardStatus::Healthy);
        assert!(
            matches!(report.shard_status[1], ShardStatus::Recovered { restarts: 1, .. }),
            "expected a recovery, got {:?}",
            report.shard_status[1]
        );
        assert_eq!(report.recoveries, 1);
        assert!(report.recovered());
    }

    #[test]
    fn panic_at_first_chunk_recovers() {
        let oracle = resilient_run(1, 1, 40, &ResilienceOptions::default()).unwrap();
        let plan = FaultPlan::new().with(FaultKind::PanicShard { shard: 0, at_position: 0 });
        let options = ResilienceOptions { fault_plan: Some(plan), ..Default::default() };
        let report = resilient_run(1, 1, 40, &options).unwrap();
        assert_eq!(report.complex_events, oracle.complex_events);
        assert_eq!(report.deciders, oracle.deciders);
        assert!(report.recovered());
    }

    #[test]
    fn injected_stall_yields_stalled_error_within_deadline() {
        let plan = FaultPlan::new().with(FaultKind::StallShard {
            shard: 0,
            at_position: 0,
            millis: 60_000,
        });
        let options = ResilienceOptions {
            stall_deadline: Some(Duration::from_millis(150)),
            fault_plan: Some(plan),
            ..Default::default()
        };
        let started = Instant::now();
        let result = resilient_run(2, 7, 200, &options);
        let elapsed = started.elapsed();
        match result {
            Err(EngineError::Stalled { shard: 0, .. }) => {}
            other => panic!("expected Stalled for shard 0, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(30),
            "stall detection took {elapsed:?}, deadline was 150ms"
        );
    }

    #[test]
    fn restart_budget_exhaustion_degrades_instead_of_failing() {
        let shards = 2;
        let oracle = resilient_run(shards, 7, 120, &ResilienceOptions::default()).unwrap();
        let plan = FaultPlan::new().with(FaultKind::PanicShard { shard: 1, at_position: 70 });
        let options = ResilienceOptions {
            max_restarts: Some(0),
            fault_plan: Some(plan),
            ..Default::default()
        };
        let report = resilient_run(shards, 7, 120, &options).unwrap();
        assert!(report.is_degraded());
        assert_eq!(report.recoveries, 0);
        assert!(report.deciders[1].is_none());
        match &report.shard_status[1] {
            ShardStatus::Failed(failure) => {
                assert_eq!(failure.shard, 1);
                assert!(failure.message.contains("injected fault"), "{failure}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The degraded output still contains exactly the windows flushed
        // before the crash: a subsequence of the fault-free output.
        for (lane, oracle_lane) in report.complex_events.iter().zip(&oracle.complex_events) {
            let mut oracle_iter = oracle_lane.iter();
            for complex in lane {
                assert!(
                    oracle_iter.any(|expected| expected == complex),
                    "degraded output emitted a window the fault-free run never produced"
                );
            }
        }
    }

    #[test]
    fn recovery_rewinds_the_shared_size_predictor() {
        // Time-based windows: the shared size predictor is the one piece of
        // cross-shard prediction state, and it must observe each close
        // exactly once even when recovery replays those closes. With a
        // single shard there is no concurrent contributor, so the
        // post-recovery observation count must equal the fault-free one.
        let run = |plan: Option<FaultPlan>| {
            let query = Query::builder()
                .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
                .window(WindowSpec::time_on_types(
                    vec![EventType::from_index(0)],
                    SimDuration::from_secs(9),
                ))
                .build();
            let mut e = ShardedEngine::new(query, 1);
            e.set_chunk_capacity(5);
            let events = stream(200);
            let mut source = SliceSource::from_stream(&events);
            let options = ResilienceOptions { fault_plan: plan, ..Default::default() };
            let report =
                e.run_source_resilient(&mut source, vec![ParityShed::new(3)], &options).unwrap();
            let closed = e.stats().merged.windows_closed;
            (report.complex_events, e.shared_size_predictor().observations(), closed)
        };
        let (oracle_out, oracle_observations, oracle_closed) = run(None);
        assert_eq!(oracle_observations, oracle_closed, "fault-free closes observed once each");
        let plan = FaultPlan::new().with(FaultKind::PanicShard { shard: 0, at_position: 100 });
        let (out, observations, closed) = run(Some(plan));
        assert_eq!(out, oracle_out);
        assert_eq!(closed, oracle_closed);
        assert_eq!(observations, oracle_observations, "replayed closes were observed twice");
    }

    #[test]
    fn recovery_replays_stolen_windows_on_the_right_shard() {
        // The checkpoint carries the ownership table, so a replacement
        // re-routes replayed opens exactly as the crashed incarnation did.
        let shards = 4;
        let run = |plan: Option<FaultPlan>| {
            let mut e = engine(shards, 7);
            e.set_ownership_policy(OwnershipPolicy::StealAtOpen);
            let deciders = vec![ParityShed::new(3); shards];
            let events = stream(240);
            let mut source = SliceSource::from_stream(&events);
            let options = ResilienceOptions { fault_plan: plan, ..Default::default() };
            let report = e.run_source_resilient(&mut source, deciders, &options).unwrap();
            (report, e.stolen_windows())
        };
        let (oracle, oracle_stolen) = run(None);
        assert!(oracle_stolen > 0, "the workload must exercise stealing");
        // Stealing only re-partitions windows; the merged output equals the
        // static-ownership run of the same stream.
        let static_oracle = resilient_run(shards, 7, 240, &ResilienceOptions::default()).unwrap();
        assert_eq!(oracle.complex_events, static_oracle.complex_events);

        let plan = FaultPlan::new().with(FaultKind::PanicShard { shard: 2, at_position: 140 });
        let (report, _) = run(Some(plan));
        assert_eq!(report.complex_events, oracle.complex_events);
        assert!(report.recovered());
    }

    #[test]
    fn decider_mismatch_is_reported_with_the_legacy_wording() {
        let mut e = engine(2, 7);
        let events = stream(10);
        let mut source = SliceSource::from_stream(&events);
        let error = e
            .run_source_resilient(&mut source, vec![ParityShed::new(3); 3], &Default::default())
            .unwrap_err();
        assert!(matches!(
            error,
            EngineError::DeciderMismatch { expected: 2, got: 3, live_only: false }
        ));
        assert!(error.to_string().contains("need exactly one decider per shard per query"));
    }

    #[test]
    fn error_display_carries_position_and_shard() {
        let error = EngineError::ShardsFailed {
            failures: vec![ShardFailure {
                shard: 3,
                message: "boom".to_string(),
                position: Some(128),
            }],
        };
        assert_eq!(error.to_string(), "shard 3 panicked at stream position 128: boom");
        let stalled = EngineError::Stalled { shard: 1, last_progress: 64 };
        assert!(stalled.to_string().contains("shard 1 stalled"));
        assert!(stalled.to_string().contains("64"));
    }
}
