//! Running the real streaming backend with closed-loop overload control.
//!
//! This module glues the three layers of the streaming pipeline together:
//! the engine's bounded per-shard queues report *measured* queue state
//! ([`QueueSample`]) to their deciders; [`ClosedLoopShedder`] forwards each
//! sample to a per-shard [`QueueOverloadController`], which derives drain
//! throughput and input rate from the measurements and emits
//! [`ControlAction`]s; the wrapped [`AdaptiveShedder`] is switched on and
//! off accordingly. No precomputed throughput or input rate exists
//! anywhere in the loop — overload is whatever the shard's own queue says
//! it is. The deterministic counterpart of this wiring is the queueing
//! simulation ([`crate::simulation`]), which drives the *same* controller
//! from simulated time and serves as the test oracle.

use crate::adaptive::AdaptiveShedder;
use espice::{
    ControlAction, ControllerStats, OverloadConfig, QueueOverloadController, SharedThroughput,
    ShedPlanner,
};
use espice_cep::{
    BatchRequest, BoxedDecider, ComplexEvent, Decision, DropSet, EngineStats, LifecycleReport,
    OwnershipPolicy, Query, QueryId, QuerySet, QueueSample, QueueStats, ShardedEngine,
    SharedDecider, WindowEventDecider, WindowMeta,
};
use espice_events::{Event, EventSource};
use std::sync::Arc;
use std::time::Duration;

/// A shedder with its own closed-loop overload controller: decisions are
/// delegated to the wrapped [`AdaptiveShedder`], and every [`QueueSample`]
/// the engine's drain loop reports is turned into an activation /
/// deactivation of that shedder, based purely on what the shard's queue
/// measured.
#[derive(Debug, Clone)]
pub struct ClosedLoopShedder<S> {
    inner: S,
    controller: QueueOverloadController,
}

impl<S: AdaptiveShedder> ClosedLoopShedder<S> {
    /// Wraps `shedder` with a controller configured by `overload`. The
    /// shedder starts (and stays) inactive until the measured queue crosses
    /// the activation threshold.
    pub fn new(shedder: S, overload: OverloadConfig) -> Self {
        ClosedLoopShedder { inner: shedder, controller: QueueOverloadController::new(overload) }
    }

    /// Like [`new`](Self::new), but the controller additionally shares its
    /// measured-throughput estimate with the other controllers of the same
    /// queue (the per-query controllers of one multi-query shard): the
    /// paper's `f·qmax` check now governs a queue that serves *all*
    /// queries, so the capacity estimate behind `qmax` must not fragment
    /// across them.
    pub fn with_shared_throughput(
        shedder: S,
        overload: OverloadConfig,
        shared: Arc<SharedThroughput>,
    ) -> Self {
        let mut controller = QueueOverloadController::new(overload);
        controller.share_throughput(shared);
        ClosedLoopShedder { inner: shedder, controller }
    }

    /// Declares that this shedder's query joins a drain loop that is
    /// already running (a mid-stream admission): the controller's first
    /// sample only aligns its baselines against the loop's cumulative
    /// clocks instead of misreading them as one giant measurement interval
    /// (see [`QueueOverloadController::join_in_progress`]). Call before
    /// handing the shedder to [`EngineControl::admit`].
    ///
    /// [`EngineControl::admit`]: espice_cep::EngineControl::admit
    pub fn join_in_progress(&mut self) {
        self.controller.join_in_progress();
    }

    /// The wrapped shedder.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shard's overload controller (measured throughput, counters).
    pub fn controller(&self) -> &QueueOverloadController {
        &self.controller
    }
}

impl<S: AdaptiveShedder> WindowEventDecider for ClosedLoopShedder<S> {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        self.inner.decide(meta, position, event)
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        self.inner.decide_batch(event, requests, decisions);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        // Forwarded so a wrapped shedder's compiled span kernel (e.g.
        // [`EspiceShedder`](espice::EspiceShedder)) is reached from the
        // closed-loop path instead of falling back to per-event delegation.
        self.inner.decide_span(meta, start_position, events, drops)
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        self.inner.window_closed(meta, size);
    }

    fn queue_sample(&mut self, sample: &QueueSample) {
        match self.controller.sample(sample) {
            Some(ControlAction::Shed(plan)) => self.inner.apply_plan(plan),
            Some(ControlAction::Resume) => self.inner.deactivate(),
            None => {}
        }
    }
}

/// Configuration of a closed-loop streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingRunConfig {
    /// Number of engine shards (each with its own queue and controller).
    pub shards: usize,
    /// Capacity of each shard's bounded input queue, in hand-off slots
    /// (one slot carries a whole chunk on the chunked path). See
    /// [`sized`](Self::sized) to derive this from the overload parameters
    /// instead of hand-picking it.
    pub queue_capacity: usize,
    /// Events batched per shared chunk on the ingestion hand-off; 1 ships
    /// single-event chunks. Output is invariant in this knob.
    pub chunk_capacity: usize,
    /// Overload parameters (latency bound, `f`, check interval). The check
    /// interval doubles as the engine's queue-sampling cadence.
    pub overload: OverloadConfig,
    /// Optional seed for the window-size prediction (time-based windows).
    pub window_size_hint: Option<usize>,
    /// Route each new window to the least-loaded shard
    /// ([`OwnershipPolicy::StealAtOpen`]) instead of the static modulo
    /// partition. Output is invariant in this knob; it only moves work
    /// between shards on skewed window populations.
    pub work_stealing: bool,
}

impl Default for StreamingRunConfig {
    fn default() -> Self {
        StreamingRunConfig {
            shards: 1,
            queue_capacity: espice_cep::DEFAULT_QUEUE_CAPACITY,
            chunk_capacity: espice_cep::DEFAULT_CHUNK_CAPACITY,
            overload: OverloadConfig::default(),
            window_size_hint: None,
            work_stealing: false,
        }
    }
}

impl StreamingRunConfig {
    /// Derives the queue and chunk capacities from the overload parameters
    /// and a drain-throughput estimate instead of hand-picked constants:
    /// the queue is sized to hold `qmax · (1 + burst_slack)` **events**
    /// ([`ShedPlanner::sized_event_capacity`]) so the measured depth can
    /// actually reach the `f · qmax` activation threshold before
    /// backpressure clips it, and the chunk size is capped at the shedding
    /// buffer `(1 − f) · qmax` so one batch cannot blow through the
    /// headroom between two depth samples.
    ///
    /// `throughput_hint` is the expected per-shard drain rate in events/s —
    /// a calibration run's measurement or a profiled figure. The controller
    /// still measures the real throughput online; the hint only sizes the
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if the overload configuration is invalid or the hint is not
    /// positive and finite.
    pub fn sized(shards: usize, overload: OverloadConfig, throughput_hint: f64) -> Self {
        let planner = ShedPlanner::new(overload, throughput_hint);
        let chunk_capacity = espice_cep::DEFAULT_CHUNK_CAPACITY.min(planner.buffer_size()).max(1);
        StreamingRunConfig {
            shards,
            queue_capacity: planner.sized_queue_capacity(chunk_capacity),
            chunk_capacity,
            overload,
            window_size_hint: None,
            work_stealing: false,
        }
    }
}

/// Per-shard control outcome of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardControlReport {
    /// The controller's counters (checks, `qmax` violations).
    pub stats: ControllerStats,
    /// How often shedding was (re-)activated on this shard.
    pub activations: u64,
    /// The final measured-throughput estimate, if the shard calibrated.
    pub measured_throughput: Option<f64>,
}

/// Everything a closed-loop streaming run reports.
#[derive(Debug, Clone)]
pub struct StreamingOutcome {
    /// The merged complex events, in single-operator emission order.
    pub complex_events: Vec<ComplexEvent>,
    /// Engine statistics (per-shard operator counters + merged totals).
    pub stats: EngineStats,
    /// Queue counters, one per shard: peak depth, backpressure events.
    pub queues: Vec<QueueStats>,
    /// Control outcomes, one per shard.
    pub control: Vec<ShardControlReport>,
}

impl StreamingOutcome {
    /// Total shedding activations across all shards.
    pub fn activations(&self) -> u64 {
        self.control.iter().map(|c| c.activations).sum()
    }

    /// Largest queue depth any shard ever reached, in **events** (with
    /// chunked hand-off one queue slot can carry a whole batch, so this can
    /// exceed the slot capacity).
    pub fn peak_queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.peak_event_depth as usize).max().unwrap_or(0)
    }
}

/// Everything a multi-query closed-loop streaming run reports: per-query
/// outputs and per-(shard, query) control reports over the shared shard
/// queues.
#[derive(Debug, Clone)]
pub struct MultiStreamingOutcome {
    /// Each query's complex events, indexed by query, in single-operator
    /// emission order.
    pub complex_events: Vec<Vec<ComplexEvent>>,
    /// Engine statistics: merged, per-shard and per-query counters.
    pub stats: EngineStats,
    /// Queue counters, one per shard (one queue serves all queries).
    pub queues: Vec<QueueStats>,
    /// Control outcomes, indexed `[shard][query]`.
    pub control: Vec<Vec<ShardControlReport>>,
}

impl MultiStreamingOutcome {
    /// Total shedding activations across all shards and queries.
    pub fn activations(&self) -> u64 {
        self.control.iter().flatten().map(|c| c.activations).sum()
    }

    /// Largest queue depth any shard ever reached, in **events** (with
    /// chunked hand-off one queue slot can carry a whole batch, so this can
    /// exceed the slot capacity).
    pub fn peak_queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.peak_event_depth as usize).max().unwrap_or(0)
    }
}

/// One lifecycle change of a closed-loop run's admission/retire schedule,
/// anchored at a run-relative stream position. The same schedule replays
/// deterministically on the real streaming engine
/// ([`run_closed_loop_live`]) and in the queueing simulation
/// ([`LatencySimulation::run_set_live`](crate::LatencySimulation::run_set_live)),
/// which is what makes the simulation the lifecycle oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryChurn {
    /// Run-relative stream position: the change applies before the `at`-th
    /// event of the run.
    pub at: u64,
    /// What changes.
    pub action: ChurnAction,
}

impl QueryChurn {
    /// An admission of `query` at position `at`.
    pub fn admit(at: u64, query: Query) -> Self {
        QueryChurn { at, action: ChurnAction::Admit(query) }
    }

    /// A retirement of the query at `slot` at position `at`.
    pub fn retire(at: u64, slot: QueryId) -> Self {
        QueryChurn { at, action: ChurnAction::Retire(slot) }
    }
}

/// The two kinds of lifecycle change a churn schedule can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// Admit this query. Slots are assigned to admissions in ascending
    /// `at` order (ties: schedule order), continuing after the initial
    /// set's slots — so a schedule can name the slots of its own
    /// admissions in later [`ChurnAction::Retire`] entries.
    Admit(Query),
    /// Retire the query at this slot (initial queries occupy slots
    /// `0..initial.len()`).
    Retire(QueryId),
}

/// Everything a lifecycle-enabled closed-loop streaming run reports: the
/// per-slot outputs and control reports (retired slots keep their final
/// state) plus the engine's lifecycle report.
#[derive(Debug, Clone)]
pub struct LiveStreamingOutcome {
    /// Each slot's complex events, indexed by slot, in single-operator
    /// emission order.
    pub complex_events: Vec<Vec<ComplexEvent>>,
    /// Engine statistics: merged, per-shard and per-slot counters.
    pub stats: EngineStats,
    /// Queue counters, one per shard (one queue serves all queries).
    pub queues: Vec<QueueStats>,
    /// Control outcomes, indexed `[shard][slot]`; a retired slot's report
    /// is frozen at its teardown.
    pub control: Vec<Vec<ShardControlReport>>,
    /// Admissions, retirements and rejections, with stream positions.
    pub lifecycle: LifecycleReport,
}

impl LiveStreamingOutcome {
    /// Total shedding activations across all shards and slots.
    pub fn activations(&self) -> u64 {
        self.control.iter().flatten().map(|c| c.activations).sum()
    }

    /// Largest queue depth any shard ever reached, in **events** (with
    /// chunked hand-off one queue slot can carry a whole batch, so this can
    /// exceed the slot capacity).
    pub fn peak_queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.peak_event_depth as usize).max().unwrap_or(0)
    }
}

/// A fresh engine for `queries` set up from `config`: queue and chunk
/// capacities, the overload check interval as the queue-sampling cadence,
/// the window-size hint and the ownership policy.
///
/// # Panics
///
/// Panics if the configuration is invalid.
fn configured_engine(queries: &QuerySet, config: &StreamingRunConfig) -> ShardedEngine {
    assert!(config.shards >= 1, "need at least one shard");
    config.overload.validate();
    let mut engine = ShardedEngine::for_queries(queries.clone(), config.shards);
    engine.set_queue_capacity(config.queue_capacity);
    engine.set_chunk_capacity(config.chunk_capacity);
    let interval = Duration::from_secs_f64(config.overload.check_interval.as_secs_f64());
    engine.set_check_interval(Some(interval));
    if let Some(hint) = config.window_size_hint {
        engine.set_window_size_hint(hint);
    }
    if config.work_stealing {
        engine.set_ownership_policy(OwnershipPolicy::StealAtOpen);
    }
    engine
}

/// The control outcome one closed-loop controller reports.
fn control_report(controller: &QueueOverloadController) -> ShardControlReport {
    ShardControlReport {
        stats: *controller.stats(),
        activations: controller.activations(),
        measured_throughput: controller.throughput(),
    }
}

/// Streams `source` through a fresh engine with one closed-loop shedder
/// per shard and returns the merged output plus the measured queue and
/// control reports. `shedders` supplies the per-shard shedder instances
/// (decorrelate randomised shedders by seed, as the experiment driver
/// does). Single-query wrapper over
/// [`run_closed_loop_set`].
///
/// # Panics
///
/// Panics if `shedders.len()` differs from `config.shards`, or the
/// configuration is invalid.
pub fn run_closed_loop<Src, S>(
    query: &Query,
    source: &mut Src,
    shedders: Vec<S>,
    config: &StreamingRunConfig,
) -> StreamingOutcome
where
    Src: EventSource + ?Sized,
    S: AdaptiveShedder + Send,
{
    assert_eq!(shedders.len(), config.shards, "need exactly one shedder per shard");
    let per_shard: Vec<Vec<S>> = shedders.into_iter().map(|shedder| vec![shedder]).collect();
    let mut outcome =
        run_closed_loop_set(&QuerySet::single(query.clone()), source, per_shard, config);
    StreamingOutcome {
        complex_events: outcome.complex_events.pop().expect("one query"),
        stats: outcome.stats,
        queues: outcome.queues,
        control: outcome
            .control
            .into_iter()
            .map(|mut per_query| per_query.pop().expect("one query"))
            .collect(),
    }
}

/// Streams `source` through a fresh *multi-query* engine: one ingestion
/// pipeline, one event hand-off per shard, and one closed-loop shedder per
/// shard **per query**. `shedders[shard][query]` supplies the instances.
///
/// Every query's controller on a shard receives the same measured queue
/// samples (the queue serves them all) but plans against its own query's
/// window geometry; the controllers of one shard share a
/// [`SharedThroughput`] signal so the capacity estimate behind the
/// `f·qmax` check cannot fragment across queries — a controller whose own
/// measurements are unusable mid-shed adopts what its peers published.
///
/// # Panics
///
/// Panics if the shedder matrix is not `shards × queries`, or the
/// configuration is invalid.
pub fn run_closed_loop_set<Src, S>(
    queries: &QuerySet,
    source: &mut Src,
    shedders: Vec<Vec<S>>,
    config: &StreamingRunConfig,
) -> MultiStreamingOutcome
where
    Src: EventSource + ?Sized,
    S: AdaptiveShedder + Send,
{
    assert_eq!(shedders.len(), config.shards, "need exactly one shedder row per shard");
    let mut engine = configured_engine(queries, config);

    // Flatten shard-major, wiring one shared throughput signal per shard.
    let mut deciders: Vec<ClosedLoopShedder<S>> = Vec::with_capacity(config.shards * queries.len());
    for row in shedders {
        assert_eq!(row.len(), queries.len(), "need exactly one shedder per query per shard");
        let shared = Arc::new(SharedThroughput::new());
        for shedder in row {
            deciders.push(ClosedLoopShedder::with_shared_throughput(
                shedder,
                config.overload,
                Arc::clone(&shared),
            ));
        }
    }
    let complex_events = engine.run_source_per_query(source, &mut deciders);

    MultiStreamingOutcome {
        complex_events,
        stats: engine.stats(),
        queues: engine.queue_stats().to_vec(),
        control: deciders
            .chunks(queries.len())
            .map(|row| row.iter().map(|decider| control_report(decider.controller())).collect())
            .collect(),
    }
}

/// The *live* closed-loop run: streams `source` through a fused engine
/// whose query population changes mid-stream according to `churn`, with
/// one closed-loop shedder per (shard, slot) built by `make_shedder(slot,
/// shard, query)`. Admissions wire their fresh controllers into the same
/// per-shard [`SharedThroughput`] signal the initial queries use (one
/// queue per shard → one capacity estimate, whenever the tenant joined);
/// retirements tear the slot's shedders and controllers down *after* its
/// open windows drained. The returned control reports cover every slot —
/// a retired slot's report is its state at teardown, observed through the
/// [`SharedDecider`] handles this function keeps outside the engine.
///
/// The schedule is issued through the engine's [`EngineControl`] before
/// the stream starts, so the same `churn` replays identically on the
/// queueing simulation
/// ([`LatencySimulation::run_set_live`](crate::LatencySimulation::run_set_live)).
///
/// [`EngineControl`]: espice_cep::EngineControl
///
/// # Panics
///
/// Panics if the configuration is invalid or a churn entry retires a slot
/// that does not exist at schedule-build time.
pub fn run_closed_loop_live<Src, S, F>(
    initial: &QuerySet,
    source: &mut Src,
    config: &StreamingRunConfig,
    churn: &[QueryChurn],
    mut make_shedder: F,
) -> LiveStreamingOutcome
where
    Src: EventSource + ?Sized,
    S: AdaptiveShedder + Send + 'static,
    F: FnMut(QueryId, usize, &Query) -> S,
{
    let mut engine = configured_engine(initial, config);

    // One shared capacity signal per shard queue, reused by every
    // admission on that shard.
    let signals: Vec<Arc<SharedThroughput>> =
        (0..config.shards).map(|_| Arc::new(SharedThroughput::new())).collect();
    // The observation handles, indexed [shard][slot]: clones of the
    // engine-owned shared deciders, kept to read controller state after
    // the run (and after mid-stream teardowns).
    let mut observers: Vec<Vec<SharedDecider<ClosedLoopShedder<S>>>> =
        (0..config.shards).map(|_| Vec::new()).collect();
    let build_row = |slot: QueryId,
                     query: &Query,
                     joins_mid_stream: bool,
                     observers: &mut Vec<Vec<SharedDecider<ClosedLoopShedder<S>>>>,
                     make_shedder: &mut F|
     -> Vec<BoxedDecider> {
        (0..config.shards)
            .map(|shard| {
                let shedder = make_shedder(slot, shard, query);
                let mut closed_loop = ClosedLoopShedder::with_shared_throughput(
                    shedder,
                    config.overload,
                    Arc::clone(&signals[shard]),
                );
                if joins_mid_stream {
                    closed_loop.join_in_progress();
                }
                let decider = SharedDecider::new(closed_loop);
                observers[shard].push(decider.clone());
                Box::new(decider) as BoxedDecider
            })
            .collect()
    };

    // Initial deciders, shard-major, as the static paths lay them out.
    let mut rows: Vec<Vec<BoxedDecider>> = (0..initial.len() as QueryId)
        .map(|slot| {
            build_row(
                slot,
                &initial.queries()[slot as usize],
                false,
                &mut observers,
                &mut make_shedder,
            )
        })
        .collect();
    let mut initial_deciders: Vec<BoxedDecider> = Vec::with_capacity(config.shards * initial.len());
    for _shard in 0..config.shards {
        for row in &mut rows {
            initial_deciders.push(row.remove(0));
        }
    }

    // Issue the schedule up-front through the control channel, admissions
    // in ascending position order so slots are assigned deterministically.
    let control = engine.control();
    let mut ordered: Vec<&QueryChurn> = churn.iter().collect();
    ordered.sort_by_key(|change| change.at);
    let mut handles: Vec<espice_cep::QueryHandle> = (0..initial.len())
        .map(|slot| engine.query_handle(slot as QueryId).expect("initial slots are live"))
        .collect();
    for change in ordered {
        match &change.action {
            ChurnAction::Admit(query) => {
                let slot = handles.len() as QueryId;
                let deciders = build_row(slot, query, true, &mut observers, &mut make_shedder);
                let handle = control.admit_at(change.at, query.clone(), deciders);
                assert_eq!(handle.slot, slot, "slot allocation must follow schedule order");
                handles.push(handle);
            }
            ChurnAction::Retire(slot) => {
                let handle = *handles
                    .get(*slot as usize)
                    .unwrap_or_else(|| panic!("churn retires unknown slot {slot}"));
                control.retire_at(change.at, handle);
            }
        }
    }

    let outcome = engine.run_source_live(source, initial_deciders);
    let stats = engine.stats();
    let control_reports: Vec<Vec<ShardControlReport>> = observers
        .iter()
        .map(|row| {
            row.iter().map(|observer| control_report(observer.lock().controller())).collect()
        })
        .collect();

    LiveStreamingOutcome {
        complex_events: outcome.complex_events,
        stats,
        queues: engine.queue_stats().to_vec(),
        control: control_reports,
        lifecycle: outcome.lifecycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::RandomAdaptive;
    use espice::{RandomShedder, ShedPlan};
    use espice_cep::{Pattern, WindowSpec};
    use espice_events::{EventStream, EventType, SimDuration, SliceSource, Timestamp, VecStream};
    use std::time::Instant;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    /// A shedder wrapper that burns a fixed amount of CPU per decision
    /// batch, pinning the shard's drain throughput well below what the
    /// producer can push — the deterministic way to overload a real queue.
    #[derive(Debug, Clone)]
    struct Throttled<S> {
        inner: S,
        spin: Duration,
    }

    impl<S: WindowEventDecider> WindowEventDecider for Throttled<S> {
        fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
            self.inner.decide(meta, position, event)
        }

        fn decide_batch(
            &mut self,
            event: &Event,
            requests: &[BatchRequest],
            decisions: &mut Vec<Decision>,
        ) {
            let start = Instant::now();
            while start.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            self.inner.decide_batch(event, requests, decisions);
        }

        fn decide_span(
            &mut self,
            meta: &WindowMeta,
            start_position: usize,
            events: &[Event],
            drops: &mut espice_cep::DropSet,
        ) -> usize {
            let start = Instant::now();
            while start.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            self.inner.decide_span(meta, start_position, events, drops)
        }

        fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
            self.inner.window_closed(meta, size);
        }
    }

    impl<S: AdaptiveShedder> AdaptiveShedder for Throttled<S> {
        fn apply_plan(&mut self, plan: ShedPlan) {
            self.inner.apply_plan(plan);
        }

        fn deactivate(&mut self) {
            self.inner.deactivate();
        }

        fn is_active(&self) -> bool {
            self.inner.is_active()
        }
    }

    /// The closed-loop acceptance test: overfill a real shard queue and
    /// observe shedding activate from *measured* depth alone. The
    /// controller is built from an [`OverloadConfig`] only — no throughput
    /// and no input rate are configured anywhere.
    #[test]
    fn overfilled_queue_activates_shedding_without_precomputed_rates() {
        // Sliding windows keep a window open for every event, so every
        // event pays the throttled decide_batch: the consumer drains at
        // most ~1/spin events per second while the producer pushes orders
        // of magnitude faster — the queue must sit at capacity.
        let query = Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::count_sliding(100, 10))
            .build();
        let events: Vec<Event> = (0..3_000u64)
            .map(|i| Event::new(ty((i % 2) as u32), Timestamp::from_millis(i), i))
            .collect();
        let stream = VecStream::from_ordered(events);

        let shedder = Throttled {
            inner: RandomAdaptive::new(RandomShedder::new(7), 100.0),
            spin: Duration::from_micros(50),
        };
        // Drain capacity is bounded by the spin at ~20k events/s, so
        // qmax <= ~200 with a 10 ms latency bound — far below the 2048
        // events (128 slots × 16-event chunks) the producer keeps filled.
        let config = StreamingRunConfig {
            shards: 1,
            queue_capacity: 128,
            chunk_capacity: 16,
            overload: OverloadConfig {
                latency_bound: SimDuration::from_millis(10),
                f: 0.8,
                check_interval: SimDuration::from_millis(5),
                ..OverloadConfig::default()
            },
            window_size_hint: None,
            work_stealing: false,
        };
        let mut source = SliceSource::from_stream(&stream);
        let outcome = run_closed_loop(&query, &mut source, vec![shedder], &config);

        assert_eq!(outcome.stats.merged.events_processed, stream.len() as u64);
        let report = &outcome.control[0];
        let throughput = report.measured_throughput.expect("controller must calibrate");
        assert!(
            throughput < 100_000.0,
            "measured throughput {throughput} is implausibly high for a throttled consumer"
        );
        assert!(
            outcome.activations() >= 1,
            "an overfilled queue must activate shedding (checks: {}, peak depth: {})",
            report.stats.checks,
            outcome.peak_queue_depth()
        );
        assert!(outcome.stats.merged.dropped > 0, "active shedding must drop assignments");
        assert!(
            outcome.peak_queue_depth() > 200,
            "the producer should have overfilled the queue (peak {})",
            outcome.peak_queue_depth()
        );
        assert!(outcome.queues[0].backpressure_events > 0, "a full queue must backpressure");
    }

    /// A fused multi-query closed-loop run over an unloaded queue: no
    /// query sheds, and every query's output equals its own single-query
    /// slice run — the per-query identity the multi-query engine promises,
    /// here with the whole control stack in the loop.
    #[test]
    fn unloaded_multi_query_closed_loop_matches_per_query_slice_runs() {
        let make = |size: usize| {
            Query::builder()
                .pattern(Pattern::sequence([ty(0), ty(1)]))
                .window(WindowSpec::count_sliding(size, 5))
                .build()
        };
        let queries = QuerySet::new(vec![make(50), make(30)]);
        let events: Vec<Event> = (0..2_000u64)
            .map(|i| Event::new(ty((i % 3) as u32), Timestamp::from_millis(i), i))
            .collect();
        let stream = VecStream::from_ordered(events);

        let shedder = |seed| RandomAdaptive::new(RandomShedder::new(seed), 50.0);
        let config = StreamingRunConfig {
            shards: 2,
            queue_capacity: 4096,
            chunk_capacity: 64,
            overload: OverloadConfig {
                latency_bound: SimDuration::from_secs(30),
                f: 0.8,
                check_interval: SimDuration::from_millis(1),
                ..OverloadConfig::default()
            },
            window_size_hint: None,
            work_stealing: false,
        };
        let mut source = SliceSource::from_stream(&stream);
        let outcome = run_closed_loop_set(
            &queries,
            &mut source,
            vec![vec![shedder(1), shedder(2)], vec![shedder(3), shedder(4)]],
            &config,
        );
        assert_eq!(outcome.activations(), 0, "an unloaded run must never shed");
        assert_eq!(outcome.stats.merged.dropped, 0);
        assert_eq!(outcome.control.len(), 2);
        assert_eq!(outcome.control[0].len(), 2);
        for (id, query) in queries.iter() {
            let expected =
                espice_cep::Operator::new(query.clone()).run(&stream, &mut espice_cep::KeepAll);
            assert_eq!(outcome.complex_events[id as usize], expected, "query {id} diverged");
        }
        // One queue per shard carried the whole stream once for both
        // queries.
        for queue in &outcome.queues {
            assert_eq!(queue.pushed, stream.len() as u64);
        }
    }

    /// Wall-clock pacing: a paced source drives the closed loop at a real
    /// rate the drain threads can sustain, so nothing sheds and the run
    /// takes at least as long as the arrival schedule.
    #[test]
    fn paced_replay_drives_the_closed_loop_at_the_configured_rate() {
        let query = Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::count_sliding(20, 5))
            .build();
        let events: Vec<Event> = (0..600u64)
            .map(|i| Event::new(ty((i % 3) as u32), Timestamp::from_millis(i), i))
            .collect();
        let stream = VecStream::from_ordered(events);

        let config = StreamingRunConfig {
            shards: 1,
            queue_capacity: 256,
            // Far more than the paced flush will ever fill: partial chunks
            // must be flushed on the deadline, not at capacity.
            chunk_capacity: 256,
            overload: OverloadConfig {
                latency_bound: SimDuration::from_secs(5),
                f: 0.8,
                check_interval: SimDuration::from_millis(2),
                ..OverloadConfig::default()
            },
            window_size_hint: None,
            work_stealing: false,
        };
        // 600 events at 20k events/s: the schedule spans ~30 ms of wall
        // time, far slower than an unthrottled drain.
        let rate = 20_000.0;
        let mut source = espice_events::PacedSource::from_stream(&stream, rate);
        let started = Instant::now();
        let outcome = run_closed_loop(
            &query,
            &mut source,
            vec![RandomAdaptive::new(RandomShedder::new(5), 20.0)],
            &config,
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_secs_f64(599.0 / rate),
            "paced run finished in {elapsed:?}, faster than its schedule"
        );
        assert_eq!(outcome.activations(), 0, "a sustainable paced rate must not shed");
        assert_eq!(outcome.stats.merged.dropped, 0);
        let expected =
            espice_cep::Operator::new(query.clone()).run(&stream, &mut espice_cep::KeepAll);
        assert_eq!(outcome.complex_events, expected);
    }

    /// The live closed-loop service under churn: a query is admitted
    /// mid-stream and another retired, with the whole control stack (per
    /// (shard, slot) controllers on shared throughput signals) in the
    /// loop. Unloaded, so nothing sheds — every slot's output must equal
    /// its static oracle: the survivor its full standalone run, the
    /// admitted query a fresh run over the admission suffix, the retired
    /// query a drained prefix of its standalone run.
    #[test]
    fn live_closed_loop_churn_matches_static_oracles_per_slot() {
        let make = |size: usize| {
            Query::builder()
                .pattern(Pattern::sequence([ty(0), ty(1)]))
                .window(WindowSpec::count_sliding(size, 5))
                .build()
        };
        let initial = QuerySet::new(vec![make(50), make(30)]);
        let admitted = make(40);
        let events: Vec<Event> = (0..2_000u64)
            .map(|i| Event::new(ty((i % 3) as u32), Timestamp::from_millis(i), i))
            .collect();
        let stream = VecStream::from_ordered(events);
        let (retire_at, admit_at) = (400u64, 700u64);

        let config = StreamingRunConfig {
            shards: 2,
            queue_capacity: 4096,
            // Small chunks so the churn positions fall mid-chunk and force
            // partial seals before the in-band commands.
            chunk_capacity: 32,
            overload: OverloadConfig {
                latency_bound: SimDuration::from_secs(30),
                f: 0.8,
                check_interval: SimDuration::from_millis(1),
                ..OverloadConfig::default()
            },
            window_size_hint: None,
            work_stealing: false,
        };
        let churn =
            vec![QueryChurn::retire(retire_at, 0), QueryChurn::admit(admit_at, admitted.clone())];
        let mut source = SliceSource::from_stream(&stream);
        let outcome =
            run_closed_loop_live(&initial, &mut source, &config, &churn, |slot, shard, _| {
                RandomAdaptive::new(RandomShedder::new(1 + slot as u64 * 10 + shard as u64), 50.0)
            });

        assert_eq!(outcome.activations(), 0, "an unloaded run must never shed");
        assert_eq!(outcome.stats.merged.dropped, 0);
        assert_eq!(outcome.complex_events.len(), 3);
        assert_eq!(outcome.control.len(), 2);
        assert_eq!(outcome.control[0].len(), 3, "control reports cover every slot");
        assert_eq!(outcome.lifecycle.retired.len(), 1);
        assert_eq!(outcome.lifecycle.admitted.len(), 1);
        assert_eq!(outcome.lifecycle.retired[0].1, retire_at);
        assert_eq!(outcome.lifecycle.admitted[0].1, admit_at);

        // Survivor (slot 1): byte-identical to running alone.
        let survivor = espice_cep::Operator::new(initial.queries()[1].clone())
            .run(&stream, &mut espice_cep::KeepAll);
        assert_eq!(outcome.complex_events[1], survivor);

        // Admitted (slot 2): a fresh run over the admission suffix.
        let suffix = VecStream::from_ordered(stream.events()[admit_at as usize..].to_vec());
        let fresh = espice_cep::Operator::new(admitted).run(&suffix, &mut espice_cep::KeepAll);
        assert_eq!(outcome.complex_events[2], fresh);

        // Retired (slot 0): the windows opened before retirement, drained
        // to completion — a strict prefix of the standalone output.
        let full = espice_cep::Operator::new(initial.queries()[0].clone())
            .run(&stream, &mut espice_cep::KeepAll);
        let retired = &outcome.complex_events[0];
        assert!(!retired.is_empty() && retired.len() < full.len());
        assert_eq!(retired.as_slice(), &full[..retired.len()]);
    }

    /// Under no throttling and a generous bound the loop must never shed:
    /// the producer finishes quickly, the queue drains, output equals the
    /// slice run exactly.
    #[test]
    fn unloaded_closed_loop_never_sheds_and_matches_slice_output() {
        let query = Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::count_sliding(50, 5))
            .build();
        let events: Vec<Event> = (0..2_000u64)
            .map(|i| Event::new(ty((i % 3) as u32), Timestamp::from_millis(i), i))
            .collect();
        let stream = VecStream::from_ordered(events);
        let expected =
            espice_cep::Operator::new(query.clone()).run(&stream, &mut espice_cep::KeepAll);

        let shedder = RandomAdaptive::new(RandomShedder::new(3), 50.0);
        let config = StreamingRunConfig {
            shards: 2,
            queue_capacity: 4096,
            chunk_capacity: espice_cep::DEFAULT_CHUNK_CAPACITY,
            overload: OverloadConfig {
                latency_bound: SimDuration::from_secs(30),
                f: 0.8,
                check_interval: SimDuration::from_millis(1),
                ..OverloadConfig::default()
            },
            window_size_hint: None,
            work_stealing: false,
        };
        let mut source = SliceSource::from_stream(&stream);
        let outcome = run_closed_loop(&query, &mut source, vec![shedder.clone(), shedder], &config);
        assert_eq!(outcome.activations(), 0, "an unloaded run must never shed");
        assert_eq!(outcome.stats.merged.dropped, 0);
        assert_eq!(outcome.complex_events, expected);
    }

    /// `work_stealing: true` must be output-invariant on the streaming
    /// path: the balancer only moves window *ownership* between shards,
    /// every shard still scans the full stream, and `merge_outputs`
    /// re-sorts per query — so the merged complex events and counters
    /// match the static-modulo run exactly.
    #[test]
    fn work_stealing_matches_static_output_on_the_streaming_path() {
        let query = Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::time_on_types(vec![ty(0)], SimDuration::from_millis(40)))
            .build();
        let events: Vec<Event> = (0..2_000u64)
            .map(|i| Event::new(ty((i % 3) as u32), Timestamp::from_millis(i), i))
            .collect();
        let stream = VecStream::from_ordered(events);

        let run = |work_stealing: bool| {
            let config = StreamingRunConfig {
                shards: 4,
                queue_capacity: 4096,
                chunk_capacity: espice_cep::DEFAULT_CHUNK_CAPACITY,
                overload: OverloadConfig {
                    latency_bound: SimDuration::from_secs(30),
                    f: 0.8,
                    check_interval: SimDuration::from_millis(1),
                    ..OverloadConfig::default()
                },
                window_size_hint: None,
                work_stealing,
            };
            let shedders = (0..4u64)
                .map(|shard| RandomAdaptive::new(RandomShedder::new(11 + shard), 50.0))
                .collect();
            let mut source = SliceSource::from_stream(&stream);
            run_closed_loop(&query, &mut source, shedders, &config)
        };

        let stolen = run(true);
        let fixed = run(false);
        assert_eq!(
            stolen.stats.merged.dropped + fixed.stats.merged.dropped,
            0,
            "an unloaded run must never shed"
        );
        assert_eq!(stolen.complex_events, fixed.complex_events);
        assert_eq!(stolen.stats.merged, fixed.stats.merged);
    }

    /// [`StreamingRunConfig::sized`] must track the planner's sizing rule:
    /// enough event capacity for the `f · qmax` activation signal to show
    /// up before backpressure, with chunks capped at the shedding buffer.
    #[test]
    fn sized_config_tracks_the_planner_and_respects_the_shedding_buffer() {
        let overload = OverloadConfig {
            latency_bound: SimDuration::from_millis(100),
            f: 0.8,
            check_interval: SimDuration::from_millis(5),
            ..OverloadConfig::default()
        };
        let planner = ShedPlanner::new(overload, 10_000.0);
        let config = StreamingRunConfig::sized(3, overload, 10_000.0);
        assert_eq!(config.shards, 3);
        // One batch never exceeds the shedding buffer `(1 − f) · qmax`, so
        // a single chunk cannot blow through the headroom between samples…
        assert!(config.chunk_capacity >= 1);
        assert!(config.chunk_capacity <= planner.buffer_size());
        assert!(config.chunk_capacity <= espice_cep::DEFAULT_CHUNK_CAPACITY);
        // …while the queue still buffers `qmax · (1 + burst_slack)` events,
        // so backpressure cannot clip the activation threshold.
        assert!(config.queue_capacity * config.chunk_capacity >= planner.sized_event_capacity());
        assert!(planner.sized_event_capacity() >= planner.qmax());
    }
}
