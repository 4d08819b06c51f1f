//! One shard of the [`ShardedEngine`]: the per-query operators restricted to
//! the windows this shard owns, plus the fused assignment pass that drives
//! them all from a single event hand-off.
//!
//! Sharding exploits the same property gSPICE and He et al. rely on for
//! per-operator shedding state: windows are processed independently, so the
//! window population can be hash-partitioned across workers without any
//! cross-worker coordination. A shard consumes the *full* event stream (an
//! event can belong to windows of several shards) but materialises, sheds and
//! matches only the windows whose global id it owns.
//!
//! With a multi-query [`QuerySet`] the shard owns one [`Operator`] **per
//! query** and offers every event to all of them in one pass: the event is
//! received once (one chunk pop, scanned in place), each distinct open policy is
//! evaluated once ([`OpenTracker`]s shared across queries whose policies
//! coincide), and each query's own [`WindowEventDecider`] is consulted for
//! that query's windows. This is what amortises the dominant per-event
//! costs — queue hand-off and window-open bookkeeping — across queries the
//! way `decide_batch` amortises per-window costs.
//!
//! # Query slots and lifecycle
//!
//! The per-query axis is a vector of *slots*. A slot is `Live` while its
//! query executes and becomes `Retired` — a frozen statistics snapshot —
//! once the query has been torn down. Lifecycle commands arrive **in-band**
//! ([`ShardInput::Command`] between two chunks of the shard queue, or a
//! position-anchored command list on the slice path), so every shard
//! applies them at the same stream position: an admitted query's fresh
//! operator sees exactly the suffix of the stream from its admission point
//! (and therefore derives the same window ids as a fresh engine started
//! there), and a retiring query first *drains* — it stops opening windows
//! but keeps feeding its open ones until the last has closed — before its
//! operator and decider are dropped.
//!
//! Static runs drive the slots through monomorphic `&mut [D]` decider rows;
//! live runs own their deciders as boxed rows that grow on admission and
//! shrink on retirement. Both shapes plug into the same fused pass through
//! the crate-internal [`DeciderRow`] abstraction, so the two paths cannot
//! diverge behaviourally.
//!
//! # One drain loop
//!
//! Every streaming path — static, live and resilient — drains its shard
//! queue through the same crate-private loop, `Shard::drain`. The queue
//! carries sealed event chunks only (chunk capacity 1 ships single-event
//! chunks), each scanned in place by the span-fused pass, plus in-band
//! commands on the live path. What differs per path plugs in through
//! generic hooks — an abort flag and a chunk-boundary callback, which the
//! resilient path uses to publish recovery checkpoints — and the queue
//! sampling behind closed-loop overload control is one helper shared by
//! all three.
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`QuerySet`]: crate::QuerySet
//! [`OpenTracker`]: crate::OpenTracker
//! [`ShardInput::Command`]: crate::lifecycle::ShardInput

use crate::arena::EventChunk;
use crate::faults::ArmedFaults;
use crate::lifecycle::{ShardCommand, ShardInput};
use crate::queue::{Backoff, QueueConsumer};
use crate::shedding::QueueSample;
use crate::window::{
    OpenTracker, OwnershipPolicy, SharedSizePredictor, WindowBalancer, WindowExtent, WindowId,
};
use crate::{
    BoxedDecider, ComplexEvent, Operator, OperatorStats, Query, QueryId, QuerySet,
    WindowEventDecider,
};
use espice_events::{Event, SimDuration};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One entry of the per-query axis.
///
/// The `Live` variant is deliberately unboxed despite its size: slots live
/// in a small per-shard vector that is walked once per event, and boxing
/// the *common* variant would put a pointer chase on the fused hot path to
/// shrink a vector with a handful of entries.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SlotRuntime {
    /// The query executes; `draining` means it no longer opens windows and
    /// is torn down as soon as its open windows have closed.
    Live { operator: Operator, draining: bool },
    /// The query was retired: its counters survive, its operator does not.
    Retired { stats: OperatorStats, peak_resident: usize },
}

/// Freezes a draining slot: snapshots the operator's counters and drops the
/// operator and (through the row) its decider — the teardown point of a
/// retirement, reached only after every open window has closed.
fn finalize_slot<R: DeciderRow>(state: &mut SlotRuntime, slot: usize, row: &mut R) {
    if let SlotRuntime::Live { operator, .. } = state {
        let stats = operator.stats().clone();
        let peak_resident = operator.peak_resident_entries();
        *state = SlotRuntime::Retired { stats, peak_resident };
        row.remove(slot);
    }
}

/// The decider side of the fused pass, abstracted over row ownership:
/// static runs borrow a monomorphic `&mut [D]` (one decider per slot, rows
/// can neither grow nor shrink), live runs own a `Vec<Option<BoxedDecider>>`
/// that grows on admission and drops deciders on retirement.
pub(crate) trait DeciderRow {
    /// The decider type the fused pass hands to the operators.
    type Decider: WindowEventDecider;

    /// The decider of `slot`, if the slot still has one.
    fn get(&mut self, slot: usize) -> Option<&mut Self::Decider>;

    /// Installs the decider of a freshly admitted slot.
    fn install(&mut self, slot: usize, decider: BoxedDecider);

    /// Drops the decider of a retired slot (with any per-window state it
    /// still holds — by the teardown contract, none).
    fn remove(&mut self, slot: usize);
}

impl<D: WindowEventDecider> DeciderRow for &mut [D] {
    type Decider = D;

    fn get(&mut self, slot: usize) -> Option<&mut D> {
        self.get_mut(slot)
    }

    fn install(&mut self, _slot: usize, _decider: BoxedDecider) {
        panic!("static decider rows cannot grow; admissions need the live run paths");
    }

    fn remove(&mut self, _slot: usize) {
        // Borrowed rows stay with the caller; the slot's decider is simply
        // never consulted again.
    }
}

impl DeciderRow for Vec<Option<BoxedDecider>> {
    type Decider = BoxedDecider;

    fn get(&mut self, slot: usize) -> Option<&mut BoxedDecider> {
        self.get_mut(slot).and_then(Option::as_mut)
    }

    fn install(&mut self, slot: usize, decider: BoxedDecider) {
        assert_eq!(slot, self.len(), "admissions must arrive in slot order");
        self.push(Some(decider));
    }

    fn remove(&mut self, slot: usize) {
        self[slot] = None;
    }
}

/// A single worker of the sharded engine: one operator per query slot,
/// driven by a fused per-event pass.
///
/// # Example
///
/// ```
/// use espice_cep::{Shard, Query, Pattern, WindowSpec, KeepAll};
/// use espice_events::{Event, EventType, Timestamp};
///
/// let a = EventType::from_index(0);
/// let b = EventType::from_index(1);
/// let query = Query::builder()
///     .pattern(Pattern::sequence([a, b]))
///     .window(WindowSpec::count_on_types(vec![a], 2))
///     .build();
/// let events = vec![
///     Event::new(a, Timestamp::from_secs(0), 0),
///     Event::new(b, Timestamp::from_secs(1), 1),
/// ];
/// // Shard 0 of 2 owns window 0 (the only window this stream opens).
/// let mut shard = Shard::new(query, 0, 2);
/// let complex = shard.run_events(&events, &mut KeepAll);
/// assert_eq!(complex.len(), 1);
/// ```
#[derive(Debug)]
pub struct Shard {
    /// The per-query axis, in [`QueryId`] order; grows on admission, never
    /// shrinks (retired slots keep their statistics snapshot).
    slots: Vec<SlotRuntime>,
    /// The shared open-policy trackers: one per *distinct* policy across
    /// the initial query set (admitted queries always get a fresh tracker —
    /// their slide state must start at the admission point, like a fresh
    /// engine's would, so they cannot join a mid-stream group).
    openers: Vec<OpenTracker>,
    /// `open_group[slot]` is the index into `openers` serving that slot.
    open_group: Vec<usize>,
    /// Scratch: the open decisions of the current event, one per opener.
    opens: Vec<bool>,
    /// This shard's index within the engine.
    index: usize,
    /// Total number of shards in the engine.
    count: usize,
    /// Events this shard received (one per fused pass). Slot counters
    /// freeze at retirement, so this is the only counter that keeps
    /// counting once every slot has retired mid-run.
    events_seen: u64,
    /// The dynamic ownership table, present iff the shard runs
    /// [`OwnershipPolicy::StealAtOpen`]. `None` is the static-modulo
    /// default: the operators derive ownership themselves and the fused
    /// pass pays nothing for the feature.
    balancer: Option<WindowBalancer>,
    /// The engine's window-size hint, mirrored here so the balancer's
    /// projected window cost matches the predictors' seed for time-based
    /// extents (identical on every shard — the engine applies one hint).
    size_hint: Option<usize>,
    /// Windows this shard materialised that the static partition would
    /// have placed elsewhere (always 0 under static modulo).
    stolen: u64,
}

/// Projected size of a window whose extent is time-based and for which no
/// engine-level hint was supplied. Mirrors the operators' and the engine's
/// predictor seed so the balancer's cost model agrees with
/// `QueueSample::predicted_window_size` before any window has closed.
const FALLBACK_SIZE_HINT: usize = 100;

impl Shard {
    /// Creates shard `index` of `count` for a single `query`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index` is out of range.
    pub fn new(query: Query, index: usize, count: usize) -> Self {
        Self::for_queries(&QuerySet::single(query), index, count)
    }

    /// Creates shard `index` of `count` for a whole query set: one operator
    /// per query, with open-policy bookkeeping shared across queries whose
    /// policies are equal.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `index` is out of range.
    pub fn for_queries(queries: &QuerySet, index: usize, count: usize) -> Self {
        let mut openers: Vec<OpenTracker> = Vec::new();
        let mut open_group = Vec::with_capacity(queries.len());
        let slots = queries
            .iter()
            .map(|(query_id, query)| {
                let policy = query.window().open_policy();
                let group = match openers.iter().position(|t| t.policy() == policy) {
                    Some(existing) => existing,
                    None => {
                        openers.push(OpenTracker::new(policy.clone()));
                        openers.len() - 1
                    }
                };
                open_group.push(group);
                SlotRuntime::Live {
                    operator: Operator::for_query(query.clone(), query_id, index, count),
                    draining: false,
                }
            })
            .collect();
        let opens = vec![false; openers.len()];
        Shard {
            slots,
            openers,
            open_group,
            opens,
            index,
            count,
            events_seen: 0,
            balancer: None,
            size_hint: None,
            stolen: 0,
        }
    }

    /// Selects how this shard assigns newly opened windows
    /// ([`OwnershipPolicy::StaticModulo`] is the construction default).
    /// Every shard of an engine must run the same policy, installed before
    /// the first event; the engine applies it at build time.
    ///
    /// # The load signal, and why it is coordination-free
    ///
    /// [`OwnershipPolicy::StealAtOpen`] routes every opening
    /// `(query, window)` pair to the shard with the least *outstanding
    /// projected work*. The signal is the deterministic projection of the
    /// same per-shard quantities the drain loop already measures into
    /// [`QueueSample`]s:
    ///
    /// * `QueueSample::predicted_window_size` — the per-slot projected
    ///   event span of a window — is exactly the cost the balancer charges
    ///   for each assignment: the query's `expected_size()` for count
    ///   extents, the engine's window-size hint (the predictors' seed,
    ///   mirrored via [`set_window_size_hint`](Self::set_window_size_hint))
    ///   for time extents.
    /// * The sample's `depth` / `busy` / `drained`-vs-`kept` deltas
    ///   describe how much granted work a shard still has in flight; the
    ///   balancer's per-shard load — the sum of the remaining projected
    ///   spans of its live ownership entries, retired as the stream passes
    ///   their projected close — is the same quantity, *projected forward
    ///   from the open positions* instead of measured after the fact.
    ///
    /// The measured samples themselves cannot feed the decision: each
    /// shard samples its own queue at its own wall-clock cadence, so two
    /// shards consulting live measurements would compute different
    /// assignments and a window would be materialised twice or not at all.
    /// By deriving the signal purely from `(open position, timestamp, size
    /// hint)` — all pure functions of the shared stream — every shard's
    /// private [`WindowBalancer`] clone computes the identical ownership
    /// table in lockstep, with **no cross-shard communication on the hot
    /// path**. [`OpenTracker`] decisions stay shared exactly as before;
    /// only the owner of each window changes. Merged output is
    /// byte-identical to static ownership because any single-owner
    /// partition of the deterministic window-id space merges back into
    /// single-operator order.
    ///
    /// # Panics
    ///
    /// Panics if the shard has already processed events (the table is
    /// seeded from stream position 0; switching mid-run would diverge
    /// ownership across shards).
    pub fn set_ownership_policy(&mut self, policy: OwnershipPolicy) {
        assert_eq!(self.events_seen, 0, "ownership policy must be set before the first event");
        self.balancer = match policy {
            OwnershipPolicy::StaticModulo => None,
            OwnershipPolicy::StealAtOpen => Some(WindowBalancer::new(self.count)),
        };
        self.stolen = 0;
    }

    /// The ownership policy this shard runs.
    pub fn ownership_policy(&self) -> OwnershipPolicy {
        if self.balancer.is_some() {
            OwnershipPolicy::StealAtOpen
        } else {
            OwnershipPolicy::StaticModulo
        }
    }

    /// Windows this shard materialised that static modulo would have
    /// placed on another shard. Always 0 under
    /// [`OwnershipPolicy::StaticModulo`].
    pub fn stolen_windows(&self) -> u64 {
        self.stolen
    }

    /// This shard's index within the engine.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Length of the per-query axis: every slot the shard has ever carried,
    /// live or retired.
    pub fn query_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots still executing (not retired).
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, SlotRuntime::Live { .. })).count()
    }

    /// The operator of query 0 (the only operator of a single-query shard).
    ///
    /// # Panics
    ///
    /// Panics if slot 0 has been retired.
    pub fn operator(&self) -> &Operator {
        match &self.slots[0] {
            SlotRuntime::Live { operator, .. } => operator,
            SlotRuntime::Retired { .. } => panic!("slot 0 has been retired"),
        }
    }

    /// The counters of one query slot: the live operator's counters, or the
    /// frozen snapshot of a retired slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_stats(&self, slot: usize) -> &OperatorStats {
        match &self.slots[slot] {
            SlotRuntime::Live { operator, .. } => operator.stats(),
            SlotRuntime::Retired { stats, .. } => stats,
        }
    }

    /// Number of distinct open policies across the shard's queries — the
    /// number of `should_open` evaluations each event costs, regardless of
    /// how many queries ride on them.
    pub fn open_groups(&self) -> usize {
        self.openers.len()
    }

    /// Counters of this shard, merged over its per-query slots (retired
    /// slots included). `events_processed` counts the events the shard
    /// itself received, exactly once each — not multiplied by the query
    /// count, and still counting after every slot has retired (slot
    /// counters freeze at teardown); all other counters are disjoint sums.
    pub fn stats(&self) -> OperatorStats {
        let mut merged = OperatorStats::default();
        for slot in 0..self.slots.len() {
            merged.merge(self.slot_stats(slot));
        }
        merged.events_processed = self.events_seen;
        merged
    }

    /// Peak number of events resident in this shard's event rings during
    /// the run, summed over slots (per-query peaks need not coincide in
    /// time, so this is an upper bound; retired slots contribute their
    /// final peak).
    pub fn peak_resident_entries(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| match slot {
                SlotRuntime::Live { operator, .. } => operator.peak_resident_entries(),
                SlotRuntime::Retired { peak_resident, .. } => *peak_resident,
            })
            .sum()
    }

    /// Seeds every live operator's window-size prediction (relevant for
    /// time-based, variable-size windows). The hint is mirrored into the
    /// balancer's cost model so projected window spans match the
    /// predictors' seed.
    pub fn set_window_size_hint(&mut self, hint: usize) {
        self.size_hint = Some(hint.max(1));
        for slot in &mut self.slots {
            if let SlotRuntime::Live { operator, .. } = slot {
                operator.set_window_size_hint(hint);
            }
        }
    }

    /// Switches slot `query`'s window-size prediction to an engine-shared
    /// estimator (see [`Operator::share_size_predictor`]).
    ///
    /// # Panics
    ///
    /// Panics if `query` is out of range or retired.
    pub fn share_size_predictor_for(&mut self, query: usize, shared: Arc<SharedSizePredictor>) {
        match &mut self.slots[query] {
            SlotRuntime::Live { operator, .. } => operator.share_size_predictor(shared),
            SlotRuntime::Retired { .. } => panic!("slot {query} has been retired"),
        }
    }

    /// Switches query 0's window-size prediction to an engine-shared
    /// estimator (single-query compatibility wrapper).
    pub fn share_size_predictor(&mut self, shared: Arc<SharedSizePredictor>) {
        self.share_size_predictor_for(0, shared);
    }

    /// Offers one event to every live slot's operator, with the per-group
    /// open decisions already evaluated into `self.opens` (each distinct
    /// open policy is evaluated once per event by the span pass, so this
    /// must not advance the trackers again). A slot's decision is forced
    /// to "don't open" while it drains; `outputs[slot]` receives the
    /// complex events the slot emitted, and slots whose last open window
    /// closes while draining are torn down on the spot.
    fn push_fused_preopened<R: DeciderRow>(
        &mut self,
        event: &Event,
        row: &mut R,
        outputs: &mut [Vec<ComplexEvent>],
    ) {
        // Stream position of this event (0-based). Every shard scans the
        // full stream, so this equals the producer-counted position — the
        // coordinate the ownership table is seeded from.
        let position = self.events_seen;
        self.events_seen += 1;
        let opens = &self.opens;
        let groups = &self.open_group;
        let mut balancer = self.balancer.as_mut();
        let size_hint = self.size_hint;
        let index = self.index;
        for (slot, state) in self.slots.iter_mut().enumerate() {
            let finished = match state {
                SlotRuntime::Live { operator, draining } => {
                    let decider = row.get(slot).expect("live slot without a decider");
                    let open = !*draining && opens[groups[slot]];
                    let emitted = match balancer.as_deref_mut() {
                        // Static modulo: the operator derives ownership
                        // itself — the zero-cost default path.
                        None => operator.push_opened(event, open, decider),
                        // Steal-at-open: consult the ownership table for
                        // every opening window, in slot order — identical
                        // consult sequence and inputs on every shard, so
                        // the tables stay in lockstep.
                        Some(balancer) => {
                            let owned = open && {
                                let window = operator.query().window();
                                let hint = window
                                    .expected_size()
                                    .or(size_hint)
                                    .unwrap_or(FALLBACK_SIZE_HINT);
                                let close_ts = match window.extent() {
                                    WindowExtent::Time(dur) => Some(event.timestamp() + dur),
                                    WindowExtent::Count(_) => None,
                                };
                                let owner =
                                    balancer.assign(position, event.timestamp(), hint, close_ts);
                                owner == index
                            };
                            if owned
                                && operator.next_window_id() % self.count as u64
                                    != self.index as u64
                            {
                                self.stolen += 1;
                            }
                            operator.push_routed(event, open, owned, decider)
                        }
                    };
                    outputs[slot].extend(emitted);
                    *draining && operator.open_windows() == 0
                }
                SlotRuntime::Retired { .. } => false,
            };
            if finished {
                finalize_slot(state, slot, row);
            }
        }
    }

    /// The span-fused pass: drives a stream slice through every slot,
    /// deciding whole *spans* — maximal stretches on which no opener group
    /// opens a window — against each open window at once via
    /// [`Operator::push_span`], instead of rebuilding per-event batch
    /// requests.
    ///
    /// Every opener is still evaluated once per event, in tracker order, so
    /// slide state advances exactly as on the per-event path; events where
    /// *any* group opens are routed through
    /// [`push_fused_preopened`](Self::push_fused_preopened), which keeps
    /// the [`WindowBalancer`](crate::WindowBalancer) consult sequence in
    /// lockstep across shards (the balancer is only ever consulted at
    /// opening events). Draining slots take the per-event path inside the
    /// span too: their teardown must freeze counters at the exact event
    /// that closes the last window.
    pub(crate) fn run_span_fused<R: DeciderRow>(
        &mut self,
        events: &[Event],
        row: &mut R,
        outputs: &mut [Vec<ComplexEvent>],
    ) {
        let mut span_start = 0usize;
        for (offset, event) in events.iter().enumerate() {
            let mut any_open = false;
            for (tracker, open) in self.openers.iter_mut().zip(self.opens.iter_mut()) {
                *open = tracker.should_open(event);
                any_open |= *open;
            }
            if any_open {
                if span_start < offset {
                    self.push_span_slots(&events[span_start..offset], row, outputs);
                }
                self.push_fused_preopened(event, row, outputs);
                span_start = offset + 1;
            }
        }
        if span_start < events.len() {
            self.push_span_slots(&events[span_start..], row, outputs);
        }
    }

    /// Offers one opens-free span to every live slot. Non-draining slots
    /// take the straight-line [`Operator::push_span`] kernel; draining
    /// slots replay the span per event so the slot tears down at the exact
    /// event that closes its last window, with the later span events never
    /// reaching it — just as on the per-event path.
    fn push_span_slots<R: DeciderRow>(
        &mut self,
        span: &[Event],
        row: &mut R,
        outputs: &mut [Vec<ComplexEvent>],
    ) {
        self.events_seen += span.len() as u64;
        for (slot, state) in self.slots.iter_mut().enumerate() {
            let finished = match state {
                SlotRuntime::Live { operator, draining } => {
                    let decider = row.get(slot).expect("live slot without a decider");
                    if *draining {
                        let mut finished = false;
                        for event in span {
                            outputs[slot]
                                .extend(operator.push_routed(event, false, false, decider));
                            if operator.open_windows() == 0 {
                                finished = true;
                                break;
                            }
                        }
                        finished
                    } else {
                        operator.push_span(span, decider, &mut outputs[slot]);
                        false
                    }
                }
                SlotRuntime::Retired { .. } => false,
            };
            if finished {
                finalize_slot(state, slot, row);
            }
        }
    }

    /// Applies one in-band lifecycle command at the current stream
    /// position. Admissions append a fresh slot (operator, opener, output
    /// lane, decider); retirements put a slot into draining (and tear it
    /// down immediately when it has no open windows).
    fn apply_command<R: DeciderRow>(
        &mut self,
        command: ShardCommand,
        row: &mut R,
        outputs: &mut Vec<Vec<ComplexEvent>>,
    ) {
        match command {
            ShardCommand::Admit { slot, query, decider, predictor } => {
                let slot = slot as usize;
                assert_eq!(slot, self.slots.len(), "admissions must arrive in slot order");
                // A fresh tracker, never a shared group: the admitted
                // query's slide state must start at the admission point,
                // exactly as a fresh engine's would — an initial-set
                // tracker carries mid-stream state.
                self.openers.push(OpenTracker::new(query.window().open_policy().clone()));
                self.opens.push(false);
                self.open_group.push(self.openers.len() - 1);
                let mut operator =
                    Operator::for_query(query, slot as QueryId, self.index, self.count);
                operator.share_size_predictor(predictor);
                self.slots.push(SlotRuntime::Live { operator, draining: false });
                row.install(slot, decider);
                outputs.push(Vec::new());
            }
            ShardCommand::Retire { slot } => {
                let slot = slot as usize;
                let state = &mut self.slots[slot];
                let finished = match state {
                    SlotRuntime::Live { operator, draining } => {
                        *draining = true;
                        operator.open_windows() == 0
                    }
                    // The engine validates handles before broadcasting, so
                    // a retired slot can only be seen here after an engine
                    // bug; tolerate it instead of poisoning the drain.
                    SlotRuntime::Retired { .. } => false,
                };
                if finished {
                    finalize_slot(state, slot, row);
                }
            }
        }
    }

    /// Closes all still-open windows of every live slot (end of stream) and
    /// tears down the slots that were draining.
    pub(crate) fn flush_core<R: DeciderRow>(
        &mut self,
        row: &mut R,
        outputs: &mut [Vec<ComplexEvent>],
    ) {
        for (slot, state) in self.slots.iter_mut().enumerate() {
            let finished = match state {
                SlotRuntime::Live { operator, draining } => {
                    let decider = row.get(slot).expect("live slot without a decider");
                    outputs[slot].extend(operator.flush(decider));
                    *draining
                }
                SlotRuntime::Retired { .. } => continue,
            };
            if finished {
                finalize_slot(state, slot, row);
            }
        }
    }

    /// The shared slice pass: events in stream order, with position-anchored
    /// lifecycle commands applied at their event boundaries (an empty
    /// command list is the static batch scan). Flushes at the end and
    /// returns one output lane per slot, admissions included.
    pub(crate) fn run_events_core<R: DeciderRow>(
        &mut self,
        events: &[Event],
        mut commands: VecDeque<(u64, ShardCommand)>,
        row: &mut R,
    ) -> Vec<Vec<ComplexEvent>> {
        let mut outputs: Vec<Vec<ComplexEvent>> = vec![Vec::new(); self.slots.len()];
        let mut position = 0usize;
        while position < events.len() {
            while commands.front().is_some_and(|(at, _)| *at <= position as u64) {
                let (_, command) = commands.pop_front().expect("front checked above");
                self.apply_command(command, row, &mut outputs);
            }
            // The stretch up to the next command anchor goes through the
            // span-fused pass in one piece — commands are span boundaries.
            let stretch_end =
                commands.front().map_or(events.len(), |(at, _)| (*at as usize).min(events.len()));
            self.run_span_fused(&events[position..stretch_end], row, &mut outputs);
            position = stretch_end;
        }
        // Commands anchored at or past the end of the stream: retires still
        // take effect before the final flush; admissions create slots that
        // never saw an event (empty output, zero counters).
        while let Some((_, command)) = commands.pop_front() {
            self.apply_command(command, row, &mut outputs);
        }
        self.flush_core(row, &mut outputs);
        outputs
    }

    /// Drives the full event slice through this shard and flushes at the end,
    /// returning the complex events of the windows the shard owns.
    ///
    /// Single-query wrapper over
    /// [`run_events_multi`](Self::run_events_multi).
    ///
    /// # Panics
    ///
    /// Panics if the shard serves more than one query.
    pub fn run_events<D: WindowEventDecider + ?Sized>(
        &mut self,
        events: &[Event],
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        assert_eq!(self.query_count(), 1, "multi-query shards need run_events_multi");
        let mut by_ref: &mut D = decider;
        let mut outputs = self.run_events_multi(events, std::slice::from_mut(&mut by_ref));
        outputs.pop().expect("one output per query")
    }

    /// Drives the full event slice through every query's operator in one
    /// fused pass (one decider per slot) and flushes at the end. Returns
    /// the complex events per slot, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from the query count.
    pub fn run_events_multi<D: WindowEventDecider>(
        &mut self,
        events: &[Event],
        deciders: &mut [D],
    ) -> Vec<Vec<ComplexEvent>> {
        assert_eq!(deciders.len(), self.query_count(), "need exactly one decider per query");
        self.run_events_core(events, VecDeque::new(), &mut &mut *deciders)
    }

    /// The one queue drain loop behind every streaming path: replays
    /// `replay` (a recovering shard's retained chunks), then pops the
    /// bounded input queue until the producer closes it, and flushes.
    /// Each chunk hand-off goes through the span-fused pass **once** per
    /// shard, regardless of the query count, and in-band
    /// [`ShardInput::Command`]s apply at the position they occupy in the
    /// queue. Events must arrive in global stream order; the shard then
    /// takes identical decisions to a slice-driven run over the same
    /// events.
    ///
    /// When `check_interval` is set, every live slot's decider
    /// periodically receives a [`QueueSample`] of the *measured* queue
    /// state (see [`QueueSampler`]); replayed chunks are never sampled.
    /// `faults` fires once per chunk hand-off with the chunk's base
    /// position. `hooks` supplies the path-specific parts: an abort flag
    /// (checked before every hand-off; a raised flag returns `None`) and a
    /// boundary callback run after every chunk and after the final flush.
    ///
    /// Returns one output lane per slot, admissions included.
    pub(crate) fn drain<R: DeciderRow, H: DrainHooks<R>>(
        &mut self,
        replay: Vec<Arc<EventChunk>>,
        mut queue: QueueConsumer<ShardInput>,
        row: &mut R,
        check_interval: Option<Duration>,
        faults: Option<&ArmedFaults>,
        hooks: &mut H,
    ) -> Option<Vec<Vec<ComplexEvent>>> {
        let mut outputs: Vec<Vec<ComplexEvent>> = vec![Vec::new(); self.slots.len()];
        let aborted = |hooks: &H| hooks.abort_flag().is_some_and(|f| f.load(Ordering::Acquire));
        // Producer-counted stream position reached so far: chunk bases
        // line up with it on every path, replacements included.
        let mut position = self.events_seen;
        for chunk in &replay {
            if aborted(hooks) {
                return None;
            }
            position = self.scan_chunk(chunk, row, faults, hooks.abort_flag(), &mut outputs);
            hooks.on_boundary(self, row, &mut outputs, position);
        }
        drop(replay);

        let mut sampler = check_interval.map(|interval| QueueSampler::new(interval, self));
        let mut backoff = Backoff::new();
        loop {
            if aborted(hooks) {
                return None;
            }
            let input = match queue.pop() {
                Some(input) => input,
                // The close flag is set after the final push, so one more
                // pop settles whether anything raced in.
                None if queue.is_closed() => match queue.pop() {
                    Some(input) => input,
                    None => break,
                },
                None => {
                    // Empty but still open: back off (spin → yield →
                    // sleep). With sampling on, the wait is timed as idle
                    // and samples keep firing, so a closed-loop decider
                    // observes the queue draining and can stop shedding.
                    match &mut sampler {
                        Some(sampler) => sampler.wait(&mut backoff, self, row, &queue),
                        None => backoff.wait(),
                    }
                    continue;
                }
            };
            backoff.reset();
            match input {
                ShardInput::Chunk(chunk) => {
                    position =
                        self.scan_chunk(&chunk, row, faults, hooks.abort_flag(), &mut outputs);
                    // One relaxed RMW per chunk retires its events from the
                    // event-denominated depth before any sample reads it.
                    queue.consume_events(chunk.len() as u64);
                    if let Some(sampler) = &mut sampler {
                        sampler.drained(chunk.len(), self, row, &queue);
                    }
                    hooks.on_boundary(self, row, &mut outputs, position);
                }
                ShardInput::Command(command) => self.apply_command(*command, row, &mut outputs),
            }
        }
        // End of stream: close the remaining windows. The position does not
        // advance — a flush emits matches without consuming events.
        self.flush_core(row, &mut outputs);
        hooks.on_boundary(self, row, &mut outputs, position);
        Some(outputs)
    }

    /// One chunk hand-off: fires the fault hook at the chunk's base, runs
    /// the span-fused pass over the chunk in place, and returns the stream
    /// position after it.
    fn scan_chunk<R: DeciderRow>(
        &mut self,
        chunk: &EventChunk,
        row: &mut R,
        faults: Option<&ArmedFaults>,
        abort: Option<&AtomicBool>,
        outputs: &mut [Vec<ComplexEvent>],
    ) -> u64 {
        if let Some(faults) = faults {
            faults.on_handoff(self.index, chunk.base(), abort);
        }
        self.run_span_fused(chunk.events(), row, outputs);
        chunk.end()
    }

    /// Hands every live slot's decider `sample`, stamped with the slot's
    /// own predicted window size.
    fn deliver_sample<R: DeciderRow>(&self, row: &mut R, mut sample: QueueSample) {
        for (slot, state) in self.slots.iter().enumerate() {
            if let SlotRuntime::Live { operator, .. } = state {
                if let Some(decider) = row.get(slot) {
                    sample.predicted_window_size = operator.predicted_window_size();
                    decider.queue_sample(&sample);
                }
            }
        }
    }

    /// Shard-level `(assignments, kept)` totals over every slot, retired
    /// ones included (their frozen totals keep sample deltas monotone
    /// across a retirement).
    fn assignment_totals(&self) -> (u64, u64) {
        (0..self.slots.len())
            .map(|slot| self.slot_stats(slot))
            .fold((0, 0), |(a, k), stats| (a + stats.assignments, k + stats.kept))
    }

    /// Resets the run state of every live slot (operators and the shared
    /// open trackers) while keeping queries and shard geometry. Retired
    /// slots stay retired — reviving them takes an engine rebuild
    /// ([`ShardedEngine::reset`](crate::ShardedEngine::reset)).
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            if let SlotRuntime::Live { operator, draining } = slot {
                operator.reset();
                *draining = false;
            }
        }
        for opener in &mut self.openers {
            opener.reset();
        }
        if let Some(balancer) = &mut self.balancer {
            balancer.reset();
        }
        self.stolen = 0;
        self.events_seen = 0;
    }

    /// Cuts a replay checkpoint at stream position `position` (a chunk
    /// boundary: the shard has processed exactly the first `position`
    /// events). The checkpoint captures everything a *fresh* shard needs to
    /// re-derive this shard's forward behaviour when the replay stream also
    /// starts at a position at or below every currently open window's start:
    /// the open-tracker slide state and each slot's global window-id
    /// counter. Ring contents and open-window sets are deliberately *not*
    /// captured — they are reconstructed by replaying events, which is what
    /// keeps the checkpoint O(queries) instead of O(resident events).
    ///
    /// Static-path only: every slot must be live.
    pub(crate) fn cut_checkpoint(&self, position: u64) -> ShardCheckpoint {
        let mut next_window_ids = Vec::with_capacity(self.slots.len());
        let mut predictors = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            match slot {
                SlotRuntime::Live { operator, .. } => {
                    next_window_ids.push(operator.next_window_id());
                    predictors.push(operator.predictor_snapshot());
                }
                // The resilient path rejects engines with retired slots up
                // front, so checkpoints only ever see live rows.
                SlotRuntime::Retired { .. } => unreachable!("checkpoint on a retired slot"),
            }
        }
        ShardCheckpoint {
            position,
            openers: self.openers.clone(),
            next_window_ids,
            balancer: self.balancer.clone(),
            predictors,
            stolen: self.stolen,
        }
    }

    /// Stream position of the oldest event any live slot's open window still
    /// needs, or `None` when no window is open anywhere. Replaying from at
    /// or below this position reproduces every open window of every slot —
    /// the per-shard low-water mark chunk retention is pruned against,
    /// mirroring how [`EventRing`](crate::ring::EventRing) prunes to the
    /// oldest open window's start slot.
    pub(crate) fn oldest_open_start_pos(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|slot| match slot {
                SlotRuntime::Live { operator, .. } => operator.oldest_open_start_pos(),
                SlotRuntime::Retired { .. } => None,
            })
            .min()
    }

    /// Positions a *fresh* shard at `checkpoint`, as if it had already
    /// scanned the first `checkpoint.position` events of the stream and
    /// none of its still-open windows had opened before that point.
    pub(crate) fn restore_checkpoint(&mut self, checkpoint: &ShardCheckpoint) {
        assert_eq!(
            checkpoint.next_window_ids.len(),
            self.slots.len(),
            "checkpoint and shard must agree on the query set"
        );
        self.openers = checkpoint.openers.clone();
        self.opens = vec![false; self.openers.len()];
        // The ownership table and steal counter resume exactly where the
        // checkpoint was cut: a replayed open must route to the same shard
        // it routed to the first time.
        self.balancer = checkpoint.balancer.clone();
        self.stolen = checkpoint.stolen;
        for (slot, next_id) in self.slots.iter_mut().zip(&checkpoint.next_window_ids) {
            match slot {
                SlotRuntime::Live { operator, .. } => {
                    operator.restore_for_replay(*next_id, checkpoint.position);
                }
                SlotRuntime::Retired { .. } => unreachable!("restore into a retired slot"),
            }
        }
        self.events_seen = checkpoint.position;
    }

    /// Rewinds every slot's engine-shared size predictor to a snapshot cut
    /// by [`cut_checkpoint`](Self::cut_checkpoint) (no-op for local
    /// predictors). Recovery rewinds to the crashed incarnation's *last
    /// flushed boundary* — not the replay checkpoint — because windows that
    /// opened before the replay checkpoint but closed before the boundary
    /// are never re-opened by the replay, so an earlier rewind would lose
    /// their observations for good.
    pub(crate) fn restore_predictors(&self, snapshots: &[Option<(u64, u64)>]) {
        for (slot, snapshot) in self.slots.iter().zip(snapshots) {
            match slot {
                SlotRuntime::Live { operator, .. } => operator.restore_predictor(*snapshot),
                SlotRuntime::Retired { .. } => unreachable!("restore into a retired slot"),
            }
        }
    }

    /// Mutes (or unmutes) every slot's size-predictor observation on window
    /// close. A replayed replacement stays muted until it reaches the
    /// crashed incarnation's last flushed boundary: every close in the
    /// replayed span already fed the shared predictor once.
    pub(crate) fn set_shared_predictor_muted(&mut self, muted: bool) {
        for slot in &mut self.slots {
            match slot {
                SlotRuntime::Live { operator, .. } => operator.set_predictor_muted(muted),
                SlotRuntime::Retired { .. } => unreachable!("mute of a retired slot"),
            }
        }
    }

    /// Snapshot of every live slot's run counters and ring peak, cut at a
    /// chunk boundary alongside [`cut_checkpoint`](Self::cut_checkpoint).
    pub(crate) fn slot_counters(&self) -> (Vec<OperatorStats>, Vec<usize>) {
        let mut stats = Vec::with_capacity(self.slots.len());
        let mut peaks = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            match slot {
                SlotRuntime::Live { operator, .. } => {
                    stats.push(operator.stats().clone());
                    peaks.push(operator.peak_resident_entries());
                }
                SlotRuntime::Retired { .. } => unreachable!("counters of a retired slot"),
            }
        }
        (stats, peaks)
    }

    /// Overwrites every slot's counters wholesale with a snapshot taken by
    /// the crashed incarnation. A replayed replacement calls this the moment
    /// it reaches the crash incarnation's last flushed boundary: from there
    /// on its counters must continue from the original's values, not from
    /// the replay's (which only scanned the stream suffix).
    pub(crate) fn overwrite_slot_counters(
        &mut self,
        stats: &[OperatorStats],
        peaks: &[usize],
        events_seen: u64,
    ) {
        for ((slot, stats), peak) in self.slots.iter_mut().zip(stats).zip(peaks) {
            match slot {
                SlotRuntime::Live { operator, .. } => {
                    operator.overwrite_counters(stats.clone(), *peak);
                }
                SlotRuntime::Retired { .. } => unreachable!("overwrite of a retired slot"),
            }
        }
        self.events_seen = events_seen;
    }
}

/// The path-specific parts of [`Shard::drain`]. Static and live runs use
/// the no-op `()`; the resilient path publishes every chunk boundary to its
/// shard monitor and can be aborted by the coordinator. Generic, not `dyn`:
/// the no-op hooks compile away.
pub(crate) trait DrainHooks<R> {
    /// The flag a coordinator raises to stop the drain (injected stalls
    /// poll it too); `None` means the drain is never aborted.
    fn abort_flag(&self) -> Option<&AtomicBool> {
        None
    }

    /// Runs after every chunk and after the end-of-stream flush, with the
    /// stream position the shard has reached.
    fn on_boundary(
        &mut self,
        _shard: &mut Shard,
        _row: &mut R,
        _outputs: &mut [Vec<ComplexEvent>],
        _position: u64,
    ) {
    }
}

impl<R> DrainHooks<R> for () {}

/// How many drained events may pass between wall-clock reads while
/// sampling is on (keeps `Instant::now` off the per-chunk path for small
/// chunks).
const CLOCK_STRIDE: u32 = 32;

/// The wall-clock queue sampling of one drain loop: every `interval` it
/// hands each live slot's decider a [`QueueSample`]. The queue serves all
/// queries, so depth, drain count, busy time and the kept/assignment
/// deltas are shard-level aggregates (identical across the samples of one
/// cycle); only `predicted_window_size` is per slot. The reported depth is
/// **event-denominated** and exact: the drain retires each chunk's events
/// before sampling, so the `f · qmax` check never mistakes a queue of fat
/// chunks for a near-empty one.
struct QueueSampler {
    interval: Duration,
    started: Instant,
    next: Duration,
    /// Time spent waiting on an empty queue (excluded from `busy`).
    idle: Duration,
    drained: u64,
    since_clock_check: u32,
    last_assignments: u64,
    last_kept: u64,
}

impl QueueSampler {
    /// Starts the clocks now. The kept/assignment deltas are seeded from
    /// the shard's current counters, so a recovered shard's first sample
    /// covers only its own work.
    fn new(interval: Duration, shard: &Shard) -> Self {
        let (last_assignments, last_kept) = shard.assignment_totals();
        QueueSampler {
            interval,
            started: Instant::now(),
            next: interval,
            idle: Duration::ZERO,
            drained: 0,
            since_clock_check: 0,
            last_assignments,
            last_kept,
        }
    }

    /// Accounts `events` drained events; reads the clock at most once per
    /// [`CLOCK_STRIDE`] events and samples when due.
    fn drained<R: DeciderRow>(
        &mut self,
        events: usize,
        shard: &Shard,
        row: &mut R,
        queue: &QueueConsumer<ShardInput>,
    ) {
        self.drained += events as u64;
        self.since_clock_check =
            self.since_clock_check.saturating_add(u32::try_from(events).unwrap_or(u32::MAX));
        if self.since_clock_check >= CLOCK_STRIDE {
            self.since_clock_check = 0;
            self.sample_if_due(shard, row, queue);
        }
    }

    /// Waits one backoff round on an empty queue, timed as idle, and
    /// samples when due.
    fn wait<R: DeciderRow>(
        &mut self,
        backoff: &mut Backoff,
        shard: &Shard,
        row: &mut R,
        queue: &QueueConsumer<ShardInput>,
    ) {
        let wait = Instant::now();
        backoff.wait();
        self.idle += wait.elapsed();
        self.sample_if_due(shard, row, queue);
    }

    fn sample_if_due<R: DeciderRow>(
        &mut self,
        shard: &Shard,
        row: &mut R,
        queue: &QueueConsumer<ShardInput>,
    ) {
        let elapsed = self.started.elapsed();
        if elapsed < self.next {
            return;
        }
        self.next = elapsed + self.interval;
        let (assignments, kept) = shard.assignment_totals();
        let sample = QueueSample {
            elapsed: SimDuration::from_secs_f64(elapsed.as_secs_f64()),
            busy: SimDuration::from_secs_f64((elapsed - self.idle).as_secs_f64()),
            depth: queue.event_depth() as usize,
            drained: std::mem::take(&mut self.drained),
            assignments: assignments - self.last_assignments,
            kept: kept - self.last_kept,
            predicted_window_size: 0,
        };
        self.last_assignments = assignments;
        self.last_kept = kept;
        shard.deliver_sample(row, sample);
    }
}

/// A replay checkpoint of one shard, cut at a chunk boundary by the
/// resilient drain loop (see [`crate::resilience`]). Plain data, cheap to
/// clone: open-tracker slide state plus one window-id counter per slot.
#[derive(Debug, Clone)]
pub(crate) struct ShardCheckpoint {
    /// The chunk boundary (producer-counted event position) the checkpoint
    /// was cut at.
    pub(crate) position: u64,
    openers: Vec<OpenTracker>,
    next_window_ids: Vec<WindowId>,
    /// The ownership table at the boundary (dynamic policies only): a
    /// replacement must route every replayed open to the shard it was
    /// routed to the first time, so stolen windows recover on the right
    /// shard.
    balancer: Option<WindowBalancer>,
    /// Per-slot shared size-predictor accumulators at the boundary
    /// (`None` for local predictors). Recovery rewinds the shared estimator
    /// to the *last flushed* checkpoint's snapshot and mutes the
    /// replacement's observations until the replay reaches that boundary,
    /// so replayed closes are observed exactly once.
    predictors: Vec<Option<(u64, u64)>>,
    /// Steal counter at the boundary.
    stolen: u64,
}

impl ShardCheckpoint {
    /// The per-slot shared size-predictor snapshots this checkpoint carries,
    /// for [`Shard::restore_predictors`].
    pub(crate) fn predictor_snapshots(&self) -> &[Option<(u64, u64)>] {
        &self.predictors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeepAll, Pattern, WindowSpec};
    use espice_events::{EventType, Timestamp};

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn ev(t: u32, secs: u64, seq: u64) -> Event {
        Event::new(ty(t), Timestamp::from_secs(secs), seq)
    }

    fn query() -> Query {
        Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::count_on_types(vec![ty(0)], 3))
            .build()
    }

    fn query_sized(size: usize) -> Query {
        Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::count_on_types(vec![ty(0)], size))
            .build()
    }

    #[test]
    fn shard_owns_only_congruent_window_ids() {
        // Three windows open (events 0, 3, 6); shard 1 of 3 owns window 1.
        let events: Vec<Event> = (0..9).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut shard = Shard::new(query(), 1, 3);
        let complex = shard.run_events(&events, &mut KeepAll);
        assert_eq!(shard.index(), 1);
        assert_eq!(shard.stats().windows_opened, 1);
        assert!(complex.iter().all(|c| c.window_id() == 1));
    }

    #[test]
    fn stealing_shards_partition_windows_exactly_once() {
        // Every shard consults its private balancer clone in lockstep, so
        // the union across shards must be exactly the single-operator
        // window set — each window materialised once, ids unchanged.
        let events: Vec<Event> =
            (0..120).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut single = Shard::new(query(), 0, 1);
        let expected = single.run_events(&events, &mut KeepAll);

        let mut merged = Vec::new();
        let mut opened = 0;
        let mut stolen = 0;
        for index in 0..3 {
            let mut shard = Shard::new(query(), index, 3);
            shard.set_ownership_policy(OwnershipPolicy::StealAtOpen);
            assert_eq!(shard.ownership_policy(), OwnershipPolicy::StealAtOpen);
            merged.extend(shard.run_events(&events, &mut KeepAll));
            opened += shard.stats().windows_opened;
            stolen += shard.stolen_windows();
        }
        merged.sort_by_key(|c| c.window_id());
        assert_eq!(merged, expected);
        assert_eq!(opened, single.stats().windows_opened);
        assert!(stolen > 0, "the hashed rotation must displace some windows");
    }

    #[test]
    fn static_policy_never_counts_steals() {
        let events: Vec<Event> =
            (0..60).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut shard = Shard::new(query(), 1, 2);
        assert_eq!(shard.ownership_policy(), OwnershipPolicy::StaticModulo);
        let _ = shard.run_events(&events, &mut KeepAll);
        assert_eq!(shard.stolen_windows(), 0);
    }

    #[test]
    fn reset_clears_the_ownership_table() {
        let events: Vec<Event> =
            (0..60).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut shard = Shard::new(query(), 0, 2);
        shard.set_ownership_policy(OwnershipPolicy::StealAtOpen);
        let first = shard.run_events(&events, &mut KeepAll);
        shard.reset();
        assert_eq!(shard.stolen_windows(), 0);
        let second = shard.run_events(&events, &mut KeepAll);
        assert_eq!(first, second, "reset must replay identically under stealing");
    }

    #[test]
    #[should_panic(expected = "before the first event")]
    fn ownership_policy_cannot_change_mid_run() {
        let events = vec![ev(0, 0, 0)];
        let mut shard = Shard::new(query(), 0, 2);
        let _ = shard.run_events(&events, &mut KeepAll);
        shard.set_ownership_policy(OwnershipPolicy::StealAtOpen);
    }

    /// Drives `events` through `shard`'s queue drain as chunks of `chunk`
    /// events over a queue of `slots` slots, returning the per-slot outputs
    /// and the events the producer pushed.
    fn drain_chunked<D: WindowEventDecider + Send>(
        shard: &mut Shard,
        mut deciders: &mut [D],
        events: &[Event],
        chunk: usize,
        slots: usize,
        check_interval: Option<Duration>,
    ) -> (Vec<Vec<ComplexEvent>>, u64) {
        let (mut producer, queue) = crate::queue::spsc(slots);
        std::thread::scope(|scope| {
            let drain = scope.spawn(|| {
                shard
                    .drain(Vec::new(), queue, &mut deciders, check_interval, None, &mut ())
                    .expect("never aborted")
            });
            let mut push = |chunk: Arc<EventChunk>| {
                let weight = chunk.len() as u64;
                assert!(producer.push_blocking_weighted(ShardInput::Chunk(chunk), weight));
            };
            let mut builder = crate::arena::ChunkBuilder::new(chunk);
            for event in events {
                if let Some(full) = builder.push(event.clone()) {
                    push(full);
                }
            }
            if let Some(partial) = builder.seal() {
                push(partial);
            }
            producer.close();
            let outputs = drain.join().expect("drain thread panicked");
            (outputs, producer.stats().pushed)
        })
    }

    #[test]
    fn run_queue_equals_run_events() {
        let events: Vec<Event> =
            (0..60).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut slice_shard = Shard::new(query(), 0, 2);
        let expected = slice_shard.run_events(&events, &mut KeepAll);

        let mut queue_shard = Shard::new(query(), 0, 2);
        let (mut streamed, pushed) =
            drain_chunked(&mut queue_shard, &mut [KeepAll], &events, 7, 4, None);
        assert_eq!(streamed.pop().expect("one query"), expected);
        assert_eq!(queue_shard.stats(), slice_shard.stats());
        assert_eq!(pushed, events.len() as u64, "pushed counts events");
    }

    #[test]
    fn chunked_queue_input_equals_per_event_input() {
        // Single-event chunks and 64-event chunks (with a partial tail)
        // must scan identically — the shard must not care how the producer
        // batched.
        let events: Vec<Event> =
            (0..90).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut slice_shard = Shard::new(query(), 0, 2);
        let expected = slice_shard.run_events(&events, &mut KeepAll);

        for chunk in [1, 64] {
            let mut queue_shard = Shard::new(query(), 0, 2);
            let (mut streamed, pushed) =
                drain_chunked(&mut queue_shard, &mut [KeepAll], &events, chunk, 4, None);
            assert_eq!(streamed.pop().expect("one query"), expected, "chunk {chunk}");
            assert_eq!(queue_shard.stats(), slice_shard.stats(), "chunk {chunk}");
            assert_eq!(pushed, events.len() as u64, "pushed counts events");
        }
    }

    #[test]
    fn multi_query_shard_equals_independent_single_query_shards() {
        let events: Vec<Event> =
            (0..90).map(|i| ev(if i % 3 == 0 { 0 } else { 1 + (i % 2) as u32 }, i, i)).collect();
        let set = QuerySet::new(vec![query_sized(3), query_sized(5), query_sized(3)]);

        let mut fused = Shard::for_queries(&set, 0, 1);
        // Three queries, two distinct open policies... here all three share
        // OnTypes([ty0]) so a single tracker serves them all.
        assert_eq!(fused.open_groups(), 1);
        let mut deciders = vec![KeepAll; 3];
        let outputs = fused.run_events_multi(&events, &mut deciders);

        for (id, q) in set.iter() {
            let mut solo = Shard::new(q.clone(), 0, 1);
            let expected = solo.run_events(&events, &mut KeepAll);
            assert_eq!(outputs[id as usize], expected, "query {id} diverged");
            assert_eq!(fused.slot_stats(id as usize), solo.operator().stats());
        }
    }

    #[test]
    fn fused_windows_carry_their_query_id() {
        #[derive(Debug, Default, Clone)]
        struct SeenQueries(Vec<u32>);
        impl WindowEventDecider for SeenQueries {
            fn decide(
                &mut self,
                meta: &crate::WindowMeta,
                _position: usize,
                _event: &Event,
            ) -> crate::Decision {
                if !self.0.contains(&meta.query) {
                    self.0.push(meta.query);
                }
                crate::Decision::Keep
            }
        }
        let events: Vec<Event> = (0..30).map(|i| ev((i % 2) as u32, i, i)).collect();
        let set = QuerySet::new(vec![query_sized(3), query_sized(4)]);
        let mut shard = Shard::for_queries(&set, 0, 1);
        let mut deciders = vec![SeenQueries::default(), SeenQueries::default()];
        let _ = shard.run_events_multi(&events, &mut deciders);
        assert_eq!(deciders[0].0, vec![0]);
        assert_eq!(deciders[1].0, vec![1]);
    }

    #[test]
    fn distinct_open_policies_get_distinct_trackers() {
        let sliding = Query::builder()
            .pattern(Pattern::sequence([ty(0), ty(1)]))
            .window(WindowSpec::count_sliding(6, 2))
            .build();
        let set = QuerySet::new(vec![query_sized(3), sliding.clone(), query_sized(4)]);
        let fused = Shard::for_queries(&set, 0, 1);
        assert_eq!(fused.open_groups(), 2);

        // And the shared tracker still opens exactly what standalone
        // operators would.
        let events: Vec<Event> = (0..40).map(|i| ev((i % 3) as u32, i, i)).collect();
        let mut fused = fused;
        let mut deciders = vec![KeepAll; 3];
        let _ = fused.run_events_multi(&events, &mut deciders);
        for (id, q) in set.iter() {
            let mut solo = Shard::new(q.clone(), 0, 1);
            let _ = solo.run_events(&events, &mut KeepAll);
            assert_eq!(
                fused.slot_stats(id as usize).windows_opened,
                solo.operator().stats().windows_opened,
                "query {id} opened a different number of windows"
            );
        }
    }

    #[test]
    fn run_queue_multi_equals_run_events_multi() {
        let events: Vec<Event> =
            (0..80).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let set = QuerySet::new(vec![query_sized(3), query_sized(6)]);

        let mut slice_shard = Shard::for_queries(&set, 0, 1);
        let mut slice_deciders = vec![KeepAll; 2];
        let expected = slice_shard.run_events_multi(&events, &mut slice_deciders);

        let mut queue_shard = Shard::for_queries(&set, 0, 1);
        let (streamed, _) =
            drain_chunked(&mut queue_shard, &mut [KeepAll, KeepAll], &events, 5, 4, None);
        assert_eq!(streamed, expected);
        assert_eq!(queue_shard.stats(), slice_shard.stats());
    }

    #[test]
    fn run_queue_delivers_samples_when_sampling_is_on() {
        #[derive(Debug, Default, Clone)]
        struct Sampling {
            samples: Vec<crate::QueueSample>,
        }
        impl WindowEventDecider for Sampling {
            fn decide(
                &mut self,
                _meta: &crate::WindowMeta,
                _position: usize,
                _event: &Event,
            ) -> crate::Decision {
                crate::Decision::Keep
            }
            fn queue_sample(&mut self, sample: &crate::QueueSample) {
                self.samples.push(*sample);
            }
        }

        const CHUNK: usize = 4;
        const SLOTS: usize = 64;
        let interval = Duration::from_micros(50);
        let events: Vec<Event> =
            (0..4000).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();

        // Both paths run the same drain loop and sampler: a shard drained
        // by hand, and the resilient engine path.
        let mut shard = Shard::new(query(), 0, 1);
        let mut deciders = [Sampling::default()];
        let _ = drain_chunked(&mut shard, &mut deciders, &events, CHUNK, SLOTS, Some(interval));
        let [drained] = deciders;
        let by_hand = (drained.samples, shard.stats().assignments);

        let mut engine = crate::ShardedEngine::new(query(), 1);
        engine.set_chunk_capacity(CHUNK);
        engine.set_queue_capacity(SLOTS);
        engine.set_check_interval(Some(interval));
        let mut source = espice_events::SliceSource::new(&events);
        let report = engine
            .run_source_resilient(&mut source, vec![Sampling::default()], &Default::default())
            .expect("fault-free resilient run");
        let mut row = report.deciders.into_iter().next().flatten().expect("healthy shard");
        let resilient = (row.pop().expect("one query").samples, engine.stats().merged.assignments);

        for (path, (samples, total_assignments)) in
            [("shard drain", by_hand), ("resilient path", resilient)]
        {
            assert!(!samples.is_empty(), "{path}: sampling was configured but never fired");
            let drained: u64 = samples.iter().map(|s| s.drained).sum();
            assert!(drained <= events.len() as u64, "{path}");
            for pair in samples.windows(2) {
                assert!(pair[0].elapsed <= pair[1].elapsed, "{path}");
                assert!(pair[0].busy <= pair[1].busy, "{path}");
            }
            let kept: u64 = samples.iter().map(|s| s.kept).sum();
            let assignments: u64 = samples.iter().map(|s| s.assignments).sum();
            assert_eq!(kept, assignments, "{path}: KeepAll keeps every assignment");
            assert!(assignments <= total_assignments, "{path}");
            for sample in &samples {
                assert!(sample.busy <= sample.elapsed, "{path}");
                assert!(sample.depth <= SLOTS * CHUNK, "{path}: depth counts queued events");
                assert_eq!(sample.predicted_window_size, 3, "{path}");
            }
        }
    }

    #[test]
    fn reset_allows_rerunning_the_same_shard() {
        let events: Vec<Event> = (0..9).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut shard = Shard::new(query(), 0, 2);
        let first = shard.run_events(&events, &mut KeepAll);
        shard.reset();
        let second = shard.run_events(&events, &mut KeepAll);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "one decider per query")]
    fn mismatched_decider_count_panics() {
        let set = QuerySet::new(vec![query_sized(3), query_sized(4)]);
        let mut shard = Shard::for_queries(&set, 0, 1);
        let mut deciders = vec![KeepAll];
        let _ = shard.run_events_multi(&[], &mut deciders);
    }

    /// The shard-level lifecycle semantics in isolation: an admission at
    /// position k equals a fresh shard over `events[k..]`, and a retirement
    /// drains open windows before teardown.
    #[test]
    fn admission_mid_slice_equals_fresh_shard_over_suffix() {
        let events: Vec<Event> =
            (0..60).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let admit_at = 21u64;
        let admitted = query_sized(4);

        let mut shard = Shard::new(query_sized(3), 0, 1);
        let mut commands = VecDeque::new();
        commands.push_back((
            admit_at,
            ShardCommand::Admit {
                slot: 1,
                query: admitted.clone(),
                decider: Box::new(KeepAll) as BoxedDecider,
                predictor: Arc::new(SharedSizePredictor::new(4)),
            },
        ));
        let mut row: Vec<Option<BoxedDecider>> = vec![Some(Box::new(KeepAll) as BoxedDecider)];
        let outputs = shard.run_events_core(&events, commands, &mut row);
        assert_eq!(outputs.len(), 2);
        assert_eq!(row.len(), 2);
        assert!(row[1].is_some(), "admitted decider must survive the run");

        let mut fresh = Shard::new(admitted, 0, 1);
        let expected = fresh.run_events(&events[admit_at as usize..], &mut KeepAll);
        assert_eq!(outputs[1], expected, "admitted query must equal a fresh shard over the suffix");
        assert_eq!(shard.slot_stats(1), fresh.operator().stats());

        // The original query is untouched by the admission.
        let mut solo = Shard::new(query_sized(3), 0, 1);
        let baseline = solo.run_events(&events, &mut KeepAll);
        assert_eq!(outputs[0], baseline);
    }

    #[test]
    fn retirement_drains_open_windows_before_teardown() {
        // Window size 6 opened on every type-0 event (every 3rd event):
        // retiring at position 10 leaves windows open; they must still
        // close naturally (at their full size) before the slot retires.
        let events: Vec<Event> =
            (0..60).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut shard = Shard::new(query_sized(6), 0, 1);
        let mut commands = VecDeque::new();
        commands.push_back((10, ShardCommand::Retire { slot: 0 }));
        let mut row: Vec<Option<BoxedDecider>> = vec![Some(Box::new(KeepAll) as BoxedDecider)];
        let outputs = shard.run_events_core(&events, commands, &mut row);
        assert!(row[0].is_none(), "retired decider must be torn down");
        assert_eq!(shard.live_count(), 0);

        // Oracle: drive a fresh operator by hand — open windows normally up
        // to the retirement position, then stop opening and stop once the
        // last window closed.
        let mut oracle = Operator::new(query_sized(6));
        let mut tracker = OpenTracker::new(query_sized(6).window().open_policy().clone());
        let mut expected = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let opens = tracker.should_open(event) && (i as u64) < 10;
            expected.extend(oracle.push_opened(event, opens, &mut KeepAll));
            if i as u64 >= 10 && oracle.open_windows() == 0 {
                break;
            }
        }
        assert_eq!(outputs[0], expected);
        assert_eq!(shard.slot_stats(0), oracle.stats());
        // Windows that were open at retirement closed at their full size.
        assert_eq!(shard.slot_stats(0).windows_closed, oracle.stats().windows_closed);
        assert!(shard.slot_stats(0).windows_closed > 0);
    }
}
