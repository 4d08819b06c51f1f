//! The CEP operator: window management + pattern matching + shedding hook.
//!
//! The operator mirrors Figure 1 of the paper: incoming primitive events are
//! assigned to every open window they belong to; the load shedder (a
//! [`WindowEventDecider`]) is consulted for every (event, window) pair; when a
//! window closes, the pattern matcher runs over the kept events and emits
//! complex events.
//!
//! # Shared window storage
//!
//! Overlapping windows share their events through one operator-owned
//! [`EventRing`]: a kept event is appended **once**, regardless of how many
//! windows it belongs to, and each open window only records the ring slot at
//! which it started plus the positions its decider dropped (a [`DropSet`]).
//! Since every open window is assigned every arriving event, an event's
//! arrival position within a window is just `slot - window.start`, so the
//! per-event storage work is O(1) in the overlap factor where it used to be
//! O(overlap) `WindowEntry` clones. The ring is pruned back to the oldest
//! still-open window's start (windows close in open order, so nothing below
//! that can ever be referenced again).
//!
//! # Indexed match-on-close
//!
//! When the operator appends an event to the ring it also classifies it
//! against the pattern steps — once per (event, query), not once per
//! (event, window) — and records its slot in the occurrence list of every
//! step class that admits it. Closing a window does not rescan the window:
//! the index walks per-step occurrences inside the window's slot range,
//! skipping the window's drops (see `matcher::IndexedMatcher`).

use crate::matcher::IndexedMatcher;
use crate::ring::{DropSet, EventRing, SlotIndex};
use crate::window::{OpenTracker, SharedSizePredictor, SizePredictor};
use crate::{
    BatchRequest, ComplexEvent, Decision, Query, QueryId, WindowEventDecider, WindowExtent,
    WindowId, WindowMeta,
};
use espice_events::{Event, EventStream};
use std::collections::VecDeque;
use std::sync::Arc;

/// Counters describing one operator run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OperatorStats {
    /// Primitive events pushed into the operator.
    pub events_processed: u64,
    /// Windows opened.
    pub windows_opened: u64,
    /// Windows closed (matched).
    pub windows_closed: u64,
    /// (event, window) assignments considered, i.e. shedding decisions taken.
    pub assignments: u64,
    /// Assignments kept by the decider.
    pub kept: u64,
    /// Assignments dropped by the decider.
    pub dropped: u64,
    /// Complex events emitted.
    pub complex_events: u64,
}

impl OperatorStats {
    /// Fraction of (event, window) assignments that were dropped.
    pub fn drop_ratio(&self) -> f64 {
        if self.assignments == 0 {
            0.0
        } else {
            self.dropped as f64 / self.assignments as f64
        }
    }

    /// Adds every counter of `other` into `self`. Used by the sharded engine
    /// to merge per-shard statistics into engine-level totals.
    pub fn merge(&mut self, other: &OperatorStats) {
        self.events_processed += other.events_processed;
        self.windows_opened += other.windows_opened;
        self.windows_closed += other.windows_closed;
        self.assignments += other.assignments;
        self.kept += other.kept;
        self.dropped += other.dropped;
        self.complex_events += other.complex_events;
    }
}

/// Where the operator's window-size prediction lives: owned by this
/// operator (the default), or shared with the other shards of an engine so
/// predictions on time-based windows do not drift with the shard count.
#[derive(Debug)]
enum Prediction {
    Local(SizePredictor),
    Shared(Arc<SharedSizePredictor>),
}

impl Prediction {
    fn observe(&mut self, size: usize) {
        match self {
            Prediction::Local(predictor) => predictor.observe(size),
            Prediction::Shared(shared) => shared.observe(size),
        }
    }

    fn predict(&self) -> usize {
        match self {
            Prediction::Local(predictor) => predictor.predict(),
            Prediction::Shared(shared) => shared.predict(),
        }
    }

    fn reset_to(&mut self, initial: usize) {
        match self {
            Prediction::Local(predictor) => *predictor = SizePredictor::new(initial, 0.25),
            Prediction::Shared(shared) => shared.reset_to(initial),
        }
    }
}

/// State of one open window: a compact record over the shared event ring.
///
/// The window's events are the ring slots `[start, start + assigned)` minus
/// the positions in `dropped`; `assigned` itself is derived as
/// `ring.next_slot() - start` because the window has been assigned every
/// event appended since it opened.
#[derive(Debug)]
struct OpenWindow {
    meta: WindowMeta,
    /// Ring slot of the window's first assigned event.
    start: SlotIndex,
    /// Operator-counted stream position of the event the window opened on
    /// (`events_processed - 1` at open time). On the fused engine path every
    /// shard scans the full stream, so this equals the producer-counted
    /// position — the coordinate chunk-replay recovery acknowledges in.
    start_pos: u64,
    /// Positions (slot offsets) the decider dropped from *this* window.
    dropped: DropSet,
    /// pSPICE-style partial-match store, tracked only when the decider
    /// returned a budget from
    /// [`WindowEventDecider::partial_match_budget`] at open time. Kept
    /// events feed it; past the budget it evicts the open partial match
    /// with the lowest utility-per-remaining-cost and retro-drops
    /// constituents nothing else references into `dropped`.
    partial: Option<crate::partial::PartialStore>,
}

/// A single CEP operator executing one [`Query`].
///
/// # Example
///
/// ```
/// use espice_cep::{Operator, Query, Pattern, PatternStep, WindowSpec, KeepAll};
/// use espice_events::{Event, EventType, Timestamp, VecStream};
///
/// let a = EventType::from_index(0);
/// let b = EventType::from_index(1);
/// let query = Query::builder()
///     .pattern(Pattern::sequence([a, b]))
///     .window(WindowSpec::count_on_types(vec![a], 4))
///     .build();
///
/// let stream = VecStream::from_ordered(vec![
///     Event::new(a, Timestamp::from_secs(0), 0),
///     Event::new(b, Timestamp::from_secs(1), 1),
/// ]);
/// let mut op = Operator::new(query);
/// let complex = op.run(&stream, &mut KeepAll);
/// assert_eq!(complex.len(), 1);
/// ```
#[derive(Debug)]
pub struct Operator {
    query: Query,
    /// The window extent, cached out of `query` once at construction: it is
    /// `Copy`, so the per-event accept/close checks neither clone nor borrow
    /// the full `WindowSpec` on the hot path.
    extent: WindowExtent,
    matcher: IndexedMatcher,
    /// Shared storage for the events of all open windows, with the
    /// matcher's per-step occurrence index.
    ring: EventRing,
    /// Largest number of events ever resident in the ring at once.
    peak_resident: usize,
    open: VecDeque<OpenWindow>,
    /// The *global* window counter: it advances for every window the stream
    /// opens, whether or not this operator owns it, so window ids are
    /// identical across shard counts.
    next_window_id: WindowId,
    /// Which windows this operator materialises: ids congruent to
    /// `shard_index` modulo `shard_count`. An unsharded operator is shard 0
    /// of 1 and owns everything.
    shard_index: u64,
    shard_count: u64,
    /// Which query of a multi-query engine this operator executes (stamped
    /// into every [`WindowMeta`]); 0 for a standalone operator.
    query_id: QueryId,
    /// Open-policy state for self-driven pushes. A fused multi-query shard
    /// bypasses it via [`push_opened`](Operator::push_opened) and tracks
    /// opens itself (shared across queries with equal policies).
    opener: OpenTracker,
    prediction: Prediction,
    /// While set, window closes skip [`Prediction::observe`]. Chunk-replay
    /// recovery mutes a replacement shard's operators for the replayed span:
    /// every close up to the last flushed boundary was already fed into the
    /// shared predictor by the crashed incarnation, so observing it again
    /// would double-count (see [`crate::resilience`]).
    predictor_muted: bool,
    stats: OperatorStats,
    /// Reusable buffers for the batched shedding call in `push`.
    batch_requests: Vec<BatchRequest>,
    batch_decisions: Vec<Decision>,
}

impl Operator {
    /// Creates an operator for `query`.
    pub fn new(query: Query) -> Self {
        Self::sharded(query, 0, 1)
    }

    /// Creates the shard `shard_index` of `shard_count` cooperating operators
    /// for `query`.
    ///
    /// A sharded operator consumes the *full* event stream but materialises
    /// only the windows whose (global) id is congruent to `shard_index`
    /// modulo `shard_count`. Window-open decisions depend only on the stream
    /// itself, so every shard advances the same global window counter and the
    /// union of all shards' windows — ids included — is exactly the window
    /// set a single unsharded operator produces. [`Operator::new`] is shard
    /// 0 of 1.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or `shard_index` is out of range.
    pub fn sharded(query: Query, shard_index: usize, shard_count: usize) -> Self {
        Self::for_query(query, 0, shard_index, shard_count)
    }

    /// Creates the operator executing query `query_id` of a multi-query
    /// engine, as shard `shard_index` of `shard_count`. The query id is
    /// stamped into every [`WindowMeta`] the operator emits, so shedders
    /// that key state on windows can distinguish the windows of different
    /// queries (`(query, id)` is the engine-wide window key).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or `shard_index` is out of range.
    pub fn for_query(
        query: Query,
        query_id: QueryId,
        shard_index: usize,
        shard_count: usize,
    ) -> Self {
        assert!(shard_count >= 1, "shard count must be at least 1");
        assert!(shard_index < shard_count, "shard index {shard_index} out of {shard_count}");
        let matcher = IndexedMatcher::from_query(&query);
        let initial_size = query.window().expected_size().unwrap_or(100);
        Operator {
            extent: query.window().extent(),
            ring: EventRing::new(matcher.classes()),
            matcher,
            peak_resident: 0,
            open: VecDeque::new(),
            next_window_id: 0,
            shard_index: shard_index as u64,
            shard_count: shard_count as u64,
            query_id,
            opener: OpenTracker::new(query.window().open_policy().clone()),
            prediction: Prediction::Local(SizePredictor::new(initial_size.max(1), 0.25)),
            predictor_muted: false,
            stats: OperatorStats::default(),
            batch_requests: Vec::new(),
            batch_decisions: Vec::new(),
            query,
        }
    }

    /// The operator's query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// This operator's shard index (0 for an unsharded operator).
    pub fn shard_index(&self) -> usize {
        self.shard_index as usize
    }

    /// The total number of cooperating shards (1 for an unsharded operator).
    pub fn shard_count(&self) -> usize {
        self.shard_count as usize
    }

    /// The query id this operator stamps into its windows (0 unless created
    /// via [`for_query`](Operator::for_query)).
    pub fn query_id(&self) -> QueryId {
        self.query_id
    }

    /// Seeds the window-size prediction for time-based (variable size)
    /// windows, e.g. with the average window size a previously trained model
    /// observed. Without a hint the predictor starts from a generic default
    /// and only becomes accurate after the first windows close, which skews
    /// position scaling for the earliest windows of a run.
    pub fn set_window_size_hint(&mut self, hint: usize) {
        self.prediction.reset_to(hint.max(1));
    }

    /// Replaces the operator's local window-size predictor with one shared
    /// across all shards of an engine. On time-based (variable size)
    /// windows a local predictor only observes the windows this shard owns,
    /// so `predicted_size` drifts with the shard count; a shared predictor
    /// feeds every closure into one estimate. Count-based windows never
    /// consult the predictor.
    pub fn share_size_predictor(&mut self, shared: Arc<SharedSizePredictor>) {
        self.prediction = Prediction::Shared(shared);
    }

    /// Counters for the current run.
    pub fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Number of currently open windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Number of events currently resident in the shared event ring. Bounded
    /// by the span of the *oldest* open window, not by that span times the
    /// overlap factor.
    pub fn resident_entries(&self) -> usize {
        self.ring.len()
    }

    /// The largest number of events that were ever resident at once during
    /// this run (peak memory footprint of the window storage, in events).
    pub fn peak_resident_entries(&self) -> usize {
        self.peak_resident
    }

    /// Stream position (operator-counted) of the oldest still-open window's
    /// first event, or `None` with no window open. This is the replay
    /// low-water mark: re-feeding the stream from here reproduces every
    /// window currently open.
    pub(crate) fn oldest_open_start_pos(&self) -> Option<u64> {
        self.open.front().map(|w| w.start_pos)
    }

    /// The global window counter (advances for every window the stream
    /// opens, owned or not). Captured at chunk boundaries so a replacement
    /// shard can restart its id sequence exactly where a checkpoint was cut.
    pub(crate) fn next_window_id(&self) -> WindowId {
        self.next_window_id
    }

    /// Positions a *fresh* operator at a replay checkpoint: the window-id
    /// counter resumes from `next_window_id` and the event counter from
    /// `position`, as if the operator had already scanned the first
    /// `position` events without opening anything that is still open.
    pub(crate) fn restore_for_replay(&mut self, next_window_id: WindowId, position: u64) {
        self.next_window_id = next_window_id;
        self.stats.events_processed = position;
    }

    /// Overwrites the run counters wholesale. Used when a replayed
    /// replacement reaches the crashed incarnation's last flushed boundary:
    /// from there on the counters must continue from the original's values,
    /// not from the replay's (which only saw the suffix of the stream).
    pub(crate) fn overwrite_counters(&mut self, stats: OperatorStats, peak_resident: usize) {
        self.stats = stats;
        self.peak_resident = peak_resident;
    }

    /// The engine-shared size predictor's `(sum, count)` accumulator, or
    /// `None` for a local predictor. Captured into replay checkpoints so a
    /// replacement can rewind the estimator instead of double-observing
    /// the closes it re-derives during chunk replay.
    pub(crate) fn predictor_snapshot(&self) -> Option<(u64, u64)> {
        match &self.prediction {
            Prediction::Shared(shared) => Some(shared.snapshot()),
            Prediction::Local(_) => None,
        }
    }

    /// Rewinds the engine-shared size predictor to a checkpoint snapshot
    /// (no-op for local predictors and for checkpoints cut before the
    /// predictor was shared).
    pub(crate) fn restore_predictor(&self, snapshot: Option<(u64, u64)>) {
        if let (Prediction::Shared(shared), Some((sum, count))) = (&self.prediction, snapshot) {
            shared.restore(sum, count);
        }
    }

    /// Mutes (or unmutes) window-size observation on close. Recovery mutes a
    /// replacement's operators while it replays the span up to the crashed
    /// incarnation's last flushed boundary — those closes already fed the
    /// shared predictor once — and unmutes at the counter hand-over.
    pub(crate) fn set_predictor_muted(&mut self, muted: bool) {
        self.predictor_muted = muted;
    }

    /// Total entries written to the window storage during this run. With the
    /// shared ring this is one write per event assigned to at least one
    /// window — per-window storage writes each kept event once per
    /// overlapping window instead (compare with [`OperatorStats::kept`]).
    pub fn entries_written(&self) -> u64 {
        self.ring.next_slot()
    }

    /// The current window-size prediction (`N` for variable-size windows,
    /// the configured size for count windows before any window has closed).
    pub fn predicted_window_size(&self) -> usize {
        match self.query.window().expected_size() {
            Some(size) => size,
            None => self.prediction.predict(),
        }
    }

    /// Pushes one event through the operator, consulting `decider` for every
    /// (event, window) pair. Returns the complex events of windows that closed
    /// as a consequence of this event.
    pub fn push<D: WindowEventDecider + ?Sized>(
        &mut self,
        event: &Event,
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        let opens = self.opener.should_open(event);
        self.push_opened(event, opens, decider)
    }

    /// [`push`](Operator::push) with the window-open decision supplied by
    /// the caller instead of the operator's own [`OpenTracker`]. This is
    /// the fused multi-query entry point: a shard serving several queries
    /// evaluates each distinct open policy **once** per event and feeds the
    /// shared decision to every operator in the policy group. The caller
    /// takes over the open bookkeeping entirely — `opens` must equal what
    /// the operator's own tracker would have answered, for every event of
    /// the stream in order, or window populations diverge from a
    /// self-driven run. Do not mix with [`push`](Operator::push) in one
    /// run.
    ///
    /// Ownership stays the operator's static partition: an opening window
    /// is materialised iff `id % shard_count == shard_index`. A caller with
    /// a dynamic [`OwnershipPolicy`](crate::OwnershipPolicy) supplies its
    /// own ownership verdict through the crate-internal `push_routed`
    /// instead.
    pub fn push_opened<D: WindowEventDecider + ?Sized>(
        &mut self,
        event: &Event,
        opens: bool,
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        let owned = opens && self.next_window_id % self.shard_count == self.shard_index;
        self.push_routed(event, opens, owned, decider)
    }

    /// [`push_opened`](Operator::push_opened) with the *ownership* decision
    /// supplied by the caller too: when `opens` is true the global window
    /// counter advances on every shard as always, but the window is
    /// materialised (buffered, shed, matched) here iff `owned`. The caller
    /// must grant each window to exactly one shard — the shard's ownership
    /// table derives `owned` deterministically from the open position, so
    /// all shards agree without coordination (see
    /// [`Shard::set_ownership_policy`](crate::Shard::set_ownership_policy)).
    /// `owned` must be false whenever `opens` is false.
    pub(crate) fn push_routed<D: WindowEventDecider + ?Sized>(
        &mut self,
        event: &Event,
        opens: bool,
        owned: bool,
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        debug_assert!(opens || !owned, "ownership of a window that does not open");
        self.stats.events_processed += 1;
        let mut emitted = Vec::new();

        // 1. Close time-based windows the new event no longer fits into.
        //    Windows open in stream order and share one duration, so the
        //    expired windows are a prefix of the deque: pop from the front
        //    instead of rebuilding the deque. (Count-based windows close in
        //    step 4, when they fill up.)
        if matches!(self.extent, WindowExtent::Time(_)) {
            let extent = self.extent;
            let mut closed_any = false;
            while self.open.front().is_some_and(|w| !extent.accepts(w.meta.opened_at, 0, event)) {
                let window = self.open.pop_front().expect("front checked above");
                emitted.extend(self.close_window(window, decider));
                closed_any = true;
            }
            if closed_any {
                self.prune_ring();
            }
        }

        // 2. Possibly open a new window at this event. The global window
        //    counter advances for every opened window; the window is only
        //    materialised when this shard owns it.
        if opens {
            let id = self.next_window_id;
            self.next_window_id += 1;
            if owned {
                let meta = WindowMeta {
                    id,
                    query: self.query_id,
                    opened_at: event.timestamp(),
                    open_seq: event.seq(),
                    predicted_size: self.predicted_window_size(),
                };
                self.stats.windows_opened += 1;
                // The budget is consulted exactly once per window open, so
                // already-open windows finish under the budget they started
                // with and replay-based recovery reconstructs identical
                // stores.
                let partial =
                    decider.partial_match_budget(&meta).map(crate::partial::PartialStore::new);
                self.open.push_back(OpenWindow {
                    meta,
                    start: self.ring.next_slot(),
                    start_pos: self.stats.events_processed - 1,
                    dropped: DropSet::new(),
                    partial,
                });
            }
        }

        // 3. Assign the event to every open window: append it *once* to the
        //    shared ring, then ask the decider for the whole batch of
        //    (event, window) pairs at once so it can amortise per-event
        //    lookups across overlapping windows. A drop only records the
        //    position in that window's drop set — the ring entry is shared,
        //    so a drop in one window never affects the others.
        if !self.open.is_empty() {
            let slot = self.append(event);
            self.peak_resident = self.peak_resident.max(self.ring.len());
            self.batch_requests.clear();
            for window in self.open.iter() {
                let position = (slot - window.start) as usize;
                self.batch_requests.push(BatchRequest { meta: window.meta, position });
            }
            self.stats.assignments += self.batch_requests.len() as u64;
            decider.decide_batch(event, &self.batch_requests, &mut self.batch_decisions);
            assert_eq!(
                self.batch_decisions.len(),
                self.batch_requests.len(),
                "decide_batch must produce exactly one decision per request"
            );
            let mut kept = 0u64;
            let mut retro = 0u64;
            let pattern = self.query.pattern();
            for (window, decision) in self.open.iter_mut().zip(&self.batch_decisions) {
                let position = (slot - window.start) as usize;
                if decision.is_keep() {
                    kept += 1;
                    if let Some(store) = window.partial.as_mut() {
                        let utility = decider.constituent_utility(&window.meta, position, event);
                        retro += store.feed(pattern, position, event, utility, &mut window.dropped)
                            as u64;
                    }
                } else {
                    window.dropped.push(position);
                }
            }
            self.stats.kept += kept;
            self.stats.dropped += self.batch_requests.len() as u64 - kept;
            // Retro-drops demote assignments that were already counted as
            // kept (possibly in earlier pushes), preserving
            // `kept + dropped == assignments`.
            self.stats.kept -= retro;
            self.stats.dropped += retro;
        }

        // 4. Close count-based windows that filled up. Older windows always
        //    hold at least as many events as younger ones (every open window
        //    is assigned every event, and windows open one per event at
        //    most), so the filled windows are a prefix of the deque and
        //    pop_front preserves close order without shifting — the seed
        //    engine's O(n) `VecDeque::remove(idx)` is gone.
        if let WindowExtent::Count(size) = self.extent {
            let next = self.ring.next_slot();
            let mut closed_any = false;
            while self.open.front().is_some_and(|w| (next - w.start) as usize >= size) {
                let window = self.open.pop_front().expect("front checked above");
                emitted.extend(self.close_window(window, decider));
                closed_any = true;
            }
            if closed_any {
                self.prune_ring();
            }
            debug_assert!(
                self.open.iter().all(|w| ((next - w.start) as usize) < size),
                "filled count windows must form a prefix of the open deque"
            );
        }

        emitted
    }

    /// Pushes a whole *span* of events — a stream slice on which **no
    /// window opens** for this operator — deciding every open window
    /// against the span at once via
    /// [`WindowEventDecider::decide_span`].
    ///
    /// The caller guarantees that no event of the span opens a window (the
    /// fused shard splits spans at opening events, which take the per-event
    /// [`push_opened`](Operator::push_opened) path, and at draining slots,
    /// whose teardown must freeze counters at the exact closing event).
    /// Because no window opens mid-span, every open window sees the span at
    /// consecutive positions, so a compiling decider can walk its verdict
    /// table sequentially instead of rebuilding a batch-request vector per
    /// event. The span is cut into sub-runs at window closes: a sub-run
    /// never crosses the front window's fill (count extents) or expiry
    /// (time extents), so windows close at exactly the event they would
    /// close at on the per-event path and the merged output stays
    /// byte-identical.
    pub(crate) fn push_span<D: WindowEventDecider + ?Sized>(
        &mut self,
        events: &[Event],
        decider: &mut D,
        emitted: &mut Vec<ComplexEvent>,
    ) {
        let mut remaining = events;
        while !remaining.is_empty() {
            // Close time-based windows the sub-run's first event no longer
            // fits into (step 1 of `push_routed`, hoisted to the sub-run
            // boundary — sub-runs are cut so no window expires inside one).
            if matches!(self.extent, WindowExtent::Time(_)) {
                let extent = self.extent;
                let first = &remaining[0];
                let mut closed_any = false;
                while self.open.front().is_some_and(|w| !extent.accepts(w.meta.opened_at, 0, first))
                {
                    let window = self.open.pop_front().expect("front checked above");
                    emitted.extend(self.close_window(window, decider));
                    closed_any = true;
                }
                if closed_any {
                    self.prune_ring();
                }
            }

            // With no window open and none opening (caller guarantee), the
            // rest of the span only advances the event counter — nothing is
            // buffered and nothing can close.
            let Some(front) = self.open.front() else {
                self.stats.events_processed += remaining.len() as u64;
                return;
            };

            // The longest prefix of `remaining` during which no window
            // closes. Windows close oldest-first (they open in stream order
            // and share one extent), so the front window bounds the sub-run
            // for every open window at once.
            let limit = match self.extent {
                WindowExtent::Count(size) => {
                    let assigned = (self.ring.next_slot() - front.start) as usize;
                    debug_assert!(assigned < size, "a filled count window was left open");
                    (size - assigned).min(remaining.len())
                }
                WindowExtent::Time(_) => {
                    let opened_at = front.meta.opened_at;
                    let extent = self.extent;
                    remaining
                        .iter()
                        .position(|event| !extent.accepts(opened_at, 0, event))
                        .unwrap_or(remaining.len())
                }
            };
            let (sub_run, rest) = remaining.split_at(limit);
            remaining = rest;

            // Assign the sub-run to every open window: append it once to
            // the shared ring, then let the decider walk each window's
            // consecutive position range (step 3 of `push_routed`,
            // span-at-a-time).
            let base = self.ring.next_slot();
            for event in sub_run {
                self.append(event);
            }
            self.peak_resident = self.peak_resident.max(self.ring.len());
            let assigned = sub_run.len() as u64;
            let mut dropped_total = 0u64;
            let mut retro_total = 0u64;
            let pattern = self.query.pattern();
            for window in self.open.iter_mut() {
                let start_position = (base - window.start) as usize;
                let dropped =
                    decider.decide_span(&window.meta, start_position, sub_run, &mut window.dropped);
                dropped_total += dropped as u64;
                if let Some(store) = window.partial.as_mut() {
                    // Feed the window's kept positions in order — the same
                    // per-window sequence the per-event path produces, so
                    // the store state (and its retro-drops) stays
                    // byte-identical between the two paths.
                    for (offset, event) in sub_run.iter().enumerate() {
                        let position = start_position + offset;
                        if window.dropped.contains(position) {
                            continue;
                        }
                        let utility = decider.constituent_utility(&window.meta, position, event);
                        retro_total +=
                            store.feed(pattern, position, event, utility, &mut window.dropped)
                                as u64;
                    }
                }
            }
            let windows = self.open.len() as u64;
            self.stats.assignments += assigned * windows;
            self.stats.dropped += dropped_total;
            self.stats.kept += assigned * windows - dropped_total;
            // Retro-drops demote previously-kept assignments (see
            // `push_routed` step 3); order matters — this sub-run's kept
            // are added above before older ones are demoted.
            self.stats.kept -= retro_total;
            self.stats.dropped += retro_total;
            self.stats.events_processed += assigned;

            // Close count-based windows the sub-run filled (step 4 of
            // `push_routed`; at most the front can fill, but mirror the
            // prefix pop for robustness).
            if let WindowExtent::Count(size) = self.extent {
                let next = self.ring.next_slot();
                let mut closed_any = false;
                while self.open.front().is_some_and(|w| (next - w.start) as usize >= size) {
                    let window = self.open.pop_front().expect("front checked above");
                    emitted.extend(self.close_window(window, decider));
                    closed_any = true;
                }
                if closed_any {
                    self.prune_ring();
                }
            }
        }
    }

    /// Closes all remaining open windows (end of stream) and returns their
    /// complex events.
    pub fn flush<D: WindowEventDecider + ?Sized>(&mut self, decider: &mut D) -> Vec<ComplexEvent> {
        let mut emitted = Vec::new();
        while let Some(window) = self.open.pop_front() {
            emitted.extend(self.close_window(window, decider));
        }
        self.prune_ring();
        emitted
    }

    /// Runs the operator over an entire stream and flushes at the end.
    pub fn run<S, D>(&mut self, stream: &S, decider: &mut D) -> Vec<ComplexEvent>
    where
        S: EventStream + ?Sized,
        D: WindowEventDecider + ?Sized,
    {
        let mut out = Vec::new();
        for event in stream.events() {
            out.extend(self.push(event, decider));
        }
        out.extend(self.flush(decider));
        out
    }

    /// Resets all run state (open windows, counters) while keeping the query.
    pub fn reset(&mut self) {
        self.open.clear();
        self.ring.reset();
        self.peak_resident = 0;
        self.next_window_id = 0;
        self.opener.reset();
        self.predictor_muted = false;
        self.stats = OperatorStats::default();
        let initial_size = self.query.window().expected_size().unwrap_or(100);
        self.prediction.reset_to(initial_size.max(1));
    }

    /// Appends `event` to the shared ring and records its slot in the
    /// occurrence list of every step class that admits it.
    fn append(&mut self, event: &Event) -> SlotIndex {
        let slot = self.ring.push(event.clone());
        self.matcher.classify(event, slot, &mut self.ring);
        slot
    }

    /// Releases the ring slots (and their occurrences) no open window can
    /// reference anymore. Open windows are ordered by start slot, so the
    /// front window bounds them all; with no window open the ring empties
    /// completely.
    fn prune_ring(&mut self) {
        match self.open.front() {
            Some(window) => self.ring.release_before(window.start),
            None => self.ring.release_all(),
        }
    }

    fn close_window<D: WindowEventDecider + ?Sized>(
        &mut self,
        window: OpenWindow,
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        // The window was assigned every event appended since it opened.
        let assigned = (self.ring.next_slot() - window.start) as usize;
        self.stats.windows_closed += 1;
        if !self.predictor_muted {
            self.prediction.observe(assigned);
        }
        decider.window_closed(&window.meta, assigned);
        let emitted = self.matcher.matches(
            window.meta.id,
            &self.ring,
            window.start,
            assigned,
            &window.dropped,
        );
        self.stats.complex_events += emitted.len() as u64;
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeepAll, Pattern, WindowSpec};
    use espice_events::{EventType, SimDuration, Timestamp, VecStream};

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn ev(t: u32, ts_secs: u64, seq: u64) -> Event {
        Event::new(ty(t), Timestamp::from_secs(ts_secs), seq)
    }

    fn seq_query(window: WindowSpec) -> Query {
        Query::builder().pattern(Pattern::sequence([ty(0), ty(1)])).window(window).build()
    }

    #[test]
    fn count_on_types_window_detects_match() {
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let stream = VecStream::from_ordered(vec![ev(0, 0, 0), ev(2, 1, 1), ev(1, 2, 2)]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut KeepAll);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].key(), (0, vec![0, 2]));
        assert_eq!(op.stats().windows_opened, 1);
        assert_eq!(op.stats().windows_closed, 1);
    }

    #[test]
    fn time_window_closes_when_duration_exceeded() {
        let query = seq_query(WindowSpec::time_on_types(vec![ty(0)], SimDuration::from_secs(10)));
        // Window opens at t=0; event at t=15 falls outside and closes it.
        let stream =
            VecStream::from_ordered(vec![ev(0, 0, 0), ev(1, 5, 1), ev(2, 15, 2), ev(1, 16, 3)]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut KeepAll);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].key(), (0, vec![0, 1]));
    }

    #[test]
    fn overlapping_windows_share_events() {
        // Every type-0 event opens a 4-event window; a type-1 event can
        // complete matches in several overlapping windows.
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 4));
        let stream = VecStream::from_ordered(vec![
            ev(0, 0, 0),
            ev(0, 1, 1),
            ev(1, 2, 2),
            ev(2, 3, 3),
            ev(2, 4, 4),
            ev(2, 5, 5),
        ]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut KeepAll);
        assert_eq!(matches.len(), 2);
        // Both windows matched with the shared type-1 event (seq 2).
        assert!(matches.iter().all(|c| c.key().1.contains(&2)));
        assert!(op.stats().assignments > op.stats().events_processed);
    }

    #[test]
    fn count_sliding_windows_open_every_slide() {
        let query = seq_query(WindowSpec::count_sliding(4, 2));
        let events: Vec<Event> = (0..8).map(|i| ev(if i % 2 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut op = Operator::new(query);
        let matches = op.run(&VecStream::from_ordered(events), &mut KeepAll);
        assert_eq!(op.stats().windows_opened, 4);
        assert!(!matches.is_empty());
    }

    #[test]
    fn time_sliding_windows_open_every_slide_duration() {
        let query = seq_query(WindowSpec::time_sliding(
            SimDuration::from_secs(4),
            SimDuration::from_secs(2),
        ));
        let events: Vec<Event> =
            (0..10).map(|i| ev(if i % 2 == 0 { 0 } else { 1 }, i, i)).collect();
        let mut op = Operator::new(query);
        let _ = op.run(&VecStream::from_ordered(events), &mut KeepAll);
        // Openings at t=0,2,4,6,8.
        assert_eq!(op.stats().windows_opened, 5);
    }

    #[test]
    fn flush_emits_matches_of_still_open_windows() {
        let query = seq_query(WindowSpec::time_on_types(vec![ty(0)], SimDuration::from_secs(100)));
        let stream = VecStream::from_ordered(vec![ev(0, 0, 0), ev(1, 1, 1)]);
        let mut op = Operator::new(query);
        let mut keep = KeepAll;
        let mut matches = Vec::new();
        for e in stream.iter() {
            matches.extend(op.push(e, &mut keep));
        }
        assert!(matches.is_empty());
        matches.extend(op.flush(&mut keep));
        assert_eq!(matches.len(), 1);
        assert_eq!(op.open_windows(), 0);
    }

    /// A decider that drops every event of a given type; used to verify the
    /// shedding hook is honoured and reflected in the statistics.
    #[derive(Debug)]
    struct DropType(EventType);

    impl WindowEventDecider for DropType {
        fn decide(&mut self, _meta: &WindowMeta, _position: usize, event: &Event) -> Decision {
            if event.event_type() == self.0 {
                Decision::Drop
            } else {
                Decision::Keep
            }
        }
    }

    #[test]
    fn dropping_a_needed_type_prevents_matches() {
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let stream = VecStream::from_ordered(vec![ev(0, 0, 0), ev(1, 1, 1), ev(2, 2, 2)]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut DropType(ty(1)));
        assert!(matches.is_empty());
        assert_eq!(op.stats().dropped, 1);
        assert_eq!(op.stats().kept, op.stats().assignments - 1);
        assert!(op.stats().drop_ratio() > 0.0);
    }

    #[test]
    fn positions_count_dropped_events_too() {
        // Drop type-2 noise; the later type-1 event must still report its
        // original arrival position (2), not its index among kept events.
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let stream = VecStream::from_ordered(vec![ev(0, 0, 0), ev(2, 1, 1), ev(1, 2, 2)]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut DropType(ty(2)));
        assert_eq!(matches.len(), 1);
        let positions: Vec<_> = matches[0].constituents().iter().map(|c| c.position).collect();
        assert_eq!(positions, vec![0, 2]);
    }

    #[test]
    fn predicted_window_size_tracks_time_windows() {
        let query = seq_query(WindowSpec::time_on_types(vec![ty(0)], SimDuration::from_secs(5)));
        let mut op = Operator::new(query);
        // Two windows of ~6 events each.
        let mut events = Vec::new();
        let mut seq = 0;
        for start in [0u64, 20] {
            events.push(ev(0, start, seq));
            seq += 1;
            for i in 1..6u64 {
                events.push(ev(2, start + i % 5, seq));
                seq += 1;
            }
        }
        let stream = VecStream::from_unordered(events);
        let _ = op.run(&stream, &mut KeepAll);
        assert!(op.predicted_window_size() >= 5 && op.predicted_window_size() <= 7);
    }

    #[test]
    fn reset_clears_state() {
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let stream = VecStream::from_ordered(vec![ev(0, 0, 0), ev(1, 1, 1), ev(2, 2, 2)]);
        let mut op = Operator::new(query);
        let _ = op.run(&stream, &mut KeepAll);
        assert!(op.stats().events_processed > 0);
        op.reset();
        assert_eq!(op.stats().events_processed, 0);
        assert_eq!(op.open_windows(), 0);
        // Re-running after reset produces the same results.
        let matches = op.run(&stream, &mut KeepAll);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn sharded_operators_partition_windows_by_global_id() {
        let events: Vec<Event> =
            (0..24).map(|i| ev(if i % 3 == 0 { 0 } else { 1 }, i, i)).collect();
        let stream = VecStream::from_ordered(events);
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 4));

        let mut single = Operator::new(query.clone());
        let expected = single.run(&stream, &mut KeepAll);

        let mut merged = Vec::new();
        let mut opened = 0;
        let mut assignments = 0;
        for index in 0..3 {
            let mut shard = Operator::sharded(query.clone(), index, 3);
            let out = shard.run(&stream, &mut KeepAll);
            // Every materialised window id belongs to this shard.
            assert!(out.iter().all(|c| c.window_id() % 3 == index as u64));
            merged.extend(out);
            opened += shard.stats().windows_opened;
            assignments += shard.stats().assignments;
            // Every shard sees the whole stream.
            assert_eq!(shard.stats().events_processed, stream.len() as u64);
        }
        merged.sort_by_key(|c| c.window_id());
        assert_eq!(merged, expected);
        assert_eq!(opened, single.stats().windows_opened);
        assert_eq!(assignments, single.stats().assignments);
    }

    #[test]
    fn sharded_operator_rejects_bad_shard_geometry() {
        let query = seq_query(WindowSpec::count_sliding(4, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Operator::sharded(query.clone(), 2, 2);
        }));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Operator::sharded(query, 0, 0);
        }));
        assert!(result.is_err());
    }

    /// A decider that drops everything via an overridden `decide_batch`, to
    /// verify the operator honours batched decisions in its bookkeeping.
    #[derive(Debug)]
    struct BatchDropAll;

    impl WindowEventDecider for BatchDropAll {
        fn decide(&mut self, _meta: &WindowMeta, _position: usize, _event: &Event) -> Decision {
            unreachable!("operator must use decide_batch");
        }

        fn decide_batch(
            &mut self,
            _event: &Event,
            requests: &[crate::BatchRequest],
            decisions: &mut Vec<Decision>,
        ) {
            decisions.clear();
            decisions.resize(requests.len(), Decision::Drop);
        }
    }

    #[test]
    fn operator_routes_decisions_through_decide_batch() {
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let stream = VecStream::from_ordered(vec![ev(0, 0, 0), ev(1, 1, 1), ev(2, 2, 2)]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut BatchDropAll);
        assert!(matches.is_empty());
        assert_eq!(op.stats().dropped, op.stats().assignments);
        assert_eq!(op.stats().kept, 0);
    }

    #[test]
    fn ring_is_pruned_to_the_open_window_span() {
        // Window 12, slide 3 → overlap 4. The shared ring must never hold
        // more than one window's span of events; per-window storage would
        // peak at ~4x that.
        let query = seq_query(WindowSpec::count_sliding(12, 3));
        let events: Vec<Event> = (0..120).map(|i| ev((i % 2) as u32, i, i)).collect();
        let mut op = Operator::new(query);
        let _ = op.run(&VecStream::from_ordered(events), &mut KeepAll);
        assert_eq!(op.resident_entries(), 0, "flush must empty the ring");
        assert!(
            op.peak_resident_entries() <= 12,
            "peak {} exceeds one window span",
            op.peak_resident_entries()
        );
        assert!(op.peak_resident_entries() >= 12 - 3);
    }

    #[test]
    fn no_events_are_buffered_while_no_window_is_open() {
        // The opener type never arrives: nothing may accumulate in the ring.
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let events: Vec<Event> = (0..50).map(|i| ev(1 + (i % 2) as u32, i, i)).collect();
        let mut op = Operator::new(query);
        let matches = op.run(&VecStream::from_ordered(events), &mut KeepAll);
        assert!(matches.is_empty());
        assert_eq!(op.stats().assignments, 0);
        assert_eq!(op.peak_resident_entries(), 0);
    }

    #[test]
    fn dropped_events_stay_resident_only_within_the_window_span() {
        // Drops are per window: the shared slot stays (another window may
        // keep the event), but closing windows releases it.
        let query = seq_query(WindowSpec::count_sliding(6, 2));
        let events: Vec<Event> = (0..60).map(|i| ev((i % 2) as u32, i, i)).collect();
        let mut op = Operator::new(query);
        let _ = op.run(&VecStream::from_ordered(events), &mut DropType(ty(1)));
        assert!(op.stats().dropped > 0);
        assert!(op.peak_resident_entries() <= 6);
        assert_eq!(op.resident_entries(), 0);
    }

    #[test]
    fn operator_stats_merge_sums_counters() {
        let a = OperatorStats {
            events_processed: 1,
            windows_opened: 2,
            windows_closed: 3,
            assignments: 4,
            kept: 3,
            dropped: 1,
            complex_events: 5,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.assignments, 8);
        assert_eq!(b.kept, 6);
        assert_eq!(b.dropped, 2);
        assert_eq!(b.complex_events, 10);
    }

    #[test]
    fn stats_complex_event_counter_matches_output() {
        let query = seq_query(WindowSpec::count_on_types(vec![ty(0)], 3));
        let stream = VecStream::from_ordered(vec![
            ev(0, 0, 0),
            ev(1, 1, 1),
            ev(2, 2, 2),
            ev(0, 3, 3),
            ev(1, 4, 4),
            ev(2, 5, 5),
        ]);
        let mut op = Operator::new(query);
        let matches = op.run(&stream, &mut KeepAll);
        assert_eq!(op.stats().complex_events as usize, matches.len());
    }
}
