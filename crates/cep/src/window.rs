//! Window specifications and per-window metadata.
//!
//! The input stream is partitioned into (possibly overlapping) windows; an
//! event can belong to several windows at once and is processed independently
//! in each (paper §2). A [`WindowSpec`] combines an *open policy* (when does a
//! new window start) with an *extent* (when does a window end):
//!
//! * Q1/Q2 use time-based windows opened by a logical predicate (every striker
//!   possession / every leading-stock quote),
//! * Q3 uses a count-based window opened on leading-stock quotes,
//! * Q4 uses a count-based sliding window (slide = 100 events).

use espice_events::{Event, EventType, SequenceNumber, SimDuration, Timestamp};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Identifier of a window instance within one query's operator run.
pub type WindowId = u64;

/// Identifier of a query within a [`QuerySet`](crate::QuerySet) (its index).
///
/// A multi-query engine runs one operator per query per shard; window ids
/// are only unique *within* a query, so wherever windows from several
/// queries can meet — shedder state, reports — the full key is the pair
/// `(query, window id)` carried by [`WindowMeta`]. A standalone operator is
/// query 0 of 1.
pub type QueryId = u32;

/// A generation-stamped reference to one admitted query of a live engine.
///
/// The [`QueryId`] (`slot`) names the query's position on the engine's
/// per-query axis — outputs, statistics and deciders are indexed by it —
/// and is never reused: retiring a query freezes its slot and a later
/// admission always gets a fresh one. The `generation` stamp additionally
/// makes every *admission* a distinct identity: two admissions of an
/// identical [`Query`](crate::Query) value carry different generations, so
/// a stale handle held after a retirement can never be confused with a
/// re-admitted query — [`EngineControl::retire`](crate::EngineControl::retire)
/// rejects any handle whose `(slot, generation)` pair does not match the
/// currently live admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle {
    /// The query's slot on the engine's per-query axis (its [`QueryId`]).
    pub slot: QueryId,
    /// The admission stamp: unique across every admission of the engine,
    /// initial queries included.
    pub generation: u64,
}

/// When new windows are opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenPolicy {
    /// A new window is opened for every incoming event whose type is in the
    /// given set (a logical predicate); the opening event is the first event
    /// of the window.
    OnTypes(Vec<EventType>),
    /// A new window is opened every `slide` events (count-based slide).
    EveryCount(usize),
    /// A new window is opened every `slide` of stream time (time-based slide).
    EveryDuration(SimDuration),
}

/// When a window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowExtent {
    /// The window contains exactly this many events.
    Count(usize),
    /// The window contains all events within this duration of its opening
    /// event's timestamp.
    Time(SimDuration),
}

impl WindowExtent {
    /// Whether an event still falls into a window opened at `opened_at` that
    /// currently holds `assigned` events. `Copy`, so the operator can cache
    /// the extent once and test it on the hot path without borrowing (or
    /// cloning) the whole [`WindowSpec`].
    pub fn accepts(self, opened_at: Timestamp, assigned: usize, event: &Event) -> bool {
        match self {
            WindowExtent::Count(size) => assigned < size,
            WindowExtent::Time(dur) => event.timestamp() < opened_at + dur,
        }
    }
}

/// A complete window specification: open policy plus extent.
///
/// # Example
///
/// ```
/// use espice_cep::WindowSpec;
/// use espice_events::{EventType, SimDuration};
///
/// let count = WindowSpec::count_sliding(100, 10);
/// assert_eq!(count.expected_size(), Some(100));
///
/// let time = WindowSpec::time_on_types(vec![EventType::from_index(0)], SimDuration::from_secs(15));
/// assert_eq!(time.expected_size(), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    open: OpenPolicy,
    extent: WindowExtent,
}

impl WindowSpec {
    /// Creates a window specification from its parts.
    ///
    /// # Panics
    ///
    /// Panics if a count extent or count slide is zero, or if a type-opened
    /// window has an empty type set.
    pub fn new(open: OpenPolicy, extent: WindowExtent) -> Self {
        match &open {
            OpenPolicy::OnTypes(types) => {
                assert!(!types.is_empty(), "OnTypes open policy needs at least one type")
            }
            OpenPolicy::EveryCount(slide) => assert!(*slide >= 1, "count slide must be >= 1"),
            OpenPolicy::EveryDuration(d) => {
                assert!(!d.is_zero(), "time slide must be non-zero")
            }
        }
        if let WindowExtent::Count(size) = extent {
            assert!(size >= 1, "count window size must be >= 1");
        }
        WindowSpec { open, extent }
    }

    /// Count-based sliding window: `size` events, a new window every `slide`
    /// events.
    pub fn count_sliding(size: usize, slide: usize) -> Self {
        Self::new(OpenPolicy::EveryCount(slide), WindowExtent::Count(size))
    }

    /// Time-based sliding window: `size` of stream time, a new window every
    /// `slide` of stream time.
    pub fn time_sliding(size: SimDuration, slide: SimDuration) -> Self {
        Self::new(OpenPolicy::EveryDuration(slide), WindowExtent::Time(size))
    }

    /// Count-based window opened on every event of the given types (Q3).
    pub fn count_on_types(types: Vec<EventType>, size: usize) -> Self {
        Self::new(OpenPolicy::OnTypes(types), WindowExtent::Count(size))
    }

    /// Time-based window opened on every event of the given types (Q1, Q2).
    pub fn time_on_types(types: Vec<EventType>, size: SimDuration) -> Self {
        Self::new(OpenPolicy::OnTypes(types), WindowExtent::Time(size))
    }

    /// The open policy.
    pub fn open_policy(&self) -> &OpenPolicy {
        &self.open
    }

    /// The extent.
    pub fn extent(&self) -> WindowExtent {
        self.extent
    }

    /// The exact window size in events, if it is known statically
    /// (count-based extents). Time-based windows return `None`; their size is
    /// predicted at runtime (paper §3.6, *Handling Variable Window Size*).
    pub fn expected_size(&self) -> Option<usize> {
        match self.extent {
            WindowExtent::Count(size) => Some(size),
            WindowExtent::Time(_) => None,
        }
    }

    /// Whether an event of type `ty` opens a new window under this spec's
    /// `OnTypes` policy. Always false for slide-based policies (the operator
    /// tracks those itself).
    pub fn opens_on(&self, ty: EventType) -> bool {
        match &self.open {
            OpenPolicy::OnTypes(types) => types.contains(&ty),
            _ => false,
        }
    }

    /// Whether an event with timestamp `ts` still falls into a window opened
    /// at `opened_at` that currently holds `assigned` events.
    pub fn accepts(&self, opened_at: Timestamp, assigned: usize, event: &Event) -> bool {
        self.extent.accepts(opened_at, assigned, event)
    }
}

/// Metadata of a window instance, handed to [`WindowEventDecider`]s for every
/// shedding decision.
///
/// [`WindowEventDecider`]: crate::WindowEventDecider
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowMeta {
    /// The window's identifier (unique within one query's operator run; the
    /// pair `(query, id)` is unique across a whole multi-query engine).
    pub id: WindowId,
    /// The query this window belongs to (0 for a standalone operator).
    pub query: QueryId,
    /// Timestamp of the window's opening event.
    pub opened_at: Timestamp,
    /// Sequence number of the window's opening event.
    pub open_seq: SequenceNumber,
    /// Predicted total number of events in this window. Exact for count-based
    /// extents; a running average of recently closed windows for time-based
    /// extents (the paper's `N` / predicted window size).
    pub predicted_size: usize,
}

/// The mutable state behind a window [`OpenPolicy`]: decides, event by
/// event, whether a new window opens.
///
/// Extracted from the operator so a *fused* multi-query pass can share the
/// bookkeeping: open decisions depend only on the open policy and the
/// stream, never on a query's pattern or extent, so queries whose open
/// policies are equal can be served by a single tracker — one
/// `should_open` evaluation per event per distinct policy instead of one
/// per query. A standalone [`Operator`](crate::Operator) keeps its own
/// tracker.
#[derive(Debug, Clone)]
pub struct OpenTracker {
    policy: OpenPolicy,
    /// Events seen since the last count-slide window was opened.
    since_count_open: usize,
    /// Stream time of the last time-slide window opening.
    last_time_open: Option<Timestamp>,
}

impl OpenTracker {
    /// A fresh tracker for `policy`.
    pub fn new(policy: OpenPolicy) -> Self {
        OpenTracker { policy, since_count_open: 0, last_time_open: None }
    }

    /// The tracked open policy.
    pub fn policy(&self) -> &OpenPolicy {
        &self.policy
    }

    /// Whether a new window opens at `event`, advancing the slide state.
    /// Must be called exactly once per stream event, in stream order.
    pub fn should_open(&mut self, event: &Event) -> bool {
        match &self.policy {
            OpenPolicy::OnTypes(types) => types.contains(&event.event_type()),
            OpenPolicy::EveryCount(slide) => {
                let slide = *slide;
                let open = self.since_count_open == 0;
                self.since_count_open += 1;
                if self.since_count_open >= slide {
                    self.since_count_open = 0;
                }
                open
            }
            OpenPolicy::EveryDuration(slide) => {
                let slide = *slide;
                match self.last_time_open {
                    None => {
                        self.last_time_open = Some(event.timestamp());
                        true
                    }
                    Some(last) => {
                        if event.timestamp() >= last + slide {
                            self.last_time_open = Some(event.timestamp());
                            true
                        } else {
                            false
                        }
                    }
                }
            }
        }
    }

    /// Restarts the tracker as if no event had been seen.
    pub fn reset(&mut self) {
        self.since_count_open = 0;
        self.last_time_open = None;
    }
}

/// Running estimate of the window size for time-based (variable size) windows.
///
/// The paper profiles the operator and uses the *average seen window size* as
/// the model dimension `N`; at shedding time the incoming window's size must
/// be predicted because events are processed on arrival. This predictor keeps
/// an exponentially weighted moving average of closed-window sizes.
#[derive(Debug, Clone)]
pub struct SizePredictor {
    estimate: f64,
    alpha: f64,
    observations: u64,
}

impl SizePredictor {
    /// Creates a predictor with an initial estimate (used until the first
    /// window closes) and smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or the initial estimate is zero.
    pub fn new(initial_estimate: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(initial_estimate >= 1, "initial estimate must be >= 1");
        SizePredictor { estimate: initial_estimate as f64, alpha, observations: 0 }
    }

    /// Records the size of a closed window.
    pub fn observe(&mut self, size: usize) {
        if self.observations == 0 {
            self.estimate = size as f64;
        } else {
            self.estimate = self.alpha * size as f64 + (1.0 - self.alpha) * self.estimate;
        }
        self.observations += 1;
    }

    /// The current prediction (never below 1).
    pub fn predict(&self) -> usize {
        self.estimate.round().max(1.0) as usize
    }

    /// How many windows have been observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

impl Default for SizePredictor {
    fn default() -> Self {
        SizePredictor::new(100, 0.05)
    }
}

/// A window-size estimate shared by all shards of an engine.
///
/// With per-shard [`SizePredictor`]s each shard only observes the windows
/// it owns, so on time-based (variable size) windows `predicted_size` —
/// and with it eSPICE's position scaling — drifts between shard counts. A
/// shared estimator removes that drift: every shard feeds the same
/// accumulator and reads the same prediction.
///
/// The smoothing is a *running mean* over all closed windows (the
/// Robbins–Monro `αₙ = 1/n` special case of an EWMA) rather than a
/// fixed-α EWMA, deliberately: a sum-and-count pair is order-insensitive,
/// so the estimator converges to the same value for every thread
/// interleaving and every shard count — exactly the paper's "average seen
/// window size". A fixed-α EWMA over a racing observation order would make
/// the estimate depend on scheduling. Individual predictions taken *during*
/// a multi-threaded run can still differ between runs (they see whatever
/// subset of windows has closed so far); count-based windows never consult
/// the predictor, so their runs stay bit-identical.
///
/// The pair lives behind one mutex, so every reader sees a window's size
/// and its count together: two independent atomics let a concurrent read
/// fold a size into the mean without its count. The lock is taken once per
/// window open (time windows) or close, never per event.
#[derive(Debug)]
pub struct SharedSizePredictor {
    accumulator: Mutex<SizeAccumulator>,
}

/// The state behind a [`SharedSizePredictor`]'s lock.
#[derive(Debug, Clone, Copy)]
struct SizeAccumulator {
    /// Sum of all observed window sizes.
    sum: u64,
    /// Number of observed windows.
    count: u64,
    /// Estimate reported before the first window closes.
    initial: u64,
}

impl SharedSizePredictor {
    /// Creates a shared predictor with an initial estimate (used until the
    /// first window closes).
    ///
    /// # Panics
    ///
    /// Panics if the initial estimate is zero.
    pub fn new(initial_estimate: usize) -> Self {
        assert!(initial_estimate >= 1, "initial estimate must be >= 1");
        SharedSizePredictor {
            accumulator: Mutex::new(SizeAccumulator {
                sum: 0,
                count: 0,
                initial: initial_estimate as u64,
            }),
        }
    }

    /// The accumulator, locked. Every update computes its new values
    /// before it writes any, so a panic under the lock never leaves a
    /// half-applied observation and a poisoned lock still guards a
    /// consistent pair: poisoning is ignored rather than spread to every
    /// shard sharing the predictor.
    fn lock(&self) -> MutexGuard<'_, SizeAccumulator> {
        self.accumulator.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records the size of a closed window. Callable from any shard thread.
    pub fn observe(&self, size: usize) {
        let mut accumulator = self.lock();
        let (sum, count) = (accumulator.sum + size as u64, accumulator.count + 1);
        accumulator.sum = sum;
        #[cfg(test)]
        tests::mid_observe();
        accumulator.count = count;
    }

    /// The current prediction (never below 1): the mean closed-window size,
    /// or the initial estimate before any window has closed.
    pub fn predict(&self) -> usize {
        let SizeAccumulator { sum, count, initial } = *self.lock();
        if count == 0 {
            return initial.max(1) as usize;
        }
        ((sum as f64 / count as f64).round() as usize).max(1)
    }

    /// How many windows have been observed across all shards.
    pub fn observations(&self) -> u64 {
        self.lock().count
    }

    /// Discards all observations and restarts from `initial_estimate`
    /// (engine reset / re-seeding with a training hint). Idempotent, so
    /// every shard of a resetting engine may call it.
    ///
    /// # Panics
    ///
    /// Panics if the initial estimate is zero.
    pub fn reset_to(&self, initial_estimate: usize) {
        assert!(initial_estimate >= 1, "initial estimate must be >= 1");
        *self.lock() = SizeAccumulator { sum: 0, count: 0, initial: initial_estimate as u64 };
    }

    /// The raw `(sum, count)` accumulator pair, read as one consistent
    /// snapshot. Captured into replay checkpoints so chunk-replay recovery
    /// can rewind the estimator to the checkpoint instead of observing the
    /// replayed closes a second time.
    pub fn snapshot(&self) -> (u64, u64) {
        let accumulator = self.lock();
        (accumulator.sum, accumulator.count)
    }

    /// Overwrites the accumulator with a snapshot taken by
    /// [`snapshot`](Self::snapshot). Any observation recorded since the
    /// snapshot — including ones made concurrently by other shards — is
    /// discarded; the replay that follows re-records exactly the closes
    /// the restored shard re-derives, so the estimator converges back to
    /// the crashed incarnation's state instead of double-counting.
    pub fn restore(&self, sum: u64, count: u64) {
        let mut accumulator = self.lock();
        accumulator.sum = sum;
        accumulator.count = count;
    }
}

/// How a [`ShardedEngine`](crate::ShardedEngine) assigns a newly opened
/// window to a shard.
///
/// Every shard scans the full stream and advances the same per-slot global
/// window-id counter, so ownership is a pure routing question: *which shard
/// materialises (buffers, sheds, matches) this window*. Any single-owner
/// partition of the id space yields byte-identical merged output — windows
/// are processed independently and the engine merges per query in window-id
/// order — which is what makes the policy pluggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OwnershipPolicy {
    /// The static partition `id % shard_count`: zero bookkeeping, perfectly
    /// even for homogeneous windows, and the oracle every dynamic policy is
    /// pinned against. This is the default.
    #[default]
    StaticModulo,
    /// Steal-at-open rebalancing: each opening window is routed to the
    /// shard with the least *outstanding projected work*, tracked by a
    /// [`WindowBalancer`] that every shard advances in lockstep. A skewed
    /// workload (one hot opener type, heterogeneous window sizes) no longer
    /// pins its heavy windows to one shard.
    StealAtOpen,
}

/// One live entry of the [`WindowBalancer`] load table: a window assigned
/// to `owner` that is projected to stop consuming events at `expire_pos`
/// (count extents: open position + size; time extents: open position +
/// predicted size) or at stream time `close_ts` (time extents only),
/// whichever the stream reaches first.
#[derive(Debug, Clone)]
struct BalancerEntry {
    owner: usize,
    expire_pos: u64,
    close_ts: Option<Timestamp>,
}

/// The deterministic lockstep load balancer behind
/// [`OwnershipPolicy::StealAtOpen`].
///
/// Every shard owns a private clone and feeds it the *same* inputs in the
/// *same* order — the stream position, timestamp and per-slot size hint of
/// every window-open event, which are pure functions of the shared stream —
/// so all clones compute identical assignments without exchanging a single
/// message. See `Shard::set_ownership_policy` for how this relates to the
/// measured `QueueSample` load signals.
///
/// The consult happens **only at window opens** (zero per-event cost): the
/// balancer lazily retires entries the stream has passed, sums each shard's
/// remaining projected spans, and assigns the new window to the least
/// loaded shard. Ties — the common case when all hints are equal — are
/// broken by a position-seeded hash rotation rather than round-robin, so a
/// workload whose heavy windows recur with a period aligned to the shard
/// count cannot re-create the static partition's pinning by accident.
#[derive(Debug, Clone)]
pub struct WindowBalancer {
    count: usize,
    entries: Vec<BalancerEntry>,
    /// Scratch: projected outstanding events per shard, rebuilt per consult.
    load: Vec<u64>,
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of the open position used
/// to rotate the argmin scan start. Any fixed scan order would favour low
/// shard indices on ties; a position-derived rotation spreads tied
/// assignments uniformly while staying a pure function of the stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl WindowBalancer {
    /// A fresh balancer for `count` shards.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count >= 1, "balancer needs at least one shard");
        WindowBalancer { count, entries: Vec::new(), load: vec![0; count] }
    }

    /// Routes the window opening at stream position `position` (timestamp
    /// `timestamp`, projected size `hint` events, time extents closing at
    /// `close_ts`) to the least-loaded shard and records the assignment.
    /// Must be called for **every** window the stream opens, in stream
    /// order, with identical arguments on every shard.
    pub fn assign(
        &mut self,
        position: u64,
        timestamp: Timestamp,
        hint: usize,
        close_ts: Option<Timestamp>,
    ) -> usize {
        // Lazily retire entries the stream has passed: their windows have
        // closed (or stopped accepting events), so they no longer describe
        // outstanding work.
        self.entries.retain(|entry| {
            entry.expire_pos > position && entry.close_ts.is_none_or(|close| timestamp < close)
        });
        // Projected outstanding events per shard: the sum of each live
        // entry's remaining span.
        self.load.iter_mut().for_each(|l| *l = 0);
        for entry in &self.entries {
            self.load[entry.owner] += entry.expire_pos - position;
        }
        // Argmin with a position-hashed scan start; the first strict
        // minimum in rotated order wins.
        let start = (splitmix64(position) % self.count as u64) as usize;
        let mut owner = start;
        let mut best = self.load[start];
        for offset in 1..self.count {
            let shard = (start + offset) % self.count;
            if self.load[shard] < best {
                best = self.load[shard];
                owner = shard;
            }
        }
        let expire_pos = position + (hint.max(1) as u64);
        self.entries.push(BalancerEntry { owner, expire_pos, close_ts });
        owner
    }

    /// Number of shards the balancer routes across.
    pub fn shard_count(&self) -> usize {
        self.count
    }

    /// Number of windows currently tracked as outstanding work.
    pub fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// Forgets all tracked windows (engine reset).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn ev(t: u32, ts_secs: u64, seq: u64) -> Event {
        Event::new(ty(t), Timestamp::from_secs(ts_secs), seq)
    }

    #[test]
    fn count_sliding_has_static_size() {
        let spec = WindowSpec::count_sliding(300, 100);
        assert_eq!(spec.expected_size(), Some(300));
        assert_eq!(spec.extent(), WindowExtent::Count(300));
        assert!(matches!(spec.open_policy(), OpenPolicy::EveryCount(100)));
    }

    #[test]
    fn time_on_types_opens_only_on_listed_types() {
        let spec = WindowSpec::time_on_types(vec![ty(1), ty(2)], SimDuration::from_secs(15));
        assert!(spec.opens_on(ty(1)));
        assert!(spec.opens_on(ty(2)));
        assert!(!spec.opens_on(ty(3)));
        assert_eq!(spec.expected_size(), None);
    }

    #[test]
    fn slide_policies_never_open_on_type() {
        let spec = WindowSpec::count_sliding(10, 5);
        assert!(!spec.opens_on(ty(0)));
    }

    #[test]
    fn count_extent_accepts_until_full() {
        let spec = WindowSpec::count_sliding(3, 1);
        let opened = Timestamp::ZERO;
        assert!(spec.accepts(opened, 0, &ev(0, 100, 0)));
        assert!(spec.accepts(opened, 2, &ev(0, 100, 0)));
        assert!(!spec.accepts(opened, 3, &ev(0, 100, 0)));
    }

    #[test]
    fn time_extent_accepts_within_duration() {
        let spec = WindowSpec::time_on_types(vec![ty(0)], SimDuration::from_secs(10));
        let opened = Timestamp::from_secs(100);
        assert!(spec.accepts(opened, 999, &ev(0, 105, 0)));
        assert!(!spec.accepts(opened, 0, &ev(0, 110, 0)));
        assert!(!spec.accepts(opened, 0, &ev(0, 200, 0)));
    }

    #[test]
    #[should_panic(expected = "at least one type")]
    fn on_types_rejects_empty_set() {
        let _ = WindowSpec::count_on_types(Vec::new(), 10);
    }

    #[test]
    #[should_panic(expected = "size must be >= 1")]
    fn count_extent_rejects_zero_size() {
        let _ = WindowSpec::count_sliding(0, 1);
    }

    #[test]
    #[should_panic(expected = "slide must be >= 1")]
    fn count_slide_rejects_zero() {
        let _ = WindowSpec::count_sliding(10, 0);
    }

    #[test]
    fn size_predictor_converges_to_observed_sizes() {
        let mut p = SizePredictor::new(500, 0.5);
        assert_eq!(p.predict(), 500);
        p.observe(100);
        // First observation replaces the initial estimate entirely.
        assert_eq!(p.predict(), 100);
        p.observe(200);
        assert_eq!(p.predict(), 150);
        assert_eq!(p.observations(), 2);
    }

    #[test]
    fn size_predictor_never_predicts_zero() {
        let mut p = SizePredictor::new(1, 1.0);
        p.observe(0);
        assert_eq!(p.predict(), 1);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn size_predictor_rejects_bad_alpha() {
        let _ = SizePredictor::new(10, 0.0);
    }

    #[test]
    fn shared_predictor_reports_the_mean_of_all_observations() {
        let shared = SharedSizePredictor::new(500);
        assert_eq!(shared.predict(), 500);
        shared.observe(100);
        shared.observe(200);
        shared.observe(300);
        assert_eq!(shared.predict(), 200);
        assert_eq!(shared.observations(), 3);
    }

    #[test]
    fn shared_predictor_is_order_insensitive() {
        let a = SharedSizePredictor::new(10);
        let b = SharedSizePredictor::new(10);
        for size in [5usize, 50, 17, 3] {
            a.observe(size);
        }
        for size in [3usize, 17, 50, 5] {
            b.observe(size);
        }
        assert_eq!(a.predict(), b.predict());
    }

    #[test]
    fn shared_predictor_reset_restarts_from_hint() {
        let shared = SharedSizePredictor::new(10);
        shared.observe(1000);
        shared.reset_to(42);
        assert_eq!(shared.predict(), 42);
        assert_eq!(shared.observations(), 0);
        shared.observe(0);
        assert_eq!(shared.predict(), 1, "prediction never drops below 1");
    }

    #[test]
    fn shared_predictor_sums_across_threads() {
        let shared = SharedSizePredictor::new(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        shared.observe(8);
                    }
                });
            }
        });
        assert_eq!(shared.observations(), 400);
        assert_eq!(shared.predict(), 8);
    }

    thread_local! {
        /// Test-only hook run by `SharedSizePredictor::observe` on the
        /// observing thread between its `sum` and `count` updates.
        static MID_OBSERVE: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn mid_observe() {
        MID_OBSERVE.with(|hook| {
            if let Some(hook) = hook.borrow_mut().as_mut() {
                hook();
            }
        });
    }

    #[test]
    fn a_concurrent_read_never_sees_an_observation_half_applied() {
        // Park an observing thread between its two writes, then read from a
        // third thread. Two independent counters let that read fold the
        // size into the mean without its count — (7, 0), a mean of 7 over
        // zero windows; one consistent pair makes the read wait for the
        // whole observation.
        use std::sync::{mpsc, Arc, Barrier};
        let shared = Arc::new(SharedSizePredictor::new(1));
        let parked = Arc::new(Barrier::new(2));
        let resume = Arc::new(Barrier::new(2));
        let writer = {
            let (shared, parked, resume) =
                (Arc::clone(&shared), Arc::clone(&parked), Arc::clone(&resume));
            std::thread::spawn(move || {
                MID_OBSERVE.with(|hook| {
                    *hook.borrow_mut() = Some(Box::new(move || {
                        parked.wait();
                        resume.wait();
                    }));
                });
                shared.observe(7);
                MID_OBSERVE.with(|hook| hook.borrow_mut().take());
            })
        };
        parked.wait();
        let (sender, receiver) = mpsc::channel();
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let read = (shared.snapshot(), shared.predict());
                sender.send(read).expect("test thread is listening");
            })
        };
        // A torn read would arrive while the writer is still parked; give
        // it ample time to, then let the writer finish.
        let early = receiver.recv_timeout(std::time::Duration::from_millis(200)).ok();
        resume.wait();
        let read = early.unwrap_or_else(|| receiver.recv().expect("reader panicked"));
        writer.join().expect("writer panicked");
        reader.join().expect("reader panicked");
        assert_eq!(read, ((7, 1), 7), "a read saw the size without its count");
    }

    #[test]
    #[should_panic(expected = "initial estimate")]
    fn shared_predictor_rejects_zero_initial() {
        let _ = SharedSizePredictor::new(0);
    }

    #[test]
    fn shared_predictor_snapshot_restore_round_trips() {
        let shared = SharedSizePredictor::new(10);
        shared.observe(30);
        shared.observe(50);
        let (sum, count) = shared.snapshot();
        assert_eq!((sum, count), (80, 2));
        shared.observe(1000);
        shared.restore(sum, count);
        assert_eq!(shared.predict(), 40);
        assert_eq!(shared.observations(), 2);
    }

    #[test]
    fn balancer_clones_stay_in_lockstep() {
        let mut a = WindowBalancer::new(4);
        let mut b = a.clone();
        for k in 0..200u64 {
            let position = k * 37 % 10_000;
            let ts = Timestamp::from_secs(k);
            let hint = 50 + (k % 7) as usize * 100;
            let close = (k % 2 == 0).then(|| ts + SimDuration::from_secs(80));
            assert_eq!(
                a.assign(position, ts, hint, close),
                b.assign(position, ts, hint, close),
                "clones diverged at window {k}"
            );
        }
    }

    #[test]
    fn balancer_spreads_equal_hint_windows_across_all_shards() {
        // All-tie loads fall back to the position-hashed rotation: every
        // shard must receive a fair share, and in particular a periodic
        // opener (positions k*P) must not re-create the modulo pinning.
        let mut balancer = WindowBalancer::new(4);
        let mut counts = [0usize; 4];
        for k in 0..400u64 {
            let owner = balancer.assign(k * 601, Timestamp::from_secs(k * 100), 100, None);
            counts[owner] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                (50..=150).contains(count),
                "shard {shard} owns {count} of 400 equal windows — not spread"
            );
        }
    }

    #[test]
    fn balancer_routes_away_from_the_loaded_shard() {
        let mut balancer = WindowBalancer::new(2);
        // A huge outstanding window lands somewhere...
        let heavy = balancer.assign(0, Timestamp::from_secs(0), 1_000_000, None);
        // ...so the next opens, while it is still outstanding, must all go
        // to the other shard.
        for k in 1..10u64 {
            let owner = balancer.assign(k, Timestamp::from_secs(k), 10, None);
            assert_eq!(owner, 1 - heavy, "open {k} routed onto the loaded shard");
        }
    }

    #[test]
    fn balancer_retires_entries_by_position_and_time() {
        let mut balancer = WindowBalancer::new(2);
        let _ = balancer.assign(0, Timestamp::from_secs(0), 10, None);
        let _ = balancer.assign(1, Timestamp::from_secs(1), 100, Some(Timestamp::from_secs(5)));
        assert_eq!(balancer.live_entries(), 2);
        // Position 20 is past the first entry's expiry; t=50 is past the
        // second's close timestamp.
        let _ = balancer.assign(20, Timestamp::from_secs(50), 10, None);
        assert_eq!(balancer.live_entries(), 1, "both stale entries must retire");
        balancer.reset();
        assert_eq!(balancer.live_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn balancer_rejects_zero_shards() {
        let _ = WindowBalancer::new(0);
    }
}
