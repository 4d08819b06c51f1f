//! The seed per-window storage engine, kept verbatim as a test oracle.
//!
//! [`ReferenceOperator`] is the pre-ring implementation of [`Operator`]: it
//! clones a [`WindowEntry`] into every open window an event is kept in, pays
//! O(overlap) storage work per event and rebuilds the open-window deque on
//! every push. It exists so that
//!
//! * property tests can pin the ring-backed operator's complex events and
//!   statistics against an independent implementation, and
//! * the `window_overlap` bench can measure the ring's win over the seed
//!   storage on identical workloads (including peak resident entries).
//!
//! Beyond the seed it mirrors one later mechanism, pSPICE's partial-match
//! store: a window whose decider returns a
//! [`partial_match_budget`](WindowEventDecider::partial_match_budget) feeds
//! its kept events through the same store and removes the entries the
//! store retro-drops, so shedding by partial match can be pinned too.
//! Matching stays the per-window scan of [`Matcher`], independent of the
//! operator's occurrence index.
//!
//! It is `#[doc(hidden)]`: not part of the supported API, only an oracle.
//! Keep its decider call sequence byte-identical to [`Operator`]'s —
//! stateful deciders (eSPICE's boundary thinning) must observe the same
//! sequence of `decide_batch` / `window_closed` calls in both engines for
//! the identity properties to be meaningful.
//!
//! [`Operator`]: crate::Operator

use crate::partial::PartialStore;
use crate::window::SizePredictor;
use crate::{
    BatchRequest, ComplexEvent, DropSet, Matcher, OpenPolicy, OperatorStats, Query, WindowEntry,
    WindowEventDecider, WindowId, WindowMeta, WindowSpec,
};
use espice_events::{Event, EventStream, Timestamp};
use std::collections::VecDeque;

/// State of one open window in the per-window storage scheme.
#[derive(Debug)]
struct RefWindow {
    meta: WindowMeta,
    entries: Vec<WindowEntry>,
    assigned: usize,
    /// pSPICE store (windows whose decider returned a budget) and the
    /// positions it retro-dropped.
    partial: Option<(PartialStore, DropSet)>,
}

/// The seed engine: per-window `Vec<WindowEntry>` storage. See the module
/// docs; this is a test oracle, not a supported API.
#[derive(Debug)]
pub struct ReferenceOperator {
    query: Query,
    matcher: Matcher,
    open: VecDeque<RefWindow>,
    next_window_id: WindowId,
    shard_index: u64,
    shard_count: u64,
    since_count_open: usize,
    last_time_open: Option<Timestamp>,
    size_predictor: SizePredictor,
    stats: OperatorStats,
    resident: usize,
    peak_resident: usize,
    batch_requests: Vec<BatchRequest>,
    batch_decisions: Vec<crate::Decision>,
}

impl ReferenceOperator {
    /// Creates an unsharded reference operator for `query`.
    pub fn new(query: Query) -> Self {
        Self::sharded(query, 0, 1)
    }

    /// Creates shard `shard_index` of `shard_count` (same geometry rules as
    /// [`Operator::sharded`](crate::Operator::sharded)).
    pub fn sharded(query: Query, shard_index: usize, shard_count: usize) -> Self {
        assert!(shard_count >= 1, "shard count must be at least 1");
        assert!(shard_index < shard_count, "shard index {shard_index} out of {shard_count}");
        let matcher = Matcher::from_query(&query);
        let initial_size = query.window().expected_size().unwrap_or(100);
        ReferenceOperator {
            matcher,
            open: VecDeque::new(),
            next_window_id: 0,
            shard_index: shard_index as u64,
            shard_count: shard_count as u64,
            since_count_open: 0,
            last_time_open: None,
            size_predictor: SizePredictor::new(initial_size.max(1), 0.25),
            stats: OperatorStats::default(),
            resident: 0,
            peak_resident: 0,
            batch_requests: Vec::new(),
            batch_decisions: Vec::new(),
            query,
        }
    }

    /// Counters for the current run.
    pub fn stats(&self) -> &OperatorStats {
        &self.stats
    }

    /// Entries currently stored across all open windows (each event counted
    /// once *per window* that kept it).
    pub fn resident_entries(&self) -> usize {
        self.resident
    }

    /// The largest `resident_entries` value seen during this run.
    pub fn peak_resident_entries(&self) -> usize {
        self.peak_resident
    }

    /// Seeds the window-size prediction, mirroring
    /// [`Operator::set_window_size_hint`](crate::Operator::set_window_size_hint).
    pub fn set_window_size_hint(&mut self, hint: usize) {
        self.size_predictor = SizePredictor::new(hint.max(1), 0.25);
    }

    fn predicted_window_size(&self) -> usize {
        match self.query.window().expected_size() {
            Some(size) => size,
            None => self.size_predictor.predict(),
        }
    }

    /// One event through the seed push path: deque rebuild, per-window entry
    /// clones, `remove(idx)` for filled windows.
    pub fn push<D: WindowEventDecider + ?Sized>(
        &mut self,
        event: &Event,
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        self.stats.events_processed += 1;
        let mut emitted = Vec::new();

        let spec = self.query.window().clone();
        let mut still_open = VecDeque::with_capacity(self.open.len());
        while let Some(window) = self.open.pop_front() {
            if spec.accepts(window.meta.opened_at, window.assigned, event) {
                still_open.push_back(window);
            } else {
                emitted.extend(self.close_window(window, decider));
            }
        }
        self.open = still_open;

        if self.should_open(&spec, event) {
            let id = self.next_window_id;
            self.next_window_id += 1;
            if id % self.shard_count == self.shard_index {
                let meta = WindowMeta {
                    id,
                    query: 0,
                    opened_at: event.timestamp(),
                    open_seq: event.seq(),
                    predicted_size: self.predicted_window_size(),
                };
                self.stats.windows_opened += 1;
                let partial = decider
                    .partial_match_budget(&meta)
                    .map(|b| (PartialStore::new(b), DropSet::new()));
                self.open.push_back(RefWindow { meta, entries: Vec::new(), assigned: 0, partial });
            }
        }

        let mut filled = Vec::new();
        if !self.open.is_empty() {
            self.batch_requests.clear();
            for window in self.open.iter_mut() {
                let position = window.assigned;
                window.assigned += 1;
                self.batch_requests.push(BatchRequest { meta: window.meta, position });
            }
            self.stats.assignments += self.batch_requests.len() as u64;
            decider.decide_batch(event, &self.batch_requests, &mut self.batch_decisions);
            assert_eq!(
                self.batch_decisions.len(),
                self.batch_requests.len(),
                "decide_batch must produce exactly one decision per request"
            );
            for (idx, window) in self.open.iter_mut().enumerate() {
                let position = self.batch_requests[idx].position;
                if self.batch_decisions[idx].is_keep() {
                    self.stats.kept += 1;
                    window.entries.push(WindowEntry { position, event: event.clone() });
                    self.resident += 1;
                    if let Some((store, retro)) = window.partial.as_mut() {
                        let utility = decider.constituent_utility(&window.meta, position, event);
                        let demoted =
                            store.feed(self.query.pattern(), position, event, utility, retro);
                        if demoted > 0 {
                            window.entries.retain(|entry| !retro.contains(entry.position));
                            self.resident -= demoted;
                            self.stats.kept -= demoted as u64;
                            self.stats.dropped += demoted as u64;
                        }
                    }
                } else {
                    self.stats.dropped += 1;
                }
                if !spec.accepts(window.meta.opened_at, window.assigned, event) {
                    filled.push(idx);
                }
            }
            self.peak_resident = self.peak_resident.max(self.resident);
        }

        for idx in filled.into_iter().rev() {
            let window = self.open.remove(idx).expect("filled window index is valid");
            emitted.extend(self.close_window(window, decider));
        }

        emitted
    }

    /// Closes all remaining open windows.
    pub fn flush<D: WindowEventDecider + ?Sized>(&mut self, decider: &mut D) -> Vec<ComplexEvent> {
        let mut emitted = Vec::new();
        while let Some(window) = self.open.pop_front() {
            emitted.extend(self.close_window(window, decider));
        }
        emitted
    }

    /// Runs a whole stream and flushes.
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

    fn should_open(&mut self, spec: &WindowSpec, event: &Event) -> bool {
        match spec.open_policy() {
            OpenPolicy::OnTypes(_) => spec.opens_on(event.event_type()),
            OpenPolicy::EveryCount(slide) => {
                let open = self.since_count_open == 0;
                self.since_count_open += 1;
                if self.since_count_open >= *slide {
                    self.since_count_open = 0;
                }
                open
            }
            OpenPolicy::EveryDuration(slide) => match self.last_time_open {
                None => {
                    self.last_time_open = Some(event.timestamp());
                    true
                }
                Some(last) => {
                    if event.timestamp() >= last + *slide {
                        self.last_time_open = Some(event.timestamp());
                        true
                    } else {
                        false
                    }
                }
            },
        }
    }

    fn close_window<D: WindowEventDecider + ?Sized>(
        &mut self,
        window: RefWindow,
        decider: &mut D,
    ) -> Vec<ComplexEvent> {
        self.stats.windows_closed += 1;
        self.size_predictor.observe(window.assigned);
        decider.window_closed(&window.meta, window.assigned);
        self.resident -= window.entries.len();
        let outcome = self.matcher.matches(window.meta.id, &window.entries);
        self.stats.complex_events += outcome.complex_events.len() as u64;
        outcome.complex_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeepAll, Pattern, WindowSpec};
    use espice_events::{EventType, VecStream};

    #[test]
    fn reference_operator_reproduces_seed_behaviour() {
        let a = EventType::from_index(0);
        let b = EventType::from_index(1);
        let query = Query::builder()
            .pattern(Pattern::sequence([a, b]))
            .window(WindowSpec::count_sliding(4, 2))
            .build();
        let events: Vec<Event> = (0..12)
            .map(|i| Event::new(if i % 2 == 0 { a } else { b }, Timestamp::from_secs(i), i))
            .collect();
        let mut reference = ReferenceOperator::new(query);
        let out = reference.run(&VecStream::from_ordered(events), &mut KeepAll);
        assert!(!out.is_empty());
        // Overlap 2: every kept event is stored twice at the peak.
        assert!(reference.peak_resident_entries() > 4);
        assert_eq!(reference.resident_entries(), 0);
    }
}
