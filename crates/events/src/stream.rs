//! In-memory event streams.
//!
//! The experiments replay stored (synthetic) datasets "from stored files to
//! the system with an event input rate" (§4.2 of the paper). This module
//! provides the pieces for that: a materialised [`VecStream`], a
//! rate-controlled [`RateReplay`] adaptor that rewrites timestamps so the
//! stream arrives at a chosen events/second rate, stream merging, and
//! [`StreamStats`] summaries used by the dataset generators and tests.

use crate::{Event, SimDuration, Timestamp};
use std::collections::HashMap;

/// A source of primitive events in global order.
///
/// The trait is deliberately minimal — downstream code mostly needs "give me
/// the events, in order" — and is object-safe so heterogeneous sources can be
/// boxed.
pub trait EventStream {
    /// Returns the events of this stream in global order.
    fn events(&self) -> &[Event];

    /// Number of events in the stream.
    fn len(&self) -> usize {
        self.events().len()
    }

    /// Whether the stream contains no events.
    fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Timestamp of the first event, if any.
    fn start_time(&self) -> Option<Timestamp> {
        self.events().first().map(Event::timestamp)
    }

    /// Timestamp of the last event, if any.
    fn end_time(&self) -> Option<Timestamp> {
        self.events().last().map(Event::timestamp)
    }

    /// Summary statistics over the stream.
    fn stats(&self) -> StreamStats {
        StreamStats::from_events(self.events())
    }
}

/// A materialised, totally ordered event stream.
///
/// # Example
///
/// ```
/// use espice_events::{Event, EventType, Timestamp, VecStream, EventStream};
///
/// let events = vec![
///     Event::new(EventType::from_index(0), Timestamp::from_secs(2), 2),
///     Event::new(EventType::from_index(0), Timestamp::from_secs(1), 1),
/// ];
/// let stream = VecStream::from_unordered(events);
/// assert_eq!(stream.events()[0].seq(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct VecStream {
    events: Vec<Event>,
}

impl VecStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stream from events that are already in global order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the events are not sorted by
    /// `(timestamp, seq)`.
    pub fn from_ordered(events: Vec<Event>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0] <= w[1]),
            "events passed to from_ordered must already be sorted"
        );
        VecStream { events }
    }

    /// Creates a stream from possibly unordered events, sorting them into
    /// global order.
    pub fn from_unordered(mut events: Vec<Event>) -> Self {
        events.sort();
        VecStream { events }
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the event would break the global order.
    pub fn push(&mut self, event: Event) {
        debug_assert!(
            self.events.last().is_none_or(|last| *last <= event),
            "pushed event breaks stream order"
        );
        self.events.push(event);
    }

    /// Merges several ordered streams into one, re-assigning sequence numbers
    /// so the result has a dense global order.
    pub fn merge<I>(streams: I) -> VecStream
    where
        I: IntoIterator<Item = VecStream>,
    {
        let mut all: Vec<Event> = streams.into_iter().flat_map(|s| s.events).collect();
        all.sort();
        let renumbered = all.into_iter().enumerate().map(|(i, e)| e.with_seq(i as u64)).collect();
        VecStream { events: renumbered }
    }

    /// Consumes the stream and returns the underlying vector.
    pub fn into_inner(self) -> Vec<Event> {
        self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Returns a sub-stream containing the events in `[from, to)` index range.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, from: usize, to: usize) -> VecStream {
        VecStream { events: self.events[from..to].to_vec() }
    }
}

impl EventStream for VecStream {
    fn events(&self) -> &[Event] {
        &self.events
    }
}

impl FromIterator<Event> for VecStream {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        VecStream::from_unordered(iter.into_iter().collect())
    }
}

impl Extend<Event> for VecStream {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
        self.events.sort();
    }
}

impl IntoIterator for VecStream {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a VecStream {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Replays a stream at a fixed input rate by rewriting arrival timestamps.
///
/// The paper drives each experiment by streaming a stored dataset into the
/// operator at a controlled rate (at/below throughput during model building,
/// 20 % / 40 % above throughput during overload). `RateReplay` models exactly
/// that: event *content* (including the original timestamps used by
/// time-based windows) is preserved, while a separate *arrival* timestamp is
/// produced for the queueing simulation.
///
/// # Example
///
/// ```
/// use espice_events::{Event, EventType, Timestamp, VecStream, RateReplay};
///
/// let stream = VecStream::from_ordered(vec![
///     Event::new(EventType::from_index(0), Timestamp::from_secs(0), 0),
///     Event::new(EventType::from_index(0), Timestamp::from_secs(60), 1),
/// ]);
/// // Replay at 10 events/second: arrivals are 100 ms apart regardless of the
/// // original one-minute spacing.
/// let arrivals: Vec<_> = RateReplay::new(&stream, 10.0).collect();
/// assert_eq!(arrivals[1].0.as_millis(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct RateReplay<'a> {
    events: &'a [Event],
    interarrival: SimDuration,
    next_index: usize,
    next_arrival: Timestamp,
}

impl<'a> RateReplay<'a> {
    /// Creates a replay of `stream` at `rate` events per second, starting at
    /// simulated time zero.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new<S: EventStream + ?Sized>(stream: &'a S, rate: f64) -> Self {
        Self::starting_at(stream, rate, Timestamp::ZERO)
    }

    /// Creates a replay starting at an arbitrary simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn starting_at<S: EventStream + ?Sized>(
        stream: &'a S,
        rate: f64,
        start: Timestamp,
    ) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "replay rate must be positive");
        RateReplay {
            events: stream.events(),
            interarrival: SimDuration::from_secs_f64(1.0 / rate),
            next_index: 0,
            next_arrival: start,
        }
    }

    /// The fixed inter-arrival gap used by this replay.
    pub fn interarrival(&self) -> SimDuration {
        self.interarrival
    }
}

impl Iterator for RateReplay<'_> {
    /// Pairs of (arrival time, event).
    type Item = (Timestamp, Event);

    fn next(&mut self) -> Option<Self::Item> {
        let event = self.events.get(self.next_index)?.clone();
        let arrival = self.next_arrival;
        self.next_index += 1;
        self.next_arrival += self.interarrival;
        Some((arrival, event))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.events.len() - self.next_index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RateReplay<'_> {}

/// Summary statistics of an event stream.
///
/// Used by the dataset generators to sanity check generated data and by the
/// experiment driver to report workload characteristics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StreamStats {
    /// Total number of events.
    pub count: usize,
    /// Number of distinct event types observed.
    pub distinct_types: usize,
    /// Events per type (keyed by the dense type index).
    pub per_type_counts: HashMap<u32, usize>,
    /// Stream duration in simulated seconds (0 for empty / single-event streams).
    pub duration_secs: f64,
    /// Mean event rate in events per second (0 if duration is 0).
    pub mean_rate: f64,
}

impl StreamStats {
    /// Computes statistics over a slice of ordered events.
    pub fn from_events(events: &[Event]) -> Self {
        let mut per_type_counts: HashMap<u32, usize> = HashMap::new();
        for e in events {
            *per_type_counts.entry(e.event_type().as_u32()).or_insert(0) += 1;
        }
        let duration_secs = match (events.first(), events.last()) {
            (Some(first), Some(last)) => {
                last.timestamp().saturating_since(first.timestamp()).as_secs_f64()
            }
            _ => 0.0,
        };
        let mean_rate = if duration_secs > 0.0 { events.len() as f64 / duration_secs } else { 0.0 };
        StreamStats {
            count: events.len(),
            distinct_types: per_type_counts.len(),
            per_type_counts,
            duration_secs,
            mean_rate,
        }
    }

    /// The relative frequency of a type within the stream, in `[0, 1]`.
    pub fn type_frequency(&self, type_index: u32) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        *self.per_type_counts.get(&type_index).unwrap_or(&0) as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventType;

    fn ev(ty: u32, ts_ms: u64, seq: u64) -> Event {
        Event::new(EventType::from_index(ty), Timestamp::from_millis(ts_ms), seq)
    }

    #[test]
    fn from_unordered_sorts_events() {
        let s = VecStream::from_unordered(vec![ev(0, 30, 3), ev(0, 10, 1), ev(0, 20, 2)]);
        let seqs: Vec<_> = s.iter().map(Event::seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn merge_renumbers_globally() {
        let a = VecStream::from_ordered(vec![ev(0, 10, 0), ev(0, 30, 1)]);
        let b = VecStream::from_ordered(vec![ev(1, 20, 0), ev(1, 40, 1)]);
        let merged = VecStream::merge(vec![a, b]);
        let seqs: Vec<_> = merged.iter().map(Event::seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let types: Vec<_> = merged.iter().map(|e| e.event_type().index()).collect();
        assert_eq!(types, vec![0, 1, 0, 1]);
    }

    #[test]
    fn stream_time_bounds() {
        let s = VecStream::from_ordered(vec![ev(0, 100, 0), ev(0, 500, 1)]);
        assert_eq!(s.start_time(), Some(Timestamp::from_millis(100)));
        assert_eq!(s.end_time(), Some(Timestamp::from_millis(500)));
        assert_eq!(VecStream::new().start_time(), None);
    }

    #[test]
    fn slice_returns_subrange() {
        let s = VecStream::from_ordered(vec![ev(0, 1, 0), ev(0, 2, 1), ev(0, 3, 2)]);
        let sub = s.slice(1, 3);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.events()[0].seq(), 1);
    }

    #[test]
    fn rate_replay_spaces_arrivals_evenly() {
        let s = VecStream::from_ordered(vec![ev(0, 0, 0), ev(0, 60_000, 1), ev(0, 120_000, 2)]);
        let arrivals: Vec<_> = RateReplay::new(&s, 100.0).map(|(t, _)| t.as_millis()).collect();
        assert_eq!(arrivals, vec![0, 10, 20]);
    }

    #[test]
    fn rate_replay_preserves_event_content() {
        let s = VecStream::from_ordered(vec![ev(3, 0, 0), ev(4, 60_000, 1)]);
        let events: Vec<_> = RateReplay::new(&s, 1.0).map(|(_, e)| e).collect();
        assert_eq!(events[0].event_type().index(), 3);
        assert_eq!(events[1].timestamp().as_millis(), 60_000);
    }

    #[test]
    fn rate_replay_is_exact_size() {
        let s = VecStream::from_ordered(vec![ev(0, 0, 0), ev(0, 1, 1)]);
        let replay = RateReplay::new(&s, 10.0);
        assert_eq!(replay.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rate_replay_rejects_zero_rate() {
        let s = VecStream::new();
        let _ = RateReplay::new(&s, 0.0);
    }

    #[test]
    fn stats_count_types_and_rate() {
        let s = VecStream::from_ordered(vec![ev(0, 0, 0), ev(1, 500, 1), ev(0, 1_000, 2)]);
        let stats = s.stats();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.distinct_types, 2);
        assert!((stats.duration_secs - 1.0).abs() < 1e-9);
        assert!((stats.mean_rate - 3.0).abs() < 1e-9);
        assert!((stats.type_frequency(0) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.type_frequency(9), 0.0);
    }

    #[test]
    fn stats_of_empty_stream_are_zero() {
        let stats = VecStream::new().stats();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.mean_rate, 0.0);
        assert_eq!(stats.type_frequency(0), 0.0);
    }

    #[test]
    fn collect_and_extend() {
        let mut s: VecStream = vec![ev(0, 20, 1), ev(0, 10, 0)].into_iter().collect();
        assert_eq!(s.events()[0].seq(), 0);
        s.extend(vec![ev(0, 5, 2)]);
        assert_eq!(s.events()[0].seq(), 2);
        assert_eq!(s.len(), 3);
    }
}
