//! The primitive event.

use crate::{AttributeValue, Attributes, EventType, Timestamp};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Global sequence number of an event within its input stream.
///
/// The paper assumes a total order over the input stream ("events in the
/// input event streams have global order, e.g., by using the sequence number
/// or the timestamp and a tie-breaker"); the sequence number provides that
/// order and doubles as a stable identity when comparing detected complex
/// events against ground truth.
pub type SequenceNumber = u64;

/// A primitive event: meta-data (type, sequence number, timestamp) plus
/// attribute/value pairs.
///
/// Events are cheap to clone: the attribute payload is stored behind an
/// [`Arc`], because the same event is shared by every overlapping window it
/// belongs to.
///
/// # Example
///
/// ```
/// use espice_events::{Event, TypeRegistry, Timestamp, AttributeValue};
///
/// let mut registry = TypeRegistry::new();
/// let quote = registry.intern("QUOTE");
/// let event = Event::builder(quote, Timestamp::from_secs(10))
///     .seq(42)
///     .attr("change", AttributeValue::from(-0.3))
///     .build();
///
/// assert_eq!(event.seq(), 42);
/// assert!(event.attrs().get_f64("change").unwrap() < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Event {
    seq: SequenceNumber,
    timestamp: Timestamp,
    event_type: EventType,
    attrs: Arc<Attributes>,
}

impl Event {
    /// Creates a new event with an empty attribute set.
    pub fn new(event_type: EventType, timestamp: Timestamp, seq: SequenceNumber) -> Self {
        Event { seq, timestamp, event_type, attrs: Arc::new(Attributes::new()) }
    }

    /// Starts building an event of the given type and timestamp.
    pub fn builder(event_type: EventType, timestamp: Timestamp) -> EventBuilder {
        EventBuilder { seq: 0, timestamp, event_type, attrs: Attributes::new() }
    }

    /// The event's global sequence number.
    pub fn seq(&self) -> SequenceNumber {
        self.seq
    }

    /// The event's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// The event's type.
    pub fn event_type(&self) -> EventType {
        self.event_type
    }

    /// The event's attribute payload.
    pub fn attrs(&self) -> &Attributes {
        &self.attrs
    }

    /// Returns a copy of this event with a different sequence number.
    ///
    /// Used by stream mergers and replay tools that re-number events to
    /// restore a global order.
    pub fn with_seq(&self, seq: SequenceNumber) -> Event {
        let mut e = self.clone();
        e.seq = seq;
        e
    }

    /// Returns a copy of this event shifted to a different timestamp.
    pub fn with_timestamp(&self, timestamp: Timestamp) -> Event {
        let mut e = self.clone();
        e.timestamp = timestamp;
        e
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        // Identity of an event in the stream is its sequence number; the
        // payload is not re-compared.
        self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Global order: timestamp, then sequence number as the tie-breaker.
        self.timestamp.cmp(&other.timestamp).then(self.seq.cmp(&other.seq))
    }
}

impl std::hash::Hash for Event {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e#{}@{} ({})", self.seq, self.timestamp, self.event_type)
    }
}

/// Builder for [`Event`] values.
///
/// # Example
///
/// ```
/// use espice_events::{Event, EventType, Timestamp, AttributeValue};
///
/// let event = Event::builder(EventType::from_index(0), Timestamp::ZERO)
///     .seq(7)
///     .attr("x", AttributeValue::from(1.0))
///     .attr("y", AttributeValue::from(2.0))
///     .build();
/// assert_eq!(event.attrs().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EventBuilder {
    seq: SequenceNumber,
    timestamp: Timestamp,
    event_type: EventType,
    attrs: Attributes,
}

impl EventBuilder {
    /// Sets the sequence number.
    pub fn seq(mut self, seq: SequenceNumber) -> Self {
        self.seq = seq;
        self
    }

    /// Adds (or replaces) an attribute.
    pub fn attr(mut self, name: &str, value: AttributeValue) -> Self {
        self.attrs.set(name, value);
        self
    }

    /// Finishes building the event.
    pub fn build(self) -> Event {
        Event {
            seq: self.seq,
            timestamp: self.timestamp,
            event_type: self.event_type,
            attrs: Arc::new(self.attrs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn ev(ty: u32, ts_ms: u64, seq: u64) -> Event {
        Event::new(EventType::from_index(ty), Timestamp::from_millis(ts_ms), seq)
    }

    #[test]
    fn builder_sets_all_fields() {
        let e = Event::builder(EventType::from_index(3), Timestamp::from_secs(5))
            .seq(11)
            .attr("price", AttributeValue::from(10.5))
            .build();
        assert_eq!(e.seq(), 11);
        assert_eq!(e.event_type().index(), 3);
        assert_eq!(e.timestamp(), Timestamp::from_secs(5));
        assert_eq!(e.attrs().get_f64("price"), Some(10.5));
    }

    #[test]
    fn equality_is_by_sequence_number() {
        let a = ev(0, 10, 1);
        let b = ev(5, 999, 1);
        let c = ev(0, 10, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_timestamp_then_seq() {
        let early = ev(0, 10, 5);
        let late = ev(0, 20, 1);
        let tie_low = ev(0, 10, 1);
        assert!(early < late);
        assert!(tie_low < early);
        let mut v = vec![late.clone(), early.clone(), tie_low.clone()];
        v.sort();
        assert_eq!(v, vec![tie_low, early, late]);
    }

    #[test]
    fn with_seq_and_with_timestamp_do_not_mutate_original() {
        let original = ev(1, 100, 7);
        let renumbered = original.with_seq(99);
        let shifted =
            original.with_timestamp(Timestamp::from_millis(100) + SimDuration::from_millis(50));
        assert_eq!(original.seq(), 7);
        assert_eq!(renumbered.seq(), 99);
        assert_eq!(shifted.timestamp().as_millis(), 150);
        assert_eq!(original.timestamp().as_millis(), 100);
    }

    #[test]
    fn clone_shares_attribute_storage() {
        let e = Event::builder(EventType::from_index(0), Timestamp::ZERO)
            .attr("a", AttributeValue::from(1i64))
            .build();
        let c = e.clone();
        assert!(Arc::ptr_eq(&e.attrs, &c.attrs));
    }

    #[test]
    fn display_mentions_seq_and_type() {
        let e = ev(2, 1000, 3);
        let s = e.to_string();
        assert!(s.contains("e#3"));
        assert!(s.contains("type#2"));
    }
}
