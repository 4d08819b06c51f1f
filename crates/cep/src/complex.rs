//! Complex events: the output of pattern matching.

use crate::WindowId;
use espice_events::{EventType, SequenceNumber, Timestamp};

/// A primitive event that contributed to a complex event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constituent {
    /// Sequence number of the contributing primitive event.
    pub seq: SequenceNumber,
    /// Type of the contributing primitive event.
    pub event_type: EventType,
    /// Position of the contributing event within its window (0-based arrival
    /// index counting every event assigned to the window, kept or dropped).
    /// This is the `P` that feeds the utility model `UT(T, P)`.
    pub position: usize,
}

/// A detected complex event.
///
/// Identity: two complex events are considered *the same situation* when they
/// were detected in the same window from the same set of primitive events.
/// This is the identity used to count false positives and false negatives
/// against the unshedded ground truth (paper §2.1).
///
/// # Example
///
/// ```
/// use espice_cep::{ComplexEvent, Constituent};
/// use espice_events::{EventType, Timestamp};
///
/// let cplx = ComplexEvent::new(
///     7,
///     Timestamp::from_secs(3),
///     vec![Constituent { seq: 10, event_type: EventType::from_index(0), position: 0 }],
/// );
/// assert_eq!(cplx.key(), (7, vec![10]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexEvent {
    window_id: WindowId,
    detected_at: Timestamp,
    constituents: Vec<Constituent>,
}

impl ComplexEvent {
    /// Creates a complex event from its constituents.
    ///
    /// # Panics
    ///
    /// Panics if `constituents` is empty.
    pub fn new(
        window_id: WindowId,
        detected_at: Timestamp,
        constituents: Vec<Constituent>,
    ) -> Self {
        assert!(!constituents.is_empty(), "a complex event needs at least one constituent");
        ComplexEvent { window_id, detected_at, constituents }
    }

    /// The window in which this complex event was detected.
    pub fn window_id(&self) -> WindowId {
        self.window_id
    }

    /// Timestamp of the last constituent (the detection time).
    pub fn detected_at(&self) -> Timestamp {
        self.detected_at
    }

    /// The contributing primitive events, in pattern order.
    pub fn constituents(&self) -> &[Constituent] {
        &self.constituents
    }

    /// Number of contributing primitive events.
    pub fn len(&self) -> usize {
        self.constituents.len()
    }

    /// Whether the complex event has no constituents (never true for
    /// constructed values).
    pub fn is_empty(&self) -> bool {
        self.constituents.is_empty()
    }

    /// Stable identity used for ground-truth comparison: the window id plus
    /// the sorted sequence numbers of the constituents.
    pub fn key(&self) -> (WindowId, Vec<SequenceNumber>) {
        let mut seqs: Vec<SequenceNumber> = self.constituents.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        (self.window_id, seqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constituent(seq: u64, ty: u32, pos: usize) -> Constituent {
        Constituent { seq, event_type: EventType::from_index(ty), position: pos }
    }

    #[test]
    fn key_is_order_insensitive() {
        let a =
            ComplexEvent::new(1, Timestamp::ZERO, vec![constituent(5, 0, 1), constituent(3, 1, 0)]);
        let b =
            ComplexEvent::new(1, Timestamp::ZERO, vec![constituent(3, 1, 0), constituent(5, 0, 1)]);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn key_distinguishes_windows_and_constituents() {
        let a = ComplexEvent::new(1, Timestamp::ZERO, vec![constituent(3, 0, 0)]);
        let other_window = ComplexEvent::new(2, Timestamp::ZERO, vec![constituent(3, 0, 0)]);
        let other_events = ComplexEvent::new(1, Timestamp::ZERO, vec![constituent(4, 0, 0)]);
        assert_ne!(a.key(), other_window.key());
        assert_ne!(a.key(), other_events.key());
    }

    #[test]
    fn accessors() {
        let c = ComplexEvent::new(
            9,
            Timestamp::from_secs(4),
            vec![constituent(1, 0, 0), constituent(2, 1, 3)],
        );
        assert_eq!(c.window_id(), 9);
        assert_eq!(c.detected_at(), Timestamp::from_secs(4));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.constituents()[1].position, 3);
    }

    #[test]
    #[should_panic(expected = "at least one constituent")]
    fn empty_constituents_rejected() {
        let _ = ComplexEvent::new(0, Timestamp::ZERO, Vec::new());
    }
}
