//! Pattern definitions.
//!
//! A pattern is an ordered sequence of steps. Each step matches one or more
//! primitive events drawn from a set of admissible event types, optionally
//! constrained by an attribute predicate. This representation covers every
//! operator used in the paper's evaluation:
//!
//! * `seq(A; B; C)` — three steps, one type each, count 1 (Q3),
//! * `seq(A; A; B; …)` — repetition is just repeated steps (Q4),
//! * `seq(STR; any(n, DF1 … DFm))` — a step with `count = n` over a type set
//!   (Q1, Q2).

use crate::Predicate;
use espice_events::{Event, EventType};

/// One step of a pattern.
///
/// A step matches `count` events whose type is in `types` and which satisfy
/// `predicate`. With `distinct_types` set, the matched events must all have
/// different types (e.g. *n different defenders*).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternStep {
    types: Vec<EventType>,
    /// `types` as a bitset over type indices (bit `i % 64` of word `i / 64`
    /// marks type `i`), so membership is O(1) however many types the step
    /// lists — Q2's second step lists every symbol of the stream.
    type_mask: Box<[u64]>,
    count: usize,
    distinct_types: bool,
    predicate: Predicate,
}

impl PatternStep {
    /// A step matching a single event of a single type.
    pub fn single(event_type: EventType) -> Self {
        Self::any_of([event_type], 1, false)
    }

    /// A step matching a single event whose type is any of `types`.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty.
    pub fn any_single<I: IntoIterator<Item = EventType>>(types: I) -> Self {
        Self::any_of(types, 1, false)
    }

    /// A step matching `count` events whose types are in `types`
    /// (the `any(n, …)` operator). With `distinct_types`, each matched event
    /// must have a different type.
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty or `count` is zero, or if `distinct_types`
    /// is requested with fewer admissible types than `count`.
    pub fn any_of<I: IntoIterator<Item = EventType>>(
        types: I,
        count: usize,
        distinct_types: bool,
    ) -> Self {
        let types: Vec<EventType> = types.into_iter().collect();
        assert!(!types.is_empty(), "a pattern step needs at least one admissible type");
        assert!(count >= 1, "a pattern step must match at least one event");
        if distinct_types {
            assert!(
                types.len() >= count,
                "cannot match {count} distinct types out of {}",
                types.len()
            );
        }
        let words = types.iter().map(|ty| ty.index() / 64).max().unwrap_or(0) + 1;
        let mut type_mask = vec![0u64; words].into_boxed_slice();
        for ty in &types {
            type_mask[ty.index() / 64] |= 1 << (ty.index() % 64);
        }
        PatternStep { types, type_mask, count, distinct_types, predicate: Predicate::True }
    }

    /// Attaches an attribute predicate to this step.
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// The admissible event types of this step.
    pub fn types(&self) -> &[EventType] {
        &self.types
    }

    /// How many events this step consumes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether matched events must have pairwise distinct types.
    pub fn distinct_types(&self) -> bool {
        self.distinct_types
    }

    /// The step's predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Whether `ty` is one of this step's admissible types (O(1)).
    fn admits_type(&self, ty: EventType) -> bool {
        let index = ty.index();
        self.type_mask.get(index / 64).is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Whether `event` is admissible for this step (type and predicate).
    pub fn admits(&self, event: &Event) -> bool {
        self.admits_type(event.event_type()) && self.predicate.eval(event)
    }
}

/// An ordered sequence of [`PatternStep`]s.
///
/// # Example
///
/// ```
/// use espice_cep::{Pattern, PatternStep};
/// use espice_events::EventType;
///
/// let a = EventType::from_index(0);
/// let b = EventType::from_index(1);
/// let c = EventType::from_index(2);
///
/// // seq(A; any(2, {B, C}))
/// let pattern = Pattern::new(vec![
///     PatternStep::single(a),
///     PatternStep::any_of([b, c], 2, true),
/// ]);
/// assert_eq!(pattern.len(), 2);
/// assert_eq!(pattern.total_events(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    steps: Vec<PatternStep>,
}

impl Pattern {
    /// Creates a pattern from its steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(steps: Vec<PatternStep>) -> Self {
        assert!(!steps.is_empty(), "a pattern needs at least one step");
        Pattern { steps }
    }

    /// Builds a plain sequence pattern from a list of single types
    /// (`seq(T1; T2; …)`), allowing repetitions.
    pub fn sequence<I: IntoIterator<Item = EventType>>(types: I) -> Self {
        let steps: Vec<PatternStep> = types.into_iter().map(PatternStep::single).collect();
        Pattern::new(steps)
    }

    /// The pattern steps.
    pub fn steps(&self) -> &[PatternStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the pattern has no steps (never true for constructed patterns).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total number of primitive events a full match consumes
    /// (the paper's *pattern size*).
    pub fn total_events(&self) -> usize {
        self.steps.iter().map(PatternStep::count).sum()
    }

    /// The set of event types that appear anywhere in the pattern
    /// (deduplicated, in first-appearance order).
    pub fn referenced_types(&self) -> Vec<EventType> {
        let mut seen = Vec::new();
        for step in &self.steps {
            for &ty in step.types() {
                if !seen.contains(&ty) {
                    seen.push(ty);
                }
            }
        }
        seen
    }

    /// How many times `ty` is referenced across all steps, weighted by step
    /// count. Used by the baseline shedder, which scores types by their
    /// repetition in the pattern.
    pub fn type_repetition(&self, ty: EventType) -> usize {
        self.steps
            .iter()
            .filter(|s| s.admits_type(ty))
            .map(|s| if s.distinct_types() { 1 } else { s.count() })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CmpOp;
    use espice_events::{AttributeValue, Timestamp};

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    #[test]
    fn single_step_admits_only_its_type() {
        let step = PatternStep::single(ty(1));
        let match_event = Event::new(ty(1), Timestamp::ZERO, 0);
        let other = Event::new(ty(2), Timestamp::ZERO, 1);
        assert!(step.admits(&match_event));
        assert!(!step.admits(&other));
        assert_eq!(step.count(), 1);
    }

    #[test]
    fn any_of_checks_type_membership() {
        let step = PatternStep::any_of([ty(1), ty(2)], 2, true);
        assert!(step.admits(&Event::new(ty(2), Timestamp::ZERO, 0)));
        assert!(!step.admits(&Event::new(ty(3), Timestamp::ZERO, 1)));
        assert!(step.distinct_types());
    }

    #[test]
    fn type_membership_spans_bitset_words() {
        let step = PatternStep::any_of([ty(3), ty(64), ty(200)], 1, false);
        for index in 0..300 {
            assert_eq!(step.admits_type(ty(index)), [3, 64, 200].contains(&index), "type {index}");
        }
        assert_eq!(step.types(), &[ty(3), ty(64), ty(200)]);
    }

    #[test]
    fn predicate_restricts_admission() {
        let step = PatternStep::single(ty(0)).with_predicate(Predicate::attr_cmp(
            "change",
            CmpOp::Gt,
            0.0,
        ));
        let rising = Event::builder(ty(0), Timestamp::ZERO)
            .attr("change", AttributeValue::from(1.0))
            .build();
        let falling = Event::builder(ty(0), Timestamp::ZERO)
            .attr("change", AttributeValue::from(-1.0))
            .build();
        assert!(step.admits(&rising));
        assert!(!step.admits(&falling));
    }

    #[test]
    #[should_panic(expected = "at least one admissible type")]
    fn any_of_rejects_empty_type_set() {
        let _ = PatternStep::any_of(Vec::<EventType>::new(), 1, false);
    }

    #[test]
    #[should_panic(expected = "distinct types")]
    fn any_of_rejects_impossible_distinct_count() {
        let _ = PatternStep::any_of([ty(0)], 2, true);
    }

    #[test]
    fn sequence_builder_and_sizes() {
        let p = Pattern::sequence([ty(0), ty(1), ty(0)]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.referenced_types(), vec![ty(0), ty(1)]);
        assert_eq!(p.type_repetition(ty(0)), 2);
        assert_eq!(p.type_repetition(ty(1)), 1);
        assert_eq!(p.type_repetition(ty(9)), 0);
    }

    #[test]
    fn total_events_counts_any_steps() {
        let p = Pattern::new(vec![
            PatternStep::single(ty(0)),
            PatternStep::any_of([ty(1), ty(2), ty(3)], 4, false),
        ]);
        assert_eq!(p.total_events(), 5);
        // Non-distinct any: repetition counts the full step count.
        assert_eq!(p.type_repetition(ty(1)), 4);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn pattern_rejects_empty_steps() {
        let _ = Pattern::new(Vec::new());
    }
}
