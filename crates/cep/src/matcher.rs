//! Pattern matching over a window's events.
//!
//! The matcher runs once per closed window. It implements sequence matching
//! with *skip-till-next/any-match* semantics (irrelevant events between the
//! constituents are skipped), the **first**/**last** selection policies, the
//! **consumed**/**zero** consumption policies and an upper bound on the number
//! of complex events per window.
//!
//! Two implementations share these semantics:
//!
//! * [`IndexedMatcher`] is the operator's. It classifies every event against
//!   the pattern steps **once per (event, query)**, when the operator appends
//!   it to its shared [`EventRing`], and records the slot in the occurrence
//!   list of every step class that admits it. Closing a window then walks
//!   the per-step occurrences inside the window's slot range — a successor
//!   (or, for *last* selection, predecessor) search per step — instead of
//!   re-examining every entry of every closing window.
//! * [`Matcher`] scans a window's [`WindowEntry`] list entry by entry. It is
//!   the independent oracle the seed per-window engine
//!   ([`ReferenceOperator`](crate::reference::ReferenceOperator)) and the
//!   property tests pin the index against.

use crate::ring::{DropSet, EventRing, SlotIndex};
use crate::{
    ComplexEvent, Constituent, ConsumptionPolicy, Pattern, PatternStep, Predicate, Query,
    SelectionPolicy, SkipPolicy, WindowId,
};
use espice_events::{Event, EventType, Timestamp};

/// An event kept in a window, together with its arrival position.
///
/// `position` is the index the event had when it was assigned to the window,
/// counting dropped events as well, so the matcher reports constituent
/// positions that are consistent with the utility model's notion of position.
#[derive(Debug, Clone)]
pub struct WindowEntry {
    /// Arrival position within the window (0-based).
    pub position: usize,
    /// The event itself.
    pub event: Event,
}

/// Result of running the matcher over one window.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// The detected complex events, at most `max_matches_per_window`.
    pub complex_events: Vec<ComplexEvent>,
    /// Number of primitive events that participated in at least one match.
    pub constituents_used: usize,
}

/// A reusable pattern matcher configured from a [`Query`]'s policies.
///
/// # Example
///
/// ```
/// use espice_cep::{Matcher, Pattern, PatternStep, Query, WindowSpec, WindowEntry};
/// use espice_events::{Event, EventType, Timestamp};
///
/// let a = EventType::from_index(0);
/// let b = EventType::from_index(1);
/// let query = Query::builder()
///     .pattern(Pattern::new(vec![PatternStep::single(a), PatternStep::single(b)]))
///     .window(WindowSpec::count_sliding(4, 4))
///     .build();
/// let matcher = Matcher::from_query(&query);
///
/// let entries: Vec<WindowEntry> = vec![
///     WindowEntry { position: 0, event: Event::new(a, Timestamp::from_secs(0), 0) },
///     WindowEntry { position: 1, event: Event::new(b, Timestamp::from_secs(1), 1) },
/// ];
/// let outcome = matcher.matches(0, &entries);
/// assert_eq!(outcome.complex_events.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Matcher {
    pattern: Pattern,
    selection: SelectionPolicy,
    consumption: ConsumptionPolicy,
    skip: SkipPolicy,
    max_matches: usize,
}

/// A window's entries read in window order or reversed (the "last"
/// selection policy matches the reversed pattern over the reversed window).
struct Ordered<'a> {
    entries: &'a [WindowEntry],
    reversed: bool,
}

impl Ordered<'_> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn entry(&self, index: usize) -> &WindowEntry {
        let index = if self.reversed { self.entries.len() - 1 - index } else { index };
        &self.entries[index]
    }
}

impl Matcher {
    /// Builds a matcher from a query's pattern and policies.
    pub fn from_query(query: &Query) -> Self {
        Matcher {
            pattern: query.pattern().clone(),
            selection: query.selection(),
            consumption: query.consumption(),
            skip: query.skip(),
            max_matches: query.max_matches_per_window(),
        }
    }

    /// The pattern this matcher looks for.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Runs the matcher over the (kept) entries of window `window_id`.
    /// Entries must be in arrival order.
    pub fn matches(&self, window_id: WindowId, entries: &[WindowEntry]) -> MatchOutcome {
        if entries.len() < self.pattern.total_events() {
            return MatchOutcome::default();
        }

        // The "last" selection policy picks the latest admissible instances.
        // It is implemented by matching the reversed pattern over the reversed
        // window and mapping the result back, which selects, greedily from the
        // end, the latest events that can still complete the pattern.
        let reversed = self.selection == SelectionPolicy::Last;
        let steps: Vec<&PatternStep> = if reversed {
            self.pattern.steps().iter().rev().collect()
        } else {
            self.pattern.steps().iter().collect()
        };
        let ordered = Ordered { entries, reversed };

        let mut used = vec![false; ordered.len()];
        let mut min_start = 0usize;
        let mut matches: Vec<Vec<usize>> = Vec::new();

        while matches.len() < self.max_matches {
            let taken = match self.skip {
                SkipPolicy::SkipTillNextMatch => greedy_match(&ordered, &steps, &used, min_start),
                SkipPolicy::Contiguous => contiguous_match(&ordered, &steps, &used, min_start),
            };
            let Some(taken) = taken else { break };
            match self.consumption {
                ConsumptionPolicy::Consumed => {
                    for &i in &taken {
                        used[i] = true;
                    }
                }
                ConsumptionPolicy::Zero => {
                    min_start = taken[0] + 1;
                }
            }
            matches.push(taken);
        }

        let mut used_positions = std::collections::HashSet::new();
        let complex_events = matches
            .into_iter()
            .map(|taken| {
                let mut constituents: Vec<Constituent> = taken
                    .iter()
                    .map(|&i| {
                        let entry = ordered.entry(i);
                        used_positions.insert(entry.position);
                        Constituent {
                            seq: entry.event.seq(),
                            event_type: entry.event.event_type(),
                            position: entry.position,
                        }
                    })
                    .collect();
                let detected_at = taken
                    .iter()
                    .map(|&i| ordered.entry(i).event.timestamp())
                    .max()
                    .unwrap_or(Timestamp::ZERO);
                if reversed {
                    // Matching ran over the reversed pattern; restore pattern order.
                    constituents.reverse();
                }
                ComplexEvent::new(window_id, detected_at, constituents)
            })
            .collect();

        MatchOutcome { complex_events, constituents_used: used_positions.len() }
    }
}

/// Greedy subsequence matching with skip-till-next/any-match semantics: each
/// step takes the earliest admissible, unused events after the previously
/// taken one.
fn greedy_match(
    entries: &Ordered<'_>,
    steps: &[&PatternStep],
    used: &[bool],
    min_start: usize,
) -> Option<Vec<usize>> {
    let mut taken = Vec::new();
    let mut idx = min_start;
    for step in steps {
        let mut need = step.count();
        let mut matched_types: Vec<EventType> = Vec::with_capacity(need);
        while need > 0 {
            if idx >= entries.len() {
                return None;
            }
            let event = &entries.entry(idx).event;
            let type_ok = !step.distinct_types() || !matched_types.contains(&event.event_type());
            if !used[idx] && type_ok && step.admits(event) {
                taken.push(idx);
                matched_types.push(event.event_type());
                need -= 1;
            }
            idx += 1;
        }
    }
    Some(taken)
}

/// Contiguous matching: the constituents must be adjacent entries. Tries every
/// anchor from `min_start` and returns the first full match.
fn contiguous_match(
    entries: &Ordered<'_>,
    steps: &[&PatternStep],
    used: &[bool],
    min_start: usize,
) -> Option<Vec<usize>> {
    let total: usize = steps.iter().map(|s| s.count()).sum();
    if entries.len() < total {
        return None;
    }
    'anchor: for anchor in min_start..=(entries.len() - total) {
        let mut idx = anchor;
        let mut taken = Vec::with_capacity(total);
        for step in steps {
            let mut matched_types: Vec<EventType> = Vec::with_capacity(step.count());
            for _ in 0..step.count() {
                let event = &entries.entry(idx).event;
                let type_ok =
                    !step.distinct_types() || !matched_types.contains(&event.event_type());
                if used[idx] || !type_ok || !step.admits(event) {
                    continue 'anchor;
                }
                taken.push(idx);
                matched_types.push(event.event_type());
                idx += 1;
            }
        }
        return Some(taken);
    }
    None
}

/// A pattern step as the index walks it.
#[derive(Debug, Clone, Copy)]
struct IndexedStep {
    /// The step's class: steps admitting exactly the same events (equal
    /// type lists and predicates, e.g. the repeated steps of Q4's
    /// `seq(A; B; A; B)`) share one class and one occurrence list.
    class: usize,
    count: usize,
    distinct_types: bool,
}

/// The step classes one event type can enter, grouped by the predicate
/// that gates them: when `predicate` holds (`None` is `Predicate::True`),
/// the event joins every class in `classes`.
#[derive(Debug, Clone)]
struct PredicateGroup {
    /// Index into [`IndexedMatcher::predicates`].
    predicate: Option<usize>,
    classes: Vec<usize>,
}

/// The operator's matcher: [`Matcher`]'s semantics over a per-step
/// occurrence index instead of a per-window scan (see the module docs).
///
/// It is compiled from a [`Query`] into a table from event-type index to
/// the step classes whose type set contains that type, so classifying an
/// event costs one table lookup when no step references its type and
/// otherwise evaluates each distinct step predicate at most once.
#[derive(Debug, Clone)]
pub(crate) struct IndexedMatcher {
    /// Per event-type index, the predicate groups of the classes admitting
    /// that type (empty for unreferenced types; types past the end are
    /// unreferenced too).
    by_type: Vec<Vec<PredicateGroup>>,
    /// The pattern's distinct step predicates other than `Predicate::True`.
    predicates: Vec<Predicate>,
    /// Number of step classes (occurrence lists the ring keeps).
    classes: usize,
    steps: Vec<IndexedStep>,
    total_events: usize,
    selection: SelectionPolicy,
    consumption: ConsumptionPolicy,
    skip: SkipPolicy,
    max_matches: usize,
}

/// A closing window as the index sees it: the ring slots `[start, end)`
/// minus the positions (slot offsets from `start`) in `dropped`.
struct IndexedWindow<'a> {
    ring: &'a EventRing,
    start: SlotIndex,
    end: SlotIndex,
    dropped: &'a DropSet,
}

impl IndexedWindow<'_> {
    /// Whether the window kept the event at `slot`.
    fn kept(&self, slot: SlotIndex) -> bool {
        self.dropped.is_empty() || !self.dropped.contains((slot - self.start) as usize)
    }

    /// The window's nearest kept slot after `slot` (before it when
    /// `reversed`), if any.
    fn next_kept(&self, mut slot: SlotIndex, reversed: bool) -> Option<SlotIndex> {
        loop {
            if reversed {
                if slot == self.start {
                    return None;
                }
                slot -= 1;
            } else {
                slot += 1;
                if slot >= self.end {
                    return None;
                }
            }
            if self.kept(slot) {
                return Some(slot);
            }
        }
    }

    /// The occurrences of step class `class` in `[lo, hi)`, ascending.
    fn occurrences(
        &self,
        class: usize,
        lo: SlotIndex,
        hi: SlotIndex,
    ) -> impl DoubleEndedIterator<Item = SlotIndex> + '_ {
        let occurrences = self.ring.occurrences(class);
        let first = occurrences.partition_point(|&slot| slot < lo);
        let end = occurrences.partition_point(|&slot| slot < hi);
        occurrences.range(first..end).copied()
    }
}

impl IndexedMatcher {
    /// Compiles the classifier and match policies of `query`.
    pub(crate) fn from_query(query: &Query) -> Self {
        let mut representatives: Vec<&PatternStep> = Vec::new();
        let steps = query
            .pattern()
            .steps()
            .iter()
            .map(|step| {
                let class = representatives
                    .iter()
                    .position(|rep| {
                        rep.types() == step.types() && rep.predicate() == step.predicate()
                    })
                    .unwrap_or_else(|| {
                        representatives.push(step);
                        representatives.len() - 1
                    });
                IndexedStep { class, count: step.count(), distinct_types: step.distinct_types() }
            })
            .collect();

        let mut predicates: Vec<Predicate> = Vec::new();
        let mut by_type: Vec<Vec<PredicateGroup>> = Vec::new();
        for (class, rep) in representatives.iter().enumerate() {
            let predicate = (*rep.predicate() != Predicate::True).then(|| {
                predicates.iter().position(|p| p == rep.predicate()).unwrap_or_else(|| {
                    predicates.push(rep.predicate().clone());
                    predicates.len() - 1
                })
            });
            for ty in rep.types() {
                if by_type.len() <= ty.index() {
                    by_type.resize(ty.index() + 1, Vec::new());
                }
                let groups = &mut by_type[ty.index()];
                match groups.iter_mut().find(|group| group.predicate == predicate) {
                    // A type listed twice in one step still joins its class once.
                    Some(group) if group.classes.contains(&class) => {}
                    Some(group) => group.classes.push(class),
                    None => groups.push(PredicateGroup { predicate, classes: vec![class] }),
                }
            }
        }

        IndexedMatcher {
            by_type,
            predicates,
            classes: representatives.len(),
            steps,
            total_events: query.pattern().total_events(),
            selection: query.selection(),
            consumption: query.consumption(),
            skip: query.skip(),
            max_matches: query.max_matches_per_window(),
        }
    }

    /// Number of step classes, i.e. occurrence lists the ring must keep.
    pub(crate) fn classes(&self) -> usize {
        self.classes
    }

    /// Records `slot` — where `event` was just appended to `ring` — in the
    /// occurrence list of every step class that admits the event.
    pub(crate) fn classify(&self, event: &Event, slot: SlotIndex, ring: &mut EventRing) {
        let Some(groups) = self.by_type.get(event.event_type().index()) else {
            return;
        };
        for group in groups {
            if group.predicate.is_none_or(|p| self.predicates[p].eval(event)) {
                for &class in &group.classes {
                    ring.record(class, slot);
                }
            }
        }
    }

    /// Matches window `window_id`: the `assigned` ring slots from `start`,
    /// minus the positions in `dropped`. Emits exactly the complex events
    /// [`Matcher::matches`] emits over the window's kept entries.
    pub(crate) fn matches(
        &self,
        window_id: WindowId,
        ring: &EventRing,
        start: SlotIndex,
        assigned: usize,
        dropped: &DropSet,
    ) -> Vec<ComplexEvent> {
        if assigned.saturating_sub(dropped.len()) < self.total_events {
            return Vec::new();
        }
        let window = IndexedWindow { ring, start, end: start + assigned as SlotIndex, dropped };
        let reversed = self.selection == SelectionPolicy::Last;

        // Every match is searched inside `[lo, hi)`. Zero consumption moves
        // the bound past the previous match's first-taken constituent (its
        // earliest, or under last selection its latest); consumed
        // consumption keeps the bounds and skips the slots earlier matches
        // took instead.
        let (mut lo, mut hi) = (window.start, window.end);
        let mut consumed: Vec<SlotIndex> = Vec::new();
        let mut matches: Vec<Vec<SlotIndex>> = Vec::new();
        let mut taken: Vec<SlotIndex> = Vec::new();
        while matches.len() < self.max_matches {
            taken.clear();
            let found = match self.skip {
                SkipPolicy::SkipTillNextMatch => {
                    self.greedy(&window, lo, hi, &consumed, &mut taken)
                }
                SkipPolicy::Contiguous => self.contiguous(&window, lo, hi, &consumed, &mut taken),
            };
            if !found {
                break;
            }
            match self.consumption {
                ConsumptionPolicy::Consumed => consumed.extend_from_slice(&taken),
                ConsumptionPolicy::Zero if reversed => hi = taken[0],
                ConsumptionPolicy::Zero => lo = taken[0] + 1,
            }
            if reversed {
                // Taken latest-first over the reversed pattern.
                taken.reverse();
            }
            matches.push(std::mem::take(&mut taken));
        }

        matches
            .iter()
            .map(|slots| {
                let constituents = slots
                    .iter()
                    .map(|&slot| {
                        let event = ring.get(slot);
                        Constituent {
                            seq: event.seq(),
                            event_type: event.event_type(),
                            position: (slot - start) as usize,
                        }
                    })
                    .collect();
                let detected_at = slots
                    .iter()
                    .map(|&slot| ring.get(slot).timestamp())
                    .max()
                    .unwrap_or(Timestamp::ZERO);
                ComplexEvent::new(window_id, detected_at, constituents)
            })
            .collect()
    }

    /// The `k`-th step in matching order (the pattern reversed under last
    /// selection).
    fn step(&self, k: usize) -> IndexedStep {
        match self.selection {
            SelectionPolicy::First => self.steps[k],
            SelectionPolicy::Last => self.steps[self.steps.len() - 1 - k],
        }
    }

    /// Skip-till-next matching: each step takes the nearest admissible,
    /// kept, unconsumed occurrences past the previous step's — a successor
    /// search per step, or a predecessor search under last selection.
    fn greedy(
        &self,
        window: &IndexedWindow<'_>,
        mut lo: SlotIndex,
        mut hi: SlotIndex,
        consumed: &[SlotIndex],
        taken: &mut Vec<SlotIndex>,
    ) -> bool {
        let reversed = self.selection == SelectionPolicy::Last;
        let mut types: Vec<EventType> = Vec::new();
        for k in 0..self.steps.len() {
            let step = self.step(k);
            let mut candidates = window.occurrences(step.class, lo, hi);
            types.clear();
            let mut need = step.count;
            while need > 0 {
                let next = if reversed { candidates.next_back() } else { candidates.next() };
                let Some(slot) = next else { return false };
                if !window.kept(slot) || consumed.contains(&slot) {
                    continue;
                }
                if step.distinct_types {
                    let ty = window.ring.get(slot).event_type();
                    if types.contains(&ty) {
                        continue;
                    }
                    types.push(ty);
                }
                taken.push(slot);
                need -= 1;
            }
            let last = *taken.last().expect("every step takes at least one event");
            if reversed {
                hi = last;
            } else {
                lo = last + 1;
            }
        }
        true
    }

    /// Contiguous matching: anchors on the first step's occurrences (the
    /// last step's, latest first, under last selection) and checks that the
    /// following kept slots belong to the next steps' occurrence lists.
    fn contiguous(
        &self,
        window: &IndexedWindow<'_>,
        lo: SlotIndex,
        hi: SlotIndex,
        consumed: &[SlotIndex],
        taken: &mut Vec<SlotIndex>,
    ) -> bool {
        let reversed = self.selection == SelectionPolicy::Last;
        let mut anchors = window.occurrences(self.step(0).class, lo, hi);
        let mut types: Vec<EventType> = Vec::new();
        'anchor: loop {
            let next = if reversed { anchors.next_back() } else { anchors.next() };
            let Some(anchor) = next else { return false };
            if !window.kept(anchor) {
                continue;
            }
            taken.clear();
            let mut slot = Some(anchor);
            for k in 0..self.steps.len() {
                let step = self.step(k);
                types.clear();
                for _ in 0..step.count {
                    let Some(current) = slot else { continue 'anchor };
                    if consumed.contains(&current)
                        || window.ring.occurrences(step.class).binary_search(&current).is_err()
                    {
                        continue 'anchor;
                    }
                    if step.distinct_types {
                        let ty = window.ring.get(current).event_type();
                        if types.contains(&ty) {
                            continue 'anchor;
                        }
                        types.push(ty);
                    }
                    taken.push(current);
                    slot = window.next_kept(current, reversed);
                }
            }
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowSpec;
    use espice_events::EventType;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn entry(t: u32, pos: usize, seq: u64) -> WindowEntry {
        WindowEntry {
            position: pos,
            event: Event::new(ty(t), Timestamp::from_secs(pos as u64), seq),
        }
    }

    fn matcher(
        pattern: Pattern,
        selection: SelectionPolicy,
        consumption: ConsumptionPolicy,
        max: usize,
    ) -> Matcher {
        let query = Query::builder()
            .pattern(pattern)
            .window(WindowSpec::count_sliding(100, 100))
            .selection(selection)
            .consumption(consumption)
            .max_matches_per_window(max)
            .build();
        Matcher::from_query(&query)
    }

    /// The paper's running example (§2.1): window [A1, A2, B3, B4], pattern
    /// seq(A; B), first selection, consumed consumption detects
    /// cplx13 = (A1, B3) and cplx24 = (A2, B4).
    #[test]
    fn paper_example_first_consumed() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 10);
        let entries = vec![entry(0, 0, 1), entry(0, 1, 2), entry(1, 2, 3), entry(1, 3, 4)];
        let outcome = m.matches(0, &entries);
        let keys: Vec<_> = outcome.complex_events.iter().map(ComplexEvent::key).collect();
        assert_eq!(keys, vec![(0, vec![1, 3]), (0, vec![2, 4])]);
        assert_eq!(outcome.constituents_used, 4);
    }

    /// Dropping A1 from the window of the running example yields a different
    /// match for the first pair — the false-positive mechanism of §2.1.
    #[test]
    fn paper_example_dropping_a1_changes_matches() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 10);
        // A1 dropped: only A2, B3, B4 remain (positions keep their values).
        let entries = vec![entry(0, 1, 2), entry(1, 2, 3), entry(1, 3, 4)];
        let outcome = m.matches(0, &entries);
        let keys: Vec<_> = outcome.complex_events.iter().map(ComplexEvent::key).collect();
        assert_eq!(keys, vec![(0, vec![2, 3])]);
    }

    #[test]
    fn last_selection_picks_latest_instances() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::Last, ConsumptionPolicy::Consumed, 1);
        let entries = vec![entry(0, 0, 1), entry(0, 1, 2), entry(1, 2, 3), entry(1, 3, 4)];
        let outcome = m.matches(0, &entries);
        assert_eq!(outcome.complex_events.len(), 1);
        // Latest A (A2, seq 2) with latest B (B4, seq 4).
        assert_eq!(outcome.complex_events[0].key(), (0, vec![2, 4]));
        // Constituents are reported in pattern order (A before B).
        let types: Vec<_> =
            outcome.complex_events[0].constituents().iter().map(|c| c.event_type.index()).collect();
        assert_eq!(types, vec![0, 1]);
    }

    #[test]
    fn zero_consumption_reuses_events() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Zero, 10);
        // A1, B2 : with zero consumption and one B, only one distinct match exists.
        let entries = vec![entry(0, 0, 1), entry(1, 1, 2)];
        assert_eq!(m.matches(0, &entries).complex_events.len(), 1);
        // A1, A2, B3: zero consumption yields (A1,B3) and (A2,B3) — B3 reused.
        let entries = vec![entry(0, 0, 1), entry(0, 1, 2), entry(1, 2, 3)];
        let keys: Vec<_> =
            m.matches(0, &entries).complex_events.iter().map(ComplexEvent::key).collect();
        assert_eq!(keys, vec![(0, vec![1, 3]), (0, vec![2, 3])]);
    }

    #[test]
    fn max_matches_limits_output() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        let entries = vec![entry(0, 0, 1), entry(0, 1, 2), entry(1, 2, 3), entry(1, 3, 4)];
        assert_eq!(m.matches(0, &entries).complex_events.len(), 1);
    }

    #[test]
    fn any_step_requires_distinct_types() {
        // seq(A; any(2, {B, C}) distinct)
        let pattern = Pattern::new(vec![
            PatternStep::single(ty(0)),
            PatternStep::any_of([ty(1), ty(2)], 2, true),
        ]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        // Only two B events after the A: distinct requirement cannot be met.
        let entries = vec![entry(0, 0, 1), entry(1, 1, 2), entry(1, 2, 3)];
        assert!(m.matches(0, &entries).complex_events.is_empty());
        // A B C works.
        let entries = vec![entry(0, 0, 1), entry(1, 1, 2), entry(2, 2, 3)];
        let outcome = m.matches(0, &entries);
        assert_eq!(outcome.complex_events.len(), 1);
        assert_eq!(outcome.complex_events[0].len(), 3);
    }

    #[test]
    fn any_step_without_distinct_allows_repeats() {
        let pattern = Pattern::new(vec![
            PatternStep::single(ty(0)),
            PatternStep::any_of([ty(1), ty(2)], 2, false),
        ]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        let entries = vec![entry(0, 0, 1), entry(1, 1, 2), entry(1, 2, 3)];
        assert_eq!(m.matches(0, &entries).complex_events.len(), 1);
    }

    #[test]
    fn skip_till_next_match_skips_noise() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        // Noise (type 9) interleaved everywhere.
        let entries =
            vec![entry(9, 0, 1), entry(0, 1, 2), entry(9, 2, 3), entry(9, 3, 4), entry(1, 4, 5)];
        let outcome = m.matches(0, &entries);
        assert_eq!(outcome.complex_events.len(), 1);
        assert_eq!(outcome.complex_events[0].key(), (0, vec![2, 5]));
    }

    #[test]
    fn contiguous_policy_requires_adjacency() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let query = Query::builder()
            .pattern(pattern)
            .window(WindowSpec::count_sliding(10, 10))
            .skip(SkipPolicy::Contiguous)
            .build();
        let m = Matcher::from_query(&query);
        // A . B (gap) — no contiguous match.
        let entries = vec![entry(0, 0, 1), entry(9, 1, 2), entry(1, 2, 3)];
        assert!(m.matches(0, &entries).complex_events.is_empty());
        // noise A B — contiguous match found at anchor 1.
        let entries = vec![entry(9, 0, 1), entry(0, 1, 2), entry(1, 2, 3)];
        assert_eq!(m.matches(0, &entries).complex_events.len(), 1);
    }

    #[test]
    fn sequence_with_repetition_matches_in_order() {
        // seq(A; A; B) — Q4 style repetition.
        let pattern = Pattern::sequence([ty(0), ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        let entries = vec![entry(0, 0, 1), entry(1, 1, 2), entry(0, 2, 3), entry(1, 3, 4)];
        let outcome = m.matches(0, &entries);
        assert_eq!(outcome.complex_events.len(), 1);
        assert_eq!(outcome.complex_events[0].key(), (0, vec![1, 3, 4]));
    }

    #[test]
    fn too_small_window_yields_no_matches() {
        let pattern = Pattern::sequence([ty(0), ty(1), ty(2)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        let entries = vec![entry(0, 0, 1), entry(1, 1, 2)];
        assert!(m.matches(0, &entries).complex_events.is_empty());
    }

    #[test]
    fn indexed_matches_equal_the_scan_for_every_policy_and_wrap_point() {
        // seq(A; any(2, {B, C}) distinct; A) with drops, over a ring whose
        // deque wraps at every possible point: the index must emit exactly
        // what the scan emits over the window's kept entries.
        let pattern = Pattern::new(vec![
            PatternStep::single(ty(0)),
            PatternStep::any_of([ty(1), ty(2)], 2, true),
            PatternStep::single(ty(0)),
        ]);
        let types = [0u32, 1, 9, 1, 2, 0, 0, 2, 1, 0, 2, 0, 1, 0];
        let dropped_positions = [2usize, 6, 11];
        for selection in [SelectionPolicy::First, SelectionPolicy::Last] {
            for consumption in [ConsumptionPolicy::Consumed, ConsumptionPolicy::Zero] {
                for skip in [SkipPolicy::SkipTillNextMatch, SkipPolicy::Contiguous] {
                    let query = Query::builder()
                        .pattern(pattern.clone())
                        .window(WindowSpec::count_sliding(100, 100))
                        .selection(selection)
                        .consumption(consumption)
                        .skip(skip)
                        .max_matches_per_window(3)
                        .build();
                    let kept: Vec<WindowEntry> = types
                        .iter()
                        .enumerate()
                        .filter(|(position, _)| !dropped_positions.contains(position))
                        .map(|(position, &t)| entry(t, position, 100 + position as u64))
                        .collect();
                    let expected = Matcher::from_query(&query).matches(7, &kept);
                    let indexed = IndexedMatcher::from_query(&query);
                    let mut dropped = DropSet::new();
                    dropped_positions.iter().for_each(|&p| dropped.push(p));
                    for offset in 0..types.len() {
                        // `offset` filler events, released before the window
                        // opens, move the deque's wrap point.
                        let mut ring = EventRing::new(indexed.classes());
                        for seq in 0..offset as u64 {
                            let event = Event::new(ty(0), Timestamp::ZERO, seq);
                            let slot = ring.push(event.clone());
                            indexed.classify(&event, slot, &mut ring);
                        }
                        let start = ring.next_slot();
                        ring.release_before(start);
                        for entry in (0..types.len()).map(|p| entry(types[p], p, 100 + p as u64)) {
                            let slot = ring.push(entry.event.clone());
                            indexed.classify(&entry.event, slot, &mut ring);
                        }
                        let emitted = indexed.matches(7, &ring, start, types.len(), &dropped);
                        let label = format!("{selection:?}/{consumption:?}/{skip:?} at {offset}");
                        assert_eq!(emitted, expected.complex_events, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn classification_evaluates_each_referenced_step_class_once() {
        // seq(A; A; any(B, C)) with one shared predicate: the repeated A
        // steps share a class, an unreferenced type enters no list, and a
        // falling quote enters none either.
        let rising = Predicate::attr_cmp("change", crate::CmpOp::Gt, 0.0);
        let pattern = Pattern::new(vec![
            PatternStep::single(ty(0)).with_predicate(rising.clone()),
            PatternStep::single(ty(0)).with_predicate(rising.clone()),
            PatternStep::any_of([ty(1), ty(2), ty(1)], 1, false).with_predicate(rising),
        ]);
        let query =
            Query::builder().pattern(pattern).window(WindowSpec::count_sliding(10, 10)).build();
        let indexed = IndexedMatcher::from_query(&query);
        assert_eq!(indexed.classes(), 2);
        assert_eq!(indexed.predicates.len(), 1);
        let quote = |t: u32, change: f64, seq: u64| {
            Event::builder(ty(t), Timestamp::ZERO)
                .seq(seq)
                .attr("change", espice_events::AttributeValue::from(change))
                .build()
        };
        let mut ring = EventRing::new(indexed.classes());
        for event in [quote(0, 1.0, 0), quote(1, 1.0, 1), quote(9, 1.0, 2), quote(1, -1.0, 3)] {
            let slot = ring.push(event.clone());
            indexed.classify(&event, slot, &mut ring);
        }
        assert_eq!(ring.occurrences(0).iter().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(ring.occurrences(1).iter().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn detection_time_is_latest_constituent_timestamp() {
        let pattern = Pattern::sequence([ty(0), ty(1)]);
        let m = matcher(pattern, SelectionPolicy::First, ConsumptionPolicy::Consumed, 1);
        let entries = vec![entry(0, 0, 1), entry(1, 5, 2)];
        let outcome = m.matches(3, &entries);
        assert_eq!(outcome.complex_events[0].detected_at(), Timestamp::from_secs(5));
        assert_eq!(outcome.complex_events[0].window_id(), 3);
    }
}
