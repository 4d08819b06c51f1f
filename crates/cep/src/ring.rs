//! Shared event storage for overlapping windows.
//!
//! With sliding windows of size `w` and slide `s`, every event belongs to
//! `w / s` windows at once. Storing a [`WindowEntry`]-style copy per window
//! makes the operator's per-event work O(overlap); the [`EventRing`] stores
//! each event **once** and lets every open window reference its events as a
//! contiguous index range `[start, start + assigned)` of *global slots*.
//! Because an open window is assigned every event that arrives while it is
//! open, an event's per-window arrival position is simply
//! `slot - window.start` — no per-window bookkeeping beyond the start slot.
//!
//! Shedding decisions are per (event, window): an event can be dropped from
//! one window and kept in another. The ring therefore stores every assigned
//! event and each window records *its own* drops in a [`DropSet`] — an
//! adaptive set of dropped positions (sorted list under light shedding, one
//! bit per position under heavy shedding) that is merged away when the
//! window closes.
//!
//! The pruning invariant: the ring retains exactly the slots at or above the
//! oldest open window's start (everything below can no longer be referenced,
//! because windows close in open order). The operator calls
//! [`EventRing::release_before`] after every window close, so the resident
//! entry count is bounded by the span of a single window plus slack — not by
//! the window span times the overlap factor.
//!
//! Match-on-close never rescans a window: the ring also indexes, per pattern
//! step class, the slots of the events that class admits. Each event is
//! classified once when it is appended; closing a window walks those
//! per-step occurrences inside `[start, start + assigned)` and skips the
//! window's drops (see `matcher::IndexedMatcher`).
//!
//! [`WindowEntry`]: crate::WindowEntry

use espice_events::Event;
use std::collections::VecDeque;

/// Global index of a slot in an operator's [`EventRing`]. Slot numbers are
/// assigned once per appended event and never reused, so they stay valid
/// across pruning.
pub type SlotIndex = u64;

/// The shared, prunable event store of one operator, with its step
/// occurrence index.
///
/// Next to the events the ring keeps one occurrence list per *step class*
/// of the operator's pattern (see `matcher::IndexedMatcher`): the slots of
/// the resident events that class admits, in slot order. The operator
/// classifies each event once when it appends it, and match-on-close walks
/// these lists instead of rescanning the window. Pruning pops the lists
/// together with the events, so they never reference a released slot.
#[derive(Debug)]
pub struct EventRing {
    events: VecDeque<Event>,
    /// Global slot index of `events.front()`.
    base: SlotIndex,
    /// Per step class, the resident slots whose event the class admits.
    occurrences: Vec<VecDeque<SlotIndex>>,
}

impl EventRing {
    /// An empty ring whose next slot is 0, indexing `classes` step classes.
    pub fn new(classes: usize) -> Self {
        EventRing { events: VecDeque::new(), base: 0, occurrences: vec![VecDeque::new(); classes] }
    }

    /// The slot index the next appended event will receive.
    pub fn next_slot(&self) -> SlotIndex {
        self.base + self.events.len() as SlotIndex
    }

    /// Appends one event, returning its slot index.
    pub fn push(&mut self, event: Event) -> SlotIndex {
        let slot = self.next_slot();
        self.events.push_back(event);
        slot
    }

    /// Records that step class `class` admits the event at `slot`. Slots of
    /// one class must be recorded in increasing order (they are recorded as
    /// events are appended).
    pub fn record(&mut self, class: usize, slot: SlotIndex) {
        let list = &mut self.occurrences[class];
        debug_assert!(list.back().is_none_or(|&last| last < slot), "occurrences out of order");
        list.push_back(slot);
    }

    /// The resident slots step class `class` admits, in increasing order.
    pub fn occurrences(&self, class: usize) -> &VecDeque<SlotIndex> {
        &self.occurrences[class]
    }

    /// The event at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been pruned or not yet been appended.
    pub fn get(&self, slot: SlotIndex) -> &Event {
        assert!(slot >= self.base, "slot {slot} already pruned (base {})", self.base);
        &self.events[(slot - self.base) as usize]
    }

    /// Number of events currently resident.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring currently holds no events.
    #[allow(dead_code)] // API completeness next to `len`; used in tests.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops every event below slot `start` (the start of the oldest window
    /// still open), and its occurrences. No-op if those slots are already
    /// gone.
    pub fn release_before(&mut self, start: SlotIndex) {
        while self.base < start {
            self.events.pop_front().expect("ring slots below a window start are resident");
            self.base += 1;
        }
        for list in &mut self.occurrences {
            while list.front().is_some_and(|&slot| slot < start) {
                list.pop_front();
            }
        }
    }

    /// Drops every resident event (no window is open). Slot numbering
    /// continues where it left off.
    pub fn release_all(&mut self) {
        self.base = self.next_slot();
        self.events.clear();
        self.occurrences.iter_mut().for_each(VecDeque::clear);
    }

    /// Empties the ring **and** restarts slot numbering at 0 (operator
    /// reset).
    pub fn reset(&mut self) {
        self.release_all();
        self.base = 0;
    }
}

/// Minimum recorded drops before the adaptive [`DropSet`] considers
/// switching to the bitset representation: below this the sorted list is
/// always at least as small, and the conversion cost cannot amortise.
const BITSET_MIN_DROPS: usize = 64;

/// Reciprocal of the drop-ratio crossover: the adaptive set converts once
/// `drops ≥ assigned / BITSET_CROSSOVER_DIVISOR`, i.e. at a ~25% drop
/// ratio, where one bit per assigned position beats one `u32` per drop in
/// both footprint and iteration cost (measured by the `window_overlap`
/// bench; see `dropset_crossover_percent` in BENCH_overlap.json).
const BITSET_CROSSOVER_DIVISOR: usize = 4;

/// The concrete storage behind a [`DropSet`].
#[derive(Debug, Clone)]
enum Repr {
    /// Sorted list of dropped positions — O(dropped) space and iteration,
    /// free when shedding is off (the common case).
    Sorted(Vec<u32>),
    /// One bit per window position up to the highest drop — smaller and
    /// faster to merge above the measured ~25% drop-ratio crossover.
    Bitset {
        /// 64 positions per word; bit `p % 64` of word `p / 64` marks
        /// position `p` as dropped.
        words: Vec<u64>,
        /// Number of set bits (maintained incrementally).
        len: usize,
    },
}

/// The positions a single window dropped, with an adaptive representation.
///
/// Positions are recorded in arrival order, so the initial sorted-list
/// representation is sorted by construction and closing a window is a
/// linear merge of the ring slice with this list; it costs nothing when
/// shedding is off — the common case — and iterates in O(dropped). Under
/// heavy shedding one `u32` per drop loses to one *bit* per assigned
/// position: past a minimum drop count (64) **and** the measured ~25%
/// drop-ratio crossover (see BENCH_overlap.json) the set converts itself
/// to a bitset. The `pinned_*` constructors freeze either representation
/// for benchmarking the crossover itself.
#[derive(Debug, Clone)]
pub struct DropSet {
    repr: Repr,
    /// Whether `push` may switch representations (pinned sets never do).
    adaptive: bool,
}

impl Default for DropSet {
    fn default() -> Self {
        Self::new()
    }
}

impl DropSet {
    /// An empty adaptive drop set (sorted list until the crossover).
    pub fn new() -> Self {
        DropSet { repr: Repr::Sorted(Vec::new()), adaptive: true }
    }

    /// An empty drop set pinned to the sorted-list representation — it
    /// never converts, regardless of density (crossover benchmarking).
    pub fn pinned_sorted() -> Self {
        DropSet { repr: Repr::Sorted(Vec::new()), adaptive: false }
    }

    /// An empty drop set pinned to the bitset representation from the
    /// first push (crossover benchmarking).
    pub fn pinned_bitset() -> Self {
        DropSet { repr: Repr::Bitset { words: Vec::new(), len: 0 }, adaptive: false }
    }

    /// Whether the set currently uses the bitset representation.
    pub fn is_bitset(&self) -> bool {
        matches!(self.repr, Repr::Bitset { .. })
    }

    /// Records that `position` was dropped. Positions must be recorded in
    /// increasing order (they arrive in arrival order). An adaptive set
    /// converts to the bitset here once the drop ratio `len / (position +
    /// 1)` crosses the measured threshold.
    pub fn push(&mut self, position: usize) {
        let position = u32::try_from(position).expect("window positions fit in u32");
        match &mut self.repr {
            Repr::Sorted(positions) => {
                debug_assert!(
                    positions.last().is_none_or(|&last| last < position),
                    "drop positions must be recorded in increasing order"
                );
                positions.push(position);
                // `position + 1` bounds the assigned count from below, so
                // this triggers at the true drop ratio or denser.
                if self.adaptive
                    && positions.len() >= BITSET_MIN_DROPS
                    && positions.len() * BITSET_CROSSOVER_DIVISOR > position as usize
                {
                    let mut words = vec![0u64; position as usize / 64 + 1];
                    for &p in positions.iter() {
                        words[p as usize / 64] |= 1 << (p % 64);
                    }
                    self.repr = Repr::Bitset { words, len: positions.len() };
                }
            }
            Repr::Bitset { words, len } => {
                let word = position as usize / 64;
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let bit = 1u64 << (position % 64);
                debug_assert!(
                    words[word] & bit == 0,
                    "drop positions must be recorded in increasing order"
                );
                words[word] |= bit;
                *len += 1;
            }
        }
    }

    /// Records that the `run_len` consecutive positions starting at `start`
    /// were all dropped — the fast path for the compiled decision kernel,
    /// whose verdict-table walk emits drops as monotone runs. Equivalent to
    /// `run_len` calls to [`push`](DropSet::push) with consecutive
    /// positions, under the same increasing-order contract: `start` must
    /// exceed every previously recorded position.
    pub fn push_run(&mut self, start: usize, run_len: usize) {
        if run_len == 0 {
            return;
        }
        let first = u32::try_from(start).expect("window positions fit in u32");
        let last = u32::try_from(start + run_len - 1).expect("window positions fit in u32");
        match &mut self.repr {
            Repr::Sorted(positions) => {
                debug_assert!(
                    positions.last().is_none_or(|&p| p < first),
                    "drop positions must be recorded in increasing order"
                );
                positions.extend(first..=last);
                // Same crossover test as `push`, evaluated once against the
                // run's final position instead of per element.
                if self.adaptive
                    && positions.len() >= BITSET_MIN_DROPS
                    && positions.len() * BITSET_CROSSOVER_DIVISOR > last as usize
                {
                    let mut words = vec![0u64; last as usize / 64 + 1];
                    for &p in positions.iter() {
                        words[p as usize / 64] |= 1 << (p % 64);
                    }
                    self.repr = Repr::Bitset { words, len: positions.len() };
                }
            }
            Repr::Bitset { words, len } => {
                let first_word = first as usize / 64;
                let last_word = last as usize / 64;
                if last_word >= words.len() {
                    words.resize(last_word + 1, 0);
                }
                let head_mask = !0u64 << (first % 64);
                let tail_mask = !0u64 >> (63 - last % 64);
                if first_word == last_word {
                    let mask = head_mask & tail_mask;
                    debug_assert!(
                        words[first_word] & mask == 0,
                        "drop positions must be recorded in increasing order"
                    );
                    words[first_word] |= mask;
                } else {
                    debug_assert!(
                        words[first_word] & head_mask == 0
                            && words[first_word + 1..].iter().all(|&w| w == 0),
                        "drop positions must be recorded in increasing order"
                    );
                    words[first_word] |= head_mask;
                    for word in &mut words[first_word + 1..last_word] {
                        *word = !0;
                    }
                    words[last_word] |= tail_mask;
                }
                *len += run_len;
            }
        }
    }

    /// Records a **retroactive** drop: `position` was kept at decision time
    /// and is dropped after the fact (partial-match shedding evicting a
    /// match whose constituents are no longer worth keeping). Unlike
    /// [`push`](DropSet::push) there is no ordering contract — the position
    /// is inserted at its sorted place — and inserting an already-dropped
    /// position is a no-op. Does not trigger the adaptive conversion:
    /// retro-drops are rare relative to decision-time drops, and the next
    /// ordinary `push` re-evaluates the crossover anyway.
    pub fn insert(&mut self, position: usize) {
        let position = u32::try_from(position).expect("window positions fit in u32");
        match &mut self.repr {
            Repr::Sorted(positions) => {
                if let Err(index) = positions.binary_search(&position) {
                    positions.insert(index, position);
                }
            }
            Repr::Bitset { words, len } => {
                let word = position as usize / 64;
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let bit = 1u64 << (position % 64);
                if words[word] & bit == 0 {
                    words[word] |= bit;
                    *len += 1;
                }
            }
        }
    }

    /// Whether `position` is recorded as dropped.
    pub fn contains(&self, position: usize) -> bool {
        let Ok(position) = u32::try_from(position) else {
            return false;
        };
        match &self.repr {
            Repr::Sorted(positions) => positions.binary_search(&position).is_ok(),
            Repr::Bitset { words, .. } => {
                let word = position as usize / 64;
                word < words.len() && words[word] & (1 << (position % 64)) != 0
            }
        }
    }

    /// Number of dropped positions.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(positions) => positions.len(),
            Repr::Bitset { len, .. } => *len,
        }
    }

    /// Whether nothing was dropped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dropped positions in increasing order (either representation
    /// iterates ascending).
    pub fn iter(&self) -> DropIter<'_> {
        DropIter {
            inner: match &self.repr {
                Repr::Sorted(positions) => IterRepr::Sorted(positions.iter()),
                Repr::Bitset { words, .. } => IterRepr::Bitset {
                    words,
                    word_index: 0,
                    current: words.first().copied().unwrap_or(0),
                },
            },
        }
    }
}

/// Iterator over a [`DropSet`]'s positions in increasing order.
#[derive(Debug)]
pub struct DropIter<'a> {
    inner: IterRepr<'a>,
}

#[derive(Debug)]
enum IterRepr<'a> {
    Sorted(std::slice::Iter<'a, u32>),
    Bitset {
        words: &'a [u64],
        /// Index of the word `current` was loaded from.
        word_index: usize,
        /// Remaining bits of the current word (consumed low to high).
        current: u64,
    },
}

impl Iterator for DropIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.inner {
            IterRepr::Sorted(iter) => iter.next().copied(),
            IterRepr::Bitset { words, word_index, current } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros();
                    *current &= *current - 1;
                    return Some(*word_index as u32 * 64 + bit);
                }
                *word_index += 1;
                if *word_index >= words.len() {
                    return None;
                }
                *current = words[*word_index];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{EventType, Timestamp};

    fn ev(seq: u64) -> Event {
        Event::new(EventType::from_index(0), Timestamp::from_secs(seq), seq)
    }

    #[test]
    fn slots_are_stable_across_pruning() {
        let mut ring = EventRing::new(0);
        for seq in 0..10 {
            assert_eq!(ring.push(ev(seq)), seq);
        }
        ring.release_before(4);
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.next_slot(), 10);
        let seqs: Vec<u64> = (5..8).map(|slot| ring.get(slot).seq()).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        // Releasing below the current base is a no-op.
        ring.release_before(2);
        assert_eq!(ring.len(), 6);
    }

    #[test]
    fn occurrences_are_pruned_with_their_slots() {
        let mut ring = EventRing::new(2);
        for seq in 0..10 {
            let slot = ring.push(ev(seq));
            ring.record((seq % 2) as usize, slot);
            if seq % 3 == 0 {
                ring.record(1 - (seq % 2) as usize, slot);
            }
        }
        let listed = |ring: &EventRing, class| ring.occurrences(class).iter().copied().collect();
        let evens: Vec<u64> = listed(&ring, 0);
        assert_eq!(evens, vec![0, 2, 3, 4, 6, 8, 9]);
        ring.release_before(4);
        assert_eq!(listed(&ring, 0), vec![4, 6, 8, 9]);
        assert_eq!(listed(&ring, 1), vec![5, 6, 7, 9]);
        ring.release_all();
        assert!(ring.occurrences(0).is_empty() && ring.occurrences(1).is_empty());
        assert_eq!(ring.next_slot(), 10);
    }

    #[test]
    fn release_all_keeps_slot_numbering() {
        let mut ring = EventRing::new(0);
        ring.push(ev(0));
        ring.push(ev(1));
        ring.release_all();
        assert!(ring.is_empty());
        assert_eq!(ring.next_slot(), 2);
        assert_eq!(ring.push(ev(2)), 2);
    }

    #[test]
    fn reset_restarts_numbering() {
        let mut ring = EventRing::new(1);
        let slot = ring.push(ev(0));
        ring.record(0, slot);
        ring.reset();
        assert!(ring.is_empty());
        assert!(ring.occurrences(0).is_empty());
        assert_eq!(ring.next_slot(), 0);
    }

    #[test]
    #[should_panic(expected = "already pruned")]
    fn get_rejects_pruned_slots() {
        let mut ring = EventRing::new(0);
        for seq in 0..4 {
            ring.push(ev(seq));
        }
        ring.release_before(2);
        let _ = ring.get(1);
    }

    #[test]
    fn drop_set_iterates_in_order() {
        let mut drops = DropSet::new();
        assert!(drops.is_empty());
        drops.push(1);
        drops.push(4);
        drops.push(9);
        assert_eq!(drops.len(), 3);
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
    }

    #[test]
    fn sparse_drop_set_stays_sorted() {
        // Plenty of drops, but density stays well under the crossover.
        let mut drops = DropSet::new();
        for i in 0..200 {
            drops.push(i * 10);
        }
        assert!(!drops.is_bitset());
        assert_eq!(drops.len(), 200);
    }

    #[test]
    fn dense_drop_set_converts_to_bitset() {
        let mut drops = DropSet::new();
        // Drop every other position: 50% density crosses the ~25%
        // threshold as soon as the minimum drop count is reached.
        for i in 0..(2 * BITSET_MIN_DROPS) {
            drops.push(2 * i);
        }
        assert!(drops.is_bitset());
        assert_eq!(drops.len(), 2 * BITSET_MIN_DROPS);
        let expected: Vec<u32> = (0..2 * BITSET_MIN_DROPS as u32).map(|i| 2 * i).collect();
        assert_eq!(drops.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn both_representations_agree_after_conversion() {
        let mut adaptive = DropSet::new();
        let mut sorted = DropSet::pinned_sorted();
        let mut bitset = DropSet::pinned_bitset();
        // Dense prefix (forces the adaptive conversion), sparse tail.
        let positions: Vec<usize> = (0..100).chain((100..2000).filter(|p| p % 13 == 0)).collect();
        for &p in &positions {
            adaptive.push(p);
            sorted.push(p);
            bitset.push(p);
        }
        assert!(adaptive.is_bitset());
        assert!(!sorted.is_bitset());
        assert!(bitset.is_bitset());
        let expected: Vec<u32> = positions.iter().map(|&p| p as u32).collect();
        assert_eq!(adaptive.iter().collect::<Vec<_>>(), expected);
        assert_eq!(sorted.iter().collect::<Vec<_>>(), expected);
        assert_eq!(bitset.iter().collect::<Vec<_>>(), expected);
        assert_eq!(adaptive.len(), positions.len());
        assert_eq!(bitset.len(), positions.len());
    }

    #[test]
    fn push_run_matches_per_position_pushes() {
        // Mixed runs and singletons across word boundaries, in both pinned
        // representations and the adaptive one.
        let runs: &[(usize, usize)] = &[(0, 3), (10, 1), (60, 10), (128, 64), (300, 0), (500, 2)];
        let mut by_run_adaptive = DropSet::new();
        let mut by_run_sorted = DropSet::pinned_sorted();
        let mut by_run_bitset = DropSet::pinned_bitset();
        let mut by_push = DropSet::pinned_sorted();
        for &(start, len) in runs {
            by_run_adaptive.push_run(start, len);
            by_run_sorted.push_run(start, len);
            by_run_bitset.push_run(start, len);
            for p in start..start + len {
                by_push.push(p);
            }
        }
        let expected: Vec<u32> = by_push.iter().collect();
        assert_eq!(by_run_adaptive.iter().collect::<Vec<_>>(), expected);
        assert_eq!(by_run_sorted.iter().collect::<Vec<_>>(), expected);
        assert_eq!(by_run_bitset.iter().collect::<Vec<_>>(), expected);
        assert_eq!(by_run_adaptive.len(), expected.len());
        assert_eq!(by_run_bitset.len(), expected.len());
    }

    #[test]
    fn push_run_triggers_adaptive_conversion() {
        let mut drops = DropSet::new();
        // One dense run comfortably past both crossover conditions.
        drops.push_run(0, 2 * BITSET_MIN_DROPS);
        assert!(drops.is_bitset());
        assert_eq!(drops.len(), 2 * BITSET_MIN_DROPS);
        // Appending another run on the bitset side keeps iterating in order.
        drops.push_run(200, 70);
        let expected: Vec<u32> = (0..2 * BITSET_MIN_DROPS as u32).chain(200..270).collect();
        assert_eq!(drops.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn insert_is_order_agnostic_and_idempotent() {
        for mut drops in [DropSet::new(), DropSet::pinned_bitset()] {
            drops.push(10);
            drops.push(40);
            // Retro-drops arrive out of order, possibly duplicated.
            drops.insert(25);
            drops.insert(3);
            drops.insert(25);
            drops.insert(40);
            assert_eq!(drops.iter().collect::<Vec<_>>(), vec![3, 10, 25, 40]);
            assert_eq!(drops.len(), 4);
            for p in [3usize, 10, 25, 40] {
                assert!(drops.contains(p));
            }
            for p in [0usize, 11, 26, 41, 1000] {
                assert!(!drops.contains(p));
            }
            // Ordinary pushes keep working past the inserted positions.
            drops.push(50);
            assert!(drops.contains(50));
            assert_eq!(drops.len(), 5);
        }
    }

    #[test]
    fn insert_into_bitset_extends_words() {
        let mut drops = DropSet::pinned_bitset();
        drops.insert(200);
        drops.insert(0);
        assert!(drops.contains(200));
        assert!(drops.contains(0));
        assert!(!drops.contains(199));
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![0, 200]);
    }

    #[test]
    fn pinned_sorted_never_converts() {
        let mut drops = DropSet::pinned_sorted();
        for i in 0..1000 {
            drops.push(i);
        }
        assert!(!drops.is_bitset());
        assert_eq!(drops.iter().collect::<Vec<_>>(), (0..1000).collect::<Vec<_>>());
    }
}
