//! Query definition: pattern + window + matching policies.

use crate::{Pattern, WindowSpec};

/// Selection policy: which event instances participate in a match when
/// several candidates exist (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionPolicy {
    /// The earliest admissible instances are chosen.
    #[default]
    First,
    /// The latest admissible instances are chosen.
    Last,
}

/// Consumption policy: whether events used by one match may be reused by
/// subsequent matches within the same window (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConsumptionPolicy {
    /// Matched events are consumed and cannot participate in further matches.
    #[default]
    Consumed,
    /// Matched events may be reused ("zero consumption").
    Zero,
}

/// Skip semantics between pattern steps.
///
/// All evaluation queries in the paper "skip the intermediate not matching
/// primitive events, i.e., skip-till-next/any-match"; strict contiguity is
/// provided for completeness and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SkipPolicy {
    /// Irrelevant events between matched events are skipped.
    #[default]
    SkipTillNextMatch,
    /// Matched events must be contiguous in the window.
    Contiguous,
}

/// A complete CEP query: what to match ([`Pattern`]), over which portions of
/// the stream ([`WindowSpec`]) and under which matching policies.
///
/// # Example
///
/// ```
/// use espice_cep::{Query, Pattern, PatternStep, WindowSpec, SelectionPolicy};
/// use espice_events::{EventType, SimDuration};
///
/// let str_ev = EventType::from_index(0);
/// let df = [EventType::from_index(1), EventType::from_index(2)];
///
/// // Q1-style query: a striker possession followed by any 2 distinct
/// // defender events within a 15 second window opened on possession events.
/// let query = Query::builder()
///     .pattern(Pattern::new(vec![
///         PatternStep::single(str_ev),
///         PatternStep::any_of(df, 2, true),
///     ]))
///     .window(WindowSpec::time_on_types(vec![str_ev], SimDuration::from_secs(15)))
///     .selection(SelectionPolicy::First)
///     .build();
/// assert_eq!(query.pattern().total_events(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    name: String,
    pattern: Pattern,
    window: WindowSpec,
    selection: SelectionPolicy,
    consumption: ConsumptionPolicy,
    skip: SkipPolicy,
    max_matches_per_window: usize,
}

impl Query {
    /// Starts building a query.
    pub fn builder() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Human-readable query name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The query's pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The query's window specification.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }

    /// The selection policy.
    pub fn selection(&self) -> SelectionPolicy {
        self.selection
    }

    /// The consumption policy.
    pub fn consumption(&self) -> ConsumptionPolicy {
        self.consumption
    }

    /// The skip policy.
    pub fn skip(&self) -> SkipPolicy {
        self.skip
    }

    /// Upper bound on complex events emitted per window.
    ///
    /// The paper's evaluation uses one complex event per window; this is the
    /// default.
    pub fn max_matches_per_window(&self) -> usize {
        self.max_matches_per_window
    }

    /// Returns a copy of this query with a different window specification.
    /// Used by parameter sweeps that vary the window size.
    pub fn with_window(&self, window: WindowSpec) -> Query {
        let mut q = self.clone();
        q.window = window;
        q
    }

    /// Returns a copy of this query with a different selection policy.
    pub fn with_selection(&self, selection: SelectionPolicy) -> Query {
        let mut q = self.clone();
        q.selection = selection;
        q
    }
}

/// Builder for [`Query`] values.
#[derive(Debug, Clone, Default)]
pub struct QueryBuilder {
    name: Option<String>,
    pattern: Option<Pattern>,
    window: Option<WindowSpec>,
    selection: SelectionPolicy,
    consumption: ConsumptionPolicy,
    skip: SkipPolicy,
    max_matches_per_window: Option<usize>,
}

impl QueryBuilder {
    /// Sets the query name.
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_owned());
        self
    }

    /// Sets the pattern (required).
    pub fn pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Sets the window specification (required).
    pub fn window(mut self, window: WindowSpec) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the selection policy (default: [`SelectionPolicy::First`]).
    pub fn selection(mut self, selection: SelectionPolicy) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the consumption policy (default: [`ConsumptionPolicy::Consumed`]).
    pub fn consumption(mut self, consumption: ConsumptionPolicy) -> Self {
        self.consumption = consumption;
        self
    }

    /// Sets the skip policy (default: skip-till-next-match).
    pub fn skip(mut self, skip: SkipPolicy) -> Self {
        self.skip = skip;
        self
    }

    /// Sets the maximum number of complex events per window (default: 1).
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn max_matches_per_window(mut self, max: usize) -> Self {
        assert!(max >= 1, "a query must be allowed to produce at least one match per window");
        self.max_matches_per_window = Some(max);
        self
    }

    /// Finishes building the query.
    ///
    /// # Panics
    ///
    /// Panics if the pattern or the window specification is missing.
    pub fn build(self) -> Query {
        Query {
            name: self.name.unwrap_or_else(|| "query".to_owned()),
            pattern: self.pattern.expect("a query needs a pattern"),
            window: self.window.expect("a query needs a window specification"),
            selection: self.selection,
            consumption: self.consumption,
            skip: self.skip,
            max_matches_per_window: self.max_matches_per_window.unwrap_or(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternStep;
    use espice_events::EventType;

    fn simple_pattern() -> Pattern {
        Pattern::new(vec![PatternStep::single(EventType::from_index(0))])
    }

    #[test]
    fn builder_defaults() {
        let q = Query::builder()
            .pattern(simple_pattern())
            .window(WindowSpec::count_sliding(10, 5))
            .build();
        assert_eq!(q.name(), "query");
        assert_eq!(q.selection(), SelectionPolicy::First);
        assert_eq!(q.consumption(), ConsumptionPolicy::Consumed);
        assert_eq!(q.skip(), SkipPolicy::SkipTillNextMatch);
        assert_eq!(q.max_matches_per_window(), 1);
    }

    #[test]
    fn builder_sets_all_policies() {
        let q = Query::builder()
            .name("Q2")
            .pattern(simple_pattern())
            .window(WindowSpec::count_sliding(10, 5))
            .selection(SelectionPolicy::Last)
            .consumption(ConsumptionPolicy::Zero)
            .skip(SkipPolicy::Contiguous)
            .max_matches_per_window(3)
            .build();
        assert_eq!(q.name(), "Q2");
        assert_eq!(q.selection(), SelectionPolicy::Last);
        assert_eq!(q.consumption(), ConsumptionPolicy::Zero);
        assert_eq!(q.skip(), SkipPolicy::Contiguous);
        assert_eq!(q.max_matches_per_window(), 3);
    }

    #[test]
    #[should_panic(expected = "needs a pattern")]
    fn build_without_pattern_panics() {
        let _ = Query::builder().window(WindowSpec::count_sliding(10, 5)).build();
    }

    #[test]
    #[should_panic(expected = "needs a window")]
    fn build_without_window_panics() {
        let _ = Query::builder().pattern(simple_pattern()).build();
    }

    #[test]
    fn with_window_and_selection_produce_modified_copies() {
        let q = Query::builder()
            .pattern(simple_pattern())
            .window(WindowSpec::count_sliding(10, 5))
            .build();
        let q2 = q.with_window(WindowSpec::count_sliding(20, 10));
        let q3 = q.with_selection(SelectionPolicy::Last);
        assert_ne!(q.window(), q2.window());
        assert_eq!(q.selection(), SelectionPolicy::First);
        assert_eq!(q3.selection(), SelectionPolicy::Last);
    }
}
