//! The utility model: utility table `UT`, position shares `S(T, P)` and the
//! statistics collector that builds them from observed windows and detected
//! complex events (paper §3.3).

use crate::{Cdt, ModelConfig, NormalisationMode};
use espice_cep::{ComplexEvent, Decision, WindowEventDecider, WindowId, WindowMeta};
use espice_events::{Event, EventType};
use std::collections::HashMap;
use std::ops::Range;

/// Maps a raw window position to the range of model bins it covers, given the
/// (predicted) size of the window the event belongs to.
///
/// * `window_size == positions`: one position ↦ one bin.
/// * `window_size > positions` (scale down): several window positions map to
///   the same bin.
/// * `window_size < positions` (scale up): one window position maps to a range
///   of bins; lookups average over the range (paper §3.6).
fn bin_range(config: &ModelConfig, position: usize, window_size: usize) -> Range<usize> {
    let n = config.positions;
    let ws = window_size.max(1);
    let start = position * n / ws;
    let end = ((position + 1) * n / ws).max(start + 1);
    let start_bin = config.bin_of(start.min(n.saturating_sub(1)));
    let end_bin = config.bin_of((end - 1).min(n.saturating_sub(1))) + 1;
    start_bin..end_bin
}

/// The utility table `UT(T, P)`: for every event type and (binned) window
/// position, the probability — scaled to an integer in `[0, 100]` — that an
/// event of that type at that position contributes to a complex event.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityTable {
    bins: usize,
    /// `utilities[type][bin]` in `[0, 100]`.
    utilities: Vec<Vec<u8>>,
}

impl UtilityTable {
    /// Builds the table from raw contribution counts (`match_counts[type][bin]`)
    /// and window composition counts (`window_counts[type][bin]`, used by the
    /// conditional-probability normalisation).
    pub fn from_counts(
        match_counts: &[Vec<f64>],
        window_counts: &[Vec<f64>],
        bins: usize,
        mode: NormalisationMode,
    ) -> Self {
        let utilities = match mode {
            NormalisationMode::Conditional => match_counts
                .iter()
                .enumerate()
                .map(|(ty, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(bin, &c)| {
                            let occurrences = window_counts
                                .get(ty)
                                .and_then(|r| r.get(bin))
                                .copied()
                                .unwrap_or(0.0);
                            if occurrences > 0.0 && c > 0.0 {
                                ((c / occurrences * 100.0).round() as u64).min(100) as u8
                            } else {
                                0
                            }
                        })
                        .collect()
                })
                .collect(),
            NormalisationMode::PerTypeSum => match_counts
                .iter()
                .map(|row| {
                    let total: f64 = row.iter().sum();
                    row.iter()
                        .map(|&c| if total > 0.0 { (c / total * 100.0).round() as u8 } else { 0 })
                        .collect()
                })
                .collect(),
            NormalisationMode::GlobalMax => {
                let max =
                    match_counts.iter().flat_map(|r| r.iter()).copied().fold(0.0f64, f64::max);
                match_counts
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&c| if max > 0.0 { (c / max * 100.0).round() as u8 } else { 0 })
                            .collect()
                    })
                    .collect()
            }
        };
        UtilityTable { bins, utilities }
    }

    /// Builds a table directly from per-cell utilities (`utilities[type][bin]`
    /// in `[0, 100]`). This is how the family backends materialise *derived*
    /// tables — per-operator boosts (hSPICE) or shrunken model estimates
    /// (gSPICE) — that plug into the same lookup, CDT and compilation
    /// machinery as a trained table.
    pub(crate) fn from_utilities(bins: usize, utilities: Vec<Vec<u8>>) -> Self {
        debug_assert!(utilities.iter().all(|row| row.len() == bins));
        UtilityTable { bins, utilities }
    }

    /// Number of event types (the table's `M` dimension).
    pub fn num_types(&self) -> usize {
        self.utilities.len()
    }

    /// Number of (binned) positions (the table's `N` dimension).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The utility of event type `ty` at bin `bin`. Unknown types and
    /// out-of-range bins have utility 0.
    pub fn utility(&self, ty: EventType, bin: usize) -> u8 {
        self.utility_by_index(ty.index(), bin)
    }

    /// Like [`utility`](Self::utility) but addressed by the raw type index.
    pub fn utility_by_index(&self, ty_index: usize, bin: usize) -> u8 {
        self.utilities.get(ty_index).and_then(|row| row.get(bin)).copied().unwrap_or(0)
    }

    /// The full utility row of a type (empty slice for unknown types).
    pub fn row(&self, ty: EventType) -> &[u8] {
        self.utilities.get(ty.index()).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Position shares `S(T, P)`: the expected number of events of type `T` per
/// window in (binned) position `P`, estimated from the observed window
/// compositions. With bin size 1 and a fixed window size the shares of one
/// position sum to 1 across types; with larger bins they sum to the bin size.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionShares {
    bins: usize,
    /// `shares[type][bin]`.
    shares: Vec<Vec<f32>>,
}

impl PositionShares {
    /// Builds the shares from raw composition counts and the number of
    /// observed windows.
    pub fn from_counts(counts: &[Vec<f64>], bins: usize, windows: u64) -> Self {
        let divisor = windows.max(1) as f64;
        let shares =
            counts.iter().map(|row| row.iter().map(|&c| (c / divisor) as f32).collect()).collect();
        PositionShares { bins, shares }
    }

    /// Number of event types covered.
    pub fn num_types(&self) -> usize {
        self.shares.len()
    }

    /// Number of (binned) positions covered.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The share of event type `ty` at bin `bin` (0 for unknown cells).
    pub fn share(&self, ty: EventType, bin: usize) -> f64 {
        self.share_by_index(ty.index(), bin)
    }

    /// Like [`share`](Self::share) but addressed by the raw type index.
    pub fn share_by_index(&self, ty_index: usize, bin: usize) -> f64 {
        self.shares.get(ty_index).and_then(|row| row.get(bin)).copied().unwrap_or(0.0) as f64
    }

    /// Expected number of events of type `ty` per window (the per-type window
    /// frequency used by the baseline shedder).
    pub fn expected_per_window(&self, ty: EventType) -> f64 {
        self.shares.get(ty.index()).map(|row| row.iter().map(|&s| s as f64).sum()).unwrap_or(0.0)
    }

    /// Expected window size: total shares across all types and bins.
    pub fn expected_window_size(&self) -> f64 {
        self.shares.iter().flat_map(|r| r.iter()).map(|&s| s as f64).sum()
    }
}

/// A trained utility model: everything the load shedder needs at run time.
#[derive(Debug, Clone)]
pub struct UtilityModel {
    config: ModelConfig,
    ut: UtilityTable,
    shares: PositionShares,
    avg_window_size: f64,
    windows_observed: u64,
    complex_events_observed: u64,
}

impl UtilityModel {
    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The utility table.
    pub fn utility_table(&self) -> &UtilityTable {
        &self.ut
    }

    /// The position shares.
    pub fn position_shares(&self) -> &PositionShares {
        &self.shares
    }

    /// Average size of the windows observed during training (the paper's `N`
    /// for variable-size windows).
    pub fn average_window_size(&self) -> f64 {
        self.avg_window_size
    }

    /// Number of windows observed during training.
    pub fn windows_observed(&self) -> u64 {
        self.windows_observed
    }

    /// Number of complex events observed during training.
    pub fn complex_events_observed(&self) -> u64 {
        self.complex_events_observed
    }

    /// The utility `U(T, P)` of an event of type `ty` at raw window position
    /// `position` in a window of (predicted) size `window_size`.
    ///
    /// The position is scaled to the model's `N` positions; when scaling up
    /// (window smaller than `N`) the utility is the average of all covered
    /// cells (paper §3.6).
    pub fn utility(&self, ty: EventType, position: usize, window_size: usize) -> u8 {
        self.utility_in_row(self.utility_row(ty), position, window_size)
    }

    /// The utility-table row of `ty` (empty for unknown types). Fetch the row
    /// once per event and reuse it with
    /// [`utility_in_row`](Self::utility_in_row) when looking the same event up
    /// against many windows — this is the amortisation behind the shedders'
    /// batched `decide_batch` path.
    pub fn utility_row(&self, ty: EventType) -> &[u8] {
        self.ut.row(ty)
    }

    /// [`utility`](Self::utility) against a prefetched utility row, skipping
    /// the per-lookup type indexing.
    pub fn utility_in_row(&self, row: &[u8], position: usize, window_size: usize) -> u8 {
        let range = bin_range(&self.config, position, window_size);
        let len = range.len();
        if len == 1 {
            return row.get(range.start).copied().unwrap_or(0);
        }
        let sum: u32 = range.map(|bin| row.get(bin).copied().unwrap_or(0) as u32).sum();
        (sum / len as u32) as u8
    }

    /// The `CDT` over the whole window (a single partition).
    pub fn cdt_full(&self) -> Cdt {
        Cdt::from_model_range(&self.ut, &self.shares, 0..self.config.bins())
    }

    /// The `CDT`s of `partitions` equally sized window partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is 0.
    pub fn cdt_partitions(&self, partitions: usize) -> Vec<Cdt> {
        assert!(partitions >= 1, "need at least one partition");
        let bins = self.config.bins();
        (0..partitions)
            .map(|p| {
                // With more partitions than bins some partitions own no bin at
                // all; their (empty) CDT is never consulted because
                // `partition_of` only maps to partitions that own bins.
                let start = p * bins / partitions;
                let end = (((p + 1) * bins / partitions).min(bins)).max(start);
                Cdt::from_model_range(&self.ut, &self.shares, start..end)
            })
            .collect()
    }

    /// The partition index (out of `partitions`) of an event at raw window
    /// position `position` in a window of size `window_size`. The mapping is
    /// the exact inverse of the bin ranges used by
    /// [`cdt_partitions`](Self::cdt_partitions): the returned partition is the
    /// one whose bin range contains the event's bin.
    pub fn partition_of(&self, position: usize, window_size: usize, partitions: usize) -> usize {
        let bins = self.config.bins();
        let bin = bin_range(&self.config, position, window_size).start;
        (((bin + 1) * partitions).saturating_sub(1) / bins).min(partitions - 1)
    }

    /// Memory footprint of the lookup structures in bytes (used by the
    /// overhead experiments).
    pub fn memory_bytes(&self) -> usize {
        self.ut.num_types()
            * self.ut.bins()
            * (std::mem::size_of::<u8>() + std::mem::size_of::<f32>())
    }
}

/// Collects training statistics and builds [`UtilityModel`]s.
///
/// The builder plugs into the CEP operator as a [`WindowEventDecider`] that
/// keeps every event while recording window compositions; detected complex
/// events are fed back via [`observe_complex`](Self::observe_complex).
/// Model building is "not a time-critical task" (paper §3.1) and happens in
/// [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    config: ModelConfig,
    /// `match_counts[type][bin]`: contributions to complex events.
    match_counts: Vec<Vec<f64>>,
    /// `window_counts[type][bin]`: window composition counts.
    window_counts: Vec<Vec<f64>>,
    /// Sizes of closed windows, needed to scale constituent positions.
    closed_window_sizes: HashMap<WindowId, usize>,
    windows_observed: u64,
    window_size_sum: f64,
    complex_observed: u64,
}

impl ModelBuilder {
    /// Creates a builder for `type_count` event types (rows grow automatically
    /// if more types appear).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ModelConfig, type_count: usize) -> Self {
        config.validate();
        let bins = config.bins();
        ModelBuilder {
            config,
            match_counts: vec![vec![0.0; bins]; type_count],
            window_counts: vec![vec![0.0; bins]; type_count],
            closed_window_sizes: HashMap::new(),
            windows_observed: 0,
            window_size_sum: 0.0,
            complex_observed: 0,
        }
    }

    fn ensure_type(&mut self, ty_index: usize) {
        let bins = self.config.bins();
        while self.match_counts.len() <= ty_index {
            self.match_counts.push(vec![0.0; bins]);
            self.window_counts.push(vec![0.0; bins]);
        }
    }

    /// Records the constituents of a detected complex event.
    pub fn observe_complex(&mut self, complex: &ComplexEvent) {
        self.complex_observed += 1;
        let window_size = self
            .closed_window_sizes
            .get(&complex.window_id())
            .copied()
            .unwrap_or(self.config.positions);
        for constituent in complex.constituents() {
            let ty_index = constituent.event_type.index();
            self.ensure_type(ty_index);
            let range = bin_range(&self.config, constituent.position, window_size);
            let weight = 1.0 / range.len() as f64;
            for bin in range {
                self.match_counts[ty_index][bin] += weight;
            }
        }
    }

    /// Number of windows observed so far.
    pub fn windows_observed(&self) -> u64 {
        self.windows_observed
    }

    /// Number of complex events observed so far.
    pub fn complex_events_observed(&self) -> u64 {
        self.complex_observed
    }

    /// Average size of the observed windows (the `N` the paper derives by
    /// profiling the operator); falls back to the configured position count
    /// before any window has closed.
    pub fn average_window_size(&self) -> f64 {
        if self.windows_observed == 0 {
            self.config.positions as f64
        } else {
            self.window_size_sum / self.windows_observed as f64
        }
    }

    /// Clears all collected statistics (model retraining after a distribution
    /// change, paper §3.6).
    pub fn reset(&mut self) {
        for row in self.match_counts.iter_mut().chain(self.window_counts.iter_mut()) {
            row.iter_mut().for_each(|c| *c = 0.0);
        }
        self.closed_window_sizes.clear();
        self.windows_observed = 0;
        self.window_size_sum = 0.0;
        self.complex_observed = 0;
    }

    /// Builds the utility model from the collected statistics.
    pub fn build(&self) -> UtilityModel {
        let bins = self.config.bins();
        // Conditional normalisation compares contribution counts against
        // per-window occurrence counts; scale the raw composition counts down
        // to per-window expectations first.
        let windows = self.windows_observed.max(1) as f64;
        let per_window_counts: Vec<Vec<f64>> = self
            .window_counts
            .iter()
            .map(|row| row.iter().map(|&c| c / windows).collect())
            .collect();
        let per_window_match_counts: Vec<Vec<f64>> = self
            .match_counts
            .iter()
            .map(|row| row.iter().map(|&c| c / windows).collect())
            .collect();
        UtilityModel {
            config: self.config,
            ut: UtilityTable::from_counts(
                &per_window_match_counts,
                &per_window_counts,
                bins,
                self.config.normalisation,
            ),
            shares: PositionShares::from_counts(&self.window_counts, bins, self.windows_observed),
            avg_window_size: self.average_window_size(),
            windows_observed: self.windows_observed,
            complex_events_observed: self.complex_observed,
        }
    }
}

impl WindowEventDecider for ModelBuilder {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        let ty_index = event.event_type().index();
        self.ensure_type(ty_index);
        let range = bin_range(&self.config, position, meta.predicted_size);
        let weight = 1.0 / range.len() as f64;
        for bin in range {
            self.window_counts[ty_index][bin] += weight;
        }
        Decision::Keep
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        self.closed_window_sizes.insert(meta.id, size);
        self.windows_observed += 1;
        self.window_size_sum += size as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_cep::Constituent;
    use espice_events::Timestamp;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn meta(id: u64, predicted: usize) -> WindowMeta {
        WindowMeta {
            id,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: predicted,
        }
    }

    fn feed_window(builder: &mut ModelBuilder, id: u64, types: &[u32]) {
        let m = meta(id, types.len());
        for (pos, &t) in types.iter().enumerate() {
            let e = Event::new(ty(t), Timestamp::from_secs(pos as u64), pos as u64);
            assert!(builder.decide(&m, pos, &e).is_keep());
        }
        builder.window_closed(&m, types.len());
    }

    fn complex(id: u64, constituents: &[(u64, u32, usize)]) -> ComplexEvent {
        ComplexEvent::new(
            id,
            Timestamp::ZERO,
            constituents
                .iter()
                .map(|&(seq, t, pos)| Constituent { seq, event_type: ty(t), position: pos })
                .collect(),
        )
    }

    #[test]
    fn table_1_shape_per_type_sum_normalisation() {
        // Windows of 5 events, types A=0, B=1. A contributes mostly at
        // position 0, B mostly at position 1 — a miniature Table 1.
        let config = ModelConfig::with_positions(5);
        let mut builder = ModelBuilder::new(config, 2);
        for w in 0..10u64 {
            feed_window(&mut builder, w, &[0, 1, 0, 1, 0]);
            // 7 of 10 windows: A@0 with B@1; 3 of 10: A@2 with B@3.
            if w < 7 {
                builder.observe_complex(&complex(w, &[(0, 0, 0), (1, 1, 1)]));
            } else {
                builder.observe_complex(&complex(w, &[(0, 0, 2), (1, 1, 3)]));
            }
        }
        let model = builder.build();
        let ut = model.utility_table();
        assert_eq!(ut.utility(ty(0), 0), 70);
        assert_eq!(ut.utility(ty(0), 2), 30);
        assert_eq!(ut.utility(ty(1), 1), 70);
        assert_eq!(ut.utility(ty(1), 3), 30);
        assert_eq!(ut.utility(ty(0), 4), 0);
        // Row sums are ≈ 100 under per-type-sum normalisation.
        let row_sum: u32 = ut.row(ty(0)).iter().map(|&u| u as u32).sum();
        assert!((99..=101).contains(&row_sum));
    }

    #[test]
    fn global_max_normalisation_scales_by_largest_cell() {
        let config = ModelConfig {
            positions: 3,
            normalisation: NormalisationMode::GlobalMax,
            ..ModelConfig::default()
        };
        let mut builder = ModelBuilder::new(config, 2);
        for w in 0..4u64 {
            feed_window(&mut builder, w, &[0, 1, 1]);
            builder.observe_complex(&complex(w, &[(0, 0, 0)]));
            if w == 0 {
                builder.observe_complex(&complex(w, &[(1, 1, 1)]));
            }
        }
        let model = builder.build();
        assert_eq!(model.utility_table().utility(ty(0), 0), 100);
        assert_eq!(model.utility_table().utility(ty(1), 1), 25);
    }

    #[test]
    fn position_shares_reflect_window_composition() {
        let config = ModelConfig::with_positions(4);
        let mut builder = ModelBuilder::new(config, 2);
        // Two windows: [A B A B] and [A A A B].
        feed_window(&mut builder, 0, &[0, 1, 0, 1]);
        feed_window(&mut builder, 1, &[0, 0, 0, 1]);
        let model = builder.build();
        let shares = model.position_shares();
        assert!((shares.share(ty(0), 0) - 1.0).abs() < 1e-6);
        assert!((shares.share(ty(0), 1) - 0.5).abs() < 1e-6);
        assert!((shares.share(ty(1), 3) - 1.0).abs() < 1e-6);
        assert!((shares.expected_per_window(ty(0)) - 2.5).abs() < 1e-6);
        assert!((shares.expected_window_size() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_types_have_zero_utility_and_share() {
        let config = ModelConfig::with_positions(4);
        let builder = ModelBuilder::new(config, 1);
        let model = builder.build();
        assert_eq!(model.utility(ty(9), 0, 4), 0);
        assert_eq!(model.position_shares().share(ty(9), 0), 0.0);
    }

    #[test]
    fn scaling_down_maps_multiple_positions_to_one_bin() {
        // Model N = 4, incoming window of 8 events: positions 0..8 map to bins 0..4.
        let config = ModelConfig::with_positions(4);
        let mut builder = ModelBuilder::new(config, 1);
        let m = meta(0, 8);
        for pos in 0..8 {
            let e = Event::new(ty(0), Timestamp::from_secs(pos as u64), pos as u64);
            let _ = builder.decide(&m, pos, &e);
        }
        builder.window_closed(&m, 8);
        builder.observe_complex(&complex(0, &[(6, 0, 6)]));
        let model = builder.build();
        // Position 6 of 8 scales to model position 3; two of the window's
        // events land in that model bin and one of them contributed, so the
        // conditional utility is 50.
        assert_eq!(model.utility_table().utility(ty(0), 3), 50);
        // Each model bin received two of the eight events.
        assert!((model.position_shares().share(ty(0), 0) - 2.0).abs() < 1e-6);
        // Lookup with the same window size returns the learned value.
        assert_eq!(model.utility(ty(0), 6, 8), 50);
        assert_eq!(model.utility(ty(0), 0, 8), 0);
    }

    #[test]
    fn scaling_up_averages_over_covered_bins() {
        // Model N = 4; training windows of size 4 give utilities [100, 0, 0, 0]
        // for the single type; a lookup in a window of size 2 covers two bins.
        let config = ModelConfig::with_positions(4);
        let mut builder = ModelBuilder::new(config, 1);
        feed_window(&mut builder, 0, &[0, 0, 0, 0]);
        builder.observe_complex(&complex(0, &[(0, 0, 0)]));
        let model = builder.build();
        // Window of 2 events: position 0 covers model positions 0..2 → (100 + 0) / 2.
        assert_eq!(model.utility(ty(0), 0, 2), 50);
        assert_eq!(model.utility(ty(0), 1, 2), 0);
    }

    #[test]
    fn bins_aggregate_neighbouring_positions() {
        let config = ModelConfig { positions: 8, bin_size: 4, ..ModelConfig::default() };
        let mut builder = ModelBuilder::new(config, 1);
        feed_window(&mut builder, 0, &[0; 8]);
        builder.observe_complex(&complex(0, &[(1, 0, 1), (6, 0, 6)]));
        let model = builder.build();
        assert_eq!(model.utility_table().bins(), 2);
        // Positions 1 and 6 land in different bins; each bin holds four events
        // of which one contributed, so the conditional utility is 25.
        assert_eq!(model.utility(ty(0), 0, 8), 25);
        assert_eq!(model.utility(ty(0), 7, 8), 25);
        // A bin's share is the bin size (4 events per window land in each bin).
        assert!((model.position_shares().share(ty(0), 0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn partition_of_assigns_positions_to_partitions() {
        let config = ModelConfig::with_positions(100);
        let builder = ModelBuilder::new(config, 1);
        let model = builder.build();
        assert_eq!(model.partition_of(0, 100, 4), 0);
        assert_eq!(model.partition_of(99, 100, 4), 3);
        assert_eq!(model.partition_of(50, 100, 4), 2);
        // Variable window size: position 10 of a 20-event window is halfway.
        assert_eq!(model.partition_of(10, 20, 4), 2);
    }

    #[test]
    fn cdt_partitions_cover_the_whole_window() {
        let config = ModelConfig::with_positions(10);
        let mut builder = ModelBuilder::new(config, 2);
        feed_window(&mut builder, 0, &[0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
        let model = builder.build();
        let parts = model.cdt_partitions(3);
        assert_eq!(parts.len(), 3);
        let total: f64 = parts.iter().map(Cdt::total).sum();
        assert!((total - 10.0).abs() < 1e-6);
        assert!((model.cdt_full().total() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn average_window_size_tracks_observations() {
        let config = ModelConfig::with_positions(10);
        let mut builder = ModelBuilder::new(config, 1);
        assert_eq!(builder.average_window_size(), 10.0);
        feed_window(&mut builder, 0, &[0; 8]);
        feed_window(&mut builder, 1, &[0; 12]);
        assert_eq!(builder.average_window_size(), 10.0);
        assert_eq!(builder.windows_observed(), 2);
        let model = builder.build();
        assert_eq!(model.average_window_size(), 10.0);
        assert_eq!(model.windows_observed(), 2);
    }

    #[test]
    fn reset_clears_statistics() {
        let config = ModelConfig::with_positions(4);
        let mut builder = ModelBuilder::new(config, 1);
        feed_window(&mut builder, 0, &[0, 0, 0, 0]);
        builder.observe_complex(&complex(0, &[(0, 0, 0)]));
        builder.reset();
        assert_eq!(builder.windows_observed(), 0);
        assert_eq!(builder.complex_events_observed(), 0);
        let model = builder.build();
        assert_eq!(model.utility(ty(0), 0, 4), 0);
    }

    #[test]
    fn memory_footprint_scales_with_dimensions() {
        let config = ModelConfig::with_positions(100);
        let mut builder = ModelBuilder::new(config, 10);
        feed_window(&mut builder, 0, &[0; 100]);
        let model = builder.build();
        assert_eq!(model.memory_bytes(), 10 * 100 * 5);
    }
}
