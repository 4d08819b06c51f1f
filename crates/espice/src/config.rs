//! Configuration of the utility model.

/// How raw occurrence counts are normalised into the `[0, 100]` utility range
/// of the utility table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NormalisationMode {
    /// Each cell is the conditional probability that an event of this type at
    /// this position contributes to a complex event, given that such an event
    /// occurs there: `match_count(T, P) / window_count(T, P)`. This is the
    /// paper's literal definition of utility ("the probability of the
    /// primitive event to be part of a complex event") and is the default.
    #[default]
    Conditional,
    /// Each type's row is normalised by the row's total contribution count, so
    /// a row sums to ≈100 (this matches the shape of Table 1 in the paper,
    /// where every event type's utilities sum to 100). Emphasises *positional
    /// concentration* of a type.
    PerTypeSum,
    /// All cells are normalised by the single largest cell count, so the most
    /// frequently contributing (type, position) cell gets utility 100.
    /// Emphasises *absolute contribution frequency*.
    GlobalMax,
}

/// Configuration of the utility model (`UT` dimensions and normalisation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// The number of window positions `N` the model is built for. For
    /// count-based windows this is the window size; for variable-size
    /// (time-based) windows it is the average seen window size (paper §3.6).
    pub positions: usize,
    /// Bin size `bs`: how many neighbouring positions share one utility-table
    /// column (paper §3.6, *Using Bins for a Large Window Size*). 1 = no
    /// binning.
    pub bin_size: usize,
    /// How occurrence counts are normalised into utilities.
    pub normalisation: NormalisationMode,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig { positions: 100, bin_size: 1, normalisation: NormalisationMode::default() }
    }
}

impl ModelConfig {
    /// Creates a configuration for `positions` window positions with bin size
    /// 1 and default normalisation.
    pub fn with_positions(positions: usize) -> Self {
        ModelConfig { positions, ..ModelConfig::default() }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `positions` or `bin_size` is zero.
    pub fn validate(&self) {
        assert!(self.positions >= 1, "the model needs at least one position");
        assert!(self.bin_size >= 1, "bin size must be at least 1");
    }

    /// Number of utility-table columns: `ceil(positions / bin_size)`.
    pub fn bins(&self) -> usize {
        self.positions.div_ceil(self.bin_size)
    }

    /// Maps a *scaled* position (in `[0, positions)`) to its bin index.
    pub fn bin_of(&self, scaled_position: usize) -> usize {
        (scaled_position / self.bin_size).min(self.bins() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = ModelConfig::default();
        cfg.validate();
        assert_eq!(cfg.bins(), 100);
        assert_eq!(cfg.normalisation, NormalisationMode::Conditional);
    }

    #[test]
    fn bins_round_up() {
        let cfg = ModelConfig { positions: 10, bin_size: 4, ..ModelConfig::default() };
        assert_eq!(cfg.bins(), 3);
    }

    #[test]
    fn bin_of_clamps_to_last_bin() {
        let cfg = ModelConfig { positions: 10, bin_size: 4, ..ModelConfig::default() };
        assert_eq!(cfg.bin_of(0), 0);
        assert_eq!(cfg.bin_of(7), 1);
        assert_eq!(cfg.bin_of(9), 2);
        // Out-of-range scaled positions stay in the last bin.
        assert_eq!(cfg.bin_of(25), 2);
    }

    #[test]
    fn with_positions_shorthand() {
        let cfg = ModelConfig::with_positions(700);
        assert_eq!(cfg.positions, 700);
        assert_eq!(cfg.bin_size, 1);
    }

    #[test]
    #[should_panic(expected = "bin size")]
    fn zero_bin_size_rejected() {
        ModelConfig { positions: 10, bin_size: 0, ..ModelConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn zero_positions_rejected() {
        ModelConfig { positions: 0, ..ModelConfig::default() }.validate();
    }
}
