//! Quality-of-result and latency metrics.
//!
//! The paper measures result quality as the number of false positives and
//! false negatives relative to the complex events an unshedded run would have
//! produced (§2.1), and reports them as percentages of the ground-truth count.

use espice_cep::ComplexEvent;
use espice_events::SimDuration;
use std::collections::HashSet;

/// False-positive / false-negative counts of a shedded run against the
/// unshedded ground truth.
///
/// # Example
///
/// ```
/// use espice_cep::{ComplexEvent, Constituent};
/// use espice_events::{EventType, Timestamp};
/// use espice_runtime::QualityMetrics;
///
/// let c = |w, seq| ComplexEvent::new(w, Timestamp::ZERO, vec![Constituent {
///     seq, event_type: EventType::from_index(0), position: 0 }]);
/// let ground_truth = vec![c(0, 1), c(1, 2)];
/// let detected = vec![c(0, 1), c(1, 9)];
/// let m = QualityMetrics::compare(&ground_truth, &detected);
/// assert_eq!(m.true_positives, 1);
/// assert_eq!(m.false_negatives, 1);
/// assert_eq!(m.false_positives, 1);
/// assert_eq!(m.false_negative_pct(), 50.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QualityMetrics {
    /// Complex events detected by the unshedded (ground truth) run.
    pub ground_truth: usize,
    /// Complex events detected by the shedded run.
    pub detected: usize,
    /// Detected complex events that are also in the ground truth.
    pub true_positives: usize,
    /// Detected complex events that are *not* in the ground truth.
    pub false_positives: usize,
    /// Ground-truth complex events that were *not* detected.
    pub false_negatives: usize,
}

impl QualityMetrics {
    /// Compares a shedded run against the ground truth. Complex events are
    /// identified by their window and constituent set ([`ComplexEvent::key`]).
    pub fn compare(ground_truth: &[ComplexEvent], detected: &[ComplexEvent]) -> Self {
        let gt_keys: HashSet<_> = ground_truth.iter().map(ComplexEvent::key).collect();
        let detected_keys: HashSet<_> = detected.iter().map(ComplexEvent::key).collect();
        let true_positives = detected_keys.intersection(&gt_keys).count();
        QualityMetrics {
            ground_truth: gt_keys.len(),
            detected: detected_keys.len(),
            true_positives,
            false_positives: detected_keys.difference(&gt_keys).count(),
            false_negatives: gt_keys.difference(&detected_keys).count(),
        }
    }

    /// False negatives as a percentage of the ground-truth count (the y-axis
    /// of Figures 5, 8, 9). 0 when the ground truth is empty.
    pub fn false_negative_pct(&self) -> f64 {
        percentage(self.false_negatives, self.ground_truth)
    }

    /// False positives as a percentage of the ground-truth count (Figure 6).
    pub fn false_positive_pct(&self) -> f64 {
        percentage(self.false_positives, self.ground_truth)
    }

    /// Recall of the shedded run (`1 − FN/GT`), in `[0, 1]`.
    pub fn recall(&self) -> f64 {
        if self.ground_truth == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.ground_truth as f64
        }
    }

    /// Precision of the shedded run, in `[0, 1]` (1 when nothing was detected).
    pub fn precision(&self) -> f64 {
        if self.detected == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.detected as f64
        }
    }
}

fn percentage(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Per-event latency trace of a queueing simulation run (Figure 7).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LatencyTrace {
    /// `(simulated time in seconds, event latency in seconds)` samples,
    /// sampled once per [`sample_interval`](Self::sample_interval).
    pub samples: Vec<(f64, f64)>,
    /// The latency bound the run was configured with.
    pub bound: SimDuration,
    /// Sampling interval used for `samples`.
    pub sample_interval: SimDuration,
    /// Number of events processed.
    pub events: usize,
    /// Number of events whose latency exceeded the bound.
    pub violations: usize,
    /// Largest observed latency.
    pub max_latency: SimDuration,
    /// Mean observed latency in seconds.
    pub mean_latency_secs: f64,
    /// Fraction of (event, window) assignments dropped by the shedder.
    pub drop_ratio: f64,
    /// Largest input-queue depth observed during the run (events arrived
    /// but not yet completed).
    pub peak_queue_depth: usize,
}

impl LatencyTrace {
    /// Whether the latency bound was held for every event.
    pub fn bound_held(&self) -> bool {
        self.violations == 0
    }

    /// The largest sampled latency in seconds (0 for empty traces).
    pub fn peak_sampled_latency(&self) -> f64 {
        self.samples.iter().map(|&(_, l)| l).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_cep::Constituent;
    use espice_events::{EventType, Timestamp};

    fn complex(window: u64, seqs: &[u64]) -> ComplexEvent {
        ComplexEvent::new(
            window,
            Timestamp::ZERO,
            seqs.iter()
                .map(|&s| Constituent { seq: s, event_type: EventType::from_index(0), position: 0 })
                .collect(),
        )
    }

    #[test]
    fn identical_runs_have_perfect_quality() {
        let gt = vec![complex(0, &[1, 2]), complex(1, &[3, 4])];
        let m = QualityMetrics::compare(&gt, &gt);
        assert_eq!(m.false_negatives, 0);
        assert_eq!(m.false_positives, 0);
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.false_negative_pct(), 0.0);
    }

    #[test]
    fn missing_and_extra_matches_are_counted() {
        let gt = vec![complex(0, &[1, 2]), complex(1, &[3, 4]), complex(2, &[5])];
        let detected = vec![complex(0, &[1, 2]), complex(1, &[3, 9])];
        let m = QualityMetrics::compare(&gt, &detected);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_negatives, 2);
        assert_eq!(m.false_positives, 1);
        assert!((m.false_negative_pct() - 66.666).abs() < 0.01);
        assert!((m.false_positive_pct() - 33.333).abs() < 0.01);
        assert!((m.precision() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn same_constituents_in_different_windows_are_different_situations() {
        let gt = vec![complex(0, &[1, 2])];
        let detected = vec![complex(1, &[1, 2])];
        let m = QualityMetrics::compare(&gt, &detected);
        assert_eq!(m.true_positives, 0);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.false_negatives, 1);
    }

    #[test]
    fn empty_ground_truth_is_handled() {
        let m = QualityMetrics::compare(&[], &[complex(0, &[1])]);
        assert_eq!(m.false_positive_pct(), 0.0);
        assert_eq!(m.false_negative_pct(), 0.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.precision(), 0.0);
        let empty = QualityMetrics::compare(&[], &[]);
        assert_eq!(empty.precision(), 1.0);
    }

    #[test]
    fn latency_trace_summaries() {
        let trace = LatencyTrace {
            samples: vec![(0.0, 0.1), (1.0, 0.8), (2.0, 0.5)],
            bound: SimDuration::from_secs(1),
            sample_interval: SimDuration::from_secs(1),
            events: 3,
            violations: 0,
            max_latency: SimDuration::from_millis(800),
            mean_latency_secs: 0.46,
            drop_ratio: 0.1,
            peak_queue_depth: 42,
        };
        assert!(trace.bound_held());
        assert!((trace.peak_sampled_latency() - 0.8).abs() < 1e-9);
        assert_eq!(LatencyTrace::default().peak_sampled_latency(), 0.0);
    }
}
