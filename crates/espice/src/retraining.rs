//! Model retraining (paper §3.6, *Model Retraining*).
//!
//! When the distribution of the input event stream changes, the trained
//! utility model becomes stale and shedding quality degrades. The paper
//! proposes to retrain periodically and leaves a statistical trigger for
//! future work; this module provides both:
//!
//! * [`RetrainPolicy::Periodic`] — rebuild the model every `n` windows,
//! * [`RetrainPolicy::OnDrift`] — monitor the per-type composition of recently
//!   closed windows and trigger a rebuild when it diverges from the
//!   composition the model was trained on (total-variation distance above a
//!   threshold),
//! * [`RetrainingManager`] — the bookkeeping that ties a policy to a
//!   [`ModelBuilder`] and an [`EspiceShedder`].
//!
//! The manager observes the *kept* stream exactly like the shedder does (it is
//! not a decider itself; the runtime forwards window compositions and detected
//! complex events), so retraining stays off the per-event hot path.

use crate::{EspiceShedder, ModelBuilder, UtilityModel};
use espice_cep::ComplexEvent;
use espice_events::EventType;
use std::collections::HashMap;

/// When the model should be rebuilt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrainPolicy {
    /// Never retrain (static model).
    Never,
    /// Rebuild after every `windows` closed windows.
    Periodic {
        /// Number of closed windows between rebuilds.
        windows: u64,
    },
    /// Rebuild when the recent per-type window composition drifts away from
    /// the composition at the last (re)build.
    OnDrift {
        /// Total-variation distance in `[0, 1]` above which a rebuild is
        /// triggered (0.1–0.3 are reasonable values).
        threshold: f64,
        /// How many recently closed windows form the comparison sample.
        sample_windows: u64,
    },
}

impl RetrainPolicy {
    /// Validates the policy parameters.
    ///
    /// # Panics
    ///
    /// Panics if a periodic interval or drift sample is zero, or the drift
    /// threshold is outside `(0, 1]`.
    pub fn validate(&self) {
        match self {
            RetrainPolicy::Never => {}
            RetrainPolicy::Periodic { windows } => {
                assert!(
                    *windows >= 1,
                    "periodic retraining needs an interval of at least one window"
                )
            }
            RetrainPolicy::OnDrift { threshold, sample_windows } => {
                assert!(*threshold > 0.0 && *threshold <= 1.0, "drift threshold must be in (0, 1]");
                assert!(*sample_windows >= 1, "drift detection needs at least one sample window");
            }
        }
    }
}

/// Per-type event distribution over a set of windows, used for drift
/// detection.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TypeDistribution {
    counts: HashMap<u32, f64>,
    total: f64,
}

impl TypeDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` observations of `ty`.
    pub fn add(&mut self, ty: EventType, count: f64) {
        *self.counts.entry(ty.as_u32()).or_insert(0.0) += count;
        self.total += count;
    }

    /// Total number of observations.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The relative frequency of `ty`.
    pub fn frequency(&self, ty: EventType) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            self.counts.get(&ty.as_u32()).copied().unwrap_or(0.0) / self.total
        }
    }

    /// Total-variation distance to another distribution, in `[0, 1]`.
    /// Empty distributions have distance 0 to everything (no evidence of
    /// drift).
    pub fn total_variation(&self, other: &TypeDistribution) -> f64 {
        if self.total <= 0.0 || other.total <= 0.0 {
            return 0.0;
        }
        let keys: std::collections::HashSet<u32> =
            self.counts.keys().chain(other.counts.keys()).copied().collect();
        0.5 * keys
            .into_iter()
            .map(|k| {
                let ty = EventType::from_index(k);
                (self.frequency(ty) - other.frequency(ty)).abs()
            })
            .sum::<f64>()
    }

    /// Clears all observations.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0.0;
    }
}

/// Outcome of feeding one closed window to the [`RetrainingManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainOutcome {
    /// Nothing happened.
    NoChange,
    /// A new model was built and (if a shedder is attached) installed.
    Retrained,
}

/// Drives model retraining: accumulates fresh statistics, decides when to
/// rebuild according to a [`RetrainPolicy`], and swaps the new model into an
/// [`EspiceShedder`].
#[derive(Debug, Clone)]
pub struct RetrainingManager {
    policy: RetrainPolicy,
    builder: ModelBuilder,
    /// Composition at the last rebuild.
    reference: TypeDistribution,
    /// Composition of the windows closed since the last drift check.
    recent: TypeDistribution,
    windows_since_rebuild: u64,
    windows_in_sample: u64,
    rebuilds: u64,
}

impl RetrainingManager {
    /// Creates a manager that refills `builder` (which should already contain
    /// the statistics of the initial training) under the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn new(policy: RetrainPolicy, builder: ModelBuilder) -> Self {
        policy.validate();
        RetrainingManager {
            policy,
            builder,
            reference: TypeDistribution::new(),
            recent: TypeDistribution::new(),
            windows_since_rebuild: 0,
            windows_in_sample: 0,
            rebuilds: 0,
        }
    }

    /// The number of rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The policy in use.
    pub fn policy(&self) -> RetrainPolicy {
        self.policy
    }

    /// Access to the underlying builder (e.g. to keep feeding it as a
    /// [`espice_cep::WindowEventDecider`] during no-shedding phases).
    pub fn builder_mut(&mut self) -> &mut ModelBuilder {
        &mut self.builder
    }

    /// Records the per-type composition of one closed window (counts per
    /// type) and the complex events it produced, then decides whether to
    /// rebuild. If `shedder` is given, a rebuilt model is installed into it.
    pub fn observe_window(
        &mut self,
        composition: &[(EventType, f64)],
        complex_events: &[ComplexEvent],
        shedder: Option<&mut EspiceShedder>,
    ) -> RetrainOutcome {
        for &(ty, count) in composition {
            self.recent.add(ty, count);
        }
        for complex in complex_events {
            self.builder.observe_complex(complex);
        }
        self.windows_since_rebuild += 1;
        self.windows_in_sample += 1;

        let should_rebuild = match self.policy {
            RetrainPolicy::Never => false,
            RetrainPolicy::Periodic { windows } => self.windows_since_rebuild >= windows,
            RetrainPolicy::OnDrift { threshold, sample_windows } => {
                if self.reference.total() == 0.0 {
                    // No reference yet: adopt the first full sample as the
                    // reference composition.
                    if self.windows_in_sample >= sample_windows {
                        self.reference = self.recent.clone();
                        self.recent.clear();
                        self.windows_in_sample = 0;
                    }
                    false
                } else if self.windows_in_sample >= sample_windows {
                    let drift = self.recent.total_variation(&self.reference);
                    if drift > threshold {
                        true
                    } else {
                        self.recent.clear();
                        self.windows_in_sample = 0;
                        false
                    }
                } else {
                    false
                }
            }
        };

        if !should_rebuild {
            return RetrainOutcome::NoChange;
        }

        let model = self.rebuild();
        if let Some(shedder) = shedder {
            shedder.set_model(model);
        }
        RetrainOutcome::Retrained
    }

    /// Forces a rebuild and returns the new model.
    pub fn rebuild(&mut self) -> UtilityModel {
        self.rebuilds += 1;
        self.windows_since_rebuild = 0;
        self.windows_in_sample = 0;
        self.reference = self.recent.clone();
        self.recent.clear();
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn manager(policy: RetrainPolicy) -> RetrainingManager {
        RetrainingManager::new(policy, ModelBuilder::new(ModelConfig::with_positions(10), 3))
    }

    #[test]
    fn total_variation_distance_properties() {
        let mut a = TypeDistribution::new();
        a.add(ty(0), 5.0);
        a.add(ty(1), 5.0);
        let mut b = TypeDistribution::new();
        b.add(ty(0), 5.0);
        b.add(ty(1), 5.0);
        assert!((a.total_variation(&b)).abs() < 1e-9);
        assert_eq!(a.total_variation(&TypeDistribution::new()), 0.0);

        let mut c = TypeDistribution::new();
        c.add(ty(2), 10.0);
        assert!((a.total_variation(&c) - 1.0).abs() < 1e-9);
        assert!((a.frequency(ty(0)) - 0.5).abs() < 1e-9);
        assert_eq!(c.frequency(ty(0)), 0.0);
        assert_eq!(a.total(), 10.0);
    }

    #[test]
    fn never_policy_never_retrains() {
        let mut m = manager(RetrainPolicy::Never);
        for _ in 0..100 {
            let outcome = m.observe_window(&[(ty(0), 10.0)], &[], None);
            assert_eq!(outcome, RetrainOutcome::NoChange);
        }
        assert_eq!(m.rebuilds(), 0);
    }

    #[test]
    fn periodic_policy_retrains_every_interval() {
        let mut m = manager(RetrainPolicy::Periodic { windows: 5 });
        let mut retrained = 0;
        for _ in 0..20 {
            if m.observe_window(&[(ty(0), 10.0)], &[], None) == RetrainOutcome::Retrained {
                retrained += 1;
            }
        }
        assert_eq!(retrained, 4);
        assert_eq!(m.rebuilds(), 4);
    }

    #[test]
    fn drift_policy_triggers_only_on_composition_change() {
        let policy = RetrainPolicy::OnDrift { threshold: 0.3, sample_windows: 5 };
        let mut m = manager(policy);
        // Stable phase: type 0 dominates. First sample becomes the reference,
        // further stable samples do not trigger.
        for _ in 0..20 {
            let outcome = m.observe_window(&[(ty(0), 9.0), (ty(1), 1.0)], &[], None);
            assert_eq!(outcome, RetrainOutcome::NoChange);
        }
        assert_eq!(m.rebuilds(), 0);
        // Drift: type 1 takes over.
        let mut retrained = false;
        for _ in 0..10 {
            if m.observe_window(&[(ty(0), 1.0), (ty(1), 9.0)], &[], None)
                == RetrainOutcome::Retrained
            {
                retrained = true;
                break;
            }
        }
        assert!(retrained, "composition change must trigger retraining");
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn retrained_model_is_installed_into_the_shedder() {
        let mut m = manager(RetrainPolicy::Periodic { windows: 1 });
        let mut shedder = EspiceShedder::new(m.builder_mut().build());
        let before = shedder.model().complex_events_observed();
        let complex = ComplexEvent::new(
            0,
            espice_events::Timestamp::ZERO,
            vec![espice_cep::Constituent { seq: 0, event_type: ty(0), position: 0 }],
        );
        let outcome = m.observe_window(&[(ty(0), 10.0)], &[complex], Some(&mut shedder));
        assert_eq!(outcome, RetrainOutcome::Retrained);
        assert_eq!(shedder.model().complex_events_observed(), before + 1);
    }

    #[test]
    #[should_panic(expected = "drift threshold")]
    fn invalid_drift_threshold_rejected() {
        RetrainPolicy::OnDrift { threshold: 0.0, sample_windows: 5 }.validate();
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn invalid_periodic_interval_rejected() {
        RetrainPolicy::Periodic { windows: 0 }.validate();
    }
}
