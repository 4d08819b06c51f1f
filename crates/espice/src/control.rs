//! Closed-loop overload control from *measured* queue state.
//!
//! The paper's overload detector (§3.4, [`OverloadDetector`]) assumes two
//! externally supplied rates: the operator throughput `th` (profiled
//! offline) and the input rate `R`. The original queueing simulation
//! provided both from its configuration — an *open-loop* setup where
//! overload is asserted rather than observed. [`QueueOverloadController`]
//! closes the loop: it is fed periodic [`QueueSample`] measurements of a
//! shard's real input queue — depth, events drained, busy time, kept
//! fraction — and derives everything the detector needs from them:
//!
//! * **drain throughput** `th = drained / busy_time` (× the number of
//!   servers draining the queue), smoothed and *normalised by the measured
//!   kept fraction* (`kept / assignments` over the interval) whenever the
//!   sample carries assignment data: dropped assignments cost almost
//!   nothing, so whenever anything sheds on the queue — this controller's
//!   own query or a peer query sharing the shard — the full-work capacity
//!   is approximately the observed drain rate times the fraction of
//!   assignments actually processed (a no-op while everything is kept).
//!   The estimate therefore keeps tracking the hardware even under
//!   sustained shedding instead of freezing at its pre-shed value
//!   (samples without kept-fraction information fall back to freezing
//!   while this controller sheds);
//! * **input rate** `R = (drained + Δdepth) / Δt` — what actually arrived
//!   over the interval, queue growth included;
//! * the **queue check** itself against `f · qmax`, with `qmax = LB · th`
//!   recomputed from the live throughput estimate — and, when
//!   [`OverloadConfig::adapt_f`] is on, `f` itself re-derived online from
//!   the observed queue burstiness (the streaming counterpart of the
//!   offline [`suggest_f`](crate::suggest_f) grid search): the buffer
//!   `(1 − f)·qmax` is kept at two burst magnitudes so a typical
//!   inter-check depth swing cannot blow straight past `qmax`.
//!
//! The loop is then `measured queue → ShedPlan → drop ratio → queue`, with
//! no precomputed rate anywhere: the controller is constructed from an
//! [`OverloadConfig`] alone. The streaming engine drives one controller per
//! shard *per query* from its drain loop; since one queue serves all the
//! queries of a shard, the per-query controllers can share one
//! [`SharedThroughput`] signal so the capacity estimate does not fragment —
//! whichever controller measures first publishes, and controllers that are
//! still calibrating (e.g. because their own query was shedding without
//! kept-fraction data) adopt the published value. The queueing simulation
//! drives the identical code from simulated time, serving as the
//! deterministic test oracle.

use crate::{OverloadConfig, OverloadDetector, ShedPlan};
use espice_cep::QueueSample;
use espice_events::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the control loop asks the shedder to do after a queue check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Overload: apply this drop command.
    Shed(ShedPlan),
    /// The queue is back below the activation threshold: stop shedding.
    Resume,
}

/// Counters describing one controller's run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ControllerStats {
    /// Queue checks performed (after the throughput estimate existed).
    pub checks: u64,
    /// Checks that found the queue above `qmax`, i.e. with the latency
    /// bound already violated for the queued events.
    pub violations: u64,
    /// Samples whose measurements updated the throughput estimate.
    pub throughput_updates: u64,
    /// Throughput updates taken *while shedding was active*, using the
    /// kept-fraction-normalised service rate (0 when the estimate was
    /// frozen throughout every shed phase).
    pub shed_normalised_updates: u64,
    /// How often online `f` adaptation moved `f` to a different value.
    pub f_adaptations: u64,
}

/// A drain-capacity estimate shared by several controllers serving the
/// same queue (one per query on a multi-query shard), published and read
/// with lock-free atomics.
///
/// One bounded queue feeds all the queries of a shard, so there is exactly
/// one physical drain capacity — but each query runs its own controller
/// (its own shedder, window geometry and plan). Sharing the measured
/// estimate keeps those controllers agreeing on `qmax` and lets a
/// controller whose own measurements are unusable (mid-shed without
/// kept-fraction data, or not yet calibrated) ride on its peers'.
#[derive(Debug)]
pub struct SharedThroughput {
    /// `f64::to_bits` of the latest published estimate; NaN bits = unset.
    bits: AtomicU64,
}

impl SharedThroughput {
    /// A fresh, unset signal.
    pub fn new() -> Self {
        SharedThroughput { bits: AtomicU64::new(f64::NAN.to_bits()) }
    }

    /// Publishes a new smoothed estimate (events/s). Ignores non-finite or
    /// non-positive values.
    pub fn publish(&self, throughput: f64) {
        if throughput.is_finite() && throughput > 0.0 {
            self.bits.store(throughput.to_bits(), Ordering::Relaxed);
        }
    }

    /// The latest published estimate, if any controller has measured yet.
    pub fn get(&self) -> Option<f64> {
        let value = f64::from_bits(self.bits.load(Ordering::Relaxed));
        if value.is_finite() {
            Some(value)
        } else {
            None
        }
    }
}

impl Default for SharedThroughput {
    fn default() -> Self {
        Self::new()
    }
}

/// Closed-loop overload controller for one input queue.
///
/// Feed it one [`sample`](QueueOverloadController::sample) per check
/// interval; it returns the [`ControlAction`] the shedder should take, once
/// enough has been measured to know the drain capacity.
///
/// # Example
///
/// ```
/// use espice::{ControlAction, OverloadConfig, QueueOverloadController};
/// use espice_cep::QueueSample;
/// use espice_events::SimDuration;
///
/// let mut controller = QueueOverloadController::new(OverloadConfig {
///     latency_bound: SimDuration::from_secs(1),
///     ..OverloadConfig::default()
/// });
/// // 100 ms busy interval draining 100 events => th = 1000 events/s,
/// // qmax = 1000, activation at 800. Depth 40: no shedding.
/// let t1 = SimDuration::from_millis(100);
/// let calm = QueueSample {
///     elapsed: t1, busy: t1, depth: 40, drained: 100,
///     assignments: 100, kept: 100, predicted_window_size: 500,
/// };
/// assert!(matches!(controller.sample(&calm), Some(ControlAction::Resume)));
/// // Same drain rate but the queue ballooned past f·qmax: shed.
/// let t2 = SimDuration::from_millis(200);
/// let overloaded = QueueSample { elapsed: t2, busy: t2, depth: 900, ..calm };
/// assert!(matches!(controller.sample(&overloaded), Some(ControlAction::Shed(_))));
/// ```
#[derive(Debug, Clone)]
pub struct QueueOverloadController {
    config: OverloadConfig,
    servers: usize,
    /// Created at the first throughput measurement; `None` means "still
    /// calibrating, keep everything".
    detector: Option<OverloadDetector>,
    throughput_estimate: Option<f64>,
    /// Estimate shared with the other controllers of this queue, if any.
    shared: Option<Arc<SharedThroughput>>,
    /// Set by [`join_in_progress`](Self::join_in_progress): the next sample
    /// only aligns the cumulative baselines, it never measures.
    aligning: bool,
    /// Smoothed magnitude of the inter-check queue-depth swing (events) —
    /// the burstiness signal online `f` adaptation works from.
    burst_estimate: f64,
    last_elapsed: SimDuration,
    last_busy: SimDuration,
    last_depth: usize,
    shedding: bool,
    stats: ControllerStats,
}

impl QueueOverloadController {
    /// A controller for a queue drained by a single server (one shard).
    /// Only the overload parameters are supplied — throughput and input
    /// rate are measured, never configured.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: OverloadConfig) -> Self {
        Self::with_servers(config, 1)
    }

    /// A controller for a queue drained by `servers` parallel servers (the
    /// queueing simulation's multi-shard model): the capacity estimate is
    /// `servers × drained / busy_time`, since `busy_time` counts summed
    /// per-server busy spans.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `servers` is zero.
    pub fn with_servers(config: OverloadConfig, servers: usize) -> Self {
        config.validate();
        assert!(servers >= 1, "need at least one server");
        QueueOverloadController {
            config,
            servers,
            detector: None,
            throughput_estimate: None,
            shared: None,
            aligning: false,
            burst_estimate: 0.0,
            last_elapsed: SimDuration::ZERO,
            last_busy: SimDuration::ZERO,
            last_depth: 0,
            shedding: false,
            stats: ControllerStats::default(),
        }
    }

    /// Connects this controller to a capacity estimate shared with the
    /// other controllers of the same queue: measurements are published to
    /// the signal, and while this controller has no usable measurement of
    /// its own it adopts the latest published value.
    pub fn share_throughput(&mut self, shared: Arc<SharedThroughput>) {
        self.shared = Some(shared);
    }

    /// Declares that this controller joins a queue whose drain loop is
    /// **already running** — a query admitted mid-stream. The samples a
    /// drain loop reports carry *cumulative* elapsed/busy clocks since the
    /// loop started; a controller created at time zero correctly reads the
    /// first sample as one measurement interval, but a controller joining
    /// at cumulative time `T` would divide its first drain delta by `T` of
    /// busy time and "measure" a capacity close to zero — and immediately
    /// shed against the resulting tiny `qmax`. After this call the first
    /// sample only aligns the cumulative baselines (and returns no action);
    /// real measurement starts with the second sample, one check interval
    /// after admission.
    pub fn join_in_progress(&mut self) {
        self.aligning = true;
    }

    /// The configured overload parameters.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// The current measured-throughput estimate (events/s across all
    /// servers), if at least one busy interval has been observed.
    pub fn throughput(&self) -> Option<f64> {
        self.throughput_estimate
    }

    /// The current measured input-rate estimate (events/s), if the
    /// controller has calibrated.
    pub fn input_rate(&self) -> Option<f64> {
        self.detector.as_ref().map(OverloadDetector::input_rate)
    }

    /// The activation fraction currently in force: the configured `f`, or
    /// the latest online adaptation when [`OverloadConfig::adapt_f`] is on.
    pub fn current_f(&self) -> f64 {
        self.detector.as_ref().map_or(self.config.f, |d| d.planner().config().f)
    }

    /// The smoothed inter-check queue-depth swing (events) — the
    /// burstiness estimate online `f` adaptation works from.
    pub fn burst_estimate(&self) -> f64 {
        self.burst_estimate
    }

    /// Whether the last check decided shedding must be active.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// How often shedding has been (re-)activated.
    pub fn activations(&self) -> u64 {
        self.detector.as_ref().map_or(0, OverloadDetector::activations)
    }

    /// The controller's counters.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// One measurement of the queue, taken every check interval (see
    /// [`QueueSample`] for the field semantics; `elapsed` and `busy` are
    /// cumulative, `drained` / `assignments` / `kept` are deltas since the
    /// previous sample).
    ///
    /// Returns the action the shedder should take, or `None` while the
    /// controller is still calibrating (no busy interval measured yet and
    /// no shared estimate available) or no time has passed.
    pub fn sample(&mut self, sample: &QueueSample) -> Option<ControlAction> {
        if self.aligning {
            // Mid-stream join: adopt the drain loop's cumulative clocks as
            // baselines so the next sample measures one true interval.
            self.aligning = false;
            self.last_elapsed = sample.elapsed;
            self.last_busy = sample.busy;
            self.last_depth = sample.depth;
            return None;
        }
        let interval = sample.elapsed.saturating_sub(self.last_elapsed);
        if interval.is_zero() {
            return None;
        }
        let busy_interval = sample.busy.saturating_sub(self.last_busy);
        let arrivals = sample.drained as f64 + sample.depth as f64 - self.last_depth as f64;
        let rate = (arrivals / interval.as_secs_f64()).max(0.0);
        let depth_swing = (sample.depth as f64 - self.last_depth as f64).abs();
        self.last_elapsed = sample.elapsed;
        self.last_busy = sample.busy;
        self.last_depth = sample.depth;
        self.burst_estimate = 0.5 * depth_swing + 0.5 * self.burst_estimate;

        // Capacity measurement: drains per busy second, scaled by the
        // server count. Whenever the interval carries assignment data the
        // raw rate is normalised by the measured kept fraction — a no-op
        // while nothing drops, but essential whenever *any* decider on the
        // shared queue sheds (this controller's own, or a peer query's:
        // the kept/assignment deltas are shard-level aggregates, so a
        // shedding peer makes the raw drain rate overestimate the
        // no-shedding capacity even for a controller that is not shedding
        // itself). Intervals without kept-fraction data fall back to the
        // raw rate when this controller is idle, and keep the estimate
        // frozen while it sheds, as before the fix.
        let measured = if sample.drained > 0 && !busy_interval.is_zero() {
            let raw = sample.drained as f64 / busy_interval.as_secs_f64() * self.servers as f64;
            if sample.assignments > 0 {
                (sample.kept > 0).then(|| raw * sample.kept as f64 / sample.assignments as f64)
            } else if !self.shedding {
                Some(raw)
            } else {
                None
            }
        } else {
            None
        };
        if let Some(measured) = measured {
            if measured.is_finite() && measured > 0.0 {
                let smoothed = match self.throughput_estimate {
                    None => measured,
                    Some(previous) => 0.5 * measured + 0.5 * previous,
                };
                self.seed(smoothed);
                self.stats.throughput_updates += 1;
                if self.shedding {
                    self.stats.shed_normalised_updates += 1;
                }
                if let Some(shared) = &self.shared {
                    shared.publish(smoothed);
                }
            }
        } else if self.throughput_estimate.is_none() {
            // No usable measurement of our own yet: adopt what a peer
            // controller of the same queue has published, if anything.
            if let Some(published) = self.shared.as_ref().and_then(|s| s.get()) {
                self.seed(published);
            }
        }

        if self.config.adapt_f {
            self.adapt_f();
        }

        let detector = self.detector.as_mut()?;
        detector.observe_rate(rate);
        self.stats.checks += 1;
        if sample.depth > detector.planner().qmax() {
            self.stats.violations += 1;
        }
        match detector.check_queue(sample.depth, sample.predicted_window_size) {
            Some(plan) => {
                self.shedding = true;
                Some(ControlAction::Shed(plan))
            }
            None => {
                self.shedding = false;
                Some(ControlAction::Resume)
            }
        }
    }

    /// Installs `estimate` as the current throughput and (re)seeds the
    /// detector with it.
    fn seed(&mut self, estimate: f64) {
        self.throughput_estimate = Some(estimate);
        match self.detector.as_mut() {
            Some(detector) => detector.set_throughput(estimate),
            None => self.detector = Some(OverloadDetector::new(self.config, estimate)),
        }
    }

    /// Online `f` selection from the burstiness estimate: the same grid as
    /// the offline [`suggest_f`](crate::suggest_f), but the constraint is
    /// measured, not model-based — the post-activation buffer
    /// `(1 − f)·qmax` must hold at least two typical inter-check depth
    /// swings, so a burst observed at the activation threshold does not
    /// overshoot `qmax` before the next check can react.
    fn adapt_f(&mut self) {
        let Some(detector) = self.detector.as_mut() else {
            return;
        };
        let qmax = detector.planner().qmax().max(1) as f64;
        let needed = 2.0 * self.burst_estimate;
        let candidates = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];
        let chosen = candidates.iter().copied().find(|f| (1.0 - f) * qmax >= needed).unwrap_or(0.5);
        if (chosen - detector.planner().config().f).abs() > f64::EPSILON {
            detector.set_f(chosen);
            self.stats.f_adaptations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(lb_secs: u64, f: f64) -> OverloadConfig {
        OverloadConfig {
            latency_bound: SimDuration::from_secs(lb_secs),
            f,
            ..OverloadConfig::default()
        }
    }

    fn ms(millis: u64) -> SimDuration {
        SimDuration::from_millis(millis)
    }

    /// A sample whose kept fraction is 1 (no shedding in effect).
    fn full_sample(
        elapsed: SimDuration,
        busy: SimDuration,
        depth: usize,
        drained: u64,
    ) -> QueueSample {
        QueueSample {
            elapsed,
            busy,
            depth,
            drained,
            assignments: drained,
            kept: drained,
            predicted_window_size: 100,
        }
    }

    /// The legacy shape: no kept-fraction information at all.
    fn blind_sample(
        elapsed: SimDuration,
        busy: SimDuration,
        depth: usize,
        drained: u64,
        window: usize,
    ) -> QueueSample {
        QueueSample {
            elapsed,
            busy,
            depth,
            drained,
            assignments: 0,
            kept: 0,
            predicted_window_size: window,
        }
    }

    #[test]
    fn calibrates_before_acting() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        // No time passed: nothing to do.
        assert_eq!(
            controller.sample(&full_sample(SimDuration::ZERO, SimDuration::ZERO, 10, 0)),
            None
        );
        // Time passed but nothing drained: still calibrating.
        assert_eq!(controller.sample(&full_sample(ms(100), SimDuration::ZERO, 10, 0)), None);
        assert_eq!(controller.throughput(), None);
        // First busy interval: 100 drains in 100 ms busy => 1000 events/s.
        let action = controller.sample(&full_sample(ms(200), ms(100), 10, 100));
        assert_eq!(action, Some(ControlAction::Resume));
        let th = controller.throughput().expect("calibrated");
        assert!((th - 1000.0).abs() < 1e-6);
        assert_eq!(controller.stats().checks, 1);
    }

    #[test]
    fn sheds_when_measured_depth_exceeds_activation_threshold() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        // Calibrate: th = 1000 events/s => qmax = 1000, activation at 800.
        assert!(controller
            .sample(&QueueSample {
                predicted_window_size: 500,
                ..full_sample(ms(100), ms(100), 0, 100)
            })
            .is_some());
        assert!(!controller.is_shedding());
        // Queue overshoots the threshold: shedding must activate with an
        // actionable plan.
        let action = controller.sample(&QueueSample {
            predicted_window_size: 500,
            ..full_sample(ms(200), ms(200), 900, 100)
        });
        let Some(ControlAction::Shed(plan)) = action else {
            panic!("expected a shed command, got {action:?}");
        };
        assert!(plan.active);
        assert!(plan.events_to_drop > 0.0);
        assert!(controller.is_shedding());
        assert_eq!(controller.activations(), 1);
        // Queue drains back below the threshold: resume.
        let action = controller.sample(&QueueSample {
            predicted_window_size: 500,
            ..full_sample(ms(300), ms(250), 100, 150)
        });
        assert_eq!(action, Some(ControlAction::Resume));
        assert!(!controller.is_shedding());
    }

    #[test]
    fn throughput_is_frozen_while_shedding_without_kept_fraction_data() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        assert!(controller.sample(&blind_sample(ms(100), ms(100), 0, 100, 100)).is_some());
        let before = controller.throughput().unwrap();
        // Trigger shedding.
        assert!(matches!(
            controller.sample(&blind_sample(ms(200), ms(200), 900, 100, 100)),
            Some(ControlAction::Shed(_))
        ));
        // While shedding, a much faster drain interval must NOT move th
        // when the sample carries no kept/assignment deltas.
        assert!(matches!(
            controller.sample(&blind_sample(ms(300), ms(220), 900, 500, 100)),
            Some(ControlAction::Shed(_))
        ));
        assert_eq!(controller.throughput(), Some(before));
        assert_eq!(controller.stats().shed_normalised_updates, 0);
        // After resuming, measurements flow again.
        assert!(matches!(
            controller.sample(&blind_sample(ms(400), ms(300), 0, 80, 100)),
            Some(ControlAction::Resume)
        ));
        assert!(controller.sample(&blind_sample(ms(500), ms(400), 0, 120, 100)).is_some());
        assert_ne!(controller.throughput(), Some(before));
    }

    #[test]
    fn throughput_updates_mid_shed_via_kept_fraction_normalisation() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        // Calibrate at 1000 events/s, then overload into shedding.
        assert!(controller.sample(&full_sample(ms(100), ms(100), 0, 100)).is_some());
        assert!(matches!(
            controller.sample(&full_sample(ms(200), ms(200), 900, 100)),
            Some(ControlAction::Shed(_))
        ));
        let before = controller.throughput().unwrap();
        // Sustained shedding: 400 events drained in 100 ms busy (raw rate
        // 4000/s), but only a quarter of the assignments were kept — the
        // normalised capacity is 1000/s, so the estimate must move towards
        // the *normalised* rate instead of staying frozen or jumping to
        // the raw one.
        let shed = QueueSample {
            elapsed: ms(300),
            busy: ms(300),
            depth: 900,
            drained: 400,
            assignments: 400,
            kept: 100,
            predicted_window_size: 100,
        };
        assert!(controller.sample(&shed).is_some());
        let after = controller.throughput().unwrap();
        assert_eq!(controller.stats().shed_normalised_updates, 1);
        assert!((after - 0.5 * (before + 1000.0)).abs() < 1e-6, "after {after}");
        assert!(after < 2000.0, "raw shed drain rate must not leak into the estimate");
    }

    /// A controller that is not shedding itself must still normalise by
    /// the kept fraction: on a shared multi-query queue the deltas include
    /// *peer* queries' drops, and dropped assignments drain artificially
    /// fast — taking the raw rate would inflate qmax for every controller
    /// on the shard.
    #[test]
    fn peer_shedding_does_not_inflate_an_idle_controllers_estimate() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        assert!(controller.sample(&full_sample(ms(100), ms(100), 0, 100)).is_some());
        assert_eq!(controller.throughput(), Some(1000.0));
        assert!(!controller.is_shedding());
        // A peer query sheds half the shard's assignments: 200 events
        // drain in 100 ms busy (raw 2000/s) but only half the work was
        // done — the no-shedding capacity is still ~1000/s.
        let peer_shedding = QueueSample {
            elapsed: ms(200),
            busy: ms(200),
            depth: 0,
            drained: 200,
            assignments: 400,
            kept: 200,
            predicted_window_size: 100,
        };
        assert!(controller.sample(&peer_shedding).is_some());
        let th = controller.throughput().unwrap();
        assert!((th - 1000.0).abs() < 1e-6, "raw shed-drain rate leaked into the estimate: {th}");
    }

    #[test]
    fn input_rate_counts_queue_growth() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        // 100 drained + depth grew by 40 over 100 ms => R = 1400 events/s.
        assert!(controller.sample(&full_sample(ms(100), ms(100), 40, 100)).is_some());
        let rate = controller.input_rate().expect("calibrated");
        // The detector smooths the first observation into its th-seeded
        // estimate: 0.5 * 1400 + 0.5 * 1000.
        assert!((rate - 1200.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn violations_count_checks_above_qmax() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        assert!(controller.sample(&full_sample(ms(100), ms(100), 0, 100)).is_some());
        assert!(controller.sample(&full_sample(ms(200), ms(200), 1500, 100)).is_some());
        assert_eq!(controller.stats().violations, 1);
    }

    #[test]
    fn multi_server_capacity_scales_busy_time() {
        let mut controller = QueueOverloadController::with_servers(config(1, 0.8), 2);
        // 200 drains over 200 ms of *summed* busy time on 2 servers:
        // per-busy-second rate 1000, aggregate capacity 2000.
        assert!(controller.sample(&full_sample(ms(100), ms(200), 0, 200)).is_some());
        let th = controller.throughput().unwrap();
        assert!((th - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn shared_signal_lets_a_blind_peer_calibrate() {
        let shared = Arc::new(SharedThroughput::new());
        assert_eq!(shared.get(), None);

        let mut measuring = QueueOverloadController::new(config(1, 0.8));
        measuring.share_throughput(Arc::clone(&shared));
        assert!(measuring.sample(&full_sample(ms(100), ms(100), 0, 100)).is_some());
        assert_eq!(shared.get(), Some(1000.0));

        // A peer that never observes a busy interval of its own (always
        // drained == 0) still calibrates from the published estimate and
        // can run queue checks against f·qmax immediately.
        let mut blind = QueueOverloadController::new(config(1, 0.8));
        blind.share_throughput(Arc::clone(&shared));
        let action = blind.sample(&full_sample(ms(100), SimDuration::ZERO, 900, 0));
        assert!(matches!(action, Some(ControlAction::Shed(_))), "got {action:?}");
        assert_eq!(blind.throughput(), Some(1000.0));
    }

    #[test]
    fn shared_signal_ignores_garbage() {
        let shared = SharedThroughput::new();
        shared.publish(f64::NAN);
        shared.publish(-4.0);
        shared.publish(0.0);
        assert_eq!(shared.get(), None);
        shared.publish(123.0);
        assert_eq!(shared.get(), Some(123.0));
    }

    #[test]
    fn adapt_f_lowers_f_under_bursty_depths_and_restores_it_when_calm() {
        let mut controller =
            QueueOverloadController::new(OverloadConfig { adapt_f: true, ..config(1, 0.8) });
        // Calibrate at 1000 events/s => qmax = 1000.
        assert!(controller.sample(&full_sample(ms(100), ms(100), 0, 100)).is_some());
        // Violent depth swings: |Δdepth| of 600 → burst estimate climbs,
        // the buffer must cover ~2 bursts, f drops to the grid floor.
        let mut elapsed = 100u64;
        for round in 0..6 {
            elapsed += 100;
            let depth = if round % 2 == 0 { 600 } else { 0 };
            let _ = controller.sample(&full_sample(ms(elapsed), ms(elapsed), depth, 100));
        }
        assert!(controller.current_f() <= 0.5 + 1e-9, "f = {}", controller.current_f());
        assert!(controller.stats().f_adaptations >= 1);
        // A long calm phase decays the burst estimate; f recovers to the
        // top of the grid.
        for _ in 0..12 {
            elapsed += 100;
            let _ = controller.sample(&full_sample(ms(elapsed), ms(elapsed), 0, 100));
        }
        assert!(controller.current_f() >= 0.95 - 1e-9, "f = {}", controller.current_f());
    }

    /// A controller joining mid-run must not read the drain loop's
    /// cumulative clocks as its first measurement interval: without the
    /// alignment, 10 drains over "13 s of busy time" would calibrate a
    /// sub-1-event/s capacity and shed an idle queue.
    #[test]
    fn joining_mid_stream_aligns_instead_of_measuring() {
        let mut fresh = QueueOverloadController::new(config(1, 0.8));
        // The un-aligned behaviour this guards against: a first sample
        // deep into a run measures garbage and sheds at depth 1.
        let mid_run = full_sample(ms(13_000), ms(13_000), 1, 10);
        assert!(matches!(fresh.sample(&mid_run), Some(ControlAction::Shed(_))));

        let mut joined = QueueOverloadController::new(config(1, 0.8));
        joined.join_in_progress();
        assert_eq!(joined.sample(&mid_run), None, "the first sample only aligns");
        assert_eq!(joined.throughput(), None);
        // One real interval later: 100 drains in 100 ms of busy time is a
        // healthy 1000 events/s — no shedding on a near-empty queue.
        let next = full_sample(ms(13_100), ms(13_100), 1, 100);
        assert_eq!(joined.sample(&next), Some(ControlAction::Resume));
        let th = joined.throughput().expect("calibrated from the first true interval");
        assert!((th - 1000.0).abs() < 1e-6, "throughput {th}");
    }

    /// The drain loop reports `QueueSample`s in **events** even when the
    /// hand-off is chunked: `depth` is the live event backlog, never a
    /// slot count. This pins the controller side of that contract — four
    /// occupied slots holding 100-event partial flushes are 400 queued
    /// events, comfortably below activation, while misreading the same
    /// slots as full 256-event chunks would cross `f · qmax` and shed an
    /// unloaded queue.
    #[test]
    fn partial_chunks_are_not_mistaken_for_a_full_queue() {
        let mut controller = QueueOverloadController::new(config(1, 0.8));
        // Calibrate: th = 1000 events/s => qmax = 1000, activation at 800.
        assert!(controller.sample(&full_sample(ms(100), ms(100), 0, 100)).is_some());
        // Event-denominated depth of the four partial chunks: no overload.
        let action = controller.sample(&full_sample(ms(200), ms(200), 400, 100));
        assert_eq!(action, Some(ControlAction::Resume));
        assert_eq!(controller.stats().violations, 0);
        // The slot-misread counterpart (4 slots × 256-event capacity) is
        // exactly what the depth field must never carry: it sheds.
        let action = controller.sample(&full_sample(ms(300), ms(300), 1024, 100));
        assert!(matches!(action, Some(ControlAction::Shed(_))), "got {action:?}");
    }

    /// Mid-stream alignment under batched hand-off: the aligning sample's
    /// event-denominated depth becomes the `Δdepth` baseline, so the next
    /// interval's arrivals (`drained + Δdepth`) count events — a backlog
    /// sampled mid-chunk must not skew the joiner's input-rate estimate.
    #[test]
    fn join_alignment_baselines_event_depth_under_batched_handoff() {
        let mut joined = QueueOverloadController::new(config(1, 0.8));
        joined.join_in_progress();
        // Aligning sample taken mid-chunk: two full 256-event chunks plus
        // a 128-event partial are queued — 640 events, clocks cumulative.
        assert_eq!(joined.sample(&full_sample(ms(10_000), ms(9_000), 640, 5_000)), None);
        // One true interval later the backlog grew to 740 while 100 events
        // drained in 100 ms busy: capacity 1000/s, arrivals
        // 100 + (740 − 640) = 200 events over 100 ms => R = 2000/s,
        // smoothed against the 1000/s seed to 1500/s. Depth 740 is still
        // below the 800-event activation threshold: no shedding.
        let action = joined.sample(&full_sample(ms(10_100), ms(9_100), 740, 100));
        assert_eq!(action, Some(ControlAction::Resume));
        let th = joined.throughput().expect("calibrated from the first true interval");
        assert!((th - 1000.0).abs() < 1e-6, "throughput {th}");
        let rate = joined.input_rate().expect("calibrated");
        assert!((rate - 1500.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = QueueOverloadController::with_servers(config(1, 0.8), 0);
    }
}
