//! Overload detection, dropping interval and dropping amount (paper §3.4).
//!
//! The overload detector periodically inspects the operator's input queue.
//! From the operator throughput `th` and the latency bound `LB` it derives the
//! maximum tolerable queue length `qmax = LB / l(p)` with `l(p) = 1 / th`.
//! Shedding starts once the queue exceeds `f · qmax`; the remaining headroom
//! `qmax − f · qmax` bounds the *dropping interval*, so windows larger than
//! the headroom are split into `ρ = ceil(ws / (qmax − f·qmax))` partitions of
//! `psize = ws / ρ` events, and `x = δ · psize / R` events (with
//! `δ = R − th`) must be dropped from every partition.

use crate::UtilityModel;
use espice_events::SimDuration;

/// Static configuration of the overload detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// The latency bound `LB` the operator must not violate.
    pub latency_bound: SimDuration,
    /// The queue-fill fraction `f ∈ [0, 1]` at which shedding starts
    /// (the paper's evaluation uses `f = 0.8`). When `adapt_f` is set this
    /// is only the starting point.
    pub f: f64,
    /// How often the detector inspects the queue.
    pub check_interval: SimDuration,
    /// Adapt `f` online from the observed queue burstiness (the streaming
    /// counterpart of the paper's offline [`suggest_f`] grid): large depth
    /// swings between checks lower `f` so the buffer `(1 − f)·qmax` can
    /// absorb a burst's worth of events, calm queues raise it back towards
    /// 0.95 so fewer events are shed. Off by default (`f` stays fixed).
    pub adapt_f: bool,
    /// Headroom fraction for *capacity sizing* on top of `qmax`: a queue
    /// sized to `qmax · (1 + burst_slack)` events can hold the deepest
    /// queue the latency bound tolerates plus a burst's worth of slack, so
    /// the overload detector observes depths up to (and beyond) `qmax`
    /// instead of having backpressure clip the very signal the `f · qmax`
    /// check acts on. Used by [`ShedPlanner::sized_event_capacity`]; plays
    /// no role in the shedding decisions themselves.
    pub burst_slack: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            latency_bound: SimDuration::from_secs(1),
            f: 0.8,
            check_interval: SimDuration::from_millis(100),
            adapt_f: false,
            burst_slack: 0.25,
        }
    }
}

impl OverloadConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]` or the latency bound is zero.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.f), "f must be in [0, 1]");
        assert!(!self.latency_bound.is_zero(), "latency bound must be positive");
        assert!(!self.check_interval.is_zero(), "check interval must be positive");
        assert!(
            self.burst_slack.is_finite() && self.burst_slack >= 0.0,
            "burst slack must be a non-negative finite fraction"
        );
    }
}

/// A shedding directive computed by the planner: how many events to drop from
/// each partition of every window, and how the windows are partitioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPlan {
    /// Whether shedding is active at all.
    pub active: bool,
    /// Number of partitions `ρ` a window is split into.
    pub partitions: usize,
    /// Partition size `psize` in events.
    pub partition_size: usize,
    /// Number of events `x` to drop from each partition (fractional: the
    /// expected number of drops per partition).
    pub events_to_drop: f64,
}

impl ShedPlan {
    /// The plan that sheds nothing.
    pub fn inactive() -> Self {
        ShedPlan { active: false, partitions: 1, partition_size: 1, events_to_drop: 0.0 }
    }

    /// Total expected drops per window.
    pub fn drops_per_window(&self) -> f64 {
        if self.active {
            self.events_to_drop * self.partitions as f64
        } else {
            0.0
        }
    }
}

/// Pure computation of shedding plans from rates and window geometry. Split
/// from [`OverloadDetector`] so experiments can compute plans directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPlanner {
    config: OverloadConfig,
    /// Operator throughput `th` in events per second.
    throughput: f64,
}

impl ShedPlanner {
    /// Creates a planner for an operator with throughput `th` (events/s).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `throughput` is not positive.
    pub fn new(config: OverloadConfig, throughput: f64) -> Self {
        config.validate();
        assert!(throughput.is_finite() && throughput > 0.0, "throughput must be positive");
        ShedPlanner { config, throughput }
    }

    /// The configured overload parameters.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// The operator throughput used by the planner.
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Replaces the throughput the planner works against, e.g. with a
    /// freshly *measured* drain rate (closed-loop overload detection
    /// derives `th` from the shard's own queue instead of a profiled
    /// constant). `qmax` and all derived quantities follow immediately.
    ///
    /// # Panics
    ///
    /// Panics if `throughput` is not positive and finite.
    pub fn set_throughput(&mut self, throughput: f64) {
        assert!(throughput.is_finite() && throughput > 0.0, "throughput must be positive");
        self.throughput = throughput;
    }

    /// Replaces the activation fraction `f` the planner works against
    /// (online `f` adaptation; see [`OverloadConfig::adapt_f`]). The
    /// activation threshold and the buffer size follow immediately.
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]`.
    pub fn set_f(&mut self, f: f64) {
        assert!((0.0..=1.0).contains(&f), "f must be in [0, 1]");
        self.config.f = f;
    }

    /// Event processing latency `l(p) = 1 / th`.
    pub fn processing_latency(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.throughput)
    }

    /// Maximum queue length before the latency bound is violated,
    /// `qmax = LB / l(p)`.
    pub fn qmax(&self) -> usize {
        (self.config.latency_bound.as_secs_f64() * self.throughput).floor() as usize
    }

    /// Queue length at which shedding starts (`f · qmax`).
    pub fn activation_queue_length(&self) -> usize {
        (self.config.f * self.qmax() as f64).floor() as usize
    }

    /// The buffer available once shedding starts: `qmax − f · qmax`. This is
    /// the upper bound on the dropping interval (partition size).
    pub fn buffer_size(&self) -> usize {
        (self.qmax() - self.activation_queue_length()).max(1)
    }

    /// Number of partitions `ρ = ceil(ws / buffer)` for a window of `ws` events.
    pub fn partitions_for_window(&self, window_size: usize) -> usize {
        window_size.max(1).div_ceil(self.buffer_size()).max(1)
    }

    /// The input-queue capacity (in **events**) closed-loop control wants:
    /// `ceil(qmax · (1 + burst_slack))`. Any smaller and backpressure
    /// engages before the measured depth can reach the `f · qmax`
    /// activation threshold — the producer is throttled instead of the
    /// shedder acting, and the detector never sees the overload it is
    /// supposed to manage. The slack term keeps bursts observable beyond
    /// `qmax` itself. This replaces hand-picked queue capacities wherever a
    /// throughput estimate exists (see
    /// `StreamingRunConfig::sized` in `espice-runtime`).
    pub fn sized_event_capacity(&self) -> usize {
        ((self.qmax() as f64) * (1.0 + self.config.burst_slack)).ceil().max(1.0) as usize
    }

    /// [`sized_event_capacity`](Self::sized_event_capacity) expressed in
    /// hand-off slots for a chunked queue carrying `chunk_capacity` events
    /// per slot.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_capacity` is zero.
    pub fn sized_queue_capacity(&self, chunk_capacity: usize) -> usize {
        assert!(chunk_capacity >= 1, "chunk capacity must be at least 1");
        self.sized_event_capacity().div_ceil(chunk_capacity)
    }

    /// Computes the shedding plan for input rate `input_rate` (events/s) and
    /// windows of `window_size` events. Returns an inactive plan when the rate
    /// does not exceed the throughput.
    pub fn plan(&self, input_rate: f64, window_size: usize) -> ShedPlan {
        let delta = input_rate - self.throughput;
        if delta <= 0.0 {
            return ShedPlan::inactive();
        }
        let partitions = self.partitions_for_window(window_size);
        let partition_size = (window_size.max(1) as f64 / partitions as f64).ceil() as usize;
        // x = δ · psize / R  (psize / R is the partition duration in seconds).
        let events_to_drop = delta * partition_size as f64 / input_rate;
        ShedPlan { active: true, partitions, partition_size, events_to_drop }
    }
}

/// The overload detector: tracks the observed input rate, periodically checks
/// the queue length and decides when shedding must be switched on or off.
#[derive(Debug, Clone)]
pub struct OverloadDetector {
    planner: ShedPlanner,
    /// Exponentially smoothed estimate of the input rate (events/s).
    rate_estimate: f64,
    shedding_active: bool,
    activations: u64,
    checks: u64,
}

impl OverloadDetector {
    /// Creates a detector for the given configuration and operator throughput.
    ///
    /// # Panics
    ///
    /// Panics if the planner parameters are invalid.
    pub fn new(config: OverloadConfig, throughput: f64) -> Self {
        OverloadDetector {
            planner: ShedPlanner::new(config, throughput),
            rate_estimate: throughput,
            shedding_active: false,
            activations: 0,
            checks: 0,
        }
    }

    /// The planner used by this detector.
    pub fn planner(&self) -> &ShedPlanner {
        &self.planner
    }

    /// Updates the throughput the detector plans against (a new drain-rate
    /// measurement). See [`ShedPlanner::set_throughput`].
    ///
    /// # Panics
    ///
    /// Panics if `throughput` is not positive and finite.
    pub fn set_throughput(&mut self, throughput: f64) {
        self.planner.set_throughput(throughput);
    }

    /// Replaces the activation fraction `f` the detector plans against.
    /// See [`ShedPlanner::set_f`].
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]`.
    pub fn set_f(&mut self, f: f64) {
        self.planner.set_f(f);
    }

    /// The current input-rate estimate.
    pub fn input_rate(&self) -> f64 {
        self.rate_estimate
    }

    /// Whether shedding is currently active.
    pub fn is_shedding(&self) -> bool {
        self.shedding_active
    }

    /// How often shedding has been (re-)activated.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// How many queue checks have been performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Records an input-rate observation (events/s over the last measurement
    /// interval), smoothing it into the running estimate.
    pub fn observe_rate(&mut self, rate: f64) {
        if rate.is_finite() && rate >= 0.0 {
            self.rate_estimate = 0.5 * rate + 0.5 * self.rate_estimate;
        }
    }

    /// Periodic queue check (the detector's main loop body): decides whether
    /// shedding must be active and, if so, returns the plan the load shedder
    /// should apply. Returns `None` when shedding should be switched off.
    pub fn check_queue(&mut self, queue_length: usize, window_size: usize) -> Option<ShedPlan> {
        self.checks += 1;
        let threshold = self.planner.activation_queue_length();
        if queue_length > threshold {
            if !self.shedding_active {
                self.shedding_active = true;
                self.activations += 1;
            }
            // Shed the rate surplus plus a term that drains the current queue
            // overshoot over roughly the next `qmax` events, so the queue is
            // pushed back towards the activation threshold instead of creeping
            // towards `qmax` (the paper relies on the threshold overshooting
            // "at least x"; with exact drop amounts an explicit drain term is
            // needed).
            let mut plan =
                self.planner.plan(self.rate_estimate.max(self.planner.throughput()), window_size);
            if !plan.active {
                let partitions = self.planner.partitions_for_window(window_size);
                let partition_size =
                    (window_size.max(1) as f64 / partitions as f64).ceil() as usize;
                plan = ShedPlan { active: true, partitions, partition_size, events_to_drop: 0.0 };
            }
            let overshoot = (queue_length - threshold) as f64;
            let drain =
                overshoot * plan.partition_size as f64 / self.planner.buffer_size().max(1) as f64;
            plan.events_to_drop = (plan.events_to_drop + drain).max(1.0);
            Some(plan)
        } else {
            self.shedding_active = false;
            None
        }
    }
}

/// Suggests an `f` value (paper §3.4, *Appropriate f Value*): the largest `f`
/// on a grid such that every partition of the resulting size still contains at
/// least `events_to_drop` events from the lowest utility class, so shedding
/// never has to remove high-utility events.
///
/// `low_utility_cutoff` defines the "low" class (events with utility ≤ cutoff).
pub fn suggest_f(
    model: &UtilityModel,
    planner_template: &ShedPlanner,
    window_size: usize,
    events_to_drop: f64,
    low_utility_cutoff: u8,
) -> f64 {
    let candidates = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];
    for &f in &candidates {
        let config = OverloadConfig { f, ..*planner_template.config() };
        let planner = ShedPlanner::new(config, planner_template.throughput());
        let partitions = planner.partitions_for_window(window_size);
        let cdts = model.cdt_partitions(partitions);
        if cdts.iter().all(|cdt| cdt.occurrences(low_utility_cutoff) >= events_to_drop) {
            return f;
        }
    }
    0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelBuilder, ModelConfig};
    use espice_cep::{WindowEventDecider, WindowMeta};
    use espice_events::{Event, EventType, Timestamp};

    fn planner(lb_secs: u64, f: f64, th: f64) -> ShedPlanner {
        ShedPlanner::new(
            OverloadConfig {
                latency_bound: SimDuration::from_secs(lb_secs),
                f,
                ..OverloadConfig::default()
            },
            th,
        )
    }

    #[test]
    fn qmax_is_latency_bound_over_processing_latency() {
        let p = planner(1, 0.8, 1000.0);
        assert_eq!(p.qmax(), 1000);
        assert_eq!(p.activation_queue_length(), 800);
        assert_eq!(p.buffer_size(), 200);
        assert!((p.processing_latency().as_secs_f64() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn small_windows_need_one_partition() {
        let p = planner(1, 0.8, 1000.0);
        // Buffer is 200 events; a 150-event window fits in one partition.
        assert_eq!(p.partitions_for_window(150), 1);
        assert_eq!(p.partitions_for_window(200), 1);
    }

    #[test]
    fn large_windows_are_partitioned_to_the_buffer_size() {
        let p = planner(1, 0.8, 1000.0);
        assert_eq!(p.partitions_for_window(2000), 10);
        assert_eq!(p.partitions_for_window(2001), 11);
        let plan = p.plan(1200.0, 2000);
        assert!(plan.active);
        assert_eq!(plan.partitions, 10);
        assert_eq!(plan.partition_size, 200);
        // x = δ·psize/R = 200 · 200 / 1200 ≈ 33.3 events per partition.
        assert!((plan.events_to_drop - 33.33).abs() < 0.1);
        assert!((plan.drops_per_window() - 333.3).abs() < 1.0);
    }

    #[test]
    fn drop_amount_matches_rate_surplus() {
        let p = planner(1, 0.8, 1000.0);
        // R1 = 20 % over throughput on a window that fits the buffer.
        let plan = p.plan(1200.0, 150);
        // Dropping x events every psize/R seconds must remove the surplus:
        // x / (psize / R) = δ.
        let removal_rate = plan.events_to_drop / (plan.partition_size as f64 / 1200.0);
        assert!((removal_rate - 200.0).abs() < 1e-6);
    }

    #[test]
    fn no_plan_when_rate_below_throughput() {
        let p = planner(1, 0.8, 1000.0);
        let plan = p.plan(900.0, 500);
        assert!(!plan.active);
        assert_eq!(plan.drops_per_window(), 0.0);
        assert_eq!(ShedPlan::inactive().drops_per_window(), 0.0);
    }

    #[test]
    fn sized_capacity_is_qmax_plus_burst_slack() {
        // LB = 100 ms at 10k events/s → qmax = 1000. The default 25 %
        // burst slack sizes the queue to 1250 events; in chunked hand-off
        // slots that is ceil(1250 / chunk).
        let config = OverloadConfig {
            latency_bound: SimDuration::from_millis(100),
            ..OverloadConfig::default()
        };
        let p = ShedPlanner::new(config, 10_000.0);
        assert_eq!(p.qmax(), 1000);
        assert_eq!(p.sized_event_capacity(), 1250);
        assert_eq!(p.sized_queue_capacity(1), 1250, "chunk 1: slots are events");
        assert_eq!(p.sized_queue_capacity(256), 5);
        assert_eq!(p.sized_queue_capacity(2048), 1, "never zero slots");
    }

    #[test]
    fn sized_capacity_never_clips_the_activation_signal() {
        // The whole point of the sizing rule: however the slack is chosen,
        // the queue must be able to *hold* qmax events, else backpressure
        // throttles the producer before the measured depth can cross
        // f·qmax and the detector never observes the overload. The
        // committed capacity sweep (BENCH_stream.json) shows the same knee
        // from the throughput side: capacities well below the queue the
        // workload builds (16) collapse throughput behind backpressure,
        // while the plateau starts once the queue can hold the burst.
        for slack in [0.0, 0.1, 0.25, 1.0] {
            let config = OverloadConfig {
                latency_bound: SimDuration::from_millis(50),
                burst_slack: slack,
                ..OverloadConfig::default()
            };
            let p = ShedPlanner::new(config, 20_000.0);
            assert!(
                p.sized_event_capacity() >= p.qmax(),
                "slack {slack} sized below qmax: the f·qmax check would starve"
            );
            assert!(p.sized_event_capacity() >= p.activation_queue_length());
            // Slack is headroom, not an unbounded multiplier.
            assert!(p.sized_event_capacity() <= p.qmax() * 2 + 1 || slack > 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "burst slack")]
    fn negative_burst_slack_rejected() {
        OverloadConfig { burst_slack: -0.5, ..OverloadConfig::default() }.validate();
    }

    #[test]
    fn detector_activates_above_f_qmax_and_deactivates_below() {
        let mut d = OverloadDetector::new(
            OverloadConfig {
                latency_bound: SimDuration::from_secs(1),
                f: 0.8,
                ..OverloadConfig::default()
            },
            1000.0,
        );
        d.observe_rate(1400.0);
        d.observe_rate(1400.0);
        assert!(d.input_rate() > 1000.0);
        assert!(d.check_queue(700, 500).is_none());
        assert!(!d.is_shedding());
        let plan = d.check_queue(900, 500).expect("queue above f·qmax must trigger shedding");
        assert!(plan.active);
        assert!(d.is_shedding());
        assert_eq!(d.activations(), 1);
        assert!(d.check_queue(100, 500).is_none());
        assert!(!d.is_shedding());
        assert_eq!(d.checks(), 3);
    }

    #[test]
    fn detector_sheds_on_burst_even_if_rate_estimate_is_low() {
        let mut d = OverloadDetector::new(OverloadConfig::default(), 1000.0);
        // Rate estimate stays at throughput, but the queue overshoots.
        let plan = d.check_queue(950, 100).expect("overshoot must trigger shedding");
        assert!(plan.active);
        assert!(plan.events_to_drop >= 1.0);
    }

    #[test]
    fn rate_observation_smooths() {
        let mut d = OverloadDetector::new(OverloadConfig::default(), 1000.0);
        d.observe_rate(2000.0);
        assert!((d.input_rate() - 1500.0).abs() < 1e-9);
        d.observe_rate(f64::NAN);
        assert!((d.input_rate() - 1500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "f must be in [0, 1]")]
    fn invalid_f_rejected() {
        let _ = planner(1, 1.5, 100.0);
    }

    #[test]
    #[should_panic(expected = "throughput")]
    fn invalid_throughput_rejected() {
        let _ = planner(1, 0.5, 0.0);
    }

    #[test]
    fn suggest_f_prefers_high_f_when_low_utilities_abound() {
        // Model where every event has utility 0: even tiny partitions contain
        // enough low-utility events, so the highest candidate f is chosen.
        let config = ModelConfig::with_positions(100);
        let mut builder = ModelBuilder::new(config, 1);
        let meta = WindowMeta {
            id: 0,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: 100,
        };
        for pos in 0..100 {
            let e = Event::new(EventType::from_index(0), Timestamp::ZERO, pos as u64);
            let _ = builder.decide(&meta, pos, &e);
        }
        builder.window_closed(&meta, 100);
        let model = builder.build();
        let template = planner(1, 0.8, 1000.0);
        let f = suggest_f(&model, &template, 100, 2.0, 10);
        assert!((f - 0.95).abs() < 1e-9);
    }
}
