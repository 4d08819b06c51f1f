//! Discrete-event queueing simulation of the CEP operator under overload
//! (reproduces Figure 7: event latency over time with a 1 s latency bound).
//!
//! The operator is modelled as a single FIFO server (the paper throttles its
//! prototype to a single thread as the resource limitation): events arrive at
//! the configured input rate, wait in the input queue and are processed one by
//! one. Processing an event costs `1 / th` of simulated time when nothing is
//! shed; when the load shedder drops the event from a fraction of its windows,
//! the cost shrinks proportionally — dropping an event from every window it
//! belongs to makes it (almost) free, which is how shedding relieves the
//! queue.
//!
//! Overload detection is **closed-loop**: the simulation drives the same
//! [`QueueOverloadController`] the real streaming engine uses, feeding it
//! the simulated clock, the simulated queue depth and the drain/busy
//! counters of the simulated servers every `check_interval`. The
//! configured `throughput` and `input_rate` only define the simulated
//! *world* (service cost and arrival process); the controller never sees
//! them — it measures both from the queue, exactly as it would against
//! real hardware. That makes this module the deterministic test oracle for
//! the closed control loop.

use crate::adaptive::AdaptiveShedder;
use crate::metrics::LatencyTrace;
use crate::streaming::{ChurnAction, QueryChurn};
use espice::{ControlAction, QueueOverloadController};
use espice_cep::{ComplexEvent, Operator, OperatorStats, Query, QueryId, QuerySet};
use espice_events::{RateReplay, SimDuration, Timestamp, VecStream};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Parameters of the queueing simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySimConfig {
    /// Operator throughput `th` in events per second.
    pub throughput: f64,
    /// Input rate in events per second (e.g. `1.2 · th` for the paper's R1).
    pub input_rate: f64,
    /// Latency bound `LB`.
    pub latency_bound: SimDuration,
    /// Queue-fill factor `f` at which shedding starts.
    pub f: f64,
    /// How often the overload detector checks the queue.
    pub check_interval: SimDuration,
    /// How often a latency sample is recorded for the trace.
    pub sample_interval: SimDuration,
    /// Fixed per-event overhead of consulting the load shedder, as a fraction
    /// of the per-event processing cost (the paper measures ≤ 5 %).
    pub shedding_overhead: f64,
    /// Number of parallel engine shards serving the input queue (1 = the
    /// paper's single-threaded operator). Each shard is a server with
    /// `throughput` events/s of capacity; events are dispatched to the shard
    /// that frees up first, so `shards` multiplies the service capacity the
    /// overload detector works against.
    pub shards: usize,
}

impl Default for LatencySimConfig {
    fn default() -> Self {
        LatencySimConfig {
            throughput: 1000.0,
            input_rate: 1200.0,
            latency_bound: SimDuration::from_secs(1),
            f: 0.8,
            check_interval: SimDuration::from_millis(100),
            sample_interval: SimDuration::from_millis(500),
            shedding_overhead: 0.01,
            shards: 1,
        }
    }
}

impl LatencySimConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if rates are non-positive, `f` is out of range, or intervals are
    /// zero.
    pub fn validate(&self) {
        assert!(self.throughput > 0.0 && self.input_rate > 0.0, "rates must be positive");
        assert!((0.0..=1.0).contains(&self.f), "f must be in [0, 1]");
        assert!(!self.check_interval.is_zero(), "check interval must be positive");
        assert!(!self.sample_interval.is_zero(), "sample interval must be positive");
        assert!(
            (0.0..1.0).contains(&self.shedding_overhead),
            "shedding overhead must be a fraction in [0, 1)"
        );
        assert!(self.shards >= 1, "need at least one shard");
    }
}

/// Result of a simulation run: the latency trace plus the complex events the
/// operator produced while shedding.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The latency trace (Figure 7 series).
    pub trace: LatencyTrace,
    /// Complex events detected during the simulated run.
    pub complex_events: Vec<ComplexEvent>,
    /// How often the overload detector switched shedding on.
    pub shedding_activations: u64,
    /// The controller's final *measured* throughput estimate (events/s),
    /// if it calibrated. Compare against the configured service capacity
    /// to judge the measurement path.
    pub measured_throughput: Option<f64>,
}

/// Result of a multi-query simulation run: one latency trace for the
/// shared queue, plus each query's complex events.
#[derive(Debug, Clone)]
pub struct MultiSimulationOutcome {
    /// The latency trace of the shared queue (service times sum every
    /// query's work per event).
    pub trace: LatencyTrace,
    /// Complex events detected per query, indexed by query.
    pub complex_events: Vec<Vec<ComplexEvent>>,
    /// Shedding activations summed over all per-query controllers.
    pub shedding_activations: u64,
    /// The largest final *measured* throughput estimate across the
    /// per-query controllers, if any calibrated (they share one published
    /// signal, so they rarely disagree by more than smoothing lag).
    pub measured_throughput: Option<f64>,
}

/// The queueing simulation.
#[derive(Debug, Clone)]
pub struct LatencySimulation {
    config: LatencySimConfig,
}

impl LatencySimulation {
    /// Creates a simulation with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: LatencySimConfig) -> Self {
        config.validate();
        LatencySimulation { config }
    }

    /// The simulation parameters.
    pub fn config(&self) -> &LatencySimConfig {
        &self.config
    }

    /// Replays `stream` into an operator running `query` at the configured
    /// input rate, with `shedder` in the loop, and records per-event
    /// latencies. Single-query wrapper over [`run_set`](Self::run_set).
    pub fn run<S>(&self, query: &Query, stream: &VecStream, shedder: &mut S) -> SimulationOutcome
    where
        S: AdaptiveShedder,
    {
        let mut outcome =
            self.run_set(&QuerySet::single(query.clone()), stream, std::slice::from_mut(shedder));
        SimulationOutcome {
            trace: outcome.trace,
            complex_events: outcome.complex_events.pop().expect("one query"),
            shedding_activations: outcome.shedding_activations,
            measured_throughput: outcome.measured_throughput,
        }
    }

    /// Replays `stream` into one operator **per query** of `queries` at the
    /// configured input rate, with one adaptive shedder per query in the
    /// loop, and records per-event latencies over the *shared* queue.
    ///
    /// This is the deterministic oracle for the fused multi-query engine:
    /// all queries are served by the same simulated FIFO servers (an
    /// event's service time sums the work every query actually performed on
    /// it), one queue feeds them all, and — exactly as on the real
    /// streaming path — each query runs its own
    /// [`QueueOverloadController`] fed the same measured samples, with a
    /// [`SharedThroughput`](espice::SharedThroughput) signal keeping their
    /// capacity estimates in agreement. The paper's `f·qmax` check thereby
    /// governs a queue serving all queries at once.
    pub fn run_set<S>(
        &self,
        queries: &QuerySet,
        stream: &VecStream,
        shedders: &mut [S],
    ) -> MultiSimulationOutcome
    where
        S: AdaptiveShedder,
    {
        assert_eq!(shedders.len(), queries.len(), "need exactly one shedder per query");
        let borrowed: Vec<&mut S> = shedders.iter_mut().collect();
        self.run_set_live(queries, stream, borrowed, &[], |_, _| {
            unreachable!("an empty churn schedule admits nothing")
        })
    }

    /// [`run_set`](Self::run_set) with a lifecycle schedule in the loop:
    /// the simulated query population changes mid-stream according to
    /// `churn` — admissions get a fresh operator (window ids from zero, as
    /// a fresh engine's would), a fresh shedder from `make_shedder(slot,
    /// query)` and a fresh controller on the shared throughput signal;
    /// retirements stop opening windows at their position, drain the open
    /// windows to completion and then tear operator, shedder and
    /// controller down. Positions are event indices into `stream`, exactly
    /// the anchors [`run_closed_loop_live`](crate::run_closed_loop_live)
    /// replays on the real engine — this simulation is the deterministic
    /// oracle for that path.
    ///
    /// The outcome's per-slot axis covers every slot ever admitted;
    /// retired slots keep the complex events they produced while live.
    ///
    /// # Panics
    ///
    /// Panics if the initial shedder count mismatches, or a churn entry
    /// retires a slot that does not exist when its position is reached.
    pub fn run_set_live<S, F>(
        &self,
        initial: &QuerySet,
        stream: &VecStream,
        initial_shedders: Vec<S>,
        churn: &[QueryChurn],
        mut make_shedder: F,
    ) -> MultiSimulationOutcome
    where
        S: AdaptiveShedder,
        F: FnMut(QueryId, &Query) -> S,
    {
        assert_eq!(
            initial_shedders.len(),
            initial.len(),
            "need exactly one shedder per initial query"
        );
        let cfg = &self.config;
        let base_service = SimDuration::from_secs_f64(1.0 / cfg.throughput);
        let overhead = base_service.mul_f64(cfg.shedding_overhead);
        let servers = cfg.shards.max(1);

        // The closed-loop controllers measure the *aggregate* drain
        // capacity by themselves: with N servers the summed busy time
        // scales the estimate, so both the tolerable queue length (qmax)
        // and the rate surplus to shed follow the real service capacity —
        // no precomputed throughput or input rate is handed over. One
        // controller per query (each plans against its own window
        // geometry), sharing one published throughput estimate since one
        // queue serves them all; admitted queries join the same signal.
        let shared = std::sync::Arc::new(espice::SharedThroughput::new());
        let overload = espice::OverloadConfig {
            latency_bound: cfg.latency_bound,
            f: cfg.f,
            check_interval: cfg.check_interval,
            ..espice::OverloadConfig::default()
        };
        let fresh_controller = || {
            let mut controller = QueueOverloadController::with_servers(overload, servers);
            controller.share_throughput(std::sync::Arc::clone(&shared));
            controller
        };

        let mut slots: Vec<SimSlot<S>> = initial
            .iter()
            .zip(initial_shedders)
            .map(|((query_id, query), shedder)| SimSlot::Live {
                operator: Operator::for_query(query.clone(), query_id, 0, 1),
                shedder,
                controller: fresh_controller(),
                draining: false,
            })
            .collect();
        let mut complex_events: Vec<Vec<ComplexEvent>> =
            (0..slots.len()).map(|_| Vec::new()).collect();
        let mut ordered: Vec<&QueryChurn> = churn.iter().collect();
        ordered.sort_by_key(|change| change.at);
        let mut next_change = 0usize;

        // Completion times of events still "in the system" (with their
        // service durations, so completed work can be credited to the
        // controllers' busy-time measurement); used to derive the queue
        // length seen by the overload controllers. A min-heap because with
        // several servers completions are not monotone in arrival order.
        let mut in_flight: BinaryHeap<Reverse<(Timestamp, SimDuration)>> = BinaryHeap::new();
        // One FIFO server per engine shard; an event is dispatched to the
        // server that frees up first. `shards == 1` is the paper's
        // single-threaded operator.
        let mut server_free: Vec<Timestamp> = vec![Timestamp::ZERO; servers];
        let mut next_check = cfg.check_interval;
        let mut next_sample = Timestamp::ZERO;
        // Cumulative busy time of all servers (sum of completed service
        // durations) and events drained since the last check.
        let mut busy_total = SimDuration::ZERO;
        let mut drained_since_check = 0u64;
        // Summed operator counters at the previous check (for the
        // kept/assignment deltas in the controllers' samples). Retired
        // slots keep contributing their frozen totals so the deltas stay
        // monotone across a teardown.
        let mut assignments_at_check = 0u64;
        let mut kept_at_check = 0u64;
        let mut peak_queue_depth = 0usize;

        let mut trace = LatencyTrace {
            bound: cfg.latency_bound,
            sample_interval: cfg.sample_interval,
            ..LatencyTrace::default()
        };
        let mut latency_sum = 0.0f64;

        for (index, (arrival, event)) in RateReplay::new(stream, cfg.input_rate).enumerate() {
            // Lifecycle changes due at this stream position, applied
            // before the event is offered to anyone — the same safe point
            // the real engine's in-band commands occupy.
            while next_change < ordered.len() && ordered[next_change].at <= index as u64 {
                let change = ordered[next_change];
                next_change += 1;
                match &change.action {
                    ChurnAction::Admit(query) => {
                        let slot = slots.len() as QueryId;
                        let shedder = make_shedder(slot, query);
                        // A mid-stream join: the first sample this
                        // controller sees carries the run's cumulative
                        // clocks, so it must align, not measure.
                        let mut controller = fresh_controller();
                        controller.join_in_progress();
                        slots.push(SimSlot::Live {
                            operator: Operator::for_query(query.clone(), slot, 0, 1),
                            shedder,
                            controller,
                            draining: false,
                        });
                        complex_events.push(Vec::new());
                    }
                    ChurnAction::Retire(slot) => {
                        let state = slots
                            .get_mut(*slot as usize)
                            .unwrap_or_else(|| panic!("churn retires unknown slot {slot}"));
                        let finished = match state {
                            SimSlot::Live { operator, draining, .. } => {
                                *draining = true;
                                operator.open_windows() == 0
                            }
                            SimSlot::Retired { .. } => false,
                        };
                        if finished {
                            finalize_sim_slot(state);
                        }
                    }
                }
            }

            // The event starts on the earliest-free server once it has
            // arrived.
            let mut server = 0;
            for idx in 1..server_free.len() {
                if server_free[idx] < server_free[server] {
                    server = idx;
                }
            }
            let start = arrival.max(server_free[server]);

            // Fire overload checks that are due before this event arrives.
            // Checks are anchored to arrival time so the queue length they
            // observe counts exactly the events that have arrived but not
            // yet completed at the check instant.
            while Timestamp::ZERO + next_check <= arrival {
                let check_time = Timestamp::ZERO + next_check;
                while in_flight.peek().is_some_and(|&Reverse((c, _))| c <= check_time) {
                    let Reverse((_, service)) = in_flight.pop().expect("peeked above");
                    busy_total += service;
                    drained_since_check += 1;
                }
                // The controllers see exactly what a drain loop would
                // report: cumulative time/busy, current depth, the drain
                // delta and the kept/assignment deltas of the processed
                // events (the kept fraction that normalises mid-shed
                // throughput measurements). Queue state is shared; only
                // the window-size prediction is per query.
                let assignments_now: u64 = slots.iter().map(SimSlot::assignments).sum();
                let kept_now: u64 = slots.iter().map(SimSlot::kept).sum();
                let mut measurement = espice_cep::QueueSample {
                    elapsed: next_check,
                    busy: busy_total,
                    depth: in_flight.len(),
                    drained: drained_since_check,
                    assignments: assignments_now - assignments_at_check,
                    kept: kept_now - kept_at_check,
                    predicted_window_size: 0,
                };
                assignments_at_check = assignments_now;
                kept_at_check = kept_now;
                drained_since_check = 0;
                for state in slots.iter_mut() {
                    let SimSlot::Live { operator, shedder, controller, .. } = state else {
                        continue;
                    };
                    measurement.predicted_window_size = operator.predicted_window_size();
                    match controller.sample(&measurement) {
                        Some(ControlAction::Shed(plan)) => shedder.apply_plan(plan),
                        Some(ControlAction::Resume) => shedder.deactivate(),
                        None => {}
                    }
                }
                next_check += cfg.check_interval;
            }

            // Process the event through every live query's operator (this
            // is where shedding decisions for each window happen). The
            // service time sums each query's share: proportional to the
            // window assignments that were actually processed, plus the
            // (small) shedding overhead whenever an active shedder is
            // consulted. Events that fall into no open window of a query
            // only pay the small constant cost of being parsed and
            // discarded — that operator has nothing to match them against.
            // Draining queries stop opening windows but keep feeding their
            // open ones; the moment the last closes, the slot is torn down
            // and stops costing service time at all.
            let mut service = SimDuration::ZERO;
            for (slot, state) in slots.iter_mut().enumerate() {
                let finished = match state {
                    SimSlot::Live { operator, shedder, draining, .. } => {
                        let assignments_before = operator.stats().assignments;
                        let kept_before = operator.stats().kept;
                        if *draining {
                            complex_events[slot]
                                .extend(operator.push_opened(&event, false, shedder));
                        } else {
                            complex_events[slot].extend(operator.push(&event, shedder));
                        }
                        let assignments = operator.stats().assignments - assignments_before;
                        let kept = operator.stats().kept - kept_before;
                        let work_fraction = if assignments == 0 {
                            0.05
                        } else {
                            (kept as f64 / assignments as f64).max(0.05)
                        };
                        service += base_service.mul_f64(work_fraction);
                        if shedder.is_active() {
                            service += overhead;
                        }
                        *draining && operator.open_windows() == 0
                    }
                    SimSlot::Retired { .. } => false,
                };
                if finished {
                    finalize_sim_slot(state);
                }
            }

            let completion = start + service;
            server_free[server] = completion;
            // Drain completions up to this arrival before recording the peak,
            // so the peak measures the true backlog (arrived, not yet
            // completed) rather than entries no check has pruned yet; the
            // drain/busy credit is identical wherever an entry is popped.
            while in_flight.peek().is_some_and(|&Reverse((c, _))| c <= arrival) {
                let Reverse((_, done_service)) = in_flight.pop().expect("peeked above");
                busy_total += done_service;
                drained_since_check += 1;
            }
            in_flight.push(Reverse((completion, service)));
            peak_queue_depth = peak_queue_depth.max(in_flight.len());

            let latency = completion.saturating_since(arrival);
            trace.events += 1;
            latency_sum += latency.as_secs_f64();
            if latency > cfg.latency_bound {
                trace.violations += 1;
            }
            if latency > trace.max_latency {
                trace.max_latency = latency;
            }
            if arrival >= next_sample {
                trace.samples.push((arrival.as_secs_f64(), latency.as_secs_f64()));
                next_sample = arrival + cfg.sample_interval;
            }
        }

        // Churn anchored at or past the end of the stream still applies —
        // exactly as the engine broadcasts late commands before the final
        // flush: late admissions create slots that never saw an event,
        // late retires tear down through the flush below.
        while next_change < ordered.len() {
            let change = ordered[next_change];
            next_change += 1;
            match &change.action {
                ChurnAction::Admit(query) => {
                    let slot = slots.len() as QueryId;
                    let shedder = make_shedder(slot, query);
                    let mut controller = fresh_controller();
                    controller.join_in_progress();
                    slots.push(SimSlot::Live {
                        operator: Operator::for_query(query.clone(), slot, 0, 1),
                        shedder,
                        controller,
                        draining: false,
                    });
                    complex_events.push(Vec::new());
                }
                ChurnAction::Retire(slot) => {
                    if let Some(SimSlot::Live { draining, .. }) = slots.get_mut(*slot as usize) {
                        *draining = true;
                    }
                }
            }
        }

        for (slot, state) in slots.iter_mut().enumerate() {
            let finished = match state {
                SimSlot::Live { operator, shedder, draining, .. } => {
                    complex_events[slot].extend(operator.flush(shedder));
                    *draining
                }
                SimSlot::Retired { .. } => continue,
            };
            if finished {
                finalize_sim_slot(state);
            }
        }
        trace.mean_latency_secs =
            if trace.events == 0 { 0.0 } else { latency_sum / trace.events as f64 };
        let mut merged_stats = OperatorStats::default();
        for state in &slots {
            merged_stats.merge(state.stats());
        }
        trace.drop_ratio = merged_stats.drop_ratio();
        trace.peak_queue_depth = peak_queue_depth;

        MultiSimulationOutcome {
            trace,
            complex_events,
            shedding_activations: slots.iter().map(SimSlot::activations).sum(),
            measured_throughput: slots
                .iter()
                .filter_map(SimSlot::throughput)
                .fold(None, |best: Option<f64>, th| Some(best.map_or(th, |b| b.max(th)))),
        }
    }
}

/// One entry of the simulation's per-query axis (the simulated counterpart
/// of the engine's query slots). Like the engine's slots, the common
/// `Live` variant stays unboxed — the vector is tiny and walked per event.
#[allow(clippy::large_enum_variant)]
enum SimSlot<S> {
    Live { operator: Operator, shedder: S, controller: QueueOverloadController, draining: bool },
    Retired { stats: OperatorStats, activations: u64, throughput: Option<f64> },
}

impl<S> SimSlot<S> {
    fn stats(&self) -> &OperatorStats {
        match self {
            SimSlot::Live { operator, .. } => operator.stats(),
            SimSlot::Retired { stats, .. } => stats,
        }
    }

    fn assignments(&self) -> u64 {
        self.stats().assignments
    }

    fn kept(&self) -> u64 {
        self.stats().kept
    }

    fn activations(&self) -> u64 {
        match self {
            SimSlot::Live { controller, .. } => controller.activations(),
            SimSlot::Retired { activations, .. } => *activations,
        }
    }

    fn throughput(&self) -> Option<f64> {
        match self {
            SimSlot::Live { controller, .. } => controller.throughput(),
            SimSlot::Retired { throughput, .. } => *throughput,
        }
    }
}

/// Freezes a drained slot: operator counters, controller activations and
/// the final throughput estimate survive; operator, shedder and controller
/// are dropped — the simulated teardown.
fn finalize_sim_slot<S>(state: &mut SimSlot<S>) {
    if let SimSlot::Live { operator, controller, .. } = state {
        let stats = operator.stats().clone();
        let activations = controller.activations();
        let throughput = controller.throughput();
        *state = SimSlot::Retired { stats, activations, throughput };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::RandomAdaptive;
    use crate::queries;
    use espice::{ModelBuilder, ModelConfig, RandomShedder};
    use espice_cep::{Operator as CepOperator, SelectionPolicy};
    use espice_datasets::{StockConfig, StockDataset};
    use espice_events::EventStream;

    fn dataset() -> StockDataset {
        StockDataset::generate(&StockConfig {
            num_symbols: 40,
            num_leading: 2,
            followers_per_leading: 10,
            duration_minutes: 60,
            cascade_probability: 0.6,
            ..StockConfig::default()
        })
    }

    fn sim_config(rate_factor: f64) -> LatencySimConfig {
        // A deliberately small throughput so the ~1200-event evaluation stream
        // covers several seconds of simulated time and the queue has time to
        // build up under overload.
        LatencySimConfig {
            throughput: 100.0,
            input_rate: 100.0 * rate_factor,
            ..LatencySimConfig::default()
        }
    }

    /// Trains an eSPICE shedder on the first half of the stream.
    fn trained_espice(ds: &StockDataset, query: &espice_cep::Query) -> espice::EspiceShedder {
        let half = ds.stream.slice(0, ds.stream.len() / 2);
        let mut builder = ModelBuilder::new(ModelConfig::with_positions(200), ds.registry.len());
        let mut op = CepOperator::new(query.clone());
        let matches = op.run(&half, &mut builder);
        for m in &matches {
            builder.observe_complex(m);
        }
        espice::EspiceShedder::new(builder.build())
    }

    #[test]
    fn underload_never_sheds_and_meets_bound() {
        let ds = dataset();
        let query = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let mut shedder = trained_espice(&ds, &query);
        let sim = LatencySimulation::new(sim_config(0.9));
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run(&query, &eval, &mut shedder);
        assert_eq!(outcome.shedding_activations, 0);
        assert_eq!(outcome.trace.drop_ratio, 0.0);
        assert!(outcome.trace.bound_held());
        assert!(outcome.trace.mean_latency_secs < 0.1);
    }

    #[test]
    fn overload_with_espice_keeps_latency_near_f_times_bound() {
        let ds = dataset();
        let query = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let mut shedder = trained_espice(&ds, &query);
        let sim = LatencySimulation::new(sim_config(1.4));
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run(&query, &eval, &mut shedder);
        assert!(outcome.shedding_activations >= 1, "overload must trigger shedding");
        assert!(outcome.trace.drop_ratio > 0.0);
        // The latency bound is 1 s; the shedder must keep the maximum latency
        // at or below it (allowing the one check-interval of slack the
        // detector needs to react).
        assert!(
            outcome.trace.max_latency.as_secs_f64() <= 1.05,
            "latency bound violated: {}",
            outcome.trace.max_latency
        );
        // Latency stabilises in the vicinity of f·LB = 0.8 s rather than
        // collapsing to zero (the queue stays near the activation threshold).
        assert!(outcome.trace.peak_sampled_latency() > 0.4);
    }

    #[test]
    fn overload_without_shedding_violates_the_bound() {
        let ds = dataset();
        let query = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        // A shedder that never drops: random shedder that is never activated
        // because we strip the detector's plans by deactivating on every apply.
        #[derive(Debug)]
        struct NeverShed(RandomAdaptive);
        impl espice_cep::WindowEventDecider for NeverShed {
            fn decide(
                &mut self,
                meta: &espice_cep::WindowMeta,
                position: usize,
                event: &espice_events::Event,
            ) -> espice_cep::Decision {
                self.0.decide(meta, position, event)
            }
        }
        impl AdaptiveShedder for NeverShed {
            fn apply_plan(&mut self, _plan: espice::ShedPlan) {}
            fn deactivate(&mut self) {}
            fn is_active(&self) -> bool {
                false
            }
        }
        let mut shedder = NeverShed(RandomAdaptive::new(RandomShedder::new(1), 200.0));
        let sim = LatencySimulation::new(sim_config(1.4));
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run(&query, &eval, &mut shedder);
        assert!(
            !outcome.trace.bound_held(),
            "a 40 % overload without shedding must violate the 1 s latency bound"
        );
    }

    #[test]
    fn two_shards_absorb_overload_without_shedding() {
        // 40 % overload saturates one server but only ~70 % of two: the
        // sharded engine holds the latency bound without dropping anything.
        let ds = dataset();
        let query = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let mut shedder = trained_espice(&ds, &query);
        let sim = LatencySimulation::new(LatencySimConfig { shards: 2, ..sim_config(1.4) });
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run(&query, &eval, &mut shedder);
        assert_eq!(outcome.trace.drop_ratio, 0.0);
        assert!(outcome.trace.bound_held());
        assert!(outcome.trace.mean_latency_secs < 0.1);
    }

    #[test]
    fn sharded_overload_sheds_against_aggregate_capacity() {
        // Input at 1.4x the *aggregate* capacity of two shards: the detector
        // must plan against 2*th — shedding activates, the bound holds, and
        // the drop ratio reflects the true surplus (~29 %), not the ~64 %
        // a single-server plan would impose.
        let ds = dataset();
        let query = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let mut shedder = trained_espice(&ds, &query);
        let sim = LatencySimulation::new(LatencySimConfig { shards: 2, ..sim_config(2.8) });
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run(&query, &eval, &mut shedder);
        assert!(outcome.shedding_activations >= 1, "aggregate overload must trigger shedding");
        assert!(outcome.trace.drop_ratio > 0.0);
        assert!(
            outcome.trace.drop_ratio < 0.5,
            "drop ratio {} suggests the plan ignored the second shard's capacity",
            outcome.trace.drop_ratio
        );
        assert!(
            outcome.trace.max_latency.as_secs_f64() <= 1.05,
            "latency bound violated: {}",
            outcome.trace.max_latency
        );
    }

    /// The multi-query oracle at underload: every query's simulated output
    /// equals its own standalone operator run, nothing sheds, and the
    /// shared queue holds the bound even though each event now carries two
    /// queries' worth of work.
    #[test]
    fn multi_query_underload_matches_standalone_operators() {
        let ds = dataset();
        let q_short = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let q_long = queries::q3(&ds, 8, 300, SelectionPolicy::First);
        let set = QuerySet::new(vec![q_short.clone(), q_long.clone()]);
        let mut shedders = vec![trained_espice(&ds, &q_short), trained_espice(&ds, &q_long)];
        // Two queries double the per-event work: halve the rate so the
        // shared server still runs below its aggregate capacity.
        let sim = LatencySimulation::new(sim_config(0.45));
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run_set(&set, &eval, &mut shedders);
        assert_eq!(outcome.shedding_activations, 0);
        assert_eq!(outcome.trace.drop_ratio, 0.0);
        assert!(outcome.trace.bound_held());
        for (id, query) in set.iter() {
            let expected = CepOperator::new(query.clone()).run(&eval, &mut espice_cep::KeepAll);
            assert_eq!(outcome.complex_events[id as usize], expected, "query {id} diverged");
        }
    }

    /// Overloading the shared queue with two queries: the per-query
    /// controllers (one shared throughput signal) must activate shedding
    /// and keep the shared queue's latency bounded.
    #[test]
    fn multi_query_overload_sheds_and_holds_the_bound() {
        let ds = dataset();
        let q_short = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let q_long = queries::q3(&ds, 8, 300, SelectionPolicy::First);
        let set = QuerySet::new(vec![q_short.clone(), q_long.clone()]);
        let mut shedders = vec![trained_espice(&ds, &q_short), trained_espice(&ds, &q_long)];
        // ~0.7 of the single-query capacity, but each event costs two
        // queries' worth of work: ~1.4x the shared server's capacity.
        let sim = LatencySimulation::new(sim_config(0.7));
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let outcome = sim.run_set(&set, &eval, &mut shedders);
        assert!(outcome.shedding_activations >= 1, "shared overload must trigger shedding");
        assert!(outcome.trace.drop_ratio > 0.0);
        assert!(
            outcome.trace.max_latency.as_secs_f64() <= 1.05,
            "latency bound violated: {}",
            outcome.trace.max_latency
        );
        let measured = outcome.measured_throughput.expect("controllers must calibrate");
        // The shared server's full-work capacity is ~th/2 per event at two
        // queries; the measured estimate must land near it, not near the
        // configured single-query throughput.
        assert!(
            measured < sim.config().throughput,
            "measured aggregate capacity {measured} should sit below the single-query rate"
        );
    }

    /// The simulated lifecycle oracle: the same churn schedule the real
    /// engine replays, here in deterministic simulated time. Underload, so
    /// nothing sheds — per-slot outputs must equal their static oracles.
    #[test]
    fn simulated_churn_matches_standalone_operators_per_slot() {
        let ds = dataset();
        let q_keep = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let q_retire = queries::q3(&ds, 6, 250, SelectionPolicy::First);
        let q_admit = queries::q3(&ds, 8, 300, SelectionPolicy::First);
        let set = QuerySet::new(vec![q_retire.clone(), q_keep.clone()]);
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let (retire_at, admit_at) = (150u64, 400u64);
        let churn = vec![
            crate::streaming::QueryChurn::retire(retire_at, 0),
            crate::streaming::QueryChurn::admit(admit_at, q_admit.clone()),
        ];

        let sim = LatencySimulation::new(sim_config(0.3));
        let shedders = vec![trained_espice(&ds, &q_retire), trained_espice(&ds, &q_keep)];
        let outcome = sim.run_set_live(&set, &eval, shedders, &churn, |slot, query| {
            assert_eq!(slot, 2, "exactly one admission expected");
            trained_espice(&ds, query)
        });

        assert_eq!(outcome.shedding_activations, 0, "underload must not shed");
        assert_eq!(outcome.trace.drop_ratio, 0.0);
        assert_eq!(outcome.complex_events.len(), 3);

        // Survivor: identical to its standalone run.
        let survivor = CepOperator::new(q_keep).run(&eval, &mut espice_cep::KeepAll);
        assert_eq!(outcome.complex_events[1], survivor);

        // Admitted: identical to a fresh operator over the suffix.
        let suffix = eval.slice(admit_at as usize, eval.len());
        let admitted = CepOperator::new(q_admit).run(&suffix, &mut espice_cep::KeepAll);
        assert_eq!(outcome.complex_events[2], admitted);

        // Retired: a drained prefix of its standalone output.
        let full = CepOperator::new(q_retire).run(&eval, &mut espice_cep::KeepAll);
        let retired = &outcome.complex_events[0];
        assert!(retired.len() <= full.len());
        assert_eq!(retired.as_slice(), &full[..retired.len()]);
    }

    /// Churn anchored at or past the stream end still applies, mirroring
    /// the engine's late-command semantics: a late admission yields an
    /// empty extra slot, a late retire tears down through the final flush.
    #[test]
    fn churn_past_the_stream_end_still_applies() {
        let ds = dataset();
        let q_keep = queries::q3(&ds, 5, 200, SelectionPolicy::First);
        let q_admit = queries::q3(&ds, 6, 250, SelectionPolicy::First);
        let set = QuerySet::new(vec![q_keep.clone()]);
        let eval = ds.stream.slice(ds.stream.len() / 2, ds.stream.len());
        let churn = vec![
            crate::streaming::QueryChurn::admit(eval.len() as u64 + 10, q_admit),
            crate::streaming::QueryChurn::retire(eval.len() as u64 + 10, 0),
        ];
        let sim = LatencySimulation::new(sim_config(0.3));
        let outcome = sim.run_set_live(
            &set,
            &eval,
            vec![trained_espice(&ds, &q_keep)],
            &churn,
            |_, query| trained_espice(&ds, query),
        );
        assert_eq!(outcome.complex_events.len(), 2, "late admission still creates its slot");
        assert!(outcome.complex_events[1].is_empty(), "a slot admitted at the end saw no events");
        // The retired slot still flushed its open windows first.
        let expected = CepOperator::new(q_keep).run(&eval, &mut espice_cep::KeepAll);
        assert_eq!(outcome.complex_events[0], expected);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn invalid_config_rejected() {
        LatencySimConfig { throughput: 0.0, ..LatencySimConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        LatencySimConfig { shards: 0, ..LatencySimConfig::default() }.validate();
    }
}
