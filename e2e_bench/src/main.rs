//! End-to-end overload benchmark of the eSPICE streaming engine.
//!
//! Runs one named workload through the public runtime and engine API,
//! checks its output against a keep-all reference over exactly the events
//! each run consumed, and prints every metric by name with its unit. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload soccer-q1-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! After one untimed warm-up sub-run, a run repeats *sub-runs* — fresh
//! engines over the same events — until `--seconds` of sub-run time have
//! passed. Every figure covers the whole run: throughput is the events of
//! all sub-runs over their wall time, latency percentiles pool the samples
//! of all sub-runs, and the bound share and the quality ratios count every
//! event of every sub-run. `--trace 0` prints the end-to-end metrics.
//! `--trace 1` spends half of `--seconds` on untraced sub-runs and half on
//! traced ones, prints the per-layer metrics of the traced sub-runs plus
//! the tracing overhead, and writes the sampled raw spans of the first
//! traced sub-run under `out/`. Everything is observed from outside the
//! engine: through the decider wrapper ([`probe`]), the event source
//! ([`source`]) and the statistics each run returns. See `README.md` for
//! why each workload exists.

mod probe;
mod source;
mod stats;

use espice::{EspiceShedder, ModelConfig, OverloadConfig, UtilityModel};
use espice_cep::{
    ComplexEvent, EngineStats, KeepAll, Operator, QuerySet, QueueStats, SelectionPolicy,
    ShardedEngine,
};
use espice_datasets::{SoccerConfig, SoccerDataset, StockConfig, StockDataset};
use espice_events::{Event, EventStream, SimDuration, VecStream};
use espice_runtime::experiment::{profile_average_window_size, Experiment, ExperimentConfig};
use espice_runtime::{
    queries, run_closed_loop_set, MultiStreamingOutcome, QualityMetrics, ShardControlReport,
    StreamingRunConfig,
};
use probe::{KernelTotals, Probe, RawSpan, ShardLog};
use source::{BenchSource, Laps, Pace, SourceTrace, OFFER_STRIDE};
use stats::{Failures, Latencies, Schedule};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this many times per run, and until the
/// repetitions have taken `SETUP_MIN_S` seconds, so a short set-up is not
/// timed over a single burst of interference; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Events of the untimed warm-up sub-run.
const WARM_UP_EVENTS: u64 = 2_000_000;
/// Events of the correctness gate that runs before any timing.
const GATE_EVENTS: u64 = 200_000;
/// Events of the single-threaded slice baseline (traced runs).
const BASELINE_EVENTS: u64 = 1_000_000;

/// The three workloads. See `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StockMixOverload,
    SoccerQ1Steady,
    StockMixSaturated,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::StockMixOverload, Workload::SoccerQ1Steady, Workload::StockMixSaturated];

    fn name(self) -> &'static str {
        match self {
            Workload::StockMixOverload => "stock-mix-overload",
            Workload::SoccerQ1Steady => "soccer-q1-steady",
            Workload::StockMixSaturated => "stock-mix-saturated",
        }
    }

    /// The open-loop rate in events/s, `None` for the unpaced workload.
    /// The overload rate is 1.7x the stock mix's unshedded capacity on a
    /// 2-core host (about 2.75 M events/s with keep-all deciders); the
    /// steady rate is well under soccer Q1's (about 7.6 M events/s).
    fn rate(self) -> Option<f64> {
        match self {
            Workload::StockMixOverload => Some(4.7e6),
            Workload::SoccerQ1Steady => Some(2.0e6),
            Workload::StockMixSaturated => None,
        }
    }

    /// Events of one sub-run: about a second of work, so a run takes the
    /// median over about ten sub-runs and a burst of interference on a
    /// shared host moves it little. The overload sub-run
    /// spans the whole run: shedding activates only after a second or two,
    /// and the collapse that follows is what the workload measures.
    fn sub_run_events(self, seconds: u64) -> u64 {
        match self {
            Workload::StockMixOverload => Schedule::new(4.7e6, seconds).due_total,
            Workload::SoccerQ1Steady => 2_000_000,
            Workload::StockMixSaturated => 2_500_000,
        }
    }

    /// The fixed drain-rate hint that sizes the closed-loop queues
    /// ([`StreamingRunConfig::sized`]): the unshedded capacity of the
    /// workload's queries with eSPICE idle on a 2-core host. The controller
    /// measures throughput online; the hint only sizes the queue, which
    /// must hold `f * LB * measured throughput` events or the controller
    /// never sees the overload (backpressure throttles the producer first).
    fn throughput_hint(self) -> f64 {
        match self {
            Workload::StockMixOverload | Workload::StockMixSaturated => 3.0e6,
            Workload::SoccerQ1Steady => 7.6e6,
        }
    }

    fn is_stock(self) -> bool {
        matches!(self, Workload::StockMixOverload | Workload::StockMixSaturated)
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Derives a dataset generator seed from the workload seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser over the pair.
    let mut z =
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-query keep-all outputs.
type Outputs = Vec<Vec<ComplexEvent>>;

/// Everything set-up produces: the dataset the source replays in laps,
/// the query set, one trained model per query (eSPICE workloads), the
/// time-window size hint and the keep-all references.
struct Prepared {
    events: Vec<Event>,
    queries: QuerySet,
    models: Vec<UtilityModel>,
    size_hint: Option<usize>,
    generate_s: f64,
    train_s: f64,
    reference_s: f64,
    /// Reference over the gate prefix.
    gate_reference: Outputs,
    /// Assignments per query over the gate prefix: the cost estimate that
    /// balances reference threads.
    costs: Vec<u64>,
    /// Reference over one sub-run's events, when that is known before the
    /// run (every workload whose sub-runs consume their whole schedule).
    reference: Option<Outputs>,
}

impl Prepared {
    fn laps(&self) -> Laps<'_> {
        Laps::new(&self.events)
    }

    fn times(&self) -> SetupTimes {
        SetupTimes {
            total_s: self.generate_s + self.train_s + self.reference_s,
            generate_s: self.generate_s,
            train_s: self.train_s,
        }
    }
}

/// The six fused stock queries: the blend (time, count and sliding
/// windows) plus the three Q4 slides.
fn stock_mix(dataset: &StockDataset) -> QuerySet {
    let blend = queries::mixes::stock_blend(dataset);
    let slides = queries::mixes::q4_slides(dataset);
    QuerySet::new(blend.queries().iter().chain(slides.queries()).cloned().collect())
}

/// Trains one eSPICE model per query on the dataset's training prefix.
/// Count windows use one model position per window position; time windows
/// use the profiled average size with binned positions.
fn train(
    queries: &QuerySet,
    stream: &VecStream,
    types: usize,
) -> (Vec<UtilityModel>, Option<usize>) {
    let profile_prefix = stream.slice(0, stream.len() / 5);
    let mut size_hint = None;
    let models = queries
        .queries()
        .iter()
        .map(|query| {
            let model_config = match query.window().expected_size() {
                Some(size) => ModelConfig::with_positions(size),
                None => {
                    let average = profile_average_window_size(query, &profile_prefix);
                    let positions = average.round().max(1.0) as usize;
                    size_hint.get_or_insert(positions);
                    ModelConfig { positions, bin_size: 8, ..ModelConfig::default() }
                }
            };
            let experiment = Experiment::train(
                std::slice::from_ref(query),
                stream,
                types,
                model_config,
                ExperimentConfig::default(),
            );
            experiment.model().clone()
        })
        .collect();
    (models, size_hint)
}

fn prepare(workload: Workload, seed: u64, sub_events: u64) -> Prepared {
    let started = Instant::now();
    let (stream, queries, types) = if workload.is_stock() {
        let config = StockConfig { seed: derive_seed(seed, 1), ..StockConfig::default() };
        let dataset = StockDataset::generate(&config);
        let queries = stock_mix(&dataset);
        (dataset.stream, queries, dataset.registry.len())
    } else {
        let config = SoccerConfig { seed: derive_seed(seed, 2), ..SoccerConfig::default() };
        let dataset = SoccerDataset::generate(&config);
        let query = queries::q1(&dataset, 4, SimDuration::from_secs(15), SelectionPolicy::First);
        (dataset.stream, QuerySet::single(query), dataset.registry.len())
    };
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let (models, size_hint) = match workload {
        Workload::StockMixSaturated => (Vec::new(), None),
        _ => train(&queries, &stream, types),
    };
    let train_s = started.elapsed().as_secs_f64();

    let events = stream.events().to_vec();
    let started = Instant::now();
    let laps = Laps::new(&events);
    let (gate_reference, costs) = reference(&queries, laps, GATE_EVENTS, None);
    let reference = (workload != Workload::StockMixOverload)
        .then(|| reference(&queries, laps, sub_events, Some(&costs)).0);
    let reference_s = started.elapsed().as_secs_f64();
    Prepared {
        events,
        queries,
        models,
        size_hint,
        generate_s,
        train_s,
        reference_s,
        gate_reference,
        costs,
        reference,
    }
}

/// Keep-all reference: one standalone [`Operator`] per query over the first
/// `count` events of the laps, split over two threads (largest estimated
/// cost first, each query to the lighter thread). Also returns each
/// query's assignment count.
fn reference(
    queries: &QuerySet,
    laps: Laps<'_>,
    count: u64,
    costs: Option<&[u64]>,
) -> (Outputs, Vec<u64>) {
    let n = queries.len();
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(costs) = costs {
        order.sort_by_key(|&q| std::cmp::Reverse(costs[q]));
    }
    let mut groups: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut load = [0u64; 2];
    for q in order {
        let lighter = usize::from(load[0] > load[1]);
        load[lighter] += costs.map_or(1, |c| c[q].max(1));
        groups[lighter].push(q);
    }
    let mut outputs: Outputs = vec![Vec::new(); n];
    let mut assignments = vec![0; n];
    std::thread::scope(|scope| {
        let workers: Vec<_> = groups
            .iter()
            .filter(|group| !group.is_empty())
            .map(|group| {
                scope.spawn(move || {
                    let mut operators: Vec<Operator> = group
                        .iter()
                        .map(|&q| Operator::new(queries.queries()[q].clone()))
                        .collect();
                    let mut out: Outputs = vec![Vec::new(); group.len()];
                    for k in 0..count {
                        let event = laps.event(k);
                        for (operator, out) in operators.iter_mut().zip(out.iter_mut()) {
                            out.extend(operator.push(&event, &mut KeepAll));
                        }
                    }
                    for (operator, out) in operators.iter_mut().zip(out.iter_mut()) {
                        out.extend(operator.flush(&mut KeepAll));
                    }
                    let work = operators.iter().map(|o| o.stats().assignments);
                    group.iter().copied().zip(out.into_iter().zip(work)).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (q, (out, work)) in worker.join().expect("reference worker panicked") {
                outputs[q] = out;
                assignments[q] = work;
            }
        }
    });
    (outputs, assignments)
}

/// The correctness gate before any timing: the fused streaming engine with
/// keep-all deciders must reproduce the reference over the gate prefix,
/// per query, byte for byte.
fn gate(prep: &Prepared) -> Result<(), String> {
    let mut engine = ShardedEngine::for_queries(prep.queries.clone(), 1);
    let mut deciders = vec![KeepAll; prep.queries.len()];
    let mut source = prep.laps().prefix(GATE_EVENTS);
    let outputs =
        engine.try_run_source_per_query(&mut source, &mut deciders).map_err(|e| e.to_string())?;
    for (q, (got, want)) in outputs.iter().zip(&prep.gate_reference).enumerate() {
        if got != want {
            return Err(format!("query {q} diverged from the keep-all reference"));
        }
    }
    if prep.gate_reference.iter().all(Vec::is_empty) {
        return Err("the reference found no complex events".into());
    }
    Ok(())
}

/// What one sub-run returns.
struct RunOutcome {
    /// Per-query output; `None` when the engine failed.
    outputs: Option<Outputs>,
    error: Option<String>,
    stats: EngineStats,
    queues: Vec<QueueStats>,
    control: Vec<ShardControlReport>,
    wall_s: f64,
    offered: u64,
    offered_ns: Vec<u64>,
    stamps: Vec<stats::Stamp>,
    totals: KernelTotals,
    source_trace: Option<SourceTrace>,
}

impl RunOutcome {
    fn drained(&self) -> u64 {
        self.stats.per_shard.first().map_or(0, |s| s.events_processed)
    }

    fn events_per_s(&self) -> f64 {
        ratio(self.drained() as f64, self.wall_s)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "engine panicked".into())
}

/// The schedule of one paced sub-run of `events` events.
fn schedule(workload: Workload, events: u64) -> Option<Schedule> {
    workload.rate().map(|rate| Schedule { rate, due_total: events })
}

/// One sub-run: a fresh engine over the first `events` events of the laps.
/// A paced source stops one latency bound after its last due instant (any
/// event not offered by then is certainly over the bound); an unpaced one
/// after `limit`.
fn run(
    workload: Workload,
    prep: &Prepared,
    events: u64,
    limit: Duration,
    traced: bool,
) -> RunOutcome {
    let overload = OverloadConfig::default();
    let bound = Duration::from_secs_f64(overload.latency_bound.as_secs_f64());
    let (pace, stop_after) = match schedule(workload, events) {
        Some(schedule) => {
            (Pace::Paced(schedule), Duration::from_secs_f64(events as f64 / schedule.rate) + bound)
        }
        None => (Pace::Unpaced, limit),
    };
    match workload {
        Workload::StockMixOverload | Workload::SoccerQ1Steady => {
            let mut config = StreamingRunConfig::sized(1, overload, workload.throughput_hint());
            config.window_size_hint = prep.size_hint;
            let shedders: Vec<EspiceShedder> =
                prep.models.iter().map(|model| EspiceShedder::new(model.clone())).collect();
            let origin = Instant::now();
            let log = ShardLog::new(origin, traced);
            let row: Vec<Probe<EspiceShedder>> =
                shedders.into_iter().map(|s| Probe::new(s, Arc::clone(&log))).collect();
            let mut source =
                BenchSource::new(prep.laps(), events, pace, origin, stop_after, traced);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_closed_loop_set(&prep.queries, &mut source, vec![row], &config)
            }));
            let wall_s = origin.elapsed().as_secs_f64();
            let (outputs, error, stats, queues, control) = match result {
                Ok(MultiStreamingOutcome { complex_events, stats, queues, control }) => {
                    let control = control.into_iter().flatten().collect();
                    (Some(complex_events), None, stats, queues, control)
                }
                Err(payload) => {
                    let error = Some(panic_message(&*payload));
                    (None, error, EngineStats::default(), Vec::new(), Vec::new())
                }
            };
            RunOutcome {
                outputs,
                error,
                stats,
                queues,
                control,
                wall_s,
                offered: source.offered(),
                offered_ns: source.offered_ns().to_vec(),
                stamps: log.take_stamps(),
                totals: log.take_totals(),
                source_trace: source.take_trace(),
            }
        }
        Workload::StockMixSaturated => {
            let mut engine = ShardedEngine::for_queries(prep.queries.clone(), 1);
            let origin = Instant::now();
            let log = ShardLog::new(origin, traced);
            let mut deciders: Vec<Probe<KeepAll>> =
                (0..prep.queries.len()).map(|_| Probe::new(KeepAll, Arc::clone(&log))).collect();
            let mut source =
                BenchSource::new(prep.laps(), events, pace, origin, stop_after, traced);
            let result = engine.try_run_source_per_query(&mut source, &mut deciders);
            let wall_s = origin.elapsed().as_secs_f64();
            drop(deciders);
            let (outputs, error) = match result {
                Ok(outputs) => (Some(outputs), None),
                Err(error) => (None, Some(error.to_string())),
            };
            RunOutcome {
                outputs,
                error,
                stats: engine.stats(),
                queues: engine.queue_stats().to_vec(),
                control: Vec::new(),
                wall_s,
                offered: source.offered(),
                offered_ns: source.offered_ns().to_vec(),
                stamps: log.take_stamps(),
                totals: log.take_totals(),
                source_trace: source.take_trace(),
            }
        }
    }
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Adds `other`'s counts to `total` (quality over queries and sub-runs).
fn add_quality(total: &mut QualityMetrics, other: &QualityMetrics) {
    total.ground_truth += other.ground_truth;
    total.detected += other.detected;
    total.true_positives += other.true_positives;
    total.false_positives += other.false_positives;
    total.false_negatives += other.false_negatives;
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The checked outcome of one sub-run.
struct Evaluation {
    problems: Vec<String>,
    failures: Failures,
    latencies: Latencies,
    quality: QualityMetrics,
}

fn evaluate(workload: Workload, prep: &Prepared, outcome: &RunOutcome, events: u64) -> Evaluation {
    let mut problems = Vec::new();
    if let Some(error) = &outcome.error {
        problems.push(format!("engine error: {error}"));
    }
    let bound_ns = OverloadConfig::default().latency_bound.as_secs_f64() * 1e9;
    let engine_failed = outcome.outputs.is_none();
    let (latencies, failures) = match schedule(workload, events) {
        Some(schedule) => {
            let latencies = Latencies::Paced { schedule, stamps: outcome.stamps.clone() };
            let over = latencies.count() - latencies.count_within(bound_ns);
            let failures = Failures::count(events, outcome.offered, over, engine_failed);
            (latencies, failures)
        }
        None => {
            // Unpaced: every offered event is due when offered; the sampled
            // over-bound share stands for the whole stream.
            let latencies = Latencies::sampled(&outcome.stamps, &outcome.offered_ns, OFFER_STRIDE);
            let over = latencies.count() - latencies.count_within(bound_ns);
            let over = (over * OFFER_STRIDE).min(outcome.offered);
            let failures = Failures::count(outcome.offered, outcome.offered, over, engine_failed);
            (latencies, failures)
        }
    };
    for q in [0.5, 0.9, 0.99] {
        if !stats::supported(latencies.count(), q) {
            problems.push(format!(
                "{} latency samples do not support the {q} quantile",
                latencies.count()
            ));
        }
    }

    let mut quality = QualityMetrics::default();
    if let Some(outputs) = &outcome.outputs {
        if outcome.drained() != outcome.offered {
            problems.push(format!(
                "offered {} events but the shard drained {}",
                outcome.offered,
                outcome.drained()
            ));
        }
        let reference: Cow<'_, Outputs> = match &prep.reference {
            Some(reference) if outcome.offered == events => Cow::Borrowed(reference),
            _ => Cow::Owned(
                reference(&prep.queries, prep.laps(), outcome.offered, Some(&prep.costs)).0,
            ),
        };
        for (q, (got, want)) in outputs.iter().zip(reference.iter()).enumerate() {
            add_quality(&mut quality, &QualityMetrics::compare(want, got));
            // Where a query dropped nothing, its output must equal the
            // keep-all reference byte for byte.
            let dropped = outcome.stats.per_query.get(q).map_or(0, |s| s.dropped);
            if dropped == 0 && got != want {
                problems.push(format!("query {q} dropped nothing but diverged from the reference"));
            }
        }
        if quality.ground_truth == 0 {
            problems.push("the reference found no complex events".into());
        }
    }
    Evaluation { problems, failures, latencies, quality }
}

/// The per-layer metrics of one traced sub-run.
fn per_layer(outcome: &RunOutcome, eval: &Evaluation) -> Vec<Metric> {
    let empty = SourceTrace::default();
    let source = outcome.source_trace.as_ref().unwrap_or(&empty);
    let mut lag = source.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let lag_q = |q| if lag.is_empty() { 0.0 } else { stats::quantile_sorted(&lag, q) };
    let drained = outcome.drained() as f64;
    let merged = &outcome.stats.merged;
    let totals = &outcome.totals;
    let busy = totals.busy_ns as f64;
    let shard_window = totals.window_ns() as f64;
    let queue = |f: fn(&QueueStats) -> u64| outcome.queues.iter().map(f).sum::<u64>() as f64;
    let control =
        |f: fn(&ShardControlReport) -> u64| outcome.control.iter().map(f).sum::<u64>() as f64;
    let throughputs: Vec<f64> =
        outcome.control.iter().filter_map(|c| c.measured_throughput).collect();
    let peak_depth = outcome.queues.iter().map(|q| q.peak_event_depth).max().unwrap_or(0);
    let plan_changes = (totals.plans_applied + totals.deactivations) as f64;
    vec![
        metric("source.offered_events", outcome.offered as f64, "count"),
        metric("source.undelivered_events", eval.failures.undelivered as f64, "count"),
        metric("source.lag_p50_ms", lag_q(0.5), "ms"),
        metric("source.lag_p99_ms", lag_q(0.99), "ms"),
        metric(
            "source.pull_gap_ns_per_event",
            ratio(source.gap_ns as f64, source.gaps as f64),
            "ns",
        ),
        metric("queue.pushed", queue(|q| q.pushed), "count"),
        metric("queue.peak_event_depth", peak_depth as f64, "count"),
        metric("queue.backpressure_events", queue(|q| q.backpressure_events), "count"),
        metric(
            "operator.assignments_per_event",
            ratio(merged.assignments as f64, drained),
            "count",
        ),
        metric("operator.windows_opened", merged.windows_opened as f64, "count"),
        metric("operator.windows_closed", merged.windows_closed as f64, "count"),
        metric("operator.complex_events", merged.complex_events as f64, "count"),
        metric("shard.self_ns_per_event", ratio((shard_window - busy).max(0.0), drained), "ns"),
        metric("kernel.calls", totals.calls as f64, "count"),
        metric("kernel.busy_s", busy / 1e9, "s"),
        metric("kernel.ns_per_assignment", ratio(busy, totals.assignments as f64), "ns"),
        metric("kernel.share_of_shard", ratio(busy, shard_window), "ratio"),
        metric("shedder.plans_applied", totals.plans_applied as f64, "count"),
        metric("shedder.deactivations", totals.deactivations as f64, "count"),
        metric("shedder.apply_us", ratio(totals.apply_ns as f64 / 1e3, plan_changes), "us"),
        metric("shedder.drop_ratio", merged.drop_ratio(), "ratio"),
        metric("controller.checks", control(|c| c.stats.checks), "count"),
        metric("controller.violations", control(|c| c.stats.violations), "count"),
        metric("controller.activations", control(|c| c.activations), "count"),
        metric(
            "controller.measured_throughput",
            ratio(throughputs.iter().sum(), throughputs.len() as f64),
            "1/s",
        ),
        metric("quality.false_positive_ratio", eval.quality.false_positive_pct() / 100.0, "ratio"),
        metric("latency.p99_ms", eval.latencies.quantile(0.99).unwrap_or(0.0) / 1e6, "ms"),
        metric("latency.samples", eval.latencies.count() as f64, "count"),
    ]
}

/// The median (nearest rank) of some values.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    stats::quantile_sorted(&values, 0.5)
}

/// Element-wise medians of the same metric lists from several sub-runs.
fn medians(runs: &[Vec<Metric>]) -> Vec<Metric> {
    (0..runs[0].len())
        .map(|i| Metric {
            value: median(runs.iter().map(|run| run[i].value).collect()),
            ..runs[0][i]
        })
        .collect()
}

/// The times of one set-up, or their medians over the repeated set-ups.
struct SetupTimes {
    total_s: f64,
    generate_s: f64,
    train_s: f64,
}

impl SetupTimes {
    fn median_of(setups: &[SetupTimes]) -> Self {
        let med = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
        SetupTimes {
            total_s: med(|s| s.total_s),
            generate_s: med(|s| s.generate_s),
            train_s: med(|s| s.train_s),
        }
    }
}

/// Single-threaded baseline of the job: the slice backend, one shard, no
/// producer thread, keep-all deciders, over the first `BASELINE_EVENTS`
/// events of the laps.
fn slice_baseline(prep: &Prepared) -> f64 {
    let laps = prep.laps();
    let stream = VecStream::from_ordered((0..BASELINE_EVENTS).map(|k| laps.event(k)).collect());
    let mut engine = ShardedEngine::for_queries(prep.queries.clone(), 1);
    let mut deciders = vec![KeepAll; prep.queries.len()];
    let started = Instant::now();
    let outputs = engine.run_slice_per_query(&stream, &mut deciders);
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(outputs);
    BASELINE_EVENTS as f64 / secs
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes a traced sub-run's sampled raw spans as JSON lines under `out/`.
fn write_spans(
    workload: Workload,
    seed: u64,
    outcome: &RunOutcome,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let source_spans = outcome.source_trace.as_ref().map_or(&[][..], |t| &t.spans[..]);
    let mut spans: Vec<&RawSpan> = outcome.totals.spans.iter().chain(source_spans).collect();
    spans.sort_by_key(|s| s.start_ns);
    let mut text = String::new();
    for span in spans {
        let _ = writeln!(
            text,
            "{{\"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            span.layer, span.start_ns, span.end_ns
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// What a sequence of sub-runs reports.
struct Series {
    problems: Vec<String>,
    failures: Failures,
    quality: QualityMetrics,
    /// Events drained and wall seconds, summed over the checked sub-runs.
    drained: u64,
    wall_s: f64,
    /// The latency samples of every checked sub-run.
    latencies: Option<Latencies>,
    per_layer: Vec<Vec<Metric>>,
    events_per_s: Vec<f64>,
}

impl Series {
    /// The end-to-end metrics (set-up and memory are added for the whole
    /// run), each over every event of every sub-run: a co-tenant's slow
    /// spell then moves a figure in proportion to its share of the run,
    /// where a median over sub-runs would jump between a fast and a slow
    /// mode.
    fn end_to_end(&self) -> Vec<Metric> {
        let p = |q| self.latencies.as_ref().and_then(|l| l.quantile(q)).unwrap_or(0.0) / 1e6;
        vec![
            metric("events_per_s", ratio(self.drained as f64, self.wall_s), "1/s"),
            metric("latency_p50_ms", p(0.5), "ms"),
            metric("latency_p90_ms", p(0.9), "ms"),
            metric("within_lb_fraction", self.failures.within_fraction(), "ratio"),
            metric("recall", self.quality.recall(), "ratio"),
            metric("precision", self.quality.precision(), "ratio"),
        ]
    }
}

/// Runs sub-runs until `budget_s` seconds of sub-run time have passed.
/// Each sub-run is checked (unless `check` is off) and dropped before the
/// next starts.
fn series(
    workload: Workload,
    prep: &Prepared,
    args: &Args,
    budget_s: f64,
    traced: bool,
    check: bool,
) -> Series {
    let events = workload.sub_run_events(args.seconds);
    let limit = Duration::from_secs(args.seconds);
    let mut series = Series {
        problems: Vec::new(),
        failures: Failures::default(),
        drained: 0,
        wall_s: 0.0,
        latencies: None,
        quality: QualityMetrics::default(),
        per_layer: Vec::new(),
        events_per_s: Vec::new(),
    };
    let label = if traced { "traced sub-run" } else { "sub-run" };
    let mut measured = 0.0;
    while series.events_per_s.is_empty() || measured < budget_s {
        let outcome = run(workload, prep, events, limit, traced);
        measured += outcome.wall_s;
        series.events_per_s.push(outcome.events_per_s());
        let index = series.events_per_s.len();
        if !check {
            println!("# {label} {index}: {:.0} events/s", outcome.events_per_s());
            continue;
        }
        let eval = evaluate(workload, prep, &outcome, events);
        let p = |q| eval.latencies.quantile(q).unwrap_or(0.0) / 1e6;
        println!(
            "# {label} {index}: {:.0} events/s; offered {} of {} due, drained {} in {:.3} s; latency p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms over {} samples; {} over the bound or undelivered",
            outcome.events_per_s(),
            outcome.offered,
            eval.failures.attempted,
            outcome.drained(),
            outcome.wall_s,
            p(0.5),
            p(0.9),
            p(0.99),
            eval.latencies.count(),
            eval.failures.failed()
        );
        if traced && series.per_layer.is_empty() {
            match write_spans(workload, args.seed, &outcome) {
                Ok(path) => println!("# raw spans written to {}", path.display()),
                Err(error) => println!("# raw spans not written: {error}"),
            }
        }
        series.problems.extend(eval.problems.iter().cloned());
        series.failures.add(&eval.failures);
        add_quality(&mut series.quality, &eval.quality);
        series.drained += outcome.drained();
        series.wall_s += outcome.wall_s;
        if traced {
            series.per_layer.push(per_layer(&outcome, &eval));
        }
        match &mut series.latencies {
            Some(pooled) => pooled.absorb(eval.latencies),
            None => series.latencies = Some(eval.latencies),
        }
    }
    series
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} host_nproc {nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let sub_events = workload.sub_run_events(args.seconds);
    // Each set-up replaces the previous one, so only one is held at a time.
    let mut prep = prepare(workload, args.seed, sub_events);
    let mut times = vec![prep.times()];
    while times.len() < SETUP_REPS || times.iter().map(|t| t.total_s).sum::<f64>() < SETUP_MIN_S {
        drop(prep);
        prep = prepare(workload, args.seed, sub_events);
        times.push(prep.times());
    }
    let setup = SetupTimes::median_of(&times);
    if let Err(problem) = gate(&prep) {
        eprintln!("correctness gate failed: {problem}");
        return ExitCode::FAILURE;
    }
    println!(
        "# set-up {:.3} s (median of {}); gate passed on {GATE_EVENTS} events; {} queries, {} dataset events, {sub_events} events per sub-run",
        setup.total_s,
        times.len(),
        prep.queries.len(),
        prep.events.len()
    );

    // One sub-run warms caches and the allocator before anything is timed.
    let warm_up = run(workload, &prep, WARM_UP_EVENTS, Duration::from_secs(args.seconds), false);
    println!("# warm-up sub-run: {:.0} events/s", warm_up.events_per_s());
    drop(warm_up);

    // A traced run splits its time between the untraced and traced series.
    let budget_s = if args.trace { args.seconds as f64 / 2.0 } else { args.seconds as f64 };
    let untraced = series(workload, &prep, &args, budget_s, false, !args.trace);
    // Read before any later reference computation, which is not part of
    // the run.
    let peak_rss_mb = peak_rss_mb();
    let (reported, metrics) = if args.trace {
        let traced = series(workload, &prep, &args, budget_s, true, true);
        let untraced_eps = median(untraced.events_per_s.clone());
        let traced_eps = median(traced.events_per_s.clone());
        let baseline = slice_baseline(&prep);
        let mut metrics = vec![
            metric("datasets.generate_s", setup.generate_s, "s"),
            metric("model.train_s", setup.train_s, "s"),
        ];
        metrics.extend(medians(&traced.per_layer));
        metrics.extend([
            metric("baseline.slice_events_per_s", baseline, "1/s"),
            metric("baseline.slice_over_stream", ratio(baseline, untraced_eps), "ratio"),
            metric(
                "trace.overhead_pct",
                ratio(untraced_eps - traced_eps, untraced_eps) * 100.0,
                "%",
            ),
        ]);
        (traced, metrics)
    } else {
        let mut metrics = vec![metric("setup_s", setup.total_s, "s")];
        metrics.extend(untraced.end_to_end());
        metrics.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
        (untraced, metrics)
    };
    for problem in &reported.problems {
        println!("# INCORRECT: {problem}");
    }
    println!("# over {} sub-runs:", reported.events_per_s.len());
    for m in &metrics {
        println!("# {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let failures = &reported.failures;
    print_result(reported.problems.is_empty(), failures.attempted, failures.failed(), &metrics);
    ExitCode::SUCCESS
}
