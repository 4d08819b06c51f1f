//! The train → ground truth → shed → compare pipeline behind all quality
//! experiments (Figures 5, 6, 8 and 9 of the paper).
//!
//! The paper's procedure (§4.2): stream the dataset at a rate at or below the
//! operator throughput until the model is built, then raise the input rate 20 %
//! (`R1`) or 40 % (`R2`) above the throughput and measure the number of false
//! negatives and false positives caused by shedding. This module reproduces
//! that procedure deterministically:
//!
//! 1. the dataset stream is split into a training prefix and an evaluation
//!    suffix,
//! 2. the model is trained on the unshedded training prefix,
//! 3. the drop amount implied by the overload (`x = δ·psize/R`) is computed
//!    with the same arithmetic as the overload detector and applied statically,
//! 4. the evaluation suffix is processed twice — once without shedding (ground
//!    truth), once with the shedder — and the outputs are compared.

use crate::adaptive::{AdaptiveShedder, RandomAdaptive};
use crate::metrics::QualityMetrics;
use espice::{
    BaselineShedder, EspiceShedder, GspiceShedder, HspiceShedder, ModelBuilder, ModelConfig,
    OverloadConfig, PspiceShedder, RandomShedder, SharedUtilityStats, ShedPlan, ShedPlanner,
    UtilityModel,
};
use espice_cep::{
    ComplexEvent, Operator, Query, QuerySet, ResilienceOptions, ShardStatus, ShardedEngine,
};
use espice_events::{EventStream, SliceSource, VecStream};

/// Which execution backend evaluates the shedded run.
///
/// On count-based windows the two backends produce byte-identical complex
/// events for the deciders the experiments use (property-tested), so
/// quality results never depend on this choice; the streaming backend
/// additionally reports measured queue behaviour ([`QueueSummary`]).
/// On time-based windows with `shards >= 2`, eSPICE's predicted-size
/// scaling reads the engine-shared size estimator while other shard
/// threads update it, so individual drop decisions can vary with thread
/// timing (on either backend) — the price of shard-count-invariant
/// predictions; single-shard evaluations remain fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineBackend {
    /// Slice-driven: the engine consumes the materialised evaluation
    /// stream directly.
    Slice,
    /// Stream-driven: events are produced incrementally into bounded
    /// per-shard queues of the given capacity (backpressure engages when a
    /// shard falls behind).
    Streaming {
        /// Capacity of each shard's bounded input queue.
        queue_capacity: usize,
    },
}

/// Aggregate queue behaviour of a streaming evaluation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueSummary {
    /// Configured per-shard queue capacity.
    pub capacity: usize,
    /// Largest depth any shard's queue reached.
    pub peak_depth: usize,
    /// Events (summed over shards) whose push had to wait for queue space.
    pub backpressure_events: u64,
}

/// Which load-shedding strategy to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedderKind {
    /// eSPICE (utility-table based, this paper's contribution).
    Espice,
    /// The `BL` baseline (type-utility based, order-agnostic).
    Baseline,
    /// Uniform random shedding.
    Random,
    /// hSPICE: per-operator, pattern-aware utility tables over the shared
    /// model ([`HspiceShedder`]).
    Hspice,
    /// pSPICE: partial-match shedding inside the operator
    /// ([`PspiceShedder`]).
    Pspice,
    /// gSPICE: model-based verdicts with empirical-Bayes shrinkage over the
    /// shared model ([`GspiceShedder`]).
    Gspice,
}

impl ShedderKind {
    /// Short label used in reports ("eSPICE", "BL", "Random", "hSPICE",
    /// "pSPICE", "gSPICE").
    pub fn label(&self) -> &'static str {
        match self {
            ShedderKind::Espice => "eSPICE",
            ShedderKind::Baseline => "BL",
            ShedderKind::Random => "Random",
            ShedderKind::Hspice => "hSPICE",
            ShedderKind::Pspice => "pSPICE",
            ShedderKind::Gspice => "gSPICE",
        }
    }

    /// The four SPICE-family strategies compared by the quality matrix, in
    /// report order.
    pub fn family() -> [ShedderKind; 4] {
        [ShedderKind::Espice, ShedderKind::Hspice, ShedderKind::Pspice, ShedderKind::Gspice]
    }
}

/// Parameters of a quality experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Operator throughput `th` in events per second (the resource limit).
    pub throughput: f64,
    /// Input rate as a multiple of the throughput (1.2 for the paper's `R1`,
    /// 1.4 for `R2`).
    pub overload_factor: f64,
    /// Overload-detector parameters (latency bound `LB`, `f`).
    pub overload: OverloadConfig,
    /// Fraction of the stream used for model training (the rest is evaluated).
    pub training_fraction: f64,
    /// Seed for the randomised shedders (BL sampling, random shedding).
    pub seed: u64,
    /// Number of engine shards the evaluation runs on (1 = the paper's
    /// single-threaded operator). Each shard owns a disjoint subset of the
    /// windows and gets its own shedder instance; ground truth is identical
    /// for every shard count.
    pub shards: usize,
    /// Which engine backend runs the shedded evaluation pass.
    pub backend: EngineBackend,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            throughput: 1000.0,
            overload_factor: 1.2,
            overload: OverloadConfig::default(),
            training_fraction: 0.5,
            seed: 1,
            shards: 1,
            backend: EngineBackend::Slice,
        }
    }
}

impl ExperimentConfig {
    /// The absolute input rate `R = overload_factor · th`.
    pub fn input_rate(&self) -> f64 {
        self.overload_factor * self.throughput
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the throughput, overload factor or training fraction are out
    /// of range.
    pub fn validate(&self) {
        assert!(self.throughput > 0.0, "throughput must be positive");
        assert!(self.overload_factor >= 1.0, "overload factor must be >= 1");
        assert!(
            self.training_fraction > 0.0 && self.training_fraction < 1.0,
            "training fraction must be in (0, 1)"
        );
        assert!(self.shards >= 1, "need at least one shard");
        if let EngineBackend::Streaming { queue_capacity } = self.backend {
            assert!(queue_capacity >= 1, "queue capacity must be at least 1");
        }
        self.overload.validate();
    }
}

/// Result of evaluating one shedder on one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityOutcome {
    /// Which shedder was evaluated.
    pub shedder: ShedderKind,
    /// Quality against the unshedded ground truth.
    pub metrics: QualityMetrics,
    /// The drop command that was applied.
    pub plan: ShedPlan,
    /// Fraction of (event, window) assignments actually dropped.
    pub drop_ratio: f64,
    /// Number of windows evaluated.
    pub windows: u64,
    /// Measured queue behaviour of the run — `Some` for the streaming
    /// backend, `None` for the slice backend.
    pub queue: Option<QueueSummary>,
}

impl QualityOutcome {
    /// Shorthand for the false-negative percentage.
    pub fn false_negative_pct(&self) -> f64 {
        self.metrics.false_negative_pct()
    }

    /// Shorthand for the false-positive percentage.
    pub fn false_positive_pct(&self) -> f64 {
        self.metrics.false_positive_pct()
    }
}

/// A trained experiment: model + stream split, ready to evaluate shedders.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
    model: UtilityModel,
    /// One shared handle over the trained model for the whole experiment:
    /// every hSPICE/pSPICE/gSPICE shedder built by [`shedder_for`]
    /// (`Self::shedder_for`) — across shards *and* across queries —
    /// derives from this one handle, so a fused run trains once and shares
    /// the model everywhere (the family's cross-query model sharing).
    shared: SharedUtilityStats,
    training_stream: VecStream,
    eval_stream: VecStream,
    type_count: usize,
}

impl Experiment {
    /// Trains the utility model by running every query in `training_queries`
    /// over the training prefix of `stream` without shedding.
    ///
    /// Most experiments train with a single query; the variable-window-size
    /// experiment (Figure 8) trains with several queries that differ only in
    /// their window size, mirroring the paper's randomised window sizes during
    /// model building.
    ///
    /// # Panics
    ///
    /// Panics if `training_queries` is empty or the configuration is invalid.
    pub fn train(
        training_queries: &[Query],
        stream: &VecStream,
        type_count: usize,
        model_config: ModelConfig,
        config: ExperimentConfig,
    ) -> Self {
        assert!(!training_queries.is_empty(), "need at least one training query");
        config.validate();
        model_config.validate();

        let split = (stream.len() as f64 * config.training_fraction).round() as usize;
        let split = split.clamp(1, stream.len().saturating_sub(1).max(1));
        let training_stream = stream.slice(0, split);
        let eval_stream = stream.slice(split, stream.len());

        let mut builder = ModelBuilder::new(model_config, type_count);
        for query in training_queries {
            let mut operator = Operator::new(query.clone());
            let matches = operator.run(&training_stream, &mut builder);
            for complex in &matches {
                builder.observe_complex(complex);
            }
        }
        let model = builder.build();
        let shared = SharedUtilityStats::new(model.clone());

        Experiment { config, model, shared, training_stream, eval_stream, type_count }
    }

    /// The trained utility model.
    pub fn model(&self) -> &UtilityModel {
        &self.model
    }

    /// The shared-model handle every family shedder of this experiment
    /// derives from (cross-query model sharing).
    pub fn shared_stats(&self) -> &SharedUtilityStats {
        &self.shared
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The training portion of the stream.
    pub fn training_stream(&self) -> &VecStream {
        &self.training_stream
    }

    /// The evaluation portion of the stream.
    pub fn eval_stream(&self) -> &VecStream {
        &self.eval_stream
    }

    /// Number of event types the model was trained for.
    pub fn type_count(&self) -> usize {
        self.type_count
    }

    /// Returns a copy of this experiment whose evaluation uses a different
    /// overload factor (input rate relative to throughput). Training does not
    /// depend on the rate, so the model is reused — this is how the figure
    /// harnesses evaluate the paper's `R1` (1.2) and `R2` (1.4) rates from a
    /// single training pass.
    pub fn with_overload_factor(&self, overload_factor: f64) -> Experiment {
        let mut copy = self.clone();
        copy.config.overload_factor = overload_factor;
        copy.config.validate();
        copy
    }

    /// Runs the unshedded ground truth for `query` over the evaluation
    /// stream. The engine's sharded output is identical to a single
    /// operator's, so the ground truth depends on neither the shard count
    /// nor the backend; it always runs on the slice path (the deterministic
    /// oracle, and the cheapest way through a fully materialised stream).
    pub fn ground_truth(&self, query: &Query) -> Vec<ComplexEvent> {
        let mut engine = self.engine_for(query);
        let mut deciders = vec![espice_cep::KeepAll; self.config.shards.max(1)];
        engine.run_slice(&self.eval_stream, &mut deciders)
    }

    /// Creates the evaluation engine for `query`: `config.shards` shards
    /// whose window-size prediction is seeded with the average window size
    /// observed during training (relevant for time-based, variable-size
    /// windows).
    fn engine_for(&self, query: &Query) -> ShardedEngine {
        let mut engine = ShardedEngine::new(query.clone(), self.config.shards.max(1));
        if query.window().expected_size().is_none() {
            engine.set_window_size_hint(self.model.average_window_size().round().max(1.0) as usize);
        }
        engine
    }

    /// The drop command implied by the configured overload for windows of the
    /// size `query` uses (the same arithmetic the overload detector applies).
    pub fn shed_plan(&self, query: &Query) -> ShedPlan {
        let planner = ShedPlanner::new(self.config.overload, self.config.throughput);
        let window_size = query
            .window()
            .expected_size()
            .unwrap_or_else(|| self.model.average_window_size().round().max(1.0) as usize);
        planner.plan(self.config.input_rate(), window_size)
    }

    /// Evaluates one shedder on `query`: runs the shedded evaluation pass and
    /// compares it against the unshedded ground truth.
    pub fn evaluate(&self, query: &Query, kind: ShedderKind) -> QualityOutcome {
        let ground_truth = self.ground_truth(query);
        self.evaluate_against(query, kind, &ground_truth)
    }

    /// Like [`evaluate`](Self::evaluate) but reuses a precomputed ground truth
    /// (useful when several shedders are compared on the same query).
    pub fn evaluate_against(
        &self,
        query: &Query,
        kind: ShedderKind,
        ground_truth: &[ComplexEvent],
    ) -> QualityOutcome {
        let plan = self.shed_plan(query);
        // One shedder instance per shard (the sharding property gSPICE and
        // He et al. rely on: shedding state partitions with the windows),
        // each activated with the same plan. Randomised shedders are
        // decorrelated by shard so they do not drop in lockstep.
        let shards = self.config.shards.max(1);
        let mut deciders: Vec<Box<dyn AdaptiveShedder + Send>> = (0..shards)
            .map(|shard| {
                let mut shedder = self.shedder_for(query, kind, self.config.seed + shard as u64);
                shedder.apply_plan(plan);
                shedder
            })
            .collect();

        let mut engine = self.engine_for(query);
        let detected = match self.config.backend {
            EngineBackend::Slice => engine.run_slice(&self.eval_stream, &mut deciders),
            EngineBackend::Streaming { queue_capacity } => {
                engine.set_queue_capacity(queue_capacity);
                let mut source = SliceSource::from_stream(&self.eval_stream);
                engine.run_source(&mut source, &mut deciders)
            }
        };
        let stats = engine.stats().merged;
        let queue = match self.config.backend {
            EngineBackend::Slice => None,
            EngineBackend::Streaming { queue_capacity } => Some(QueueSummary {
                capacity: queue_capacity,
                peak_depth: engine.queue_stats().iter().map(|q| q.peak_depth).max().unwrap_or(0),
                backpressure_events: engine
                    .queue_stats()
                    .iter()
                    .map(|q| q.backpressure_events)
                    .sum(),
            }),
        };

        QualityOutcome {
            shedder: kind,
            metrics: QualityMetrics::compare(ground_truth, &detected),
            plan,
            drop_ratio: stats.drop_ratio(),
            windows: stats.windows_closed,
            queue,
        }
    }

    /// Compares every requested shedder on `query` against a single ground
    /// truth run.
    pub fn compare(&self, query: &Query, kinds: &[ShedderKind]) -> Vec<QualityOutcome> {
        let ground_truth = self.ground_truth(query);
        kinds.iter().map(|&k| self.evaluate_against(query, k, &ground_truth)).collect()
    }

    /// Evaluates one shedder kind on a whole query set running on the
    /// *fused* multi-query engine: one ingestion pipeline and one event
    /// scan per shard serve every query, each query gets its own shedder
    /// instance (per shard) armed with its own plan, and the returned
    /// outcomes — one per query, in query order — carry per-query quality
    /// metrics, per-query drop ratios from the engine's `per_query` stats,
    /// and (on the streaming backend) the shared queue summary.
    ///
    /// Per-query results are identical to evaluating each query on its own
    /// engine ([`evaluate`](Self::evaluate)) — the fused engine only
    /// changes *how* events are fed, never what is decided — which is
    /// pinned by proptests.
    pub fn evaluate_set(&self, queries: &QuerySet, kind: ShedderKind) -> Vec<QualityOutcome> {
        let kinds = vec![kind; queries.len()];
        self.evaluate_mixed(queries, &kinds)
    }

    /// Evaluates a **heterogeneous** shedder mix on the fused engine: one
    /// shedder kind *per query* in a single run — eSPICE on one query, the
    /// baseline on another, random on a third — all sharing one ingestion
    /// pipeline. The decider rows are type-erased boxed shedders, the same
    /// mechanism the lifecycle paths use, so no driver-level enum mediates
    /// between shedder types anymore.
    ///
    /// # Panics
    ///
    /// Panics if `kinds.len()` differs from the query count.
    pub fn evaluate_mixed(&self, queries: &QuerySet, kinds: &[ShedderKind]) -> Vec<QualityOutcome> {
        assert_eq!(kinds.len(), queries.len(), "need exactly one shedder kind per query");
        let shards = self.config.shards.max(1);

        // Ground truth for all queries in one fused keep-everything pass.
        let mut gt_engine = self.engine_for_set(queries);
        let mut gt_deciders = vec![espice_cep::KeepAll; shards * queries.len()];
        let ground_truth = gt_engine.run_slice_per_query(&self.eval_stream, &mut gt_deciders);

        // One shedder per (shard, query), shard-major — seeded exactly as
        // an independent engine for that query would seed its shards, so
        // fused and independent evaluations stay byte-identical even for
        // randomised shedders.
        let plans: Vec<ShedPlan> = queries.queries().iter().map(|q| self.shed_plan(q)).collect();
        let mut deciders: Vec<Box<dyn AdaptiveShedder + Send>> =
            Vec::with_capacity(shards * queries.len());
        for shard in 0..shards {
            for (id, query) in queries.iter() {
                let mut shedder =
                    self.shedder_for(query, kinds[id as usize], self.config.seed + shard as u64);
                shedder.apply_plan(plans[id as usize]);
                deciders.push(shedder);
            }
        }

        let mut engine = self.engine_for_set(queries);
        let detected = match self.config.backend {
            EngineBackend::Slice => engine.run_slice_per_query(&self.eval_stream, &mut deciders),
            EngineBackend::Streaming { queue_capacity } => {
                engine.set_queue_capacity(queue_capacity);
                let mut source = SliceSource::from_stream(&self.eval_stream);
                engine.run_source_per_query(&mut source, &mut deciders)
            }
        };
        let stats = engine.stats();
        let queue = match self.config.backend {
            EngineBackend::Slice => None,
            EngineBackend::Streaming { queue_capacity } => Some(QueueSummary {
                capacity: queue_capacity,
                peak_depth: engine.queue_stats().iter().map(|q| q.peak_depth).max().unwrap_or(0),
                backpressure_events: engine
                    .queue_stats()
                    .iter()
                    .map(|q| q.backpressure_events)
                    .sum(),
            }),
        };

        queries
            .iter()
            .map(|(id, _)| {
                let id = id as usize;
                QualityOutcome {
                    shedder: kinds[id],
                    metrics: QualityMetrics::compare(&ground_truth[id], &detected[id]),
                    plan: plans[id],
                    drop_ratio: stats.per_query[id].drop_ratio(),
                    windows: stats.per_query[id].windows_closed,
                    queue,
                }
            })
            .collect()
    }

    /// The comparative quality study behind the CI quality matrix: runs one
    /// fused [`evaluate_mixed`](Self::evaluate_mixed) pass per strategy in
    /// `kinds` — every query of the set armed with that strategy — and
    /// returns one `Vec<QualityOutcome>` per strategy, in `kinds` order
    /// (outcomes within each vector are in query order).
    ///
    /// All strategies share one ground truth per study (the fused
    /// keep-everything pass embedded in `evaluate_mixed` is deterministic),
    /// and every family shedder shares the experiment's single trained
    /// model via [`shared_stats`](Self::shared_stats).
    pub fn quality_study(
        &self,
        queries: &QuerySet,
        kinds: &[ShedderKind],
    ) -> Vec<Vec<QualityOutcome>> {
        kinds.iter().map(|&kind| self.evaluate_set(queries, kind)).collect()
    }

    /// Evaluates `queries` with the eSPICE shedder on the **fault-tolerant**
    /// streaming backend ([`ShardedEngine::run_source_resilient`]): the same
    /// fused pipeline as [`evaluate_set`](Self::evaluate_set) with
    /// [`EngineBackend::Streaming`], but shard panics — e.g. an injected
    /// fault plan carried in `options` — are recovered by chunk replay and a
    /// wedged shard fails the run instead of hanging it. Returns the usual
    /// per-query quality outcomes plus the per-shard status record and the
    /// total recovery count; because recovery is byte-identical, a seeded
    /// crash must not change the quality outcomes (pinned by the chaos
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if the resilient run itself fails (stall deadline exceeded).
    pub fn evaluate_set_resilient(
        &self,
        queries: &QuerySet,
        options: &ResilienceOptions,
    ) -> (Vec<QualityOutcome>, Vec<ShardStatus>, u32) {
        let shards = self.config.shards.max(1);

        let mut gt_engine = self.engine_for_set(queries);
        let mut gt_deciders = vec![espice_cep::KeepAll; shards * queries.len()];
        let ground_truth = gt_engine.run_slice_per_query(&self.eval_stream, &mut gt_deciders);

        // Concrete (cloneable) eSPICE shedders rather than the boxed
        // heterogeneous rows: a replacement shard revives its deciders
        // from clones, which a `Box<dyn …>` row cannot provide.
        let plans: Vec<ShedPlan> = queries.queries().iter().map(|q| self.shed_plan(q)).collect();
        let mut deciders: Vec<EspiceShedder> = Vec::with_capacity(shards * queries.len());
        for _ in 0..shards {
            for (id, _) in queries.iter() {
                let mut shedder = EspiceShedder::new(self.model.clone());
                shedder.apply(plans[id as usize]);
                deciders.push(shedder);
            }
        }

        let mut engine = self.engine_for_set(queries);
        let queue_capacity = match self.config.backend {
            EngineBackend::Streaming { queue_capacity } => queue_capacity,
            EngineBackend::Slice => espice_cep::DEFAULT_QUEUE_CAPACITY,
        };
        engine.set_queue_capacity(queue_capacity);
        let mut source = SliceSource::from_stream(&self.eval_stream);
        let report = engine
            .run_source_resilient(&mut source, deciders, options)
            .unwrap_or_else(|error| panic!("resilient evaluation failed: {error}"));
        let stats = engine.stats();
        let queue = Some(QueueSummary {
            capacity: queue_capacity,
            peak_depth: engine.queue_stats().iter().map(|q| q.peak_depth).max().unwrap_or(0),
            backpressure_events: engine.queue_stats().iter().map(|q| q.backpressure_events).sum(),
        });

        let outcomes = queries
            .iter()
            .map(|(id, _)| {
                let id = id as usize;
                QualityOutcome {
                    shedder: ShedderKind::Espice,
                    metrics: QualityMetrics::compare(&ground_truth[id], &report.complex_events[id]),
                    plan: plans[id],
                    drop_ratio: stats.per_query[id].drop_ratio(),
                    windows: stats.per_query[id].windows_closed,
                    queue,
                }
            })
            .collect();
        (outcomes, report.shard_status, report.recoveries)
    }

    /// Creates the fused evaluation engine for a whole query set (the
    /// multi-query counterpart of `engine_for`).
    fn engine_for_set(&self, queries: &QuerySet) -> ShardedEngine {
        let mut engine = ShardedEngine::for_queries(queries.clone(), self.config.shards.max(1));
        if queries.queries().iter().any(|q| q.window().expected_size().is_none()) {
            engine.set_window_size_hint(self.model.average_window_size().round().max(1.0) as usize);
        }
        engine
    }

    /// Builds one shedder instance of `kind` for `query`, armed with
    /// nothing yet, as a type-erased boxed decider — one element of the
    /// heterogeneous rows the engine API accepts directly (the per-query
    /// `AnyShedder` enum this driver used to carry is gone: boxed rows are
    /// the engine-level mechanism now, shared with the lifecycle paths).
    pub fn shedder_for(
        &self,
        query: &Query,
        kind: ShedderKind,
        seed: u64,
    ) -> Box<dyn AdaptiveShedder + Send> {
        match kind {
            ShedderKind::Espice => Box::new(EspiceShedder::new(self.model.clone())),
            ShedderKind::Baseline => {
                Box::new(BaselineShedder::new(query.pattern(), &self.model, seed))
            }
            ShedderKind::Random => Box::new(RandomAdaptive::new(
                RandomShedder::new(seed),
                self.model.average_window_size(),
            )),
            ShedderKind::Hspice => {
                Box::new(HspiceShedder::new(self.shared.clone(), query.pattern()))
            }
            ShedderKind::Pspice => Box::new(PspiceShedder::new(self.shared.clone())),
            ShedderKind::Gspice => Box::new(GspiceShedder::new(self.shared.clone())),
        }
    }
}

/// Runs the operator once over the training prefix of `stream` to measure the
/// average window size of `query` — the paper's way of choosing the model
/// dimension `N` for variable-size (time-based) windows.
pub fn profile_average_window_size(query: &Query, stream: &VecStream) -> f64 {
    let mut operator = Operator::new(query.clone());
    let mut builder = ModelBuilder::new(ModelConfig::with_positions(16), 1);
    let _ = operator.run(stream, &mut builder);
    builder.average_window_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use espice_cep::SelectionPolicy;
    use espice_datasets::{StockConfig, StockDataset};

    fn dataset() -> StockDataset {
        StockDataset::generate(&StockConfig {
            num_symbols: 40,
            num_leading: 2,
            followers_per_leading: 15,
            duration_minutes: 120,
            cascade_probability: 0.7,
            seed: 3,
            ..StockConfig::default()
        })
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig { throughput: 200.0, overload_factor: 1.2, ..ExperimentConfig::default() }
    }

    #[test]
    fn training_splits_the_stream() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let experiment = Experiment::train(
            &[query],
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            config(),
        );
        let total = experiment.training_stream().len() + experiment.eval_stream().len();
        assert_eq!(total, ds.stream.len());
        assert!(experiment.model().windows_observed() > 0);
        assert!(experiment.model().complex_events_observed() > 0);
        assert_eq!(experiment.type_count(), ds.registry.len());
    }

    #[test]
    fn shed_plan_reflects_overload_factor() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let experiment = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            config(),
        );
        let plan = experiment.shed_plan(&query);
        assert!(plan.active);
        // δ/R = 1 − 1/1.2 ≈ 16.7 % of every partition must be dropped.
        let fraction = plan.events_to_drop / plan.partition_size as f64;
        assert!((fraction - (1.0 - 1.0 / 1.2)).abs() < 0.02);
    }

    #[test]
    fn espice_beats_random_on_ordered_cascades() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let experiment = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            config(),
        );
        let outcomes = experiment.compare(&query, &[ShedderKind::Espice, ShedderKind::Random]);
        let espice = &outcomes[0];
        let random = &outcomes[1];
        assert!(espice.metrics.ground_truth > 0, "no ground-truth complex events");
        assert!(espice.drop_ratio > 0.05, "eSPICE dropped almost nothing");
        assert!(
            espice.false_negative_pct() <= random.false_negative_pct(),
            "eSPICE ({}) must not lose more matches than random shedding ({})",
            espice.false_negative_pct(),
            random.false_negative_pct()
        );
    }

    #[test]
    fn evaluation_is_deterministic_for_espice() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let experiment = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            config(),
        );
        let a = experiment.evaluate(&query, ShedderKind::Espice);
        let b = experiment.evaluate(&query, ShedderKind::Espice);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn family_strategies_shed_and_share_one_model() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let experiment = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig { shards: 2, ..config() },
        );
        let set = espice_cep::QuerySet::new(vec![query]);
        let study = experiment.quality_study(&set, &ShedderKind::family());
        assert_eq!(study.len(), 4);
        for (kind, outcomes) in ShedderKind::family().iter().zip(&study) {
            assert_eq!(outcomes.len(), 1);
            let outcome = &outcomes[0];
            assert_eq!(outcome.shedder, *kind);
            assert!(outcome.metrics.ground_truth > 0, "{}: no ground truth", kind.label());
            // pSPICE sheds operator *state* (retro-dropping only events
            // orphaned by evicted partial matches), so its assignment drop
            // ratio is legitimately near zero when the match store stays
            // within budget; the input-shedding strategies must drop.
            if *kind != ShedderKind::Pspice {
                assert!(outcome.drop_ratio > 0.01, "{}: dropped almost nothing", kind.label());
            }
            assert!(outcome.metrics.recall() > 0.0, "{}: shed everything useful", kind.label());
        }
        // All shedders derived from the experiment's single shared model.
        assert!(espice::SharedUtilityStats::handles(experiment.shared_stats()) >= 1);
    }

    #[test]
    fn family_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            ShedderKind::Espice,
            ShedderKind::Baseline,
            ShedderKind::Random,
            ShedderKind::Hspice,
            ShedderKind::Pspice,
            ShedderKind::Gspice,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn profile_average_window_size_estimates_count_windows_exactly() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        // Windows still open at the end of the profiling stream are flushed
        // with fewer events, so the average sits slightly below the nominal
        // 200-event window size.
        let avg = profile_average_window_size(&query, &ds.stream.slice(0, 2000));
        assert!(avg > 150.0 && avg <= 200.0, "average window size {avg} out of range");
    }

    #[test]
    fn streaming_backend_matches_slice_backend_and_reports_queues() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let slice = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig { shards: 2, ..config() },
        );
        let streaming = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig {
                shards: 2,
                backend: EngineBackend::Streaming { queue_capacity: 32 },
                ..config()
            },
        );
        let a = slice.evaluate(&query, ShedderKind::Espice);
        let b = streaming.evaluate(&query, ShedderKind::Espice);
        // Identical quality and drop decisions — the backend only changes
        // how events are fed, never what is decided.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.drop_ratio, b.drop_ratio);
        assert_eq!(a.queue, None);
        let queue = b.queue.expect("streaming backend must report queues");
        assert_eq!(queue.capacity, 32);
        assert!(queue.peak_depth >= 1 && queue.peak_depth <= 32);
    }

    #[test]
    fn fused_multi_query_evaluation_equals_independent_evaluations() {
        let ds = dataset();
        let q_short = queries::q3(&ds, 6, 150, SelectionPolicy::First);
        let q_long = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let set = espice_cep::QuerySet::new(vec![q_short.clone(), q_long.clone()]);
        let experiment = Experiment::train(
            set.queries(),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig { shards: 2, ..config() },
        );
        let fused = experiment.evaluate_set(&set, ShedderKind::Espice);
        assert_eq!(fused.len(), 2);
        for (id, query) in set.iter() {
            let solo = experiment.evaluate(query, ShedderKind::Espice);
            assert_eq!(fused[id as usize].metrics, solo.metrics, "query {id} metrics diverged");
            assert_eq!(fused[id as usize].drop_ratio, solo.drop_ratio);
            assert_eq!(fused[id as usize].windows, solo.windows);
            assert_eq!(fused[id as usize].plan, solo.plan);
        }
    }

    #[test]
    fn fused_streaming_evaluation_reports_one_shared_queue() {
        let ds = dataset();
        let q_short = queries::q3(&ds, 6, 150, SelectionPolicy::First);
        let q_long = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let set = espice_cep::QuerySet::new(vec![q_short, q_long]);
        let experiment = Experiment::train(
            set.queries(),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig {
                shards: 2,
                backend: EngineBackend::Streaming { queue_capacity: 64 },
                ..config()
            },
        );
        let outcomes = experiment.evaluate_set(&set, ShedderKind::Espice);
        let queue = outcomes[0].queue.expect("streaming backend must report queues");
        assert_eq!(queue.capacity, 64);
        // Both queries ride the same shard queues, so they report the same
        // queue summary.
        assert_eq!(outcomes[0].queue, outcomes[1].queue);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_streaming_queue_capacity_rejected() {
        ExperimentConfig {
            backend: EngineBackend::Streaming { queue_capacity: 0 },
            ..ExperimentConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "training fraction")]
    fn invalid_training_fraction_rejected() {
        ExperimentConfig { training_fraction: 1.5, ..ExperimentConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ExperimentConfig { shards: 0, ..ExperimentConfig::default() }.validate();
    }

    #[test]
    fn ground_truth_is_invariant_under_sharding() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let single = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            config(),
        );
        let sharded = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig { shards: 4, ..config() },
        );
        assert_eq!(single.ground_truth(&query), sharded.ground_truth(&query));
    }

    #[test]
    fn sharded_evaluation_sheds_and_reports_merged_stats() {
        let ds = dataset();
        let query = queries::q3(&ds, 8, 200, SelectionPolicy::First);
        let experiment = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            ExperimentConfig { shards: 4, ..config() },
        );
        let single = experiment.evaluate(&query, ShedderKind::Espice);
        assert!(single.metrics.ground_truth > 0);
        assert!(single.drop_ratio > 0.05, "sharded eSPICE dropped almost nothing");
        assert!(single.windows > 0);
        // The per-shard shedders follow the same plan, so the realised drop
        // ratio matches a single-shard run closely.
        let unsharded = Experiment::train(
            std::slice::from_ref(&query),
            &ds.stream,
            ds.registry.len(),
            ModelConfig::with_positions(200),
            config(),
        )
        .evaluate(&query, ShedderKind::Espice);
        assert!((single.drop_ratio - unsharded.drop_ratio).abs() < 0.05);
    }
}
