//! Operator runtime and experiment driver for the eSPICE reproduction.
//!
//! The paper evaluates eSPICE on a Java CEP prototype running on a throttled
//! 8-core machine. This crate replaces the wall-clock testbed with a
//! deterministic discrete-event model while keeping the quantities the paper
//! reports:
//!
//! * [`queries`] — builds the four evaluation queries (Q1–Q4) against the
//!   synthetic datasets,
//! * [`metrics`] — false-positive / false-negative accounting against the
//!   unshedded ground truth, and latency traces,
//! * [`experiment`] — the train → ground truth → shed → compare pipeline used
//!   by all quality experiments (Figures 5, 6, 8, 9),
//! * [`simulation`] — a queueing simulation of the operator with the
//!   closed-loop overload controller in the loop (Figure 7) — the
//!   deterministic oracle for the streaming backend,
//! * [`streaming`] — the real streaming backend: per-shard closed-loop
//!   shedders over the engine's measured queues,
//! * [`adaptive`] — a common trait for shedders that can receive drop commands
//!   at run time,
//! * [`report`] — plain-text table rendering for the figure binaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod experiment;
pub mod metrics;
pub mod queries;
pub mod report;
pub mod simulation;
pub mod streaming;

pub use adaptive::AdaptiveShedder;
pub use experiment::{
    EngineBackend, Experiment, ExperimentConfig, QualityOutcome, QueueSummary, ShedderKind,
};
pub use metrics::{LatencyTrace, QualityMetrics};
pub use simulation::{LatencySimConfig, LatencySimulation, MultiSimulationOutcome};
pub use streaming::{
    run_closed_loop, run_closed_loop_live, run_closed_loop_set, ChurnAction, ClosedLoopShedder,
    LiveStreamingOutcome, MultiStreamingOutcome, QueryChurn, ShardControlReport, StreamingOutcome,
    StreamingRunConfig,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::{
        AdaptiveShedder, ClosedLoopShedder, EngineBackend, Experiment, ExperimentConfig,
        LatencySimConfig, LatencySimulation, LatencyTrace, QualityMetrics, QualityOutcome,
        ShedderKind, StreamingOutcome, StreamingRunConfig,
    };
}
