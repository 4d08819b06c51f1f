//! A window-based complex event processing (CEP) engine.
//!
//! This crate is the substrate the eSPICE load shedder runs on. It follows the
//! system model of the paper (Section 2): a single CEP operator receives a
//! totally ordered stream of primitive events, partitions it into (possibly
//! overlapping) windows, and runs a pattern matcher over every window to
//! detect *complex events*.
//!
//! The engine supports the query classes the evaluation uses:
//!
//! * **sequence** of specific event types (Q3),
//! * **sequence with repetition** (Q4),
//! * **sequence with `any(n, …)`** (Q1, Q2),
//! * optional attribute predicates on every step,
//! * *skip-till-next-match* / *skip-till-any-match* semantics,
//! * **first** / **last** selection policies and **consumed** / **zero**
//!   consumption policies,
//! * count-based, time-based and predicate-opened sliding windows.
//!
//! Load shedding integrates through the [`WindowEventDecider`] hook: for every
//! event of every window the operator asks the decider whether to keep the
//! event *in that window* before it is buffered, exactly where eSPICE's load
//! shedder sits in Figure 1 of the paper. On the hot path the operator calls
//! the batched [`WindowEventDecider::decide_batch`] form — one call per event
//! covering all windows it belongs to — so shedders can amortise their
//! lookups; the default implementation delegates to `decide` per pair.
//!
//! Overlapping windows share their storage: the operator appends each event
//! **once** to a shared ring and every open window only records its start
//! slot plus a per-window drop set, so per-event storage work is O(1) in the
//! overlap factor (see the [`Operator`] docs for the layout and its pruning
//! invariant). Each event is also classified against the pattern steps once
//! per query as it is appended, so closing a window walks per-step
//! occurrences instead of rescanning the window; [`Matcher`] keeps the
//! per-window scan as the independent oracle.
//!
//! Beyond the paper's single-threaded prototype, the crate provides a
//! [`ShardedEngine`] that hash-partitions the window population by global
//! window id across N independent [`Operator`] shards (each [`Shard`] with
//! its own decider instance) and merges outputs and statistics back into
//! single-operator form — byte-identical output for stateless-per-window
//! deciders on count-based windows (see [`ShardedEngine`] for the
//! time-window caveat). The engine is *stream-driven*: events are pulled
//! incrementally from an [`EventSource`](espice_events::EventSource),
//! batched once into sequence-stamped shared chunks ([`arena`]), and
//! handed to bounded per-shard SPSC queues ([`queue`]) as `Arc` references
//! — one hand-off per chunk per shard instead of one clone per event per
//! shard. The queues' fixed capacity backpressures the producer and their
//! measured event-denominated depth feeds closed-loop overload detection
//! through [`WindowEventDecider::queue_sample`]; `ShardedEngine::run`
//! keeps the slice-compatible entry point on top of the same pipeline.
//!
//! # Example
//!
//! ```
//! use espice_events::{Event, Timestamp, TypeRegistry, VecStream};
//! use espice_cep::{Operator, Query, Pattern, PatternStep, WindowSpec, KeepAll};
//!
//! let mut registry = TypeRegistry::new();
//! let a = registry.intern("A");
//! let b = registry.intern("B");
//!
//! // seq(A; B) over a count window of 4 events sliding by 2.
//! let query = Query::builder()
//!     .pattern(Pattern::new(vec![PatternStep::single(a), PatternStep::single(b)]))
//!     .window(WindowSpec::count_sliding(4, 2))
//!     .build();
//!
//! let events: Vec<Event> = (0..8)
//!     .map(|i| Event::new(if i % 2 == 0 { a } else { b }, Timestamp::from_secs(i), i))
//!     .collect();
//!
//! let mut operator = Operator::new(query);
//! let matches = operator.run(&VecStream::from_ordered(events), &mut KeepAll);
//! assert!(!matches.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
mod complex;
mod engine;
pub mod faults;
pub mod lifecycle;
mod matcher;
mod operator;
mod partial;
mod pattern;
mod predicate;
#[cfg(test)]
mod proptests;
mod query;
mod queryset;
pub mod queue;
#[doc(hidden)]
pub mod reference;
pub mod resilience;
mod ring;
mod shard;
mod shedding;
mod window;

pub use arena::{ChunkBuilder, EventChunk};
pub use complex::{ComplexEvent, Constituent};
pub use engine::{
    ConfigError, EngineStats, ShardedEngine, DEFAULT_CHUNK_CAPACITY, DEFAULT_QUEUE_CAPACITY,
};
pub use faults::{FaultKind, FaultPlan};
pub use lifecycle::{EngineControl, LifecycleReport, LiveRunOutcome};
pub use matcher::{MatchOutcome, Matcher, WindowEntry};
pub use operator::{Operator, OperatorStats};
pub use pattern::{Pattern, PatternStep};
pub use predicate::{CmpOp, Predicate};
pub use query::{ConsumptionPolicy, Query, QueryBuilder, SelectionPolicy, SkipPolicy};
pub use queryset::QuerySet;
pub use queue::{PushOutcome, QueueConsumer, QueueProducer, QueueStats};
pub use resilience::{
    EngineError, ResilienceOptions, RunReport, ShardFailure, ShardStatus, DEFAULT_MAX_RESTARTS,
    DEFAULT_STALL_DEADLINE,
};
pub use ring::DropSet;
pub use shard::Shard;
pub use shedding::{
    BatchRequest, BoxedDecider, Decision, KeepAll, QueueSample, SharedDecider, WindowEventDecider,
};
pub use window::{
    OpenPolicy, OpenTracker, OwnershipPolicy, QueryHandle, QueryId, SharedSizePredictor,
    SizePredictor, WindowBalancer, WindowExtent, WindowId, WindowMeta, WindowSpec,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::{
        BatchRequest, ComplexEvent, ConsumptionPolicy, Decision, KeepAll, Operator, Pattern,
        PatternStep, Predicate, Query, QuerySet, SelectionPolicy, ShardedEngine,
        WindowEventDecider, WindowMeta, WindowSpec,
    };
}
