//! Dynamic query lifecycle: admitting and retiring queries mid-stream.
//!
//! The fused multi-query engine of PR 4 froze its [`QuerySet`] at
//! construction; this module makes the engine a *live* multi-tenant
//! service. An [`EngineControl`] handle (cloneable, thread-safe) sends
//! lifecycle requests over a control channel; the engine drains that
//! channel at a **safe point** of its fused pass — the boundary between
//! two stream events — and broadcasts every accepted command *in-band*
//! into each shard's input queue. Because the command occupies the same
//! stream position on every shard, a joining query starts opening windows
//! at a well-defined position (the first event after its admission,
//! identical everywhere) and produces byte-identical output to a fresh
//! static engine started at that position; a retiring query stops opening
//! windows at its retirement position, **drains its open windows to
//! completion**, and only then has its operator, decider (with any
//! per-window shedder state), shared size predictor and controller torn
//! down.
//!
//! Admissions carry [`BoxedDecider`]s — one per shard — because lifecycle
//! makes decider rows dynamic: rows grow on admission, shrink on
//! retirement, and may mix different shedder types per query, so the
//! static `&mut [D]` signature of the batch paths cannot express them.
//!
//! [`QuerySet`]: crate::QuerySet

use crate::arena::EventChunk;
use crate::window::SharedSizePredictor;
use crate::{BoxedDecider, Query, QueryHandle, QueryId};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

/// One lifecycle request travelling from an [`EngineControl`] to the
/// engine's producer loop.
pub(crate) enum LifecycleRequest {
    /// Admit `query` at stream position `at` (or as soon as the request is
    /// drained, when `None`), with one decider per shard.
    Admit { handle: QueryHandle, query: Query, deciders: Vec<BoxedDecider>, at: Option<u64> },
    /// Retire the admission identified by `handle`.
    Retire { handle: QueryHandle, at: Option<u64> },
}

impl LifecycleRequest {
    /// The explicitly requested stream position, if the sender anchored
    /// one.
    pub(crate) fn requested_at(&self) -> Option<u64> {
        match self {
            LifecycleRequest::Admit { at, .. } | LifecycleRequest::Retire { at, .. } => *at,
        }
    }
}

impl std::fmt::Debug for LifecycleRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleRequest::Admit { handle, at, .. } => {
                f.debug_struct("Admit").field("handle", handle).field("at", at).finish()
            }
            LifecycleRequest::Retire { handle, at } => {
                f.debug_struct("Retire").field("handle", handle).field("at", at).finish()
            }
        }
    }
}

/// Per-run anchoring of lifecycle requests: clamps every request to a
/// stream position the run can actually honour.
///
/// Slots are allocated at **send** time (under the control lock), but
/// anchors are free-form — nothing stops a tenant from admitting at
/// position 700 and then admitting at position 400. Admissions must apply
/// in slot order, so this clamp makes admission anchors non-decreasing in
/// send order; a retirement referencing an admission of the same run is
/// clamped to no earlier than that admission's (clamped) anchor, so
/// "retire before you were admitted" becomes "admitted and immediately
/// retired" instead of a silent rejection. Every anchor is also clamped
/// forward to `floor` — the position the producer has already reached.
#[derive(Debug, Default)]
pub(crate) struct Anchoring {
    /// Anchor of the most recently anchored admission.
    last_admit: u64,
    /// Clamped anchors of this run's admissions, by slot.
    admits: Vec<(QueryId, u64)>,
}

impl Anchoring {
    pub(crate) fn new() -> Self {
        Anchoring::default()
    }

    /// The position `request` will apply at, given the producer has
    /// reached `floor`.
    pub(crate) fn anchor(&mut self, request: &LifecycleRequest, floor: u64) -> u64 {
        let mut at = request.requested_at().unwrap_or(floor).max(floor);
        match request {
            LifecycleRequest::Admit { handle, .. } => {
                at = at.max(self.last_admit);
                self.last_admit = at;
                self.admits.push((handle.slot, at));
            }
            LifecycleRequest::Retire { handle, .. } => {
                if let Some(&(_, admit_at)) =
                    self.admits.iter().find(|(slot, _)| *slot == handle.slot)
                {
                    at = at.max(admit_at);
                }
            }
        }
        at
    }
}

/// A validated lifecycle command as one shard sees it, delivered in-band
/// through the shard's input queue (or a pre-anchored command list on the
/// slice path) so it takes effect at the same stream position everywhere.
/// The engine builds these itself from [`EngineControl`] requests.
pub(crate) enum ShardCommand {
    /// Create the operator for `slot` (a fresh operator: its window-id
    /// counter starts at zero, exactly like a fresh engine's would).
    Admit {
        /// The slot the admitted query occupies; must be the next free
        /// index of the shard's per-query axis.
        slot: QueryId,
        /// The admitted query.
        query: Query,
        /// This shard's decider instance for the query.
        decider: BoxedDecider,
        /// The size predictor every shard of the query shares.
        predictor: Arc<SharedSizePredictor>,
    },
    /// Stop opening windows for `slot`; tear the slot down once its open
    /// windows have drained to completion.
    Retire {
        /// The slot to retire.
        slot: QueryId,
    },
}

impl std::fmt::Debug for ShardCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCommand::Admit { slot, .. } => {
                f.debug_struct("Admit").field("slot", slot).finish()
            }
            ShardCommand::Retire { slot } => f.debug_struct("Retire").field("slot", slot).finish(),
        }
    }
}

/// What a shard queue carries: sealed chunks of stream events, interleaved
/// (on the live paths) with in-band lifecycle commands. A command sits
/// *between* two chunks — the producer seals any partial chunk before
/// pushing it — so every shard applies it at the same stream position.
#[derive(Debug)]
pub(crate) enum ShardInput {
    /// A sealed, sequence-stamped batch of consecutive stream events,
    /// shared by reference with every shard (see
    /// [`arena`](crate::arena)): one hand-off per chunk per shard instead
    /// of one clone per event per shard. Chunk capacity 1 ships
    /// single-event chunks.
    Chunk(Arc<EventChunk>),
    /// A lifecycle command taking effect before the next chunk. Boxed so
    /// the queue's slot size stays small — commands are rare, chunks are
    /// not.
    Command(Box<ShardCommand>),
}

/// What happened, lifecycle-wise, during one live run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LifecycleReport {
    /// Admissions applied, with the run-relative stream position at which
    /// each query started (its operator saw every event from that position
    /// on; position `n` means "before the `n`-th event of this run").
    pub admitted: Vec<(QueryHandle, u64)>,
    /// Retirements applied, with the position at which the query stopped
    /// opening windows (its open windows drained to completion afterwards).
    pub retired: Vec<(QueryHandle, u64)>,
    /// Requests rejected by validation: a retire whose handle was stale
    /// (already retired, or a generation mismatch after re-admission).
    pub rejected: u64,
}

/// State shared between an engine and every clone of its control handle.
#[derive(Debug)]
pub(crate) struct ControlShared {
    shard_count: usize,
    inner: Mutex<ControlInner>,
}

#[derive(Debug)]
struct ControlInner {
    sender: Sender<LifecycleRequest>,
    next_slot: QueryId,
    next_generation: u64,
}

/// The sending side of an engine's lifecycle control channel.
///
/// Obtained from [`ShardedEngine::control`]; cloneable and thread-safe, so
/// any number of tenants can admit and retire queries concurrently while
/// the stream runs. Slot and generation allocation happen under one lock
/// together with the channel send, so commands always arrive in slot order
/// and every admission gets a unique [`QueryHandle`].
///
/// Requests sent while no live run is active are buffered by the channel
/// and applied at the start of the next live run — which is also how
/// deterministic schedules are built: create the engine, issue
/// [`admit_at`](EngineControl::admit_at) / [`retire_at`](EngineControl::retire_at)
/// with explicit stream positions, then start the run.
///
/// [`ShardedEngine::control`]: crate::ShardedEngine::control
#[derive(Debug, Clone)]
pub struct EngineControl {
    shared: Arc<ControlShared>,
}

impl EngineControl {
    /// Creates the channel pair for an engine with `shard_count` shards
    /// whose per-query axis currently holds `slots` queries (generations
    /// `0..slots` are taken by the initial set).
    pub(crate) fn create(
        shard_count: usize,
        slots: usize,
    ) -> (EngineControl, Receiver<LifecycleRequest>) {
        let (sender, receiver) = std::sync::mpsc::channel();
        let control = EngineControl {
            shared: Arc::new(ControlShared {
                shard_count,
                inner: Mutex::new(ControlInner {
                    sender,
                    next_slot: slots as QueryId,
                    next_generation: slots as u64,
                }),
            }),
        };
        (control, receiver)
    }

    /// The number of deciders every admission must supply (one per shard).
    pub fn shard_count(&self) -> usize {
        self.shared.shard_count
    }

    /// Admits `query` as soon as the engine's producer drains the request:
    /// the query starts opening windows at the first event after admission,
    /// at the same stream position on every shard. `deciders` supplies one
    /// decider per shard (decorrelate randomised shedders per shard, as the
    /// static paths do).
    ///
    /// Returns the generation-stamped handle identifying this admission;
    /// pass it to [`retire`](EngineControl::retire) to tear the query down.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from the engine's shard count.
    pub fn admit(&self, query: Query, deciders: Vec<BoxedDecider>) -> QueryHandle {
        self.send_admit(query, deciders, None)
    }

    /// [`admit`](EngineControl::admit) anchored at an explicit run-relative
    /// stream position: the query's operator sees every event from position
    /// `at` on (it misses `events[..at]` exactly). Positions already passed
    /// when the request is drained are clamped forward to the drain point.
    ///
    /// # Panics
    ///
    /// Panics if `deciders.len()` differs from the engine's shard count.
    pub fn admit_at(&self, at: u64, query: Query, deciders: Vec<BoxedDecider>) -> QueryHandle {
        self.send_admit(query, deciders, Some(at))
    }

    /// Retires the admission identified by `handle` as soon as the request
    /// is drained: the query stops opening windows, drains its open windows
    /// to completion, and is then torn down (operator, decider with its
    /// per-window shedder state, size predictor, controller). A stale
    /// handle — already retired, or generation-mismatched — is rejected and
    /// counted in [`LifecycleReport::rejected`].
    pub fn retire(&self, handle: QueryHandle) {
        // The lock only guards a counter pair and a channel sender; a
        // poisoned guard still holds consistent state, so recover it
        // rather than cascading a shard panic into the control plane.
        let inner = self.shared.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = inner.sender.send(LifecycleRequest::Retire { handle, at: None });
    }

    /// [`retire`](EngineControl::retire) anchored at an explicit
    /// run-relative stream position.
    pub fn retire_at(&self, at: u64, handle: QueryHandle) {
        // See retire(): the guarded state stays consistent across a poison.
        let inner = self.shared.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = inner.sender.send(LifecycleRequest::Retire { handle, at: Some(at) });
    }

    fn send_admit(
        &self,
        query: Query,
        deciders: Vec<BoxedDecider>,
        at: Option<u64>,
    ) -> QueryHandle {
        assert_eq!(
            deciders.len(),
            self.shared.shard_count,
            "an admission needs exactly one decider per shard"
        );
        // See retire(): the guarded state stays consistent across a poison.
        let mut inner = self.shared.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let handle = QueryHandle { slot: inner.next_slot, generation: inner.next_generation };
        // u32::MAX admissions would need ~4 billion admit calls in one
        // process lifetime; overflow here is a caller bug, not a load
        // condition, so the panic stays.
        inner.next_slot = inner.next_slot.checked_add(1).expect("query slots exhausted");
        inner.next_generation += 1;
        let _ = inner.sender.send(LifecycleRequest::Admit { handle, query, deciders, at });
        handle
    }
}

/// The result of a live (lifecycle-enabled) engine run.
///
/// The per-query axis covers every slot the engine has ever carried —
/// queries retired before or during the run keep their slot, reporting the
/// output produced while they were live (empty for slots retired in an
/// earlier run).
pub struct LiveRunOutcome {
    /// Each slot's complex events, in single-operator emission order.
    pub complex_events: Vec<Vec<crate::ComplexEvent>>,
    /// The decider rows after the run, indexed `[shard][slot]`; `None`
    /// marks slots whose decider was torn down (retired queries). Wrap
    /// deciders in [`SharedDecider`](crate::SharedDecider) before admission
    /// to observe their state without taking the row back.
    pub deciders: Vec<Vec<Option<BoxedDecider>>>,
    /// Admissions, retirements and rejections of this run, with positions.
    pub lifecycle: LifecycleReport,
}

impl std::fmt::Debug for LiveRunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRunOutcome")
            .field("complex_events", &self.complex_events)
            .field("shards", &self.deciders.len())
            .field("lifecycle", &self.lifecycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeepAll, Pattern, WindowSpec};
    use espice_events::EventType;

    fn query() -> Query {
        let a = EventType::from_index(0);
        Query::builder()
            .pattern(Pattern::sequence([a, EventType::from_index(1)]))
            .window(WindowSpec::count_on_types(vec![a], 4))
            .build()
    }

    #[test]
    fn control_allocates_monotone_slots_and_generations() {
        let (control, rx) = EngineControl::create(2, 3);
        let h1 = control.admit(query(), vec![Box::new(KeepAll), Box::new(KeepAll)]);
        let h2 = control.admit_at(7, query(), vec![Box::new(KeepAll), Box::new(KeepAll)]);
        assert_eq!((h1.slot, h1.generation), (3, 3));
        assert_eq!((h2.slot, h2.generation), (4, 4));
        control.retire(h1);
        let requests: Vec<LifecycleRequest> = rx.try_iter().collect();
        assert_eq!(requests.len(), 3);
        assert!(
            matches!(requests[0], LifecycleRequest::Admit { handle, at: None, .. } if handle == h1)
        );
        assert!(
            matches!(requests[1], LifecycleRequest::Admit { handle, at: Some(7), .. } if handle == h2)
        );
        assert!(
            matches!(requests[2], LifecycleRequest::Retire { handle, at: None } if handle == h1)
        );
    }

    #[test]
    fn cloned_controls_share_the_allocation_sequence() {
        let (control, rx) = EngineControl::create(1, 0);
        let clone = control.clone();
        let a = control.admit(query(), vec![Box::new(KeepAll)]);
        let b = clone.admit(query(), vec![Box::new(KeepAll)]);
        assert_eq!(a.slot, 0);
        assert_eq!(b.slot, 1);
        assert_ne!(a.generation, b.generation);
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "one decider per shard")]
    fn admission_with_wrong_decider_count_is_rejected() {
        let (control, _rx) = EngineControl::create(2, 0);
        let _ = control.admit(query(), vec![Box::new(KeepAll)]);
    }
}
