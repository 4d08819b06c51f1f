//! Deterministic fault injection for the sharded engine.
//!
//! A [`FaultPlan`] is a small, explicit list of faults — panic a shard when
//! it is handed the chunk starting at a given stream position, stall a shard
//! for a fixed duration at such a boundary, or kill the producer after a
//! fixed number of source events. Plans are plain data: the same plan against
//! the same workload produces the same failure, which is what lets the chaos
//! suite pin recovery output byte-for-byte against a fault-free oracle.
//!
//! Plans can be written out by hand or derived from a seed with
//! [`FaultPlan::seeded`], which uses a splitmix64 generator so a CI job can
//! sweep `CHAOS_SEED=1 2 3 ...` without any external randomness dependency.
//!
//! At run start the engine arms the plan into an `ArmedFaults` value whose
//! per-fault one-shot flags are checked at each queue hand-off. When no plan
//! is installed the hook is a single `Option` test per chunk hand-off —
//! nothing is armed, nothing is checked per event.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// One injected fault. Stream positions are producer-counted event
/// positions, i.e. the `base()` of a sealed [`EventChunk`](crate::arena::EventChunk):
/// a fault `at_position: p` fires when the hand-off carrying position `p`
/// reaches the shard, **before** any event of that hand-off is processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic shard `shard`'s drain thread when the chunk starting at stream
    /// position `at_position` arrives.
    PanicShard {
        /// Index of the shard whose drain thread panics.
        shard: usize,
        /// Producer-counted stream position the panic fires at.
        at_position: u64,
    },
    /// Stall shard `shard`'s drain thread for `millis` milliseconds when the
    /// hand-off starting at `at_position` arrives. The stall sleeps in short
    /// slices and exits early if the engine aborts the run, so a watchdog
    /// test does not leak a sleeping thread for the full duration.
    StallShard {
        /// Index of the shard whose drain thread stalls.
        shard: usize,
        /// Producer-counted stream position the stall fires at.
        at_position: u64,
        /// How long the drain thread sleeps before resuming.
        millis: u64,
    },
    /// Stop the producer after it has ingested exactly `after_events` source
    /// events. A partially filled chunk builder is dropped, so the delivered
    /// stream is the longest sealed-chunk prefix:
    /// `after_events - (after_events % chunk_capacity)` events.
    KillProducer {
        /// Number of source events ingested before the producer stops.
        after_events: u64,
    },
}

impl FaultKind {
    /// The shard this fault targets, if it targets one.
    pub fn shard(&self) -> Option<usize> {
        match self {
            FaultKind::PanicShard { shard, .. } | FaultKind::StallShard { shard, .. } => {
                Some(*shard)
            }
            FaultKind::KillProducer { .. } => None,
        }
    }
}

/// A deterministic list of faults to inject into one engine run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault to the plan.
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// The faults in this plan, in arming order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Derives a plan from a seed for a run with `shards` shards over a
    /// stream of `stream_len` events handed off in chunks of
    /// `chunk_capacity`. The plan holds one or two faults: always a shard
    /// panic at some chunk boundary, and (for half the seeds) a second
    /// independent fault — another panic, a short stall, or a producer kill.
    /// The same arguments and seed always produce the same plan.
    pub fn seeded(seed: u64, shards: usize, stream_len: u64, chunk_capacity: usize) -> Self {
        let shards = shards.max(1) as u64;
        let cap = chunk_capacity.max(1) as u64;
        let boundaries = (stream_len / cap).max(1);
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let boundary = |r: u64| (r % boundaries) * cap;
        let mut plan = Self::new().with(FaultKind::PanicShard {
            shard: (next() % shards) as usize,
            at_position: boundary(next()),
        });
        if next() % 2 == 0 {
            let extra = match next() % 3 {
                0 => FaultKind::PanicShard {
                    shard: (next() % shards) as usize,
                    at_position: boundary(next()),
                },
                1 => FaultKind::StallShard {
                    shard: (next() % shards) as usize,
                    at_position: boundary(next()),
                    millis: 1 + next() % 20,
                },
                _ => FaultKind::KillProducer { after_events: next() % (stream_len + 1) },
            };
            plan = plan.with(extra);
        }
        plan
    }

    /// Whether the plan contains a [`FaultKind::StallShard`] fault.
    pub fn has_stall(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, FaultKind::StallShard { .. }))
    }
}

/// A [`FaultPlan`] armed for one engine run: each fault carries a one-shot
/// flag so it fires at most once even when the triggering hand-off is seen
/// again during a chunk replay. Shared (`Arc`) between the producer loop and
/// every drain thread of the run, replacements included.
#[derive(Debug)]
pub(crate) struct ArmedFaults {
    faults: Vec<FaultKind>,
    fired: Vec<AtomicBool>,
}

impl ArmedFaults {
    /// Arms a plan for one run.
    pub(crate) fn arm(plan: &FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            faults: plan.faults.clone(),
            fired: plan.faults.iter().map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Fault hook, called once per queue hand-off with the stream position
    /// the hand-off starts at, before any of its events are processed.
    /// Panics (fault contained by the drain thread's unwind boundary) or
    /// stalls as the plan dictates. A stall sleeps in ~1 ms slices, bailing
    /// out early once `abort` (when provided) is set.
    pub(crate) fn on_handoff(&self, shard: usize, position: u64, abort: Option<&AtomicBool>) {
        for (fault, fired) in self.faults.iter().zip(&self.fired) {
            match *fault {
                FaultKind::PanicShard { shard: s, at_position }
                    if s == shard
                        && at_position == position
                        && !fired.swap(true, Ordering::SeqCst) =>
                {
                    panic!("injected fault: shard {s} panicked at stream position {position}");
                }
                FaultKind::StallShard { shard: s, at_position, millis }
                    if s == shard
                        && at_position == position
                        && !fired.swap(true, Ordering::SeqCst) =>
                {
                    let deadline = Duration::from_millis(millis);
                    let mut slept = Duration::ZERO;
                    while slept < deadline {
                        if abort.is_some_and(|a| a.load(Ordering::Acquire)) {
                            return;
                        }
                        let slice = Duration::from_millis(1).min(deadline - slept);
                        thread::sleep(slice);
                        slept += slice;
                    }
                }
                _ => {}
            }
        }
    }

    /// The smallest `after_events` across the plan's
    /// [`FaultKind::KillProducer`] faults, if any. The producer loop stops
    /// ingesting once it has produced this many events.
    pub(crate) fn producer_kill_after(&self) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                FaultKind::KillProducer { after_events } => Some(*after_events),
                _ => None,
            })
            .min()
    }
}

/// splitmix64: tiny, high-quality step generator for seed-derived plans.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in [0u64, 1, 7, 0xC0FFEE, u64::MAX] {
            let a = FaultPlan::seeded(seed, 4, 1000, 64);
            let b = FaultPlan::seeded(seed, 4, 1000, 64);
            assert_eq!(a, b);
            assert!(!a.faults().is_empty());
        }
    }

    #[test]
    fn seeded_panic_lands_on_a_chunk_boundary_in_range() {
        for seed in 0..64u64 {
            let plan = FaultPlan::seeded(seed, 3, 500, 7);
            for fault in plan.faults() {
                match *fault {
                    FaultKind::PanicShard { shard, at_position }
                    | FaultKind::StallShard { shard, at_position, .. } => {
                        assert!(shard < 3);
                        assert_eq!(at_position % 7, 0);
                        assert!(at_position < 500);
                    }
                    FaultKind::KillProducer { after_events } => assert!(after_events <= 500),
                }
            }
        }
    }

    #[test]
    fn armed_panic_fires_once_at_the_exact_position() {
        let plan = FaultPlan::new().with(FaultKind::PanicShard { shard: 1, at_position: 128 });
        let armed = ArmedFaults::arm(&plan);
        // Wrong shard and wrong position are no-ops.
        armed.on_handoff(0, 128, None);
        armed.on_handoff(1, 64, None);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            armed.on_handoff(1, 128, None);
        }));
        assert!(hit.is_err(), "fault should panic at its position");
        // One-shot: replaying the same hand-off does not re-fire.
        armed.on_handoff(1, 128, None);
    }

    #[test]
    fn armed_stall_respects_abort() {
        let plan = FaultPlan::new().with(FaultKind::StallShard {
            shard: 0,
            at_position: 0,
            millis: 60_000,
        });
        let armed = ArmedFaults::arm(&plan);
        let abort = AtomicBool::new(true);
        let start = std::time::Instant::now();
        armed.on_handoff(0, 0, Some(&abort));
        assert!(start.elapsed() < Duration::from_secs(5), "aborted stall must return early");
    }

    #[test]
    fn producer_kill_returns_minimum() {
        let plan = FaultPlan::new()
            .with(FaultKind::KillProducer { after_events: 90 })
            .with(FaultKind::KillProducer { after_events: 40 });
        assert_eq!(ArmedFaults::arm(&plan).producer_kill_after(), Some(40));
        let none = ArmedFaults::arm(&FaultPlan::new());
        assert_eq!(none.producer_kill_after(), None);
    }
}
