//! Bounded single-producer/single-consumer event queues.
//!
//! The streaming engine gives every shard its own input queue: the producer
//! fan-out loop appends each incoming event to every shard's queue, and each
//! shard's drain thread pops from its queue alone. That access pattern is
//! exactly SPSC, so the queue is a fixed-capacity ring over two monotone
//! slot counters — the same slot-index discipline as the shared window
//! storage's event ring, applied to a concurrent hand-off — with no locks
//! and no external dependencies.
//!
//! Capacity is the backpressure mechanism eSPICE's overload model assumes:
//! a full queue makes [`QueueProducer::push`] fail (and
//! [`QueueProducer::push_blocking`] wait), so the producer slows to the
//! drain rate instead of buffering unboundedly, and the *measured* queue
//! depth ([`QueueConsumer::depth`]) is the quantity the overload detector
//! compares against `f · qmax` (paper §3.4).
//!
//! Memory ordering: the producer publishes an event by storing `tail` with
//! `Release` after writing the slot; the consumer `Acquire`-loads `tail`
//! before reading, and releases the slot back by storing `head` with
//! `Release` after taking the event, which the producer `Acquire`-loads
//! before reusing the slot. Slot counters increase monotonically and are
//! mapped into the buffer modulo the capacity.

use espice_events::Event;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared state of one SPSC queue. Only ever touched through the unique
/// [`QueueProducer`] / [`QueueConsumer`] pair, which is what makes the
/// unsynchronised slot accesses sound.
///
/// Generic over the element type: the engine's shard queues carry
/// `ShardInput`s (sealed event chunks, interleaved on the live paths with
/// in-band lifecycle commands); the tests also push plain values — the
/// hand-off discipline is identical either way.
#[derive(Debug)]
struct Shared<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    /// Next slot the consumer takes. Monotone; slot = `head % capacity`.
    head: AtomicUsize,
    /// Next slot the producer fills. Monotone; slot = `tail % capacity`.
    tail: AtomicUsize,
    /// Set by [`QueueProducer::close`]: no further pushes will happen.
    closed: AtomicBool,
    /// Set when the consumer is dropped: pushes can never be drained again.
    consumer_gone: AtomicBool,
    /// Largest depth ever observed at push time.
    peak_depth: AtomicUsize,
    /// Queue depth in **events** (not slots): incremented by the push
    /// weight, decremented by [`QueueConsumer::consume_events`] as the
    /// drain loop processes events. With chunked hand-off one slot can
    /// carry many events (or, for a command, none), so this — not the slot
    /// count — is the quantity the overload detector's `f · qmax` check
    /// needs.
    event_depth: AtomicU64,
    /// Largest event-denominated depth ever observed at push time.
    peak_event_depth: AtomicU64,
}

// SAFETY: the queue is shared between exactly two threads (the handles are
// not Clone), the producer only writes slots in `[head + capacity, ...)`
// never resident, the consumer only reads slots in `[head, tail)`, and the
// Release/Acquire pairs on `head`/`tail` order every slot access.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Staged wait for the queue endpoints: spin briefly (the other side is
/// usually mid-hand-off), then yield the scheduler slice, then degrade to a
/// short sleep so a queue that stays full or empty for long — a live
/// source trickling events, a stalled shard — costs microseconds of wakeup
/// latency instead of a pinned core.
#[derive(Debug, Default)]
pub struct Backoff {
    rounds: u32,
}

impl Backoff {
    /// The number of initial spin rounds before yielding.
    const SPIN_ROUNDS: u32 = 16;
    /// The number of yield rounds before sleeping.
    const YIELD_ROUNDS: u32 = 64;
    /// The sleep applied once spinning and yielding were exhausted.
    const SLEEP: std::time::Duration = std::time::Duration::from_micros(100);

    /// A fresh backoff, starting at the spinning stage.
    pub fn new() -> Self {
        Backoff { rounds: 0 }
    }

    /// Waits one round, escalating spin → yield → sleep.
    pub fn wait(&mut self) {
        if self.rounds < Self::SPIN_ROUNDS {
            std::hint::spin_loop();
        } else if self.rounds < Self::SPIN_ROUNDS + Self::YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Self::SLEEP);
        }
        self.rounds = self.rounds.saturating_add(1);
    }

    /// Resets to the spinning stage (progress was made).
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

/// Counters describing one queue's run, reported by the engine alongside
/// the operator statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Configured capacity of the queue, in hand-off slots.
    pub capacity: usize,
    /// Events pushed over the queue's lifetime (a chunk counts its
    /// events, an in-band command counts zero).
    pub pushed: u64,
    /// Largest number of hand-offs (slots) resident at once; bounded by
    /// `capacity`.
    pub peak_depth: usize,
    /// Largest number of *events* resident at once — with chunked
    /// hand-off each slot can carry a whole batch, so this is the
    /// "how overfilled did the queue get" figure and can exceed
    /// `capacity`.
    pub peak_event_depth: u64,
    /// Hand-offs whose push found the queue full at least once (the
    /// producer had to wait — the backpressure signal).
    pub backpressure_events: u64,
}

/// Creates a bounded SPSC queue of the given capacity, returning the two
/// (move-only) endpoint handles.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Example
///
/// ```
/// use espice_cep::queue::spsc;
/// use espice_events::{Event, EventType, Timestamp};
///
/// let (mut producer, mut consumer) = spsc(2);
/// let ev = |seq| Event::new(EventType::from_index(0), Timestamp::ZERO, seq);
/// producer.push(ev(0)).unwrap();
/// producer.push(ev(1)).unwrap();
/// assert!(producer.push(ev(2)).is_err(), "third push exceeds capacity");
/// assert_eq!(consumer.pop().unwrap().seq(), 0);
/// producer.close();
/// assert_eq!(consumer.pop().unwrap().seq(), 1);
/// assert!(consumer.pop().is_none());
/// assert!(consumer.is_closed());
/// ```
pub fn spsc<T>(capacity: usize) -> (QueueProducer<T>, QueueConsumer<T>) {
    assert!(capacity >= 1, "queue capacity must be at least 1");
    let slots = (0..capacity).map(|_| UnsafeCell::new(None)).collect();
    let shared = Arc::new(Shared {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        peak_depth: AtomicUsize::new(0),
        event_depth: AtomicU64::new(0),
        peak_event_depth: AtomicU64::new(0),
    });
    let producer =
        QueueProducer { shared: Arc::clone(&shared), pushed: 0, backpressure_events: 0, capacity };
    let consumer = QueueConsumer { shared, capacity };
    (producer, consumer)
}

/// Outcome of a deadline-bounded blocking push
/// ([`QueueProducer::push_blocking_weighted_until`]). The rejected item is
/// handed back so the caller can retry it — against the same queue after
/// re-checking its watchdog, or against a replacement shard's queue.
#[derive(Debug)]
pub enum PushOutcome<T> {
    /// The item was handed over.
    Pushed,
    /// The consumer endpoint was dropped (its drain thread died).
    ConsumerGone(T),
    /// The queue stayed full past the deadline.
    TimedOut(T),
}

/// The producer endpoint of an SPSC queue. Move-only: exactly one producer
/// exists per queue.
#[derive(Debug)]
pub struct QueueProducer<T = Event> {
    shared: Arc<Shared<T>>,
    pushed: u64,
    backpressure_events: u64,
    capacity: usize,
}

impl<T> QueueProducer<T> {
    /// Attempts to push one event, returning it back if the queue is full
    /// or the consumer is gone.
    pub fn push(&mut self, event: T) -> Result<(), T> {
        self.push_weighted(event, 1)
    }

    /// Attempts to push one item that stands for `events` stream events —
    /// a chunk (`events == chunk.len()`), a single event (`1`), or an
    /// in-band command (`0`). The weight is what [`QueueStats::pushed`] and
    /// the event-denominated queue depth advance by, so the overload
    /// controller keeps counting events however the hand-off is batched.
    pub fn push_weighted(&mut self, item: T, events: u64) -> Result<(), T> {
        if self.shared.consumer_gone.load(Ordering::Acquire) {
            return Err(item);
        }
        let tail = self.shared.tail.load(Ordering::Relaxed);
        let head = self.shared.head.load(Ordering::Acquire);
        if tail - head == self.capacity {
            return Err(item);
        }
        // SAFETY: `tail - head < capacity`, so the consumer has released
        // this slot (its last use happened before the `head` store we just
        // acquired), and no other producer exists.
        unsafe {
            *self.shared.slots[tail % self.capacity].get() = Some(item);
        }
        // Account the weight *before* publishing the slot: once `tail` is
        // released the consumer may pop the item and `consume_events` its
        // weight at once, and a counter that has not been credited yet
        // would wrap below zero.
        if events > 0 {
            let event_depth = self.shared.event_depth.fetch_add(events, Ordering::Relaxed) + events;
            self.shared.peak_event_depth.fetch_max(event_depth, Ordering::Relaxed);
        }
        self.shared.tail.store(tail + 1, Ordering::Release);
        #[cfg(test)]
        tests::after_publish();
        self.pushed += events;
        let depth = tail + 1 - head;
        self.shared.peak_depth.fetch_max(depth, Ordering::Relaxed);
        Ok(())
    }

    /// Pushes one event, waiting while the queue is full (bounded-queue
    /// backpressure). Returns `false` if the consumer disappeared before
    /// the event could be handed over (its drain thread panicked) — the
    /// caller should stop producing.
    pub fn push_blocking(&mut self, event: T) -> bool {
        self.push_blocking_weighted(event, 1)
    }

    /// [`push_weighted`](Self::push_weighted) with full-queue waiting, the
    /// blocking counterpart used by the chunked producer loops.
    pub fn push_blocking_weighted(&mut self, item: T, events: u64) -> bool {
        let mut item = item;
        let mut waited = false;
        let mut backoff = Backoff::new();
        loop {
            match self.push_weighted(item, events) {
                Ok(()) => return true,
                Err(rejected) => {
                    if self.shared.consumer_gone.load(Ordering::Acquire) {
                        return false;
                    }
                    if !waited {
                        waited = true;
                        self.backpressure_events += 1;
                    }
                    item = rejected;
                    backoff.wait();
                }
            }
        }
    }

    /// [`push_blocking_weighted`](Self::push_blocking_weighted) with a
    /// deadline: waits while the queue is full, but only until `deadline`.
    /// Distinguishes a vanished consumer from a consumer that is merely not
    /// making progress, which is what the engine's stall watchdog needs. The
    /// clock is read only on the full-queue wait path, so the fast path costs
    /// the same as the plain blocking push.
    pub fn push_blocking_weighted_until(
        &mut self,
        item: T,
        events: u64,
        deadline: std::time::Instant,
    ) -> PushOutcome<T> {
        let mut item = item;
        let mut waited = false;
        let mut backoff = Backoff::new();
        loop {
            match self.push_weighted(item, events) {
                Ok(()) => return PushOutcome::Pushed,
                Err(rejected) => {
                    if self.shared.consumer_gone.load(Ordering::Acquire) {
                        return PushOutcome::ConsumerGone(rejected);
                    }
                    if std::time::Instant::now() >= deadline {
                        return PushOutcome::TimedOut(rejected);
                    }
                    if !waited {
                        waited = true;
                        self.backpressure_events += 1;
                    }
                    item = rejected;
                    backoff.wait();
                }
            }
        }
    }

    /// Marks the end of the stream. Events already queued remain drainable.
    pub fn close(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Number of events currently resident.
    pub fn depth(&self) -> usize {
        self.shared.tail.load(Ordering::Relaxed) - self.shared.head.load(Ordering::Acquire)
    }

    /// The queue's counters so far.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            capacity: self.capacity,
            pushed: self.pushed,
            peak_depth: self.shared.peak_depth.load(Ordering::Relaxed),
            peak_event_depth: self.shared.peak_event_depth.load(Ordering::Relaxed),
            backpressure_events: self.backpressure_events,
        }
    }
}

impl<T> Drop for QueueProducer<T> {
    fn drop(&mut self) {
        // A dropped producer can never push again; let the consumer finish.
        self.close();
    }
}

/// The consumer endpoint of an SPSC queue. Move-only: exactly one consumer
/// exists per queue.
#[derive(Debug)]
pub struct QueueConsumer<T = Event> {
    shared: Arc<Shared<T>>,
    capacity: usize,
}

impl<T> QueueConsumer<T> {
    /// Takes the oldest queued event, or `None` if the queue is currently
    /// empty. An empty pop with [`is_closed`](Self::is_closed) true means
    /// the stream has ended.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.shared.head.load(Ordering::Relaxed);
        let tail = self.shared.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head < tail`, so the producer published this slot (the
        // `tail` store we acquired happened after its write), and no other
        // consumer exists.
        let event = unsafe { (*self.shared.slots[head % self.capacity].get()).take() };
        self.shared.head.store(head + 1, Ordering::Release);
        Some(event.expect("published slots hold an event"))
    }

    /// The measured queue depth in **slots**: items pushed but not yet
    /// popped. With chunked hand-off one slot can carry a whole batch; use
    /// [`event_depth`](Self::event_depth) for the event-denominated depth
    /// the overload detector compares against `f · qmax`.
    pub fn depth(&self) -> usize {
        self.shared.tail.load(Ordering::Acquire) - self.shared.head.load(Ordering::Relaxed)
    }

    /// The measured queue depth in **events**: stream events pushed (by
    /// weight) and not yet declared consumed via
    /// [`consume_events`](Self::consume_events). Counts the unscanned
    /// remainder of a partially processed chunk, and counts in-band
    /// commands (weight 0) not at all.
    pub fn event_depth(&self) -> u64 {
        self.shared.event_depth.load(Ordering::Relaxed)
    }

    /// Declares `events` stream events consumed, retiring them from
    /// [`event_depth`](Self::event_depth). The drain loop calls this as it
    /// processes events — possibly batched, as long as the count is flushed
    /// before the depth is sampled.
    pub fn consume_events(&self, events: u64) {
        if events > 0 {
            self.shared.event_depth.fetch_sub(events, Ordering::Relaxed);
        }
    }

    /// Whether the queue currently holds no events.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }

    /// Whether the producer has announced the end of the stream. Queued
    /// events remain poppable after close.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// The queue's configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for QueueConsumer<T> {
    fn drop(&mut self) {
        // Unblock a producer stuck in `push_blocking` if the drain thread
        // dies: nothing will ever pop again.
        self.shared.consumer_gone.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{EventType, Timestamp};

    fn ev(seq: u64) -> Event {
        Event::new(EventType::from_index(0), Timestamp::from_secs(seq), seq)
    }

    #[test]
    fn fifo_order_is_preserved() {
        let (mut producer, mut consumer) = spsc(4);
        for seq in 0..4 {
            producer.push(ev(seq)).unwrap();
        }
        for seq in 0..4 {
            assert_eq!(consumer.pop().unwrap().seq(), seq);
        }
        assert!(consumer.pop().is_none());
    }

    #[test]
    fn full_queue_rejects_and_reports_depth() {
        let (mut producer, mut consumer) = spsc(2);
        producer.push(ev(0)).unwrap();
        producer.push(ev(1)).unwrap();
        assert_eq!(producer.depth(), 2);
        assert_eq!(consumer.depth(), 2);
        let rejected = producer.push(ev(2)).unwrap_err();
        assert_eq!(rejected.seq(), 2);
        assert_eq!(consumer.pop().unwrap().seq(), 0);
        producer.push(ev(2)).unwrap();
        assert_eq!(consumer.pop().unwrap().seq(), 1);
        assert_eq!(consumer.pop().unwrap().seq(), 2);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let (mut producer, mut consumer) = spsc(2);
        for seq in 0..100 {
            producer.push(ev(seq)).unwrap();
            assert_eq!(consumer.pop().unwrap().seq(), seq);
        }
        assert!(consumer.is_empty());
        let stats = producer.stats();
        assert_eq!(stats.pushed, 100);
        assert_eq!(stats.peak_depth, 1);
        assert_eq!(stats.backpressure_events, 0);
    }

    #[test]
    fn close_lets_consumer_drain_then_finish() {
        let (mut producer, mut consumer) = spsc(4);
        producer.push(ev(0)).unwrap();
        producer.close();
        assert!(consumer.is_closed());
        assert_eq!(consumer.pop().unwrap().seq(), 0);
        assert!(consumer.pop().is_none());
        assert!(consumer.is_empty());
    }

    #[test]
    fn dropped_consumer_unblocks_producer() {
        let (mut producer, consumer) = spsc(1);
        producer.push(ev(0)).unwrap();
        drop(consumer);
        assert!(!producer.push_blocking(ev(1)), "push into a dead queue must not hang");
    }

    #[test]
    fn cross_thread_handoff_delivers_everything_in_order() {
        let (mut producer, mut consumer) = spsc(8);
        let total = 50_000u64;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for seq in 0..total {
                    assert!(producer.push_blocking(ev(seq)));
                }
                producer.close();
            });
            let mut expected = 0u64;
            loop {
                match consumer.pop() {
                    Some(event) => {
                        assert_eq!(event.seq(), expected);
                        expected += 1;
                    }
                    None if consumer.is_closed() => {
                        if consumer.is_empty() {
                            break;
                        }
                    }
                    None => std::thread::yield_now(),
                }
            }
            assert_eq!(expected, total);
        });
    }

    #[test]
    fn blocking_push_counts_backpressure() {
        let (mut producer, mut consumer) = spsc(1);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for seq in 0..100 {
                    assert!(producer.push_blocking(ev(seq)));
                }
                producer.close();
                let stats = producer.stats();
                assert_eq!(stats.pushed, 100);
                assert_eq!(stats.capacity, 1);
            });
            let mut popped = 0;
            while popped < 100 {
                if consumer.pop().is_some() {
                    popped += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn weighted_pushes_count_events_not_slots() {
        // A queue of batches: each slot is a Vec standing for several
        // stream events (or, with weight 0, for an in-band command).
        let (mut producer, mut consumer) = spsc::<Vec<u64>>(4);
        producer.push_weighted(vec![0, 1, 2], 3).unwrap();
        producer.push_weighted(vec![], 0).unwrap();
        producer.push_weighted(vec![3], 1).unwrap();
        assert_eq!(producer.depth(), 3, "slot depth counts items");
        assert_eq!(consumer.event_depth(), 4, "event depth counts weights");
        assert_eq!(producer.stats().pushed, 4, "pushed is event-denominated");
        assert_eq!(producer.stats().peak_depth, 3, "peak depth counts slots");
        assert_eq!(producer.stats().peak_event_depth, 4, "event peak counts weights");

        // Consuming half the first batch: the unscanned remainder stays in
        // the event depth even though the slot was already popped.
        let first = consumer.pop().unwrap();
        assert_eq!(first.len(), 3);
        consumer.consume_events(1);
        assert_eq!(consumer.event_depth(), 3);
        consumer.consume_events(2);
        let command = consumer.pop().unwrap();
        assert!(command.is_empty());
        assert_eq!(consumer.event_depth(), 1, "commands carry no event weight");
        consumer.pop().unwrap();
        consumer.consume_events(1);
        assert_eq!(consumer.event_depth(), 0);
    }

    #[test]
    fn blocking_weighted_push_applies_backpressure_per_slot() {
        let (mut producer, mut consumer) = spsc::<Vec<u64>>(1);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for batch in 0..50u64 {
                    let chunk: Vec<u64> = (batch * 4..batch * 4 + 4).collect();
                    assert!(producer.push_blocking_weighted(chunk, 4));
                }
                producer.close();
                let stats = producer.stats();
                assert_eq!(stats.pushed, 200, "50 chunks of 4 events each");
                assert!(stats.peak_depth <= 1, "peak depth stays slot-denominated");
                assert!(stats.peak_event_depth >= 4, "one resident chunk is 4 events");
            });
            let mut seen = 0u64;
            while seen < 200 {
                if let Some(chunk) = consumer.pop() {
                    for (offset, seq) in chunk.iter().enumerate() {
                        assert_eq!(*seq, seen + offset as u64);
                    }
                    let events = chunk.len() as u64;
                    seen += events;
                    consumer.consume_events(events);
                } else {
                    std::thread::yield_now();
                }
            }
            assert_eq!(consumer.event_depth(), 0);
        });
    }

    thread_local! {
        /// Test-only hook run by `push_weighted` on the producer's thread
        /// right after the `tail` store publishes the item.
        static AFTER_PUBLISH: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn after_publish() {
        AFTER_PUBLISH.with(|hook| {
            if let Some(hook) = hook.borrow_mut().as_mut() {
                hook();
            }
        });
    }

    #[test]
    fn consumer_winning_the_publish_race_never_wraps_the_event_depth() {
        // Force the interleaving a fast consumer can hit: the producer
        // publishes a weighted item, and the consumer pops it and retires
        // its weight before `push_weighted` returns.
        let (mut producer, mut consumer) = spsc::<u64>(4);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let consumer_side = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                assert_eq!(consumer.pop(), Some(7));
                let popped_depth = consumer.event_depth();
                consumer.consume_events(5);
                let consumed_depth = consumer.event_depth();
                barrier.wait();
                (popped_depth, consumed_depth)
            })
        };
        let hook_barrier = Arc::clone(&barrier);
        AFTER_PUBLISH.with(|hook| {
            *hook.borrow_mut() = Some(Box::new(move || {
                hook_barrier.wait();
                hook_barrier.wait();
            }));
        });
        let pushed = producer.push_weighted(7, 5);
        AFTER_PUBLISH.with(|hook| hook.borrow_mut().take());
        let (popped_depth, consumed_depth) = consumer_side.join().expect("consumer panicked");
        assert!(pushed.is_ok());
        assert_eq!(popped_depth, 5, "a published item's weight is already counted");
        assert_eq!(consumed_depth, 0, "retiring the weight must not wrap the counter");
        assert_eq!(producer.stats().peak_event_depth, 5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = spsc::<Event>(0);
    }
}
