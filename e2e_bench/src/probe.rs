//! The decider wrapper the benchmark hands to the engine.
//!
//! [`Probe`] forwards every call to the wrapped decider or shedder and
//! observes the run from outside the engine: it stamps the first decider
//! call that carries each event (the end point of the latency metric) and,
//! in a traced run, times the decision kernel and plan application. The
//! probes of one shard share a [`ShardLog`]; each probe merges its own
//! counters into that log when it is dropped, which happens when the run
//! hands its deciders back or drops them.

use crate::stats::{FirstSeen, Stamp};
use espice_cep::{BatchRequest, Decision, DropSet, QueueSample, WindowEventDecider, WindowMeta};
use espice_events::Event;
use espice_runtime::AdaptiveShedder;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One kernel call out of every `SPAN_SAMPLE` is kept as a raw span.
const SPAN_SAMPLE: u64 = 4096;

/// A raw span of a traced run: a layer's call, in nanoseconds after the
/// run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counters of the calls into the decision kernel and the shedder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTotals {
    /// `decide`, `decide_batch` and `decide_span` calls.
    pub calls: u64,
    /// (event, window) assignments those calls decided.
    pub assignments: u64,
    /// Time inside those calls (traced runs only).
    pub busy_ns: u64,
    /// Start of the first and end of the last call (traced runs only).
    pub first_ns: u64,
    pub last_ns: u64,
    /// `apply_plan` and `deactivate` calls and the time inside them.
    pub plans_applied: u64,
    pub deactivations: u64,
    pub apply_ns: u64,
    /// Sampled raw spans (traced runs only).
    pub spans: Vec<RawSpan>,
}

impl Default for KernelTotals {
    fn default() -> Self {
        KernelTotals {
            calls: 0,
            assignments: 0,
            busy_ns: 0,
            first_ns: u64::MAX,
            last_ns: 0,
            plans_applied: 0,
            deactivations: 0,
            apply_ns: 0,
            spans: Vec::new(),
        }
    }
}

impl KernelTotals {
    fn merge(&mut self, other: &KernelTotals) {
        self.calls += other.calls;
        self.assignments += other.assignments;
        self.busy_ns += other.busy_ns;
        self.first_ns = self.first_ns.min(other.first_ns);
        self.last_ns = self.last_ns.max(other.last_ns);
        self.plans_applied += other.plans_applied;
        self.deactivations += other.deactivations;
        self.apply_ns += other.apply_ns;
        self.spans.extend_from_slice(&other.spans);
    }

    /// The shard's time between its first and last decider call.
    pub fn window_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.first_ns)
    }
}

/// What the probes of one shard record together.
#[derive(Debug)]
pub struct ShardLog {
    origin: Instant,
    traced: bool,
    seen: FirstSeen,
    stamps: Mutex<Vec<Stamp>>,
    totals: Mutex<KernelTotals>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a probe panicked while holding the shard log")
}

impl ShardLog {
    pub fn new(origin: Instant, traced: bool) -> Arc<Self> {
        Arc::new(ShardLog {
            origin,
            traced,
            seen: FirstSeen::default(),
            stamps: Mutex::new(Vec::new()),
            totals: Mutex::new(KernelTotals::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A call carries the consecutive events `lo..=hi`: stamp the part no
    /// earlier call carried. `now` is the call's start if already read.
    fn carried(&self, lo: u64, hi: u64, now: Option<u64>) {
        if let Some((from, to)) = self.seen.claim(lo, hi) {
            let at_ns = now.unwrap_or_else(|| self.now_ns());
            lock(&self.stamps).push(Stamp { from, to, at_ns });
        }
    }

    /// The stamps recorded so far, in recording order.
    pub fn take_stamps(&self) -> Vec<Stamp> {
        std::mem::take(&mut *lock(&self.stamps))
    }

    /// The merged counters of every probe dropped so far.
    pub fn take_totals(&self) -> KernelTotals {
        std::mem::take(&mut *lock(&self.totals))
    }
}

/// Wraps a decider (and, for shedders, the plan interface) to observe it.
#[derive(Debug)]
pub struct Probe<D> {
    inner: D,
    log: Arc<ShardLog>,
    totals: KernelTotals,
}

impl<D> Probe<D> {
    pub fn new(inner: D, log: Arc<ShardLog>) -> Self {
        Probe { inner, log, totals: KernelTotals::default() }
    }

    /// Runs one kernel call carrying events `lo..=hi` and deciding
    /// `assignments` pairs.
    #[inline]
    fn kernel<R>(
        &mut self,
        lo: u64,
        hi: u64,
        assignments: u64,
        call: impl FnOnce(&mut D) -> R,
    ) -> R {
        self.totals.calls += 1;
        self.totals.assignments += assignments;
        if !self.log.traced {
            self.log.carried(lo, hi, None);
            return call(&mut self.inner);
        }
        let start = self.log.now_ns();
        self.log.carried(lo, hi, Some(start));
        let result = call(&mut self.inner);
        let end = self.log.now_ns();
        self.totals.busy_ns += end - start;
        self.totals.first_ns = self.totals.first_ns.min(start);
        self.totals.last_ns = end;
        if self.totals.calls % SPAN_SAMPLE == 1 {
            self.totals.spans.push(RawSpan { layer: "kernel", start_ns: start, end_ns: end });
        }
        result
    }

    /// Runs one plan change, counted and timed in every run (plan changes
    /// happen at most once per check interval).
    fn plan_change(&mut self, call: impl FnOnce(&mut D)) {
        let start = self.log.now_ns();
        call(&mut self.inner);
        let end = self.log.now_ns();
        self.totals.apply_ns += end - start;
        if self.log.traced {
            self.totals.spans.push(RawSpan {
                layer: "shedder.apply",
                start_ns: start,
                end_ns: end,
            });
        }
    }
}

impl<D> Drop for Probe<D> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned log only loses these counters.
        if let Ok(mut totals) = self.log.totals.lock() {
            totals.merge(&self.totals);
        }
    }
}

impl<D: WindowEventDecider> WindowEventDecider for Probe<D> {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        let seq = event.seq();
        self.kernel(seq, seq, 1, |inner| inner.decide(meta, position, event))
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        let seq = event.seq();
        self.kernel(seq, seq, requests.len() as u64, |inner| {
            inner.decide_batch(event, requests, decisions)
        });
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        let (Some(first), Some(last)) = (events.first(), events.last()) else {
            return self.inner.decide_span(meta, start_position, events, drops);
        };
        let (lo, hi) = (first.seq(), last.seq());
        self.kernel(lo, hi, events.len() as u64, |inner| {
            inner.decide_span(meta, start_position, events, drops)
        })
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        self.inner.window_closed(meta, size);
    }

    fn queue_sample(&mut self, sample: &QueueSample) {
        self.inner.queue_sample(sample);
    }

    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        self.inner.partial_match_budget(meta)
    }

    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        self.inner.constituent_utility(meta, position, event)
    }
}

impl<S: AdaptiveShedder> AdaptiveShedder for Probe<S> {
    fn apply_plan(&mut self, plan: espice::ShedPlan) {
        self.totals.plans_applied += 1;
        self.plan_change(|inner| inner.apply_plan(plan));
    }

    fn deactivate(&mut self) {
        self.totals.deactivations += 1;
        self.plan_change(|inner| inner.deactivate());
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_cep::KeepAll;
    use espice_events::{EventType, Timestamp};

    fn events(range: std::ops::RangeInclusive<u64>) -> Vec<Event> {
        range.map(|k| Event::new(EventType::from_index(0), Timestamp::from_micros(k), k)).collect()
    }

    #[test]
    fn probes_of_one_shard_stamp_each_event_once_and_merge_on_drop() {
        let log = ShardLog::new(Instant::now(), true);
        let mut a = Probe::new(KeepAll, Arc::clone(&log));
        let mut b = Probe::new(KeepAll, Arc::clone(&log));
        let meta = WindowMeta {
            id: 0,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: 10,
        };
        let mut drops = DropSet::default();
        // Two queries decide the same span; then one opening event goes
        // through the per-event batch path.
        a.decide_span(&meta, 0, &events(0..=9), &mut drops);
        b.decide_span(&meta, 0, &events(0..=9), &mut drops);
        let mut decisions = Vec::new();
        b.decide_batch(&events(10..=10)[0], &[], &mut decisions);
        let stamps = log.take_stamps();
        assert_eq!(stamps.len(), 2);
        assert_eq!((stamps[0].from, stamps[0].to), (0, 9));
        assert_eq!((stamps[1].from, stamps[1].to), (10, 10));
        assert!(stamps[0].at_ns <= stamps[1].at_ns);
        drop(a);
        drop(b);
        let totals = log.take_totals();
        assert_eq!(totals.calls, 3);
        assert_eq!(totals.assignments, 20);
        assert!(totals.first_ns <= totals.last_ns);
        assert_eq!(totals.spans.len(), 2, "the first call of each probe is sampled");
    }
}
