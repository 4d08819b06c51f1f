//! The benchmark's load generator: an [`EventSource`] that replays a
//! generated dataset in laps, either paced to an open-loop schedule or
//! unpaced, and stops at a fixed point so a collapse cannot stretch a run.

use crate::probe::RawSpan;
use crate::stats::Schedule;
use espice_events::{Event, EventSource, SimDuration};
use std::time::{Duration, Instant};

/// The offer instant of one event out of every `OFFER_STRIDE` is recorded
/// on unpaced runs (the latency sample). It is prime, so the sampled events
/// fall at every position of a chunk, and sparse, so a run can keep the
/// samples of all its sub-runs for percentiles over the whole run.
pub const OFFER_STRIDE: u64 = 251;

/// One pull out of every `LAG_SAMPLE` feeds the traced lag and raw spans.
const LAG_SAMPLE: u64 = 16;
const PULL_SPAN_SAMPLE: u64 = 1 << 16;

/// An endless stream built from a finite dataset: lap `j` replays the
/// dataset shifted by `j` periods in time, and event `k` of the endless
/// stream carries sequence number `k`.
#[derive(Debug, Clone, Copy)]
pub struct Laps<'a> {
    base: &'a [Event],
    period: SimDuration,
}

impl<'a> Laps<'a> {
    /// Laps over `base`, which must be ordered; one lap lasts from the
    /// first event's timestamp to one millisecond past the last one.
    pub fn new(base: &'a [Event]) -> Self {
        let (Some(first), Some(last)) = (base.first(), base.last()) else {
            panic!("laps need a non-empty dataset");
        };
        let span = last.timestamp().saturating_since(first.timestamp());
        Laps { base, period: span + SimDuration::from_millis(1) }
    }

    /// Event `k` of the endless stream.
    pub fn event(&self, k: u64) -> Event {
        let len = self.base.len() as u64;
        let (lap, index) = (k / len, (k % len) as usize);
        let event = self.base[index].with_seq(k);
        if lap == 0 {
            event
        } else {
            let shift = SimDuration::from_micros(self.period.as_micros() * lap);
            event.with_timestamp(event.timestamp() + shift)
        }
    }

    /// The first `count` events of the endless stream, as a source.
    pub fn prefix(self, count: u64) -> impl EventSource + 'a {
        espice_events::IterSource::new((0..count).map(move |k| self.event(k)))
    }
}

/// How the source offers its events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Open loop: event `k` is released at its due instant on the
    /// schedule, or as soon as possible after it when the producer runs
    /// late.
    Paced(Schedule),
    /// Closed loop: the next event is offered as soon as the producer asks.
    Unpaced,
}

/// What the traced source records.
#[derive(Debug, Default)]
pub struct SourceTrace {
    /// Time spent between successive pulls (the producer's append, seal,
    /// push and backpressure wait), summed, and the number of gaps.
    pub gap_ns: u64,
    pub gaps: u64,
    /// How late the generator ran at a sample of pulls, in ms.
    pub lag_ms: Vec<f64>,
    pub spans: Vec<RawSpan>,
    last_exit_ns: Option<u64>,
}

/// The benchmark's source: the first `events` events of the laps, paced or
/// not, stopped at `stop_after` past the origin at the latest.
#[derive(Debug)]
pub struct BenchSource<'a> {
    laps: Laps<'a>,
    events: u64,
    pace: Pace,
    origin: Instant,
    stop_after: Duration,
    offered: u64,
    stopped: bool,
    /// Unpaced runs: offer instant of every `OFFER_STRIDE`-th event.
    offered_ns: Vec<u64>,
    trace: Option<SourceTrace>,
}

impl<'a> BenchSource<'a> {
    pub fn new(
        laps: Laps<'a>,
        events: u64,
        pace: Pace,
        origin: Instant,
        stop_after: Duration,
        traced: bool,
    ) -> Self {
        BenchSource {
            laps,
            events,
            pace,
            origin,
            stop_after,
            offered: 0,
            stopped: false,
            offered_ns: Vec::new(),
            trace: traced.then(SourceTrace::default),
        }
    }

    /// Events offered to the engine.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offer instants of the sampled events of an unpaced run.
    pub fn offered_ns(&self) -> &[u64] {
        &self.offered_ns
    }

    pub fn take_trace(&mut self) -> Option<SourceTrace> {
        self.trace.take()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn stop(&mut self) -> Option<Event> {
        self.stopped = true;
        None
    }
}

impl EventSource for BenchSource<'_> {
    fn next_event(&mut self) -> Option<Event> {
        let k = self.offered;
        if self.stopped || k >= self.events {
            return None;
        }
        let traced = self.trace.is_some();
        let stop_ns = self.stop_after.as_nanos() as u64;
        let entry_ns = match self.pace {
            Pace::Paced(schedule) => {
                let now = self.now_ns();
                if now >= stop_ns {
                    return self.stop();
                }
                let late_ns = now as f64 - schedule.due_ns(k);
                if late_ns < 0.0 {
                    std::thread::sleep(Duration::from_nanos(-late_ns as u64));
                }
                if let Some(trace) = self.trace.as_mut().filter(|_| k.is_multiple_of(LAG_SAMPLE)) {
                    trace.lag_ms.push(late_ns.max(0.0) / 1e6);
                }
                Some(now)
            }
            Pace::Unpaced => {
                if k.is_multiple_of(OFFER_STRIDE) {
                    let now = self.now_ns();
                    if now >= stop_ns {
                        return self.stop();
                    }
                    self.offered_ns.push(now);
                    Some(now)
                } else if traced {
                    Some(self.now_ns())
                } else {
                    None
                }
            }
        };
        let event = self.laps.event(k);
        self.offered += 1;
        let exit_ns = traced.then(|| self.now_ns());
        if let (Some(entry), Some(exit), Some(trace)) = (entry_ns, exit_ns, self.trace.as_mut()) {
            if let Some(last_exit) = trace.last_exit_ns {
                trace.gap_ns += entry.saturating_sub(last_exit);
                trace.gaps += 1;
            }
            trace.last_exit_ns = Some(exit);
            if k.is_multiple_of(PULL_SPAN_SAMPLE) {
                trace.spans.push(RawSpan { layer: "source.pull", start_ns: entry, end_ns: exit });
            }
        }
        Some(event)
    }

    fn is_paced(&self) -> bool {
        matches!(self.pace, Pace::Paced(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{EventType, Timestamp};

    fn base() -> Vec<Event> {
        (0..4)
            .map(|k| Event::new(EventType::from_index(k as u32), Timestamp::from_millis(10 * k), k))
            .collect()
    }

    #[test]
    fn laps_continue_sequence_numbers_and_time() {
        let base = base();
        let laps = Laps::new(&base);
        let events: Vec<Event> = (0..9).map(|k| laps.event(k)).collect();
        let seqs: Vec<u64> = events.iter().map(Event::seq).collect();
        assert_eq!(seqs, (0..9).collect::<Vec<_>>());
        // One lap lasts 30 ms + 1 ms.
        assert_eq!(events[4].timestamp(), Timestamp::from_millis(31));
        assert_eq!(events[8].timestamp(), Timestamp::from_millis(62));
        assert!(events.windows(2).all(|pair| pair[0].timestamp() < pair[1].timestamp()));
        assert_eq!(events[5].event_type(), base[1].event_type());
    }

    #[test]
    fn sources_stop_after_their_events() {
        let base = base();
        let pace = Pace::Paced(Schedule::new(1e6, 1));
        let mut source = BenchSource::new(
            Laps::new(&base),
            5,
            pace,
            Instant::now(),
            Duration::from_secs(1),
            true,
        );
        assert!(source.is_paced());
        let pulled = std::iter::from_fn(|| source.next_event()).count();
        assert_eq!(pulled, 5);
        assert_eq!(source.offered(), 5);
        assert!(source.next_event().is_none());
        let trace = source.take_trace().expect("traced");
        assert_eq!(trace.gaps, 4);
    }

    #[test]
    fn sources_stop_at_the_deadline() {
        let base = base();
        let origin = Instant::now() - Duration::from_secs(2);
        let mut paced = BenchSource::new(
            Laps::new(&base),
            10,
            Pace::Paced(Schedule::new(10.0, 1)),
            origin,
            Duration::from_secs(1),
            false,
        );
        assert!(paced.next_event().is_none());
        let mut unpaced = BenchSource::new(
            Laps::new(&base),
            10,
            Pace::Unpaced,
            origin,
            Duration::from_secs(1),
            false,
        );
        assert!(!unpaced.is_paced());
        assert!(unpaced.next_event().is_none());
        assert_eq!(unpaced.offered(), 0);
    }
}
