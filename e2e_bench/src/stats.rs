//! The benchmark's own arithmetic: first-seen tracking, the due-time
//! schedule, latency percentiles and failure counting.
//!
//! Latency is measured from outside the engine. A paced source releases
//! event `k` (its run-relative sequence number) at its due instant
//! `k / rate` after the run's origin; the shard's deciders read the clock
//! only when a call carries a sequence number no call on that shard
//! carried before, and record one [`Stamp`] for the whole newly seen range.
//! Inside a stamp the due instants are evenly spaced, so counts and
//! percentiles follow from arithmetic over the stamps instead of from
//! millions of stored samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Events `from..=to` were first carried to a decider `at_ns` nanoseconds
/// after the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub from: u64,
    pub to: u64,
    pub at_ns: u64,
}

impl Stamp {
    pub fn len(&self) -> u64 {
        self.to - self.from + 1
    }
}

/// Tracks the highest sequence number any decider call of one shard has
/// carried so far.
///
/// A shard drains its stream in order and decides every span of it for all
/// open windows of all queries before it moves on, so the events first seen
/// by a call are exactly those above the watermark. Events below the
/// watermark that no call carried belong to no open window and never get a
/// latency sample. Only the shard's drain thread writes the watermark, so
/// relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct FirstSeen {
    next: AtomicU64,
}

impl FirstSeen {
    /// Records a call carrying the consecutive events `lo..=hi`; returns the
    /// part of that range no earlier call carried, if any.
    pub fn claim(&self, lo: u64, hi: u64) -> Option<(u64, u64)> {
        let next = self.next.load(Ordering::Relaxed);
        if hi < next {
            return None;
        }
        self.next.store(hi + 1, Ordering::Relaxed);
        Some((lo.max(next), hi))
    }
}

/// The open-loop schedule: event `k` is due `k / rate` seconds after the
/// origin, and the schedule ends after `due_total` events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub rate: f64,
    pub due_total: u64,
}

impl Schedule {
    /// A schedule offering `rate` events/s for `seconds` seconds.
    pub fn new(rate: f64, seconds: u64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Schedule { rate, due_total: (rate * seconds as f64).round() as u64 }
    }

    /// Due instant of event `k`, in nanoseconds after the origin.
    pub fn due_ns(&self, k: u64) -> f64 {
        k as f64 * 1e9 / self.rate
    }

    /// The first event of `stamp` whose latency is at most `bound_ns`
    /// (later events of a stamp are due later, so they wait less).
    fn first_within(&self, stamp: &Stamp, bound_ns: f64) -> u64 {
        let earliest_due = stamp.at_ns as f64 - bound_ns;
        if earliest_due <= 0.0 {
            return stamp.from;
        }
        let k = (earliest_due * self.rate / 1e9).ceil();
        // `ceil` lands exactly on a boundary only up to rounding; step
        // back one event if its latency is still within the bound.
        let mut k = if k >= u64::MAX as f64 { u64::MAX } else { k as u64 };
        if k > 0 && stamp.at_ns as f64 - self.due_ns(k - 1) <= bound_ns {
            k -= 1;
        }
        k.max(stamp.from)
    }
}

/// The smallest rank whose sample is the `q`-quantile under the
/// nearest-rank rule (1-based).
pub fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `q`-quantile: at least ten
/// samples must lie beyond it.
pub fn supported(n: u64, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// The `q`-quantile of already sorted samples (nearest rank).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len() as u64, q) as usize - 1]
}

/// Per-event latencies of one run, in nanoseconds.
#[derive(Debug, Clone)]
pub enum Latencies {
    /// A paced run: every carried event, from its due instant on the
    /// schedule to its first decider call.
    Paced { schedule: Schedule, stamps: Vec<Stamp> },
    /// An unpaced run: a sample of events, from the instant the source
    /// offered each to its first decider call; sorted ascending.
    Sampled { sorted: Vec<f64> },
}

impl Latencies {
    /// Latencies of an unpaced run: `offered_ns[i]` is the offer instant of
    /// event `i * stride`.
    pub fn sampled(stamps: &[Stamp], offered_ns: &[u64], stride: u64) -> Self {
        let mut sorted = Vec::new();
        for stamp in stamps {
            let first = stamp.from.div_ceil(stride) * stride;
            let mut k = first;
            while k <= stamp.to {
                if let Some(&offered) = offered_ns.get((k / stride) as usize) {
                    sorted.push(stamp.at_ns as f64 - offered as f64);
                }
                k += stride;
            }
        }
        sorted.sort_by(f64::total_cmp);
        Latencies::Sampled { sorted }
    }

    /// Adds the samples of another sub-run over the same schedule, so
    /// percentiles cover the whole run. A stamp's latencies depend only on
    /// its own sub-run's origin, so paced stamps simply accumulate.
    pub fn absorb(&mut self, other: Latencies) {
        match (self, other) {
            (
                Latencies::Paced { schedule, stamps },
                Latencies::Paced { schedule: s, stamps: o },
            ) => {
                assert_eq!(*schedule, s, "sub-runs of one run share their schedule");
                stamps.extend(o);
            }
            (Latencies::Sampled { sorted }, Latencies::Sampled { sorted: o }) => {
                sorted.extend(o);
                sorted.sort_by(f64::total_cmp);
            }
            _ => panic!("paced and unpaced latencies do not mix"),
        }
    }

    /// Number of latency samples.
    pub fn count(&self) -> u64 {
        match self {
            Latencies::Paced { stamps, .. } => stamps.iter().map(Stamp::len).sum(),
            Latencies::Sampled { sorted } => sorted.len() as u64,
        }
    }

    /// Number of samples at most `bound_ns`.
    pub fn count_within(&self, bound_ns: f64) -> u64 {
        match self {
            Latencies::Paced { schedule, stamps } => stamps
                .iter()
                .map(|stamp| {
                    let first = schedule.first_within(stamp, bound_ns);
                    if first > stamp.to {
                        0
                    } else {
                        stamp.to - first + 1
                    }
                })
                .sum(),
            Latencies::Sampled { sorted } => {
                sorted.partition_point(|&latency| latency <= bound_ns) as u64
            }
        }
    }

    /// The `q`-quantile (nearest rank), or `None` when there are no
    /// samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        match self {
            Latencies::Sampled { sorted } => Some(quantile_sorted(sorted, q)),
            Latencies::Paced { schedule, stamps } => {
                // The smallest latency v with at least `rank` samples <= v,
                // found by bisection between the extreme latencies.
                let want = rank(n, q);
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for stamp in stamps {
                    lo = lo.min(stamp.at_ns as f64 - schedule.due_ns(stamp.to));
                    hi = hi.max(stamp.at_ns as f64 - schedule.due_ns(stamp.from));
                }
                lo -= 1.0;
                for _ in 0..200 {
                    if hi - lo <= 1e-3 {
                        break;
                    }
                    let mid = lo + (hi - lo) / 2.0;
                    if self.count_within(mid) >= want {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                Some(hi)
            }
        }
    }
}

/// What one run attempted and how much of it failed: every due event is an
/// attempt; one fails if it was never offered before the schedule ended,
/// if its latency exceeded the bound, or if an engine error lost it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    pub attempted: u64,
    pub undelivered: u64,
    pub over_bound: u64,
    pub lost: u64,
}

impl Failures {
    /// Accounts a run. `over_bound` counts carried events over the bound;
    /// on an engine error every offered event counts as lost.
    pub fn count(attempted: u64, offered: u64, over_bound: u64, engine_failed: bool) -> Self {
        let undelivered = attempted.saturating_sub(offered);
        let (over_bound, lost) = if engine_failed { (0, offered) } else { (over_bound, 0) };
        Failures { attempted, undelivered, over_bound, lost }
    }

    /// Adds another run's accounting to this one.
    pub fn add(&mut self, other: &Failures) {
        self.attempted += other.attempted;
        self.undelivered += other.undelivered;
        self.over_bound += other.over_bound;
        self.lost += other.lost;
    }

    pub fn failed(&self) -> u64 {
        (self.undelivered + self.over_bound + self.lost).min(self.attempted)
    }

    /// Share of attempts that met the bound.
    pub fn within_fraction(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed() as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert_eq!(rank(1000, 0.99), 990);
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
    }

    #[test]
    fn due_times_and_latencies_follow_the_schedule() {
        let schedule = Schedule::new(1000.0, 2);
        assert_eq!(schedule.due_total, 2000);
        assert_eq!(schedule.due_ns(0), 0.0);
        assert_eq!(schedule.due_ns(1000), 1e9);
        // Events 10..=19 (due 10..=19 ms) first carried at 25 ms wait
        // 15..=6 ms; event 30 carried at 30.5 ms waits 0.5 ms.
        let stamps = vec![
            Stamp { from: 10, to: 19, at_ns: 25_000_000 },
            Stamp { from: 30, to: 30, at_ns: 30_500_000 },
        ];
        let latencies = Latencies::Paced { schedule, stamps };
        assert_eq!(latencies.count(), 11);
        assert_eq!(latencies.count_within(0.5e6), 1);
        assert_eq!(latencies.count_within(6e6), 2);
        assert_eq!(latencies.count_within(10e6), 6);
        assert_eq!(latencies.count_within(15e6), 11);
        assert_eq!(latencies.count_within(0.4e6), 0);
        // Sorted samples: 0.5, 6, 7, ..., 15 ms; the median (rank 6) is 10 ms.
        let median = latencies.quantile(0.5).unwrap();
        assert!((median - 10e6).abs() < 1.0, "{median}");
        let max = latencies.quantile(1.0).unwrap();
        assert!((max - 15e6).abs() < 1.0, "{max}");
        let min = latencies.quantile(0.01).unwrap();
        assert!((min - 0.5e6).abs() < 1.0, "{min}");
    }

    #[test]
    fn paced_and_sampled_latencies_agree() {
        let schedule = Schedule::new(100.0, 1);
        let stamps = vec![
            Stamp { from: 0, to: 39, at_ns: 450_000_000 },
            Stamp { from: 40, to: 99, at_ns: 990_000_000 },
        ];
        let offered: Vec<u64> = (0..100).map(|k| schedule.due_ns(k) as u64).collect();
        let paced = Latencies::Paced { schedule, stamps: stamps.clone() };
        let sampled = Latencies::sampled(&stamps, &offered, 1);
        assert_eq!(paced.count(), sampled.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            let (a, b) = (paced.quantile(q).unwrap(), sampled.quantile(q).unwrap());
            assert!((a - b).abs() < 1.0, "q{q}: {a} vs {b}");
        }
        for bound in [0.0, 50e6, 300e6, 1e9] {
            assert_eq!(paced.count_within(bound), sampled.count_within(bound));
        }
    }

    #[test]
    fn absorbed_sub_runs_pool_their_samples() {
        // Two sub-runs of 10 events due at 1000/s, each with its own origin:
        // the first carries every event 5 ms late, the second 15 ms late.
        let schedule = Schedule::new(1000.0, 1);
        let late = |ms: u64| Latencies::Paced {
            schedule,
            stamps: (0..10)
                .map(|k| Stamp { from: k, to: k, at_ns: (k + ms) * 1_000_000 })
                .collect(),
        };
        let mut pooled = late(5);
        pooled.absorb(late(15));
        assert_eq!(pooled.count(), 20);
        assert_eq!(pooled.count_within(10e6), 10);
        assert!((pooled.quantile(0.5).unwrap() - 5e6).abs() < 1.0);
        assert!((pooled.quantile(0.55).unwrap() - 15e6).abs() < 1.0);

        let mut sampled = Latencies::Sampled { sorted: vec![1.0, 4.0, 9.0] };
        sampled.absorb(Latencies::Sampled { sorted: vec![2.0, 3.0] });
        assert_eq!(sampled.count(), 5);
        assert_eq!(sampled.quantile(0.5), Some(3.0));
        assert_eq!(sampled.quantile(1.0), Some(9.0));
    }

    #[test]
    fn sampled_latencies_use_every_stride_th_event() {
        let stamps =
            vec![Stamp { from: 0, to: 20, at_ns: 1000 }, Stamp { from: 21, to: 40, at_ns: 5000 }];
        let offered = vec![100, 200, 300];
        let latencies = Latencies::sampled(&stamps, &offered, 16);
        // Events 0 and 16 in the first stamp, 32 in the second.
        assert_eq!(latencies.count(), 3);
        assert_eq!(latencies.quantile(1.0), Some(4700.0));
        assert_eq!(latencies.quantile(0.0), Some(800.0));
    }

    #[test]
    fn first_seen_claims_each_event_once_across_overlapping_windows() {
        let seen = FirstSeen::default();
        // Window A carries 0..=63, then window B (opened earlier) the same
        // span: only the first call is new.
        assert_eq!(seen.claim(0, 63), Some((0, 63)));
        assert_eq!(seen.claim(0, 63), None);
        // A query whose windows closed mid-span carried 64..=99; a second
        // query carries the whole span 64..=127: only 100..=127 is new.
        assert_eq!(seen.claim(64, 99), Some((64, 99)));
        assert_eq!(seen.claim(64, 127), Some((100, 127)));
        // Events 128..=199 belong to no window; the next call starts at 200
        // and must not claim them.
        assert_eq!(seen.claim(200, 200), Some((200, 200)));
        assert_eq!(seen.claim(150, 200), None);
    }

    #[test]
    fn failures_count_undelivered_late_and_lost_events() {
        // A tiny run: 10 events due at 10/s; the source offered 8 before the
        // schedule ended; events 0..=3 were carried within the bound of
        // 150 ms, events 4..=7 late.
        let schedule = Schedule::new(10.0, 1);
        assert_eq!(schedule.due_total, 10);
        let stamps = vec![
            Stamp { from: 0, to: 3, at_ns: 400_000_000 },
            Stamp { from: 4, to: 7, at_ns: 1_200_000_000 },
        ];
        let latencies = Latencies::Paced { schedule, stamps };
        let over = latencies.count() - latencies.count_within(150e6);
        // Event 3 waits 100 ms, event 2 waits 200 ms: only 3 is within.
        assert_eq!(over, 7);
        let failures = Failures::count(schedule.due_total, 8, over, false);
        assert_eq!(failures, Failures { attempted: 10, undelivered: 2, over_bound: 7, lost: 0 });
        assert_eq!(failures.failed(), 9);
        assert!((failures.within_fraction() - 0.1).abs() < 1e-12);
        // An engine error loses every offered event.
        let failed = Failures::count(10, 8, over, true);
        assert_eq!(failed.failed(), 10);
        assert_eq!(failed.within_fraction(), 0.0);
    }
}
