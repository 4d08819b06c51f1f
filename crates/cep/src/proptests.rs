//! Property-based tests of the windowing and matching invariants.

use crate::reference::ReferenceOperator;
use crate::{
    CmpOp, ConsumptionPolicy, Decision, KeepAll, Matcher, Operator, Pattern, PatternStep,
    Predicate, Query, SelectionPolicy, ShardedEngine, SkipPolicy, WindowEntry, WindowEventDecider,
    WindowMeta, WindowSpec,
};
use espice_events::{
    AttributeValue, Event, EventSource, EventStream, EventType, SimDuration, SliceSource,
    Timestamp, VecStream,
};
use proptest::prelude::*;

/// A stateless, shard-invariant decider with non-trivial drops, used to
/// exercise the drop-set path of the ring storage.
#[derive(Debug, Clone, Copy)]
struct DropEveryThird;

impl WindowEventDecider for DropEveryThird {
    fn decide(&mut self, _meta: &WindowMeta, position: usize, _event: &Event) -> Decision {
        if position % 3 == 2 {
            Decision::Drop
        } else {
            Decision::Keep
        }
    }
}

/// The deciders the indexed-matching identity runs under: keep-all,
/// [`DropEveryThird`], and keep-all with a pSPICE partial-match budget
/// (whose store retro-drops evicted matches' events). All three are pure
/// functions of (window, position, event), so every shard count agrees.
#[derive(Debug, Clone, Copy)]
enum OracleDecider {
    KeepAll,
    DropEveryThird,
    PartialBudget(usize),
}

impl WindowEventDecider for OracleDecider {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        match self {
            OracleDecider::DropEveryThird => DropEveryThird.decide(meta, position, event),
            _ => Decision::Keep,
        }
    }

    fn partial_match_budget(&mut self, _meta: &WindowMeta) -> Option<usize> {
        match *self {
            OracleDecider::PartialBudget(budget) => Some(budget),
            _ => None,
        }
    }

    fn constituent_utility(&mut self, _meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        ((position * 31 + event.event_type().index()) % 7) as u8
    }
}

fn type_sequence(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..5, 1..max_len)
}

/// Chunk capacities for the ingestion sweeps: 1 ships single-event
/// chunks, the small primes land lifecycle positions and
/// stream ends mid-chunk (partial seals), 300 exceeds every generated
/// stream so the whole run travels as one partial flush.
fn chunk_capacities() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 7, 64, 300])
}

/// A paced source that stalls once, mid-stream, for longer than the
/// producer's partial-flush deadline — forcing a time-based partial-chunk
/// flush at a deterministic position.
struct StallingSource<S> {
    inner: S,
    stall_at: usize,
    delivered: usize,
}

impl<S: EventSource> EventSource for StallingSource<S> {
    fn next_event(&mut self) -> Option<Event> {
        if self.delivered == self.stall_at {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let event = self.inner.next_event()?;
        self.delivered += 1;
        Some(event)
    }

    fn is_paced(&self) -> bool {
        true
    }
}

fn entries_from(types: &[u32]) -> Vec<WindowEntry> {
    types
        .iter()
        .enumerate()
        .map(|(pos, &ty)| WindowEntry {
            position: pos,
            event: Event::new(
                EventType::from_index(ty),
                Timestamp::from_secs(pos as u64),
                pos as u64,
            ),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every constituent reported by the matcher is admissible for its pattern
    /// step, and first-selection constituents appear in window order.
    #[test]
    fn constituents_are_admissible_and_ordered(
        window in type_sequence(48),
        pattern_types in prop::collection::vec(0u32..5, 1..4),
        last in prop::bool::ANY,
    ) {
        let pattern = Pattern::sequence(pattern_types.iter().map(|&t| EventType::from_index(t)));
        let query = Query::builder()
            .pattern(pattern.clone())
            .window(WindowSpec::count_sliding(window.len().max(1), window.len().max(1)))
            .selection(if last { SelectionPolicy::Last } else { SelectionPolicy::First })
            .build();
        let matcher = Matcher::from_query(&query);
        let outcome = matcher.matches(0, &entries_from(&window));
        for complex in &outcome.complex_events {
            prop_assert_eq!(complex.len(), pattern.total_events());
            let positions: Vec<usize> = complex.constituents().iter().map(|c| c.position).collect();
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]));
            for (constituent, step) in complex.constituents().iter().zip(pattern.steps()) {
                prop_assert!(step.types().contains(&constituent.event_type));
            }
        }
    }

    /// Contiguous matching only ever reports adjacent constituents, and any
    /// contiguous match is also found under skip-till-next-match semantics.
    #[test]
    fn contiguous_matches_are_adjacent_and_a_subset_of_skip_matches(
        window in type_sequence(40),
        pattern_types in prop::collection::vec(0u32..5, 1..3),
    ) {
        let pattern = Pattern::sequence(pattern_types.iter().map(|&t| EventType::from_index(t)));
        let base = Query::builder()
            .pattern(pattern)
            .window(WindowSpec::count_sliding(window.len().max(1), window.len().max(1)));
        let contiguous = Matcher::from_query(&base.clone().skip(SkipPolicy::Contiguous).build());
        let skipping = Matcher::from_query(&base.skip(SkipPolicy::SkipTillNextMatch).build());
        let entries = entries_from(&window);
        let contiguous_matches = contiguous.matches(0, &entries).complex_events;
        for complex in &contiguous_matches {
            let positions: Vec<usize> = complex.constituents().iter().map(|c| c.position).collect();
            prop_assert!(positions.windows(2).all(|w| w[1] == w[0] + 1));
        }
        // A contiguous match implies the skipping matcher also finds a match.
        if !contiguous_matches.is_empty() {
            prop_assert!(!skipping.matches(0, &entries).complex_events.is_empty());
        }
    }

    /// Count-based windows always close with exactly the configured number of
    /// events as long as the stream is long enough.
    #[test]
    fn count_windows_have_exact_size(
        types in type_sequence(120),
        size in 2usize..20,
        slide in 1usize..10,
    ) {
        #[derive(Debug, Default)]
        struct SizeRecorder(Vec<usize>);
        impl crate::WindowEventDecider for SizeRecorder {
            fn decide(&mut self, _m: &crate::WindowMeta, _p: usize, _e: &Event) -> crate::Decision {
                crate::Decision::Keep
            }
            fn window_closed(&mut self, _m: &crate::WindowMeta, size: usize) {
                self.0.push(size);
            }
        }

        let query = Query::builder()
            .pattern(Pattern::new(vec![PatternStep::single(EventType::from_index(0))]))
            .window(WindowSpec::count_sliding(size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let mut recorder = SizeRecorder::default();
        let mut operator = Operator::new(query);
        // Process without flushing: only naturally closed windows count.
        for e in &events {
            let _ = operator.push(e, &mut recorder);
        }
        prop_assert!(recorder.0.iter().all(|&s| s == size), "window sizes {:?}", recorder.0);
    }

    /// For any keyed stream and shard count N ∈ {1, 2, 4}, the sharded
    /// engine emits exactly the complex events of a single operator — same
    /// window ids, constituents and order — and its merged statistics equal
    /// the single-operator statistics.
    #[test]
    fn sharded_engine_equals_single_operator(
        types in type_sequence(150),
        window_size in 2usize..16,
        open_type in 0u32..3,
    ) {
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_on_types(vec![EventType::from_index(open_type)], window_size))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);
        let mut single = Operator::new(query.clone());
        let expected = single.run(&stream, &mut KeepAll);
        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            let merged = engine.run_keep_all(&stream);
            prop_assert_eq!(&merged, &expected, "complex events diverged at {} shards", shards);
            let stats = engine.stats();
            prop_assert_eq!(&stats.merged, single.stats(), "stats diverged at {} shards", shards);
        }
    }

    /// Count-sliding windows shard just as losslessly as type-opened ones.
    #[test]
    fn sharded_engine_equals_single_operator_on_sliding_windows(
        types in type_sequence(120),
        size in 3usize..12,
        slide in 1usize..6,
    ) {
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);
        let mut single = Operator::new(query.clone());
        let expected = single.run(&stream, &mut KeepAll);
        for shards in [2usize, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            prop_assert_eq!(engine.run_keep_all(&stream), expected.clone());
            prop_assert_eq!(&engine.stats().merged, single.stats());
        }
    }

    /// High-overlap identity: with slide ≪ window, the ring-backed operator
    /// emits exactly the complex events and statistics of the seed
    /// per-window reference implementation — with and without drops, for
    /// N shards ∈ {1, 2, 4} — while storing each event once instead of once
    /// per overlapping window.
    #[test]
    fn ring_storage_equals_reference_per_window_storage(
        types in type_sequence(160),
        size in 4usize..24,
        slide in 1usize..4,
        shed in prop::bool::ANY,
    ) {
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        macro_rules! run_with_decider {
            ($runner:expr) => {
                if shed { $runner(&mut DropEveryThird) } else { $runner(&mut KeepAll) }
            };
        }

        let mut reference = ReferenceOperator::new(query.clone());
        let expected = run_with_decider!(|d: &mut dyn WindowEventDecider| reference.run(&stream, d));

        let mut ring_op = Operator::new(query.clone());
        let actual = run_with_decider!(|d: &mut dyn WindowEventDecider| ring_op.run(&stream, d));
        prop_assert_eq!(&actual, &expected);
        prop_assert_eq!(ring_op.stats(), reference.stats());
        // The ring stores each assigned event once (kept or dropped); the
        // reference stores every *kept* event once per window. At overlap
        // >= 2 with drop ratio <= 1/3 the ring always wins.
        if size / slide >= 2 {
            prop_assert!(ring_op.peak_resident_entries() <= reference.peak_resident_entries(),
                "ring peak {} vs reference peak {}",
                ring_op.peak_resident_entries(), reference.peak_resident_entries());
        }

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            let merged = if shed {
                let mut deciders = vec![DropEveryThird; shards];
                engine.run(&stream, &mut deciders)
            } else {
                engine.run_keep_all(&stream)
            };
            prop_assert_eq!(&merged, &expected, "diverged from reference at {} shards", shards);
            prop_assert_eq!(&engine.stats().merged, reference.stats());
        }
    }

    /// Indexed match-on-close identity: over random patterns (`any_of`
    /// steps, distinct or not, gated or not by an attribute predicate),
    /// every selection × consumption × skip policy, up to 3 matches per
    /// window, count, sliding and time windows, three deciders (keep-all,
    /// drop-every-third, a pSPICE partial-match budget) and N shards ∈
    /// {1, 2, 4}, the operator's per-step occurrence index emits exactly the
    /// complex events and statistics of the per-window scan in the seed
    /// reference engine — on the per-event path (`Operator::run`) and on the
    /// engine's chunked span path.
    #[test]
    fn indexed_matching_equals_reference_scan_for_every_policy(
        raw_steps in prop::collection::vec((1u32..32, 1usize..3, prop::bool::ANY, prop::bool::ANY), 1..4),
        policies in (0usize..2, 0usize..2, 0usize..2, 1usize..4),
        window in (0usize..4, 3usize..20, 1usize..5),
        decider in (0usize..3, 1usize..4),
        raw_events in prop::collection::vec((0u32..6, 0u64..3, 0u32..5), 1..120),
    ) {
        // Steps draw their types from 0..5 as a bit mask; type 5 is noise
        // no step references.
        let steps: Vec<PatternStep> = raw_steps
            .iter()
            .map(|&(mask, count, distinct, gated)| {
                let types: Vec<EventType> =
                    (0..5).filter(|t| mask & (1 << t) != 0).map(EventType::from_index).collect();
                let distinct = distinct && types.len() >= count;
                let step = PatternStep::any_of(types, count, distinct);
                if gated { step.with_predicate(Predicate::attr_cmp("v", CmpOp::Gt, 1.0)) } else { step }
            })
            .collect();
        let (selection, consumption, skip, max_matches) = policies;
        let (window_kind, size, slide) = window;
        let spec = match window_kind {
            0 => WindowSpec::count_sliding(size, slide),
            1 => WindowSpec::count_on_types(vec![EventType::from_index(0)], size),
            2 => WindowSpec::time_sliding(SimDuration::from_secs(size as u64), SimDuration::from_secs(slide as u64)),
            _ => WindowSpec::time_on_types(vec![EventType::from_index(0)], SimDuration::from_secs(size as u64)),
        };
        let query = Query::builder()
            .pattern(Pattern::new(steps))
            .window(spec)
            .selection([SelectionPolicy::First, SelectionPolicy::Last][selection])
            .consumption([ConsumptionPolicy::Consumed, ConsumptionPolicy::Zero][consumption])
            .skip([SkipPolicy::SkipTillNextMatch, SkipPolicy::Contiguous][skip])
            .max_matches_per_window(max_matches)
            .build();
        let mut now = 0u64;
        let events: Vec<Event> = raw_events
            .iter()
            .enumerate()
            .map(|(i, &(t, gap, v))| {
                now += gap;
                Event::builder(EventType::from_index(t), Timestamp::from_secs(now))
                    .seq(i as u64)
                    .attr("v", AttributeValue::from(v as f64))
                    .build()
            })
            .collect();
        let stream = VecStream::from_ordered(events);
        let decider = match decider {
            (0, _) => OracleDecider::KeepAll,
            (1, _) => OracleDecider::DropEveryThird,
            (_, budget) => OracleDecider::PartialBudget(budget),
        };

        let mut reference = ReferenceOperator::new(query.clone());
        let expected = reference.run(&stream, &mut decider.clone());
        let mut operator = Operator::new(query.clone());
        prop_assert_eq!(&operator.run(&stream, &mut decider.clone()), &expected);
        prop_assert_eq!(operator.stats(), reference.stats());
        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            let merged = engine.run(&stream, &mut vec![decider; shards]);
            prop_assert_eq!(&merged, &expected, "diverged from the scan at {} shards", shards);
            prop_assert_eq!(&engine.stats().merged, reference.stats());
        }
    }

    /// Streaming-ingestion identity: for any keyed stream, shard count
    /// N ∈ {1, 2, 4}, shedding on or off, any queue capacity — down to a
    /// capacity of 1, where the producer backpressures on *every*
    /// hand-off — and any chunk capacity (single-event chunks at 1,
    /// mid-stream partial seals at the primes, one whole-stream partial
    /// flush at 300), the stream-driven engine (`run_source` over shared
    /// chunks through bounded per-shard SPSC queues) emits byte-identical
    /// complex events and merged statistics to a slice-driven
    /// single-operator run.
    #[test]
    fn streaming_engine_equals_slice_engine(
        types in type_sequence(150),
        window_size in 2usize..16,
        slide in 1usize..6,
        shed in prop::bool::ANY,
        tiny_queues in prop::bool::ANY,
        chunk_capacity in chunk_capacities(),
    ) {
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut single = Operator::new(query.clone());
        let expected = if shed {
            single.run(&stream, &mut DropEveryThird)
        } else {
            single.run(&stream, &mut KeepAll)
        };

        // Capacity 1 forces a full-queue producer stall on every push (the
        // backpressure case); the larger capacity exercises the common path.
        let capacity = if tiny_queues { 1 } else { 64 };
        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            engine.set_queue_capacity(capacity);
            engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let merged = if shed {
                let mut deciders = vec![DropEveryThird; shards];
                engine.run_source(&mut source, &mut deciders)
            } else {
                let mut deciders = vec![KeepAll; shards];
                engine.run_source(&mut source, &mut deciders)
            };
            prop_assert_eq!(&merged, &expected,
                "streaming diverged at {} shards, capacity {}, chunk {}",
                shards, capacity, chunk_capacity);
            prop_assert_eq!(&engine.stats().merged, single.stats(),
                "stats diverged at {} shards, capacity {}, chunk {}",
                shards, capacity, chunk_capacity);
            for queue in engine.queue_stats() {
                // `pushed` counts events regardless of batching; slot
                // occupancy stays bounded by the configured capacity.
                prop_assert_eq!(queue.pushed, stream.len() as u64);
                prop_assert!(queue.peak_depth <= capacity);
            }
        }
    }

    /// Paced partial flushes preserve identity: a wall-clock source that
    /// stalls mid-chunk for longer than the flush deadline makes the
    /// producer seal and ship a partial chunk early — the output must
    /// still be byte-identical to the slice run, with every event
    /// accounted for exactly once.
    #[test]
    fn paced_partial_chunk_flushes_preserve_identity(
        types in type_sequence(120),
        window_size in 2usize..12,
        slide in 1usize..5,
        stall_frac in 0.0f64..1.0,
        shed in prop::bool::ANY,
    ) {
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut single = Operator::new(query.clone());
        let expected = if shed {
            single.run(&stream, &mut DropEveryThird)
        } else {
            single.run(&stream, &mut KeepAll)
        };

        let stall_at = (stream.len() as f64 * stall_frac) as usize;
        for shards in [1usize, 2] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            // A chunk larger than the stream: without the deadline flush
            // nothing would ship until the trailing seal.
            engine.set_chunk_capacity(256);
            let mut source = StallingSource {
                inner: SliceSource::from_stream(&stream),
                stall_at,
                delivered: 0,
            };
            let merged = if shed {
                let mut deciders = vec![DropEveryThird; shards];
                engine.run_source(&mut source, &mut deciders)
            } else {
                let mut deciders = vec![KeepAll; shards];
                engine.run_source(&mut source, &mut deciders)
            };
            prop_assert_eq!(&merged, &expected,
                "paced flush diverged at {} shards, stall at {}", shards, stall_at);
            prop_assert_eq!(&engine.stats().merged, single.stats());
            for queue in engine.queue_stats() {
                prop_assert_eq!(queue.pushed, stream.len() as u64);
            }
        }
    }

    /// The fused multi-query engine is output- and stats-identical, per
    /// query, to independent single-query engines over the same stream:
    /// for random mixes of type-opened and sliding windows, shard counts
    /// N ∈ {1, 2, 4}, both backends (slice scan and bounded-queue
    /// streaming) and both with and without a deterministic dropper in the
    /// loop. One ingestion pipeline, N queries — same bytes out.
    #[test]
    fn fused_multi_query_equals_independent_engines(
        types in type_sequence(140),
        sizes in prop::collection::vec(2usize..14, 2..4),
        slide in 1usize..5,
        open_type in 0u32..3,
        shed in prop::bool::ANY,
        streaming in prop::bool::ANY,
    ) {
        // A mix of shared and distinct open policies: even-indexed queries
        // open on `open_type`, odd-indexed ones slide by `slide`.
        let queries: Vec<Query> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let window = if i % 2 == 0 {
                    WindowSpec::count_on_types(vec![EventType::from_index(open_type)], size)
                } else {
                    WindowSpec::count_sliding(size, slide)
                };
                Query::builder()
                    .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
                    .window(window)
                    .build()
            })
            .collect();
        let set = crate::QuerySet::new(queries.clone());
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        for shards in [1usize, 2, 4] {
            let mut fused = ShardedEngine::for_queries(set.clone(), shards);
            let decider_count = shards * set.len();
            let per_query = if streaming {
                let mut source = SliceSource::from_stream(&stream);
                if shed {
                    let mut deciders = vec![DropEveryThird; decider_count];
                    fused.run_source_per_query(&mut source, &mut deciders)
                } else {
                    let mut deciders = vec![KeepAll; decider_count];
                    fused.run_source_per_query(&mut source, &mut deciders)
                }
            } else if shed {
                let mut deciders = vec![DropEveryThird; decider_count];
                fused.run_slice_per_query(&stream, &mut deciders)
            } else {
                let mut deciders = vec![KeepAll; decider_count];
                fused.run_slice_per_query(&stream, &mut deciders)
            };
            let fused_stats = fused.stats();

            for (id, query) in set.iter() {
                let mut solo = ShardedEngine::new(query.clone(), shards);
                let expected = if shed {
                    let mut deciders = vec![DropEveryThird; shards];
                    solo.run_slice(&stream, &mut deciders)
                } else {
                    let mut deciders = vec![KeepAll; shards];
                    solo.run_slice(&stream, &mut deciders)
                };
                prop_assert_eq!(
                    &per_query[id as usize], &expected,
                    "query {} complex events diverged at {} shards (shed={}, streaming={})",
                    id, shards, shed, streaming
                );
                prop_assert_eq!(
                    &fused_stats.per_query[id as usize], &solo.stats().merged,
                    "query {} stats diverged at {} shards (shed={}, streaming={})",
                    id, shards, shed, streaming
                );
            }
        }
    }

    /// Lifecycle churn identity: a query admitted at event `k` and never
    /// retired produces byte-identical complex events and statistics to a
    /// fresh static engine over `events[k..]`, while retiring another
    /// query mid-run leaves the surviving query's output untouched — for
    /// shard counts {1, 2, 4}, shedding on and off, on both the slice and
    /// the streaming lifecycle backends. The retired query's output is a
    /// drained prefix of its static full-stream output (windows opened
    /// before the retirement, fed to completion). The streaming backend is
    /// additionally swept across chunk capacities: the in-band commands
    /// must land at their exact positions whether the boundary seal splits
    /// a chunk mid-fill or the whole stream rides in one partial flush.
    #[test]
    fn lifecycle_churn_is_pinned_against_static_engine_oracles(
        types in type_sequence(140),
        survivor_size in 2usize..12,
        retired_size in 3usize..14,
        admitted_size in 2usize..12,
        slide in 1usize..5,
        admit_frac in 0.1f64..0.9,
        retire_frac in 0.1f64..0.9,
        shed in prop::bool::ANY,
        streaming in prop::bool::ANY,
        chunk_capacity in chunk_capacities(),
    ) {
        let retired_query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(retired_size, slide))
            .build();
        let survivor_query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_on_types(vec![EventType::from_index(0)], survivor_size))
            .build();
        let admitted_query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(admitted_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);
        let admit_at = ((stream.len() as f64 * admit_frac) as u64).min(stream.len() as u64 - 1);
        let retire_at = ((stream.len() as f64 * retire_frac) as u64).min(stream.len() as u64 - 1);
        let suffix = VecStream::from_ordered(stream.events()[admit_at as usize..].to_vec());

        let set = crate::QuerySet::new(vec![retired_query.clone(), survivor_query.clone()]);
        let boxed = |shed: bool| -> crate::BoxedDecider {
            if shed { Box::new(DropEveryThird) } else { Box::new(KeepAll) }
        };

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::for_queries(set.clone(), shards);
            engine.set_chunk_capacity(chunk_capacity);
            let control = engine.control();
            let handle = engine.query_handle(0).expect("slot 0 starts live");
            control.retire_at(retire_at, handle);
            let admitted_handle = control.admit_at(
                admit_at,
                admitted_query.clone(),
                (0..shards).map(|_| boxed(shed)).collect(),
            );
            prop_assert_eq!(admitted_handle.slot, 2);

            let initial: Vec<crate::BoxedDecider> =
                (0..shards * set.len()).map(|_| boxed(shed)).collect();
            let outcome = if streaming {
                let mut source = SliceSource::from_stream(&stream);
                engine.run_source_live(&mut source, initial)
            } else {
                engine.run_slice_live(&stream, initial)
            };
            prop_assert_eq!(outcome.complex_events.len(), 3);
            prop_assert_eq!(outcome.lifecycle.admitted.len(), 1);
            prop_assert_eq!(outcome.lifecycle.retired.len(), 1);
            prop_assert_eq!(outcome.lifecycle.rejected, 0);
            let stats = engine.stats();

            // Admitted query: byte-identical to a fresh static engine over
            // the suffix — complex events and statistics.
            let mut fresh = ShardedEngine::new(admitted_query.clone(), shards);
            let expected_admitted = if shed {
                let mut deciders = vec![DropEveryThird; shards];
                fresh.run_slice(&suffix, &mut deciders)
            } else {
                let mut deciders = vec![KeepAll; shards];
                fresh.run_slice(&suffix, &mut deciders)
            };
            prop_assert_eq!(&outcome.complex_events[2], &expected_admitted,
                "admitted query diverged at {} shards (shed={}, streaming={}, k={})",
                shards, shed, streaming, admit_at);
            prop_assert_eq!(&stats.per_query[2], &fresh.stats().merged,
                "admitted stats diverged at {} shards", shards);

            // Survivor: untouched by both the retirement and the admission.
            let mut solo = ShardedEngine::new(survivor_query.clone(), shards);
            let expected_survivor = if shed {
                let mut deciders = vec![DropEveryThird; shards];
                solo.run_slice(&stream, &mut deciders)
            } else {
                let mut deciders = vec![KeepAll; shards];
                solo.run_slice(&stream, &mut deciders)
            };
            prop_assert_eq!(&outcome.complex_events[1], &expected_survivor,
                "survivor diverged at {} shards (shed={}, streaming={})",
                shards, shed, streaming);
            prop_assert_eq!(&stats.per_query[1], &solo.stats().merged);

            // Retired query: a prefix of its static output (window-id
            // ordered; windows opened before the retirement drained to
            // completion, none opened after).
            let mut full = ShardedEngine::new(retired_query.clone(), shards);
            let expected_full = if shed {
                let mut deciders = vec![DropEveryThird; shards];
                full.run_slice(&stream, &mut deciders)
            } else {
                let mut deciders = vec![KeepAll; shards];
                full.run_slice(&stream, &mut deciders)
            };
            let retired = &outcome.complex_events[0];
            prop_assert!(retired.len() <= expected_full.len());
            prop_assert_eq!(retired.as_slice(), &expected_full[..retired.len()],
                "retired output is not a drained prefix at {} shards", shards);

            // The retired slot's deciders were torn down on every shard;
            // the others survived.
            for row in &outcome.deciders {
                prop_assert!(row[0].is_none());
                prop_assert!(row[1].is_some() && row[2].is_some());
            }
        }
    }

    /// Running the operator twice over the same stream produces identical
    /// complex events (the engine is deterministic).
    #[test]
    fn operator_runs_are_deterministic(types in type_sequence(100)) {
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_on_types(vec![EventType::from_index(0)], 12))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);
        let a = Operator::new(query.clone()).run(&stream, &mut KeepAll);
        let b = Operator::new(query).run(&stream, &mut KeepAll);
        prop_assert_eq!(a, b);
    }
}

/// A decider whose keep/drop choice is a pure function of
/// `(window id, position)` — so a pristine clone replays the exact
/// decisions of a crashed shard incarnation — while its counters
/// accumulate history, so comparing deciders end-to-end proves a recovery
/// restored decider state, not just emissions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParityShed {
    modulo: u64,
    kept: u64,
    dropped: u64,
}

impl ParityShed {
    fn new(shed: bool) -> Self {
        // A huge modulo makes drops vanishingly rare: the "shedding off"
        // arm of the sweeps, with the same code path and counters.
        ParityShed { modulo: if shed { 3 } else { 1_000_000_007 }, kept: 0, dropped: 0 }
    }
}

impl WindowEventDecider for ParityShed {
    fn decide(&mut self, meta: &WindowMeta, position: usize, _event: &Event) -> Decision {
        if (meta.id + position as u64).is_multiple_of(self.modulo) {
            self.dropped += 1;
            Decision::Drop
        } else {
            self.kept += 1;
            Decision::Keep
        }
    }
}

fn events_from(types: &[u32]) -> VecStream {
    VecStream::from_ordered(
        types
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64)
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chaos sweep: for seeded fault plans (shard panics at arbitrary
    /// chunk boundaries, short stalls), shard counts N ∈ {1, 2, 4}, chunk
    /// capacities {1, 7, 64} and shedding on or off, a crashed-and-
    /// recovered resilient run emits **byte-identical** complex events,
    /// merged statistics and final decider state to a fault-free run —
    /// which itself matches the non-resilient streaming path.
    #[test]
    fn chaos_recovery_is_byte_identical(
        types in type_sequence(150),
        window_size in 2usize..16,
        slide in 1usize..6,
        shed in prop::bool::ANY,
        chunk_capacity in prop::sample::select(vec![1usize, 7, 64]),
        seed in 0u64..u64::MAX,
    ) {
        use crate::{FaultKind, FaultPlan, ResilienceOptions, ShardStatus};

        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let stream = events_from(&types);

        for shards in [1usize, 2, 4] {
            // Fault-free oracle on the resilient path, cross-checked
            // against the legacy streaming entry point.
            let mut legacy_engine = ShardedEngine::new(query.clone(), shards);
            legacy_engine.set_chunk_capacity(chunk_capacity);
            let mut legacy_deciders = vec![ParityShed::new(shed); shards];
            let mut source = SliceSource::from_stream(&stream);
            let legacy = legacy_engine.run_source_per_query(&mut source, &mut legacy_deciders);

            let mut oracle_engine = ShardedEngine::new(query.clone(), shards);
            oracle_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let oracle = oracle_engine
                .run_source_resilient(
                    &mut source,
                    vec![ParityShed::new(shed); shards],
                    &ResilienceOptions::default(),
                )
                .unwrap();
            prop_assert_eq!(&oracle.complex_events, &legacy,
                "fault-free resilient run diverged from the streaming path at {} shards", shards);

            // Seeded faults; producer kills change the delivered stream
            // and have their own prefix-identity property below.
            let mut plan = FaultPlan::new();
            for fault in FaultPlan::seeded(seed, shards, stream.len() as u64, chunk_capacity)
                .faults()
            {
                if !matches!(fault, FaultKind::KillProducer { .. }) {
                    plan = plan.with(fault.clone());
                }
            }
            let options = ResilienceOptions { fault_plan: Some(plan), ..Default::default() };
            let mut chaos_engine = ShardedEngine::new(query.clone(), shards);
            chaos_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let report = chaos_engine
                .run_source_resilient(&mut source, vec![ParityShed::new(shed); shards], &options)
                .unwrap();

            prop_assert_eq!(&report.complex_events, &oracle.complex_events,
                "recovered output diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            prop_assert_eq!(&report.deciders, &oracle.deciders,
                "recovered decider state diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            prop_assert_eq!(chaos_engine.stats().merged, oracle_engine.stats().merged,
                "recovered stats diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            for status in &report.shard_status {
                prop_assert!(!matches!(status, ShardStatus::Failed(_)),
                    "no shard may exhaust its restart budget under a seeded plan: {:?}", status);
            }
        }
    }

    /// A producer kill delivers exactly the longest sealed-chunk prefix:
    /// the run's output equals a fault-free run over
    /// `after_events - (after_events % chunk_capacity)` events.
    #[test]
    fn chaos_producer_kill_delivers_sealed_prefix(
        types in type_sequence(120),
        window_size in 2usize..12,
        slide in 1usize..5,
        shed in prop::bool::ANY,
        chunk_capacity in prop::sample::select(vec![1usize, 7, 64]),
        kill_frac in 0.0f64..1.0,
    ) {
        use crate::{FaultKind, FaultPlan, ResilienceOptions};

        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let stream = events_from(&types);
        let kill_after = (stream.len() as f64 * kill_frac) as u64;
        let prefix_len = (kill_after - kill_after % chunk_capacity as u64) as usize;
        let prefix = VecStream::from_ordered(stream.events()[..prefix_len].to_vec());

        for shards in [1usize, 2] {
            let mut oracle_engine = ShardedEngine::new(query.clone(), shards);
            oracle_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&prefix);
            let oracle = oracle_engine
                .run_source_resilient(
                    &mut source,
                    vec![ParityShed::new(shed); shards],
                    &ResilienceOptions::default(),
                )
                .unwrap();

            let plan = FaultPlan::new().with(FaultKind::KillProducer { after_events: kill_after });
            let options = ResilienceOptions { fault_plan: Some(plan), ..Default::default() };
            let mut killed_engine = ShardedEngine::new(query.clone(), shards);
            killed_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let report = killed_engine
                .run_source_resilient(&mut source, vec![ParityShed::new(shed); shards], &options)
                .unwrap();

            prop_assert_eq!(&report.complex_events, &oracle.complex_events,
                "killed producer diverged from sealed prefix of {} events at {} shards",
                prefix_len, shards);
            prop_assert_eq!(&report.deciders, &oracle.deciders);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work stealing is output-invariant: routing window ownership through
    /// the [`WindowBalancer`](crate::WindowBalancer) instead of the static
    /// modulo emits **byte-identical** complex events, merged statistics
    /// and aggregate shedder counters — for count- and time-based windows,
    /// shards {1, 2, 4}, shedding on and off, and every chunk capacity of
    /// the ingestion sweep. The partition may differ per shard; the union
    /// never does.
    #[test]
    fn work_stealing_equals_static_modulo(
        types in type_sequence(150),
        window_size in 2usize..16,
        slide in 1usize..6,
        time_windows in prop::bool::ANY,
        shed in prop::bool::ANY,
        chunk_capacity in chunk_capacities(),
    ) {
        use crate::OwnershipPolicy;
        use espice_events::SimDuration;

        let window = if time_windows {
            WindowSpec::time_on_types(
                vec![EventType::from_index(0)],
                SimDuration::from_secs(window_size as u64),
            )
        } else {
            WindowSpec::count_sliding(window_size, slide)
        };
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(window)
            .build();
        let stream = events_from(&types);

        let totals = |deciders: &[ParityShed]| -> (u64, u64) {
            (deciders.iter().map(|d| d.kept).sum(), deciders.iter().map(|d| d.dropped).sum())
        };

        for shards in [1usize, 2, 4] {
            let mut fixed_engine = ShardedEngine::new(query.clone(), shards);
            fixed_engine.set_chunk_capacity(chunk_capacity);
            let mut fixed_deciders = vec![ParityShed::new(shed); shards];
            let mut source = SliceSource::from_stream(&stream);
            let fixed = fixed_engine.run_source(&mut source, &mut fixed_deciders);

            let mut steal_engine = ShardedEngine::new(query.clone(), shards);
            steal_engine.set_ownership_policy(OwnershipPolicy::StealAtOpen);
            steal_engine.set_chunk_capacity(chunk_capacity);
            let mut steal_deciders = vec![ParityShed::new(shed); shards];
            let mut source = SliceSource::from_stream(&stream);
            let stolen = steal_engine.run_source(&mut source, &mut steal_deciders);

            prop_assert_eq!(&stolen, &fixed,
                "stolen output diverged at {} shards, chunk {} (shed={}, time={})",
                shards, chunk_capacity, shed, time_windows);
            prop_assert_eq!(steal_engine.stats().merged, fixed_engine.stats().merged,
                "stolen stats diverged at {} shards, chunk {}", shards, chunk_capacity);
            // Every (window, position) pair is decided exactly once
            // *somewhere*: the per-shard split moves, the sum cannot.
            prop_assert_eq!(totals(&steal_deciders), totals(&fixed_deciders),
                "aggregate shedder counters diverged at {} shards", shards);
            // One shard owns everything either way.
            if shards == 1 {
                prop_assert_eq!(steal_engine.stolen_windows(), 0);
            }
        }
    }

    /// Work stealing on the fused multi-query path: identical per-query
    /// complex events and per-query statistics, query sets with mixed open
    /// policies, lifecycle churn included (a retirement and a mid-stream
    /// admission must route their windows identically under both
    /// ownership policies).
    #[test]
    fn work_stealing_is_invariant_under_multi_query_churn(
        types in type_sequence(140),
        retired_size in 3usize..14,
        survivor_size in 2usize..12,
        admitted_size in 2usize..12,
        slide in 1usize..5,
        admit_frac in 0.1f64..0.9,
        retire_frac in 0.1f64..0.9,
        shed in prop::bool::ANY,
        chunk_capacity in chunk_capacities(),
    ) {
        use crate::OwnershipPolicy;

        let retired_query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(retired_size, slide))
            .build();
        let survivor_query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_on_types(vec![EventType::from_index(0)], survivor_size))
            .build();
        let admitted_query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(admitted_size, slide))
            .build();
        let stream = events_from(&types);
        let admit_at = ((stream.len() as f64 * admit_frac) as u64).min(stream.len() as u64 - 1);
        let retire_at = ((stream.len() as f64 * retire_frac) as u64).min(stream.len() as u64 - 1);
        let set = crate::QuerySet::new(vec![retired_query, survivor_query]);
        let boxed = |shed: bool| -> crate::BoxedDecider {
            if shed { Box::new(DropEveryThird) } else { Box::new(KeepAll) }
        };

        for shards in [2usize, 4] {
            let mut runs = Vec::new();
            for steal in [false, true] {
                let mut engine = ShardedEngine::for_queries(set.clone(), shards);
                if steal {
                    engine.set_ownership_policy(OwnershipPolicy::StealAtOpen);
                }
                engine.set_chunk_capacity(chunk_capacity);
                let control = engine.control();
                let handle = engine.query_handle(0).expect("slot 0 starts live");
                control.retire_at(retire_at, handle);
                control.admit_at(
                    admit_at,
                    admitted_query.clone(),
                    (0..shards).map(|_| boxed(shed)).collect(),
                );
                let initial: Vec<crate::BoxedDecider> =
                    (0..shards * set.len()).map(|_| boxed(shed)).collect();
                let mut source = SliceSource::from_stream(&stream);
                let outcome = engine.run_source_live(&mut source, initial);
                runs.push((outcome.complex_events, engine.stats()));
            }
            let (fixed_events, fixed_stats) = &runs[0];
            let (stolen_events, stolen_stats) = &runs[1];
            prop_assert_eq!(stolen_events, fixed_events,
                "churned stolen output diverged at {} shards, chunk {} (shed={})",
                shards, chunk_capacity, shed);
            prop_assert_eq!(&stolen_stats.per_query, &fixed_stats.per_query,
                "churned per-query stats diverged at {} shards", shards);
            prop_assert_eq!(&stolen_stats.merged, &fixed_stats.merged);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chaos × work stealing: a shard that crashes while owning *stolen*
    /// windows recovers byte-identically — the checkpointed ownership
    /// table makes the replacement re-derive the exact same (possibly
    /// stolen) ownership for every replayed open.
    #[test]
    fn chaos_recovery_with_work_stealing_is_byte_identical(
        types in type_sequence(150),
        window_size in 2usize..16,
        slide in 1usize..6,
        shed in prop::bool::ANY,
        chunk_capacity in prop::sample::select(vec![1usize, 7, 64]),
        seed in 0u64..u64::MAX,
    ) {
        use crate::{FaultKind, FaultPlan, OwnershipPolicy, ResilienceOptions, ShardStatus};

        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let stream = events_from(&types);

        for shards in [2usize, 4] {
            // Fault-free stealing oracle, itself pinned against the static
            // partition (both fault-free).
            let mut fixed_engine = ShardedEngine::new(query.clone(), shards);
            fixed_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let fixed = fixed_engine
                .run_source_resilient(
                    &mut source,
                    vec![ParityShed::new(shed); shards],
                    &ResilienceOptions::default(),
                )
                .unwrap();

            let mut oracle_engine = ShardedEngine::new(query.clone(), shards);
            oracle_engine.set_ownership_policy(OwnershipPolicy::StealAtOpen);
            oracle_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let oracle = oracle_engine
                .run_source_resilient(
                    &mut source,
                    vec![ParityShed::new(shed); shards],
                    &ResilienceOptions::default(),
                )
                .unwrap();
            prop_assert_eq!(&oracle.complex_events, &fixed.complex_events,
                "fault-free stealing diverged from static at {} shards", shards);

            let mut plan = FaultPlan::new();
            for fault in FaultPlan::seeded(seed, shards, stream.len() as u64, chunk_capacity)
                .faults()
            {
                if !matches!(fault, FaultKind::KillProducer { .. }) {
                    plan = plan.with(fault.clone());
                }
            }
            let options = ResilienceOptions { fault_plan: Some(plan), ..Default::default() };
            let mut chaos_engine = ShardedEngine::new(query.clone(), shards);
            chaos_engine.set_ownership_policy(OwnershipPolicy::StealAtOpen);
            chaos_engine.set_chunk_capacity(chunk_capacity);
            let mut source = SliceSource::from_stream(&stream);
            let report = chaos_engine
                .run_source_resilient(&mut source, vec![ParityShed::new(shed); shards], &options)
                .unwrap();

            prop_assert_eq!(&report.complex_events, &oracle.complex_events,
                "recovered stolen output diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            prop_assert_eq!(&report.deciders, &oracle.deciders,
                "recovered decider state diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            prop_assert_eq!(chaos_engine.stats().merged, oracle_engine.stats().merged,
                "recovered stats diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            for status in &report.shard_status {
                prop_assert!(!matches!(status, ShardStatus::Failed(_)),
                    "no shard may exhaust its restart budget under a seeded plan: {:?}", status);
            }
        }
    }
}

proptest! {
    // Stall detection burns its deadline per case; a handful of sweeps
    // over shard/position placement is enough on top of the deterministic
    // unit test.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A wedged shard yields `EngineError::Stalled` naming that shard
    /// within the configured deadline, instead of hanging the producer.
    #[test]
    fn chaos_stall_is_detected_within_deadline(
        types in type_sequence(150),
        shards in prop::sample::select(vec![1usize, 2, 4]),
        chunk_capacity in prop::sample::select(vec![1usize, 7, 64]),
        stall_seed in 0u64..u64::MAX,
    ) {
        use crate::{EngineError, FaultKind, FaultPlan, ResilienceOptions};
        use std::time::{Duration, Instant};

        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(8, 3))
            .build();
        let stream = events_from(&types);
        let boundaries = (stream.len() / chunk_capacity).max(1) as u64;
        let shard = (stall_seed % shards as u64) as usize;
        let at_position = (stall_seed.wrapping_mul(0x9E37_79B9) % boundaries)
            * chunk_capacity as u64;
        let plan = FaultPlan::new()
            .with(FaultKind::StallShard { shard, at_position, millis: 60_000 });
        let options = ResilienceOptions {
            stall_deadline: Some(Duration::from_millis(150)),
            fault_plan: Some(plan),
            ..Default::default()
        };
        let mut engine = ShardedEngine::new(query, shards);
        engine.set_chunk_capacity(chunk_capacity);
        let mut source = SliceSource::from_stream(&stream);
        let started = Instant::now();
        let result = engine.run_source_resilient(
            &mut source,
            vec![ParityShed::new(true); shards],
            &options,
        );
        let elapsed = started.elapsed();
        match result {
            Err(EngineError::Stalled { shard: stalled, .. }) => {
                prop_assert_eq!(stalled, shard, "watchdog blamed the wrong shard");
            }
            other => prop_assert!(false, "expected Stalled, got {:?}", other.is_ok()),
        }
        prop_assert!(elapsed < Duration::from_secs(30),
            "stall detection took {:?} against a 150ms deadline", elapsed);
    }
}

/// A panic injected into the *live* (lifecycle) path mid-churn is contained
/// as a typed `ShardsFailed` value — survivors drain, nothing unwinds
/// through the caller — satisfying the containment guarantee on the one
/// path that has no replay recovery yet.
#[test]
fn live_path_contains_injected_panic_during_churn() {
    use crate::{EngineError, FaultKind, FaultPlan};

    let base = Query::builder()
        .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
        .window(WindowSpec::count_sliding(8, 3))
        .build();
    let admitted = Query::builder()
        .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
        .window(WindowSpec::count_sliding(5, 2))
        .build();
    let types: Vec<u32> = (0..200).map(|i| (i % 3 % 2) as u32).collect();
    let stream = events_from(&types);

    let shards = 2;
    let mut engine = ShardedEngine::for_queries(crate::QuerySet::single(base), shards);
    // Per-event hand-off: every stream position is a hand-off boundary,
    // so the injected position fires regardless of how the mid-stream
    // admission re-aligns chunk framing.
    engine.set_chunk_capacity(1);
    engine.set_fault_plan(Some(
        FaultPlan::new().with(FaultKind::PanicShard { shard: 1, at_position: 70 }),
    ));
    let control = engine.control();
    control.admit_at(
        40,
        admitted,
        (0..shards).map(|_| Box::new(KeepAll) as crate::BoxedDecider).collect(),
    );
    let initial: Vec<crate::BoxedDecider> =
        (0..shards).map(|_| Box::new(KeepAll) as crate::BoxedDecider).collect();
    let mut source = SliceSource::from_stream(&stream);
    match engine.try_run_source_live(&mut source, initial) {
        Err(EngineError::ShardsFailed { failures }) => {
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, 1);
            assert!(
                failures[0].message.contains("injected fault: shard 1"),
                "unexpected failure message: {}",
                failures[0].message
            );
        }
        Err(other) => panic!("expected ShardsFailed, got {other:?}"),
        Ok(_) => panic!("the injected panic was silently swallowed"),
    }
}
