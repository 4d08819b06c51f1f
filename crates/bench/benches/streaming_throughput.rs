//! Streaming-ingestion benchmark: slice backend vs the stream-driven
//! backend, single-event chunks vs batched shared-arena chunks.
//!
//! Like `sharded_throughput` this is a plain `main` (`harness = false`)
//! that also *records* its results: a JSON report is written to
//! `BENCH_stream.json` at the repository root.
//!
//! What it measures, per shard count:
//!
//! * **slice backend** — `ShardedEngine::run_slice`: every shard scans the
//!   materialised slice; the baseline the streaming pipeline is compared
//!   against.
//! * **broadcast backend** — `ShardedEngine::run_source` at chunk
//!   capacity 1 across queue capacities {16, 256, 1024, 4096}: the
//!   producer seals every event into its own single-event chunk and pushes
//!   one `Arc` per event into every shard's bounded queue. Small capacities
//!   maximise backpressure stalls; large ones amortise the hand-off.
//! * **chunked backend** — `run_source` with the shared-arena hand-off at
//!   chunk capacities {16, 64, 256, 1024}, queue slots scaled so every
//!   configuration buffers the *same* 4096 events as the largest
//!   broadcast row. Each chunk is appended once and shipped as one
//!   `Arc` per shard, so the per-event seal + push/pop disappears;
//!   `chunked_over_broadcast` is the same-process rate ratio against the
//!   best broadcast configuration at the same shard count — a
//!   hardware-independent ratio the CI regression check gates.
//!
//! On a single-core host the producer and the drain threads time-share
//! the core, so streaming wall-clock trails the slice scan by the
//! hand-off cost; the backpressure counters document that bounded
//! queues, not unbounded buffering, carried the stream.

use espice_cep::{KeepAll, Operator, Pattern, Query, ShardedEngine, WindowSpec};
use espice_events::{Event, EventStream, EventType, SliceSource, Timestamp, VecStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The `sharded_throughput` workload: type 0 opens a 600-event window every
/// ~30 events, so every event belongs to ~20 windows.
fn workload(events: usize, types: usize) -> (Query, VecStream) {
    let mut rng = StdRng::seed_from_u64(17);
    let stream = VecStream::from_ordered(
        (0..events as u64)
            .map(|i| {
                let ty = if i % 30 == 0 { 0 } else { rng.gen_range(1..types) as u32 };
                Event::new(EventType::from_index(ty), Timestamp::from_millis(i), i)
            })
            .collect(),
    );
    let pattern = Pattern::sequence((0..5).map(|i| EventType::from_index(i as u32)));
    let query = Query::builder()
        .pattern(pattern)
        .window(WindowSpec::count_on_types(vec![EventType::from_index(0)], 600))
        .build();
    (query, stream)
}

/// Best-of-`reps` wall time of `f` in seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (query, stream) = workload(120_000, 500);
    let events = stream.len();
    println!("workload: {events} events, window 600 opened on ~1/30 events, {cores} core(s)");

    // Correctness gate: the streaming backend must emit exactly the
    // single-operator output at every shard count, queue capacity and
    // chunk capacity — single-event and batched chunks alike.
    let expected = Operator::new(query.clone()).run(&stream, &mut KeepAll);
    for shards in [1usize, 2] {
        for (capacity, chunk) in [(16usize, 1usize), (1024, 1), (16, 256), (4, 1024)] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            engine.set_queue_capacity(capacity);
            engine.set_chunk_capacity(chunk);
            let mut source = SliceSource::from_stream(&stream);
            let mut deciders = vec![KeepAll; shards];
            assert_eq!(
                engine.run_source(&mut source, &mut deciders),
                expected,
                "streaming diverged at {shards} shard(s), capacity {capacity}, chunk {chunk}"
            );
        }
    }
    println!("streaming output identical to the slice path ({} complex events)", expected.len());

    let reps = 3;
    let shard_counts = [1usize, 2, 4];
    let capacities = [16usize, 256, 1024, 4096];

    // Slice backend baseline.
    let mut slice_rows = Vec::new();
    for &shards in &shard_counts {
        let secs = time_best(reps, || {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            let mut deciders = vec![KeepAll; shards];
            black_box(engine.run_slice(&stream, &mut deciders));
        });
        let rate = events as f64 / secs;
        println!("slice      {shards} shard(s):              {secs:.3} s  ({rate:.0} events/s)");
        slice_rows.push((shards, secs, rate));
    }

    // Broadcast backend (chunk capacity 1: one single-event chunk per
    // hand-off) across the queue-capacity sweep.
    let mut stream_rows = Vec::new();
    for &shards in &shard_counts {
        for &capacity in &capacities {
            let mut backpressure = 0u64;
            let mut peak_depth = 0usize;
            let secs = time_best(reps, || {
                let mut engine = ShardedEngine::new(query.clone(), shards);
                engine.set_queue_capacity(capacity);
                engine.set_chunk_capacity(1);
                let mut source = SliceSource::from_stream(&stream);
                let mut deciders = vec![KeepAll; shards];
                black_box(engine.run_source(&mut source, &mut deciders));
                backpressure = engine.queue_stats().iter().map(|q| q.backpressure_events).sum();
                peak_depth = engine.queue_stats().iter().map(|q| q.peak_depth).max().unwrap_or(0);
            });
            let rate = events as f64 / secs;
            let vs_slice = rate / slice_rows.iter().find(|r| r.0 == shards).unwrap().2;
            println!(
                "broadcast  {shards} shard(s), capacity {capacity:>4}: {secs:.3} s  ({rate:.0} events/s, {vs_slice:.2}x slice, peak depth {peak_depth}, {backpressure} backpressured)"
            );
            stream_rows.push((shards, capacity, secs, rate, vs_slice, peak_depth, backpressure));
        }
    }

    // Chunked shared-arena backend: every configuration buffers the same
    // 4096 events as the largest broadcast row (slots × chunk = 4096), so
    // the ratio isolates the hand-off mechanism, not extra buffering. The
    // broadcast reference is the *best* broadcast rate at the same shard
    // count — the conservative denominator.
    let chunk_capacities = [16usize, 64, 256, 1024];
    let event_budget = 4096usize;
    let mut chunk_rows = Vec::new();
    for &shards in &shard_counts {
        let broadcast_best =
            stream_rows.iter().filter(|r| r.0 == shards).map(|r| r.3).fold(f64::MIN, f64::max);
        for &chunk in &chunk_capacities {
            let slots = (event_budget / chunk).max(1);
            let mut backpressure = 0u64;
            let mut peak_events = 0u64;
            let secs = time_best(reps, || {
                let mut engine = ShardedEngine::new(query.clone(), shards);
                engine.set_queue_capacity(slots);
                engine.set_chunk_capacity(chunk);
                let mut source = SliceSource::from_stream(&stream);
                let mut deciders = vec![KeepAll; shards];
                black_box(engine.run_source(&mut source, &mut deciders));
                backpressure = engine.queue_stats().iter().map(|q| q.backpressure_events).sum();
                peak_events =
                    engine.queue_stats().iter().map(|q| q.peak_event_depth).max().unwrap_or(0);
            });
            let rate = events as f64 / secs;
            let vs_slice = rate / slice_rows.iter().find(|r| r.0 == shards).unwrap().2;
            let over_broadcast = rate / broadcast_best;
            println!(
                "chunked    {shards} shard(s), chunk {chunk:>4} x {slots:>3} slots: {secs:.3} s  ({rate:.0} events/s, {vs_slice:.2}x slice, {over_broadcast:.2}x broadcast, peak {peak_events} events, {backpressure} backpressured)"
            );
            chunk_rows.push((
                shards,
                chunk,
                slots,
                secs,
                rate,
                vs_slice,
                over_broadcast,
                peak_events,
                backpressure,
            ));
        }
    }

    // Record everything for the repository.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"workload\": {{\"events\": {events}, \"window_size\": 600, \"open_every\": 30, \"types\": 500}},\n"
    ));
    json.push_str("  \"identical_output_slice_vs_streaming\": true,\n");
    json.push_str("  \"slice_backend\": [\n");
    for (i, (shards, secs, rate)) in slice_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"seconds\": {secs:.4}, \"events_per_sec\": {rate:.0}}}{}\n",
            if i + 1 < slice_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"streaming_backend\": [\n");
    for (i, (shards, capacity, secs, rate, vs_slice, peak, backpressure)) in
        stream_rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"queue_capacity\": {capacity}, \"seconds\": {secs:.4}, \"events_per_sec\": {rate:.0}, \"vs_slice\": {vs_slice:.2}, \"peak_queue_depth\": {peak}, \"backpressure_events\": {backpressure}}}{}\n",
            if i + 1 < stream_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"chunked_backend\": [\n");
    for (i, (shards, chunk, slots, secs, rate, vs_slice, over_broadcast, peak, backpressure)) in
        chunk_rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"chunk_capacity\": {chunk}, \"queue_capacity\": {slots}, \"seconds\": {secs:.4}, \"events_per_sec\": {rate:.0}, \"vs_slice\": {vs_slice:.2}, \"chunked_over_broadcast\": {over_broadcast:.2}, \"peak_event_depth\": {peak}, \"backpressure_events\": {backpressure}}}{}\n",
            if i + 1 < chunk_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"notes\": \"streaming_backend runs chunk capacity 1: every event is sealed into its own single-event chunk and handed off (Arc clone + push/pop) per shard — capacity 1 takes the same chunk hand-off as every other capacity, so these rows (the chunked_over_broadcast denominator) measure single-event chunks, not a separate per-event clone broadcast. chunked_backend appends events once into shared sequence-stamped chunks and ships one Arc per chunk per shard; every chunked row buffers the same 4096 events as the largest broadcast row (slots x chunk = 4096), so chunked_over_broadcast — rate vs the best broadcast configuration at the same shard count, both sides in one process — isolates the hand-off mechanism and is gated by the CI regression check. On a single-core host producer and drain threads time-share the core, so vs_slice < 1 documents hand-off cost rather than parallel speedup; backpressure_events > 0 shows bounded queues (not unbounded buffering) carried the stream.\"\n",
    );
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!("wrote {path}");
}
