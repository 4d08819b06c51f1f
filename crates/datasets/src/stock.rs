//! Synthetic NYSE intra-day stock quote stream.
//!
//! The real dataset ("real intra-day quotes of 500 different stocks from NYSE
//! collected over two months from Google Finance", one quote per minute per
//! symbol) is replaced by a generator with the same macro structure:
//!
//! * `num_symbols` symbols, each emitting one quote per minute at a fixed,
//!   symbol-specific sub-minute offset (so the per-minute order of symbols is
//!   stable — this is what gives *positions* within a window their meaning),
//! * quote prices follow independent random walks, the `change` attribute is
//!   the signed price delta of the quote,
//! * a small set of **leading** symbols (the paper's "5 technology blue chip
//!   companies"); whenever a leading symbol moves, it triggers — with
//!   probability `cascade_probability` — a *cascade*: a fixed, ordered set of
//!   **follower** symbols repeats the leader's direction in their next
//!   `cascade_minutes` quotes.
//!
//! The cascade is the learnable structure: followers of a leading symbol move
//! at stable relative offsets after the leading quote, which is exactly the
//! type/position correlation eSPICE's utility model captures (the paper's
//! "a stock of type IBM may impact a stock of another company within a
//! certain time interval").

use espice_events::{AttributeValue, Event, EventType, Timestamp, TypeRegistry, VecStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of the synthetic stock-quote stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StockConfig {
    /// Total number of stock symbols (the paper uses 500).
    pub num_symbols: usize,
    /// Number of leading ("blue chip") symbols (the paper uses 5).
    pub num_leading: usize,
    /// Number of follower symbols per leading symbol, in cascade order.
    pub followers_per_leading: usize,
    /// Probability that a leading-symbol move triggers its cascade.
    pub cascade_probability: f64,
    /// For how many of their subsequent quotes the followers repeat the
    /// leader's direction (>= 1). Values above 1 create in-window repetitions
    /// of follower moves, which Q4's sequence-with-repetition pattern needs.
    pub cascade_minutes: usize,
    /// Probability that a follower actually joins a triggered cascade.
    pub follower_compliance: f64,
    /// Length of the generated stream in minutes.
    pub duration_minutes: usize,
    /// Standard deviation of the per-quote price change for non-cascade moves.
    pub volatility: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StockConfig {
    fn default() -> Self {
        StockConfig {
            num_symbols: 500,
            num_leading: 5,
            followers_per_leading: 25,
            cascade_probability: 0.5,
            cascade_minutes: 2,
            follower_compliance: 0.9,
            duration_minutes: 240,
            volatility: 0.5,
            seed: 7,
        }
    }
}

impl StockConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the symbol counts are inconsistent (e.g. not enough symbols
    /// to host the requested leaders and followers) or probabilities are
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.num_symbols >= 2, "need at least two symbols");
        assert!(self.num_leading >= 1, "need at least one leading symbol");
        assert!(
            self.num_leading + self.num_leading * self.followers_per_leading <= self.num_symbols,
            "not enough symbols for {} leaders with {} followers each",
            self.num_leading,
            self.followers_per_leading
        );
        assert!(self.cascade_minutes >= 1, "cascade_minutes must be >= 1");
        assert!(self.duration_minutes >= 1, "duration must be at least one minute");
        assert!(
            (0.0..=1.0).contains(&self.cascade_probability)
                && (0.0..=1.0).contains(&self.follower_compliance),
            "probabilities must be in [0, 1]"
        );
        assert!(self.volatility > 0.0, "volatility must be positive");
    }

    /// Mean event rate of the generated stream in events per second
    /// (`num_symbols` quotes per minute).
    pub fn mean_rate(&self) -> f64 {
        self.num_symbols as f64 / 60.0
    }
}

/// A generated stock-quote dataset.
#[derive(Debug, Clone)]
pub struct StockDataset {
    /// The quote events in global order.
    pub stream: VecStream,
    /// Registry mapping symbol names (`"S000"`, `"S001"`, …) to event types.
    pub registry: TypeRegistry,
    /// All symbol event types, in symbol order.
    pub symbols: Vec<EventType>,
    /// The leading (blue chip) symbols.
    pub leading: Vec<EventType>,
    /// For every leading symbol, its followers in cascade order.
    pub followers: HashMap<EventType, Vec<EventType>>,
    /// The configuration used to generate the dataset.
    pub config: StockConfig,
}

impl StockDataset {
    /// Generates a dataset from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`StockConfig::validate`]).
    pub fn generate(config: &StockConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut registry = TypeRegistry::new();

        let symbols: Vec<EventType> =
            (0..config.num_symbols).map(|i| registry.intern(&format!("S{i:03}"))).collect();

        // Leaders come first, then contiguous blocks of followers. Follower
        // blocks do not overlap so cascades of different leaders are
        // distinguishable.
        let leading: Vec<EventType> = symbols[..config.num_leading].to_vec();
        let mut followers: HashMap<EventType, Vec<EventType>> = HashMap::new();
        for (l, &leader) in leading.iter().enumerate() {
            let start = config.num_leading + l * config.followers_per_leading;
            let block = symbols[start..start + config.followers_per_leading].to_vec();
            followers.insert(leader, block);
        }

        // Per-symbol sub-minute offset in microseconds. Symbols quote in index
        // order within every minute, which makes cascade follower positions
        // stable relative to the leading quote.
        let slot = 60_000_000u64 / config.num_symbols as u64;

        // Price state and pending cascade directions per symbol: a queue of
        // forced directions for the next quotes.
        let mut prices: Vec<f64> =
            (0..config.num_symbols).map(|_| rng.gen_range(20.0..200.0)).collect();
        let mut forced: Vec<Vec<f64>> = vec![Vec::new(); config.num_symbols];

        let mut events = Vec::with_capacity(config.num_symbols * config.duration_minutes);
        let mut seq = 0u64;

        for minute in 0..config.duration_minutes {
            for (idx, &symbol) in symbols.iter().enumerate() {
                let ts = Timestamp::from_micros(minute as u64 * 60_000_000 + idx as u64 * slot);

                // Direction: forced by a cascade, otherwise random walk.
                let direction = if let Some(dir) = forced[idx].pop() {
                    dir
                } else if rng.gen_bool(0.5) {
                    1.0
                } else {
                    -1.0
                };
                let magnitude: f64 = rng.gen_range(0.01..config.volatility).max(0.01);
                let change = direction * magnitude;
                prices[idx] = (prices[idx] + change).max(1.0);

                let is_leading = idx < config.num_leading;
                let event = Event::builder(symbol, ts)
                    .seq(seq)
                    .attr("price", AttributeValue::from(prices[idx]))
                    .attr("change", AttributeValue::from(change))
                    .attr("leading", AttributeValue::from(is_leading))
                    .build();
                seq += 1;
                events.push(event);

                // A leading move may trigger its cascade: followers repeat the
                // leader's direction in their next `cascade_minutes` quotes.
                if is_leading && rng.gen_bool(config.cascade_probability) {
                    let block = &followers[&symbol];
                    for &follower in block {
                        if rng.gen_bool(config.follower_compliance) {
                            let fidx = follower.index();
                            for _ in 0..config.cascade_minutes {
                                forced[fidx].push(direction);
                            }
                        }
                    }
                }
            }
        }

        StockDataset {
            stream: VecStream::from_ordered(events),
            registry,
            symbols,
            leading,
            followers,
            config: config.clone(),
        }
    }

    /// The followers of `leader` in cascade order.
    ///
    /// # Panics
    ///
    /// Panics if `leader` is not one of the leading symbols.
    pub fn followers_of(&self, leader: EventType) -> &[EventType] {
        self.followers
            .get(&leader)
            .map(Vec::as_slice)
            .expect("followers_of called with a non-leading symbol")
    }

    /// The first `n` followers of the first leading symbol — the "certain
    /// stock symbols" used by Q3 and Q4.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has fewer than `n` followers per leader.
    pub fn cascade_prefix(&self, n: usize) -> Vec<EventType> {
        let block = self.followers_of(self.leading[0]);
        assert!(block.len() >= n, "dataset has only {} followers per leader", block.len());
        block[..n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::EventStream;

    fn small_config() -> StockConfig {
        StockConfig {
            num_symbols: 30,
            num_leading: 2,
            followers_per_leading: 5,
            duration_minutes: 20,
            cascade_probability: 1.0,
            follower_compliance: 1.0,
            seed: 42,
            ..StockConfig::default()
        }
    }

    #[test]
    fn generates_one_quote_per_symbol_per_minute() {
        let cfg = small_config();
        let ds = StockDataset::generate(&cfg);
        assert_eq!(ds.stream.len(), cfg.num_symbols * cfg.duration_minutes);
        let stats = ds.stream.stats();
        assert_eq!(stats.distinct_types, cfg.num_symbols);
        // Every symbol appears exactly `duration_minutes` times.
        for &sym in &ds.symbols {
            assert_eq!(stats.per_type_counts[&sym.as_u32()], cfg.duration_minutes);
        }
    }

    #[test]
    fn stream_is_globally_ordered_with_dense_seqs() {
        let ds = StockDataset::generate(&small_config());
        let events = ds.stream.events();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq(), i as u64);
        }
        assert!(events.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = StockDataset::generate(&small_config());
        let b = StockDataset::generate(&small_config());
        let changes_a: Vec<_> =
            a.stream.iter().map(|e| e.attrs().get_f64("change").unwrap()).collect();
        let changes_b: Vec<_> =
            b.stream.iter().map(|e| e.attrs().get_f64("change").unwrap()).collect();
        assert_eq!(changes_a, changes_b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = StockDataset::generate(&small_config());
        let b = StockDataset::generate(&StockConfig { seed: 43, ..small_config() });
        let changes_a: Vec<_> =
            a.stream.iter().map(|e| e.attrs().get_f64("change").unwrap()).collect();
        let changes_b: Vec<_> =
            b.stream.iter().map(|e| e.attrs().get_f64("change").unwrap()).collect();
        assert_ne!(changes_a, changes_b);
    }

    #[test]
    fn leaders_are_marked_and_have_disjoint_follower_blocks() {
        let ds = StockDataset::generate(&small_config());
        assert_eq!(ds.leading.len(), 2);
        let block_a = ds.followers_of(ds.leading[0]);
        let block_b = ds.followers_of(ds.leading[1]);
        assert_eq!(block_a.len(), 5);
        assert!(block_a.iter().all(|t| !block_b.contains(t)));
        // Leading attribute is set on leader quotes only.
        for e in ds.stream.iter() {
            let is_leading = ds.leading.contains(&e.event_type());
            assert_eq!(e.attrs().get_bool("leading"), Some(is_leading));
        }
    }

    #[test]
    fn cascade_forces_followers_to_repeat_leader_direction() {
        // With cascade probability and compliance 1.0, every follower's quote
        // in the minute after a leader move must have the leader's direction.
        let cfg = small_config();
        let ds = StockDataset::generate(&cfg);
        let leader = ds.leading[0];
        let followers = ds.followers_of(leader).to_vec();
        let events = ds.stream.events();
        let mut checked = 0;
        for (i, e) in events.iter().enumerate() {
            if e.event_type() != leader {
                continue;
            }
            let dir = e.attrs().get_f64("change").unwrap().signum();
            // Find each follower's next quote after this leader quote.
            for &f in &followers {
                if let Some(fe) = events[i + 1..].iter().find(|x| x.event_type() == f) {
                    let fdir = fe.attrs().get_f64("change").unwrap().signum();
                    assert_eq!(fdir, dir, "follower did not repeat leader direction");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn cascade_prefix_returns_ordered_followers() {
        let ds = StockDataset::generate(&small_config());
        let prefix = ds.cascade_prefix(3);
        assert_eq!(prefix, ds.followers_of(ds.leading[0])[..3].to_vec());
    }

    #[test]
    #[should_panic(expected = "not enough symbols")]
    fn validate_rejects_overcommitted_followers() {
        let cfg = StockConfig {
            num_symbols: 10,
            num_leading: 3,
            followers_per_leading: 5,
            ..StockConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn mean_rate_matches_paper_scale() {
        // 500 symbols at one quote per minute ≈ 8.3 events/s, the paper's Q2
        // windows of 240 s then hold ≈ 2000 events.
        let rate = StockConfig::default().mean_rate();
        assert!((rate - 8.33).abs() < 0.1);
    }
}
