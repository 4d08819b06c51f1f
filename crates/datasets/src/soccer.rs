//! Synthetic RTLS soccer positioning stream.
//!
//! The original dataset (DEBS 2013 Grand Challenge: a real-time locating
//! system in a soccer game, filtered to one event per second per object) is
//! replaced by a small field simulation:
//!
//! * two teams of `players_per_team` players plus a ball and referees move on
//!   a pitch (simple bounded random walks around home positions),
//! * every simulated second each tracked object emits `sensors_per_player`
//!   position events (the DEBS objects carry several sensors; this is how the
//!   paper's ≈700 events per 15 s window arise),
//! * occasionally a designated **striker** starts a *possession episode*: it
//!   emits a possession event (type `STR_<player>`), and during the following
//!   seconds the opposing team's **marking defenders** converge on the striker
//!   and emit defend events (type `DF_<player>`) once they are within
//!   `defend_distance`.
//!
//! The marking defenders and their approach delays are fixed per striker, so
//! defend events of particular players occur at stable offsets after the
//! possession event — the man-marking correlation Q1 detects and the
//! type/position structure the utility model learns.

use espice_events::{AttributeValue, Event, EventType, Timestamp, TypeRegistry, VecStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic soccer stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SoccerConfig {
    /// Players per team.
    pub players_per_team: usize,
    /// Referees on the pitch (emit only position events).
    pub referees: usize,
    /// Position events emitted per object per second (sensor multiplicity).
    pub sensors_per_player: usize,
    /// Number of marking defenders that react to a possession episode.
    pub marking_defenders: usize,
    /// Probability per second that an idle striker starts a possession episode.
    pub possession_probability: f64,
    /// Length of a possession episode in seconds.
    pub possession_seconds: u64,
    /// Probability that a marking defender actually converges during an episode.
    pub defend_compliance: f64,
    /// Probability per second that a non-marking defender emits a spurious
    /// defend event (background noise for the pattern).
    pub spurious_defend_probability: f64,
    /// Distance below which a defender emits a defend event (metres).
    pub defend_distance: f64,
    /// Length of the generated stream in seconds.
    pub duration_seconds: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SoccerConfig {
    fn default() -> Self {
        SoccerConfig {
            players_per_team: 11,
            referees: 3,
            sensors_per_player: 2,
            marking_defenders: 6,
            possession_probability: 0.08,
            possession_seconds: 8,
            defend_compliance: 0.9,
            spurious_defend_probability: 0.003,
            defend_distance: 5.0,
            duration_seconds: 1800,
            seed: 11,
        }
    }
}

impl SoccerConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if counts or probabilities are inconsistent.
    pub fn validate(&self) {
        assert!(self.players_per_team >= 2, "need at least two players per team");
        assert!(
            self.marking_defenders >= 1 && self.marking_defenders <= self.players_per_team,
            "marking defenders must be between 1 and players_per_team"
        );
        assert!(self.sensors_per_player >= 1, "need at least one sensor per player");
        assert!(self.possession_seconds >= 1, "possession must last at least one second");
        assert!(self.duration_seconds >= 10, "stream must cover at least 10 seconds");
        for p in
            [self.possession_probability, self.defend_compliance, self.spurious_defend_probability]
        {
            assert!((0.0..=1.0).contains(&p), "probabilities must be in [0, 1]");
        }
        assert!(self.defend_distance > 0.0, "defend distance must be positive");
    }

    /// Approximate mean event rate of the generated stream (events/second):
    /// position events of all tracked objects plus a small number of derived
    /// possession/defend events.
    pub fn approx_rate(&self) -> f64 {
        let objects = 2 * self.players_per_team + self.referees + 1;
        (objects * self.sensors_per_player) as f64
    }
}

/// A generated soccer dataset.
#[derive(Debug, Clone)]
pub struct SoccerDataset {
    /// The events in global order.
    pub stream: VecStream,
    /// Registry with position (`POS_*`), possession (`STR_*`) and defend
    /// (`DF_*`) event types.
    pub registry: TypeRegistry,
    /// Possession event types, one per striker (one striker per team).
    pub striker_events: Vec<EventType>,
    /// Defend event types of every player (both teams), in player order.
    pub defender_events: Vec<EventType>,
    /// Defend event types of the designated marking defenders for each
    /// striker, in marking order (same index as [`striker_events`]).
    ///
    /// [`striker_events`]: SoccerDataset::striker_events
    pub markers: Vec<Vec<EventType>>,
    /// The configuration used to generate the dataset.
    pub config: SoccerConfig,
}

/// Internal object kinematics.
#[derive(Debug, Clone, Copy)]
struct Object {
    x: f64,
    y: f64,
    home_x: f64,
    home_y: f64,
}

impl Object {
    fn step(&mut self, rng: &mut StdRng, toward: Option<(f64, f64)>, speed: f64) {
        match toward {
            Some((tx, ty)) => {
                let dx = tx - self.x;
                let dy = ty - self.y;
                let dist = (dx * dx + dy * dy).sqrt().max(1e-6);
                let step = speed.min(dist);
                self.x += dx / dist * step;
                self.y += dy / dist * step;
            }
            None => {
                // Drift back towards the home position with noise.
                self.x += (self.home_x - self.x) * 0.1 + rng.gen_range(-1.5..1.5);
                self.y += (self.home_y - self.y) * 0.1 + rng.gen_range(-1.5..1.5);
            }
        }
        self.x = self.x.clamp(0.0, 105.0);
        self.y = self.y.clamp(0.0, 68.0);
    }

    fn distance_to(&self, other: &Object) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

impl SoccerDataset {
    /// Generates a dataset from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SoccerConfig::validate`]).
    pub fn generate(config: &SoccerConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut registry = TypeRegistry::new();

        let n = config.players_per_team;
        let total_players = 2 * n;

        // Event types. Player i in [0, n) is team A, [n, 2n) team B.
        let pos_types: Vec<EventType> =
            (0..total_players).map(|i| registry.intern(&format!("POS_P{i:02}"))).collect();
        let referee_types: Vec<EventType> =
            (0..config.referees).map(|i| registry.intern(&format!("POS_R{i}"))).collect();
        let ball_type = registry.intern("POS_BALL");
        let defender_events: Vec<EventType> =
            (0..total_players).map(|i| registry.intern(&format!("DF_P{i:02}"))).collect();
        // Striker 0 is player 0 (team A), striker 1 is player n (team B).
        let striker_ids = [0usize, n];
        let striker_events: Vec<EventType> =
            striker_ids.iter().map(|&i| registry.intern(&format!("STR_P{i:02}"))).collect();

        // Marking defenders: for the team-A striker they are the first
        // `marking_defenders` players of team B (excluding B's striker) and
        // vice versa. Fixed assignment = the man-marking correlation.
        let markers_ids: Vec<Vec<usize>> = vec![
            (n + 1..n + 1 + config.marking_defenders).collect(),
            (1..1 + config.marking_defenders).collect(),
        ];
        let markers: Vec<Vec<EventType>> = markers_ids
            .iter()
            .map(|ids| ids.iter().map(|&i| defender_events[i]).collect())
            .collect();

        // Object state: players, referees, ball.
        let mut players: Vec<Object> = (0..total_players)
            .map(|i| {
                let home_x =
                    if i < n { rng.gen_range(10.0..50.0) } else { rng.gen_range(55.0..95.0) };
                let home_y = rng.gen_range(5.0..63.0);
                Object { x: home_x, y: home_y, home_x, home_y }
            })
            .collect();
        let mut referees: Vec<Object> = (0..config.referees)
            .map(|_| {
                let x = rng.gen_range(20.0..85.0);
                let y = rng.gen_range(10.0..58.0);
                Object { x, y, home_x: x, home_y: y }
            })
            .collect();
        let mut ball = Object { x: 52.5, y: 34.0, home_x: 52.5, home_y: 34.0 };

        // Possession state: Some((striker_index, seconds_remaining)).
        let mut possession: Option<(usize, u64)> = None;
        // Which marking defenders converge in the current episode.
        let mut converging: Vec<usize> = Vec::new();

        let mut events: Vec<Event> = Vec::new();
        let mut seq = 0u64;
        let push = |events: &mut Vec<Event>,
                    seq: &mut u64,
                    ty: EventType,
                    ts: Timestamp,
                    attrs: Vec<(&str, AttributeValue)>| {
            let mut builder = Event::builder(ty, ts).seq(*seq);
            for (k, v) in attrs {
                builder = builder.attr(k, v);
            }
            events.push(builder.build());
            *seq += 1;
        };

        for second in 0..config.duration_seconds {
            let ts = Timestamp::from_secs(second);

            // Possession episode management.
            match possession {
                Some((striker, remaining)) => {
                    if remaining == 0 {
                        possession = None;
                        converging.clear();
                    } else {
                        possession = Some((striker, remaining - 1));
                    }
                }
                None => {
                    if rng.gen_bool(config.possession_probability) {
                        let which = rng.gen_range(0..striker_ids.len());
                        let striker = striker_ids[which];
                        possession = Some((striker, config.possession_seconds));
                        converging = markers_ids[which]
                            .iter()
                            .copied()
                            .filter(|_| rng.gen_bool(config.defend_compliance))
                            .collect();
                        // The ball moves to the striker; emit the possession event.
                        ball.x = players[striker].x;
                        ball.y = players[striker].y;
                        push(
                            &mut events,
                            &mut seq,
                            striker_events[which],
                            ts,
                            vec![
                                ("x", AttributeValue::from(players[striker].x)),
                                ("y", AttributeValue::from(players[striker].y)),
                                ("player", AttributeValue::from(striker as i64)),
                            ],
                        );
                    }
                }
            }

            // Move objects.
            let possession_target =
                possession.map(|(striker, _)| (players[striker].x, players[striker].y));
            for (i, player) in players.iter_mut().enumerate() {
                let target = if converging.contains(&i) && possession.is_some() {
                    possession_target
                } else {
                    None
                };
                player.step(&mut rng, target, 4.0);
            }
            for referee in referees.iter_mut() {
                referee.step(&mut rng, None, 2.0);
            }
            if let Some((striker, _)) = possession {
                ball.x = players[striker].x;
                ball.y = players[striker].y;
            } else {
                ball.step(&mut rng, None, 6.0);
            }

            // Emit per-second position events for every sensor of every object.
            let sub = 1_000_000u64 / (config.sensors_per_player as u64).max(1);
            for s in 0..config.sensors_per_player {
                let sensor_ts = Timestamp::from_micros(second * 1_000_000 + s as u64 * sub);
                for (i, player) in players.iter().enumerate() {
                    push(
                        &mut events,
                        &mut seq,
                        pos_types[i],
                        sensor_ts,
                        vec![
                            ("x", AttributeValue::from(player.x)),
                            ("y", AttributeValue::from(player.y)),
                        ],
                    );
                }
                for (i, referee) in referees.iter().enumerate() {
                    push(
                        &mut events,
                        &mut seq,
                        referee_types[i],
                        sensor_ts,
                        vec![
                            ("x", AttributeValue::from(referee.x)),
                            ("y", AttributeValue::from(referee.y)),
                        ],
                    );
                }
                push(
                    &mut events,
                    &mut seq,
                    ball_type,
                    sensor_ts,
                    vec![("x", AttributeValue::from(ball.x)), ("y", AttributeValue::from(ball.y))],
                );
            }

            // Defend events: any defender close enough to the ball carrier.
            if let Some((striker, _)) = possession {
                let striker_obj = players[striker];
                let striker_team_a = striker < n;
                for (i, player) in players.iter().enumerate() {
                    let is_opponent = (i < n) != striker_team_a;
                    if !is_opponent || i == striker {
                        continue;
                    }
                    if player.distance_to(&striker_obj) <= config.defend_distance {
                        push(
                            &mut events,
                            &mut seq,
                            defender_events[i],
                            Timestamp::from_micros(second * 1_000_000 + 990_000),
                            vec![
                                (
                                    "distance",
                                    AttributeValue::from(player.distance_to(&striker_obj)),
                                ),
                                ("player", AttributeValue::from(i as i64)),
                            ],
                        );
                    }
                }
            }

            // Spurious defend events (noise): defenders "defending" without a
            // tracked possession episode.
            for (i, _) in players.iter().enumerate() {
                if rng.gen_bool(config.spurious_defend_probability) {
                    push(
                        &mut events,
                        &mut seq,
                        defender_events[i],
                        Timestamp::from_micros(second * 1_000_000 + 995_000),
                        vec![("player", AttributeValue::from(i as i64))],
                    );
                }
            }
        }

        SoccerDataset {
            stream: VecStream::from_unordered(events),
            registry,
            striker_events,
            defender_events,
            markers,
            config: config.clone(),
        }
    }

    /// All defend event types of the team opposing striker `striker_index`
    /// (the admissible types of Q1's `any(n, DF…)` step).
    ///
    /// # Panics
    ///
    /// Panics if `striker_index` is not 0 or 1.
    pub fn opposing_defenders(&self, striker_index: usize) -> Vec<EventType> {
        assert!(striker_index < 2, "there are exactly two strikers");
        let n = self.config.players_per_team;
        let range = if striker_index == 0 { n..2 * n } else { 0..n };
        range.map(|i| self.defender_events[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::EventStream;

    fn small_config() -> SoccerConfig {
        SoccerConfig {
            players_per_team: 6,
            referees: 1,
            sensors_per_player: 1,
            marking_defenders: 3,
            possession_probability: 0.2,
            duration_seconds: 300,
            seed: 5,
            ..SoccerConfig::default()
        }
    }

    #[test]
    fn stream_is_ordered_and_nonempty() {
        let ds = SoccerDataset::generate(&small_config());
        assert!(!ds.stream.is_empty());
        let events = ds.stream.events();
        assert!(events.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn position_rate_matches_object_count() {
        let cfg = small_config();
        let ds = SoccerDataset::generate(&cfg);
        let stats = ds.stream.stats();
        // Position events per second = objects * sensors; possession / defend
        // events add a few percent on top.
        let objects = 2 * cfg.players_per_team + cfg.referees + 1;
        let expected_pos = objects * cfg.duration_seconds as usize;
        assert!(stats.count >= expected_pos);
        assert!(stats.count < expected_pos + expected_pos / 2);
    }

    #[test]
    fn possession_events_exist_for_both_strikers() {
        let ds = SoccerDataset::generate(&small_config());
        let stats = ds.stream.stats();
        for &s in &ds.striker_events {
            assert!(
                stats.per_type_counts.get(&s.as_u32()).copied().unwrap_or(0) > 0,
                "striker {s} never possessed the ball"
            );
        }
    }

    #[test]
    fn marking_defenders_defend_after_possession() {
        // For at least half of the possession events, at least one marking
        // defender must emit a defend event within the next 10 seconds: this
        // is the correlation the utility model needs.
        let ds = SoccerDataset::generate(&small_config());
        let events = ds.stream.events();
        let mut possessions = 0usize;
        let mut with_defence = 0usize;
        for (i, e) in events.iter().enumerate() {
            let Some(striker_idx) = ds.striker_events.iter().position(|&s| s == e.event_type())
            else {
                continue;
            };
            possessions += 1;
            let deadline = e.timestamp() + espice_events::SimDuration::from_secs(10);
            let markers = &ds.markers[striker_idx];
            let defended = events[i + 1..]
                .iter()
                .take_while(|x| x.timestamp() <= deadline)
                .any(|x| markers.contains(&x.event_type()));
            if defended {
                with_defence += 1;
            }
        }
        assert!(possessions > 3, "too few possession episodes generated");
        assert!(
            with_defence * 2 >= possessions,
            "defenders reacted to only {with_defence}/{possessions} possessions"
        );
    }

    #[test]
    fn defend_events_carry_distance_below_threshold() {
        let cfg = small_config();
        let ds = SoccerDataset::generate(&cfg);
        for e in ds.stream.iter() {
            if ds.defender_events.contains(&e.event_type()) {
                if let Some(d) = e.attrs().get_f64("distance") {
                    assert!(d <= cfg.defend_distance + 1e-9);
                }
            }
        }
    }

    #[test]
    fn opposing_defenders_are_the_other_team() {
        let ds = SoccerDataset::generate(&small_config());
        let n = ds.config.players_per_team;
        let opp0 = ds.opposing_defenders(0);
        assert_eq!(opp0.len(), n);
        assert_eq!(opp0[0], ds.defender_events[n]);
        let opp1 = ds.opposing_defenders(1);
        assert_eq!(opp1[0], ds.defender_events[0]);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SoccerDataset::generate(&small_config());
        let b = SoccerDataset::generate(&small_config());
        assert_eq!(a.stream.len(), b.stream.len());
        let types_a: Vec<_> = a.stream.iter().map(|e| e.event_type()).collect();
        let types_b: Vec<_> = b.stream.iter().map(|e| e.event_type()).collect();
        assert_eq!(types_a, types_b);
    }

    #[test]
    fn approx_rate_with_default_config_matches_paper_scale() {
        // Default config: (2*11 + 3 + 1) objects * 2 sensors = 52 events/s,
        // so a 15 s window holds ≈ 780 events (paper: ≈ 700).
        let rate = SoccerConfig::default().approx_rate();
        assert!((45.0..=60.0).contains(&rate));
    }

    #[test]
    #[should_panic(expected = "marking defenders")]
    fn validate_rejects_too_many_markers() {
        SoccerConfig { players_per_team: 3, marking_defenders: 4, ..SoccerConfig::default() }
            .validate();
    }
}
