//! The eSPICE load shedder (Algorithm 2 of the paper).
//!
//! Once activated with a [`ShedPlan`], the shedder computes one utility
//! threshold per window partition from the model's `CDT`s and then takes an
//! O(1) decision for every (event, window) pair: look up the event's utility
//! `UT(T, P)` and drop the event from the window if the utility is less than
//! or equal to the threshold of the partition the position falls into.

use crate::compiled::{CompiledVerdicts, Verdict};
use crate::{Cdt, ShedPlan, UtilityModel};
use espice_cep::{
    BatchRequest, Decision, DropSet, QueryId, WindowEventDecider, WindowId, WindowMeta,
};
use espice_events::Event;

/// Counters describing the shedder's activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShedderStats {
    /// Shedding decisions taken.
    pub decisions: u64,
    /// Decisions that dropped the event from its window.
    pub drops: u64,
    /// Drop commands (plans) applied.
    pub plans_applied: u64,
}

impl ShedderStats {
    /// Fraction of decisions that dropped the event.
    pub fn drop_ratio(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.drops as f64 / self.decisions as f64
        }
    }

    /// Adds every counter of `other` into `self`. Used to merge the per-shard
    /// shedder instances of a sharded engine run into engine-level totals.
    pub fn merge(&mut self, other: &ShedderStats) {
        self.decisions += other.decisions;
        self.drops += other.drops;
        self.plans_applied += other.plans_applied;
    }
}

/// Per-partition shedding state (immutable once a plan is applied; the
/// mutable boundary accumulators live per *window* in [`ActiveShedding`]).
/// Crate-visible so the family backends ([`crate::HspiceShedder`],
/// [`crate::GspiceShedder`]) reuse the exact classification and thinning
/// machinery against their own derived utility tables.
#[derive(Debug, Clone)]
pub(crate) struct PartitionShedding {
    /// Utility threshold `u_th(part)`: events with utility strictly below the
    /// threshold are always dropped. `None` means "drop nothing".
    pub(crate) threshold: Option<u8>,
    /// Fraction of the events *at* the threshold utility that must also be
    /// dropped so the expected number of drops matches the requested amount
    /// exactly instead of overshooting (Algorithm 2 drops "at least x" events;
    /// with coarse utility distributions — many cells sharing the same value —
    /// that overshoot can be large, so the boundary level is thinned
    /// deterministically).
    boundary_fraction: f64,
}

impl PartitionShedding {
    /// Threshold-only classification: `Some(drop?)` when the utility is
    /// strictly below or above the threshold, `None` when it sits exactly on
    /// the boundary and [`thin_boundary`](Self::thin_boundary) must decide.
    /// Split from the thinning so the hot path only touches the per-window
    /// accumulator map in the rare boundary case.
    #[inline]
    pub(crate) fn classify(&self, utility: u8) -> Option<bool> {
        match self.threshold {
            None => Some(false),
            Some(threshold) if utility < threshold => Some(true),
            Some(threshold) if utility == threshold => None,
            Some(_) => Some(false),
        }
    }

    /// Deterministic thinning of the boundary utility level so the expected
    /// drops per partition match the requested amount: advances the window's
    /// boundary accumulator and drops when it crosses 1. Shared by the
    /// scalar and the batched decision paths so the two are
    /// decision-for-decision identical.
    pub(crate) fn thin_boundary(&self, accumulator: &mut f64) -> bool {
        *accumulator += self.boundary_fraction;
        if *accumulator >= 1.0 - 1e-9 {
            *accumulator -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The boundary-thinning accumulator's starting phase for a window.
///
/// Accumulators are keyed per window id, so the thinning decision for a
/// boundary event depends only on `(query, window id, arrival order within the
/// window)` — an N-shard engine, where each window is decided by whichever
/// shard owns its id, thins exactly the same boundary events as a 1-shard
/// run. The phase itself is a constant ½: per window and partition the
/// realised boundary drops are then `round(n · fraction)` — unbiased to
/// within half an event — and overlapping windows thin *aligned* arrivals,
/// which concentrates the boundary damage on few distinct events. (An
/// id-seeded golden-ratio phase was tried here; being equidistributed it
/// staggered the thinning across overlapping windows so nearly every window
/// lost a *different* event, which measurably worsened false negatives on
/// the soccer man-marking workload.)
/// Engine-wide window key: window ids are only unique within a query, so
/// per-window shedder state is keyed by the `(query, window id)` pair.
pub(crate) type WindowKey = (QueryId, WindowId);

pub(crate) fn boundary_seed(id: WindowId) -> f64 {
    let _ = id;
    0.5
}

/// The currently active shedding state: per-partition thresholds plus the
/// per-window boundary accumulators. Shared with the family backends in
/// [`crate::family`], which drive it from derived utility tables.
#[derive(Debug, Clone)]
pub(crate) struct ActiveShedding {
    pub(crate) partitions: usize,
    pub(crate) per_partition: Vec<PartitionShedding>,
    /// One boundary accumulator per partition per *open* window, created
    /// lazily on the window's first boundary-level decision (decisions
    /// strictly above or below the threshold never touch this) and released
    /// by [`WindowEventDecider::window_closed`]. A linear-scan association
    /// list rather than a hash map: live entries are bounded by the number
    /// of concurrently open windows that hit the boundary level (tens, not
    /// thousands), and a short id scan beats hashing on that scale.
    pub(crate) accumulators: Vec<(WindowKey, Box<[f64]>)>,
}

impl ActiveShedding {
    /// The accumulators of window `id`, seeding them on first contact.
    pub(crate) fn accumulators_for(
        accumulators: &mut Vec<(WindowKey, Box<[f64]>)>,
        partitions: usize,
        key: WindowKey,
    ) -> &mut [f64] {
        match accumulators.iter().position(|(window, _)| *window == key) {
            Some(index) => &mut accumulators[index].1,
            None => {
                accumulators.push((key, vec![boundary_seed(key.1); partitions].into()));
                &mut accumulators.last_mut().expect("just pushed").1
            }
        }
    }

    /// Releases the accumulators of window `key = (query, id)` (no-op if
    /// it never hit the boundary level).
    pub(crate) fn release(&mut self, key: WindowKey) {
        if let Some(index) = self.accumulators.iter().position(|(window, _)| *window == key) {
            self.accumulators.swap_remove(index);
        }
    }
}

/// Per-partition thresholds for a plan asking to drop `events_to_drop` out
/// of every `partition_size` events, computed against the given partition
/// `CDT`s (`getUtilityThresholdForEachPartition` in Algorithm 2, factored
/// out of [`EspiceShedder`] so the family backends compute thresholds for
/// CDTs built from their *derived* utility tables with the same math).
///
/// The drop amount is interpreted as a *fraction* (`x / psize`) and scaled
/// by each partition's own expected event mass, so the thresholds stay
/// correct even when the window size the plan was computed for differs
/// from the model's position count (variable-size windows).
pub(crate) fn partition_thresholds(
    cdts: &[Cdt],
    events_to_drop: f64,
    partition_size: usize,
) -> Vec<PartitionShedding> {
    let drop_fraction = events_to_drop / partition_size.max(1) as f64;
    cdts.iter()
        .map(|cdt: &Cdt| {
            let target = drop_fraction * cdt.total();
            if target <= 0.0 {
                return PartitionShedding { threshold: None, boundary_fraction: 0.0 };
            }
            // If even utility 100 cannot reach the requested amount the
            // partition simply drops everything it can (threshold 100).
            let threshold = cdt.threshold_for(target).unwrap_or(100);
            let below = if threshold == 0 { 0.0 } else { cdt.occurrences(threshold - 1) };
            let at_threshold = (cdt.occurrences(threshold) - below).max(0.0);
            let boundary_fraction = if at_threshold <= 0.0 {
                1.0
            } else {
                ((target - below) / at_threshold).clamp(0.0, 1.0)
            };
            PartitionShedding { threshold: Some(threshold), boundary_fraction }
        })
        .collect()
}

/// eSPICE's probabilistic load shedder.
///
/// # Example
///
/// ```
/// use espice::{EspiceShedder, ModelBuilder, ModelConfig, ShedPlan};
///
/// let model = ModelBuilder::new(ModelConfig::with_positions(10), 2).build();
/// let mut shedder = EspiceShedder::new(model);
/// assert!(!shedder.is_active());
/// shedder.apply(ShedPlan { active: true, partitions: 2, partition_size: 5, events_to_drop: 1.0 });
/// assert!(shedder.is_active());
/// shedder.deactivate();
/// assert!(!shedder.is_active());
/// ```
#[derive(Debug, Clone)]
pub struct EspiceShedder {
    model: UtilityModel,
    active: Option<ActiveShedding>,
    /// The most recently applied plan, reused when the model is swapped after
    /// retraining.
    last_plan: Option<ShedPlan>,
    /// Compiled verdict tables for the span kernel — derived from the model
    /// and active plan, invalidated on every plan/model change, cloned cold
    /// (see [`CompiledVerdicts`]).
    compiled: CompiledVerdicts,
    stats: ShedderStats,
}

impl EspiceShedder {
    /// Creates a shedder that uses `model` for its utility lookups. The
    /// shedder starts inactive (keeps everything).
    pub fn new(model: UtilityModel) -> Self {
        EspiceShedder {
            model,
            active: None,
            last_plan: None,
            compiled: CompiledVerdicts::new(),
            stats: ShedderStats::default(),
        }
    }

    /// The model the shedder currently uses.
    pub fn model(&self) -> &UtilityModel {
        &self.model
    }

    /// Replaces the model (after retraining) while keeping the current
    /// activation state: if shedding is active, the most recently applied plan
    /// is re-applied against the new model so the thresholds stay consistent.
    /// Live per-window boundary accumulators survive the swap (see
    /// [`apply`](Self::apply)): a retraining swap changes *thresholds*, not
    /// which windows are open, so re-seeding every open window's thinning
    /// phase would skew the realised drop counts at every swap.
    pub fn set_model(&mut self, model: UtilityModel) {
        self.model = model;
        self.compiled.invalidate();
        if self.active.is_some() {
            if let Some(plan) = self.last_plan {
                self.apply(plan);
            }
        }
    }

    /// Whether the shedder is currently dropping events.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The shedder's counters.
    pub fn stats(&self) -> &ShedderStats {
        &self.stats
    }

    /// Number of windows whose boundary-thinning accumulators are currently
    /// resident (0 when inactive). Bounded by the concurrently *open*
    /// windows that hit the boundary utility level; the operator releases
    /// each window's state through
    /// [`WindowEventDecider::window_closed`](espice_cep::WindowEventDecider::window_closed),
    /// so after a query's windows drained — the lifecycle teardown
    /// contract — this must be back at 0.
    pub fn tracked_windows(&self) -> usize {
        self.active.as_ref().map_or(0, |active| active.accumulators.len())
    }

    /// The per-partition utility thresholds of the active plan (empty when
    /// inactive). Exposed for experiments and debugging.
    pub fn thresholds(&self) -> Vec<Option<u8>> {
        self.active
            .as_ref()
            .map(|a| a.per_partition.iter().map(|p| p.threshold).collect())
            .unwrap_or_default()
    }

    /// Computes per-partition thresholds for a plan asking to drop
    /// `events_to_drop` out of every `partition_size` events.
    ///
    /// The drop amount is interpreted as a *fraction* (`x / psize`) and scaled
    /// by each partition's own expected event mass, so the thresholds stay
    /// correct even when the window size the plan was computed for differs
    /// from the model's position count (variable-size windows).
    fn thresholds_for(
        &self,
        partitions: usize,
        events_to_drop: f64,
        partition_size: usize,
    ) -> Vec<PartitionShedding> {
        partition_thresholds(&self.model.cdt_partitions(partitions), events_to_drop, partition_size)
    }

    /// Applies a drop command from the overload detector: computes the utility
    /// threshold for every partition (`getUtilityThresholdForEachPartition` in
    /// Algorithm 2) and activates shedding. An inactive plan deactivates the
    /// shedder.
    pub fn apply(&mut self, plan: ShedPlan) {
        if !plan.active || plan.events_to_drop <= 0.0 {
            self.deactivate();
            return;
        }
        self.last_plan = Some(plan);
        self.stats.plans_applied += 1;
        self.compiled.invalidate();
        let partitions = plan.partitions.max(1);
        let per_partition =
            self.thresholds_for(partitions, plan.events_to_drop, plan.partition_size);
        // Open windows keep their boundary accumulators across a re-plan
        // with the same partition count (most importantly the model swap
        // after retraining, which re-applies the current plan): the
        // accumulators carry each window's thinning *phase*, and resetting
        // it mid-window would re-seed every open window at ½ and skew the
        // realised boundary drops. A different partition count changes the
        // accumulator geometry, so those start fresh.
        let accumulators = match self.active.take() {
            Some(previous) if previous.partitions == partitions => previous.accumulators,
            _ => Vec::new(),
        };
        self.active = Some(ActiveShedding { partitions, per_partition, accumulators });
    }

    /// Stops shedding; every subsequent decision keeps the event.
    pub fn deactivate(&mut self) {
        self.active = None;
        self.compiled.invalidate();
    }
}

impl WindowEventDecider for EspiceShedder {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        self.stats.decisions += 1;
        let Some(active) = self.active.as_mut() else {
            return Decision::Keep;
        };
        let window_size = meta.predicted_size.max(1);
        let utility = self.model.utility(event.event_type(), position, window_size);
        let partition = self.model.partition_of(position, window_size, active.partitions);
        let part = &active.per_partition[partition];
        let drop = part.classify(utility).unwrap_or_else(|| {
            let accumulators = ActiveShedding::accumulators_for(
                &mut active.accumulators,
                active.partitions,
                (meta.query, meta.id),
            );
            part.thin_boundary(&mut accumulators[partition])
        });
        if drop {
            self.stats.drops += 1;
            Decision::Drop
        } else {
            Decision::Keep
        }
    }

    /// Batched fast path (Algorithm 2 over a whole assignment batch): the
    /// event's utility-table row is fetched once and the active-plan borrow,
    /// decision counting and per-decision type indexing are hoisted out of
    /// the per-window loop. Produces exactly the decisions the scalar
    /// [`decide`](WindowEventDecider::decide) would, in the same order.
    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        decisions.clear();
        self.stats.decisions += requests.len() as u64;
        let Some(active) = self.active.as_mut() else {
            decisions.resize(requests.len(), Decision::Keep);
            return;
        };
        decisions.reserve(requests.len());
        let partitions = active.partitions;
        let row = self.model.utility_row(event.event_type());
        let mut drops = 0u64;
        for request in requests {
            let window_size = request.meta.predicted_size.max(1);
            let utility = self.model.utility_in_row(row, request.position, window_size);
            let partition = self.model.partition_of(request.position, window_size, partitions);
            let part = &active.per_partition[partition];
            let drop = part.classify(utility).unwrap_or_else(|| {
                // Rare path: utility sits exactly on the threshold, so the
                // window's boundary accumulator decides.
                let accumulators = ActiveShedding::accumulators_for(
                    &mut active.accumulators,
                    partitions,
                    (request.meta.query, request.meta.id),
                );
                part.thin_boundary(&mut accumulators[partition])
            });
            if drop {
                drops += 1;
                decisions.push(Decision::Drop);
            } else {
                decisions.push(Decision::Keep);
            }
        }
        self.stats.drops += drops;
    }

    /// Span kernel: a straight-line walk of the compiled verdict table.
    ///
    /// The span's events occupy consecutive positions of one window, so
    /// after the (lazy, once-per-type) row compilation each decision is a
    /// single shift-and-mask load; drops are accumulated as monotone runs
    /// and appended via [`DropSet::push_run`]. Only the rare `Boundary`
    /// verdict falls back to the stateful per-window thinning accumulator —
    /// the same accumulator the scalar [`decide`] advances, so the two
    /// paths stay decision-for-decision identical.
    ///
    /// [`decide`]: WindowEventDecider::decide
    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        let EspiceShedder { model, active, compiled, stats, .. } = self;
        stats.decisions += events.len() as u64;
        let Some(active) = active.as_mut() else {
            return 0;
        };
        let window_size = meta.predicted_size.max(1);
        let partitions = active.partitions;
        let per_partition = &active.per_partition;
        let accumulators = &mut active.accumulators;
        let table = compiled.table_for(window_size, model.utility_table().num_types());
        // The whole span belongs to one window, so the boundary path's
        // per-window accumulator entry is resolved at most once per call
        // (lazily, so windows that never hit the boundary level still never
        // allocate one) instead of scanned per decision.
        let key = (meta.query, meta.id);
        let mut accumulator_index: Option<usize> = None;
        let mut dropped = 0usize;
        let mut run_start = 0usize;
        let mut run_len = 0usize;
        for (offset, event) in events.iter().enumerate() {
            let position = start_position + offset;
            let verdict = table.verdict(event.event_type(), position, |entry| {
                // Row compilation (first event of this type for this window
                // size): fold utility lookup, bin mapping, partition mapping
                // and threshold classification into the stored verdict.
                let utility = model.utility(event.event_type(), entry, window_size);
                let partition = model.partition_of(entry, window_size, partitions);
                match per_partition[partition].classify(utility) {
                    Some(true) => Verdict::Drop,
                    Some(false) => Verdict::Keep,
                    None => Verdict::Boundary,
                }
            });
            let drop = match verdict {
                Verdict::Keep => false,
                Verdict::Drop => true,
                Verdict::Boundary => {
                    let index = match accumulator_index {
                        Some(index) => index,
                        None => {
                            let index = match accumulators
                                .iter()
                                .position(|(window, _)| *window == key)
                            {
                                Some(index) => index,
                                None => {
                                    accumulators
                                        .push((key, vec![boundary_seed(key.1); partitions].into()));
                                    accumulators.len() - 1
                                }
                            };
                            accumulator_index = Some(index);
                            index
                        }
                    };
                    let partition = table.partition(position, |entry| {
                        model.partition_of(entry, window_size, partitions) as u32
                    });
                    per_partition[partition].thin_boundary(&mut accumulators[index].1[partition])
                }
            };
            if drop {
                if run_len == 0 {
                    run_start = position;
                }
                run_len += 1;
                dropped += 1;
            } else if run_len > 0 {
                drops.push_run(run_start, run_len);
                run_len = 0;
            }
        }
        if run_len > 0 {
            drops.push_run(run_start, run_len);
        }
        stats.drops += dropped as u64;
        dropped
    }

    /// Releases the closed window's boundary accumulators; with the
    /// per-window keying this is what keeps the accumulator map bounded by
    /// the number of concurrently open windows.
    fn window_closed(&mut self, meta: &WindowMeta, _size: usize) {
        if let Some(active) = self.active.as_mut() {
            active.release((meta.query, meta.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelBuilder, ModelConfig};
    use espice_cep::{ComplexEvent, Constituent, WindowMeta};
    use espice_events::{EventType, Timestamp};

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    fn meta(predicted: usize) -> WindowMeta {
        WindowMeta {
            id: 0,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: predicted,
        }
    }

    /// Builds a model over windows of 4 events of two types where type 0 at
    /// position 0 and type 1 at position 1 are the valuable cells.
    fn trained_model() -> UtilityModel {
        let config = ModelConfig::with_positions(4);
        let mut builder = ModelBuilder::new(config, 2);
        for w in 0..10u64 {
            let m = WindowMeta {
                id: w,
                query: 0,
                opened_at: Timestamp::ZERO,
                open_seq: 0,
                predicted_size: 4,
            };
            for pos in 0..4usize {
                let t = if pos % 2 == 0 { 0 } else { 1 };
                let e = Event::new(ty(t), Timestamp::from_secs(pos as u64), pos as u64);
                let _ = builder.decide(&m, pos, &e);
            }
            builder.window_closed(&m, 4);
            builder.observe_complex(&ComplexEvent::new(
                w,
                Timestamp::ZERO,
                vec![
                    Constituent { seq: 0, event_type: ty(0), position: 0 },
                    Constituent { seq: 1, event_type: ty(1), position: 1 },
                ],
            ));
        }
        builder.build()
    }

    #[test]
    fn inactive_shedder_keeps_everything() {
        let mut shedder = EspiceShedder::new(trained_model());
        let e = Event::new(ty(0), Timestamp::ZERO, 0);
        for pos in 0..4 {
            assert!(shedder.decide(&meta(4), pos, &e).is_keep());
        }
        assert_eq!(shedder.stats().decisions, 4);
        assert_eq!(shedder.stats().drops, 0);
    }

    #[test]
    fn active_shedder_drops_low_utility_positions_first() {
        let mut shedder = EspiceShedder::new(trained_model());
        // Drop 2 events per window (single partition): the zero-utility cells
        // (type 0 at odd positions, type 1 at even positions, positions 2/3)
        // must go first; the valuable cells must survive.
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        assert!(shedder.is_active());
        let e0 = Event::new(ty(0), Timestamp::ZERO, 0);
        let e1 = Event::new(ty(1), Timestamp::ZERO, 1);
        // Valuable cells are kept.
        assert!(shedder.decide(&meta(4), 0, &e0).is_keep());
        assert!(shedder.decide(&meta(4), 1, &e1).is_keep());
        // Worthless cells are dropped.
        assert!(!shedder.decide(&meta(4), 2, &e0).is_keep());
        assert!(!shedder.decide(&meta(4), 3, &e1).is_keep());
        assert!(!shedder.decide(&meta(4), 0, &e1).is_keep());
        assert!(shedder.stats().drop_ratio() > 0.0);
    }

    #[test]
    fn requesting_more_drops_than_events_drops_everything() {
        let mut shedder = EspiceShedder::new(trained_model());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 100.0,
        });
        let e0 = Event::new(ty(0), Timestamp::ZERO, 0);
        assert!(!shedder.decide(&meta(4), 0, &e0).is_keep());
        assert_eq!(shedder.thresholds(), vec![Some(100)]);
    }

    #[test]
    fn zero_drop_plan_deactivates() {
        let mut shedder = EspiceShedder::new(trained_model());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 0.0,
        });
        assert!(!shedder.is_active());
        shedder.apply(ShedPlan::inactive());
        assert!(!shedder.is_active());
    }

    #[test]
    fn partitioned_thresholds_are_computed_per_partition() {
        let mut shedder = EspiceShedder::new(trained_model());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 2,
            partition_size: 2,
            events_to_drop: 2.0,
        });
        let thresholds = shedder.thresholds();
        assert_eq!(thresholds.len(), 2);
        // First partition holds the valuable cells (positions 0, 1): dropping
        // two events there needs a non-trivial threshold; the second partition
        // is all zero-utility, so threshold 0 suffices.
        assert_eq!(thresholds[1], Some(0));
        assert!(thresholds[0] >= thresholds[1]);
        // Decisions land in the right partitions.
        let e0 = Event::new(ty(0), Timestamp::ZERO, 0);
        assert!(!shedder.decide(&meta(4), 2, &e0).is_keep());
    }

    #[test]
    fn variable_window_size_scales_positions() {
        let mut shedder = EspiceShedder::new(trained_model());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        // In a window predicted to hold 8 events, position 0 still maps to the
        // valuable first model position, position 7 to the worthless last one.
        let e0 = Event::new(ty(0), Timestamp::ZERO, 0);
        assert!(shedder.decide(&meta(8), 0, &e0).is_keep());
        assert!(!shedder.decide(&meta(8), 7, &e0).is_keep());
    }

    #[test]
    fn deactivate_and_reapply() {
        let mut shedder = EspiceShedder::new(trained_model());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        shedder.deactivate();
        let e0 = Event::new(ty(0), Timestamp::ZERO, 0);
        assert!(shedder.decide(&meta(4), 2, &e0).is_keep());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        assert!(!shedder.decide(&meta(4), 2, &e0).is_keep());
        assert_eq!(shedder.stats().plans_applied, 2);
    }

    #[test]
    fn decide_batch_matches_sequential_decides_exactly() {
        // A plan whose boundary fraction is non-trivial, so the accumulator
        // state matters and ordering differences would show up immediately.
        let plan = ShedPlan { active: true, partitions: 2, partition_size: 2, events_to_drop: 1.5 };
        let mut scalar = EspiceShedder::new(trained_model());
        let mut batched = EspiceShedder::new(trained_model());
        scalar.apply(plan);
        batched.apply(plan);

        for round in 0..50u64 {
            let event = Event::new(ty((round % 2) as u32), Timestamp::ZERO, round);
            let requests: Vec<BatchRequest> =
                (0..4).map(|position| BatchRequest { meta: meta(4), position }).collect();
            let expected: Vec<Decision> =
                requests.iter().map(|r| scalar.decide(&r.meta, r.position, &event)).collect();
            let mut decisions = Vec::new();
            batched.decide_batch(&event, &requests, &mut decisions);
            assert_eq!(decisions, expected, "diverged in round {round}");
        }
        assert_eq!(scalar.stats(), batched.stats());
        assert!(batched.stats().drops > 0);
    }

    #[test]
    fn decide_batch_keeps_everything_when_inactive() {
        let mut shedder = EspiceShedder::new(trained_model());
        let event = Event::new(ty(0), Timestamp::ZERO, 0);
        let requests: Vec<BatchRequest> =
            (0..3).map(|position| BatchRequest { meta: meta(4), position }).collect();
        let mut decisions = Vec::new();
        shedder.decide_batch(&event, &requests, &mut decisions);
        assert_eq!(decisions, vec![Decision::Keep; 3]);
        assert_eq!(shedder.stats().decisions, 3);
        assert_eq!(shedder.stats().drops, 0);
    }

    fn meta_for(id: u64, predicted: usize) -> WindowMeta {
        WindowMeta {
            id,
            query: 0,
            opened_at: Timestamp::ZERO,
            open_seq: 0,
            predicted_size: predicted,
        }
    }

    #[test]
    fn decide_span_matches_sequential_decides_exactly() {
        // Non-trivial boundary fraction so accumulator state matters, two
        // partitions so the partition mapping is exercised, and window
        // sizes alternating between 4 and 8 so the size-table cache holds
        // more than one table at once.
        let plan = ShedPlan { active: true, partitions: 2, partition_size: 2, events_to_drop: 1.5 };
        let mut scalar = EspiceShedder::new(trained_model());
        let mut kernel = EspiceShedder::new(trained_model());
        scalar.apply(plan);
        kernel.apply(plan);

        let mut seq = 0u64;
        for window in 0..40u64 {
            let m = meta_for(window, if window % 3 == 0 { 8 } else { 4 });
            let start = (window % 5) as usize;
            let events: Vec<Event> = (0..7)
                .map(|i| {
                    seq += 1;
                    Event::new(ty(((start + i) % 2) as u32), Timestamp::ZERO, seq)
                })
                .collect();
            let mut expected = DropSet::new();
            let mut expected_count = 0;
            for (i, event) in events.iter().enumerate() {
                if !scalar.decide(&m, start + i, event).is_keep() {
                    expected.push(start + i);
                    expected_count += 1;
                }
            }
            let mut got = DropSet::new();
            let got_count = kernel.decide_span(&m, start, &events, &mut got);
            assert_eq!(got_count, expected_count, "window {window}");
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                expected.iter().collect::<Vec<_>>(),
                "window {window}"
            );
            scalar.window_closed(&m, start + 7);
            kernel.window_closed(&m, start + 7);
        }
        assert_eq!(scalar.stats(), kernel.stats());
        assert!(kernel.stats().drops > 0);
    }

    #[test]
    fn decide_span_keeps_everything_when_inactive() {
        let mut shedder = EspiceShedder::new(trained_model());
        let events: Vec<Event> = (0..5).map(|i| Event::new(ty(0), Timestamp::ZERO, i)).collect();
        let mut drops = DropSet::new();
        assert_eq!(shedder.decide_span(&meta(4), 0, &events, &mut drops), 0);
        assert!(drops.is_empty());
        assert_eq!(shedder.stats().decisions, 5);
        assert_eq!(shedder.stats().drops, 0);
    }

    #[test]
    fn reapplying_a_plan_invalidates_compiled_verdicts() {
        let mut shedder = EspiceShedder::new(trained_model());
        // Plan 1 keeps the valuable type-0 cell at position 0.
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        let e0 = vec![Event::new(ty(0), Timestamp::ZERO, 0)];
        let mut drops = DropSet::new();
        assert_eq!(shedder.decide_span(&meta(4), 0, &e0, &mut drops), 0);
        // Plan 2 requests more drops than exist: position 0 must now go. A
        // stale verdict table would keep returning the plan-1 verdict.
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 100.0,
        });
        let mut drops = DropSet::new();
        assert_eq!(shedder.decide_span(&meta(4), 0, &e0, &mut drops), 1);
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn set_model_preserves_boundary_accumulators() {
        // With one partition and 1.5 drops over the 2-mass zero-utility
        // level, the boundary fraction is 0.75: starting from the ½ seed the
        // thinning sequence is Drop (1.25 → 0.25), Drop (1.0 → 0.0), Keep
        // (0.75), … A mid-stream model swap must continue that sequence, not
        // re-seed it.
        let plan = ShedPlan { active: true, partitions: 1, partition_size: 4, events_to_drop: 1.5 };
        let mut swapped = EspiceShedder::new(trained_model());
        let mut control = EspiceShedder::new(trained_model());
        swapped.apply(plan);
        control.apply(plan);
        // A zero-utility cell (type 0 at position 2) sits exactly on the
        // threshold, so every decision goes through the accumulator.
        let boundary = Event::new(ty(0), Timestamp::ZERO, 0);
        assert!(!swapped.decide(&meta(4), 2, &boundary).is_keep());
        assert!(!control.decide(&meta(4), 2, &boundary).is_keep());
        assert_eq!(swapped.tracked_windows(), 1);
        // Retraining swap mid-window: the open window's accumulator (now at
        // 0.25) must survive.
        swapped.set_model(trained_model());
        assert!(swapped.is_active());
        assert_eq!(swapped.tracked_windows(), 1, "model swap reset live accumulators");
        for round in 0..8 {
            assert_eq!(
                swapped.decide(&meta(4), 2, &boundary),
                control.decide(&meta(4), 2, &boundary),
                "thinning phase diverged after the swap (round {round})"
            );
        }
        // A partition-count change does reset (different geometry).
        swapped.apply(ShedPlan { active: true, partitions: 2, partition_size: 2, ..plan });
        assert_eq!(swapped.tracked_windows(), 0);
    }

    #[test]
    fn shedder_stats_merge_sums_counters() {
        let a = ShedderStats { decisions: 10, drops: 4, plans_applied: 1 };
        let mut b = ShedderStats { decisions: 5, drops: 1, plans_applied: 2 };
        b.merge(&a);
        assert_eq!(b, ShedderStats { decisions: 15, drops: 5, plans_applied: 3 });
    }

    #[test]
    fn set_model_keeps_activation_state() {
        let mut shedder = EspiceShedder::new(trained_model());
        shedder.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: 4,
            events_to_drop: 2.0,
        });
        shedder.set_model(trained_model());
        assert!(shedder.is_active());
        let mut inactive = EspiceShedder::new(trained_model());
        inactive.set_model(trained_model());
        assert!(!inactive.is_active());
    }
}
