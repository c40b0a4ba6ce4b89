//! Warm-start schedule repair for mutating instances (cool-session).
//!
//! A deployed schedule rarely needs to be rebuilt from nothing: when a
//! delta touches only a few sensors, the rest of the assignment is still
//! the product of the same greedy order and can be kept verbatim. This
//! module re-greedies only the **dirty** sensors — those whose marginal
//! contribution may have changed — against per-slot evaluators warm-started
//! with every untouched sensor pinned to its previous slot.
//!
//! When the dirty fraction exceeds [`RepairConfig::full_threshold`] (or the
//! previous schedule is structurally incompatible with the new instance —
//! different mode, period length, or universe), repair re-solves from a
//! cold start, bit-for-bit what a cold solve produces. An **empty** dirty
//! set on a compatible instance returns the previous schedule unchanged,
//! also bit-for-bit. Both modes run the lazy driver of the crate's greedy
//! engine.
//!
//! The greedy step shares the tie-breaking total order of
//! [`crate::greedy`] (larger gain / smaller loss, then lower sensor, then
//! lower slot), so a full-dirty incremental repair and a scratch solve
//! agree exactly; partial repairs keep the ½-approximation guarantee
//! empirically (enforced by cool-check relation `COOL-E027`).

use crate::errors::ScheduleBuildError;
use crate::greedy::{lazy_slots, mode_of};
use crate::schedule::PeriodSchedule;
use cool_common::{SensorId, SensorSet};
use cool_energy::ChargeCycle;
use cool_utility::UtilityFunction;

/// Tuning knobs for [`repair_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Dirty-sensor fraction above which repair abandons the warm start
    /// and re-solves from scratch. `0.0` forces a full solve on any
    /// non-empty delta; `1.0` never falls back on size alone.
    pub full_threshold: f64,
}

impl RepairConfig {
    /// Default fallback threshold: re-solve when more than a quarter of
    /// the fleet is dirty (past that point the warm start saves little
    /// and the approximation drift is harder to reason about).
    pub const DEFAULT_FULL_THRESHOLD: f64 = 0.25;
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            full_threshold: Self::DEFAULT_FULL_THRESHOLD,
        }
    }
}

/// Which path [`repair_schedule`] actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Warm start: untouched sensors kept their slots, only dirty
    /// sensors were re-greedied.
    Incremental,
    /// Fallback: the instance was re-solved from a cold start with the
    /// same greedy a cold solve uses (bit-for-bit identical result).
    Full,
}

impl RepairMode {
    /// Stable label for metrics and logs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RepairMode::Incremental => "incremental",
            RepairMode::Full => "full",
        }
    }
}

/// Result of a repair: the schedule plus the decision telemetry the
/// session layer exports on `/metrics`. `S` is the schedule type: a
/// per-period [`PeriodSchedule`] here, a
/// [`FleetSchedule`](crate::hetero::FleetSchedule) for the LCM grid.
#[derive(Debug, Clone)]
pub struct RepairOutcome<S = PeriodSchedule> {
    /// The repaired schedule.
    pub schedule: S,
    /// Which path produced it.
    pub mode: RepairMode,
    /// Marginal-utility queries the greedy driver actually ran, in either
    /// mode: (sensor, slot) cells, or (sensor, tick) cells on the grid,
    /// re-evaluations included.
    pub cells_touched: u64,
    /// Size of the dirty set the caller passed in.
    pub dirty_sensors: usize,
}

/// Repairs `previous` after a mutation whose affected sensors are
/// `dirty`, against the **post-mutation** `utility` and `cycle`.
///
/// Contract (checked by cool-check relation `session-repair-equal`,
/// `COOL-E027`):
///
/// * empty `dirty` on a compatible instance → `previous` returned
///   bit-for-bit, zero cells touched;
/// * incompatible instance or dirty fraction above
///   [`RepairConfig::full_threshold`] → from-scratch greedy
///   ([`RepairMode::Full`]), bit-for-bit equal to a cold solve;
/// * otherwise → warm-start incremental repair, always feasible, value
///   within the greedy approximation bound of a cold solve.
///
/// # Errors
///
/// Returns [`ScheduleBuildError::EmptySlotCount`] (`COOL-E002`) when the
/// cycle has zero slots per period, and
/// [`ScheduleBuildError::NonFiniteGain`] (`COOL-E015`) when the utility
/// produces a NaN or infinite marginal value.
pub fn repair_schedule<U>(
    utility: &U,
    cycle: ChargeCycle,
    previous: &PeriodSchedule,
    dirty: &SensorSet,
    config: &RepairConfig,
) -> Result<RepairOutcome, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    let slots = cycle.slots_per_period();
    if slots == 0 {
        return Err(ScheduleBuildError::EmptySlotCount);
    }
    let n = utility.universe();
    let mode = mode_of(cycle);
    let compatible = previous.mode() == mode
        && previous.slots_per_period() == slots
        && previous.n_sensors() == n
        && dirty.universe() == n
        && previous.assignment().iter().all(|&t| t < slots);
    repair_with(
        previous,
        compatible,
        n,
        dirty,
        config.full_threshold,
        |v| previous.assignment()[v],
        |warm| lazy_slots(utility, slots, mode, warm, None),
    )
}

/// The repair decision both schedule shapes share: `previous` as is when
/// a compatible instance has nothing dirty; otherwise `solve` from a warm
/// start in which each clean sensor `v` keeps `kept(v)` and the dirty
/// ones are candidates — or from a cold start (every sensor a candidate)
/// when the instance is incompatible or too much of it is dirty.
pub(crate) fn repair_with<S: Clone>(
    previous: &S,
    compatible: bool,
    n: usize,
    dirty: &SensorSet,
    full_threshold: f64,
    kept: impl Fn(usize) -> usize,
    solve: impl FnOnce(&[Option<usize>]) -> Result<(S, u64), ScheduleBuildError>,
) -> Result<RepairOutcome<S>, ScheduleBuildError> {
    if compatible && dirty.is_empty() {
        return Ok(RepairOutcome {
            schedule: previous.clone(),
            mode: RepairMode::Incremental,
            cells_touched: 0,
            dirty_sensors: 0,
        });
    }
    let dirty_fraction = if n == 0 {
        0.0
    } else {
        dirty.len() as f64 / n as f64
    };
    let full = !compatible || dirty_fraction > full_threshold;
    let warm: Vec<Option<usize>> = (0..n)
        .map(|v| (!full && !dirty.contains(SensorId(v))).then(|| kept(v)))
        .collect();
    let (schedule, cells_touched) = solve(&warm)?;
    Ok(RepairOutcome {
        schedule,
        mode: if full {
            RepairMode::Full
        } else {
            RepairMode::Incremental
        },
        cells_touched,
        dirty_sensors: dirty.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule;
    use crate::problem::Problem;
    use crate::schedule::ScheduleMode;
    use cool_utility::{DetectionUtility, SumUtility};

    fn active_cycle() -> ChargeCycle {
        ChargeCycle::from_rho(3.0, 15.0).unwrap() // ρ = 3, T = 4
    }

    fn passive_cycle() -> ChargeCycle {
        ChargeCycle::from_minutes(45.0, 15.0).unwrap() // ρ = 1/3, T = 4
    }

    fn multi_target(n: usize) -> SumUtility {
        let targets: Vec<SensorSet> = (0..3)
            .map(|k| SensorSet::from_indices(n, (0..n).filter(|v| v % 3 == k)))
            .collect();
        SumUtility::multi_target_detection(&targets, 0.5)
    }

    #[test]
    fn empty_dirty_returns_previous_bit_for_bit() {
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(9);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = greedy_schedule(&problem);
            let outcome = repair_schedule(
                &utility,
                cycle,
                &previous,
                &SensorSet::new(9),
                &RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(outcome.mode, RepairMode::Incremental);
            assert_eq!(outcome.cells_touched, 0);
            assert_eq!(outcome.schedule.assignment(), previous.assignment());
            assert_eq!(outcome.schedule.mode(), previous.mode());
        }
    }

    #[test]
    fn all_dirty_full_fallback_equals_scratch() {
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(9);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = greedy_schedule(&problem);
            let outcome = repair_schedule(
                &utility,
                cycle,
                &previous,
                &SensorSet::full(9),
                &RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(outcome.mode, RepairMode::Full);
            assert_eq!(outcome.schedule.assignment(), previous.assignment());
        }
    }

    #[test]
    fn full_dirty_incremental_equals_scratch() {
        // With every sensor dirty and the threshold disabled, the warm
        // start degenerates to the naive greedy and must agree exactly.
        let config = RepairConfig {
            full_threshold: 1.0,
        };
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(9);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let scratch = greedy_schedule(&problem);
            let stale = PeriodSchedule::new(scratch.mode(), scratch.slots_per_period(), vec![0; 9]);
            let outcome =
                repair_schedule(&utility, cycle, &stale, &SensorSet::full(9), &config).unwrap();
            assert_eq!(outcome.mode, RepairMode::Incremental);
            assert_eq!(outcome.schedule.assignment(), scratch.assignment());
            assert!(outcome.cells_touched > 0);
        }
    }

    #[test]
    fn incremental_repair_is_feasible_and_near_scratch() {
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(12);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = greedy_schedule(&problem);
            let dirty = SensorSet::from_indices(12, [4, 7]);
            let outcome = repair_schedule(
                &utility,
                cycle,
                &previous,
                &dirty,
                &RepairConfig {
                    full_threshold: 0.5,
                },
            )
            .unwrap();
            assert_eq!(outcome.mode, RepairMode::Incremental);
            assert!(outcome.schedule.is_feasible(cycle));
            let repaired = outcome.schedule.period_utility(&utility);
            let scratch = previous.period_utility(&utility);
            assert!(
                repaired >= 0.5 * scratch - 1e-9,
                "repaired {repaired} below half of scratch {scratch}"
            );
        }
    }

    #[test]
    fn threshold_forces_full_resolve() {
        let cycle = active_cycle();
        let utility = multi_target(8);
        let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
        let previous = greedy_schedule(&problem);
        let dirty = SensorSet::from_indices(8, [0, 1, 2, 3]); // 50% dirty
        let outcome = repair_schedule(
            &utility,
            cycle,
            &previous,
            &dirty,
            &RepairConfig {
                full_threshold: 0.25,
            },
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Full);
        // The lazy re-solve reports the queries it ran: at least the
        // initial n·T, never more than the naive scan's T·n(n+1)/2.
        assert!((8 * 4..=4 * 8 * 9 / 2).contains(&outcome.cells_touched));
    }

    #[test]
    fn incompatible_previous_forces_full_resolve() {
        let cycle = active_cycle();
        let utility = multi_target(6);
        // Previous schedule from a different universe size.
        let stale = PeriodSchedule::new(ScheduleMode::ActiveSlot, 4, vec![0; 5]);
        let outcome = repair_schedule(
            &utility,
            cycle,
            &stale,
            &SensorSet::new(6),
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Full);
        let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
        assert_eq!(
            outcome.schedule.assignment(),
            greedy_schedule(&problem).assignment()
        );
    }

    #[test]
    fn detection_single_target_repair_matches_scratch_value() {
        let cycle = active_cycle();
        let utility = DetectionUtility::uniform(10, 0.4);
        let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
        let previous = greedy_schedule(&problem);
        let dirty = SensorSet::from_indices(10, [9]);
        let outcome =
            repair_schedule(&utility, cycle, &previous, &dirty, &RepairConfig::default()).unwrap();
        assert_eq!(outcome.mode, RepairMode::Incremental);
        assert!(outcome.schedule.is_feasible(cycle));
        // Uniform instance: re-placing one sensor greedily cannot lose
        // value relative to the previous schedule.
        assert!(
            outcome.schedule.period_utility(&utility) >= previous.period_utility(&utility) - 1e-9
        );
    }
}
