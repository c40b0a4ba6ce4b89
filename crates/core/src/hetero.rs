//! Greedy scheduling of heterogeneous fleets on the LCM tick grid.
//!
//! With per-sensor energy profiles there is no single `ρ` and no uniform
//! slot grid; scheduling happens on the [`FleetGrid`]: every sensor `v`
//! repeats a `P_v = d_v + r_v`-tick period inside the hyperperiod
//! `H = lcm(P_v)`, being active in one contiguous run of `d_v` ticks per
//! period. A periodic schedule is therefore one **phase** `φ_v ∈ 0..P_v`
//! per sensor — the tick its active run starts at ([`FleetSchedule`]).
//! Any phase vector is energy-feasible from a full battery (the run drains
//! exactly the battery at `1/d_v` per tick, the complement refills it at
//! `1/r_v`), which generalises the paper's Theorem 4.3 structure.
//!
//! The greedy generalises both homogeneous regimes in one pass:
//!
//! * **Phase A** — sensors with `ρ_v ≤ 1` (recharge no slower than
//!   discharge) start active in *every* tick, and the greedy carves out
//!   each one's passive run by **minimum decremental utility**, exactly
//!   like §IV-B but over `r_v`-tick runs;
//! * **Phase B** — sensors with `ρ_v > 1` are inserted run-by-run by
//!   **maximum incremental utility**, exactly like Algorithm 1 but over
//!   `d_v`-tick runs.
//!
//! Both phases are one climb of the crate's greedy engine (see
//! [`crate::greedy`]) over run-shaped moves: a sensor picks one run start
//! on its own period — the set-once shape of Set-Once Strip Cover. The
//! lazy driver ([`hetero_greedy_lazy`], [`repair_fleet_schedule`], `cool
//! run`) is the production path, stamping each move with the sum of its
//! ticks' versions; the naive rescan ([`hetero_greedy_naive`]) is its
//! oracle.
//!
//! On a fleet whose profiles are all identical, Phase A candidates are
//! enumerated by passive-run start and Phase B candidates by active-run
//! start, in the same `(value, sensor, slot)` total order as
//! [`crate::greedy`] — so the schedule reduces **bit-for-bit** to
//! [`greedy_active_naive`](crate::greedy::greedy_active_naive) /
//! [`greedy_passive_naive`](crate::greedy::greedy_passive_naive) under the
//! canonical phase mapping ([`phases_from_period_schedule`]). `cool-check`
//! pins this as relation `hetero-homog-reduce` (COOL-E028).

use crate::engine::{Driver, Insert, Lazy, MoveSpace, Naive, Remove};
use crate::errors::ScheduleBuildError;
use crate::repair::{repair_with, RepairConfig, RepairOutcome};
use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::{SensorId, SensorSet};
use cool_energy::{tick_transition, FleetGrid};
use cool_utility::{Evaluator, UtilityFunction};
use std::fmt;

/// A periodic heterogeneous schedule: `phases[v] ∈ 0..P_v` is the tick
/// (within sensor `v`'s own period) where its active run starts.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSchedule {
    grid: FleetGrid,
    phases: Vec<usize>,
}

impl FleetSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics when the phase count differs from the grid's sensor count or
    /// any phase is outside its sensor's period.
    pub fn new(grid: FleetGrid, phases: Vec<usize>) -> Self {
        assert_eq!(phases.len(), grid.n_sensors(), "one phase per sensor");
        for (v, &phase) in phases.iter().enumerate() {
            assert!(
                phase < grid.period_ticks(v),
                "phase {phase} outside sensor {v}'s period {}",
                grid.period_ticks(v)
            );
        }
        FleetSchedule { grid, phases }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &FleetGrid {
        &self.grid
    }

    /// The per-sensor active-run start ticks.
    pub fn phases(&self) -> &[usize] {
        &self.phases
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.phases.len()
    }

    /// Is sensor `v` active at grid tick `tick`?
    pub fn is_active(&self, v: usize, tick: usize) -> bool {
        self.grid.active_at(v, self.phases[v], tick)
    }

    /// The active set at grid tick `tick`.
    pub fn active_set(&self, tick: usize) -> SensorSet {
        let mut set = SensorSet::new(self.phases.len());
        for v in 0..self.phases.len() {
            if self.is_active(v, tick) {
                set.insert(SensorId(v));
            }
        }
        set
    }

    /// Total utility over one hyperperiod, `Σ_{t<H} U(S(t))`.
    ///
    /// # Panics
    ///
    /// Panics if the utility universe does not match the sensor count.
    pub fn hyperperiod_utility<U: UtilityFunction>(&self, utility: &U) -> f64 {
        assert_eq!(
            utility.universe(),
            self.phases.len(),
            "utility universe does not match schedule"
        );
        (0..self.grid.hyperperiod())
            .map(|t| utility.eval(&self.active_set(t)))
            .sum()
    }

    /// Materialises the periodic pattern as explicit per-tick sets.
    pub fn to_grid_schedule(&self) -> GridSchedule {
        GridSchedule::new(
            (0..self.grid.hyperperiod())
                .map(|t| self.active_set(t))
                .collect(),
        )
    }

    /// Replays every sensor's battery automaton (its own per-tick rates)
    /// through two hyperperiods from a full charge; `true` when every
    /// activation request is honoured, including across the wrap.
    pub fn is_feasible(&self) -> bool {
        self.to_grid_schedule().is_feasible(&self.grid)
    }
}

impl fmt::Display for FleetSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FleetSchedule (H={} ticks of {}min):",
            self.grid.hyperperiod(),
            self.grid.tick_minutes()
        )?;
        for t in 0..self.grid.hyperperiod() {
            let set = self.active_set(t);
            write!(f, "  t{t}: ")?;
            for (k, v) in set.iter().enumerate() {
                if k > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An explicit per-tick activation table over one hyperperiod — the
/// representation for schedules that are *not* periodic per sensor period,
/// like the single-run literature baselines (RSC, Set-Once Strip Cover).
/// Replay is cyclic: tick `t` of hyperperiod `k` shows `active[t]`.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSchedule {
    active: Vec<SensorSet>,
}

impl GridSchedule {
    /// Creates a schedule from per-tick active sets.
    ///
    /// # Panics
    ///
    /// Panics on an empty tick list or mismatched universes.
    pub fn new(active: Vec<SensorSet>) -> Self {
        assert!(!active.is_empty(), "need at least one tick");
        let universe = active[0].universe();
        assert!(
            active.iter().all(|s| s.universe() == universe),
            "all ticks must share one sensor universe"
        );
        GridSchedule { active }
    }

    /// Ticks per hyperperiod.
    pub fn hyperperiod(&self) -> usize {
        self.active.len()
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.active[0].universe()
    }

    /// The active set at tick `tick`.
    pub fn active_set(&self, tick: usize) -> &SensorSet {
        &self.active[tick]
    }

    /// Is sensor `v` active at tick `tick`?
    pub fn is_active(&self, v: usize, tick: usize) -> bool {
        self.active[tick].contains(SensorId(v))
    }

    /// Total utility over one hyperperiod.
    ///
    /// # Panics
    ///
    /// Panics if the utility universe does not match the sensor count.
    pub fn hyperperiod_utility<U: UtilityFunction>(&self, utility: &U) -> f64 {
        assert_eq!(
            utility.universe(),
            self.n_sensors(),
            "utility universe does not match schedule"
        );
        self.active.iter().map(|s| utility.eval(s)).sum()
    }

    /// Replays every sensor's battery automaton (per-tick drain `1/d_v`,
    /// refill `1/r_v` of its own capacity) through two cyclic hyperperiods
    /// from a full charge; `true` when every activation is honoured.
    pub fn is_feasible(&self, grid: &FleetGrid) -> bool {
        if grid.n_sensors() != self.n_sensors() || grid.hyperperiod() != self.hyperperiod() {
            return false;
        }
        let h = self.hyperperiod();
        (0..self.n_sensors()).all(|v| {
            let need = grid.need_per_tick(v);
            let refill = grid.refill_per_tick(v);
            let mut fraction = 1.0;
            for tick in 0..2 * h {
                let want = self.is_active(v, tick % h);
                let out = tick_transition(need, refill, fraction, want, 0.0, 0.0);
                if want && !out.active {
                    return false;
                }
                fraction = out.fraction;
            }
            true
        })
    }
}

/// Maps a homogeneous [`PeriodSchedule`] onto a **uniform** fleet grid's
/// phase vector:
///
/// * active mode (`ρ > 1`, `d_v = 1`): the assigned slot *is* the active
///   run start, `φ_v = slot`;
/// * passive mode (`ρ ≤ 1`, `r_v = 1`): the active run starts right after
///   the assigned passive slot, `φ_v = (slot + 1) mod P`.
///
/// # Panics
///
/// Panics when the grid is not the schedule's uniform slot structure
/// (hyperperiod ≠ slots per period, or run lengths inconsistent with the
/// mode).
pub fn phases_from_period_schedule(grid: &FleetGrid, schedule: &PeriodSchedule) -> Vec<usize> {
    let p = schedule.slots_per_period();
    assert_eq!(grid.hyperperiod(), p, "grid is not the uniform slot grid");
    assert_eq!(grid.n_sensors(), schedule.n_sensors());
    (0..schedule.n_sensors())
        .map(|v| {
            assert_eq!(grid.period_ticks(v), p, "sensor {v} period mismatch");
            match schedule.mode() {
                ScheduleMode::ActiveSlot => {
                    assert_eq!(grid.discharge_ticks(v), 1, "active mode needs d_v = 1");
                    schedule.assignment()[v]
                }
                ScheduleMode::PassiveSlot => {
                    assert_eq!(grid.recharge_ticks(v), 1, "passive mode needs r_v = 1");
                    (schedule.assignment()[v] + 1) % p
                }
            }
        })
        .collect()
}

/// The grid ticks of one per-period run (start `start`, length `len`,
/// period `period`), repeated over every period in the hyperperiod, in
/// canonical order: period by period, then run-relative offset ascending
/// (wrapping within the period). Summation order over these ticks is part
/// of the bit-for-bit contract between the naive and lazy drivers.
fn run_ticks(
    period: usize,
    start: usize,
    len: usize,
    hyperperiod: usize,
) -> impl Iterator<Item = usize> {
    (0..hyperperiod / period)
        .flat_map(move |k| (0..len).map(move |j| k * period + (start + j) % period))
}

/// The fleet greedy's moves: a sensor picks the start tick of its run
/// within its own period; the move touches that run in every period of
/// the hyperperiod. With `.1` set the runs are `r_v`-tick passive runs
/// (Phase A), otherwise `d_v`-tick active runs (Phase B).
pub(crate) struct Runs<'g>(pub(crate) &'g FleetGrid, pub(crate) bool);

impl MoveSpace for Runs<'_> {
    fn starts(&self, v: usize) -> usize {
        self.0.period_ticks(v)
    }

    fn cells(&self, v: usize, start: usize) -> impl Iterator<Item = usize> {
        let Runs(grid, passive) = *self;
        let len = if passive {
            grid.recharge_ticks(v)
        } else {
            grid.discharge_ticks(v)
        };
        run_ticks(grid.period_ticks(v), start, len, grid.hyperperiod())
    }
}

/// Tick `t`'s evaluator at the start of a climb: a sensor pinned to a
/// phase follows its periodic pattern; a candidate starts active in every
/// tick when passive-kind (Phase A carves out its passive run) and absent
/// when active-kind (Phase B inserts its active run).
pub(crate) fn fleet_evaluator<U: UtilityFunction>(
    utility: &U,
    grid: &FleetGrid,
    passive: &[bool],
    warm: &[Option<usize>],
    t: usize,
) -> U::Evaluator {
    let mut e = utility.evaluator();
    for (v, &phase) in warm.iter().enumerate() {
        if phase.map_or(passive[v], |phase| grid.active_at(v, phase, t)) {
            e.insert(SensorId(v));
        }
    }
    e
}

/// The two-phase fleet climb from `warm` (`warm[v] = Some(φ)` pins sensor
/// `v` to phase `φ`, `None` makes it a candidate): Phase A, then Phase B,
/// both run by `driver`. Returns the schedule and the per-tick queries run.
fn climb_fleet<U: UtilityFunction>(
    driver: &impl Driver<U::Evaluator>,
    utility: &U,
    grid: &FleetGrid,
    warm: &[Option<usize>],
) -> Result<(FleetSchedule, u64), ScheduleBuildError> {
    let n = grid.n_sensors();
    assert_eq!(
        utility.universe(),
        n,
        "utility universe does not match grid"
    );
    // The two regimes, as the homogeneous dispatcher splits them: ρ_v > 1
    // is active-kind (Phase B), anything else passive-kind (Phase A).
    let passive: Vec<bool> = (0..n).map(|v| grid.cycle(v).rho() <= 1.0).collect();
    let mut evaluators: Vec<U::Evaluator> = (0..grid.hyperperiod())
        .map(|t| fleet_evaluator(utility, grid, &passive, warm, t))
        .collect();
    let candidates = |kind: bool| -> Vec<usize> {
        (0..n)
            .filter(|&v| warm[v].is_none() && passive[v] == kind)
            .collect()
    };
    let (passive_runs, active_runs) = (Runs(grid, true), Runs(grid, false));
    let phase_a = driver.climb(Remove, &passive_runs, &mut evaluators, &candidates(true))?;
    let phase_b = driver.climb(Insert, &active_runs, &mut evaluators, &candidates(false))?;
    // Both phases place every candidate or error, so no `MAX` is left.
    let mut phases: Vec<usize> = warm.iter().map(|p| p.unwrap_or(usize::MAX)).collect();
    // A passive run starting at ψ leaves the active run starting at ψ + r_v.
    for (v, psi) in phase_a.picks {
        phases[v] = (psi + grid.recharge_ticks(v)) % grid.period_ticks(v);
    }
    for (v, phi) in phase_b.picks {
        phases[v] = phi;
    }
    Ok((
        FleetSchedule::new(grid.clone(), phases),
        phase_a.queries + phase_b.queries,
    ))
}

/// The two-phase heterogeneous greedy (see the module docs) with the
/// naive oracle. Deterministic: ties break toward the lower sensor index,
/// then the lower run-start tick — the same total order as
/// [`crate::greedy`].
///
/// # Errors
///
/// [`ScheduleBuildError::NonFiniteGain`] when the utility produces a NaN
/// or infinite marginal value.
///
/// # Panics
///
/// Panics when the utility universe does not match the grid.
pub fn hetero_greedy_naive<U: UtilityFunction>(
    utility: &U,
    grid: &FleetGrid,
) -> Result<FleetSchedule, ScheduleBuildError> {
    let cold = vec![None; grid.n_sensors()];
    climb_fleet(&Naive, utility, grid, &cold).map(|(schedule, _)| schedule)
}

/// The two-phase heterogeneous greedy with the lazy driver, the
/// production path; identical output to [`hetero_greedy_naive`] (asserted
/// by this module's property tests and the `cool-check` differential
/// relation).
///
/// # Errors
///
/// As [`hetero_greedy_naive`].
///
/// # Panics
///
/// Panics when the utility universe does not match the grid.
pub fn hetero_greedy_lazy<U: UtilityFunction<Evaluator: Sync>>(
    utility: &U,
    grid: &FleetGrid,
) -> Result<FleetSchedule, ScheduleBuildError> {
    let cold = vec![None; grid.n_sensors()];
    climb_fleet(&Lazy { threads: None }, utility, grid, &cold).map(|(schedule, _)| schedule)
}

/// Result of a heterogeneous warm-start repair — the grid form of
/// [`RepairOutcome`].
pub type FleetRepairOutcome = RepairOutcome<FleetSchedule>;

/// Warm-start repair on the LCM grid, mirroring the contract of
/// [`crate::repair::repair_schedule`]:
///
/// * empty `dirty` on a compatible previous schedule → returned
///   bit-for-bit, zero cells;
/// * incompatible grid or dirty fraction above
///   [`RepairConfig::full_threshold`] → from-scratch greedy, identical to
///   [`hetero_greedy_lazy`]
///   ([`RepairMode::Full`](crate::repair::RepairMode::Full));
/// * otherwise → clean sensors pinned to their previous phases, only the
///   dirty ones re-greedied (Phase A then Phase B over the dirty subset).
///
/// Both modes run the lazy driver.
///
/// # Errors
///
/// As [`hetero_greedy_naive`].
///
/// # Panics
///
/// Panics when the utility universe does not match the grid.
pub fn repair_fleet_schedule<U: UtilityFunction<Evaluator: Sync>>(
    utility: &U,
    grid: &FleetGrid,
    previous: &FleetSchedule,
    dirty: &SensorSet,
    config: &RepairConfig,
) -> Result<FleetRepairOutcome, ScheduleBuildError> {
    let n = grid.n_sensors();
    // A utility over another universe takes the full path, whose climb
    // panics on the mismatch.
    let compatible = utility.universe() == n
        && previous.grid() == grid
        && previous.n_sensors() == n
        && dirty.universe() == n;
    repair_with(
        previous,
        compatible,
        n,
        dirty,
        config.full_threshold,
        |v| previous.phases()[v],
        |warm| climb_fleet(&Lazy { threads: None }, utility, grid, warm),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_active_naive, greedy_passive_naive};
    use crate::repair::RepairMode;
    use cool_common::SeedSequence;
    use cool_energy::{ChargeCycle, Fleet};
    use cool_utility::DetectionUtility;
    use proptest::prelude::*;

    fn uniform_grid(n: usize, cycle: ChargeCycle) -> FleetGrid {
        FleetGrid::build(&Fleet::uniform_from_cycle(n, cycle).unwrap()).unwrap()
    }

    fn mixed_grid() -> FleetGrid {
        // (15,45) ρ=3, (30,90) ρ=3 double battery, (15,15) ρ=1, (30,15) ρ=1/2.
        let cycles = vec![
            ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
            ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
        ];
        FleetGrid::build(&Fleet::from_cycles(cycles).unwrap()).unwrap()
    }

    #[test]
    fn uniform_active_fleet_reduces_to_homogeneous_greedy() {
        let seq = SeedSequence::new(91);
        let cycle = ChargeCycle::paper_sunny();
        for trial in 0..10u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 8);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let grid = uniform_grid(n, cycle);
            let homog = greedy_active_naive(&u, cycle.slots_per_period()).unwrap();
            let hetero = hetero_greedy_naive(&u, &grid).unwrap();
            assert_eq!(
                hetero.phases(),
                phases_from_period_schedule(&grid, &homog).as_slice(),
                "trial {trial}: hetero did not reduce to the homogeneous active greedy"
            );
        }
    }

    #[test]
    fn uniform_passive_fleet_reduces_to_homogeneous_greedy() {
        let seq = SeedSequence::new(92);
        let cycle = ChargeCycle::from_minutes(45.0, 15.0).unwrap(); // ρ = 1/3
        for trial in 0..10u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 8);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let grid = uniform_grid(n, cycle);
            let homog = greedy_passive_naive(&u, cycle.slots_per_period()).unwrap();
            let hetero = hetero_greedy_naive(&u, &grid).unwrap();
            assert_eq!(
                hetero.phases(),
                phases_from_period_schedule(&grid, &homog).as_slice(),
                "trial {trial}: hetero did not reduce to the homogeneous passive greedy"
            );
        }
    }

    #[test]
    fn mixed_fleet_schedule_is_feasible_and_periodic() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let s = hetero_greedy_naive(&u, &grid).unwrap();
        assert!(s.is_feasible());
        let h = grid.hyperperiod();
        assert_eq!(h, 24); // lcm(4, 8, 2, 3)
        for v in 0..4 {
            let active = (0..h).filter(|&t| s.is_active(v, t)).count();
            assert_eq!(
                active,
                grid.discharge_ticks(v) * grid.runs_per_hyperperiod(v),
                "sensor {v} duty cycle"
            );
        }
        // The ρ ≤ 1 sensors went through Phase A, the ρ > 1 ones through
        // Phase B; every phase is in range (checked by the constructor).
        assert_eq!(s.phases().len(), 4);
    }

    #[test]
    fn grid_schedule_round_trip_and_feasibility() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let s = hetero_greedy_naive(&u, &grid).unwrap();
        let g = s.to_grid_schedule();
        assert_eq!(g.hyperperiod(), grid.hyperperiod());
        assert!(g.is_feasible(&grid));
        assert!(
            (g.hyperperiod_utility(&u) - s.hyperperiod_utility(&u)).abs() < 1e-12,
            "materialised utility must match"
        );
        // An always-on sensor is energy-infeasible.
        let bad = GridSchedule::new(vec![SensorSet::full(4); grid.hyperperiod()]);
        assert!(!bad.is_feasible(&grid));
    }

    #[test]
    fn repair_empty_dirty_is_identity() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let previous = hetero_greedy_naive(&u, &grid).unwrap();
        let outcome = repair_fleet_schedule(
            &u,
            &grid,
            &previous,
            &SensorSet::new(4),
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Incremental);
        assert_eq!(outcome.cells_touched, 0);
        assert_eq!(outcome.schedule, previous);
    }

    #[test]
    fn repair_full_dirty_incremental_equals_scratch() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let scratch = hetero_greedy_naive(&u, &grid).unwrap();
        let stale = FleetSchedule::new(grid.clone(), vec![0; 4]);
        let outcome = repair_fleet_schedule(
            &u,
            &grid,
            &stale,
            &SensorSet::full(4),
            &RepairConfig {
                full_threshold: 1.0,
            },
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Incremental);
        assert_eq!(outcome.schedule.phases(), scratch.phases());
        assert!(outcome.cells_touched > 0);
    }

    #[test]
    fn repair_threshold_and_incompatibility_force_full() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let previous = hetero_greedy_naive(&u, &grid).unwrap();
        // 50% dirty over a 25% threshold → Full.
        let outcome = repair_fleet_schedule(
            &u,
            &grid,
            &previous,
            &SensorSet::from_indices(4, [0, 1]),
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Full);
        assert_eq!(outcome.schedule.phases(), previous.phases());
        // Previous schedule from a different grid → Full even when clean.
        let other = uniform_grid(4, ChargeCycle::paper_sunny());
        let foreign = hetero_greedy_naive(&u, &other).unwrap();
        let outcome = repair_fleet_schedule(
            &u,
            &grid,
            &foreign,
            &SensorSet::new(4),
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Full);
    }

    #[test]
    fn repair_partial_dirty_keeps_clean_phases() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let previous = hetero_greedy_naive(&u, &grid).unwrap();
        let dirty = SensorSet::from_indices(4, [2]);
        let outcome = repair_fleet_schedule(
            &u,
            &grid,
            &previous,
            &dirty,
            &RepairConfig {
                full_threshold: 0.5,
            },
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Incremental);
        assert!(outcome.schedule.is_feasible());
        for v in [0usize, 1, 3] {
            assert_eq!(outcome.schedule.phases()[v], previous.phases()[v]);
        }
    }

    #[test]
    fn display_lists_ticks() {
        let grid = uniform_grid(2, ChargeCycle::paper_sunny());
        let s = hetero_greedy_naive(&DetectionUtility::uniform(2, 0.4), &grid).unwrap();
        let text = s.to_string();
        assert!(text.contains("H=4 ticks"));
        assert!(text.contains("t0:"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lazy CELF variant agrees with the naive two-phase greedy on
        /// arbitrary mixed fleets (phase-identical, not just equal value).
        #[test]
        fn hetero_lazy_equals_naive(
            n_extra in 0usize..5,
            m in 1usize..3,
            seed in any::<u64>(),
        ) {
            let mut cycles = vec![
                ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
                ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
                ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
                ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
            ];
            for k in 0..n_extra {
                cycles.push(cycles[k % 4]);
            }
            let n = cycles.len();
            let grid = FleetGrid::build(&Fleet::from_cycles(cycles).unwrap()).unwrap();
            let mut rng = SeedSequence::new(seed).nth_rng(4);
            let u = crate::instances::random_multi_target(n, m, 0.5, 0.4, &mut rng);
            let naive = hetero_greedy_naive(&u, &grid).unwrap();
            let lazy = hetero_greedy_lazy(&u, &grid).unwrap();
            prop_assert_eq!(naive.phases(), lazy.phases());
            prop_assert!(naive.is_feasible());
        }

        /// Uniform fleets: the hetero path (naive AND lazy) reduces
        /// bit-for-bit to the homogeneous greedy of the matching regime.
        #[test]
        fn uniform_reduction_both_variants(
            n in 1usize..10,
            ratio in 1usize..4,
            invert in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let rho = if invert { 1.0 / ratio as f64 } else { ratio as f64 };
            let cycle = ChargeCycle::from_rho(rho, 10.0).unwrap();
            let grid = uniform_grid(n, cycle);
            let mut rng = SeedSequence::new(seed).nth_rng(5);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.5, &mut rng);
            let homog = if cycle.rho() > 1.0 {
                greedy_active_naive(&u, cycle.slots_per_period()).unwrap()
            } else {
                greedy_passive_naive(&u, cycle.slots_per_period()).unwrap()
            };
            let expected = phases_from_period_schedule(&grid, &homog);
            let naive = hetero_greedy_naive(&u, &grid).unwrap();
            let lazy = hetero_greedy_lazy(&u, &grid).unwrap();
            prop_assert_eq!(naive.phases(), expected.as_slice());
            prop_assert_eq!(lazy.phases(), expected.as_slice());
        }
    }
}
