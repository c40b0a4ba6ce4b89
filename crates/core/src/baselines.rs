//! Baseline schedulers the greedy is compared against.
//!
//! The paper's testbed evaluation reports greedy vs. the optimal/upper
//! bound; the ablation harness additionally contrasts these standard
//! baselines:
//!
//! * [`random_schedule`] — each sensor picks a uniform slot (what naive
//!   duty-cycling without coordination does);
//! * [`round_robin_schedule`] — sensor `i` takes slot `i mod T`
//!   (coordination by index only, coverage-blind);
//! * [`static_schedule`] — everyone activates in slot 0 (the "no
//!   scheduling" strawman: burn together, recharge together).
//!
//! For heterogeneous fleets on the LCM tick grid the harness also carries
//! the duty-cycling literature's strip-cover family (sensors as "strips"
//! of battery lifetime laid over the timeline):
//!
//! * [`rsc_schedule`] — Restricted Strip Covering (Buchsbaum, Efrat, Jain,
//!   Venkatasubramanian, Yi, *SODA 2007* / Algorithmica 2009): sensors in
//!   decreasing lifetime order each place **one** contiguous active run,
//!   greedily maximising marginal utility;
//! * [`set_once_schedule`] — Set-Once Strip Cover (Bar-Noy, Baumer,
//!   Rawitz, *Theory Comput. Syst.* 2017): each sensor commits to a single
//!   activation time irrevocably, in index order, load-balancing the
//!   timeline without looking at the utility;
//! * [`hef_schedule`] — High-Energy-First (Manju & Pujari's battery-aware
//!   target-coverage heuristic, *ICDCIT 2011* lineage): sensors in
//!   decreasing battery-capacity order each pick the periodic phase of
//!   maximum marginal utility.
//!
//! RSC and Set-Once return a [`GridSchedule`] (one run per hyperperiod is
//! always energy-feasible since `H − d_v ≥ r_v`); HEF returns a periodic
//! [`FleetSchedule`] like the greedy. `cool-check` relation
//! `baseline-sound` (COOL-E029) replays all three through the energy
//! automaton and caps them by the duty-cycle upper bound.

use crate::errors::ScheduleBuildError;
use crate::greedy::mode_of;
use crate::hetero::{FleetSchedule, GridSchedule};
use crate::problem::Problem;
use crate::schedule::PeriodSchedule;
use cool_common::{SensorId, SensorSet};
use cool_energy::{Fleet, FleetGrid};
use cool_utility::{Evaluator, UtilityFunction};
use rand::Rng;

/// Uniform random slot per sensor.
///
/// # Examples
///
/// ```
/// use cool_core::{baselines::random_schedule, problem::Problem};
/// use cool_common::SeedSequence;
/// use cool_energy::ChargeCycle;
/// use cool_utility::DetectionUtility;
///
/// let p = Problem::new(DetectionUtility::uniform(10, 0.4),
///                      ChargeCycle::paper_sunny(), 1).unwrap();
/// let s = random_schedule(&p, &mut SeedSequence::new(0).nth_rng(0));
/// assert!(s.is_feasible(p.cycle()));
/// ```
pub fn random_schedule<U: UtilityFunction, R: Rng + ?Sized>(
    problem: &Problem<U>,
    rng: &mut R,
) -> PeriodSchedule {
    let t = problem.slots_per_period();
    let assignment = (0..problem.n_sensors())
        .map(|_| rng.random_range(0..t))
        .collect();
    PeriodSchedule::new(mode_of(problem.cycle()), t, assignment)
}

/// Sensor `i` takes slot `i mod T`.
pub fn round_robin_schedule<U: UtilityFunction>(problem: &Problem<U>) -> PeriodSchedule {
    let t = problem.slots_per_period();
    let assignment = (0..problem.n_sensors()).map(|i| i % t).collect();
    PeriodSchedule::new(mode_of(problem.cycle()), t, assignment)
}

/// Everyone in slot 0: all sensors active together (ρ > 1) or all passive
/// together (ρ ≤ 1).
pub fn static_schedule<U: UtilityFunction>(problem: &Problem<U>) -> PeriodSchedule {
    let t = problem.slots_per_period();
    PeriodSchedule::new(mode_of(problem.cycle()), t, vec![0; problem.n_sensors()])
}

/// Queries a marginal gain, surfacing NaN/∞ as the scheduler's typed error.
fn finite_gain<E: Evaluator>(eval: &E, v: usize, tick: usize) -> Result<f64, ScheduleBuildError> {
    let g = eval.gain(SensorId(v));
    if !g.is_finite() {
        return Err(ScheduleBuildError::NonFiniteGain {
            sensor: v,
            slot: tick,
            value: g,
        });
    }
    Ok(g)
}

/// High-Energy-First: sensors in decreasing battery capacity (ties toward
/// the lower index) each commit to the periodic phase of maximum marginal
/// utility over their active run (ties toward the lower phase). The
/// intuition from the battery-aware coverage literature: big batteries
/// have the longest runs, so let them claim the best ticks first.
///
/// # Errors
///
/// [`ScheduleBuildError::NonFiniteGain`] when the utility produces a NaN
/// or infinite marginal value.
///
/// # Panics
///
/// Panics when the utility universe, fleet, and grid sizes disagree.
pub fn hef_schedule<U: UtilityFunction>(
    utility: &U,
    fleet: &Fleet,
    grid: &FleetGrid,
) -> Result<FleetSchedule, ScheduleBuildError> {
    let n = grid.n_sensors();
    assert_eq!(fleet.len(), n, "fleet does not match grid");
    assert_eq!(
        utility.universe(),
        n,
        "utility universe does not match grid"
    );
    let h = grid.hyperperiod();
    let mut evaluators: Vec<U::Evaluator> = (0..h).map(|_| utility.evaluator()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        fleet.profiles()[b]
            .battery
            .partial_cmp(&fleet.profiles()[a].battery)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    let mut phases = vec![0usize; n];
    for &v in &order {
        let (p, d) = (grid.period_ticks(v), grid.discharge_ticks(v));
        // (gain, phi); gains are finite, so phase 0 always replaces the seed.
        let mut best = (f64::NEG_INFINITY, 0usize);
        for phi in 0..p {
            let mut gain = 0.0;
            for k in 0..h / p {
                for j in 0..d {
                    let tick = k * p + (phi + j) % p;
                    gain += finite_gain(&evaluators[tick], v, tick)?;
                }
            }
            if gain > best.0 {
                best = (gain, phi);
            }
        }
        let phi = best.1;
        for k in 0..h / p {
            for j in 0..d {
                evaluators[k * p + (phi + j) % p].insert(SensorId(v));
            }
        }
        phases[v] = phi;
    }
    Ok(FleetSchedule::new(grid.clone(), phases))
}

/// Restricted Strip Covering: sensors ("strips" of lifetime `d_v` ticks)
/// in decreasing duration order (ties toward the lower index) each place
/// **one** contiguous active run per hyperperiod, at the start of maximum
/// marginal utility (ties toward the lower start; runs may wrap). Longest
/// strips place first, as in the RSC approximation's level ordering.
///
/// One run per hyperperiod is always energy-feasible: the cyclic gap
/// `H − d_v ≥ r_v` because `P_v | H`.
///
/// # Errors
///
/// [`ScheduleBuildError::NonFiniteGain`] when the utility produces a NaN
/// or infinite marginal value.
///
/// # Panics
///
/// Panics when the utility universe does not match the grid.
pub fn rsc_schedule<U: UtilityFunction>(
    utility: &U,
    grid: &FleetGrid,
) -> Result<GridSchedule, ScheduleBuildError> {
    let n = grid.n_sensors();
    assert_eq!(
        utility.universe(),
        n,
        "utility universe does not match grid"
    );
    let h = grid.hyperperiod();
    let mut evaluators: Vec<U::Evaluator> = (0..h).map(|_| utility.evaluator()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(grid.discharge_ticks(v)), v));
    let mut active = vec![SensorSet::new(n); h];
    for &v in &order {
        let d = grid.discharge_ticks(v);
        // (gain, start); gains are finite, so start 0 always replaces the seed.
        let mut best = (f64::NEG_INFINITY, 0usize);
        for start in 0..h {
            let mut gain = 0.0;
            for j in 0..d {
                let tick = (start + j) % h;
                gain += finite_gain(&evaluators[tick], v, tick)?;
            }
            if gain > best.0 {
                best = (gain, start);
            }
        }
        let start = best.1;
        for j in 0..d {
            let tick = (start + j) % h;
            evaluators[tick].insert(SensorId(v));
            active[tick].insert(SensorId(v));
        }
    }
    Ok(GridSchedule::new(active))
}

/// Set-Once Strip Cover: each sensor, in index order, irrevocably commits
/// to **one** contiguous `d_v`-tick run per hyperperiod, choosing the
/// start where the timeline is currently thinnest (smallest summed active
/// count over the run; ties toward the lower start; runs may wrap). The
/// baseline is deliberately utility-blind — it models deployments that
/// balance load without a coverage model.
///
/// # Panics
///
/// Panics on an empty grid (never constructible).
pub fn set_once_schedule(grid: &FleetGrid) -> GridSchedule {
    let n = grid.n_sensors();
    let h = grid.hyperperiod();
    let mut counts = vec![0usize; h];
    let mut active = vec![SensorSet::new(n); h];
    for v in 0..n {
        let d = grid.discharge_ticks(v);
        // (load, start); any real load beats the usize::MAX seed.
        let mut best = (usize::MAX, 0usize);
        for start in 0..h {
            let load: usize = (0..d).map(|j| counts[(start + j) % h]).sum();
            if load < best.0 {
                best = (load, start);
            }
        }
        let start = best.1;
        for j in 0..d {
            let tick = (start + j) % h;
            counts[tick] += 1;
            active[tick].insert(SensorId(v));
        }
    }
    GridSchedule::new(active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule;
    use crate::schedule::ScheduleMode;
    use cool_common::SeedSequence;
    use cool_energy::ChargeCycle;
    use cool_utility::DetectionUtility;

    fn problem(n: usize) -> Problem<DetectionUtility> {
        Problem::new(
            DetectionUtility::uniform(n, 0.4),
            ChargeCycle::paper_sunny(),
            1,
        )
        .unwrap()
    }

    #[test]
    fn all_baselines_are_feasible() {
        let p = problem(13);
        let mut rng = SeedSequence::new(8).nth_rng(0);
        for s in [
            random_schedule(&p, &mut rng),
            round_robin_schedule(&p),
            static_schedule(&p),
        ] {
            assert!(s.is_feasible(p.cycle()));
        }
    }

    #[test]
    fn round_robin_is_balanced() {
        let p = problem(12);
        let s = round_robin_schedule(&p);
        for t in 0..4 {
            assert_eq!(s.active_set(t).len(), 3);
        }
    }

    #[test]
    fn static_wastes_slots() {
        let p = problem(8);
        let s = static_schedule(&p);
        assert_eq!(s.active_set(0).len(), 8);
        for t in 1..4 {
            assert!(s.active_set(t).is_empty());
        }
    }

    #[test]
    fn greedy_dominates_baselines_on_identical_sensors() {
        let p = problem(10);
        let mut rng = SeedSequence::new(9).nth_rng(0);
        let g = p.total_utility(&greedy_schedule(&p));
        assert!(g >= p.total_utility(&round_robin_schedule(&p)) - 1e-9);
        assert!(g >= p.total_utility(&static_schedule(&p)) - 1e-9);
        assert!(g >= p.total_utility(&random_schedule(&p, &mut rng)) - 1e-9);
    }

    #[test]
    fn baselines_respect_passive_mode() {
        let cycle = ChargeCycle::from_rho(0.5, 10.0).unwrap();
        let p = Problem::new(DetectionUtility::uniform(6, 0.4), cycle, 1).unwrap();
        let s = round_robin_schedule(&p);
        assert_eq!(s.mode(), ScheduleMode::PassiveSlot);
        assert!(s.is_feasible(cycle));
    }

    fn mixed_fleet() -> Fleet {
        Fleet::from_cycles(vec![
            ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
            ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn grid_baselines_are_energy_feasible() {
        let fleet = mixed_fleet();
        let grid = FleetGrid::build(&fleet).unwrap();
        let u = DetectionUtility::uniform(4, 0.5);
        let hef = hef_schedule(&u, &fleet, &grid).unwrap();
        assert!(hef.is_feasible());
        let rsc = rsc_schedule(&u, &grid).unwrap();
        assert!(rsc.is_feasible(&grid));
        let set_once = set_once_schedule(&grid);
        assert!(set_once.is_feasible(&grid));
    }

    #[test]
    fn single_run_baselines_place_one_contiguous_run() {
        let fleet = mixed_fleet();
        let grid = FleetGrid::build(&fleet).unwrap();
        let u = DetectionUtility::uniform(4, 0.5);
        for schedule in [rsc_schedule(&u, &grid).unwrap(), set_once_schedule(&grid)] {
            let h = grid.hyperperiod();
            for v in 0..4 {
                let active: Vec<bool> = (0..h).map(|t| schedule.is_active(v, t)).collect();
                assert_eq!(
                    active.iter().filter(|&&a| a).count(),
                    grid.discharge_ticks(v),
                    "sensor {v} must burn exactly one lifetime"
                );
                // Contiguity mod H: exactly one false→true edge around the
                // cycle.
                let edges = (0..h)
                    .filter(|&t| !active[t] && active[(t + 1) % h])
                    .count();
                assert_eq!(edges, 1, "sensor {v} must activate exactly once");
            }
        }
    }

    #[test]
    fn hef_places_big_batteries_first() {
        // Same cycle (15, 45), different capacities: the 45 Wh sensor must
        // claim the solo-coverage phase before the 30 Wh ones fill in.
        let profiles = vec![
            cool_energy::SensorProfile::default(), // 30 Wh
            cool_energy::SensorProfile {
                battery: 45.0,
                mu_d: 180.0,
                mu_r: 60.0,
                solar_eff: 1.0,
            },
        ];
        let fleet = Fleet::new(profiles).unwrap();
        let grid = FleetGrid::build(&fleet).unwrap();
        let u = DetectionUtility::uniform(2, 0.9);
        let s = hef_schedule(&u, &fleet, &grid).unwrap();
        // Sensor 1 (45 Wh) picked first on an empty timeline → phase 0;
        // sensor 0 then avoids overlapping it.
        assert_eq!(s.phases()[1], 0);
        assert_ne!(s.phases()[0], 0);
        assert!(s.is_feasible());
    }

    #[test]
    fn greedy_dominates_grid_baselines_on_mixed_fleet() {
        let fleet = mixed_fleet();
        let grid = FleetGrid::build(&fleet).unwrap();
        let mut rng = SeedSequence::new(14).nth_rng(0);
        let u = crate::instances::random_multi_target(4, 3, 0.6, 0.5, &mut rng);
        let g = crate::hetero::hetero_greedy_naive(&u, &grid)
            .unwrap()
            .hyperperiod_utility(&u);
        let hef = hef_schedule(&u, &fleet, &grid)
            .unwrap()
            .hyperperiod_utility(&u);
        let rsc = rsc_schedule(&u, &grid).unwrap().hyperperiod_utility(&u);
        let so = set_once_schedule(&grid).hyperperiod_utility(&u);
        assert!(g >= hef - 1e-9, "greedy {g} < hef {hef}");
        // RSC and Set-Once activate each sensor once per hyperperiod, so
        // they trail the periodic schedulers structurally.
        assert!(g >= rsc - 1e-9, "greedy {g} < rsc {rsc}");
        assert!(g >= so - 1e-9, "greedy {g} < set-once {so}");
    }
}
