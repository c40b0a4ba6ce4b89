//! The Greedy Hill-Climbing Activation Scheme (Algorithm 1, §IV).
//!
//! `ρ > 1`: schedule sensors one by one, each time assigning the
//! (sensor, slot) pair with the **maximum incremental utility** given
//! everything scheduled so far; ½-approximate for `L = T` (Lemma 4.1) and
//! for `L = αT` by repeating the period schedule (Theorem 4.3).
//!
//! `ρ ≤ 1`: start from "everyone active everywhere" and allocate each
//! sensor's **passive** slot with the **minimum decremental utility**
//! (§IV-B, Theorem 4.4) — also ½-approximate.
//!
//! Every entry point here only picks the regime, the candidates and the
//! warm start; one crate-private engine runs the climb with one of two
//! drivers that produce identical schedules:
//!
//! * the **lazy driver** (CELF) — the production path behind
//!   [`greedy_schedule_lazy`], session solves, warm-start repair and
//!   `cool run`. Stale gains only *shrink* (`ρ > 1`) and stale losses
//!   only *grow* (`ρ ≤ 1`: removals shrink the base set, and marginal
//!   contributions rise under diminishing returns); touching slot `t`
//!   only perturbs entries *within slot `t`*;
//! * the **naive oracle** — the literal O(n²·T)-gain-query loop of
//!   Algorithm 1 behind [`greedy_schedule`], which tests, `cool-check`
//!   and the benches compare the lazy driver against.
//!
//! On large instances (`n·T ≥` [`PARALLEL_FANOUT_MIN_CELLS`] initial
//! queries) the lazy driver fans its initial gain/loss queries across the
//! worker threads of [`cool_common::parallel`]; results are written back
//! by sensor index, so the heap contents — and therefore the schedule —
//! are identical to a sequential run.
//!
//! All variants obtain their per-slot evaluators through
//! [`UtilityFunction::evaluator`], so a multi-target
//! [`SumUtility`](cool_utility::SumUtility) answers each gain/loss query
//! in O(deg(v)) incident parts via its CSR incidence index rather than
//! walking all `m` parts — sparse gains are bitwise equal to dense ones
//! (non-incident parts contribute an exact `0.0`), so this is purely a
//! representation change; schedules are unaffected.
//!
//! # Tie-breaking
//!
//! Both drivers share one total order, pinned by the `tie_break_*`
//! regression tests and the naive≡lazy property tests: **the larger gain
//! (or smaller loss) wins; exact ties go to the lower sensor index, then
//! the lower slot index.** DESIGN.md and the README defer to this
//! paragraph — it is the single normative statement of the order.

use crate::engine::{self, Driver, Insert, Lazy, Naive, Remove, Slots};
use crate::errors::ScheduleBuildError;
use crate::problem::Problem;
use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::parallel::parallel_map;
use cool_common::SensorId;
use cool_energy::ChargeCycle;
use cool_utility::{Evaluator, UtilityFunction};

/// Initial query count `n·T` above which the lazy driver parallelises
/// its initial gain/loss fan-out. Below it, thread start-up costs more
/// than the queries themselves.
pub const PARALLEL_FANOUT_MIN_CELLS: usize = 4096;

/// Runs Algorithm 1 (or its `ρ ≤ 1` dual) with the naive oracle and
/// returns the per-period schedule. Deterministic: ties break toward the
/// lower sensor index, then the lower slot (see the module-level
/// *Tie-breaking* section).
///
/// # Panics
///
/// Panics only if the utility produces a non-finite marginal gain
/// ([`Problem`] construction rules out every other failure mode); use
/// [`try_greedy_schedule`] for a `COOL`-coded error instead.
///
/// # Examples
///
/// ```
/// use cool_core::{greedy::greedy_schedule, problem::Problem};
/// use cool_energy::ChargeCycle;
/// use cool_utility::DetectionUtility;
///
/// let p = Problem::new(DetectionUtility::uniform(9, 0.4),
///                      ChargeCycle::from_rho(5.0, 15.0).unwrap(), 1).unwrap();
/// let s = greedy_schedule(&p);
/// assert!(s.is_feasible(p.cycle()));
/// ```
pub fn greedy_schedule<U: UtilityFunction>(problem: &Problem<U>) -> PeriodSchedule {
    try_greedy_schedule(problem).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`greedy_schedule`].
///
/// # Errors
///
/// Returns a [`ScheduleBuildError`] (with a stable `COOL` code) when the
/// utility produces a non-finite marginal value.
pub fn try_greedy_schedule<U: UtilityFunction>(
    problem: &Problem<U>,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    naive_slots(
        problem.utility(),
        problem.slots_per_period(),
        mode_of(problem.cycle()),
    )
}

/// Lazy (CELF-style) greedy, the production path; identical output to
/// [`greedy_schedule`] (asserted by the crate's property tests),
/// asymptotically faster on large instances.
///
/// # Panics
///
/// As [`greedy_schedule`]; use [`try_greedy_schedule_lazy`] for a
/// `COOL`-coded error instead.
pub fn greedy_schedule_lazy<U>(problem: &Problem<U>) -> PeriodSchedule
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    try_greedy_schedule_lazy(problem).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`greedy_schedule_lazy`].
///
/// # Errors
///
/// As [`try_greedy_schedule`].
pub fn try_greedy_schedule_lazy<U>(
    problem: &Problem<U>,
) -> Result<PeriodSchedule, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    cold_lazy_slots(
        problem.utility(),
        problem.slots_per_period(),
        mode_of(problem.cycle()),
        None,
    )
}

/// The regime of the paper's dispatcher: active slots when `ρ > 1`,
/// passive slots otherwise.
pub(crate) fn mode_of(cycle: ChargeCycle) -> ScheduleMode {
    if cycle.rho() > 1.0 {
        ScheduleMode::ActiveSlot
    } else {
        ScheduleMode::PassiveSlot
    }
}

/// ρ > 1 greedy on raw parts with the naive oracle (exposed for
/// schedulers composing their own horizon logic). `slots` is the period
/// length `T`.
///
/// # Errors
///
/// Returns [`ScheduleBuildError::EmptySlotCount`] (`COOL-E002`) if
/// `slots == 0`, and [`ScheduleBuildError::NonFiniteGain`] (`COOL-E015`)
/// if the utility produces a NaN or infinite marginal gain.
pub fn greedy_active_naive<U: UtilityFunction>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    naive_slots(utility, slots, ScheduleMode::ActiveSlot)
}

/// ρ ≤ 1 greedy with the naive oracle: allocate passive slots by minimum
/// decremental utility.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_passive_naive<U: UtilityFunction>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    naive_slots(utility, slots, ScheduleMode::PassiveSlot)
}

/// ρ > 1 greedy with the lazy driver: inserting into slot `t` leaves
/// every other slot's entries exact, so only entries of advanced slots
/// are re-evaluated.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_active_lazy<U>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    cold_lazy_slots(utility, slots, ScheduleMode::ActiveSlot, None)
}

/// [`greedy_active_lazy`] with an explicit worker-thread count for the
/// initial gain fan-out (`1` forces a sequential pass). Output is
/// independent of `threads`.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_active_lazy_with_threads<U>(
    utility: &U,
    slots: usize,
    threads: usize,
) -> Result<PeriodSchedule, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    cold_lazy_slots(utility, slots, ScheduleMode::ActiveSlot, Some(threads))
}

/// ρ ≤ 1 greedy with the lazy driver: a stale recorded loss is a lower
/// bound on the true loss, so popping a fresh minimum is safe.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_passive_lazy<U>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    cold_lazy_slots(utility, slots, ScheduleMode::PassiveSlot, None)
}

/// [`greedy_passive_lazy`] with an explicit worker-thread count for the
/// full-evaluator build and initial loss fan-out (`1` forces a sequential
/// pass). Output is independent of `threads`.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_passive_lazy_with_threads<U>(
    utility: &U,
    slots: usize,
    threads: usize,
) -> Result<PeriodSchedule, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    cold_lazy_slots(utility, slots, ScheduleMode::PassiveSlot, Some(threads))
}

fn cold_lazy_slots<U>(
    utility: &U,
    slots: usize,
    mode: ScheduleMode,
    threads: Option<usize>,
) -> Result<PeriodSchedule, ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    let cold = vec![None; utility.universe()];
    lazy_slots(utility, slots, mode, &cold, threads).map(|(schedule, _)| schedule)
}

fn naive_slots<U: UtilityFunction>(
    utility: &U,
    slots: usize,
    mode: ScheduleMode,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    let cold = vec![None; utility.universe()];
    let evaluators = (0..slots)
        .map(|t| slot_evaluator(utility, mode, &cold, t))
        .collect();
    climb_slots(&Naive, evaluators, mode, &cold).map(|(schedule, _)| schedule)
}

/// The lazy slot climb from `warm`: `warm[v] = Some(t)` pins sensor `v`
/// to slot `t`, `None` makes it a candidate. Returns the schedule and the
/// gain/loss queries run. `threads` overrides the fan-out worker count,
/// which by default follows the initial query count.
pub(crate) fn lazy_slots<U>(
    utility: &U,
    slots: usize,
    mode: ScheduleMode,
    warm: &[Option<usize>],
    threads: Option<usize>,
) -> Result<(PeriodSchedule, u64), ScheduleBuildError>
where
    U: UtilityFunction + Sync,
    U::Evaluator: Send + Sync,
{
    let candidates = warm.iter().filter(|slot| slot.is_none()).count();
    let threads =
        threads.unwrap_or_else(|| engine::fanout_threads(candidates.saturating_mul(slots)));
    // A ρ ≤ 1 start fills every slot's evaluator, about as costly as the
    // initial queries, so those builds run on the fan-out workers too; the
    // cheap ρ > 1 starts stay on this thread, where they measured faster.
    let build_threads = match mode {
        ScheduleMode::ActiveSlot => 1,
        ScheduleMode::PassiveSlot => threads,
    };
    let evaluators = parallel_map(build_threads, (0..slots).collect(), |t| {
        slot_evaluator(utility, mode, warm, t)
    });
    let driver = Lazy {
        threads: Some(threads),
    };
    climb_slots(&driver, evaluators, mode, warm)
}

/// Slot `t`'s evaluator at the start of a climb. `ρ > 1` starts empty and
/// `ρ ≤ 1` with every sensor active; a sensor pinned to slot `t` is then
/// active there (`ρ > 1`) or rests there (`ρ ≤ 1`).
pub(crate) fn slot_evaluator<U: UtilityFunction>(
    utility: &U,
    mode: ScheduleMode,
    warm: &[Option<usize>],
    t: usize,
) -> U::Evaluator {
    let mut e = utility.evaluator();
    let pinned = (0..warm.len()).filter(|&v| warm[v] == Some(t));
    match mode {
        ScheduleMode::ActiveSlot => {
            for v in pinned {
                e.insert(SensorId(v));
            }
        }
        ScheduleMode::PassiveSlot => {
            for v in 0..warm.len() {
                e.insert(SensorId(v));
            }
            for v in pinned {
                e.remove(SensorId(v));
            }
        }
    }
    e
}

/// Places every candidate of `warm` with `driver` — inserting by gain for
/// `ρ > 1`, removing by loss for `ρ ≤ 1` — and assembles the schedule.
fn climb_slots<E: Evaluator>(
    driver: &impl Driver<E>,
    mut evaluators: Vec<E>,
    mode: ScheduleMode,
    warm: &[Option<usize>],
) -> Result<(PeriodSchedule, u64), ScheduleBuildError> {
    let slots = evaluators.len();
    if slots == 0 {
        return Err(ScheduleBuildError::EmptySlotCount);
    }
    let space = Slots(slots);
    let candidates: Vec<usize> = (0..warm.len()).filter(|&v| warm[v].is_none()).collect();
    let climb = match mode {
        ScheduleMode::ActiveSlot => driver.climb(Insert, &space, &mut evaluators, &candidates)?,
        ScheduleMode::PassiveSlot => driver.climb(Remove, &space, &mut evaluators, &candidates)?,
    };
    // The driver places every candidate or errors, so no `MAX` is left.
    let mut assignment: Vec<usize> = warm.iter().map(|t| t.unwrap_or(usize::MAX)).collect();
    for (v, t) in climb.picks {
        assignment[v] = t;
    }
    Ok((PeriodSchedule::new(mode, slots, assignment), climb.queries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::{SeedSequence, SensorSet};
    use cool_energy::ChargeCycle;
    use cool_utility::{DetectionUtility, LinearUtility, SumUtility};
    use proptest::prelude::*;

    fn sunny_problem(n: usize) -> Problem<DetectionUtility> {
        Problem::new(
            DetectionUtility::uniform(n, 0.4),
            ChargeCycle::paper_sunny(),
            1,
        )
        .unwrap()
    }

    #[test]
    fn greedy_balances_identical_sensors() {
        // 8 identical sensors over 4 slots → 2 per slot (any imbalance
        // would contradict diminishing returns).
        let p = sunny_problem(8);
        let s = greedy_schedule(&p);
        for t in 0..4 {
            assert_eq!(s.active_set(t).len(), 2, "slot {t}");
        }
        assert!(s.is_feasible(p.cycle()));
    }

    #[test]
    fn greedy_spreads_before_stacking() {
        // 3 sensors, 4 slots: each goes to its own slot.
        let p = sunny_problem(3);
        let s = greedy_schedule(&p);
        let sizes: Vec<usize> = (0..4).map(|t| s.active_set(t).len()).collect();
        assert_eq!(sizes.iter().filter(|&&x| x == 1).count(), 3);
        assert_eq!(sizes.iter().filter(|&&x| x == 0).count(), 1);
    }

    #[test]
    fn lazy_matches_naive_on_random_instances() {
        let seq = SeedSequence::new(33);
        for trial in 0..20u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 10);
            let m = 1 + (trial as usize % 4);
            let u = crate::instances::random_multi_target(n, m, 0.5, 0.4, &mut rng);
            let naive = greedy_active_naive(&u, 4).unwrap();
            let lazy = greedy_active_lazy(&u, 4).unwrap();
            assert_eq!(
                naive.assignment(),
                lazy.assignment(),
                "trial {trial}: naive and lazy greedy disagree"
            );
        }
    }

    #[test]
    fn passive_lazy_matches_naive_on_random_instances() {
        let seq = SeedSequence::new(34);
        for trial in 0..20u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 10);
            let m = 1 + (trial as usize % 4);
            let u = crate::instances::random_multi_target(n, m, 0.5, 0.4, &mut rng);
            let naive = greedy_passive_naive(&u, 4).unwrap();
            let lazy = greedy_passive_lazy(&u, 4).unwrap();
            assert_eq!(
                naive.assignment(),
                lazy.assignment(),
                "trial {trial}: naive and lazy passive greedy disagree"
            );
            assert_eq!(lazy.mode(), ScheduleMode::PassiveSlot);
        }
    }

    #[test]
    fn tie_break_pins_assignment_across_all_variants() {
        // 6 identical sensors over T = 4: every greedy step is a mass tie,
        // so the schedule is determined entirely by the tie-break order.
        // Active: sensor v takes the lowest-index emptiest slot → v mod 4.
        // Passive (everyone starts active everywhere): same spread, since
        // removing from a fuller slot costs least and ties resolve the
        // same way.
        let u = DetectionUtility::uniform(6, 0.4);
        let expected = vec![0, 1, 2, 3, 0, 1];
        let runs: [(&str, PeriodSchedule); 4] = [
            ("active naive", greedy_active_naive(&u, 4).unwrap()),
            ("active lazy", greedy_active_lazy(&u, 4).unwrap()),
            (
                "active lazy threads=4",
                greedy_active_lazy_with_threads(&u, 4, 4).unwrap(),
            ),
            ("passive naive", greedy_passive_naive(&u, 4).unwrap()),
        ];
        for (label, s) in runs {
            assert_eq!(s.assignment(), expected.as_slice(), "{label}");
        }
        let passive_expected = greedy_passive_naive(&u, 4).unwrap();
        for threads in [1usize, 4] {
            let lazy = greedy_passive_lazy_with_threads(&u, 4, threads).unwrap();
            assert_eq!(
                lazy.assignment(),
                passive_expected.assignment(),
                "passive lazy threads={threads}"
            );
        }
    }

    #[test]
    fn threaded_fanout_is_deterministic() {
        let mut rng = SeedSequence::new(77).nth_rng(0);
        let u = crate::instances::random_multi_target(24, 3, 0.5, 0.4, &mut rng);
        let active_seq = greedy_active_lazy_with_threads(&u, 5, 1).unwrap();
        let active_par = greedy_active_lazy_with_threads(&u, 5, 4).unwrap();
        assert_eq!(active_seq.assignment(), active_par.assignment());
        let passive_seq = greedy_passive_lazy_with_threads(&u, 5, 1).unwrap();
        let passive_par = greedy_passive_lazy_with_threads(&u, 5, 4).unwrap();
        assert_eq!(passive_seq.assignment(), passive_par.assignment());
    }

    #[test]
    fn passive_greedy_is_feasible_and_balanced() {
        // ρ = 1/3 → T = 4, one passive slot each; 8 identical sensors →
        // passive slots spread 2 per slot.
        let cycle = ChargeCycle::from_rho(1.0 / 3.0, 15.0).unwrap();
        let p = Problem::new(DetectionUtility::uniform(8, 0.4), cycle, 1).unwrap();
        let s = greedy_schedule(&p);
        assert_eq!(s.mode(), ScheduleMode::PassiveSlot);
        assert!(s.is_feasible(cycle));
        for t in 0..4 {
            assert_eq!(s.active_set(t).len(), 6, "slot {t}: 8 − 2 passive");
        }
    }

    #[test]
    fn single_sensor_gets_a_slot() {
        let p = sunny_problem(1);
        let s = greedy_schedule(&p);
        assert_eq!(s.n_sensors(), 1);
        assert!(s.assigned_slot(SensorId(0)).index() < 4);
    }

    #[test]
    fn linear_utility_greedy_achieves_everything() {
        // Modular utility: every assignment achieves Σw per period; greedy
        // must too.
        let u = LinearUtility::new(vec![1.0, 2.0, 3.0]);
        let s = greedy_active_naive(&u, 4).unwrap();
        assert!((s.period_utility(&u) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn multi_target_greedy_covers_each_target_every_slot_when_possible() {
        // Two disjoint targets with 4 sensors each over T=4: greedy should
        // leave no slot without coverage of either target.
        let cov0 = SensorSet::from_indices(8, 0..4);
        let cov1 = SensorSet::from_indices(8, 4..8);
        let u = SumUtility::multi_target_detection(&[cov0.clone(), cov1.clone()], 0.4);
        let s = greedy_active_naive(&u, 4).unwrap();
        for t in 0..4 {
            let active = s.active_set(t);
            assert!(!active.is_disjoint(&cov0), "target 0 uncovered at slot {t}");
            assert!(!active.is_disjoint(&cov1), "target 1 uncovered at slot {t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lemma 4.1 (empirical): greedy ≥ ½ · OPT on exhaustively solved
        /// instances.
        #[test]
        fn greedy_is_half_optimal(
            n in 2usize..7,
            m in 1usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(0);
            let u = crate::instances::random_multi_target(n, m, 0.6, 0.4, &mut rng);
            let slots = 3;
            let greedy = greedy_active_naive(&u, slots).unwrap();
            let opt = crate::optimal::exhaustive_optimal(&u, slots, ScheduleMode::ActiveSlot);
            let g = greedy.period_utility(&u);
            let o = opt.period_utility(&u);
            prop_assert!(g + 1e-9 >= 0.5 * o, "greedy {} < half of optimal {}", g, o);
            prop_assert!(g <= o + 1e-9, "greedy cannot beat optimal");
        }

        /// Theorem 4.4 (empirical): the passive-slot greedy is ≥ ½ · OPT.
        #[test]
        fn passive_greedy_is_half_optimal(
            n in 2usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(1);
            let u = crate::instances::random_multi_target(n, 2, 0.6, 0.4, &mut rng);
            let slots = 3;
            let greedy = greedy_passive_naive(&u, slots).unwrap();
            let opt = crate::optimal::exhaustive_optimal(&u, slots, ScheduleMode::PassiveSlot);
            let g = greedy.period_utility(&u);
            let o = opt.period_utility(&u);
            prop_assert!(g + 1e-9 >= 0.5 * o, "greedy {} < half of optimal {}", g, o);
        }

        /// Lazy and naive agree on every instance.
        #[test]
        fn lazy_equals_naive(
            n in 1usize..12,
            slots in 1usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(2);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.5, &mut rng);
            let naive = greedy_active_naive(&u, slots).unwrap();
            let lazy = greedy_active_lazy(&u, slots).unwrap();
            prop_assert_eq!(naive.assignment(), lazy.assignment());
        }

        /// The passive CELF dual and the naive minimum-loss loop agree on
        /// every instance (assignment-identical, not just equal utility).
        #[test]
        fn passive_lazy_equals_naive(
            n in 1usize..12,
            slots in 1usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(3);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.5, &mut rng);
            let naive = greedy_passive_naive(&u, slots).unwrap();
            let lazy = greedy_passive_lazy(&u, slots).unwrap();
            prop_assert_eq!(naive.assignment(), lazy.assignment());
        }
    }
}
