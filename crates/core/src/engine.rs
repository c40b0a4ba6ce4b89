//! The one greedy engine behind every hill-climb in this crate.
//!
//! Algorithm 1, its `ρ ≤ 1` dual (Theorem 4.4) and both phases of the
//! LCM-grid fleet greedy are one climb: repeatedly place the best
//! unplaced candidate sensor at one of its starts. Two things vary, both
//! by static dispatch: the **move space** ([`MoveSpace`]: a sensor's
//! starts, and the evaluators — "cells" — a move touches: one slot, or
//! every tick of a periodic run) and the **direction** ([`Insert`] ranks
//! moves by gain, [`Remove`] by loss with the comparison flipped).
//!
//! [`Lazy`] (CELF) is the production driver and [`Naive`], a full rescan
//! per step, its oracle. Both start from caller-built, possibly
//! warm-started evaluators and a candidate list, break ties in the order
//! documented in [`crate::greedy`], and count the per-cell queries they
//! run. The lazy driver is exact from any start: each heap entry carries
//! the sum of its cells' version counters (versions only grow, so an
//! equal sum means no cell changed), and under submodularity a stale gain
//! can only have shrunk and a stale loss only grown, so the first fresh
//! entry popped is the move the naive scan would pick.

use crate::errors::ScheduleBuildError;
use crate::greedy::PARALLEL_FANOUT_MIN_CELLS;
use cool_common::parallel::{default_sweep_threads, parallel_map};
use cool_common::SensorId;
use cool_utility::Evaluator;
use std::cmp::Ordering;

/// Which way a climb moves sensors.
pub(crate) trait Direction {
    /// The marginal value of moving `v` on one cell.
    fn query<E: Evaluator>(eval: &E, v: SensorId) -> f64;
    /// Performs the move of `v` on one cell.
    fn apply<E: Evaluator>(eval: &mut E, v: SensorId);
    /// The rank key of a value (the preferred move has the larger key):
    /// identity or negation, both exact and their own inverse.
    fn key(value: f64) -> f64;
}

/// `ρ > 1`: insert the move with the largest gain.
#[derive(Clone, Copy)]
pub(crate) struct Insert;

impl Direction for Insert {
    fn query<E: Evaluator>(eval: &E, v: SensorId) -> f64 {
        eval.gain(v)
    }
    fn apply<E: Evaluator>(eval: &mut E, v: SensorId) {
        eval.insert(v);
    }
    fn key(value: f64) -> f64 {
        value
    }
}

/// `ρ ≤ 1`: remove the move with the smallest loss.
#[derive(Clone, Copy)]
pub(crate) struct Remove;

impl Direction for Remove {
    fn query<E: Evaluator>(eval: &E, v: SensorId) -> f64 {
        eval.loss(v)
    }
    fn apply<E: Evaluator>(eval: &mut E, v: SensorId) {
        eval.remove(v);
    }
    fn key(value: f64) -> f64 {
        -value
    }
}

/// The moves a candidate sensor chooses among.
pub(crate) trait MoveSpace: Sync {
    /// Number of starts sensor `v` may take.
    fn starts(&self, v: usize) -> usize;
    /// The cells the move `(v, start)` touches, in the order its value is
    /// summed — part of the bit-for-bit contract.
    fn cells(&self, v: usize, start: usize) -> impl Iterator<Item = usize>;
}

/// Algorithm 1's moves: a sensor takes one of the period's `T` slots.
pub(crate) struct Slots(pub(crate) usize);

impl MoveSpace for Slots {
    fn starts(&self, _v: usize) -> usize {
        self.0
    }
    fn cells(&self, _v: usize, start: usize) -> impl Iterator<Item = usize> {
        std::iter::once(start)
    }
}

/// What a climb did.
pub(crate) struct Climb {
    /// `(sensor, start)` pairs in the order the climb placed them.
    pub(crate) picks: Vec<(usize, usize)>,
    /// Per-cell gain/loss queries run.
    pub(crate) queries: u64,
}

/// A way to run the climb over evaluators of type `E`.
pub(crate) trait Driver<E: Evaluator> {
    /// Places every sensor of `candidates` at one of its starts, mutating
    /// `evaluators` move by move; fails on a NaN or infinite query.
    fn climb<D: Direction, M: MoveSpace>(
        &self,
        direction: D,
        space: &M,
        evaluators: &mut [E],
        candidates: &[usize],
    ) -> Result<Climb, ScheduleBuildError>;
}

/// Worker threads for `queries` initial gain/loss queries: sequential
/// under [`PARALLEL_FANOUT_MIN_CELLS`], the sweep default above it.
pub(crate) fn fanout_threads(queries: usize) -> usize {
    if queries >= PARALLEL_FANOUT_MIN_CELLS {
        default_sweep_threads()
    } else {
        1
    }
}

/// Candidates per initial fan-out job: a few jobs per worker balance the
/// load, and one key vector per job keeps allocations few.
const FANOUT_CHUNK: usize = 256;

/// A scored move. `Ord` is the tie order of [`crate::greedy`]: the larger
/// key wins, exact ties go to the lower sensor, then the lower start.
#[derive(Clone, Copy, Debug)]
struct Move {
    key: f64,
    sensor: usize,
    start: usize,
    /// Sum of the move's cell versions when `key` was computed.
    stamp: u64,
}

impl PartialEq for Move {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Move {}

impl PartialOrd for Move {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Move {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are checked finite before they are scored, so
        // `partial_cmp` cannot fail; treat the impossible NaN as equal
        // rather than panic.
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.sensor.cmp(&self.sensor))
            .then_with(|| other.start.cmp(&self.start))
    }
}

/// Scores the move `(v, start)` from its per-cell queries, summed in cell
/// order; a non-finite query surfaces as the scheduler's typed error.
fn score<D: Direction, M: MoveSpace, E: Evaluator>(
    space: &M,
    evaluators: &[E],
    v: usize,
    start: usize,
    queries: &mut u64,
) -> Result<Move, ScheduleBuildError> {
    let mut total = 0.0;
    for cell in space.cells(v, start) {
        let value = D::query(&evaluators[cell], SensorId(v));
        *queries += 1;
        if !value.is_finite() {
            return Err(ScheduleBuildError::NonFiniteGain {
                sensor: v,
                slot: cell,
                value,
            });
        }
        total += value;
    }
    Ok(Move {
        key: D::key(total),
        sensor: v,
        start,
        stamp: 0,
    })
}

/// Every move of the sensors in `chunk`, sensor by sensor, ascending.
fn moves_of<'a, M: MoveSpace>(
    space: &'a M,
    chunk: &'a [usize],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    chunk
        .iter()
        .flat_map(move |&v| (0..space.starts(v)).map(move |start| (v, start)))
}

/// Applies the chosen move to every cell it touches.
fn place<D: Direction, M: MoveSpace, E: Evaluator>(space: &M, evaluators: &mut [E], best: &Move) {
    let value = D::key(best.key);
    // Monotonicity: marginal values of a monotone utility are never
    // negative (beyond roundoff).
    cool_common::invariant!(
        value >= -1e-9,
        "negative marginal value {value} for sensor {} at start {}",
        best.sensor,
        best.start
    );
    for cell in space.cells(best.sensor, best.start) {
        D::apply(&mut evaluators[cell], SensorId(best.sensor));
    }
}

/// The oracle: every step rescans every move of every unplaced candidate
/// — the literal `O(n²·T)`-query loop of Algorithm 1.
pub(crate) struct Naive;

impl<E: Evaluator> Driver<E> for Naive {
    fn climb<D: Direction, M: MoveSpace>(
        &self,
        _direction: D,
        space: &M,
        evaluators: &mut [E],
        candidates: &[usize],
    ) -> Result<Climb, ScheduleBuildError> {
        let mut unplaced = candidates.to_vec();
        let mut picks = Vec::with_capacity(candidates.len());
        let mut queries = 0;
        for _step in 0..candidates.len() {
            let mut best: Option<Move> = None;
            for (v, start) in moves_of(space, &unplaced) {
                let scored = score::<D, _, _>(space, evaluators, v, start, &mut queries)?;
                if best.is_none_or(|b| scored > b) {
                    best = Some(scored);
                }
            }
            let Some(best) = best else {
                // Unreachable: every candidate has at least one start.
                return Err(ScheduleBuildError::EmptySlotCount);
            };
            place::<D, _, _>(space, evaluators, &best);
            unplaced.retain(|&u| u != best.sensor);
            picks.push((best.sensor, best.start));
        }
        Ok(Climb { picks, queries })
    }
}

/// The production driver: lazy (CELF) evaluation over a heap of moves.
/// `threads` sets the initial-query workers (`None`: [`fanout_threads`]);
/// output never depends on it.
pub(crate) struct Lazy {
    pub(crate) threads: Option<usize>,
}

impl<E: Evaluator + Sync> Driver<E> for Lazy {
    fn climb<D: Direction, M: MoveSpace>(
        &self,
        _direction: D,
        space: &M,
        evaluators: &mut [E],
        candidates: &[usize],
    ) -> Result<Climb, ScheduleBuildError> {
        let initial: usize = candidates.iter().map(|&v| space.starts(v)).sum();
        let threads = self.threads.unwrap_or_else(|| fanout_threads(initial));
        // Chunks of candidates come back in order, so the heap content and
        // the first error reported match a sequential pass.
        let shared: &[E] = evaluators;
        let chunks: Vec<&[usize]> = candidates.chunks(FANOUT_CHUNK).collect();
        let scored = parallel_map(threads, chunks.clone(), |chunk| {
            let mut queries = 0;
            moves_of(space, chunk)
                .map(|(v, start)| Ok(score::<D, _, _>(space, shared, v, start, &mut queries)?.key))
                .collect::<Result<Vec<f64>, ScheduleBuildError>>()
                .map(|keys| (keys, queries))
        });
        let mut moves = Vec::with_capacity(initial);
        let mut queries = 0;
        for (chunk, part) in chunks.into_iter().zip(scored) {
            let (keys, part_queries) = part?;
            let keyed = moves_of(space, chunk).zip(keys);
            moves.extend(keyed.map(|((sensor, start), key)| Move {
                key,
                sensor,
                start,
                stamp: 0,
            }));
            queries += part_queries;
        }
        // At most one entry per (sensor, start) is ever queued, so `Ord`
        // is strict on the queue and the pop order is fully determined.
        let mut heap = std::collections::BinaryHeap::from(moves);
        let mut versions = vec![0u32; evaluators.len()];
        let mut placed = vec![false; candidates.iter().max().map_or(0, |&v| v + 1)];
        let mut picks = Vec::with_capacity(candidates.len());
        while picks.len() < candidates.len() {
            let Some(top) = heap.pop() else {
                // Unreachable: the heap holds every move of every
                // unplaced candidate. Guard anyway rather than panic.
                return Err(ScheduleBuildError::EmptySlotCount);
            };
            if placed[top.sensor] {
                continue;
            }
            let stamp = space
                .cells(top.sensor, top.start)
                .map(|cell| u64::from(versions[cell]))
                .sum();
            if stamp != top.stamp {
                let fresh =
                    score::<D, _, _>(space, evaluators, top.sensor, top.start, &mut queries)?;
                // The CELF correctness invariant: stale keys only shrink.
                cool_common::invariant!(
                    fresh.key <= top.key + 1e-9,
                    "stale move of sensor {} improved from {} to {}: \
                     utility is not submodular",
                    top.sensor,
                    D::key(top.key),
                    D::key(fresh.key)
                );
                heap.push(Move { stamp, ..fresh });
                continue;
            }
            place::<D, _, _>(space, evaluators, &top);
            for cell in space.cells(top.sensor, top.start) {
                versions[cell] += 1;
            }
            placed[top.sensor] = true;
            picks.push((top.sensor, top.start));
        }
        Ok(Climb { picks, queries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::slot_evaluator;
    use crate::hetero::{fleet_evaluator, Runs};
    use crate::schedule::ScheduleMode;
    use cool_common::SeedSequence;
    use cool_energy::{ChargeCycle, Fleet, FleetGrid};
    use proptest::prelude::*;
    use rand::Rng;

    fn scored(key: f64, sensor: usize, start: usize) -> Move {
        Move {
            key,
            sensor,
            start,
            stamp: 0,
        }
    }

    #[test]
    fn tie_break_prefers_lower_sensor_then_lower_start() {
        // The normative order (greedy.rs module doc): ties go to the lower
        // SENSOR first, then the lower start. (sensor 0, start 1) must
        // beat (sensor 2, start 0) at an equal key, in both directions.
        assert!(scored(1.0, 0, 1) > scored(1.0, 2, 0));
        assert!(scored(1.0, 0, 1) > scored(1.0, 0, 2));
        let loss = Remove::key(1.0);
        assert!(scored(loss, 0, 1) > scored(loss, 2, 0));
        assert!(scored(loss, 0, 1) > scored(loss, 0, 2));
        // A strictly better value always wins regardless of indices: the
        // larger gain, the smaller loss.
        assert!(scored(Insert::key(2.0), 9, 9) > scored(Insert::key(1.0), 0, 0));
        assert!(scored(Remove::key(0.5), 9, 9) > scored(Remove::key(1.0), 0, 0));
    }

    /// Runs the naive oracle and the lazy driver (sequential and fanned
    /// out) on identically built evaluators and candidates: the picks must
    /// match move for move, and the lazy driver never queries more.
    fn drivers_agree<D: Direction + Copy, M: MoveSpace, E: Evaluator + Sync>(
        direction: D,
        space: &M,
        build: impl Fn() -> Vec<E>,
        candidates: &[usize],
    ) {
        let naive = Naive
            .climb(direction, space, &mut build(), candidates)
            .unwrap();
        assert_eq!(naive.picks.len(), candidates.len());
        for threads in [1, 3] {
            let lazy = Lazy {
                threads: Some(threads),
            }
            .climb(direction, space, &mut build(), candidates)
            .unwrap();
            assert_eq!(lazy.picks, naive.picks, "threads = {threads}");
            assert!(lazy.queries <= naive.queries);
        }
    }

    fn mixed_grid(extra: usize) -> FleetGrid {
        // ρ = 3, ρ = 3 with a double battery, ρ = 1, ρ = 1/2.
        let mut cycles = vec![
            ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
            ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
        ];
        for k in 0..extra {
            cycles.push(cycles[k % 4]);
        }
        FleetGrid::build(&Fleet::from_cycles(cycles).unwrap()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Warm start on the slot grid: a random previous assignment with
        /// a random dirty subset, in both directions.
        #[test]
        fn warm_slot_climbs_agree(
            n in 1usize..14,
            slots in 1usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(6);
            let u = crate::instances::random_multi_target(n, 3, 0.5, 0.4, &mut rng);
            let warm: Vec<Option<usize>> = (0..n)
                .map(|_| {
                    let slot = rng.random_range(0..slots);
                    (!rng.random_bool(0.4)).then_some(slot)
                })
                .collect();
            let dirty: Vec<usize> = (0..n).filter(|&v| warm[v].is_none()).collect();
            let (u, warm) = (&u, &warm);
            let build = |mode| {
                move || -> Vec<_> {
                    (0..slots).map(|t| slot_evaluator(u, mode, warm, t)).collect()
                }
            };
            drivers_agree(Insert, &Slots(slots), build(ScheduleMode::ActiveSlot), &dirty);
            drivers_agree(Remove, &Slots(slots), build(ScheduleMode::PassiveSlot), &dirty);
        }

        /// Warm start on the LCM grid: random previous phases with a
        /// random dirty subset, Phase A (passive runs) and Phase B
        /// (active runs).
        #[test]
        fn warm_grid_climbs_agree(
            extra in 0usize..6,
            seed in any::<u64>(),
        ) {
            let grid = mixed_grid(extra);
            let n = grid.n_sensors();
            let mut rng = SeedSequence::new(seed).nth_rng(7);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let passive: Vec<bool> = (0..n).map(|v| grid.cycle(v).rho() <= 1.0).collect();
            let warm: Vec<Option<usize>> = (0..n)
                .map(|v| {
                    let phase = rng.random_range(0..grid.period_ticks(v));
                    (!rng.random_bool(0.5)).then_some(phase)
                })
                .collect();
            let build = || -> Vec<_> {
                (0..grid.hyperperiod())
                    .map(|t| fleet_evaluator(&u, &grid, &passive, &warm, t))
                    .collect()
            };
            let dirty = |kind: bool| -> Vec<usize> {
                (0..n).filter(|&v| warm[v].is_none() && passive[v] == kind).collect()
            };
            drivers_agree(Remove, &Runs(&grid, true), build, &dirty(true));
            drivers_agree(Insert, &Runs(&grid, false), build, &dirty(false));
        }
    }
}
