//! The reference slice: a fixed piece of planner-like work that belongs to
//! the benchmark, timed between a workload's operations.
//!
//! On a shared virtual machine the host's speed for memory-heavy code
//! drifts by a third over minutes, and it moves every timing of a run
//! together. Dividing a timing by the median slice of the same run cancels
//! most of that drift. The slice never calls the program, so a change to
//! the program moves the ratio as much as the wall time. It does what the
//! program's hot paths do: coverage lists from a disc test over a field,
//! an incidence sort, a hash count, and a lazy greedy over detection gains.

use crate::gen::Rng;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

const SENSORS: usize = 2000;
const TARGETS: usize = 1000;
const REGION: f64 = 2000.0;
const RADIUS: f64 = 150.0;
const DETECTION_P: f64 = 0.4;
const PICKS: usize = 400;

/// The slice's fixed inputs and the wall times of the slices run so far.
pub struct Reference {
    sensors: Vec<(f64, f64)>,
    targets: Vec<(f64, f64)>,
    ms: Vec<f64>,
}

impl Reference {
    /// The same inputs for every seed, so the slice is the same work in
    /// every run.
    pub fn new() -> Reference {
        let mut rng = Rng::new(0x5EED, 0);
        let mut point = || (rng.unit() * REGION, rng.unit() * REGION);
        Reference {
            sensors: (0..SENSORS).map(|_| point()).collect(),
            targets: (0..TARGETS).map(|_| point()).collect(),
            ms: Vec::new(),
        }
    }

    /// Runs one slice and records its wall time.
    pub fn slice(&mut self) {
        let t = Instant::now();
        black_box(self.work());
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Median slice time in ms (`NaN` before the first slice).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.ms)
    }

    pub fn count(&self) -> usize {
        self.ms.len()
    }

    /// Total time spent in slices, in seconds.
    pub fn total_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() / 1e3
    }

    fn work(&self) -> f64 {
        let r2 = RADIUS * RADIUS;
        let cover: Vec<Vec<u32>> = self
            .targets
            .iter()
            .map(|&(tx, ty)| {
                (0..SENSORS as u32)
                    .filter(|&v| {
                        let (x, y) = self.sensors[v as usize];
                        (x - tx).powi(2) + (y - ty).powi(2) <= r2
                    })
                    .collect()
            })
            .collect();
        let mut incidence: Vec<(u32, u32)> = cover
            .iter()
            .enumerate()
            .flat_map(|(j, c)| c.iter().map(move |&v| (v, j as u32)))
            .collect();
        incidence.sort_unstable();
        let mut reach: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(v, j) in &incidence {
            reach.entry(v).or_default().push(j);
        }

        // Lazy greedy: pick sensors by the gain in Σ_j 1 − (1 − p)^k_j.
        let mut k = vec![0i32; TARGETS];
        let gain = |v: u32, k: &[i32]| -> f64 {
            reach.get(&v).map_or(0.0, |ts| {
                ts.iter()
                    .map(|&j| DETECTION_P * (1.0 - DETECTION_P).powi(k[j as usize]))
                    .sum()
            })
        };
        let mut heap: BinaryHeap<(u64, u32)> = (0..SENSORS as u32)
            .map(|v| (gain(v, &k).to_bits(), v))
            .collect();
        let mut total = 0.0;
        for _ in 0..PICKS {
            while let Some((_, v)) = heap.pop() {
                let fresh = gain(v, &k);
                // Gains only fall, so a fresh gain still on top is the best.
                if heap.peek().is_none_or(|&(b, _)| fresh.to_bits() >= b) {
                    total += fresh;
                    for &j in reach.get(&v).into_iter().flatten() {
                        k[j as usize] += 1;
                    }
                    break;
                }
                heap.push((fresh.to_bits(), v));
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_is_the_same_work_every_time() {
        let reference = Reference::new();
        let first = reference.work();
        assert!(first > 0.0);
        assert_eq!(first.to_bits(), Reference::new().work().to_bits());
    }
}
