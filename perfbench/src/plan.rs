//! `plan`: offline planning of the seeded batch, one scenario after
//! another in a closed loop, in this process. Each scenario is linted and
//! then run with its own scheduler (`lazy`), on the fleet grid when it
//! names per-sensor profiles — what `cool lint` followed by `cool run`
//! does. The serve and session layers are not touched. A reference slice
//! runs after each scenario, outside its timing, so a batch's time is the
//! sum of its scenarios' times.

use crate::gen::{self, fnv1a, PlanItem};
use crate::reference::Reference;
use crate::stats::Latencies;
use crate::Outcome;
use cool_common::SensorSet;
use cool_core::hetero::GridSchedule;
use cool_core::schedule::{PeriodSchedule, ScheduleMode};
use cool_lint::lint_scenario_text;
use cool_scenario::{FleetScenarioOutcome, Scenario, ScenarioOutcome};
use cool_utility::{AnyUtility, SumUtility};
use std::time::Instant;

/// A planned scenario, as `cool run` would print it.
#[derive(Debug)]
pub enum Planned {
    Period(ScenarioOutcome),
    Grid(FleetScenarioOutcome),
}

impl Planned {
    pub fn average(&self) -> f64 {
        match self {
            Planned::Period(o) => o.average,
            Planned::Grid(o) => o.average,
        }
    }

    pub fn bound(&self) -> f64 {
        match self {
            Planned::Period(o) => o.bound,
            Planned::Grid(o) => o.bound,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        match self {
            Planned::Period(o) => period_fingerprint(&o.schedule),
            Planned::Grid(o) => grid_fingerprint(&o.schedule),
        }
    }
}

pub fn period_fingerprint(schedule: &PeriodSchedule) -> u64 {
    let bytes: Vec<u8> = schedule
        .assignment()
        .iter()
        .flat_map(|&s| (s as u64).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

pub fn grid_fingerprint(schedule: &GridSchedule) -> u64 {
    let mut bytes = Vec::new();
    for tick in 0..schedule.hyperperiod() {
        for v in schedule.active_set(tick) {
            bytes.extend_from_slice(&(v.index() as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Lints and runs one scenario: the timed operation of `plan`.
pub fn plan_item(text: &str) -> Result<Planned, String> {
    let report = lint_scenario_text(text, "plan");
    if report.error_count() > 0 {
        return Err(format!("lint rejected the scenario: {report}"));
    }
    let scenario = Scenario::parse(text).map_err(|e| e.to_string())?;
    if scenario.has_profiles() {
        scenario.run_fleet().map(Planned::Grid)
    } else {
        scenario.run().map(Planned::Period)
    }
}

/// Per-target coverage lists of a detection-sum utility.
pub fn coverage_lists(utility: &SumUtility) -> Result<Vec<Vec<usize>>, String> {
    utility
        .parts()
        .iter()
        .map(|part| match part {
            AnyUtility::Detection(d) => Ok(d.coverage().iter().map(|v| v.index()).collect()),
            _ => Err("scenario built a non-detection part".to_string()),
        })
        .collect()
}

/// `Σ_j 1 − (1 − p)^{|cover_j ∩ active|}`, computed without the
/// program's evaluators.
fn detection_value(cover: &[Vec<usize>], active: &[bool], p: f64) -> f64 {
    cover
        .iter()
        .map(|c| {
            let k = c.iter().filter(|&&v| active[v]).count();
            1.0 - (1.0 - p).powi(k as i32)
        })
        .sum()
}

fn members(set: &SensorSet, n: usize) -> Vec<bool> {
    let mut active = vec![false; n];
    for v in set {
        active[v.index()] = true;
    }
    active
}

/// Checks one planned scenario outside the timed loop: the schedule is
/// feasible, and its average utility recomputed from the coverage sets
/// matches the one the program reported. Returns achieved / bound.
pub fn check(item: &PlanItem, planned: &Planned) -> Result<f64, String> {
    let scenario = Scenario::parse(&item.text).map_err(|e| e.to_string())?;
    let p = scenario.detection_p;
    let n = scenario.sensors;
    let recomputed = match planned {
        Planned::Period(o) => {
            let s = &o.schedule;
            let t = s.slots_per_period();
            if !s.is_feasible(o.cycle) || t != o.cycle.slots_per_period() {
                return Err("infeasible period schedule".into());
            }
            if s.assignment().len() != n || s.assignment().iter().any(|&slot| slot >= t) {
                return Err("assignment outside the period".into());
            }
            let active_mode = s.mode() == ScheduleMode::ActiveSlot;
            if o.cycle.rho() != 1.0 && active_mode != (o.cycle.rho() > 1.0) {
                return Err("schedule mode does not match rho".into());
            }
            let cover = coverage_lists(scenario.build()?.problem.utility())?;
            let total: f64 = (0..t)
                .map(|slot| {
                    let active: Vec<bool> = s
                        .assignment()
                        .iter()
                        .map(|&a| (a == slot) == active_mode)
                        .collect();
                    detection_value(&cover, &active, p)
                })
                .sum();
            total / (t * cover.len()) as f64
        }
        Planned::Grid(o) => {
            if !o.schedule.is_feasible(&o.grid) {
                return Err("infeasible fleet schedule".into());
            }
            let cover = coverage_lists(&scenario.build_fleet()?.utility)?;
            let h = o.schedule.hyperperiod();
            let total: f64 = (0..h)
                .map(|tick| detection_value(&cover, &members(o.schedule.active_set(tick), n), p))
                .sum();
            total / (h * cover.len()) as f64
        }
    };
    let reported = planned.average();
    if (recomputed - reported).abs() > 1e-9 * reported.abs().max(1.0) {
        return Err(format!("utility {reported} but recomputed {recomputed}"));
    }
    if !(planned.bound() > 0.0 && reported <= planned.bound() * (1.0 + 1e-9)) {
        return Err(format!(
            "utility {reported} above its bound {}",
            planned.bound()
        ));
    }
    Ok(reported / planned.bound())
}

/// Runs the batch in a closed loop until `seconds` have passed (always
/// finishing the batch it is in).
pub fn run(seed: u64, seconds: f64, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut batch = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..setups {
        let t = Instant::now();
        batch = gen::plan_batch(seed);
        // Warm the allocator and code paths on the smallest scenario.
        let warm = plan_item(&batch[0].text);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            out.error(format!("warm-up: {e}"));
        }
    }
    out.setup_s = crate::stats::median(&setup_s);

    // The batch is the operation a planner waits for; the largest cell is
    // reported on its own as the heavy operation.
    let largest = (0..batch.len())
        .max_by_key(|&i| batch[i].n * batch[i].m)
        .unwrap_or(0);
    let mut largest_ms = Latencies::default();
    let mut batch_ms = Latencies::default();
    let mut first: Vec<Option<Planned>> = Vec::new();
    let mut fingerprints: Vec<Option<u64>> = Vec::new();
    let mut cell_ms = vec![Vec::new(); batch.len()];
    let mut reference = Reference::new();
    let start = Instant::now();
    let mut prev_done = start;
    let mut completed = 0usize;
    let mut batch_total_s = 0.0;
    while start.elapsed().as_secs_f64() < seconds {
        let mut wall = 0.0;
        let mut batch_failed = false;
        for (i, item) in batch.iter().enumerate() {
            let t0 = Instant::now();
            out.late.push((t0 - prev_done).as_secs_f64() * 1e3);
            let planned = plan_item(&item.text);
            let t1 = Instant::now();
            wall += (t1 - t0).as_secs_f64();
            reference.slice();
            prev_done = Instant::now();
            out.attempted += 1;
            match planned {
                Ok(planned) => {
                    if i == largest {
                        largest_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    }
                    cell_ms[i].push((t1 - t0).as_secs_f64() * 1e3);
                    completed += 1;
                    let fp = planned.fingerprint();
                    if first.len() < batch.len() {
                        fingerprints.push(Some(fp));
                        first.push(Some(planned));
                    } else if fingerprints[i] != Some(fp) {
                        out.fail(format!("cell {i}: fingerprint changed between batches"));
                    }
                }
                Err(e) => {
                    batch_failed = true;
                    if i == largest {
                        largest_ms.fail();
                    }
                    out.fail(format!("cell {i}: {e}"));
                    if first.len() < batch.len() {
                        fingerprints.push(None);
                        first.push(None);
                    }
                }
            }
        }
        batch_total_s += wall;
        if batch_failed {
            batch_ms.fail();
        } else {
            batch_ms.push(wall * 1e3);
        }
    }
    out.live_wall_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = crate::client::peak_rss_mb("self").unwrap_or(f64::NAN);

    let mut fracs = Vec::new();
    for (i, (item, planned)) in batch.iter().zip(&first).enumerate() {
        let Some(planned) = planned else { continue };
        match check(item, planned) {
            Ok(frac) => {
                fracs.push(frac);
                out.lines.push(format!(
                    "plan cell {i:>2} n={:<5} m={:<5} {:<6} fingerprint={:016x} fraction_of_bound={frac:.6} median_ms={:.3}",
                    item.n,
                    item.m,
                    if item.fleet { "fleet" } else { "period" },
                    planned.fingerprint(),
                    crate::stats::median(&cell_ms[i])
                ));
            }
            Err(e) => out.fail(format!("cell {i}: {e}")),
        }
    }
    let quality = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    let plan_s = batch_ms.p50() / 1e3;
    out.named(
        "plan_s",
        plan_s,
        "s",
        format!("{} batches of {}", batch_ms.count(), batch.len()),
    );
    out.named(
        "plan_utility_frac",
        quality,
        "ratio",
        format!("{} scenarios", fracs.len()),
    );
    out.light = batch_ms;
    out.light_name = "batch";
    out.heavy = largest_ms;
    out.heavy_name = "largest-scenario";
    out.work_per_s = completed as f64 / batch_total_s;
    out.ref_ms = reference.median_ms();
    out.ref_slices = reference.count();
    out.quality = quality;
    out
}
