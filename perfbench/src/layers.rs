//! The traced run's per-layer breakdown.
//!
//! The seed's inputs are replayed in this process through each layer's
//! public functions with one span per call (see `trace.rs`), so the
//! numbers do not depend on which workload's live phase ran first:
//!
//! * `plan` — the whole plan batch, decomposed into lint, parse, build,
//!   solve and score; run once untraced just before, for the overhead.
//! * `serve.hit` / `serve.miss` — the request path of a cache-hot body and
//!   of cold bodies: HTTP parse of the exact request bytes, JSON decode,
//!   preflight, cache key and lookup, and (cold) `compute_response`.
//! * `session` — whole sessions through `SessionEntry` (PUT then PATCHes).
//! * probes — calls the program makes inside one public function that
//!   exposes no seam: `FleetGrid::build` inside `Scenario::build_fleet`,
//!   `validate` and `solve` inside `SessionEntry::solve`, and the four
//!   steps of `SessionEntry::patch`. A probe calls the step again on the
//!   same state, outside the plan and session accounting.

use crate::client::render_request;
use crate::gen::{self, MissStream};
use crate::plan::{self, grid_fingerprint, period_fingerprint};
use crate::session_churn::REPAIR;
use crate::trace::{Aggregate, Tracer};
use crate::Outcome;
use cool_core::bounds::grid_duty_upper_bound;
use cool_core::greedy::greedy_schedule_lazy;
use cool_core::hetero::hetero_greedy_lazy;
use cool_core::{repair_schedule, RepairMode};
use cool_energy::FleetGrid;
use cool_lint::lint_scenario_text;
use cool_scenario::Scenario;
use cool_serve::api::{
    cache_key, compute_response, parse_schedule_body, resolve_and_lint, ScheduleBody,
};
use cool_serve::http::{parse_request, Parse};
use cool_serve::{CacheKey, LruCache};
use cool_session::{Delta, SessionEntry, SessionInstance};
use cool_utility::{AnyUtility, SumUtility};
use std::time::Instant;

/// Cache-hot requests replayed (cycling through the hot bodies).
const HIT_REPLAYS: u64 = 400;
/// Cold requests replayed (the first ones of the miss stream).
const MISS_REPLAYS: u64 = 6;
/// Sessions replayed, each with all of its deltas.
const SESSION_REPLAYS: u64 = 2;

#[derive(Debug, Default)]
pub struct Breakdown {
    /// `(name, value, unit)` in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(String, f64, String)>,
    pub lines: Vec<String>,
    pub errors: Vec<String>,
    pub tracer: Tracer,
}

/// What one traced plan scenario produced.
struct Traced {
    fingerprint: u64,
    average: f64,
    bound: f64,
    utility_sizes: (usize, usize, usize),
}

/// `(parts, n, Σ coverage sizes)` of a built utility.
fn sizes(utility: &SumUtility, n: usize) -> (usize, usize, usize) {
    let incidence = utility
        .parts()
        .iter()
        .map(|part| match part {
            AnyUtility::Detection(d) => d.coverage().len(),
            _ => 0,
        })
        .sum();
    (utility.parts().len(), n, incidence)
}

fn traced_plan(tr: &mut Tracer, req: u64, text: &str) -> Result<Traced, String> {
    let report = tr.span("lint.scenario", req, |_| lint_scenario_text(text, "plan"));
    if report.error_count() > 0 {
        return Err(format!("lint rejected the scenario: {report}"));
    }
    let scenario = tr
        .span("scenario.parse", req, |_| Scenario::parse(text))
        .map_err(|e| e.to_string())?;
    if scenario.has_profiles() {
        let built = tr.span("scenario.build", req, |_| scenario.build_fleet())?;
        let (u, grid) = (&built.utility, &built.grid);
        let schedule = tr
            .span("core.solve", req, |_| {
                hetero_greedy_lazy(u, grid).map(|s| s.to_grid_schedule())
            })
            .map_err(|e| e.to_string())?;
        if !schedule.is_feasible(grid) {
            return Err("infeasible fleet schedule".into());
        }
        let (average, bound) = tr.span("core.score", req, |_| {
            let hm = grid.hyperperiod() as f64 * u.n_targets() as f64;
            (
                schedule.hyperperiod_utility(u) / hm,
                grid_duty_upper_bound(u, grid) / hm,
            )
        });
        Ok(Traced {
            fingerprint: grid_fingerprint(&schedule),
            average,
            bound,
            utility_sizes: sizes(u, scenario.sensors),
        })
    } else {
        let built = tr.span("scenario.build", req, |_| scenario.build())?;
        let problem = &built.problem;
        let schedule = tr.span("core.solve", req, |_| greedy_schedule_lazy(problem));
        if !schedule.is_feasible(built.cycle) {
            return Err("infeasible schedule".into());
        }
        let (average, bound) = tr.span("core.score", req, |_| {
            (
                problem.average_utility_per_target_slot(&schedule),
                scenario.average_bound(problem, built.cycle),
            )
        });
        Ok(Traced {
            fingerprint: period_fingerprint(&schedule),
            average,
            bound,
            utility_sizes: sizes(problem.utility(), scenario.sensors),
        })
    }
}

/// Replays the plan batch twice, untraced and traced, alternating which
/// goes first per scenario so drift in the machine's speed cancels;
/// returns the two batch walls.
fn replay_plan(seed: u64, tr: &mut Tracer, b: &mut Breakdown) -> (f64, f64, (usize, usize)) {
    let batch = gen::plan_batch(seed);
    tr.section("plan");
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for (i, item) in batch.iter().enumerate() {
        for pass in 0..2 {
            let t = Instant::now();
            if (i + pass) % 2 == 0 {
                untraced.push(plan::plan_item(&item.text));
                untraced_s += t.elapsed().as_secs_f64();
            } else {
                traced.push(tr.span("plan.scenario", i as u64, |tr| {
                    traced_plan(tr, i as u64, &item.text)
                }));
                traced_s += t.elapsed().as_secs_f64();
            }
        }
    }

    let (mut dense, mut incidence) = (0usize, 0usize);
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        match (u, t) {
            (Ok(u), Ok(t)) => {
                if u.fingerprint() != t.fingerprint
                    || u.average() != t.average
                    || u.bound() != t.bound
                {
                    b.errors.push(format!(
                        "plan cell {i}: traced replay differs from Scenario::run"
                    ));
                }
                let (parts, n, inc) = t.utility_sizes;
                dense += parts * n * 8;
                incidence += inc;
            }
            (Err(e), _) | (_, Err(e)) => b.errors.push(format!("plan cell {i}: {e}")),
        }
    }

    tr.section("probe");
    for (i, item) in batch.iter().enumerate().filter(|(_, i)| i.fleet) {
        match Scenario::parse(&item.text)
            .map_err(|e| e.to_string())
            .and_then(|s| s.fleet())
        {
            Ok(fleet) => {
                if let Err(e) = tr.span("energy.grid", i as u64, |_| FleetGrid::build(&fleet)) {
                    b.errors.push(format!("plan cell {i}: grid: {e}"));
                }
            }
            Err(e) => b.errors.push(format!("plan cell {i}: fleet: {e}")),
        }
    }
    (untraced_s, traced_s, (dense, incidence))
}

fn request_item(
    tr: &mut Tracer,
    req: u64,
    raw: &[u8],
) -> Result<cool_serve::api::ScheduleItem, String> {
    let parsed = tr
        .span("serve.http_parse", req, |_| parse_request(raw))
        .map_err(|e| format!("{e:?}"))?;
    let Parse::Complete(outcome) = parsed else {
        return Err("request bytes did not frame".into());
    };
    let body = tr.span("serve.json_decode", req, |_| {
        parse_schedule_body(&outcome.request.body)
    });
    match body.map_err(|e| e.body())? {
        ScheduleBody::Single(item) => Ok(*item),
        ScheduleBody::Batch(_) => Err("batch body".into()),
    }
}

fn replay_serve(seed: u64, tr: &mut Tracer, b: &mut Breakdown) {
    let hot = gen::hot_bodies(seed);
    let mut cache: LruCache<CacheKey, String> = LruCache::new(1024);
    // Warm the cache as the daemon's set-up does.
    let mut expected = Vec::new();
    for body in &hot {
        let warmed = request_item(
            &mut Tracer::default(),
            0,
            &render_request("POST", "/v1/schedule", body),
        )
        .and_then(|item| {
            let (scenario, warnings) = resolve_and_lint(&item).map_err(|e| e.body())?;
            let response =
                compute_response(&scenario, &item.algorithm, &warnings).map_err(|e| e.body())?;
            cache.insert(cache_key(&scenario, &item.algorithm), response.clone());
            Ok(response)
        });
        match warmed {
            Ok(response) => expected.push(response),
            Err(e) => b.errors.push(format!("hot body: {e}")),
        }
    }
    if expected.len() != hot.len() {
        return;
    }
    tr.section("serve.hit");
    for req in 0..HIT_REPLAYS {
        let i = (req % hot.len() as u64) as usize;
        let raw = render_request("POST", "/v1/schedule", &hot[i]);
        let got = tr.span("serve.request", req, |tr| {
            let item = request_item(tr, req, &raw)?;
            let (scenario, _) = tr
                .span("lint.preflight_hit", req, |_| resolve_and_lint(&item))
                .map_err(|e| e.body())?;
            Ok::<_, String>(tr.span("serve.cache_lookup", req, |_| {
                cache.get(&cache_key(&scenario, &item.algorithm))
            }))
        });
        if !matches!(&got, Ok(Some(body)) if *body == expected[i]) {
            b.errors
                .push(format!("hit replay {req}: not answered from the cache"));
        }
    }
    tr.section("serve.miss");
    let mut misses = MissStream::new(seed);
    for req in 0..MISS_REPLAYS {
        let raw = render_request("POST", "/v1/schedule", &misses.next_body());
        let got = tr.span("serve.request", req, |tr| {
            let item = request_item(tr, req, &raw)?;
            let (scenario, warnings) = tr
                .span("lint.preflight_miss", req, |_| resolve_and_lint(&item))
                .map_err(|e| e.body())?;
            let key = tr.span("serve.cache_lookup", req, |_| {
                let key = cache_key(&scenario, &item.algorithm);
                cache.get(&key).is_none().then_some(key)
            });
            let key = key.ok_or("cold body found in the cache")?;
            let body = tr
                .span("serve.compute", req, |_| {
                    compute_response(&scenario, &item.algorithm, &warnings)
                })
                .map_err(|e| e.body())?;
            cache.insert(key, body);
            Ok::<_, String>(())
        });
        if let Err(e) = got {
            b.errors.push(format!("miss replay {req}: {e}"));
        }
    }
}

/// Replays whole sessions; returns (patches, cells touched, full repairs).
fn replay_sessions(seed: u64, tr: &mut Tracer, b: &mut Breakdown) -> (u64, u64, u64) {
    let (mut patches, mut cells, mut full) = (0u64, 0u64, 0u64);
    for s in 0..SESSION_REPLAYS {
        let script = gen::session_script(seed, s);
        tr.section("session");
        let put = tr.span("session.put", s, |tr| {
            let report = tr.span("lint.scenario", s, |_| {
                lint_scenario_text(&script.scenario, "request")
            });
            if report.error_count() > 0 {
                return Err(format!("lint rejected the scenario: {report}"));
            }
            let scenario = tr
                .span("scenario.parse", s, |_| Scenario::parse(&script.scenario))
                .map_err(|e| e.to_string())?;
            let instance = tr.span("session.from_scenario", s, |_| {
                SessionInstance::from_scenario(&scenario)
            })?;
            tr.span("session.entry_solve", s, |_| SessionEntry::solve(instance))
        });
        let mut entry = match put {
            Ok(entry) => entry,
            Err(e) => {
                b.errors.push(format!("session {s}: {e}"));
                continue;
            }
        };
        tr.section("session_probe");
        let validated = tr.span("lint.session_validate", s, |_| entry.instance().validate());
        let solved = tr.span("session.put_solve", s, |_| entry.instance().solve());
        if validated.is_err()
            || solved
                .map(|sch| sch.assignment() != entry.schedule().assignment())
                .unwrap_or(true)
        {
            b.errors.push(format!(
                "session {s}: PUT probes disagree with SessionEntry::solve"
            ));
        }
        for line in &script.deltas {
            let step = (|| {
                let delta = Delta::parse(line)?;
                tr.section("session_probe");
                let mut next = entry.instance().clone();
                let dirty = tr.span("session.apply", s, |_| next.apply(&delta))?;
                tr.span("lint.structure", s, |_| next.validate_structure())?;
                let utility = tr.span("utility.rebuild", s, |_| next.utility());
                let outcome = tr
                    .span("core.repair", s, |_| {
                        repair_schedule(&utility, next.cycle(), entry.schedule(), &dirty, &REPAIR)
                    })
                    .map_err(|e| e.to_string())?;
                tr.section("session");
                let stats = tr.span("session.patch", s, |_| entry.patch(&delta, &REPAIR))?;
                if outcome.schedule.assignment() != entry.schedule().assignment()
                    || outcome.cells_touched != stats.cells_touched
                {
                    return Err("patch probes disagree with SessionEntry::patch".to_string());
                }
                Ok(stats)
            })();
            match step {
                Ok(stats) => {
                    patches += 1;
                    cells += stats.cells_touched;
                    full += u64::from(stats.mode == RepairMode::Full);
                }
                Err(e) => {
                    b.errors.push(format!("session {s} `{line}`: {e}"));
                    break;
                }
            }
        }
    }
    (patches, cells, full)
}

/// Runs the replay and derives every per-layer metric. `live` is the
/// workload's own (untraced) live phase, which supplies the daemon
/// counters and the generator's lateness.
pub fn breakdown(seed: u64, live: &Outcome) -> Breakdown {
    let mut b = Breakdown::default();
    let mut tr = Tracer::default();
    let (untraced_s, traced_s, (dense, incidence)) = replay_plan(seed, &mut tr, &mut b);
    replay_serve(seed, &mut tr, &mut b);
    let (patches, cells, full) = replay_sessions(seed, &mut tr, &mut b);

    let agg = tr.aggregate();
    let get = |section: &'static str, name: &'static str| -> Aggregate {
        agg.get(&(section, name)).copied().unwrap_or_default()
    };
    let plan_layers_s: f64 = agg
        .iter()
        .filter(|((section, name), _)| *section == "plan" && *name != "plan.scenario")
        .map(|(_, a)| a.self_ns as f64 / 1e9)
        .sum();
    let hit_preflight_ms = get("serve.hit", "lint.preflight_hit").self_ms();
    let miss_preflight_ms = get("serve.miss", "lint.preflight_miss").self_ms();
    let patch_parts_ms: f64 = [
        "session.apply",
        "lint.structure",
        "utility.rebuild",
        "core.repair",
    ]
    .iter()
    .map(|n| get("session_probe", n).total_ms())
    .sum();
    let (hits, misses) = live.io_posts;
    let io_busy_ms = hits as f64 * hit_preflight_ms + misses as f64 * miss_preflight_ms;
    let (late_level, late) = live.late.tail();

    let mut push = |name: &str, value: f64, unit: &str| {
        b.metrics.push((name.to_string(), value, unit.to_string()))
    };
    push(
        "scenario.parse_ms",
        get("plan", "scenario.parse").self_ms(),
        "ms",
    );
    push(
        "lint.scenario_ms",
        get("plan", "lint.scenario").self_ms(),
        "ms",
    );
    push("lint.preflight_hit_us", hit_preflight_ms * 1e3, "us");
    push("lint.preflight_miss_ms", miss_preflight_ms, "ms");
    push(
        "lint.session_validate_ms",
        get("session_probe", "lint.session_validate").self_ms(),
        "ms",
    );
    push(
        "lint.structure_ms",
        get("session_probe", "lint.structure").self_ms(),
        "ms",
    );
    push(
        "scenario.build_ms",
        get("plan", "scenario.build").self_ms(),
        "ms",
    );
    push(
        "energy.grid_ms",
        get("probe", "energy.grid").self_ms(),
        "ms",
    );
    push(
        "utility.rebuild_ms",
        get("session_probe", "utility.rebuild").self_ms(),
        "ms",
    );
    push("utility.incidence", incidence as f64, "count");
    push("utility.dense_bytes", dense as f64, "B-computed");
    push(
        "utility.incidence_bytes",
        (incidence * 16) as f64,
        "B-computed",
    );
    push("core.solve_ms", get("plan", "core.solve").self_ms(), "ms");
    push("core.score_ms", get("plan", "core.score").self_ms(), "ms");
    push(
        "session.put_solve_ms",
        get("session_probe", "session.put_solve").self_ms(),
        "ms",
    );
    push(
        "session.apply_us",
        get("session_probe", "session.apply").self_ms() * 1e3,
        "us",
    );
    push(
        "core.repair_ms",
        get("session_probe", "core.repair").self_ms(),
        "ms",
    );
    push("core.repair_cells_touched", cells as f64, "count");
    push(
        "core.repair_full_frac",
        full as f64 / patches.max(1) as f64,
        "ratio",
    );
    push(
        "session.patch_self_ms",
        get("session", "session.patch").total_ms() - patch_parts_ms,
        "ms",
    );
    push(
        "serve.http_parse_us",
        get("serve.hit", "serve.http_parse").self_ms() * 1e3,
        "us",
    );
    push(
        "serve.json_decode_us",
        get("serve.hit", "serve.json_decode").self_ms() * 1e3,
        "us",
    );
    push(
        "serve.cache_lookup_us",
        get("serve.hit", "serve.cache_lookup").self_ms() * 1e3,
        "us",
    );
    push(
        "serve.compute_ms",
        get("serve.miss", "serve.compute").total_ms(),
        "ms",
    );
    push(
        "serve.io_busy_frac",
        io_busy_ms / (live.live_wall_s * 1e3),
        "ratio",
    );
    push(
        "serve.cache_hit_ratio",
        live.counters.cache_hit_ratio,
        "ratio",
    );
    push(
        "serve.queue_rejections",
        live.counters.queue_rejections,
        "count",
    );
    push("serve.timeouts", live.counters.timeouts, "count");
    push("bench.gen_late_p99_ms", late, "ms");
    push(
        "bench.trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    );
    push("bench.plan_layer_frac", plan_layers_s / untraced_s, "ratio");
    push("bench.ref_slice_ms", live.ref_ms, "ms");

    b.lines.push(format!(
        "trace: plan batch untraced {untraced_s:.4} s, traced {traced_s:.4} s, layer self times sum {plan_layers_s:.4} s"
    ));
    b.lines.push(format!(
        "trace: bench.gen_late_p99_ms is the generator's {} lateness over {} sends",
        crate::stats::tail_label(late_level, live.late.count()),
        live.late.count()
    ));
    for ((section, name), a) in &agg {
        b.lines.push(format!(
            "span {section:<14} {name:<24} calls {:>5}  total {:>10.3} ms  self {:>10.3} ms",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        ));
    }
    b.tracer = tr;
    b
}
