//! `session_churn`: the daemon's write path under one closed-loop
//! connection. Each cycle creates a session (`PUT /v1/scenario`), sends
//! its seeded deltas one `PATCH` at a time, reads the final schedule and
//! deletes the session. This is the only workload that runs delta apply,
//! the per-patch utility rebuild and warm-start repair. A reference slice
//! runs after each cycle, while the daemon is idle; the PATCH rate counts
//! the window without the slices.

use crate::client::{self, Conn, Daemon, Response};
use crate::gen::{self, SessionScript};
use crate::reference::Reference;
use crate::stats::Latencies;
use crate::Outcome;
use cool_core::RepairConfig;
use cool_scenario::Scenario;
use cool_serve::session_api::{
    render_delete_response, render_patch_response, render_put_response, render_schedule_response,
};
use cool_session::{Delta, SessionEntry, SessionInstance, SessionStore};
use std::path::Path;
use std::time::{Duration, Instant};

/// Sessions whose final-value ratio is averaged: a fixed prefix, so the
/// figure repeats exactly for a seed.
const QUALITY_PREFIX: u64 = 8;

/// The daemon's `--repair-threshold`, which the replay must share.
pub const REPAIR: RepairConfig = RepairConfig {
    full_threshold: 0.25,
};

const WARM_SCENARIO: &str = "sensors = 60\ntargets = 20\nregion = 500\nradius = 100\nseed = 5\n";

type Reply = Result<Response, String>;

#[derive(Debug)]
struct SessionRun {
    index: u64,
    script: SessionScript,
    put: Reply,
    put_ms: f64,
    patches: Vec<(Reply, f64)>,
    get: Reply,
    delete: Reply,
}

fn session_id(body: &str) -> Option<String> {
    let rest = body.split("\"session\":\"").nth(1)?;
    Some(rest[..rest.find('"')?].to_string())
}

fn ok_body(reply: &Reply) -> Result<&str, String> {
    match reply {
        Ok(r) if r.status == 200 => Ok(&r.body),
        Ok(r) => Err(format!("status {}: {}", r.status, r.body)),
        Err(e) => Err(e.clone()),
    }
}

/// One timed round trip of the closed loop; `prev` is when the previous
/// one completed, so `late` records the client's own gap between them.
fn timed(
    conn: &mut Conn,
    prev: &mut Instant,
    late: &mut Latencies,
    method: &str,
    path: &str,
    body: &str,
) -> (Reply, f64) {
    let t0 = Instant::now();
    late.push((t0 - *prev).as_secs_f64() * 1e3);
    let reply = conn.request(method, path, body).map_err(|e| e.to_string());
    *prev = Instant::now();
    (reply, (*prev - t0).as_secs_f64() * 1e3)
}

fn start_warm(bin: &Path, flags: &[String]) -> Result<Daemon, String> {
    let daemon = Daemon::start(bin, flags).map_err(|e| format!("daemon: {e}"))?;
    let mut conn = Conn::connect(daemon.addr).map_err(|e| e.to_string())?;
    let script = SessionScript {
        scenario: WARM_SCENARIO.to_string(),
        deltas: vec!["reweight 0 0.5".to_string()],
    };
    let put = conn
        .request("PUT", "/v1/scenario", &gen::put_body(&script))
        .map_err(|e| e.to_string());
    let id = session_id(ok_body(&put)?).ok_or("PUT answered without a session id")?;
    let path = format!("/v1/scenario/{id}");
    for reply in [
        conn.request("PATCH", &path, &gen::patch_body(&script.deltas[0])),
        conn.request("DELETE", &path, ""),
    ] {
        ok_body(&reply.map_err(|e| e.to_string()))?;
    }
    Ok(daemon)
}

/// What replaying one session in-process found.
struct Replay {
    put: Result<(), String>,
    patches: Vec<Result<(), String>>,
    get: Result<(), String>,
    delete: Result<(), String>,
    /// Final repaired value over a from-scratch solve of the final
    /// instance, when asked for and every delta was sent.
    ratio: Option<f64>,
}

fn same(reply: &Reply, want: &str) -> Result<(), String> {
    let body = ok_body(reply)?;
    if body == want {
        Ok(())
    } else {
        Err("body differs from the in-process replay".into())
    }
}

/// Replays a session through `SessionEntry` and compares every response
/// the daemon gave with what the same calls render in-process.
fn replay(run: &SessionRun) -> Replay {
    let fail = |e: String, run: &SessionRun| Replay {
        put: Err(e.clone()),
        patches: run.patches.iter().map(|_| Err(e.clone())).collect(),
        get: Err(e.clone()),
        delete: Err(e),
        ratio: None,
    };
    let entry = Scenario::parse(&run.script.scenario)
        .map_err(|e| e.to_string())
        .and_then(|s| SessionInstance::from_scenario(&s))
        .and_then(SessionEntry::solve);
    let mut entry = match entry {
        Ok(e) => e,
        Err(e) => return fail(format!("in-process PUT failed: {e}"), run),
    };
    let id = SessionStore::session_id(entry.instance());
    let put = same(&run.put, &render_put_response(&id, &entry, None));
    let mut patches = Vec::new();
    let mut broken = None;
    for (line, (reply, _)) in run.script.deltas.iter().zip(&run.patches) {
        if let Some(e) = &broken {
            patches.push(Err(format!("after an earlier mismatch: {e}")));
            continue;
        }
        let verdict = Delta::parse(line)
            .and_then(|d| entry.patch(&d, &REPAIR))
            .and_then(|stats| same(reply, &render_patch_response(&id, &entry, &[stats])));
        if let Err(e) = &verdict {
            broken = Some(e.clone());
        }
        patches.push(verdict);
    }
    let get = same(&run.get, &render_schedule_response(&id, &entry));
    let delete = same(&run.delete, &render_delete_response(&id));
    let complete = run.patches.len() == run.script.deltas.len() && broken.is_none();
    let ratio = if run.index < QUALITY_PREFIX && complete {
        SessionEntry::solve(entry.instance().clone())
            .ok()
            .map(|scratch| entry.value() / scratch.value())
    } else {
        None
    };
    Replay {
        put,
        patches,
        get,
        delete,
        ratio,
    }
}

pub fn run(bin: &Path, flags: &[String], seed: u64, seconds: f64, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for rep in 0..setups {
        let t = Instant::now();
        let started = start_warm(bin, flags);
        setup_s.push(t.elapsed().as_secs_f64());
        match started {
            Ok(d) if rep + 1 == setups => daemon = Some(d),
            Ok(d) => {
                if let Err(e) = d.stop() {
                    out.error(format!("stopping a set-up daemon: {e}"));
                }
            }
            Err(e) => {
                out.error(format!("set-up: {e}"));
                return out;
            }
        }
    }
    out.setup_s = crate::stats::median(&setup_s);
    let Some(daemon) = daemon else { return out };
    let before = daemon.metrics().unwrap_or_default();

    let mut runs = Vec::new();
    let mut conn = match Conn::connect(daemon.addr) {
        Ok(c) => c,
        Err(e) => {
            out.error(format!("connect: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut prev = start;
    let mut patched_in_window = 0usize;
    let mut index = 0u64;
    let mut reference = Reference::new();
    while Instant::now() < end {
        let script = gen::session_script(seed, index);
        let (put, put_ms) = timed(
            &mut conn,
            &mut prev,
            &mut out.late,
            "PUT",
            "/v1/scenario",
            &gen::put_body(&script),
        );
        let id = ok_body(&put).ok().and_then(session_id);
        let mut patches = Vec::new();
        let (mut get, mut delete): (Reply, Reply) =
            (Err("not sent".into()), Err("not sent".into()));
        if let Some(id) = id {
            let path = format!("/v1/scenario/{id}");
            for delta in &script.deltas {
                if Instant::now() >= end {
                    break;
                }
                let (reply, ms) = timed(
                    &mut conn,
                    &mut prev,
                    &mut out.late,
                    "PATCH",
                    &path,
                    &gen::patch_body(delta),
                );
                patched_in_window += usize::from(prev <= end);
                let failed = reply.is_err();
                patches.push((reply, ms));
                if failed {
                    break;
                }
            }
            get = conn
                .request("GET", &format!("{path}/schedule"), "")
                .map_err(|e| e.to_string());
            delete = conn.request("DELETE", &path, "").map_err(|e| e.to_string());
        }
        runs.push(SessionRun {
            index,
            script,
            put,
            put_ms,
            patches,
            get,
            delete,
        });
        index += 1;
        if Instant::now() < end {
            reference.slice();
        }
        prev = Instant::now();
    }
    out.live_wall_s = seconds;
    drop(conn);
    let after = daemon.metrics().unwrap_or_default();
    out.peak_rss_mb = client::peak_rss_mb(&daemon.pid().to_string()).unwrap_or(f64::NAN);
    if let Err(e) = daemon.stop() {
        out.error(format!("stopping the daemon: {e}"));
    }

    // Correctness, outside the timed window.
    let replays = crate::parallel_map(runs.iter().collect(), replay);
    let mut put_ms = Latencies::default();
    let mut patch_ms = Latencies::default();
    let mut ratios = Vec::new();
    for (run, r) in runs.iter().zip(replays) {
        let mut record =
            |verdict: Result<(), String>, what: &str, lat: Option<(&mut Latencies, f64)>| {
                out.attempted += 1;
                match (verdict, lat) {
                    (Ok(()), Some((l, ms))) => l.push(ms),
                    (Ok(()), None) => {}
                    (Err(e), lat) => {
                        if let Some((l, _)) = lat {
                            l.fail();
                        }
                        out.fail(format!("session {} {what}: {e}", run.index));
                    }
                }
            };
        record(r.put, "PUT", Some((&mut put_ms, run.put_ms)));
        for (verdict, (_, ms)) in r.patches.into_iter().zip(&run.patches) {
            record(verdict, "PATCH", Some((&mut patch_ms, *ms)));
        }
        if run.put.is_ok() {
            record(r.get, "GET", None);
            record(r.delete, "DELETE", None);
        }
        ratios.extend(r.ratio);
    }

    out.counters = client::Counters::between(&before, &after);
    let (level, tail) = patch_ms.tail();
    let quality = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    out.named(
        "put_p50_ms",
        put_ms.p50(),
        "ms",
        format!("{} samples", put_ms.count()),
    );
    out.named(
        "patch_p50_ms",
        patch_ms.p50(),
        "ms",
        format!("{} samples", patch_ms.count()),
    );
    out.named(
        &format!("patch_p{level}_ms"),
        tail,
        "ms",
        crate::stats::tail_label(level, patch_ms.count()),
    );
    out.named(
        "patch_value_ratio",
        quality,
        "ratio",
        format!("first {} sessions", ratios.len()),
    );
    out.named("sessions", runs.len() as f64, "count", String::new());
    out.light = patch_ms;
    out.light_name = "patch";
    out.heavy = put_ms;
    out.heavy_name = "put";
    out.work_per_s = patched_in_window as f64 / (seconds - reference.total_s());
    out.ref_ms = reference.median_ms();
    out.ref_slices = reference.count();
    out.quality = quality;
    out
}
