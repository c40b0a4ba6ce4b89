//! `serve_mixed`: `cool serve` as a child process under two clients.
//!
//! Connection A sends the cache-hot bodies open-loop at [`HIT_RATE`] per
//! second (pipelined, timed from each request's due time). Connection B is
//! a closed-loop planner that POSTs a fresh-seed scenario as soon as its
//! previous one is answered, so every one of them is a cache miss that a
//! worker builds and solves. Hits and misses share the HTTP, JSON,
//! preflight and cache layers; a miss's preflight runs on the daemon's
//! single I/O thread, so hits queue behind it. Connection B's thread runs
//! a reference slice in each pause, when no miss is in flight.

use crate::client::{self, render_request, Conn, Daemon, Response};
use crate::gen::{self, MissStream};
use crate::openloop::run_open_loop;
use crate::reference::Reference;
use crate::stats::Latencies;
use crate::Outcome;
use cool_serve::api::{compute_response, parse_schedule_body, resolve_and_lint, ScheduleBody};
use std::path::Path;
use std::time::{Duration, Instant};

/// Cache-hit requests per second on connection A: well under what the
/// hit path alone sustains (about 1.2k/s on two cores).
pub const HIT_RATE: f64 = 200.0;

/// The planner's pause between a cold response and its next request.
/// Each cold request holds the I/O thread for its preflight; the pause
/// keeps that share near a quarter of the time, so the median hit shows
/// the per-request cost of the hit path and the tail shows the stalls.
const PLANNER_THINK: Duration = Duration::from_millis(200);

/// Cold responses whose fraction of bound is averaged: a fixed prefix, so
/// the figure repeats exactly for a seed.
const QUALITY_PREFIX: usize = 8;

/// What the in-process path answers for a request body: the daemon's
/// response must equal this byte for byte.
pub fn expected_response(body: &str) -> Result<String, String> {
    let ScheduleBody::Single(item) = parse_schedule_body(body.as_bytes()).map_err(|e| e.body())?
    else {
        return Err("batch body".into());
    };
    let (scenario, warnings) = resolve_and_lint(&item).map_err(|e| e.body())?;
    compute_response(&scenario, &item.algorithm, &warnings).map_err(|e| e.body())
}

/// The `fraction_of_bound` a schedule response reports.
fn fraction_of_bound(body: &str) -> Option<f64> {
    let rest = body.split("\"fraction_of_bound\":").nth(1)?;
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// Starts a daemon and posts every hot body once so it is cached.
fn start_warm(bin: &Path, flags: &[String], hot: &[String]) -> Result<Daemon, String> {
    let daemon = Daemon::start(bin, flags).map_err(|e| format!("daemon: {e}"))?;
    let mut conn = Conn::connect(daemon.addr).map_err(|e| e.to_string())?;
    for body in hot {
        let r = conn
            .request("POST", "/v1/schedule", body)
            .map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("warm-up POST answered {}", r.status));
        }
    }
    Ok(daemon)
}

struct Miss {
    body: String,
    response: Result<Response, String>,
    ms: f64,
}

pub fn run(bin: &Path, flags: &[String], seed: u64, seconds: f64, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut hot = Vec::new();
    for rep in 0..setups {
        let t = Instant::now();
        hot = gen::hot_bodies(seed);
        let started = start_warm(bin, flags, &hot);
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
    let addr = daemon.addr;
    let before = daemon.metrics().unwrap_or_default();

    let hot_requests: Vec<Vec<u8>> = hot
        .iter()
        .map(|b| render_request("POST", "/v1/schedule", b))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let (hits, misses) = std::thread::scope(|scope| {
        let planner = scope.spawn(move || {
            let mut stream = MissStream::new(seed);
            let mut done = Vec::new();
            let mut reference = Reference::new();
            let mut conn = match Conn::connect(addr) {
                Ok(c) => c,
                Err(e) => return (done, Some(e.to_string()), Duration::ZERO, reference),
            };
            while Instant::now() < start {
                std::thread::sleep(Duration::from_micros(200));
            }
            let mut last_done = start;
            while Instant::now() < end {
                let body = stream.next_body();
                let t0 = Instant::now();
                let response = conn
                    .request("POST", "/v1/schedule", &body)
                    .map_err(|e| e.to_string());
                let t1 = Instant::now();
                let failed = response.is_err();
                last_done = t1;
                done.push(Miss {
                    body,
                    response,
                    ms: (t1 - t0).as_secs_f64() * 1e3,
                });
                if failed {
                    break;
                }
                // The reference slice runs inside the pause, which still
                // ends PLANNER_THINK after the reply.
                reference.slice();
                std::thread::sleep(PLANNER_THINK.saturating_sub(t1.elapsed()));
            }
            (done, None, last_done - start, reference)
        });
        let hits = match Conn::connect(addr) {
            Ok(mut conn) => run_open_loop(
                &mut conn,
                &hot_requests,
                HIT_RATE,
                start,
                end,
                Duration::from_secs(60),
                &mut |_| {},
            ),
            Err(e) => crate::openloop::OpenLoopRecord {
                requests: Vec::new(),
                error: Some(e.to_string()),
            },
        };
        let misses = planner.join().unwrap_or_else(|_| {
            let failed = Some("planner panicked".into());
            (Vec::new(), failed, Duration::ZERO, Reference::new())
        });
        (hits, misses)
    });
    out.live_wall_s = seconds;
    let after = daemon.metrics().unwrap_or_default();
    out.peak_rss_mb = client::peak_rss_mb(&daemon.pid().to_string()).unwrap_or(f64::NAN);
    if let Err(e) = daemon.stop() {
        out.error(format!("stopping the daemon: {e}"));
    }

    // Correctness, outside the timed window.
    let expected_hot: Vec<Result<String, String>> =
        hot.iter().map(|b| expected_response(b)).collect();
    let mut hit_ms = Latencies::default();
    if let Some(e) = &hits.error {
        out.error(format!("hit connection: {e}"));
    }
    for s in &hits.requests {
        out.attempted += 1;
        out.late.push(s.late_ms());
        let verdict = match (&s.response, &expected_hot[s.item]) {
            (None, _) => Err("no response".to_string()),
            (Some(r), _) if r.status != 200 => Err(format!("status {}", r.status)),
            (Some(r), _) if r.cache.as_deref() != Some("hit") => {
                Err("not served from cache".into())
            }
            (Some(r), Ok(want)) if &r.body == want => Ok(()),
            (Some(_), Ok(_)) => Err("body differs from the in-process response".into()),
            (Some(_), Err(e)) => Err(format!("in-process path failed: {e}")),
        };
        match (verdict, s.latency_ms()) {
            (Ok(()), Some(ms)) => hit_ms.push(ms),
            (Ok(()), None) => {
                hit_ms.fail();
                out.fail(format!("hit {}: unanswered", s.item));
            }
            (Err(e), _) => {
                hit_ms.fail();
                out.fail(format!("hit {}: {e}", s.item));
            }
        }
    }

    let (misses, miss_error, miss_span, reference) = misses;
    out.ref_ms = reference.median_ms();
    out.ref_slices = reference.count();
    if let Some(e) = miss_error {
        out.error(format!("miss connection: {e}"));
    }
    let expected_miss = crate::parallel_map(misses.iter().map(|m| m.body.clone()).collect(), |b| {
        expected_response(&b)
    });
    let mut miss_ms = Latencies::default();
    let mut completed = 0usize;
    let mut fracs = Vec::new();
    for (i, (m, want)) in misses.iter().zip(&expected_miss).enumerate() {
        out.attempted += 1;
        let verdict = match (&m.response, want) {
            (Err(e), _) => Err(e.clone()),
            (Ok(r), _) if r.status != 200 => Err(format!("status {}", r.status)),
            (Ok(r), _) if r.cache.as_deref() != Some("miss") => {
                Err("cold request answered from cache".into())
            }
            (Ok(r), Ok(w)) if &r.body == w => Ok(r),
            (Ok(_), Ok(_)) => Err("body differs from the in-process response".into()),
            (Ok(_), Err(e)) => Err(format!("in-process path failed: {e}")),
        };
        match verdict {
            Ok(r) => {
                miss_ms.push(m.ms);
                completed += 1;
                if i < QUALITY_PREFIX {
                    fracs.push(fraction_of_bound(&r.body).unwrap_or(f64::NAN));
                }
            }
            Err(e) => {
                miss_ms.fail();
                out.fail(format!("miss {i}: {e}"));
            }
        }
    }

    out.counters = client::Counters::between(&before, &after);
    out.io_posts = (hits.requests.len(), misses.len());

    let (level, tail) = hit_ms.tail();
    out.named(
        "hit_p50_ms",
        hit_ms.p50(),
        "ms",
        format!("{} samples", hit_ms.count()),
    );
    out.named(
        &format!("hit_p{level}_ms"),
        tail,
        "ms",
        crate::stats::tail_label(level, hit_ms.count()),
    );
    out.named(
        "miss_p50_ms",
        miss_ms.p50(),
        "ms",
        format!("{} samples", miss_ms.count()),
    );
    let miss_per_s = completed as f64 / miss_span.as_secs_f64();
    out.named(
        "miss_per_s",
        miss_per_s,
        "1/s",
        format!("{completed} completed in {:.3} s", miss_span.as_secs_f64()),
    );
    let quality = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    out.named(
        "miss_fraction_of_bound",
        quality,
        "ratio",
        format!("first {} misses", fracs.len()),
    );
    out.light = hit_ms;
    out.light_name = "hit";
    out.heavy = miss_ms;
    out.heavy_name = "miss";
    out.work_per_s = miss_per_s;
    out.quality = quality;
    out
}
