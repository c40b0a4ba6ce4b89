//! The cool benchmark: one command, three workloads, every end-to-end
//! metric by name with its unit, and a traced per-layer breakdown.
//!
//! ```text
//! cool-perfbench --workload plan|serve_mixed|session_churn --seed N
//!                --seconds S --trace 0|1 [--cool-bin PATH] [--out DIR]
//! ```
//!
//! `perfbench/run.py` builds this and the `cool` binary from source and
//! runs it; see `perfbench/README.md` for what each workload and metric
//! means. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod gen;
mod layers;
mod openloop;
mod plan;
mod reference;
mod serve_mixed;
mod session_churn;
mod stats;
mod trace;

use stats::Latencies;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 11;

/// What one workload's live phase measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// The operation behind `p50_ms` and `tail_ms`: a plan batch, a
    /// cache hit, a PATCH.
    pub light: Latencies,
    pub light_name: &'static str,
    /// The operation behind `heavy_p50_ms`: the largest plan scenario, a
    /// cold POST, a session PUT.
    pub heavy: Latencies,
    pub heavy_name: &'static str,
    pub work_per_s: f64,
    /// Median reference slice of the live phase, in ms, and the number
    /// of slices (`reference.rs`).
    pub ref_ms: f64,
    pub ref_slices: usize,
    pub quality: f64,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// How late the load generator sent each request, in ms.
    pub late: Latencies,
    pub live_wall_s: f64,
    /// Schedule POSTs the daemon's I/O thread handled: (hits, misses).
    pub io_posts: (usize, usize),
    /// Differences of the daemon's `/metrics` over the run.
    pub counters: client::Counters,
    /// This workload's own metrics, printed under their specific names:
    /// (name, value, unit, note).
    pub named: Vec<(String, f64, String, String)>,
    pub lines: Vec<String>,
}

impl Outcome {
    /// An attempted operation failed, was refused or failed a check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 50 {
            self.errors.push(message);
        }
    }

    /// A failure outside any counted operation (set-up, transport).
    pub fn error(&mut self, message: String) {
        self.attempted += 1;
        self.fail(message);
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &str, note: String) {
        self.named
            .push((name.to_string(), value, unit.to_string(), note));
    }
}

/// Maps `f` over `items` on `nproc` threads, keeping order (the checks
/// that replay a run's operations in-process).
pub fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    cool_common::parallel_map(threads, items, f)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cool_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        cool_bin: Path::new(&target).join("release").join("cool"),
        out: PathBuf::from(".bench_out"),
    };
    let mut seen = (false, false, false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !["plan", "serve_mixed", "session_churn"].contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}` (plan | serve_mixed | session_churn)"
                    ));
                }
                parsed.workload = value;
                seen.0 = true;
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?;
                seen.1 = true;
            }
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|_| "--seconds needs a whole number")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                parsed.seconds = f64::from(s);
                seen.2 = true;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
                seen.3 = true;
            }
            "--cool-bin" => parsed.cool_bin = PathBuf::from(value),
            "--out" => parsed.out = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seen != (true, true, true, true) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    Ok(parsed)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the paths and bytes of the program's sources, so a record
/// identifies the code even in a checkout that is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", gen::fnv1a(&bytes))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn provenance(args: &Args, flags: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = rev.as_ref().and(command_line(
        "git",
        &["status", "--porcelain", "--untracked-files=no"],
    ));
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"rustc\":{},\
         \"git_rev\":{},\"git_dirty\":{},\"source_fnv\":\"{}\",\"profile\":\"{}\",\"solver_threads\":{},\
         \"daemon_flags\":{}}}",
        gen::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        gen::json_str(&rustc),
        rev.as_deref().map_or("null".to_string(), gen::json_str),
        dirty.map_or("null".to_string(), |d| (!d.is_empty()).to_string()),
        source_digest(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cool_common::default_sweep_threads(),
        if args.workload == "plan" {
            "null".to_string()
        } else {
            format!("[{}]", flags.iter().map(|f| gen::json_str(f)).collect::<Vec<_>>().join(","))
        },
    )
}

/// The live phase's timings in wall units.
fn wall_timings(o: &Outcome) -> [(&'static str, f64, &'static str); 4] {
    [
        ("p50_ms", o.light.p50(), "ms"),
        ("tail_ms", o.light.tail().1, "ms"),
        ("heavy_p50_ms", o.heavy.p50(), "ms"),
        ("work_per_s", o.work_per_s, "1/s"),
    ]
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Timings are in
/// reference slices: a time divided by the run's median slice, a rate
/// multiplied by it.
fn end_to_end(o: &Outcome) -> Vec<(String, f64, String)> {
    let slice_s = o.ref_ms / 1e3;
    [
        ("setup_s", o.setup_s, "s"),
        ("peak_rss_mb", o.peak_rss_mb, "MB"),
        ("p50_ref", o.light.p50() / o.ref_ms, "ref"),
        ("tail_ref", o.light.tail().1 / o.ref_ms, "ref"),
        ("heavy_p50_ref", o.heavy.p50() / o.ref_ms, "ref"),
        ("work_per_ref", o.work_per_s * slice_s, "1/ref"),
        ("quality_ratio", o.quality, "ratio"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
    .collect()
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("cool-perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cool-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flags = client::daemon_flags(threads);
    if args.workload != "plan" && !args.cool_bin.is_file() {
        eprintln!(
            "cool-perfbench: no cool binary at {}",
            args.cool_bin.display()
        );
        return ExitCode::from(2);
    }

    let mut live = match args.workload.as_str() {
        "plan" => plan::run(args.seed, args.seconds, SETUPS),
        "serve_mixed" => serve_mixed::run(&args.cool_bin, &flags, args.seed, args.seconds, SETUPS),
        _ => session_churn::run(&args.cool_bin, &flags, args.seed, args.seconds, SETUPS),
    };
    let breakdown = args.trace.then(|| layers::breakdown(args.seed, &live));
    if let Some(b) = &breakdown {
        for e in &b.errors {
            live.error(format!("traced replay: {e}"));
        }
    }
    let attempted = live.attempted.max(1);
    let failed = live.failed.min(attempted);
    let correct = failed == 0 && live.attempted > 0;

    // The human-readable report: every metric by name with its unit.
    let provenance = provenance(&args, &flags);
    let mut report = String::new();
    let _ = writeln!(report, "provenance {provenance}");
    for line in &live.lines {
        let _ = writeln!(report, "{line}");
    }
    let _ = writeln!(
        report,
        "metric setup_s = {} s (median of {SETUPS} set-ups)",
        live.setup_s
    );
    let _ = writeln!(report, "metric peak_rss_mb = {} MB", live.peak_rss_mb);
    let _ = writeln!(
        report,
        "metric error_ratio = {} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for (name, value, unit, note) in &live.named {
        let _ = writeln!(report, "metric {name} = {value} {unit} ({note})");
    }
    let _ = writeln!(
        report,
        "metric ref_slice_ms = {} ms (median of {} reference slices)",
        live.ref_ms, live.ref_slices
    );
    for (name, value, unit) in wall_timings(&live) {
        let _ = writeln!(report, "metric {name} = {value} {unit}");
    }
    let (level, _) = live.light.tail();
    let _ = writeln!(
        report,
        "end-to-end: p50 and tail are {} latency ({}, {} samples); heavy_p50 is {} latency ({} samples)",
        live.light_name,
        stats::tail_label(level, live.light.count()),
        live.light.count(),
        live.heavy_name,
        live.heavy.count()
    );
    let metrics = match &breakdown {
        Some(b) => {
            for line in &b.lines {
                let _ = writeln!(report, "{line}");
            }
            b.metrics.clone()
        }
        None => end_to_end(&live),
    };
    for (name, value, unit) in &metrics {
        let _ = writeln!(report, "metric {name} = {value} {unit}");
    }
    for e in &live.errors {
        let _ = writeln!(report, "error {e}");
    }
    print!("{report}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                gen::json_str(n),
                json_num(*v),
                gen::json_str(u)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );

    // Records and spans go to the output directory; a failure to write
    // them does not change the measured result.
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&args.out).is_ok() {
        let record = format!(
            "{{\"provenance\":{provenance},\"result\":{result},\"report\":{}}}\n",
            gen::json_str(&report)
        );
        let _ = std::fs::write(args.out.join(format!("{stem}.json")), record);
        if let Some(b) = &breakdown {
            if let Ok(file) = std::fs::File::create(args.out.join(format!("{stem}.spans.jsonl"))) {
                let _ = b.tracer.write_jsonl(&mut std::io::BufWriter::new(file));
            }
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
