//! A minimal keep-alive HTTP/1.1 client and the `cool serve` child process.
//!
//! The client is the benchmark's own: responses are framed by
//! `Content-Length`, and reads can stop at a deadline so one thread can
//! both send on a schedule and collect pipelined responses.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    /// The `x-cool-cache` header, when present.
    pub cache: Option<String>,
    pub body: String,
}

/// The exact bytes of one request, as sent and as replayed.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// One complete response from the buffer, if it holds one.
    fn take_buffered(&mut self) -> io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut cache = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = value
                            .trim()
                            .parse()
                            .map_err(|_| bad("bad content-length"))?;
                    }
                    "x-cool-cache" => cache = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            cache,
            body,
        }))
    }

    /// Reads until one response is complete or `deadline` passes
    /// (`Ok(None)`). `None` as deadline waits up to a minute.
    pub fn read_until(&mut self, deadline: Option<Instant>) -> io::Result<Option<Response>> {
        let mut chunk = [0u8; 64 * 1024];
        self.stream
            .set_read_timeout(Some(Duration::from_secs(60)))?;
        loop {
            if let Some(response) = self.take_buffered()? {
                return Ok(Some(response));
            }
            if let Some(d) = deadline {
                let now = Instant::now();
                if now >= d || !wait_readable(&self.stream, d - now)? {
                    return Ok(None);
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }

    /// One blocking round trip.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send_raw(&render_request(method, path, body))?;
        self.read_until(None)?.ok_or_else(|| bad("no response"))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits up to `timeout` for `stream` to become readable (or closed).
///
/// `ppoll(2)` sleeps on a high-resolution timer. A socket read timeout
/// (`SO_RCVTIMEO`) is rounded up to the kernel tick, which would make the
/// open-loop generator send late by up to a tick.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec` on 64-bit
    // Linux; `nfds` is 1, matching the single `fd`; a null sigmask means
    // the signal mask is left unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match rc {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// The flags every daemon of a run is started with (recorded in the
/// provenance line). Worker threads equal `nproc`.
pub fn daemon_flags(threads: usize) -> Vec<String> {
    [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        &threads.to_string(),
        "--shards",
        &threads.to_string(),
        "--queue-cap",
        "64",
        "--cache-cap",
        "1024",
        "--session-cap",
        "64",
        "--timeout-ms",
        "30000",
        "--repair-threshold",
        "0.25",
        "--keep-alive-max",
        "100000000",
        "--idle-timeout-ms",
        "600000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A running `cool serve`. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and waits until `/healthz` answers 200.
    pub fn start(bin: &Path, flags: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().ok_or_else(|| bad("no stderr pipe"))?;
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(bad("daemon exited before listening"));
            }
            if let Some(rest) = line.split("http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|_| bad("unparsable listen address"))?;
            }
        };
        // Drain the rest of stderr so the daemon never blocks on the pipe.
        let stderr = std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr,
            stderr: Some(stderr),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let ok = Conn::connect(addr)
                .and_then(|mut c| c.request("GET", "/healthz", ""))
                .is_ok_and(|r| r.status == 200);
            if ok {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err(bad("daemon never answered /healthz"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// `/metrics` counters by series name (labels included).
    pub fn metrics(&self) -> io::Result<Vec<(String, f64)>> {
        let page = Conn::connect(self.addr)?
            .request("GET", "/metrics", "")?
            .body;
        Ok(page
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// Asks the daemon to drain and stop, then reaps it; kills it if it
    /// has not exited within ten seconds.
    pub fn stop(mut self) -> io::Result<()> {
        let asked =
            Conn::connect(self.addr).and_then(|mut c| c.request("POST", "/v1/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        if let Some(child) = self.child.as_mut() {
            if asked.is_ok() {
                while Instant::now() < deadline {
                    if child.try_wait()?.is_some() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        self.kill();
        asked.map(|_| ())
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The value of one `/metrics` series in a scrape (0 when absent).
fn series(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Differences of the daemon's `/metrics` counters over a live phase
/// (all 0 on `plan`, which runs no daemon).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub cache_hit_ratio: f64,
    pub queue_rejections: f64,
    pub timeouts: f64,
}

impl Counters {
    pub fn between(before: &[(String, f64)], after: &[(String, f64)]) -> Counters {
        let delta = |name: &str| series(after, name) - series(before, name);
        let hits = delta("cool_cache_hits_total");
        let misses = delta("cool_cache_misses_total");
        Counters {
            cache_hit_ratio: hits / (hits + misses).max(1.0),
            queue_rejections: delta("cool_queue_rejections_total"),
            timeouts: delta("cool_request_timeouts_total"),
        }
    }
}
