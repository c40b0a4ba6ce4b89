//! The open-loop request generator.
//!
//! Request `i` is due at `start + i / rate` whether or not earlier ones
//! were answered; it is sent (pipelined on one keep-alive connection) as
//! soon as it is due, and its latency runs from the due time to the
//! response. A stall therefore charges its full cost to every request
//! that fell due during it, and if the generator itself falls behind, the
//! delay shows both in the latencies and in the reported lateness
//! (`sent - due`).

use crate::client::{Conn, Response};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct Sent {
    /// Index into the request list (requests repeat cyclically).
    pub item: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Option<Instant>,
    pub response: Option<Response>,
}

impl Sent {
    /// Latency from the due time, in ms; `None` if never answered.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

#[derive(Debug, Default)]
pub struct OpenLoopRecord {
    pub requests: Vec<Sent>,
    pub error: Option<String>,
}

/// Sends `requests` cyclically at `rate` per second from `start` until
/// `end`, then waits up to `drain` for the outstanding responses.
/// `before_send` runs before each send (a no-op outside tests).
pub fn run_open_loop(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    rate: f64,
    start: Instant,
    end: Instant,
    drain: Duration,
    before_send: &mut dyn FnMut(usize),
) -> OpenLoopRecord {
    let mut record = OpenLoopRecord::default();
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let due_of = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0usize;
    loop {
        while due_of(next) < end && due_of(next) <= Instant::now() {
            before_send(next);
            let item = next % requests.len();
            let sent = Instant::now();
            if let Err(e) = conn.send_raw(&requests[item]) {
                record.error = Some(format!("send: {e}"));
                return record;
            }
            record.requests.push(Sent {
                item,
                due: due_of(next),
                sent,
                done: None,
                response: None,
            });
            inflight.push_back(record.requests.len() - 1);
            next += 1;
        }
        let sending = due_of(next) < end;
        if !sending && inflight.is_empty() {
            return record;
        }
        let deadline = if sending { due_of(next) } else { end + drain };
        if !sending && Instant::now() >= deadline {
            record.error = Some(format!(
                "{} responses outstanding after the drain",
                inflight.len()
            ));
            return record;
        }
        match conn.read_until(Some(deadline)) {
            Ok(Some(response)) => {
                let done = Instant::now();
                let Some(i) = inflight.pop_front() else {
                    record.error = Some("response without a request".into());
                    return record;
                };
                record.requests[i].done = Some(done);
                record.requests[i].response = Some(response);
            }
            Ok(None) => {}
            Err(e) => {
                record.error = Some(format!("read: {e}"));
                return record;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::render_request;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-connection HTTP server that answers each request at once,
    /// except that it sleeps `stall` before answering request `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0usize;
            loop {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    let body = format!("{served}");
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    if s.write_all(reply.as_bytes()).is_err() {
                        return;
                    }
                    served += 1;
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    fn run(
        stall_at: usize,
        server_stall: Duration,
        generator_stall: Option<(usize, Duration)>,
    ) -> OpenLoopRecord {
        let (addr, server) = stalling_server(stall_at, server_stall);
        let mut conn = Conn::connect(addr).expect("connect");
        let requests = vec![render_request("GET", "/", "")];
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_millis(400);
        let mut hook = |i: usize| {
            if let Some((at, d)) = generator_stall {
                if i == at {
                    std::thread::sleep(d);
                }
            }
        };
        let record = run_open_loop(
            &mut conn,
            &requests,
            100.0,
            start,
            end,
            Duration::from_secs(5),
            &mut hook,
        );
        drop(conn);
        server.join().expect("server thread");
        record
    }

    #[test]
    fn a_server_stall_is_charged_to_every_request_due_during_it() {
        // 100 requests/s for 400 ms; the server sits on request 10 (due at
        // 100 ms) for 150 ms. Requests 10..=24 fall due before it answers.
        let record = run(10, Duration::from_millis(150), None);
        assert!(record.error.is_none(), "{:?}", record.error);
        assert_eq!(record.requests.len(), 40);
        for s in &record.requests {
            assert!(s.response.is_some());
        }
        let stalled_end = record.requests[10].done.expect("answered");
        for s in &record.requests[10..25] {
            // Each waited from its due time until the stall ended.
            let latency = s.latency_ms().expect("answered");
            let floor = (stalled_end - s.due).as_secs_f64() * 1e3;
            assert!(latency >= floor - 1e-6, "latency {latency} < wait {floor}");
        }
        assert!(record.requests[10].latency_ms().expect("answered") >= 150.0);
        assert!(record.requests[20].latency_ms().expect("answered") >= 45.0);
        // The generator itself kept to its schedule.
        let late: Vec<f64> = record.requests.iter().map(Sent::late_ms).collect();
        assert!(late.iter().all(|&l| l < 40.0), "{late:?}");
    }

    #[test]
    fn a_generator_stall_shows_as_lateness_and_in_latency() {
        // The generator blocks 120 ms before sending request 5: requests
        // 5..=16 go out late, and their latency still runs from the due
        // time, so the client-side stall is not hidden.
        let record = run(
            usize::MAX,
            Duration::ZERO,
            Some((5, Duration::from_millis(120))),
        );
        assert!(record.error.is_none(), "{:?}", record.error);
        let s = &record.requests[5];
        assert!(s.late_ms() >= 120.0);
        assert!(s.latency_ms().expect("answered") >= s.late_ms());
        let fired_ms = (s.done.expect("answered") - s.sent).as_secs_f64() * 1e3;
        assert!(fired_ms < s.latency_ms().expect("answered") - 100.0);
        assert!(record.requests[10].late_ms() >= 60.0);
    }
}
