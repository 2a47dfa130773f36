//! Open-loop load generator: one thread, a fixed arrival schedule, and
//! `ppoll(2)` over every outstanding connection.
//!
//! Each request goes out at its due time whether or not earlier ones
//! have been answered, and is timed from that due time. A stalled server
//! therefore shows as latency on every request that queued behind the
//! stall, and the generator's own lateness is recorded separately.

use crate::daemon::{parse_response, wire_request};
use crate::stats::due_ns;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: c_short = 0x1;

/// How long before a due time the generator stops sleeping and polls.
const SPIN: Duration = Duration::from_micros(300);
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Waits until a descriptor in `fds` is readable or `timeout` passes.
fn wait_readable(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd structs whose length is passed as `nfds`; `ts` outlives the
    // call; a null sigmask is allowed and leaves the mask unchanged.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Asks the kernel for 1 µs timer slack on this thread (default 50 µs),
/// so the generator wakes on time for each due request.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling attributes.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// One request to send: endpoint path and JSON body.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// `POST` path, e.g. `/v1/sweep`.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
}

/// What happened to one request. Times are ns after the schedule start.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When it was due.
    pub due_ns: u64,
    /// When sending began (connect start).
    pub sent_ns: u64,
    /// When the connection was established.
    pub connected_ns: u64,
    /// When the request bytes were written.
    pub written_ns: u64,
    /// When the first response byte arrived.
    pub first_byte_ns: u64,
    /// When the full response had arrived (or the failure was seen).
    pub done_ns: u64,
    /// When the socket was closed.
    pub closed_ns: u64,
    /// HTTP status, 0 on a connection-level failure.
    pub status: u16,
    /// Response body (empty on failure).
    pub body: String,
    /// Connection-level failure, if any.
    pub error: Option<String>,
}

struct InFlight {
    index: usize,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Sends `requests[i]` at `i / rate` seconds after the start, for every
/// `i`, and collects one [`Outcome`] per request, timed from the returned
/// start. Requests still unanswered `grace` after the last due time fail
/// as timeouts.
pub fn run_open_loop(
    addr: SocketAddr,
    requests: &[WireRequest],
    rate: f64,
    grace: Duration,
) -> (Instant, Vec<Outcome>) {
    tighten_timer_slack();
    let wires: Vec<String> = requests
        .iter()
        .map(|r| wire_request("POST", r.path, &r.body))
        .collect();
    let mut out: Vec<Outcome> = (0..requests.len())
        .map(|i| Outcome {
            due_ns: due_ns(i, rate),
            ..Outcome::default()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let last_due = out.last().map_or(0, |o| o.due_ns);
    let give_up = start + Duration::from_nanos(last_due) + grace;

    let mut inflight: Vec<InFlight> = Vec::new();
    let mut next = 0usize;
    let mut chunk = [0u8; 16 << 10];
    loop {
        // Send everything that is due.
        while next < requests.len() && out[next].due_ns <= ns(Instant::now()) {
            let o = &mut out[next];
            let t_send = Instant::now();
            o.sent_ns = ns(t_send);
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    o.connected_ns = ns(Instant::now());
                    let wrote = stream
                        .write_all(wires[next].as_bytes())
                        .and_then(|()| stream.set_nonblocking(true));
                    o.written_ns = ns(Instant::now());
                    match wrote {
                        Ok(()) => inflight.push(InFlight {
                            index: next,
                            stream,
                            buf: Vec::new(),
                        }),
                        Err(e) => fail(o, ns(Instant::now()), format!("write: {e}")),
                    }
                }
                Err(e) => fail(o, ns(Instant::now()), format!("connect: {e}")),
            }
            next += 1;
        }
        if next == requests.len() && inflight.is_empty() {
            break;
        }
        if Instant::now() > give_up {
            let t = ns(Instant::now());
            for f in inflight.drain(..) {
                fail(
                    &mut out[f.index],
                    t,
                    "no response before the grace period".into(),
                );
            }
            break;
        }

        // Sleep until the next due time or until a response is readable.
        let until = if next < requests.len() {
            start + Duration::from_nanos(out[next].due_ns)
        } else {
            give_up
        };
        let mut fds: Vec<PollFd> = inflight
            .iter()
            .map(|f| PollFd {
                fd: f.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        // Sleep only until shortly before the due time, then poll without
        // sleeping: an idle CPU can take far longer than the timer slack to
        // wake, and that delay would be charged to the request.
        let timeout = until
            .saturating_duration_since(Instant::now())
            .saturating_sub(SPIN);
        wait_readable(&mut fds, timeout);

        // Drain whatever is readable; retire finished requests.
        let mut i = 0;
        while i < inflight.len() {
            let ready = fds.get(i).is_some_and(|p| p.revents != 0);
            if ready && read_available(&mut inflight[i], &mut chunk, &mut out, ns) {
                let f = inflight.swap_remove(i);
                fds.swap_remove(i);
                drop(f.stream);
                out[f.index].closed_ns = ns(Instant::now());
            } else {
                i += 1;
            }
        }
    }
    (start, out)
}

fn fail(o: &mut Outcome, at: u64, why: String) {
    o.done_ns = at;
    o.closed_ns = at;
    o.status = 0;
    o.error = Some(why);
}

/// Reads what the socket has; returns true when the request is finished
/// (full response, EOF or error).
fn read_available(
    f: &mut InFlight,
    chunk: &mut [u8],
    out: &mut [Outcome],
    ns: impl Fn(Instant) -> u64,
) -> bool {
    loop {
        match f.stream.read(chunk) {
            Ok(0) => {
                let o = &mut out[f.index];
                finish(o, &f.buf, ns(Instant::now()));
                return true;
            }
            Ok(n) => {
                if f.buf.is_empty() {
                    out[f.index].first_byte_ns = ns(Instant::now());
                }
                f.buf.extend_from_slice(&chunk[..n]);
                if let Some(head) = parse_response(&f.buf) {
                    if head.complete(f.buf.len()) {
                        finish(&mut out[f.index], &f.buf, ns(Instant::now()));
                        return true;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                let o = &mut out[f.index];
                fail(o, ns(Instant::now()), format!("read: {e}"));
                return true;
            }
        }
    }
}

fn finish(o: &mut Outcome, buf: &[u8], at: u64) {
    o.done_ns = at;
    match parse_response(buf) {
        Some(head) if head.complete(buf.len()) => {
            o.status = head.status;
            let body = &buf[head.body_at..head.body_at + head.body_len];
            o.body = String::from_utf8_lossy(body).into_owned();
        }
        _ => {
            o.status = 0;
            o.error = Some(format!("truncated response ({} bytes)", buf.len()));
        }
    }
}
