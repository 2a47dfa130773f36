//! A real `dacd` child process: start, health-check, metrics scrape,
//! peak memory and a drained stop. The child is always reaped — on
//! [`Daemon::stop`], or killed and waited for on drop.

use ctsdac::service::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// Held open: `--stdin-shutdown` drains the daemon if this process
    /// dies and the pipe closes.
    stdin: Option<ChildStdin>,
    /// Held open so the daemon's exit message never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `dacd` on an ephemeral loopback port with `extra` flags and
    /// waits for its first successful `GET /v1/healthz`. Returns the
    /// daemon and the seconds from spawn to that first health answer
    /// (bind, store recovery and cache priming included).
    pub fn start(bin: &Path, extra: &[String]) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--stdin-shutdown"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("dacd stdout not captured")?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(a)) => a
                .parse::<SocketAddr>()
                .map_err(|e| format!("dacd address `{a}`: {e}")),
            _ => Err(format!(
                "dacd did not report its address (got `{}`)",
                line.trim()
            )),
        };
        let addr = match addr {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let mut daemon = Self {
            child,
            stdin,
            _stdout: stdout,
            addr,
        };
        let give_up = t0 + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) = daemon.request("GET", "/v1/healthz", "") {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
            if Instant::now() > give_up || matches!(daemon.child.try_wait(), Ok(Some(_))) {
                return Err("dacd never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One blocking request on a fresh connection; returns status and body.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        s.write_all(wire_request(method, path, body).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        let resp = parse_response(&raw).ok_or("malformed HTTP response")?;
        Ok((
            resp.status,
            String::from_utf8_lossy(&raw[resp.body_at..]).into_owned(),
        ))
    }

    /// Scrapes `GET /v1/metrics` and flattens the counter sections into
    /// `name -> value`. The snapshot arrives as a JSON document escaped
    /// inside a JSON string, so it is decoded twice.
    pub fn counters(&self) -> Result<BTreeMap<String, f64>, String> {
        let (status, body) = self.request("GET", "/v1/metrics", "")?;
        if status != 200 {
            return Err(format!("metrics answered {status}"));
        }
        decode_metrics(&body)
    }

    /// Peak resident set (VmHWM) of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the daemon (`POST /v1/shutdown`) and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.request("POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("dacd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("dacd did not drain in time".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Decodes a `/v1/metrics` response body into flat counters.
pub fn decode_metrics(body: &str) -> Result<BTreeMap<String, f64>, String> {
    let outer = parse(body).map_err(|e| format!("metrics body: {e}"))?;
    let inner = outer
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(JsonValue::as_str)
        .ok_or("metrics body has no result.metrics string")?;
    let snap = parse(inner).map_err(|e| format!("metrics snapshot: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["deterministic", "nondeterministic"] {
        if let Some(JsonValue::Obj(fields)) = snap.get(section) {
            for (k, v) in fields {
                if let Some(n) = v.as_num() {
                    out.insert(k.clone(), n);
                }
            }
        }
    }
    if out.is_empty() {
        return Err("metrics snapshot has no counters".into());
    }
    Ok(out)
}

/// `after - before` for every counter (gauges and high-water marks
/// included; callers pick the ones that are true counters).
pub fn deltas(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// The machine-wide CPU time counters of `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal), in clock ticks.
pub fn cpu_times() -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let line = text.lines().next().ok_or("/proc/stat is empty")?;
    Ok(line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect())
}

/// Share of CPU time the hypervisor gave to others between two
/// [`cpu_times`] readings: how much of a run's noise came from the host.
pub fn steal_ratio(before: &[u64], after: &[u64]) -> f64 {
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = d.iter().sum();
    match d.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// One HTTP/1.1 request as bytes on the wire.
pub fn wire_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Where a buffered response stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// Offset of the body in the buffer.
    pub body_at: usize,
    /// Declared body length.
    pub body_len: usize,
}

impl ResponseHead {
    /// True once the whole declared body is in a buffer of `len` bytes.
    pub fn complete(&self, len: usize) -> bool {
        len >= self.body_at + self.body_len
    }
}

/// Parses a response head once it is fully buffered.
pub fn parse_response(buf: &[u8]) -> Option<ResponseHead> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let body_len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    Some(ResponseHead {
        status,
        body_at: end + 4,
        body_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_snapshot_is_decoded_through_the_escaped_string() {
        let body = r#"{"status":"ok","result":{"metrics":"{\n  \"schema\": \"ctsdac-metrics-v1\",\n  \"deterministic\": {\n    \"circuit.dc.solves\": 367,\n    \"hist.x\": [[0, 2]]\n  },\n  \"nondeterministic\": {\n    \"pool.chunks\": 42,\n    \"spans\": []\n  }\n}\n"}}"#;
        let c = decode_metrics(body).expect("decode");
        assert_eq!(c.get("circuit.dc.solves"), Some(&367.0));
        assert_eq!(c.get("pool.chunks"), Some(&42.0));
        assert_eq!(c.len(), 2, "arrays are skipped");
        let mut later = c.clone();
        later.insert("pool.chunks".into(), 50.0);
        assert_eq!(deltas(&c, &later).get("pool.chunks"), Some(&8.0));
    }

    #[test]
    fn steal_ratio_is_the_steal_share_of_the_delta() {
        let before = [100, 0, 10, 500, 0, 0, 0, 40];
        let after = [160, 0, 20, 520, 0, 0, 0, 50];
        assert!((steal_ratio(&before, &after) - 0.1).abs() < 1e-12);
        assert_eq!(steal_ratio(&before, &before), 0.0);
    }

    #[test]
    fn response_head_tracks_completeness() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: close\r\n\r\n{\"a\"";
        let head = parse_response(raw).expect("head");
        assert_eq!(head.status, 200);
        assert!(!head.complete(raw.len()));
        assert!(head.complete(raw.len() + 1));
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
