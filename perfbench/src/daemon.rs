//! The server under test as its own process: launch `nalist serve` on a
//! wal-dir, wait until it listens, read its `/proc` figures and
//! `/metrics` counters, and stop it through `--stop-file`.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nalist_types::json::{parse as parse_json, Json};

use crate::http::Conn;

/// How long a launch may take before the benchmark gives up.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a `--stop-file` drain may take before the process is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `nalist serve`. Dropping it kills the process if
/// [`Daemon::stop`] was not called.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    /// The address the server listens on.
    pub addr: SocketAddr,
    stop_file: PathBuf,
}

impl Daemon {
    /// Launches `bin serve 127.0.0.1:0 --wal-dir <wal_dir>` (shipped
    /// defaults otherwise) and waits until its port file names the bound
    /// address. `files` holds the port, stop and log files.
    pub fn launch(bin: &Path, wal_dir: &Path, files: &Path) -> Result<Daemon, String> {
        let port_file = files.join("port");
        let stop_file = files.join("stop");
        for f in [&port_file, &stop_file] {
            if f.exists() {
                fs::remove_file(f).map_err(|e| format!("cannot remove {}: {e}", f.display()))?;
            }
        }
        let log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(files.join("serve.log"))
            .map_err(|e| format!("cannot open the server log: {e}"))?;
        let log2 = log
            .try_clone()
            .map_err(|e| format!("cannot open the server log: {e}"))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--wal-dir")
            .arg(wal_dir)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--stop-file")
            .arg(&stop_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stop_file,
        };
        let t0 = Instant::now();
        loop {
            if let Ok(text) = fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    daemon.addr = addr;
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.try_wait() {
                return Err(format!("nalist serve exited during start-up: {status}"));
            }
            if t0.elapsed() > LAUNCH_TIMEOUT {
                return Err("nalist serve did not start listening in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn try_wait(&mut self) -> Option<std::process::ExitStatus> {
        self.child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten())
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Nanoseconds of CPU the server's threads have used so far: the
    /// sum of every task's `schedstat` run time (user and system).
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut total = 0u64;
        for entry in fs::read_dir(&dir).map_err(|e| format!("cannot read {dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread may exit between listing and reading.
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            total += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("unexpected {}", path.display()))?;
        }
        Ok(total)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Graceful stop: touch the stop file, wait for the process to exit
    /// (killing it after [`STOP_TIMEOUT`]). Close client connections
    /// first, or idle keep-alive sockets hold workers until their read
    /// timeout.
    pub fn stop(mut self) -> Result<(), String> {
        fs::write(&self.stop_file, b"stop\n")
            .map_err(|e| format!("cannot write stop file: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < STOP_TIMEOUT {
            if let Some(status) = self.try_wait() {
                self.child = None;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("nalist serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("nalist serve did not drain after the stop file appeared".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `/metrics` figures the benchmark reads around each timed window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Counter name → value, in document order.
    pub counters: Vec<(String, f64)>,
    /// `request_ns` histogram count.
    pub request_count: f64,
    /// `request_ns` histogram sum, nanoseconds.
    pub request_ns: f64,
    /// Span records in the document.
    pub spans: f64,
    /// Size of the document in bytes.
    pub bytes: usize,
}

impl Metrics {
    /// One counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `self - before`, field by field (sizes are kept from `self`).
    #[must_use]
    pub fn since(&self, before: &Metrics) -> Metrics {
        Metrics {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - before.counter(k)))
                .collect(),
            request_count: self.request_count - before.request_count,
            request_ns: self.request_ns - before.request_ns,
            spans: self.spans - before.spans,
            bytes: self.bytes,
        }
    }
}

/// Fetches and parses `GET /metrics`.
pub fn scrape(conn: &mut Conn) -> Result<Metrics, String> {
    let (status, body) = conn
        .call("GET", "/metrics", None)
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    parse_metrics(&body)
}

/// Parses a metrics document. Only the part before the span list goes
/// through the JSON parser; spans are counted, since the daemon's span
/// buffer can make the document many megabytes long.
pub fn parse_metrics(doc: &str) -> Result<Metrics, String> {
    const SPANS: &str = "\"spans\": [";
    let at = doc.find(SPANS).ok_or("metrics document has no span list")?;
    let head = format!("{}\"spans\": []}}", &doc[..at]);
    let json = parse_json(&head).map_err(|e| format!("metrics document: {e}"))?;
    let counters = match json.get("counters") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => return Err("metrics document has no counters".to_string()),
    };
    let request = json
        .get("histograms")
        .and_then(Json::as_arr)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("request_ns"))
        })
        .ok_or("metrics document has no request_ns histogram")?;
    let num = |key: &str| match request.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("request_ns histogram has no {key}")),
    };
    Ok(Metrics {
        counters,
        request_count: num("count")?,
        request_ns: num("sum")?,
        spans: doc[at..].matches("{\"site\": ").count() as f64,
        bytes: doc.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_obs::{MetricsRecorder, Recorder};

    #[test]
    fn metrics_documents_parse_and_subtract() {
        let rec = MetricsRecorder::new();
        rec.add(nalist_obs::Counter::HttpRequests, 3);
        rec.observe(nalist_obs::Hist::RequestNs, 1_000);
        let t = rec.enter("cache::lookup", 1);
        rec.exit(t, 1);
        let doc = nalist_obs::render_snapshot_json("serve", 0, true, &rec.snapshot());
        let m = parse_metrics(&doc).unwrap();
        assert_eq!(m.counter("requests"), 3.0);
        assert_eq!((m.request_count, m.request_ns, m.spans), (1.0, 1000.0, 1.0));
        rec.add(nalist_obs::Counter::HttpRequests, 2);
        let later = parse_metrics(&nalist_obs::render_snapshot_json(
            "serve",
            0,
            true,
            &rec.snapshot(),
        ))
        .unwrap();
        assert_eq!(later.since(&m).counter("requests"), 2.0);
    }
}
