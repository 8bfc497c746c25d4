//! The `dqctd` side: a child daemon over loopback TCP, the job mix, and an
//! open-loop client with one sender and one receiver thread.
//!
//! The client frames requests with `dqctd::write_frame`, exactly as
//! `dqct client` does, and sets no socket option that client does not set:
//! whatever the transport costs, the numbers show it. Reads block; nothing
//! here sleeps to poll for a response.

use crate::gen::{self, Scheme, Template};
use crate::stats::digest;
use dqctd::{field_counts, field_str, field_u64, read_frame, render_submit, write_frame, JobSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Shots per job: the paper's Fig. 7 count and the server default.
pub const SHOTS: u64 = 1024;
/// Templates that 90% of jobs resubmit (a working set far below the
/// server's 256-entry FIFO transform cache).
pub const POOL: u64 = 48;
/// Shot seeds each pool template is resubmitted with.
pub const POOL_SEEDS: u64 = 16;
/// Distinct fresh networks (cache misses) a run draws from.
pub const FRESH: u64 = 8192;
/// Share of jobs that resubmit a pool template.
pub const POOL_SHARE: f64 = 0.9;
/// The open-loop rate of `service_open`, in jobs/s: about 20% of the
/// daemon's capacity on a 2-core machine.
pub const RATE: f64 = 400.0;
/// Workers of the daemon under test.
pub const WORKERS: &str = "2";

/// One job's identity in the golden digests.
#[derive(Debug, Clone)]
pub struct JobKind {
    pub key: String,
    pub template: Template,
}

/// The width and scheme of network number `i` of a family: 4–8 data
/// qubits, both schemes.
fn shape(i: u64) -> (usize, Scheme) {
    let scheme = if (i / 5).is_multiple_of(2) {
        Scheme::Dynamic1
    } else {
        Scheme::Dynamic2
    };
    (4 + (i % 5) as usize, scheme)
}

/// Pool network `t` resubmitted with shot seed number `k`.
pub fn pool_job(t: u64, k: u64) -> JobKind {
    let (data, scheme) = shape(t);
    let mut template = gen::template("pool", data, scheme, t);
    template.shot_seed = gen::mix(&[template.net_seed, k]) % 1_000_000;
    JobKind {
        key: format!("pool/{t}/{k}"),
        template,
    }
}

/// Fresh network `f`: never in the pool, so the transform cache misses.
pub fn fresh_job(f: u64) -> JobKind {
    let (data, scheme) = shape(f);
    JobKind {
        key: format!("fresh/{f}"),
        template: gen::template("fresh", data, scheme, f),
    }
}

/// The seeded job mix: 90% pool resubmissions, 10% fresh networks taken in
/// order from a seeded offset, so no fresh network repeats within a run.
pub struct Mix {
    rng: StdRng,
    next_fresh: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(gen::mix(&[seed, 0x5e41]));
        let next_fresh = rng.gen_range(0..FRESH);
        Mix { rng, next_fresh }
    }

    pub fn next_job(&mut self) -> JobKind {
        if self.rng.gen_bool(POOL_SHARE) {
            let t = self.rng.gen_range(0..POOL);
            let k = self.rng.gen_range(0..POOL_SEEDS);
            pool_job(t, k)
        } else {
            let f = self.next_fresh % FRESH;
            self.next_fresh += 1;
            fresh_job(f)
        }
    }

    /// An exponential inter-arrival gap at `rate` jobs/s.
    pub fn gap(&mut self, rate: f64) -> Duration {
        let u: f64 = self.rng.gen();
        Duration::from_secs_f64(-(1.0 - u).ln() / rate)
    }
}

/// The request payload of one job.
pub fn submit_payload(id: &str, kind: &JobKind) -> Vec<u8> {
    render_submit(&JobSpec {
        id: id.to_string(),
        shots: Some(SHOTS),
        seed: Some(kind.template.shot_seed),
        answer: vec![kind.template.data],
        data: Vec::new(),
        ancilla: Vec::new(),
        scheme: Some(kind.template.scheme.name().to_string()),
        deadline_ms: None,
        qasm: kind.template.qasm.clone(),
    })
}

/// The golden digest of a result response: its termination and counts.
/// `None` when the response is not a complete result.
pub fn result_digest(json: &str) -> Option<String> {
    if field_str(json, "type") != Some("result") {
        return None;
    }
    let termination = field_str(json, "termination")?;
    let requested = field_u64(json, "requested")?;
    if termination != "completed" || field_u64(json, "completed")? != requested {
        return None;
    }
    let counts = field_counts(json)?;
    Some(digest(format!("{termination} {counts}").as_bytes()))
}

/// A float field (`"key":1.25`) of a flat response.
pub fn field_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..]
        .find([',', '}'])
        .map_or(json.len(), |e| start + e);
    json[start..end].parse().ok()
}

/// A `dqctd` child process listening on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    /// Spawns the daemon and waits for its first `pong`; returns the
    /// daemon and the time from spawn to that pong.
    pub fn spawn(bin_dir: &Path, journal: &Path) -> Result<(Daemon, Duration), String> {
        let _ = std::fs::remove_file(journal);
        let start = Instant::now();
        let mut child = Command::new(bin_dir.join("dqctd"))
            .args(["--addr", "127.0.0.1:0", "--workers", WORKERS, "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start dqctd: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("dqctd exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("dqctd: listening on ") {
                break addr.to_string();
            }
        };
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        let mut daemon = Daemon {
            child,
            addr,
            stderr: Some(drain),
        };
        let pong = daemon.control("ping")?;
        if field_str(&pong, "type") != Some("pong") {
            return Err(format!("dqctd answered ping with {pong}"));
        }
        Ok((daemon, start.elapsed()))
    }

    /// One request on its own connection, answered by one frame.
    pub fn control(&mut self, verb: &str) -> Result<String, String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("cannot connect: {e}"))?;
        write_frame(&mut stream, verb.as_bytes()).map_err(|e| format!("send {verb}: {e}"))?;
        let frame = read_frame(&mut stream, dqctd::MAX_FRAME_BYTES)
            .map_err(|e| format!("read {verb}: {e}"))?
            .ok_or_else(|| format!("dqctd closed the connection on {verb}"))?;
        String::from_utf8(frame).map_err(|_| "response is not UTF-8".to_string())
    }

    /// Peak resident memory of the daemon so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Drains the daemon with the `drain` verb and waits for it to exit;
    /// kills it when it has not exited within `timeout`.
    pub fn stop(mut self, timeout: Duration) -> Result<(), String> {
        let drained = self.control("drain");
        let deadline = Instant::now() + timeout;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break None,
            }
        };
        let clean = match status {
            Some(status) => status.success(),
            None => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                false
            }
        };
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
        match (drained, clean) {
            (Ok(_), true) => Ok(()),
            (Err(e), _) => Err(format!("drain failed: {e}")),
            (Ok(_), false) => Err("dqctd did not exit cleanly after drain".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

/// One job of a phase: its payload, identity and due offset.
pub struct Planned {
    pub id: String,
    pub kind: JobKind,
    pub payload: Vec<u8>,
    /// Offset from the phase start at which the job is due.
    pub due: Duration,
}

impl Planned {
    pub fn new(id: String, kind: JobKind, due: Duration) -> Self {
        Planned {
            payload: submit_payload(&id, &kind),
            id,
            kind,
            due,
        }
    }
}

/// How a phase paces its submissions.
pub enum Pacing {
    /// Open loop: every job is sent at its due time.
    Open,
    /// Closed loop: at most `.0` jobs outstanding; no new job is sent
    /// once `.1` has passed.
    Window(usize, Duration),
}

/// What the client saw of one job.
pub struct Observed {
    /// Due time → response frame read.
    pub latency: Duration,
    /// Send start − due time.
    pub late: Duration,
    pub response: String,
}

/// One phase's observations: every job sent, in plan order, with what
/// came back (`None` = never answered).
pub struct Phase {
    pub jobs: Vec<(usize, Option<Observed>)>,
    pub wall: Duration,
}

/// Runs `plan` over one connection: a sender thread writes each request
/// frame (at its due time, or when the window has room), a receiver thread
/// blocks on response frames. A phase that is not fully answered within
/// `timeout` is cut by shutting the socket down.
pub fn run_phase(
    addr: &str,
    plan: &[Planned],
    pacing: Pacing,
    timeout: Duration,
) -> Result<Phase, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let index: HashMap<&str, usize> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id.as_str(), i))
        .collect();
    let (window, span) = match pacing {
        Pacing::Open => (None, Duration::MAX),
        Pacing::Window(n, span) => (Some(n.max(1)), span),
    };
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    if let Some(n) = window {
        for _ in 0..n {
            let _ = credit_tx.send(());
        }
    }
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let t0 = Instant::now();
    let mut sent: Vec<Option<(Instant, Duration)>> = Vec::new();
    let mut received: Vec<Option<(Instant, String)>> = Vec::new();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = vec![None; plan.len()];
            for (i, job) in plan.iter().enumerate() {
                let due = match window {
                    Some(n) => {
                        if credit_rx.recv().is_err() {
                            break;
                        }
                        if t0.elapsed() >= span {
                            // Collect the other outstanding jobs' credits,
                            // then end the receiver's blocking read.
                            for _ in 1..n {
                                if credit_rx.recv().is_err() {
                                    break;
                                }
                            }
                            let _ = writer.shutdown(Shutdown::Read);
                            break;
                        }
                        Instant::now()
                    }
                    None => {
                        let due = t0 + job.due;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    }
                };
                let late = Instant::now().saturating_duration_since(due);
                sent[i] = Some((due, late));
                if write_frame(&mut writer, &job.payload).is_err() {
                    break;
                }
            }
            sent
        });
        let receiver = scope.spawn(move || {
            let mut got: Vec<Option<(Instant, String)>> = vec![None; plan.len()];
            let mut left = plan.len();
            while left > 0 {
                let Ok(Some(frame)) = read_frame(&mut reader, dqctd::MAX_FRAME_BYTES) else {
                    break;
                };
                let at = Instant::now();
                let text = String::from_utf8_lossy(&frame).into_owned();
                if let Some(&i) = field_str(&text, "id").and_then(|id| index.get(id)) {
                    if got[i].is_none() {
                        left -= 1;
                    }
                    got[i] = Some((at, text));
                    if window.is_some() {
                        let _ = credit_tx.send(());
                    }
                }
            }
            let _ = done_tx.send(());
            got
        });
        // Watchdog: unblock both threads if the phase overruns.
        if done_rx.recv_timeout(timeout).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // The receiver held the credit sender: once it is gone, a sender
        // still waiting for credits stops.
        received = receiver.join().expect("receiver thread");
        let _ = stream.shutdown(Shutdown::Both);
        sent = sender.join().expect("sender thread");
    });
    let wall = t0.elapsed();
    let jobs = sent
        .into_iter()
        .zip(received)
        .enumerate()
        .filter_map(|(i, (s, r))| {
            let (due, late) = s?;
            Some((
                i,
                r.map(|(at, response)| Observed {
                    latency: at.saturating_duration_since(due),
                    late,
                    response,
                }),
            ))
        })
        .collect();
    Ok(Phase { jobs, wall })
}

/// Plans the open-loop jobs due within `span` at `RATE` from `mix`, with
/// ids `<prefix><n>`.
pub fn plan_open(mix: &mut Mix, prefix: &str, span: Duration) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut due = mix.gap(RATE);
    while due < span {
        plan.push(Planned::new(
            format!("{prefix}{}", plan.len()),
            mix.next_job(),
            due,
        ));
        due += mix.gap(RATE);
    }
    plan
}

/// Whether a backlog grew during a leg, from its jobs' latencies in due
/// order: the median latency of the last quarter exceeds twice that of the
/// first quarter plus 5 ms. An open loop the service keeps up with stays
/// level however its stalls fall.
pub fn backlog_grew(latencies: &[f64]) -> bool {
    let quarter = latencies.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = crate::stats::median(&latencies[..quarter]);
    let last = crate::stats::median(&latencies[latencies.len() - quarter..]);
    last > 2.0 * first + 5.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_level_leg_has_no_backlog_and_a_climbing_one_has() {
        let level: Vec<f64> = (0..40)
            .map(|i| if i % 7 == 0 { 40.0 } else { 2.0 })
            .collect();
        assert!(!backlog_grew(&level));
        let climbing: Vec<f64> = (0..40).map(|i| 2.0 + f64::from(i)).collect();
        assert!(backlog_grew(&climbing));
        assert!(!backlog_grew(&[1.0, 100.0]));
    }

    #[test]
    fn float_fields_are_read_from_flat_responses() {
        let json = r#"{"type":"result","queue_ms":0.25,"run_ms":1.5}"#;
        assert_eq!(field_f64(json, "queue_ms"), Some(0.25));
        assert_eq!(field_f64(json, "run_ms"), Some(1.5));
        assert_eq!(field_f64(json, "tvd"), None);
    }
}
