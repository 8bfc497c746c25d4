//! `dqbench` — the repository benchmark.
//!
//! ```text
//! dqbench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! dqbench --bin-dir DIR --record-golden NAME
//! ```
//!
//! With `--trace 0` it drives the release binaries in `DIR` from outside
//! (`dqct` one process per invocation, `dqctd` over loopback TCP), checks
//! every output against the golden digests in `golden/`, and prints the
//! end-to-end metrics. With `--trace 1` it replays the same inputs through
//! the libraries in process, one span per public call, and prints the
//! per-layer metrics. The last line of standard output is one JSON object;
//! a human-readable summary goes to standard error. Any output that does
//! not match its golden digest makes the exit code nonzero.
//!
//! `--record-golden` runs a workload's whole input universe through the
//! binaries and rewrites its golden file.

mod cli;
mod gen;
mod service;
mod stats;
mod traced;

use stats::{median, quantile, Metrics};
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["cli_design", "cli_shots", "service_open"];

/// `dqctd` start-ups whose median is the service's `setup_s`.
const DAEMON_SETUP_REPEATS: usize = 21;

struct Args {
    bin_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bin_dir: PathBuf::from("target/release"),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--bin-dir" => args.bin_dir = PathBuf::from(value()?),
            "--workload" => args.workload = value()?,
            "--record-golden" => {
                args.workload = value()?;
                args.record = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The golden digests of `workload`, by key.
fn golden(workload: &str) -> HashMap<String, String> {
    let text = match workload {
        "cli_design" => include_str!("../golden/cli_design.txt"),
        "cli_shots" => include_str!("../golden/cli_shots.txt"),
        _ => include_str!("../golden/service_open.txt"),
    };
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, d)| (k.to_string(), d.to_string()))
        .collect()
}

/// What a run reports besides its metrics.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that are wrong or missing (a subset of `failed`; the rest
    /// are jobs the service shed with a typed rejection).
    pub mismatched: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for bin in ["dqct", "dqctd"] {
        if !args.bin_dir.join(bin).is_file() {
            eprintln!("dqbench: no {bin} binary in {}", args.bin_dir.display());
            return ExitCode::FAILURE;
        }
    }
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("dqbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let result = if args.record {
        record_golden(&args, &tmp).map(|()| None)
    } else if args.trace {
        traced::run(&args.bin_dir, &args.workload, args.seed, args.seconds, &tmp).map(Some)
    } else {
        run_e2e(&args, &tmp).map(Some)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(Some(outcome)) => {
            let unmeasured = outcome.metrics.non_finite();
            if !unmeasured.is_empty() {
                eprintln!("dqbench: no finite value for {unmeasured:?}");
            }
            let correct = outcome.mismatched == 0 && unmeasured.is_empty();
            println!(
                "{}",
                outcome
                    .metrics
                    .result_line(correct, outcome.attempted, outcome.failed)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "dqbench: {} of {} failed ({} output mismatches)",
                    outcome.failed, outcome.attempted, outcome.mismatched
                );
                ExitCode::FAILURE
            }
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_e2e(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    if args.workload == "service_open" {
        service_e2e(&args.bin_dir, args.seed, budget, tmp)
    } else {
        cli_e2e(&args.bin_dir, &args.workload, args.seed, budget, tmp)
    }
}

/// The wall time in seconds of one one-gate `dqct` invocation on `input`,
/// a sample of the CLI's `setup_s`.
fn one_gate(bin_dir: &Path, input: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let status = std::process::Command::new(bin_dir.join("dqct"))
        .args(["--answer", "1"])
        .arg(input)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run dqct: {e}"))?;
    if !status.success() {
        return Err("the one-gate dqct invocation failed".to_string());
    }
    Ok(start.elapsed().as_secs_f64())
}

fn cli_e2e(
    bin_dir: &Path,
    workload: &str,
    seed: u64,
    budget: Duration,
    tmp: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let golden = golden(workload);
    let one_gate_input = tmp.join("one_gate.qasm");
    std::fs::write(&one_gate_input, cli::ONE_GATE).map_err(|e| e.to_string())?;
    let metrics_out = tmp.join("metrics.json");
    let universe = cli::universe(workload);
    // Inputs are written before the clock starts.
    let inputs: Vec<PathBuf> = universe
        .iter()
        .map(|inv| cli::input_file(tmp, inv))
        .collect();
    let mut walls = Vec::new();
    // One set-up sample before every invocation: hundreds per run, spread
    // over the whole run, so the median of these millisecond samples does
    // not hang on the machine's state during one short burst.
    let mut setups = Vec::new();
    let (mut failed, mut mismatched, mut shots) = (0u64, 0u64, 0u64);
    let loop_start = Instant::now();
    // Whole passes: another one only while it fits the budget.
    let mut pass = 0;
    let mut last_pass = Duration::ZERO;
    while pass == 0 || start.elapsed() + last_pass <= budget {
        let pass_start = Instant::now();
        for i in cli::pass_order(universe.len(), seed, pass) {
            let inv = &universe[i];
            setups.push(one_gate(bin_dir, &one_gate_input)?);
            let ran = cli::run(bin_dir, inv, &inputs[i], &metrics_out);
            walls.push(ran.wall.as_secs_f64() * 1e3);
            if ran.ok && golden.get(&inv.key) == Some(&ran.digest) {
                shots += inv.shots;
            } else {
                failed += 1;
                mismatched += 1;
                eprintln!(
                    "dqbench: {}: exit ok {}, output does not match its golden digest {}",
                    inv.key,
                    ran.ok,
                    ran.stderr.trim()
                );
            }
        }
        last_pass = pass_start.elapsed();
        pass += 1;
    }
    let loop_wall = loop_start.elapsed().as_secs_f64() - setups.iter().sum::<f64>();
    let n = walls.len();
    let mut m = Metrics::default();
    m.set("latency_p50_ms", median(&walls), "ms");
    m.set("latency_p90_ms", quantile(&walls, 0.9).unwrap_or(0.0), "ms");
    m.set("throughput_per_s", n as f64 / loop_wall, "1/s");
    m.set("setup_s", median(&setups), "s");
    m.set("peak_rss_mb", cli::children_peak_rss_mb(), "MiB");
    eprintln!(
        "dqbench: {workload}: {n} invocations in {loop_wall:.2} s ({:.0} shots/s)",
        shots as f64 / loop_wall
    );
    Ok(Outcome {
        metrics: m,
        attempted: n as u64,
        failed,
        mismatched,
    })
}

/// Checks every job of `phase` against its golden digest; returns the jobs
/// attempted, failed, and failed other than by a typed shed.
pub fn check_service(
    golden: &HashMap<String, String>,
    plan: &[service::Planned],
    phase: &service::Phase,
) -> (u64, u64, u64) {
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for (i, observed) in &phase.jobs {
        attempted += 1;
        let response = observed.as_ref().map_or("", |o| o.response.as_str());
        let key = &plan[*i].kind.key;
        if service::result_digest(response).is_some_and(|d| golden.get(key) == Some(&d)) {
            continue;
        }
        failed += 1;
        // A typed shed is load the service refused, not a wrong answer.
        if dqctd::field_str(response, "reason") != Some("queue-full") {
            mismatched += 1;
            eprintln!("dqbench: job {} ({key}): {response}", plan[*i].id);
        }
    }
    (attempted, failed, mismatched)
}

/// Starts `DAEMON_SETUP_REPEATS` daemons one after another; keeps the last
/// one.
pub fn start_daemon(bin_dir: &Path, tmp: &Path) -> Result<(service::Daemon, f64), String> {
    let mut times = Vec::new();
    let journal = tmp.join("journal.wal");
    for i in 0..DAEMON_SETUP_REPEATS {
        let (daemon, took) = service::Daemon::spawn(bin_dir, &journal)?;
        times.push(took.as_secs_f64());
        if i + 1 == DAEMON_SETUP_REPEATS {
            return Ok((daemon, median(&times)));
        }
        daemon.stop(Duration::from_secs(10))?;
    }
    unreachable!("DAEMON_SETUP_REPEATS is positive")
}

/// One service run: a warm-up, then the open loop at `service::RATE` as
/// consecutive legs.
pub struct ServiceRun {
    /// Every job sent, warm-up included, in send order.
    pub plan: Vec<service::Planned>,
    pub phase: service::Phase,
    /// The measured legs, as ranges of `phase.jobs`.
    pub legs: Vec<Range<usize>>,
    /// Wall time of the measured legs.
    pub wall: Duration,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub metrics_json: String,
}

impl ServiceRun {
    /// Each measured leg's client latencies in ms, in due order; a job that
    /// was shed or failed misses any latency limit and counts as taking the
    /// whole response timeout, longer than any answered job.
    pub fn leg_latencies(&self) -> Vec<Vec<f64>> {
        let ms = |o: &Option<service::Observed>| match o {
            Some(o) if service::result_digest(&o.response).is_some() => {
                o.latency.as_secs_f64() * 1e3
            }
            _ => RESPONSE_TIMEOUT.as_secs_f64() * 1e3,
        };
        self.legs
            .iter()
            .map(|leg| {
                self.phase.jobs[leg.clone()]
                    .iter()
                    .map(|(_, o)| ms(o))
                    .collect()
            })
            .collect()
    }
}

const WARMUP: Duration = Duration::from_secs(2);
/// The open loop runs as consecutive legs of this length, each on a fresh
/// connection: how the transport stalls depends on each connection's
/// history, and pooling several connections keeps one unlucky connection
/// from setting a run's numbers.
const LEG: Duration = Duration::from_secs(1);
/// How long a phase waits for its last response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(22);

pub fn drive_service(
    bin_dir: &Path,
    seed: u64,
    budget: Duration,
    tmp: &Path,
) -> Result<ServiceRun, String> {
    let start = Instant::now();
    let (mut daemon, setup_s) = start_daemon(bin_dir, tmp)?;
    let mut mix = service::Mix::new(seed);
    let mut run = ServiceRun {
        plan: Vec::new(),
        phase: service::Phase {
            jobs: Vec::new(),
            wall: Duration::ZERO,
        },
        legs: Vec::new(),
        wall: Duration::ZERO,
        setup_s,
        peak_rss_mb: 0.0,
        metrics_json: String::new(),
    };
    let mut leg = 0;
    while leg < 3 || start.elapsed() + LEG <= budget {
        let span = if leg == 0 { WARMUP } else { LEG };
        let plan = service::plan_open(&mut mix, &format!("l{leg}."), span);
        let phase =
            service::run_phase(&daemon.addr, &plan, service::Pacing::Open, RESPONSE_TIMEOUT)?;
        let (offset, first) = (run.plan.len(), run.phase.jobs.len());
        run.phase
            .jobs
            .extend(phase.jobs.into_iter().map(|(i, o)| (offset + i, o)));
        run.plan.extend(plan);
        if leg > 0 {
            run.legs.push(first..run.phase.jobs.len());
            run.wall += phase.wall;
        }
        leg += 1;
    }
    run.metrics_json = daemon.control("metrics")?;
    run.peak_rss_mb = daemon.peak_rss_mb();
    daemon.stop(Duration::from_secs(10))?;
    Ok(run)
}

fn service_e2e(bin_dir: &Path, seed: u64, budget: Duration, tmp: &Path) -> Result<Outcome, String> {
    let golden = golden("service_open");
    let run = drive_service(bin_dir, seed, budget, tmp)?;
    let (attempted, failed, mismatched) = check_service(&golden, &run.plan, &run.phase);
    let legs = run.leg_latencies();
    // Percentiles per leg, then the median over legs: a stall regime that
    // holds one connection does not set the run's number.
    let per_leg = |q: f64| {
        let values: Vec<f64> = legs
            .iter()
            .map(|lat| quantile(lat, q).unwrap_or(f64::INFINITY))
            .collect();
        median(&values)
    };
    let backlogged = legs.iter().filter(|lat| service::backlog_grew(lat)).count();
    let measured: Vec<f64> = legs.concat();
    let answered = measured.iter().filter(|l| l.is_finite()).count();
    let mut m = Metrics::default();
    m.set("latency_p50_ms", per_leg(0.5), "ms");
    m.set("latency_p90_ms", per_leg(0.9), "ms");
    m.set(
        "throughput_per_s",
        answered as f64 / run.wall.as_secs_f64(),
        "1/s",
    );
    m.set("setup_s", run.setup_s, "s");
    m.set("peak_rss_mb", run.peak_rss_mb, "MiB");
    let late: Vec<f64> = run
        .phase
        .jobs
        .iter()
        .filter_map(|(_, o)| o.as_ref().map(|o| o.late.as_secs_f64() * 1e3))
        .collect();
    eprintln!(
        "dqbench: open loop at {} jobs/s: {} jobs measured, {backlogged} of {} legs with a growing backlog, p99 {:.3} ms, generator late p99 {:.3} ms",
        service::RATE,
        measured.len(),
        legs.len(),
        quantile(&measured, 0.99).unwrap_or(f64::INFINITY),
        quantile(&late, 0.99).unwrap_or(0.0),
    );
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        mismatched,
    })
}

fn record_golden(args: &Args, tmp: &Path) -> Result<(), String> {
    let mut lines = Vec::new();
    let file = match args.workload.as_str() {
        "cli_design" | "cli_shots" => {
            let metrics_out = tmp.join("metrics.json");
            for inv in cli::universe(&args.workload) {
                let input = cli::input_file(tmp, &inv);
                let ran = cli::run(&args.bin_dir, &inv, &input, &metrics_out);
                if !ran.ok {
                    return Err(format!("{} failed: {}", inv.key, ran.stderr));
                }
                lines.push(format!("{} {}", inv.key, ran.digest));
            }
            format!("golden/{}.txt", args.workload)
        }
        _ => {
            let (daemon, _) = service::Daemon::spawn(&args.bin_dir, &tmp.join("journal.wal"))?;
            let kinds: Vec<service::JobKind> = (0..service::POOL)
                .flat_map(|t| (0..service::POOL_SEEDS).map(move |k| service::pool_job(t, k)))
                .chain((0..service::FRESH).map(service::fresh_job))
                .collect();
            let plan: Vec<service::Planned> = kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| service::Planned::new(format!("g{i}"), kind, Duration::ZERO))
                .collect();
            let phase = service::run_phase(
                &daemon.addr,
                &plan,
                service::Pacing::Window(8, Duration::from_secs(600)),
                Duration::from_secs(600),
            )?;
            for (i, observed) in &phase.jobs {
                let response = observed.as_ref().map_or("", |o| o.response.as_str());
                let d = service::result_digest(response)
                    .ok_or_else(|| format!("{} failed: {response}", plan[*i].kind.key))?;
                lines.push(format!("{} {d}", plan[*i].kind.key));
            }
            if phase.jobs.len() != plan.len() {
                return Err("not every golden job was sent".to_string());
            }
            daemon.stop(Duration::from_secs(10))?;
            "golden/service_open.txt".to_string()
        }
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    lines.sort();
    std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
    eprintln!(
        "dqbench: wrote {} digests to {}",
        lines.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_input_a_run_can_draw_has_a_golden_digest() {
        for workload in ["cli_design", "cli_shots"] {
            let golden = golden(workload);
            let universe = cli::universe(workload);
            assert_eq!(golden.len(), universe.len(), "{workload}");
            assert!(universe.iter().all(|inv| golden.contains_key(&inv.key)));
        }
        let golden = golden("service_open");
        let pool = (0..service::POOL).flat_map(|t| (0..service::POOL_SEEDS).map(move |k| (t, k)));
        assert!(pool
            .map(|(t, k)| service::pool_job(t, k).key)
            .all(|key| golden.contains_key(&key)));
        assert!((0..service::FRESH).all(|f| golden.contains_key(&service::fresh_job(f).key)));
    }
}
