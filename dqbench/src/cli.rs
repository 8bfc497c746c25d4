//! The `dqct` side: closed loops of one process per invocation.

use crate::gen::{self, Scheme, Template};
use crate::stats::digest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Template variants per (width, scheme) cell.
pub const VARIANTS: u64 = 12;
/// Shots of a noiseless `cli_shots` invocation.
pub const SHOTS: u64 = 1 << 20;
/// Shots of a noisy `cli_shots` invocation.
pub const NOISY_SHOTS: u64 = 32_768;

/// The design-space workload's widths; at most `REUSE_MAX_DATA` data
/// qubits the reuse explorer runs too.
pub const DESIGN_WIDTHS: std::ops::RangeInclusive<usize> = 6..=13;
pub const REUSE_MAX_DATA: usize = 7;
/// The shot-sampling workload's widths.
pub const SHOT_WIDTHS: std::ops::RangeInclusive<usize> = 4..=8;

/// One `dqct` invocation: its input, arguments and golden key.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub key: String,
    pub template: Template,
    /// Arguments before the input file (and before `--metrics-out`).
    pub args: Vec<String>,
    /// Shots sampled (0 when the invocation does not simulate).
    pub shots: u64,
    pub noisy: bool,
}

/// `cli_design` invocation of variant `k` in cell (`data`, `scheme`).
pub fn design(data: usize, scheme: Scheme, k: u64) -> Invocation {
    let template = gen::template("design", data, scheme, k);
    let mut args = vec![
        "--answer".to_string(),
        data.to_string(),
        "--scheme".to_string(),
        scheme.name().to_string(),
    ];
    if data <= REUSE_MAX_DATA {
        args.extend(["--reuse".to_string(), "auto".to_string()]);
    }
    args.extend(["--verify".to_string(), "--stats".to_string()]);
    Invocation {
        key: template.key.clone(),
        template,
        args,
        shots: 0,
        noisy: false,
    }
}

/// `cli_shots` invocation of variant `k` in cell (`data`, `scheme`).
pub fn shots(data: usize, scheme: Scheme, k: u64, noisy: bool) -> Invocation {
    let template = gen::template("shots", data, scheme, k);
    let shots = if noisy { NOISY_SHOTS } else { SHOTS };
    let mut args = vec![
        "--answer".to_string(),
        data.to_string(),
        "--scheme".to_string(),
        scheme.name().to_string(),
        "--engine".to_string(),
        "auto".to_string(),
        "--shots".to_string(),
        shots.to_string(),
        "--threads".to_string(),
        "2".to_string(),
        "--seed".to_string(),
        template.shot_seed.to_string(),
    ];
    if noisy {
        args.extend(["--noise".to_string(), "0.5".to_string()]);
    }
    let key = format!("{}{}", template.key, if noisy { "/noisy" } else { "" });
    Invocation {
        key,
        template,
        args,
        shots,
        noisy,
    }
}

/// Every invocation a workload can make: each (width, scheme) cell with
/// `VARIANTS` networks. In `cli_shots` a quarter of each cell's networks
/// run noisy.
pub fn universe(workload: &str) -> Vec<Invocation> {
    let mut all = Vec::new();
    for scheme in [Scheme::Dynamic1, Scheme::Dynamic2] {
        for k in 0..VARIANTS {
            if workload == "cli_design" {
                all.extend(DESIGN_WIDTHS.map(|data| design(data, scheme, k)));
            } else {
                let noisy = k >= VARIANTS - VARIANTS / 4;
                all.extend(SHOT_WIDTHS.map(|data| shots(data, scheme, k, noisy)));
            }
        }
    }
    all
}

/// The order of pass `pass` over a universe of `len` invocations, drawn
/// from the run seed. A run is made of whole passes, so every run has the
/// same mix of widths, schemes and networks, and the seed sets the order.
pub fn pass_order(len: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(gen::mix(&[seed, 0xc11, pass]));
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// What one invocation produced.
pub struct Ran {
    pub wall: Duration,
    pub ok: bool,
    /// Digest of the checked output.
    pub digest: String,
    pub stderr: String,
}

/// Runs one invocation on `input` and digests its checked output: the
/// whole standard output, plus the `--metrics-out` counters (histograms
/// and gauges carry wall-clock and are left out) when it simulates.
pub fn run(bin_dir: &Path, inv: &Invocation, input: &Path, metrics_out: &Path) -> Ran {
    let mut cmd = Command::new(bin_dir.join("dqct"));
    cmd.args(&inv.args);
    if inv.shots > 0 {
        cmd.arg("--metrics-out").arg(metrics_out);
    }
    cmd.arg(input).stdin(Stdio::null());
    let start = Instant::now();
    let out = cmd.output();
    let wall = start.elapsed();
    let Ok(out) = out else {
        return Ran {
            wall,
            ok: false,
            digest: String::new(),
            stderr: "cannot spawn dqct".to_string(),
        };
    };
    let mut checked = out.stdout.clone();
    if inv.shots > 0 {
        let doc = std::fs::read_to_string(metrics_out).unwrap_or_default();
        checked.extend_from_slice(counters_object(&doc).as_bytes());
    }
    Ran {
        wall,
        ok: out.status.success(),
        digest: digest(&checked),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The `"counters":{...}` object of a metrics document.
pub fn counters_object(doc: &str) -> &str {
    let Some(start) = doc.find("\"counters\":{") else {
        return "";
    };
    doc[start..]
        .find('}')
        .map_or("", |end| &doc[start..=start + end])
}

/// Writes the input file of `inv` under `dir`.
pub fn input_file(dir: &Path, inv: &Invocation) -> PathBuf {
    let path = dir.join(format!("{}.qasm", inv.key.replace('/', "_")));
    if !path.exists() {
        std::fs::write(&path, &inv.template.qasm).expect("write input file");
    }
    path
}

/// A one-gate circuit: the set-up cost of one `dqct` process.
pub const ONE_GATE: &str =
    "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[2] q;\ncx q[0], q[1];\n";

/// Peak resident memory of any waited-for child so far, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as Linux's
    // `struct rusage` (two `timeval`s then fourteen `long`s), which
    // getrusage fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_puts_ten_invocations_beyond_the_p90() {
        for workload in ["cli_design", "cli_shots"] {
            assert!(universe(workload).len() >= 100, "{workload}");
        }
    }

    #[test]
    fn a_quarter_of_the_shot_invocations_are_noisy() {
        let all = universe("cli_shots");
        assert_eq!(all.iter().filter(|i| i.noisy).count() * 4, all.len());
    }

    #[test]
    fn passes_are_seeded_permutations() {
        let a = pass_order(192, 7, 0);
        assert_eq!(a, pass_order(192, 7, 0));
        assert_ne!(a, pass_order(192, 8, 0));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..192).collect::<Vec<_>>());
    }
}
