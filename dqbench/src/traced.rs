//! The traced pass: the workload's inputs, in the e2e order, replayed in
//! process through the public call of every layer, one span per call.
//!
//! Each input gets a root span (`input`) whose children are the layer
//! calls; spans carry the input's id, live in memory and are written to
//! `.bench_out/` when the run ends. A layer's self time is its span's
//! duration minus the time its children cover. The pass also runs every
//! input through the real `dqct` binary (for the process overhead) and
//! submits the inputs to a real `dqctd` over loopback (for the timers the
//! server reports), then sets the sum of the layer medians against the
//! end-to-end median; the remainder is reported as unattributed.

use crate::cli::{self, Invocation};
use crate::gen::Template;
use crate::service::{self, field_f64, JobKind, Pacing, Planned};
use crate::stats::{median, quantile, Metrics};
use crate::Outcome;
use dqc::{verify, CostModel, Pipeline, QubitRoles, ReuseMode, TransformOptions};
use dqctd::{
    cache_key, field_u64, parse_request, read_frame, write_frame, CachedTransform, Config,
    FsyncPolicy, JobOutcome, Journal, Response, Server, TransformCache,
};
use qcir::{Gate, Qubit};
use qobs::Observer;
use qsim::prefix::{PrefixTree, Walk};
use qsim::{Engine, Executor, NoiseModel, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    input: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Counts recorded where the work happened (tree shape, candidates).
    fields: Vec<(&'static str, u64)>,
}

/// In-memory span recorder.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn open(&mut self, name: &'static str, input: usize, parent: Option<usize>) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            input,
            parent,
            start: now,
            end: now,
            fields: Vec::new(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.t0.elapsed();
    }

    /// Runs `f` inside a span named `name`, a child of `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let input = self.spans[parent].input;
        let span = self.open(name, input, Some(parent));
        let out = black_box(f());
        self.close(span);
        out
    }

    /// Attaches a count to the most recent span.
    fn field(&mut self, key: &'static str, value: u64) {
        if let Some(span) = self.spans.last_mut() {
            span.fields.push((key, value));
        }
    }

    /// Self time of every span, in seconds, grouped by name.
    fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            out.entry(s.name)
                .or_default()
                .push((s.end - s.start).saturating_sub(c).as_secs_f64());
        }
        out
    }

    /// Writes `{"inputs": [key, ...], "spans": [...]}`; a span's `input`
    /// indexes `inputs`.
    fn write(&self, path: &Path, inputs: &[&str]) -> std::io::Result<()> {
        let keys: Vec<String> = inputs.iter().map(|k| format!("\"{k}\"")).collect();
        let mut out = format!("{{\"inputs\":[{}],\n\"spans\":[\n", keys.join(","));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"input\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"fields\":{{{}}}}}{}",
                s.name,
                s.input,
                s.start.as_nanos(),
                s.end.as_nanos(),
                fields.join(","),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A `Write` that hands each finished response frame to a channel.
struct FrameSink(mpsc::Sender<Vec<u8>>);

impl Write for FrameSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let _ = self.0.send(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One input of the traced pass: the invocation `dqct` gets for it.
struct Input {
    inv: Invocation,
    /// Whether the golden digest of the invocation is checked.
    checked: bool,
}

/// Shots of the in-process sampling probes.
fn probe_shots(workload: &str) -> (u64, u64) {
    match workload {
        "cli_shots" => (1 << 16, 4096),
        "cli_design" => (4096, 1024),
        _ => (service::SHOTS, service::SHOTS),
    }
}

/// The `dqct` invocation matching a service job.
fn service_invocation(kind: &JobKind) -> Invocation {
    let t = &kind.template;
    Invocation {
        key: kind.key.clone(),
        template: t.clone(),
        args: [
            "--answer",
            &t.data.to_string(),
            "--scheme",
            t.scheme.name(),
            "--shots",
            &service::SHOTS.to_string(),
            "--threads",
            "2",
            "--seed",
            &t.shot_seed.to_string(),
        ]
        .map(str::to_string)
        .to_vec(),
        shots: service::SHOTS,
        noisy: false,
    }
}

pub fn run(
    bin_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    tmp: &Path,
) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let golden = crate::golden(workload);
    let mut m = Metrics::default();
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0u64);

    // The server-reported timers come from a real daemon over loopback:
    // the workload's own open loop, or one job at a time for the CLI
    // workloads' inputs.
    let (inputs, server_side) = if workload == "service_open" {
        let run = crate::drive_service(bin_dir, seed, budget / 2, tmp)?;
        let inputs = run
            .plan
            .iter()
            .map(|p| Input {
                inv: service_invocation(&p.kind),
                checked: false,
            })
            .collect::<Vec<_>>();
        (attempted, failed, mismatched) = crate::check_service(&golden, &run.plan, &run.phase);
        let mut stats = server_stats(&run.phase, &run.metrics_json);
        let legs = run.leg_latencies();
        let backlogged = legs.iter().filter(|l| service::backlog_grew(l)).count();
        stats.push((
            "client.backlog_leg_share",
            backlogged as f64 / legs.len().max(1) as f64,
        ));
        (inputs, stats)
    } else {
        let universe = cli::universe(workload);
        let inputs: Vec<Input> = (0..2)
            .flat_map(|pass| cli::pass_order(universe.len(), seed, pass))
            .map(|i| Input {
                inv: universe[i].clone(),
                checked: true,
            })
            .collect();
        let (mut daemon, _) = service::Daemon::spawn(bin_dir, &tmp.join("trace.wal"))?;
        let plan: Vec<Planned> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let kind = JobKind {
                    key: input.inv.key.clone(),
                    template: input.inv.template.clone(),
                };
                Planned::new(format!("t{i}"), kind, Duration::ZERO)
            })
            .collect();
        let phase = service::run_phase(&daemon.addr, &plan, Pacing::Window(1, budget / 5), budget)?;
        let metrics_json = daemon.control("metrics")?;
        daemon.stop(Duration::from_secs(10))?;
        // One job at a time cannot build a backlog.
        let mut stats = server_stats(&phase, &metrics_json);
        stats.push(("client.backlog_leg_share", 0.0));
        (inputs, stats)
    };
    for (name, value) in &server_side {
        m.set(*name, *value, unit_of(name));
    }

    let (shots, noisy_shots) = probe_shots(workload);
    let mut rec = Recorder {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut derived: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut walls = Vec::new();
    let cache = TransformCache::new(256);
    let journals: Vec<(&'static str, Journal)> = [
        ("dqctd.journal.append.off", FsyncPolicy::Off),
        ("dqctd.journal.append.batch", FsyncPolicy::Batch),
        ("dqctd.journal.append.always", FsyncPolicy::Always),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let path = tmp.join(format!("{name}.wal"));
        Journal::open(&path, policy)
            .map(|(j, _)| (name, j))
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))
    })
    .collect::<Result<_, _>>()?;
    let server = Server::try_start(Config {
        journal: Some(tmp.join("admit.wal")),
        ..Config::default()
    })?;
    let metrics_out = tmp.join("metrics.json");
    let mut specs = Vec::new();

    for (id, input) in inputs.iter().enumerate() {
        if id >= 8 && start.elapsed() >= budget {
            break;
        }
        let inv = &input.inv;
        let t: &Template = &inv.template;
        let scheme = t.scheme.to_dqc();

        // The shipped binary, for the invocation's wall time.
        let file = cli::input_file(tmp, inv);
        let ran = cli::run(bin_dir, inv, &file, &metrics_out);
        if input.checked {
            attempted += 1;
            if !ran.ok || golden.get(&inv.key) != Some(&ran.digest) {
                failed += 1;
                mismatched += 1;
            }
        }
        let wall_ms = ran.wall.as_secs_f64() * 1e3;
        walls.push(wall_ms);

        let root = rec.open("input", id, None);
        let mut args = inv.args.clone();
        if inv.shots > 0 {
            args.push("--metrics-out".to_string());
            args.push(metrics_out.display().to_string());
        }
        let opts = dqct_cli::parse_args(&args)?;
        let cli_span = rec.spans.len();
        rec.time("cli.run", root, || dqct_cli::run(&t.qasm, &opts))?;
        let run_ms = (rec.spans[cli_span].end - rec.spans[cli_span].start).as_secs_f64() * 1e3;
        derived
            .entry("cli.process_overhead_ms")
            .or_default()
            .push(wall_ms - run_ms);

        let circuit = rec.time("qcir.parse", root, || {
            qcir::qasm::from_qasm(&t.qasm)
                .map_err(|e| e.to_string())
                .and_then(|c| c.validate().map(|()| c).map_err(|e| e.to_string()))
        });
        let circuit = circuit.map_err(|e| format!("{}: {e}", inv.key))?;
        rec.time("qcir.content_hash", root, || circuit.content_hash());
        let roles = QubitRoles::new(
            (0..t.data).map(Qubit::new).collect(),
            Vec::new(),
            vec![Qubit::new(t.data)],
        );
        let dynamic = rec
            .time("dqc.transform", root, || {
                dqc::transform_with_scheme(&circuit, &roles, scheme, &TransformOptions::default())
            })
            .map_err(|e| format!("{}: {e}", inv.key))?;
        let reuse = inv.args.iter().any(|a| a == "--reuse");
        if reuse || t.data <= 6 {
            let plan = rec.time("dqc.reuse.plan", root, || {
                dqc::plan_with_scheme(
                    &circuit,
                    &roles,
                    scheme,
                    ReuseMode::Auto,
                    &CostModel::default(),
                    &TransformOptions::default(),
                )
            });
            let (_, report) = plan.map_err(|e| format!("{}: {e}", inv.key))?;
            rec.field("candidates", report.candidates as u64);
            let secs = rec
                .spans
                .last()
                .map_or(0.0, |s| (s.end - s.start).as_secs_f64());
            derived
                .entry("dqc.reuse.candidates")
                .or_default()
                .push(report.candidates as f64);
            derived
                .entry("dqc.reuse.us_per_candidate")
                .or_default()
                .push(secs * 1e6 / report.candidates.max(1) as f64);
        }
        rec.time("dqc.verify.traditional", root, || {
            verify::traditional_distribution(&circuit, &roles)
        });
        rec.time("dqc.verify.dynamic", root, || {
            verify::dynamic_distribution(&dynamic)
        });
        rec.time("qcir.emit", root, || qcir::qasm::to_qasm(dynamic.circuit()));
        let fused = rec.time("qcir.fuse", root, || qcir::fusion::fuse(dynamic.circuit()));
        derived
            .entry("qcir.fused_gates")
            .or_default()
            .push(fused.stats().gates_fused as f64);
        let dyn_circ = dynamic.circuit();

        let tree = rec.time("qsim.prefix.build", root, || {
            PrefixTree::build(dyn_circ, &NoiseModel::ideal())
        });
        if let Some(tree) = &tree {
            rec.field("nodes", tree.num_nodes() as u64);
            rec.field("leaves", tree.num_leaves() as u64);
            rec.field("pruned", tree.num_pruned());
            for (name, v) in [
                ("qsim.prefix.nodes", tree.num_nodes() as f64),
                ("qsim.prefix.leaves", tree.num_leaves() as f64),
                ("qsim.prefix.pruned", tree.num_pruned() as f64),
                (
                    "qsim.prefix.multi_leaf",
                    f64::from(u8::from(tree.num_leaves() > 1)),
                ),
            ] {
                derived.entry(name).or_default().push(v);
            }
            let walk = rec.open("qsim.prefix.walk", id, Some(root));
            let mut leaves = 0u64;
            for i in 0..shots {
                let mut rng = StdRng::seed_from_u64(rand::stream_seed(t.shot_seed, i));
                if let Walk::Leaf(l) = tree.walk(&mut rng) {
                    leaves += u64::from(black_box(l)) + 1;
                }
            }
            black_box(leaves);
            rec.close(walk);
        }
        let exec = |threads: usize| {
            Executor::new()
                .shots(shots)
                .seed(t.shot_seed)
                .threads(threads)
                .engine(Engine::Prefix)
        };
        let (counts, _) = rec.time("qsim.sample.prefix", root, || {
            exec(1).run_resilient(dyn_circ)
        });
        rec.time("qsim.sample.prefix.t2", root, || {
            exec(2).run_resilient(dyn_circ)
        });
        rec.time("qsim.sample.observed", root, || {
            exec(1)
                .observer(Observer::metrics_only())
                .run_resilient(dyn_circ)
        });
        rec.time("qsim.sample.pershot", root, || {
            Executor::new()
                .shots(noisy_shots)
                .seed(t.shot_seed)
                .threads(2)
                .noise(NoiseModel::device_like(0.5))
                .run_resilient(dyn_circ)
        });
        rec.time("qsim.run_setup", root, || {
            Executor::new()
                .shots(1)
                .seed(t.shot_seed)
                .threads(1)
                .run_resilient(dyn_circ)
        });
        let piped = rec.time("dqc.pipeline", root, || {
            Pipeline::new().scheme(scheme).run(&circuit, &roles)
        });
        let piped = piped.map_err(|e| format!("{}: {e}", inv.key))?;

        // The service layers, on this input's request bytes.
        let kind = JobKind {
            key: inv.key.clone(),
            template: t.clone(),
        };
        let payload = service::submit_payload(&format!("x{id}"), &kind);
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).map_err(|e| e.to_string())?;
        let request = rec.time("dqctd.frame_decode", root, || {
            read_frame(&mut frame.as_slice(), dqctd::MAX_FRAME_BYTES)
                .ok()
                .flatten()
                .and_then(|p| parse_request(&p).ok())
        });
        let Some(dqctd::Request::Submit(spec)) = request else {
            return Err(format!("{}: request did not decode", inv.key));
        };
        let key = rec.time("dqctd.cache.lookup", root, || {
            let key = cache_key(&circuit, &spec.answer, &spec.data, &spec.ancilla, scheme);
            (key, cache.get(key).is_some())
        });
        if !key.1 {
            cache.insert(
                key.0,
                Arc::new(CachedTransform {
                    circuit: piped.dynamic.circuit().clone(),
                    tvd: piped.report.tvd,
                }),
            );
        }
        // Rotate the policies so none always runs first after the others.
        for k in 0..journals.len() {
            let (name, journal) = &journals[(id + k) % journals.len()];
            rec.time(name, root, || journal.append_admitted(&spec))
                .map_err(|e| format!("journal append: {e}"))?;
        }
        specs.push((*spec).clone());
        rec.time("dqctd.encode", root, || {
            let response = Response::Result(Box::new(JobOutcome {
                id: spec.id.clone(),
                termination: "completed".to_string(),
                requested: shots,
                completed: shots,
                failed: 0,
                discarded: 0,
                counts: counts.iter().map(|(k, v)| (k.to_string(), v)).collect(),
                cache_hit: key.1,
                queue_ms: 0.0,
                run_ms: 0.0,
                tvd: piped.report.tvd,
            }))
            .render();
            let mut out = Vec::new();
            write_frame(&mut out, &response).map(|()| out)
        })
        .map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel();
        rec.time("dqctd.serve_connection", root, || {
            server.serve_connection(&mut frame.as_slice(), Box::new(FrameSink(tx)));
        });
        // The job's response, before the next input is admitted.
        let _ = rx.recv_timeout(Duration::from_secs(30));

        // The layers `dqct` runs for this invocation, from this input's own
        // spans, with sampling scaled to the invocation's shots.
        let own = |name: &str| {
            rec.spans[root..]
                .iter()
                .filter(|s| s.parent == Some(root) && s.name == name)
                .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
                .sum::<f64>()
        };
        let mut path = own("qcir.parse")
            + own("qcir.emit")
            + if reuse {
                own("dqc.reuse.plan")
            } else {
                own("dqc.transform")
            };
        if inv.args.iter().any(|a| a == "--verify") {
            path += own("dqc.verify.traditional") + own("dqc.verify.dynamic");
        }
        if inv.noisy {
            path += own("qsim.sample.pershot") * inv.shots as f64 / noisy_shots as f64;
        } else if inv.shots > 0 {
            path += own("qsim.sample.prefix.t2") * inv.shots as f64 / shots as f64;
        }
        derived
            .entry("cli.unattributed_ms")
            .or_default()
            .push(run_ms - path);
        derived
            .entry("cli.layer_sum_ms")
            .or_default()
            .push(wall_ms - run_ms + path);
        rec.close(root);
    }
    server.join();
    let replay_ms = journal_replay(tmp, &specs)?;
    let selfs = rec.self_times();
    let med = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
    let dmed = |name: &str| derived.get(name).map_or(0.0, |v| median(v));

    // Per-layer medians.
    for (metric, span, scale) in [
        ("cli.run_ms", "cli.run", 1e3),
        ("qcir.parse_us", "qcir.parse", 1e6),
        ("qcir.content_hash_us", "qcir.content_hash", 1e6),
        ("qcir.fuse_us", "qcir.fuse", 1e6),
        ("qcir.emit_us", "qcir.emit", 1e6),
        ("dqc.transform_us", "dqc.transform", 1e6),
        ("dqc.reuse.plan_ms", "dqc.reuse.plan", 1e3),
        ("dqc.verify.traditional_ms", "dqc.verify.traditional", 1e3),
        ("dqc.verify.dynamic_ms", "dqc.verify.dynamic", 1e3),
        ("dqc.pipeline_ms", "dqc.pipeline", 1e3),
        ("qsim.prefix.build_us", "qsim.prefix.build", 1e6),
        ("qsim.run_setup_us", "qsim.run_setup", 1e6),
        ("dqctd.frame_decode_us", "dqctd.frame_decode", 1e6),
        ("dqctd.cache.lookup_us", "dqctd.cache.lookup", 1e6),
        ("dqctd.encode_us", "dqctd.encode", 1e6),
        (
            "dqctd.journal.append_us.off",
            "dqctd.journal.append.off",
            1e6,
        ),
        (
            "dqctd.journal.append_us.batch",
            "dqctd.journal.append.batch",
            1e6,
        ),
        (
            "dqctd.journal.append_us.always",
            "dqctd.journal.append.always",
            1e6,
        ),
    ] {
        m.set(metric, med(span) * scale, unit_of(metric));
    }
    let per_shot = |span: &str, n: u64| med(span) * 1e9 / n as f64;
    let walk_ns = per_shot("qsim.prefix.walk", shots);
    let prefix_ns = per_shot("qsim.sample.prefix", shots);
    m.set("qsim.prefix.walk_ns_per_shot", walk_ns, "ns");
    m.set("qsim.sample.prefix_ns_per_shot", prefix_ns, "ns");
    m.set(
        "qsim.sample.prefix_ns_per_shot.t2",
        per_shot("qsim.sample.prefix.t2", shots),
        "ns",
    );
    m.set("qsim.sample.record_ns_per_shot", prefix_ns - walk_ns, "ns");
    m.set(
        "qsim.sample.pershot_ns_per_shot",
        per_shot("qsim.sample.pershot", noisy_shots),
        "ns",
    );
    m.set(
        "qobs.observer_overhead_pct",
        (med("qsim.sample.observed") / med("qsim.sample.prefix") - 1.0) * 100.0,
        "%",
    );
    m.set(
        "dqctd.admit_us",
        (med("dqctd.serve_connection") - med("dqctd.frame_decode")) * 1e6,
        "us",
    );
    m.set("dqctd.journal.replay_ms", replay_ms, "ms");
    for name in [
        "qcir.fused_gates",
        "dqc.reuse.candidates",
        "dqc.reuse.us_per_candidate",
        "qsim.prefix.nodes",
        "qsim.prefix.leaves",
        "qsim.prefix.pruned",
    ] {
        m.set(name, dmed(name), unit_of(name));
    }
    let multi = derived
        .get("qsim.prefix.multi_leaf")
        .cloned()
        .unwrap_or_default();
    m.set(
        "qsim.prefix.multi_leaf_share",
        multi.iter().sum::<f64>() / multi.len().max(1) as f64,
        "ratio",
    );
    let widths: Vec<f64> = inputs
        .iter()
        .map(|i| i.inv.template.data as f64 + 1.0)
        .collect();
    let width = median(&widths) as usize;
    for (name, ns) in apply_costs(width) {
        m.set(name, ns, "ns");
    }

    // Attribution: the layer medians against the end-to-end median.
    m.set(
        "cli.process_overhead_ms",
        dmed("cli.process_overhead_ms"),
        "ms",
    );
    m.set("cli.unattributed_ms", dmed("cli.unattributed_ms"), "ms");
    let (e2e, layer_sum) = if workload == "service_open" {
        // serve_connection covers decode and admission (journal included).
        let sum = (med("dqctd.serve_connection") + med("dqctd.encode")) * 1e3
            + m.get("dqctd.queue_wait_ms.p50").unwrap_or(0.0)
            + m.get("dqctd.run_ms.p50").unwrap_or(0.0);
        (m.get("client.latency_ms.p50").unwrap_or(0.0), sum)
    } else {
        (median(&walls), dmed("cli.layer_sum_ms"))
    };
    m.set("trace.e2e_median_ms", e2e, "ms");
    m.set("trace.layer_sum_ms", layer_sum, "ms");

    let spans_path = Path::new(".bench_out").join(format!("spans-{workload}-{seed}.json"));
    let keys: Vec<&str> = inputs.iter().map(|i| i.inv.key.as_str()).collect();
    rec.write(&spans_path, &keys[..walls.len()])
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    eprintln!(
        "dqbench: traced {workload}: {} inputs, {} spans -> {}; e2e median {e2e:.3} ms, layer sum {layer_sum:.3} ms",
        walls.len(),
        rec.spans.len(),
        spans_path.display()
    );
    Ok(Outcome {
        metrics: m,
        attempted: attempted.max(1),
        failed,
        mismatched,
    })
}

/// Metrics from a real daemon's responses and registry: queue wait and
/// run time as the server reports them, the client-observed remainder,
/// the cache hit ratio and the shed shares.
fn server_stats(phase: &service::Phase, registry: &str) -> Vec<(&'static str, f64)> {
    let mut queue = Vec::new();
    let mut run = Vec::new();
    let mut rest = Vec::new();
    let mut latency = Vec::new();
    let mut late = Vec::new();
    for o in phase.jobs.iter().filter_map(|(_, o)| o.as_ref()) {
        let (Some(q), Some(r)) = (
            field_f64(&o.response, "queue_ms"),
            field_f64(&o.response, "run_ms"),
        ) else {
            continue;
        };
        let l = o.latency.as_secs_f64() * 1e3;
        queue.push(q);
        run.push(r);
        rest.push(l - q - r);
        latency.push(l);
        late.push(o.late.as_secs_f64() * 1e3);
    }
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    let counter = |name: &str| field_u64(registry, name).unwrap_or(0) as f64;
    let hits = counter("service.cache.hit");
    let misses = counter("service.cache.miss");
    let queue_full = counter("service.rejected.queue_full");
    let other = counter("service.rejected.invalid")
        + counter("service.rejected.too_large")
        + counter("service.rejected.draining");
    let submitted = (counter("service.accepted") + queue_full + other).max(1.0);
    vec![
        ("dqctd.queue_wait_ms.p50", q(&queue, 0.5)),
        ("dqctd.queue_wait_ms.p99", q(&queue, 0.99)),
        ("dqctd.run_ms.p50", q(&run, 0.5)),
        ("dqctd.run_ms.p99", q(&run, 0.99)),
        ("dqctd.unattributed_ms.p50", q(&rest, 0.5)),
        ("dqctd.unattributed_ms.p99", q(&rest, 0.99)),
        ("client.latency_ms.p50", q(&latency, 0.5)),
        ("client.latency_ms.p99", q(&latency, 0.99)),
        ("client.late_ms.p99", q(&late, 0.99)),
        ("dqctd.cache.hit_ratio", hits / (hits + misses).max(1.0)),
        ("dqctd.shed_share.queue_full", queue_full / submitted),
        ("dqctd.shed_share.other", other / submitted),
    ]
}

/// `Server::try_start` on a journal holding the first 64 traced inputs as
/// admitted-but-unanswered jobs, until all are answered.
fn journal_replay(tmp: &Path, specs: &[dqctd::JobSpec]) -> Result<f64, String> {
    let path = tmp.join("replay.wal");
    {
        let (journal, _) = Journal::open(&path, FsyncPolicy::Off).map_err(|e| e.to_string())?;
        for spec in specs.iter().take(64) {
            journal.append_admitted(spec).map_err(|e| e.to_string())?;
        }
        journal.sync().map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    let server = Server::try_start(Config {
        journal: Some(path),
        fsync: FsyncPolicy::Off,
        ..Config::default()
    })?;
    while server.pending() > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let took = start.elapsed().as_secs_f64() * 1e3;
    server.join();
    Ok(took)
}

/// Mean `StateVector::apply_gate` cost per gate kind on a `width`-qubit
/// state.
fn apply_costs(width: usize) -> Vec<(&'static str, f64)> {
    const REPS: u32 = 20_000;
    let width = width.max(3);
    let mut state = StateVector::zero_state(width);
    let kinds: [(&'static str, Gate, Vec<usize>); 6] = [
        ("qsim.apply_ns.h", Gate::H, vec![0]),
        ("qsim.apply_ns.x", Gate::X, vec![1]),
        ("qsim.apply_ns.cx", Gate::Cx, vec![0, 1]),
        ("qsim.apply_ns.ccx", Gate::Ccx, vec![0, 1, 2]),
        ("qsim.apply_ns.cv", Gate::Cv, vec![0, 2]),
        ("qsim.apply_ns.cvdg", Gate::Cvdg, vec![1, 2]),
    ];
    state.apply_gate(&Gate::H, &[0]);
    kinds
        .into_iter()
        .map(|(name, gate, qubits)| {
            let start = Instant::now();
            for _ in 0..REPS {
                state.apply_gate(black_box(&gate), black_box(&qubits));
            }
            (name, start.elapsed().as_nanos() as f64 / f64::from(REPS))
        })
        .collect()
}

/// The unit of a per-layer metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.contains("_ms.") {
        "ms"
    } else if name.ends_with("_us") || name.contains("_us.") || name.ends_with("us_per_candidate") {
        "us"
    } else if name.contains("ns") {
        "ns"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.contains("ratio") || name.contains("share") {
        "ratio"
    } else {
        "count"
    }
}
