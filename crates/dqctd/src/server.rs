//! The service core: bounded admission queue, sharded worker pool,
//! per-job budgets, cancellation, chaos scoping and graceful drain.
//!
//! # Admission-control policy
//!
//! A submission is examined *before* it is accepted, in order of
//! increasing cost: drain state, QASM parse, structural validation, size
//! limits (qubits, shots), role partition, queue capacity. Every rejection
//! is typed ([`RejectReason`]) and, where retrying can help (`queue-full`,
//! `draining`), carries a `retry_after_ms` backoff hint derived from the
//! observed job-latency EMA and the current backlog. Once a job is
//! accepted it is never dropped: every accepted job gets exactly one
//! `result` or `error` response, even across drain.
//!
//! # Drain semantics
//!
//! [`Server::drain`] (wired to SIGTERM and the `drain` verb by the binary)
//! stops admission — new submissions answer `rejected`/`draining` — while
//! the workers finish every already-accepted job. Jobs whose deadline
//! expired while queued return partial results with their usual
//! `deadline` termination; cancelled jobs answer `cancelled`; nothing is
//! silently discarded. [`Server::join`] returns once the queue is empty
//! and every worker has exited.
//!
//! # Durability and supervision (DESIGN.md §15)
//!
//! With [`Config::journal`] set, every admission and completion is
//! recorded in a crash-only write-ahead journal (see [`crate::journal`]).
//! On restart, admitted-but-unanswered jobs are replayed through the
//! deterministic pipeline (bit-identical counts by the executor's
//! counter-based RNG), and duplicate submissions with an already-completed
//! client job id are served the journaled response verbatim — client
//! retries are idempotent.
//!
//! Each worker carries a heartbeat the executor ticks at least once per
//! shot; a watchdog thread samples the heartbeats and escalates a stalled
//! worker in two stages: first cancel the wedged job's [`CancelToken`]
//! (a cooperative executor honours it between shots), then — if the
//! heartbeat still does not move — retire the worker thread, answer the
//! job with a typed supervisor error, and respawn a fresh worker. Every
//! job therefore still gets exactly one response: a respond-once guard
//! makes the worker and the watchdog race-safe.

use crate::cache::{cache_key, CachedTransform, TransformCache};
use crate::journal::{FsyncPolicy, Journal};
use crate::protocol::{
    parse_request, read_frame, write_frame, FrameError, JobOutcome, JobSpec, RejectReason, Request,
    Response,
};
use dqc::{DqcError, DynamicScheme, Pipeline, QubitRoles};
use qcir::qasm::from_qasm;
use qcir::{Circuit, Qubit};
use qfault::FaultPlan;
use qobs::Observer;
use qsim::{CancelToken, Executor, FaultSite, Termination};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Derives the deterministic job-scope key a chaos plan is consulted with:
/// FNV-1a of the client-chosen job id. Both the server and its chaos drill
/// can compute the faulted set from ids alone, with no shared state.
#[must_use]
pub fn job_scope_key(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cold-start stand-in for the job-latency EMA (50 ms — a mid-size
/// transform + simulation) used by [`Server`]'s `retry_after_ms` hints
/// before the first completion has produced a real sample.
const COLD_START_JOB_US: u64 = 50_000;
/// Floor on every `retry_after_ms` hint: never tell a client to hammer.
const MIN_RETRY_HINT_MS: u64 = 10;
/// Ceiling on every `retry_after_ms` hint: never tell a client to
/// disappear for minutes because one pathological job skewed the EMA.
const MAX_RETRY_HINT_MS: u64 = 2000;

/// The statevector footprint of an `n`-qubit job: `2^n` `Complex64`
/// amplitudes at 16 bytes each (saturating, so a hostile width cannot
/// overflow the accounting into a free pass).
#[must_use]
fn statevector_bytes(num_qubits: usize) -> u64 {
    if num_qubits >= 60 {
        return u64::MAX;
    }
    16u64 << num_qubits
}

/// The CLI/wire spelling of a scheme, for journaling resolved specs.
fn scheme_name(scheme: DynamicScheme) -> &'static str {
    match scheme {
        DynamicScheme::Direct => "direct",
        DynamicScheme::Dynamic1 => "dynamic1",
        DynamicScheme::Dynamic2 => "dynamic2",
    }
}

/// The fully resolved submission that goes into the journal: every
/// server-side default (shots, seed, scheme, deadline) made explicit, so
/// replay after a restart — possibly under a different configuration —
/// reproduces exactly the job that was admitted.
fn resolved_spec(
    spec: &JobSpec,
    shots: u64,
    seed: u64,
    deadline: Duration,
    scheme: DynamicScheme,
) -> JobSpec {
    JobSpec {
        id: spec.id.clone(),
        shots: Some(shots),
        seed: Some(seed),
        answer: spec.answer.clone(),
        data: spec.data.clone(),
        ancilla: spec.ancilla.clone(),
        scheme: Some(scheme_name(scheme).to_string()),
        deadline_ms: Some(u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX)),
        qasm: spec.qasm.clone(),
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker threads simulating jobs (each runs single-threaded shots).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame_bytes: u32,
    /// Largest circuit accepted, in qubits (statevector cost is 2^n).
    pub max_qubits: usize,
    /// Largest shot count accepted per job.
    pub max_shots: u64,
    /// Shots when a job does not say (`shots` header).
    pub default_shots: u64,
    /// Seed when a job does not say (`seed` header).
    pub default_seed: u64,
    /// Per-job wall-clock budget when a job does not say (`deadline-ms`).
    /// The budget starts at *admission*, so time spent queued counts — a
    /// job that waited out its whole deadline returns an immediate
    /// `deadline` partial rather than occupying a worker.
    pub default_deadline: Duration,
    /// Transform-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Chaos drill: a fault plan consulted at **job** scope (see
    /// [`FaultPlan::job_fault`]). Faulted jobs run under a per-job scoped
    /// hook; unfaulted jobs run bit-identically to a chaos-free server.
    pub chaos: Option<FaultPlan>,
    /// Write-ahead journal path (`--journal`); `None` runs without
    /// durability.
    pub journal: Option<PathBuf>,
    /// When journal appends reach the disk (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Global in-flight statevector memory budget in bytes: admission
    /// sheds work whose `16 * 2^qubits` statevector would push the sum of
    /// queued + running jobs past it, *before* any allocation happens. A
    /// job too large for the whole budget rejects `too-large`; a job that
    /// merely does not fit right now rejects `queue-full` with a retry
    /// hint.
    pub max_inflight_bytes: u64,
    /// How long a busy worker's heartbeat may stand still before the
    /// watchdog intervenes (stage one: cancel; after a second interval,
    /// stage two: retire + respawn). Must exceed the worst single-shot
    /// latency — the heartbeat ticks per shot, not per instruction.
    pub stall_after: Duration,
    /// Watchdog sampling cadence.
    pub watchdog_interval: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: crate::protocol::MAX_FRAME_BYTES,
            max_qubits: 16,
            max_shots: 1 << 20,
            default_shots: 1024,
            default_seed: 7,
            default_deadline: Duration::from_secs(5),
            cache_capacity: 256,
            chaos: None,
            journal: None,
            fsync: FsyncPolicy::Batch,
            max_inflight_bytes: 256 << 20,
            stall_after: Duration::from_secs(2),
            watchdog_interval: Duration::from_millis(100),
        }
    }
}

/// A writer shared between the connection thread (control responses) and
/// the workers (job responses).
type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// One accepted job.
struct Job {
    conn: u64,
    id: String,
    circuit: Circuit,
    answer: Vec<usize>,
    data: Vec<usize>,
    ancilla: Vec<usize>,
    roles: QubitRoles,
    scheme: DynamicScheme,
    shots: u64,
    seed: u64,
    deadline: Duration,
    accepted: Instant,
    token: CancelToken,
    sink: Sink,
    /// Statevector bytes reserved against [`Config::max_inflight_bytes`].
    bytes: u64,
    /// Respond-once guard shared with the watchdog: whoever flips it
    /// first answers the job and settles its accounting.
    answered: Arc<AtomicBool>,
    /// `true` for journal-replayed jobs: their admission is already on
    /// disk and their original connection is gone.
    recovered: bool,
}

/// One worker's supervision surface, shared between the worker thread,
/// the executor (heartbeat) and the watchdog.
struct WorkerSlot {
    id: u64,
    /// Ticked at least once per shot by the executor, and at job
    /// pick-up/finish by the worker loop.
    beat: Arc<AtomicU64>,
    /// Set by the watchdog at stage two: the thread (which may be wedged
    /// inside a shot) must exit at its next loop boundary instead of
    /// serving more jobs alongside its replacement.
    retired: AtomicBool,
    /// What the worker is running right now, for the watchdog's
    /// escalation path.
    active: Mutex<Option<ActiveJob>>,
}

/// The watchdog-visible face of a running job.
#[derive(Clone)]
struct ActiveJob {
    conn: u64,
    id: String,
    shots: u64,
    token: CancelToken,
    sink: Sink,
    answered: Arc<AtomicBool>,
    bytes: u64,
    recovered: bool,
}

struct State {
    config: Config,
    observer: Observer,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    cache: TransformCache,
    pending: AtomicU64,
    ema_job_us: AtomicU64,
    next_conn: AtomicU64,
    tokens: Mutex<HashMap<(u64, String), CancelToken>>,
    journal: Option<Journal>,
    /// Completion index: client job id → the exact response bytes it was
    /// answered with (recovered from the journal, extended live).
    completions: Mutex<HashMap<String, Vec<u8>>>,
    /// Ids currently queued or running, so a duplicate of an in-flight
    /// job is rejected instead of racing two runs of one id.
    inflight_ids: Mutex<HashSet<String>>,
    /// Sum of queued + running statevector bytes.
    inflight_bytes: AtomicU64,
    /// Live worker slots (retired zombies are pruned by the watchdog).
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Worker join handles keyed by slot id; an abandoned worker's handle
    /// is dropped (detached), never joined — it may be wedged forever.
    handles: Mutex<HashMap<u64, JoinHandle<()>>>,
    next_slot: AtomicU64,
}

/// The running service: a worker pool behind a bounded queue, plus the
/// connection driver ([`Server::serve_connection`]) the transport layer
/// (TCP accept loop, stdio, or an in-memory test harness) feeds.
pub struct Server {
    state: Arc<State>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Starts the worker pool and returns the ready service.
    ///
    /// # Panics
    ///
    /// Panics when the configured journal cannot be opened — use
    /// [`Server::try_start`] where that is an expected failure mode.
    #[must_use]
    pub fn start(config: Config) -> Arc<Server> {
        match Self::try_start(config) {
            Ok(server) => server,
            Err(message) => panic!("dqctd: {message}"),
        }
    }

    /// Starts the worker pool, recovering the journal first when one is
    /// configured: admitted-but-unanswered jobs re-enter the queue (their
    /// deadline clock restarts — the original admission instant died with
    /// the original process) and completed jobs seed the idempotency
    /// index.
    ///
    /// # Errors
    ///
    /// A human-readable message when the journal cannot be opened or
    /// recovered.
    pub fn try_start(config: Config) -> Result<Arc<Server>, String> {
        let mut recovery = None;
        let journal = match &config.journal {
            Some(path) => {
                let (journal, recovered) = Journal::open(path, config.fsync)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
                recovery = Some(recovered);
                Some(journal)
            }
            None => None,
        };
        let state = Arc::new(State {
            cache: TransformCache::new(config.cache_capacity),
            config,
            observer: Observer::metrics_only(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            ema_job_us: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            tokens: Mutex::new(HashMap::new()),
            journal,
            completions: Mutex::new(HashMap::new()),
            inflight_ids: Mutex::new(HashSet::new()),
            inflight_bytes: AtomicU64::new(0),
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(HashMap::new()),
            next_slot: AtomicU64::new(0),
        });
        if let Some(recovery) = recovery {
            replay_recovery(&state, recovery);
        }
        for _ in 0..state.config.workers.max(1) {
            spawn_worker(&state);
        }
        let watchdog = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || watchdog_loop(&state))
        };
        Ok(Arc::new(Server {
            state,
            watchdog: Mutex::new(Some(watchdog)),
        }))
    }

    /// Drives one client connection: reads request frames until the peer
    /// closes (or a frame-level error forces a close), dispatching
    /// submissions into the queue. Job responses are written by the
    /// workers through the shared `writer`; this call returns when the
    /// read side is done, which may be before in-flight jobs respond.
    pub fn serve_connection<R: Read>(&self, reader: &mut R, writer: Box<dyn Write + Send>) {
        let conn = self.state.next_conn.fetch_add(1, Ordering::Relaxed);
        let sink: Sink = Arc::new(Mutex::new(writer));
        loop {
            match read_frame(reader, self.state.config.max_frame_bytes) {
                Ok(Some(payload)) => match parse_request(&payload) {
                    Ok(request) => {
                        if !self.dispatch(conn, request, &sink) {
                            return;
                        }
                    }
                    Err(detail) => {
                        send(
                            &self.state,
                            &sink,
                            &Response::Error { id: None, detail }.render(),
                        );
                    }
                },
                // Clean close: the peer is done submitting.
                Ok(None) => return,
                // An oversized announcement gets a typed answer, then the
                // connection closes (the unread body makes resync
                // impossible). Truncation and transport errors just close.
                Err(FrameError::TooLarge { len, max }) => {
                    send(
                        &self.state,
                        &sink,
                        &Response::Error {
                            id: None,
                            detail: format!("frame of {len} bytes exceeds the {max}-byte limit"),
                        }
                        .render(),
                    );
                    return;
                }
                Err(_) => return,
            }
        }
    }

    /// Handles one parsed request; `false` ends the connection.
    fn dispatch(&self, conn: u64, request: Request, sink: &Sink) -> bool {
        let state = &self.state;
        match request {
            Request::Ping => send(state, sink, &Response::Pong.render()),
            Request::Metrics => {
                let registry = state.observer.metrics().to_json();
                send(state, sink, &Response::Metrics(registry).render());
            }
            Request::Drain => {
                self.drain();
                send(state, sink, &Response::Draining.render());
            }
            Request::Cancel(id) => {
                let token = state
                    .tokens
                    .lock()
                    .ok()
                    .and_then(|tokens| tokens.get(&(conn, id.clone())).cloned());
                match token {
                    Some(token) => token.cancel(), // the job's own response reports "cancelled"
                    None => send(
                        state,
                        sink,
                        &Response::Error {
                            id: Some(id),
                            detail: "no such active job on this connection".to_string(),
                        }
                        .render(),
                    ),
                }
            }
            Request::Submit(spec) => {
                if let Some(rejection) = self.admit(conn, *spec, sink) {
                    send(state, sink, &rejection.render());
                }
            }
        }
        true
    }

    /// Admission control: accepts the job into the queue (returning
    /// `None`) or returns the typed rejection to send.
    fn admit(&self, conn: u64, spec: JobSpec, sink: &Sink) -> Option<Response> {
        let state = &self.state;
        let obs = &state.observer;
        // Idempotent retries: a client job id that already completed is
        // served its recorded response verbatim — byte-identical by
        // construction, no re-run, and available even while draining.
        let served = state
            .completions
            .lock()
            .ok()
            .and_then(|done| done.get(&spec.id).cloned());
        if let Some(response) = served {
            obs.counter_add("journal.dedup_served", 1);
            send(state, sink, &response);
            return None;
        }
        let reject = |counter: &str, reason: RejectReason| {
            obs.counter_add(counter, 1);
            if matches!(
                reason,
                RejectReason::QueueFull { .. } | RejectReason::Draining { .. }
            ) {
                obs.counter_add("service.retry_hints", 1);
            }
            Some(Response::Rejected {
                id: spec.id.clone(),
                reason,
            })
        };
        // One id, one run: a duplicate of a job still in flight is turned
        // away instead of racing two runs (and two responses) for one id.
        if state
            .inflight_ids
            .lock()
            .is_ok_and(|ids| ids.contains(&spec.id))
        {
            return reject(
                "service.rejected.invalid",
                RejectReason::Invalid {
                    detail: format!("job id '{}' is already in flight", spec.id),
                },
            );
        }
        if state.draining.load(Ordering::Relaxed) {
            return reject(
                "service.rejected.draining",
                RejectReason::Draining {
                    retry_after_ms: self.backoff_hint(),
                },
            );
        }
        let circuit = match from_qasm(&spec.qasm) {
            Ok(c) => c,
            Err(e) => {
                return reject(
                    "service.rejected.invalid",
                    RejectReason::Invalid {
                        detail: e.to_string(),
                    },
                )
            }
        };
        if let Err(e) = circuit.validate() {
            return reject(
                "service.rejected.invalid",
                RejectReason::Invalid {
                    detail: e.to_string(),
                },
            );
        }
        if circuit.num_qubits() > state.config.max_qubits {
            return reject(
                "service.rejected.too_large",
                RejectReason::TooLarge {
                    detail: format!(
                        "{} qubits exceeds the {}-qubit limit",
                        circuit.num_qubits(),
                        state.config.max_qubits
                    ),
                },
            );
        }
        let shots = spec.shots.unwrap_or(state.config.default_shots);
        if shots > state.config.max_shots {
            return reject(
                "service.rejected.too_large",
                RejectReason::TooLarge {
                    detail: format!(
                        "{shots} shots exceeds the {}-shot limit",
                        state.config.max_shots
                    ),
                },
            );
        }
        let scheme = match spec.scheme.as_deref() {
            None => DynamicScheme::Dynamic2,
            Some("direct") => DynamicScheme::Direct,
            Some("dynamic1") | Some("dynamic-1") => DynamicScheme::Dynamic1,
            Some("dynamic2") | Some("dynamic-2") => DynamicScheme::Dynamic2,
            Some(other) => {
                return reject(
                    "service.rejected.invalid",
                    RejectReason::Invalid {
                        detail: format!("unknown scheme '{other}'"),
                    },
                )
            }
        };
        let roles = match build_roles(&circuit, &spec.answer, &spec.data, &spec.ancilla) {
            Ok(r) => r,
            Err(detail) => {
                return reject("service.rejected.invalid", RejectReason::Invalid { detail })
            }
        };
        // Memory admission: shed work the statevector budget cannot hold
        // *before* any allocation. The traditional circuit's width bounds
        // the transformed one (reuse only narrows), so this is
        // conservative.
        let bytes = statevector_bytes(circuit.num_qubits());
        if bytes > state.config.max_inflight_bytes {
            return reject(
                "service.rejected.too_large",
                RejectReason::TooLarge {
                    detail: format!(
                        "a {}-qubit statevector ({bytes} bytes) exceeds the {}-byte memory budget",
                        circuit.num_qubits(),
                        state.config.max_inflight_bytes
                    ),
                },
            );
        }
        let seed = spec.seed.unwrap_or(state.config.default_seed);
        let deadline = spec
            .deadline_ms
            .map_or(state.config.default_deadline, Duration::from_millis);
        let token = CancelToken::new();
        let job = Job {
            conn,
            id: spec.id.clone(),
            circuit,
            answer: spec.answer.clone(),
            data: spec.data.clone(),
            ancilla: spec.ancilla.clone(),
            roles,
            scheme,
            shots,
            seed,
            deadline,
            accepted: Instant::now(),
            token: token.clone(),
            sink: Arc::clone(sink),
            bytes,
            answered: Arc::new(AtomicBool::new(false)),
            recovered: false,
        };
        {
            let Ok(mut queue) = state.queue.lock() else {
                return reject(
                    "service.rejected.invalid",
                    RejectReason::Invalid {
                        detail: "service queue unavailable".to_string(),
                    },
                );
            };
            if queue.len() >= state.config.queue_capacity {
                drop(queue);
                return reject(
                    "service.rejected.queue_full",
                    RejectReason::QueueFull {
                        retry_after_ms: self.backoff_hint(),
                    },
                );
            }
            let inflight = state.inflight_bytes.load(Ordering::Relaxed);
            if inflight + bytes > state.config.max_inflight_bytes {
                drop(queue);
                obs.counter_add("service.rejected.memory", 1);
                return reject(
                    "service.rejected.queue_full",
                    RejectReason::QueueFull {
                        retry_after_ms: self.backoff_hint(),
                    },
                );
            }
            // Journal the admission *after* every shedding decision and
            // *before* the push: a crash between the two forgets a job no
            // client was promised, and replay never resurrects a job that
            // was actually rejected.
            if let Some(journal) = &state.journal {
                let resolved = resolved_spec(&spec, shots, seed, deadline, job.scheme);
                if let Err(e) = journal.append_admitted(&resolved) {
                    drop(queue);
                    obs.counter_add("journal.append_failed", 1);
                    return reject(
                        "service.rejected.invalid",
                        RejectReason::Invalid {
                            detail: format!("cannot make the job durable: {e}"),
                        },
                    );
                }
                obs.counter_add("journal.records_written", 1);
            }
            queue.push_back(job);
            obs.gauge_set("service.queue_depth", queue.len() as f64);
        }
        if let Ok(mut tokens) = state.tokens.lock() {
            tokens.insert((conn, spec.id.clone()), token);
        }
        if let Ok(mut ids) = state.inflight_ids.lock() {
            ids.insert(spec.id);
        }
        let inflight = state.inflight_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        obs.gauge_set("service.inflight_bytes", inflight as f64);
        state.pending.fetch_add(1, Ordering::SeqCst);
        obs.counter_add("service.accepted", 1);
        self.state.available.notify_one();
        None
    }

    /// The `retry_after_ms` hint: how long until a queue slot should free
    /// up, from the job-latency EMA and the configured parallelism.
    ///
    /// Before the first completion the EMA has no samples; rather than
    /// emit a garbage hint, it is seeded from [`COLD_START_JOB_US`] (a
    /// conservative "typical job" guess), and every hint — cold or warm —
    /// is clamped into `[`[`MIN_RETRY_HINT_MS`]`, `[`MAX_RETRY_HINT_MS`]`]`
    /// so a pathological EMA can never tell clients to hammer the server
    /// or to go away for minutes.
    fn backoff_hint(&self) -> u64 {
        let ema_us = self.state.ema_job_us.load(Ordering::Relaxed);
        let effective_us = if ema_us == 0 {
            COLD_START_JOB_US
        } else {
            ema_us
        };
        let per_slot_ms = effective_us / 1000 / self.state.config.workers.max(1) as u64;
        per_slot_ms.clamp(MIN_RETRY_HINT_MS, MAX_RETRY_HINT_MS)
    }

    /// Stops admission; already-accepted work keeps running. Idempotent.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.available.notify_all();
    }

    /// `true` once [`Server::drain`] was called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Drains and blocks until every accepted job has been answered and
    /// every worker has exited.
    ///
    /// Waits on the *pending counter* first, then joins worker handles:
    /// a worker wedged inside a shot is escalated by the watchdog (its job
    /// answered, its handle detached), so the pending counter always
    /// reaches zero and join never hangs on a zombie thread.
    pub fn join(&self) {
        self.drain();
        while self.pending() > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.state.available.notify_all();
        let handles: Vec<JoinHandle<()>> = match self.state.handles.lock() {
            Ok(mut handles) => handles.drain().map(|(_, handle)| handle).collect(),
            Err(_) => return,
        };
        for handle in handles {
            let _ = handle.join();
        }
        let watchdog = self.watchdog.lock().ok().and_then(|mut w| w.take());
        if let Some(watchdog) = watchdog {
            let _ = watchdog.join();
        }
        if let Some(journal) = &self.state.journal {
            let _ = journal.sync();
        }
    }

    /// Accepted jobs not yet answered.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.state.pending.load(Ordering::SeqCst)
    }

    /// The service metrics registry as JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.state.observer.metrics().to_json()
    }
}

/// Builds the role partition with the CLI's defaulting rule (unlisted
/// qubits are data) and validates it against the circuit.
fn build_roles(
    circuit: &Circuit,
    answer: &[usize],
    data: &[usize],
    ancilla: &[usize],
) -> Result<QubitRoles, String> {
    if answer.is_empty() {
        return Err("at least one answer qubit is required (answer header)".to_string());
    }
    for &i in answer.iter().chain(data).chain(ancilla) {
        if i >= circuit.num_qubits() {
            return Err(format!(
                "qubit index {i} out of range for a {}-qubit circuit",
                circuit.num_qubits()
            ));
        }
    }
    let data: Vec<Qubit> = if data.is_empty() {
        (0..circuit.num_qubits())
            .filter(|i| !answer.contains(i) && !ancilla.contains(i))
            .map(Qubit::new)
            .collect()
    } else {
        data.iter().map(|&i| Qubit::new(i)).collect()
    };
    let roles = QubitRoles::new(
        data,
        ancilla.iter().map(|&i| Qubit::new(i)).collect(),
        answer.iter().map(|&i| Qubit::new(i)).collect(),
    );
    roles.validate(circuit).map_err(|e| e.to_string())?;
    Ok(roles)
}

/// Writes one response frame to a connection, counting (never
/// propagating) write failures as `service.disconnects`: a mid-job
/// disconnect must not take a worker down, and the accepted-work
/// accounting stays truthful either way. Every response the server sends
/// goes through here.
fn send(state: &State, sink: &Sink, payload: &[u8]) {
    let written = match sink.lock() {
        Ok(mut writer) => write_frame(&mut *writer, payload).is_ok(),
        Err(_) => false,
    };
    if !written {
        state.observer.counter_add("service.disconnects", 1);
    }
}

/// Spawns one supervised worker: a fresh slot (heartbeat + active-job
/// surface), registered in the state's slot and handle tables.
fn spawn_worker(state: &Arc<State>) {
    let id = state.next_slot.fetch_add(1, Ordering::Relaxed);
    let slot = Arc::new(WorkerSlot {
        id,
        beat: Arc::new(AtomicU64::new(0)),
        retired: AtomicBool::new(false),
        active: Mutex::new(None),
    });
    if let Ok(mut slots) = state.slots.lock() {
        slots.push(Arc::clone(&slot));
    }
    let thread_state = Arc::clone(state);
    let thread_slot = Arc::clone(&slot);
    let handle = std::thread::spawn(move || worker_loop(&thread_state, &thread_slot));
    if let Ok(mut handles) = state.handles.lock() {
        handles.insert(id, handle);
    }
}

/// Loads a journal recovery into the live state: completed `result`
/// responses seed the idempotency index; admitted-but-unanswered jobs
/// re-enter the queue on a null sink (their clients died with the old
/// process — the journal's completion record is their response channel,
/// served on retry) with fresh deadline clocks.
fn replay_recovery(state: &Arc<State>, recovery: crate::journal::Recovery) {
    let obs = &state.observer;
    obs.counter_add("journal.truncated_bytes", recovery.truncated_bytes);
    if let Ok(mut done) = state.completions.lock() {
        for (id, bytes) in recovery.completed {
            // Only settled results are worth serving to retries; journaled
            // error completions exist to stop replay, not to be replayed.
            if bytes.starts_with(b"{\"type\":\"result\"") {
                done.insert(id, bytes);
            }
        }
    }
    let mut replayed = 0u64;
    for spec in recovery.incomplete {
        match recovered_job(state, &spec) {
            Ok(job) => {
                let bytes = job.bytes;
                let id = job.id.clone();
                if let Ok(mut queue) = state.queue.lock() {
                    queue.push_back(job);
                } else {
                    continue;
                }
                if let Ok(mut ids) = state.inflight_ids.lock() {
                    ids.insert(id);
                }
                state.inflight_bytes.fetch_add(bytes, Ordering::Relaxed);
                state.pending.fetch_add(1, Ordering::SeqCst);
                replayed += 1;
            }
            Err(detail) => {
                // A journaled admission that no longer materializes (say,
                // a journal written by a different build): settle it with
                // an error completion so the *next* restart does not chew
                // on it again.
                obs.counter_add("journal.replay_failed", 1);
                let response = Response::Error {
                    id: Some(spec.id.clone()),
                    detail: format!("recovery replay failed: {detail}"),
                };
                if let Some(journal) = &state.journal {
                    let _ = journal.append_completed(&spec.id, &response.render());
                }
            }
        }
    }
    obs.counter_add("journal.replayed", replayed);
}

/// Rebuilds a runnable [`Job`] from a journaled (resolved) submission.
fn recovered_job(state: &Arc<State>, spec: &JobSpec) -> Result<Job, String> {
    let circuit = from_qasm(&spec.qasm).map_err(|e| e.to_string())?;
    circuit.validate().map_err(|e| e.to_string())?;
    let scheme = match spec.scheme.as_deref() {
        None | Some("dynamic2") | Some("dynamic-2") => DynamicScheme::Dynamic2,
        Some("direct") => DynamicScheme::Direct,
        Some("dynamic1") | Some("dynamic-1") => DynamicScheme::Dynamic1,
        Some(other) => return Err(format!("unknown scheme '{other}'")),
    };
    let roles = build_roles(&circuit, &spec.answer, &spec.data, &spec.ancilla)?;
    let bytes = statevector_bytes(circuit.num_qubits());
    Ok(Job {
        conn: u64::MAX,
        id: spec.id.clone(),
        circuit,
        answer: spec.answer.clone(),
        data: spec.data.clone(),
        ancilla: spec.ancilla.clone(),
        roles,
        scheme,
        shots: spec.shots.unwrap_or(state.config.default_shots),
        seed: spec.seed.unwrap_or(state.config.default_seed),
        deadline: spec
            .deadline_ms
            .map_or(state.config.default_deadline, Duration::from_millis),
        accepted: Instant::now(),
        token: CancelToken::new(),
        sink: Arc::new(Mutex::new(Box::new(std::io::sink()))),
        bytes,
        answered: Arc::new(AtomicBool::new(false)),
        recovered: true,
    })
}

/// Settles one job exactly once: sends the response (skipped for
/// recovered jobs, whose connection died with the old process), journals
/// the completion, seeds the idempotency index, and releases the job's
/// accounting (token, in-flight id, memory reservation, pending count).
/// Returns `false` when the other contender — worker vs watchdog — got
/// there first.
fn finish_job(state: &Arc<State>, job: &ActiveJob, response: &Response) -> bool {
    if job.answered.swap(true, Ordering::SeqCst) {
        return false;
    }
    let obs = &state.observer;
    let payload = response.render();
    if !job.recovered {
        send(state, &job.sink, &payload);
    }
    if matches!(response, Response::Result(_)) {
        if let Ok(mut done) = state.completions.lock() {
            done.insert(job.id.clone(), payload.clone());
        }
    }
    if let Some(journal) = &state.journal {
        if journal.append_completed(&job.id, &payload).is_ok() {
            obs.counter_add("journal.records_written", 1);
        } else {
            obs.counter_add("journal.append_failed", 1);
        }
    }
    if let Ok(mut tokens) = state.tokens.lock() {
        tokens.remove(&(job.conn, job.id.clone()));
    }
    if let Ok(mut ids) = state.inflight_ids.lock() {
        ids.remove(&job.id);
    }
    let before = state.inflight_bytes.fetch_sub(job.bytes, Ordering::Relaxed);
    obs.gauge_set(
        "service.inflight_bytes",
        before.saturating_sub(job.bytes) as f64,
    );
    state.pending.fetch_sub(1, Ordering::SeqCst);
    true
}

/// The watchdog-visible view of a popped job.
fn job_view(job: &Job) -> ActiveJob {
    ActiveJob {
        conn: job.conn,
        id: job.id.clone(),
        shots: job.shots,
        token: job.token.clone(),
        sink: Arc::clone(&job.sink),
        answered: Arc::clone(&job.answered),
        bytes: job.bytes,
        recovered: job.recovered,
    }
}

/// One worker: pop, run, answer — until drain empties the queue or the
/// watchdog retires the slot.
fn worker_loop(state: &Arc<State>, slot: &Arc<WorkerSlot>) {
    loop {
        if slot.retired.load(Ordering::SeqCst) {
            return;
        }
        let job = {
            let Ok(mut queue) = state.queue.lock() else {
                return;
            };
            loop {
                if let Some(job) = queue.pop_front() {
                    state
                        .observer
                        .gauge_set("service.queue_depth", queue.len() as f64);
                    break Some(job);
                }
                if state.draining.load(Ordering::SeqCst) {
                    break None;
                }
                match state.available.wait(queue) {
                    Ok(q) => queue = q,
                    Err(_) => return,
                }
            }
        };
        let Some(job) = job else { return };
        let view = job_view(&job);
        slot.beat.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut active) = slot.active.lock() {
            *active = Some(view.clone());
        }
        let queue_wait = job.accepted.elapsed();
        let started = Instant::now();
        let response = run_job(state, &job, queue_wait, &slot.beat);
        let settled = finish_job(state, &view, &response);
        if let Ok(mut active) = slot.active.lock() {
            *active = None;
        }
        slot.beat.fetch_add(1, Ordering::Relaxed);
        if settled {
            let elapsed = started.elapsed();
            let obs = &state.observer;
            obs.metrics().observe_duration("service.job_ns", elapsed);
            obs.metrics()
                .observe_duration("service.queue_wait_ns", queue_wait);
            // EMA with alpha 1/4, in integer microseconds: cheap,
            // lock-free, plenty for a backoff hint. Watchdog-settled jobs
            // are excluded — a wedged job's latency is not a queue signal.
            let sample_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            let previous = state.ema_job_us.load(Ordering::Relaxed);
            let next = if previous == 0 {
                sample_us
            } else {
                previous - previous / 4 + sample_us / 4
            };
            state.ema_job_us.store(next, Ordering::Relaxed);
        }
    }
}

/// Per-slot watchdog bookkeeping.
struct Watch {
    last_beat: u64,
    changed_at: Instant,
    stage: Stage,
}

/// Where a stalled slot is in the escalation ladder.
enum Stage {
    /// Heartbeat moving (or not yet stalled for a full interval).
    Healthy,
    /// Stage one fired: the job's cancel token is set; waiting one more
    /// interval for the worker to honour it.
    Cancelled,
}

/// The supervisor: samples worker heartbeats every
/// [`Config::watchdog_interval`] and escalates a stall in two stages —
/// cancel the job cooperatively, then retire the worker, answer the job
/// with a typed error, and respawn. Exits once the server is draining
/// with nothing pending.
fn watchdog_loop(state: &Arc<State>) {
    let mut watches: HashMap<u64, Watch> = HashMap::new();
    loop {
        if state.draining.load(Ordering::SeqCst) && state.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        std::thread::sleep(state.config.watchdog_interval);
        let slots: Vec<Arc<WorkerSlot>> = match state.slots.lock() {
            Ok(slots) => slots.clone(),
            Err(_) => return,
        };
        watches.retain(|id, _| slots.iter().any(|s| s.id == *id));
        for slot in slots {
            let active = match slot.active.lock() {
                Ok(active) => active.clone(),
                Err(_) => continue,
            };
            let Some(job) = active else {
                watches.remove(&slot.id);
                continue;
            };
            let beat = slot.beat.load(Ordering::Relaxed);
            let watch = watches.entry(slot.id).or_insert_with(|| Watch {
                last_beat: beat,
                changed_at: Instant::now(),
                stage: Stage::Healthy,
            });
            if beat != watch.last_beat {
                watch.last_beat = beat;
                watch.changed_at = Instant::now();
                watch.stage = Stage::Healthy;
                continue;
            }
            if watch.changed_at.elapsed() < state.config.stall_after {
                continue;
            }
            match watch.stage {
                Stage::Healthy => {
                    // Stage one: cooperative. A live-but-slow worker honours
                    // this between shots and answers `cancelled` itself.
                    job.token.cancel();
                    state.observer.counter_add("supervisor.stuck_cancelled", 1);
                    watch.stage = Stage::Cancelled;
                    watch.changed_at = Instant::now();
                }
                Stage::Cancelled => {
                    // Stage two: the heartbeat ignored cancellation for a
                    // whole further interval — the worker is wedged inside
                    // a shot. Retire it (it must not serve jobs alongside
                    // its replacement if it ever wakes), answer its job
                    // with a typed supervisor error, detach its handle
                    // (joining a wedged thread would hang the drain), and
                    // respawn a fresh worker.
                    slot.retired.store(true, Ordering::SeqCst);
                    let response = Response::Error {
                        id: Some(job.id.clone()),
                        detail: format!(
                            "supervisor: worker stalled beyond {:?} and was replaced; \
                             job abandoned after {} shots requested",
                            state.config.stall_after, job.shots
                        ),
                    };
                    finish_job(state, &job, &response);
                    if let Ok(mut slots) = state.slots.lock() {
                        slots.retain(|s| s.id != slot.id);
                    }
                    if let Ok(mut handles) = state.handles.lock() {
                        drop(handles.remove(&slot.id));
                    }
                    state.observer.counter_add("supervisor.respawns", 1);
                    watches.remove(&slot.id);
                    spawn_worker(state);
                }
            }
        }
    }
}

/// Transforms (through the cache) and simulates one job.
fn run_job(state: &Arc<State>, job: &Job, queue_wait: Duration, beat: &Arc<AtomicU64>) -> Response {
    let obs = &state.observer;
    let queue_ms = queue_wait.as_secs_f64() * 1e3;
    if job.token.is_cancelled() {
        obs.counter_add("service.cancelled", 1);
        return Response::Result(Box::new(JobOutcome {
            id: job.id.clone(),
            termination: Termination::Cancelled.to_string(),
            requested: job.shots,
            completed: 0,
            failed: 0,
            discarded: 0,
            counts: Vec::new(),
            cache_hit: false,
            queue_ms,
            run_ms: 0.0,
            tvd: 0.0,
        }));
    }
    let started = Instant::now();

    // Transform, through the content-hash cache.
    let key = cache_key(
        &job.circuit,
        &job.answer,
        &job.data,
        &job.ancilla,
        job.scheme,
    );
    let (transform, cache_hit) = match state.cache.get(key) {
        Some(hit) => {
            obs.counter_add("service.cache.hit", 1);
            (hit, true)
        }
        None => {
            obs.counter_add("service.cache.miss", 1);
            let result: Result<_, DqcError> = Pipeline::new()
                .scheme(job.scheme)
                .run(&job.circuit, &job.roles);
            match result {
                Ok(result) => {
                    let entry = Arc::new(CachedTransform {
                        circuit: result.dynamic.circuit().clone(),
                        tvd: result.report.tvd,
                    });
                    state.cache.insert(key, Arc::clone(&entry));
                    (entry, false)
                }
                Err(e) => {
                    obs.counter_add("service.errors", 1);
                    return Response::Error {
                        id: Some(job.id.clone()),
                        detail: format!("transform failed: {e}"),
                    };
                }
            }
        }
    };

    // Chaos scoping: a job-faulted job runs under a scoped per-shot hook;
    // everything else runs with no hook at all (bit-identical to a
    // chaos-free server).
    let mut executor = Executor::new()
        .shots(job.shots)
        .seed(job.seed)
        .threads(1)
        .deadline(job.deadline.saturating_sub(job.accepted.elapsed()))
        .cancel_token(job.token.clone())
        .heartbeat(Arc::clone(beat));
    if let Some(plan) = &state.config.chaos {
        let scope = job_scope_key(&job.id);
        let fault = plan.job_fault(scope);
        if fault.is_faulted() {
            obs.counter_add("service.chaos.faulted_jobs", 1);
            // The per-shot hook expresses exactly the job-level decision:
            // the two shot sites are cleared and the drawn faults
            // re-raised to certainty, so a panic-faulted job fails every
            // shot and a delay-only job stays bit-identical, just slow.
            let mut scoped = plan
                .scoped(scope)
                .with_rate(FaultSite::ShotPanic, 0.0)
                .with_rate(FaultSite::ShotDelay, 0.0);
            if fault.panic {
                scoped = scoped.with_rate(FaultSite::ShotPanic, 1.0);
            }
            if let Some(delay) = fault.delay {
                scoped = scoped
                    .with_rate(FaultSite::ShotDelay, 1.0)
                    .with_delay(delay);
            }
            executor = executor.fault_hook(Arc::new(scoped));
        }
    }

    let (counts, report) = executor.run_resilient(transform.circuit());
    match report.termination {
        Termination::Cancelled => obs.counter_add("service.cancelled", 1),
        Termination::Deadline => obs.counter_add("service.deadline", 1),
        _ => {}
    }
    obs.counter_add("service.completed", 1);
    Response::Result(Box::new(JobOutcome {
        id: job.id.clone(),
        termination: report.termination.to_string(),
        requested: report.requested,
        completed: report.completed,
        failed: report.failed,
        discarded: report.discarded,
        counts: counts.into_iter().collect(),
        cache_hit,
        queue_ms,
        run_ms: started.elapsed().as_secs_f64() * 1e3,
        tvd: transform.tvd,
    }))
}

impl CachedTransform {
    /// The cached dynamic circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}
