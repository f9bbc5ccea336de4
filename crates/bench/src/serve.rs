//! The sweep service behind `dise_serve`: parses cell jobs, queues them
//! across concurrent clients, fans each across the harness
//! [`Pool`](crate::Pool), and narrates progress both through the
//! installed observability session (per-cell start/done events, periodic
//! heartbeats, per-cell delta-encoded `metrics` records — all tagged with
//! the job's `id`) and back to the submitting client as a streamed line
//! protocol.
//!
//! A *job* is one line of text:
//!
//! ```text
//! baseline <bench>     # one bare run
//! mfi <bench>          # one DISE4/free MFI run
//! rewrite <bench>      # one binary-rewriting MFI run
//! fig6_top <bench>     # all six Figure-6-top cells for the benchmark
//! ```
//!
//! Jobs reuse the figure sweeps' cell constructors verbatim, so a cell
//! computed by the service has the same content-address key — and
//! byte-identical stats — as the same cell computed by `fig6_mfi`.
//! `tests/serve.rs` and the CI round-trip step hold that line.
//!
//! ## The job queue
//!
//! [`JobQueue`] is the daemon's admission control: a bounded multi-client
//! queue with per-client round-robin dispatch. Each connection's reader
//! thread submits parsed jobs; one scheduler thread pops them and runs
//! them through the shared pool. The bound counts *admitted* jobs
//! (queued plus running); a submission over the bound is rejected
//! immediately with a `busy:` line rather than blocking the client —
//! backpressure is explicit, never silent. `shutdown` flips the queue
//! into draining: already-admitted jobs still run (and stream their
//! results), new submissions are refused, and [`JobQueue::next`] returns
//! `None` once the backlog is empty.
//!
//! ## The response protocol
//!
//! Every server→client line is one of ([`ServerLine`] parses them):
//!
//! ```text
//! queued <id>                      job admitted under id
//! progress <id> <done>/<total>     heartbeat-paced progress while it runs
//! progress <id> <d>/<t> wait=<w>ms run=<r>ms   timed final progress
//! ok <id> <name> (<n> cells)       success final
//! error: <id> <why>                failure final (reserved)
//! error: <why>                     submission rejected (never admitted)
//! busy: ...                        admission refused (queue full / draining)
//! ok shutting down                 shutdown acknowledged
//! {...}                            one-line JSON reply to a `stats` command
//! ```
//!
//! ## Live introspection
//!
//! `stats` is a protocol command (not a job): the reader thread answers
//! it immediately with one line of JSON assembled from [`ServeStats`] —
//! uptime, queue depth and per-client backlogs, the running job and its
//! progress, cumulative done/rejected counters, and per-tenant
//! [`Log2Histogram`]s of cell wall time, queue wait and heartbeat gap.
//! Answering never touches the scheduler: everything is read from
//! atomics and short-lived mutexes the hot path only brushes.
//!
//! Responses for one client are multiplexed on its own connection only,
//! so concurrent clients see disjoint, correctly-demultiplexed streams.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dise_acf::mfi::MfiVariant;
use dise_obs::Session;
use dise_sim::{ExpansionCost, Log2Histogram, SimConfig};
use dise_workloads::Benchmark;

use crate::pool::RunObserver;
use crate::{Cell, Scenario, Sweep};

/// Default admission bound for the daemon's [`JobQueue`].
pub const DEFAULT_QUEUE_BOUND: usize = 16;

/// The shutdown acknowledgment line.
pub const SHUTDOWN_ACK: &str = "ok shutting down";

/// A parsed job: its original spelling (used to tag records) and the
/// cells it expands to.
#[derive(Debug)]
pub struct Job {
    /// The job line as submitted, whitespace-normalized.
    pub name: String,
    /// The cells the job fans out, in deterministic order.
    pub cells: Vec<Cell>,
}

/// Parses one job line against a sweep. Errors are actionable: they name
/// the job grammar and the known benchmarks.
pub fn parse_job(sweep: &Sweep, line: &str) -> Result<Job, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let usage = "expected `<baseline|mfi|rewrite|fig6_top> <bench>`";
    let (&kind, &bench_name) = match words.as_slice() {
        [kind, bench] => (kind, bench),
        _ => return Err(format!("malformed job {line:?}: {usage}")),
    };
    let bench = Benchmark::from_name(bench_name).ok_or_else(|| {
        let known: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        format!("unknown benchmark {bench_name:?}: known benchmarks are {known:?}")
    })?;
    let sim = SimConfig::default();
    let w = sweep.workload(bench);
    let cells = match kind {
        "baseline" => vec![Scenario::baseline(&w, sim).cell()],
        "mfi" => {
            vec![Scenario::dise_mfi(&w, MfiVariant::Dise4, ExpansionCost::Free, sim).cell()]
        }
        "rewrite" => vec![Scenario::rewrite_mfi(&w, sim).cell()],
        // The full Figure-6-top column for one benchmark.
        "fig6_top" => crate::figures::fig6::top_column(&w, sim),
        other => return Err(format!("unknown job kind {other:?}: {usage}")),
    };
    Ok(Job {
        name: words.join(" "),
        cells,
    })
}

// ---------------------------------------------------------------------
// Flag validation

/// Validates a `--heartbeat-ms` value, mirroring [`crate::Pool::parse_jobs`]:
/// malformed input is rejected with an actionable message instead of
/// being papered over. `0` is rejected because a zero period would spin
/// the heartbeat thread — drop the flag to get the default.
pub fn parse_heartbeat_ms(v: &str) -> Result<u64, String> {
    match v.trim().parse::<u64>() {
        Ok(0) => Err(
            "--heartbeat-ms must be at least 1 (got 0); drop the flag for the default period"
                .to_string(),
        ),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "--heartbeat-ms wants a positive integer (milliseconds between heartbeats), got {v:?}"
        )),
    }
}

/// Validates a `--queue` admission bound, mirroring
/// [`crate::Pool::parse_jobs`]. `0` is rejected: a zero bound would
/// refuse every job, which is never what the operator meant.
pub fn parse_queue_bound(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err(
            "--queue must be at least 1 (got 0): a zero bound would reject every job"
                .to_string(),
        ),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--queue wants a positive integer, got {v:?}")),
    }
}

// ---------------------------------------------------------------------
// Socket-path claiming

/// Decides whether the daemon may bind `path`, protecting a live daemon
/// from being silently clobbered: probe the path with a connect, and
/// only unlink it when the connection is *refused* (a stale socket left
/// by a dead daemon). A successful connect means another daemon is
/// serving there — error out. A path that exists but is not a socket is
/// never removed.
pub fn claim_socket_path(path: &Path) -> Result<(), String> {
    use std::io::ErrorKind;
    match std::os::unix::net::UnixStream::connect(path) {
        Ok(_probe) => Err(format!(
            "refusing to bind {}: another daemon is already listening there \
             (submit jobs to it, or pick a different --socket path)",
            path.display()
        )),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
            let is_socket = std::fs::symlink_metadata(path)
                .map(|m| std::os::unix::fs::FileTypeExt::is_socket(&m.file_type()))
                .unwrap_or(false);
            if !is_socket {
                return Err(format!(
                    "refusing to replace {}: it exists but is not a socket",
                    path.display()
                ));
            }
            std::fs::remove_file(path)
                .map_err(|e| format!("cannot remove stale socket {}: {e}", path.display()))
        }
        Err(e) => Err(format!(
            "cannot probe {}: {e} (remove it manually if it is stale)",
            path.display()
        )),
    }
}

// ---------------------------------------------------------------------
// Response protocol

/// Formats the `queued <id>` admission line.
pub fn queued_line(id: u64) -> String {
    format!("queued {id}")
}

/// Formats a `progress <id> <done>/<total>` line.
pub fn progress_line(id: u64, done: u64, total: u64) -> String {
    format!("progress {id} {done}/{total}")
}

/// Formats the timed final progress line the scheduler sends just before
/// `ok`: how long the job waited in the queue and how long it ran. The
/// submit client surfaces the split in its per-job summary.
pub fn progress_line_timed(id: u64, done: u64, total: u64, wait_ms: u64, run_ms: u64) -> String {
    format!("progress {id} {done}/{total} wait={wait_ms}ms run={run_ms}ms")
}

/// Formats the `ok <id> <name> (<n> cells)` success final.
pub fn job_ok_line(id: u64, name: &str, cells: usize) -> String {
    format!("ok {id} {name} ({cells} cells)")
}

/// Formats the `error: <id> <why>` failure final.
pub fn job_error_line(id: u64, why: &str) -> String {
    format!("error: {id} {why}")
}

/// Formats the `checkpoint <id>` line streamed each time a running
/// job's cell persists a crash-resume checkpoint (only when the daemon
/// runs with `--checkpoint-dir`).
pub fn checkpoint_line(id: u64) -> String {
    format!("checkpoint {id}")
}

/// Formats the `resumed <id>` line a restarted daemon sends to every
/// connecting client for each journaled job it re-admitted.
pub fn resumed_line(id: u64) -> String {
    format!("resumed {id}")
}

/// Formats the `error: <why>` submission rejection (job never admitted).
pub fn rejected_line(why: &str) -> String {
    format!("error: {why}")
}

/// Formats the `busy:` backpressure rejection, naming the queue depth.
pub fn busy_line(admitted: usize, bound: usize) -> String {
    format!("busy: {admitted} jobs in flight (bound {bound}); retry later")
}

/// Formats the `busy:` rejection a draining daemon sends.
pub fn draining_line() -> String {
    "busy: shutting down; retry later".to_string()
}

/// One parsed server→client protocol line (see the module docs for the
/// grammar). The submit client drives its bookkeeping off this, and the
/// conformance tests assert stream shape with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerLine {
    /// `queued <id>` — the job was admitted.
    Queued {
        /// The daemon-assigned job id.
        id: u64,
    },
    /// `progress <id> <done>/<total>` — heartbeat-paced progress, with
    /// the queue-wait/run-time split on the scheduler's timed final.
    Progress {
        /// The job this progress belongs to.
        id: u64,
        /// Cells completed so far.
        done: u64,
        /// Cells in the job.
        total: u64,
        /// Milliseconds the job waited in the queue (timed final only).
        wait_ms: Option<u64>,
        /// Milliseconds the job spent running (timed final only).
        run_ms: Option<u64>,
    },
    /// `ok <id> ...` — the job completed successfully.
    JobOk {
        /// The completed job.
        id: u64,
    },
    /// `error: <id> ...` — the job failed after admission.
    JobError {
        /// The failed job.
        id: u64,
    },
    /// `error: <why>` — the submission was rejected before admission
    /// (malformed job line, unknown benchmark, …).
    Rejected,
    /// `busy: ...` — admission refused (queue full, or draining).
    Busy,
    /// `checkpoint <id>` — a cell of the job persisted a crash-resume
    /// checkpoint.
    Checkpoint {
        /// The job that checkpointed.
        id: u64,
    },
    /// `resumed <id>` — a restarted daemon re-admitted this journaled
    /// job from its checkpoint directory.
    Resumed {
        /// The re-admitted job.
        id: u64,
    },
    /// `ok shutting down` — the daemon acknowledged `shutdown`.
    ShutdownAck,
    /// A one-line JSON object — the reply to a `stats` command.
    Stats,
    /// Anything else (unknown/extension lines; clients ignore these).
    Other,
}

impl ServerLine {
    /// Parses one server line.
    pub fn parse(line: &str) -> ServerLine {
        let line = line.trim();
        if line == SHUTDOWN_ACK {
            return ServerLine::ShutdownAck;
        }
        if line.starts_with('{') {
            return ServerLine::Stats;
        }
        let mut words = line.split_whitespace();
        let head = words.next();
        let id = |w: Option<&str>| w.and_then(|w| w.parse::<u64>().ok());
        match head {
            Some("queued") => match id(words.next()) {
                Some(id) => ServerLine::Queued { id },
                None => ServerLine::Other,
            },
            Some("progress") => {
                let job = id(words.next());
                let frac = words.next().and_then(|w| {
                    let (d, t) = w.split_once('/')?;
                    Some((d.parse::<u64>().ok()?, t.parse::<u64>().ok()?))
                });
                let timed = |prefix| {
                    words.clone().find_map(|w: &str| {
                        w.strip_prefix(prefix)?.strip_suffix("ms")?.parse::<u64>().ok()
                    })
                };
                match (job, frac) {
                    (Some(id), Some((done, total))) => ServerLine::Progress {
                        id,
                        done,
                        total,
                        wait_ms: timed("wait="),
                        run_ms: timed("run="),
                    },
                    _ => ServerLine::Other,
                }
            }
            Some("ok") => match id(words.next()) {
                Some(id) => ServerLine::JobOk { id },
                None => ServerLine::Other,
            },
            Some("checkpoint") => match id(words.next()) {
                Some(id) => ServerLine::Checkpoint { id },
                None => ServerLine::Other,
            },
            Some("resumed") => match id(words.next()) {
                Some(id) => ServerLine::Resumed { id },
                None => ServerLine::Other,
            },
            Some("error:") => match id(words.next()) {
                Some(id) => ServerLine::JobError { id },
                None => ServerLine::Rejected,
            },
            Some("busy:") => ServerLine::Busy,
            _ => ServerLine::Other,
        }
    }
}

// ---------------------------------------------------------------------
// The bounded multi-client job queue

/// One admitted queue entry: the daemon-assigned job id, the submitting
/// client, and the caller's payload (the daemon stores the parsed job
/// plus the client's reply handle).
#[derive(Debug)]
pub struct QueuedJob<T> {
    /// Daemon-assigned job id (monotonic from 1).
    pub id: u64,
    /// The submitting client's id.
    pub client: u64,
    /// The caller's payload.
    pub payload: T,
}

/// Why a submission was refused (see [`JobQueue::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRejection {
    /// The admission bound is reached; the client should retry later.
    Busy {
        /// Jobs currently admitted (queued + running).
        admitted: usize,
        /// The configured admission bound.
        bound: usize,
    },
    /// The daemon is draining after `shutdown`; no new jobs are admitted.
    Draining,
}

#[derive(Debug)]
struct QueueInner<T> {
    next_id: u64,
    /// Per-client FIFO backlogs. An entry exists iff its deque is
    /// non-empty (and then its client id is in `rotation` exactly once).
    per_client: BTreeMap<u64, VecDeque<QueuedJob<T>>>,
    /// Round-robin order over clients with queued jobs.
    rotation: VecDeque<u64>,
    /// Jobs admitted and not yet finished (queued + running).
    admitted: usize,
    draining: bool,
}

/// A bounded multi-client job queue with per-client round-robin
/// dispatch — the admission-control heart of the daemon (module docs).
///
/// Fairness: [`JobQueue::next`] serves clients in rotation — a client
/// with a deep backlog cannot starve one submitting a single job; with
/// clients A(3 jobs) and B(1), dispatch order is A B A A. Within a
/// client, jobs run in submission order.
#[derive(Debug)]
pub struct JobQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    bound: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `bound` jobs at once (clamped to ≥ 1).
    pub fn new(bound: usize) -> JobQueue<T> {
        JobQueue {
            inner: Mutex::new(QueueInner {
                next_id: 1,
                per_client: BTreeMap::new(),
                rotation: VecDeque::new(),
                admitted: 0,
                draining: false,
            }),
            ready: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// The admission bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Jobs currently admitted (queued + running).
    pub fn admitted(&self) -> usize {
        self.inner.lock().expect("job queue lock").admitted
    }

    /// Per-client queued-job counts (clients with a non-empty backlog
    /// only), client-id-sorted — the `stats` command's backlog view.
    pub fn backlog_depths(&self) -> Vec<(u64, usize)> {
        let q = self.inner.lock().expect("job queue lock");
        q.per_client.iter().map(|(&client, jobs)| (client, jobs.len())).collect()
    }

    /// Admits a job for `client`, assigning its id, or rejects it
    /// immediately: over-bound submissions get [`SubmitRejection::Busy`]
    /// (explicit backpressure — the reader thread never blocks a client
    /// on queue space), post-shutdown ones [`SubmitRejection::Draining`].
    pub fn submit(&self, client: u64, payload: T) -> Result<u64, SubmitRejection> {
        let mut q = self.inner.lock().expect("job queue lock");
        if q.draining {
            return Err(SubmitRejection::Draining);
        }
        if q.admitted >= self.bound {
            return Err(SubmitRejection::Busy {
                admitted: q.admitted,
                bound: self.bound,
            });
        }
        q.admitted += 1;
        let id = q.next_id;
        q.next_id += 1;
        if !q.per_client.contains_key(&client) {
            q.rotation.push_back(client);
        }
        let backlog = q.per_client.entry(client).or_default();
        backlog.push_back(QueuedJob {
            id,
            client,
            payload,
        });
        self.ready.notify_all();
        Ok(id)
    }

    /// Re-admits a journaled job under its *original* id (daemon
    /// restart — see [`JobJournal`]): bumps the id allocator past it so
    /// fresh submissions never collide, and deliberately ignores the
    /// admission bound — refusing recovery work would silently drop a
    /// job the daemon already accepted before it crashed.
    pub fn restore(&self, client: u64, id: u64, payload: T) {
        let mut q = self.inner.lock().expect("job queue lock");
        q.admitted += 1;
        q.next_id = q.next_id.max(id + 1);
        if !q.per_client.contains_key(&client) {
            q.rotation.push_back(client);
        }
        q.per_client.entry(client).or_default().push_back(QueuedJob {
            id,
            client,
            payload,
        });
        self.ready.notify_all();
    }

    /// Pops the next job under round-robin fairness, blocking while the
    /// queue is empty. Returns `None` once the queue is draining *and*
    /// empty — the scheduler's signal to exit.
    pub fn next(&self) -> Option<QueuedJob<T>> {
        let mut q = self.inner.lock().expect("job queue lock");
        loop {
            if let Some(client) = q.rotation.pop_front() {
                let backlog = q.per_client.get_mut(&client).expect("rotation client queued");
                let job = backlog.pop_front().expect("rotation backlog non-empty");
                if backlog.is_empty() {
                    q.per_client.remove(&client);
                } else {
                    q.rotation.push_back(client);
                }
                return Some(job);
            }
            if q.draining {
                return None;
            }
            q = self.ready.wait(q).expect("job queue lock");
        }
    }

    /// Releases one admitted slot — the scheduler calls this after a
    /// popped job fully completes (results streamed), so the bound
    /// covers running work, not just the backlog.
    pub fn finish(&self) {
        let mut q = self.inner.lock().expect("job queue lock");
        q.admitted = q.admitted.saturating_sub(1);
    }

    /// Starts draining: already-admitted jobs still run, new submissions
    /// are refused, and [`JobQueue::next`] returns `None` once empty.
    pub fn shutdown(&self) {
        self.inner.lock().expect("job queue lock").draining = true;
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// The on-disk job journal (resume-on-restart)

/// On-disk journal of admitted jobs, enabling resume-on-restart: one
/// file per in-flight job under `<checkpoint-dir>/jobs/`, written at
/// admission (`<id>.job`, holding the job line) and removed once the
/// job's final response ships. A daemon started with `--checkpoint-dir`
/// re-parses every journaled job, re-admits it under its original id
/// ([`JobQueue::restore`]), and announces `resumed <id>` to every
/// connecting client; the job's cells then resume from their checkpoint
/// files instead of recomputing (see [`crate::checkpoint`]).
#[derive(Debug)]
pub struct JobJournal {
    dir: PathBuf,
}

impl JobJournal {
    /// The journal under a checkpoint directory.
    pub fn in_checkpoint_dir(checkpoint_dir: &Path) -> JobJournal {
        JobJournal {
            dir: checkpoint_dir.join("jobs"),
        }
    }

    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id}.job"))
    }

    /// Records an admitted job (best-effort: an unwritable journal costs
    /// resumability, never the job itself).
    pub fn record(&self, id: u64, name: &str) {
        if std::fs::create_dir_all(&self.dir).is_ok() {
            let _ = std::fs::write(self.path_of(id), format!("{name}\n"));
        }
    }

    /// Drops a completed job from the journal.
    pub fn complete(&self, id: u64) {
        let _ = std::fs::remove_file(self.path_of(id));
    }

    /// Every journaled job, id-sorted: what a restarted daemon re-admits.
    pub fn scan(&self) -> Vec<(u64, String)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut jobs: Vec<(u64, String)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_suffix(".job")?.parse::<u64>().ok()?;
                let line = std::fs::read_to_string(e.path()).ok()?;
                let line = line.trim().to_string();
                (!line.is_empty()).then_some((id, line))
            })
            .collect();
        jobs.sort_unstable();
        jobs
    }
}

// ---------------------------------------------------------------------
// Live introspection

/// The job the scheduler is currently running, as the `stats` command
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningJob {
    /// Daemon-assigned job id.
    pub id: u64,
    /// The submitting client's id.
    pub client: u64,
    /// The job line as submitted.
    pub name: String,
    /// Cells completed so far.
    pub done: u64,
    /// Cells in the job.
    pub total: u64,
}

/// One client's latency profile, aggregated over every job it has run:
/// log2-bucket histograms cheap enough to update on the hot path and
/// compact enough to ship whole in a one-line `stats` reply.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Jobs completed for this client.
    pub jobs: u64,
    /// Wall-clock milliseconds per cell (cache hits included — they are
    /// the sub-millisecond spike in bucket 0).
    pub cell_wall_ms: Log2Histogram,
    /// Milliseconds each job waited between admission and dispatch.
    pub queue_wait_ms: Log2Histogram,
    /// Milliseconds between consecutive heartbeat ticks while this
    /// client's jobs ran — the proof that introspection (or anything
    /// else) is not delaying the heartbeat cadence.
    pub heartbeat_gap_ms: Log2Histogram,
}

impl TenantStats {
    fn json(&self) -> String {
        format!(
            "{{\"jobs\":{},\"cell_wall_ms\":{},\"queue_wait_ms\":{},\"heartbeat_gap_ms\":{}}}",
            self.jobs,
            self.cell_wall_ms.to_json_compact(),
            self.queue_wait_ms.to_json_compact(),
            self.heartbeat_gap_ms.to_json_compact(),
        )
    }
}

/// The daemon's live introspection state, behind the `stats` protocol
/// command. Writers are the scheduler, the heartbeat thread and the pool
/// workers — all through atomics or short-lived mutexes — so reading a
/// snapshot never perturbs scheduling, and answering `stats` happens on
/// the asking client's reader thread, not the scheduler.
#[derive(Debug)]
pub struct ServeStats {
    start: Instant,
    jobs_done: AtomicU64,
    cells_done: AtomicU64,
    rejected: AtomicU64,
    running: Mutex<Option<RunningJob>>,
    tenants: Mutex<BTreeMap<u64, TenantStats>>,
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

impl ServeStats {
    /// Fresh state; the uptime clock starts here.
    pub fn new() -> ServeStats {
        ServeStats {
            start: Instant::now(),
            jobs_done: AtomicU64::new(0),
            cells_done: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            running: Mutex::new(None),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The scheduler popped a job: record its queue wait and publish it
    /// as the running job.
    pub fn job_started(&self, id: u64, client: u64, name: &str, total: u64, queue_wait_ms: u64) {
        self.with_tenant(client, |t| t.queue_wait_ms.record(queue_wait_ms));
        *self.running.lock().expect("serve stats running") = Some(RunningJob {
            id,
            client,
            name: name.to_string(),
            done: 0,
            total,
        });
    }

    /// Heartbeat-paced progress of the running job.
    pub fn progress(&self, done: u64) {
        if let Some(r) = self.running.lock().expect("serve stats running").as_mut() {
            r.done = done;
        }
    }

    /// The running job finished: clear it and bump the client's totals.
    pub fn job_finished(&self, client: u64) {
        *self.running.lock().expect("serve stats running") = None;
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
        self.with_tenant(client, |t| t.jobs += 1);
    }

    /// One cell of `client`'s job completed in `wall_ms`.
    pub fn cell_done(&self, client: u64, wall_ms: u64) {
        self.cells_done.fetch_add(1, Ordering::Relaxed);
        self.with_tenant(client, |t| t.cell_wall_ms.record(wall_ms));
    }

    /// The observed gap between two heartbeat ticks of `client`'s job.
    pub fn heartbeat_gap(&self, client: u64, gap_ms: u64) {
        self.with_tenant(client, |t| t.heartbeat_gap_ms.record(gap_ms));
    }

    /// A submission was refused (queue full or draining).
    pub fn rejection(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs completed so far.
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done.load(Ordering::Relaxed)
    }

    fn with_tenant(&self, client: u64, f: impl FnOnce(&mut TenantStats)) {
        let mut tenants = self.tenants.lock().expect("serve stats tenants");
        f(tenants.entry(client).or_default());
    }

    /// The one-line JSON `stats` reply: uptime, admission state,
    /// cumulative counters, the running job, per-client backlogs (from
    /// [`JobQueue::backlog_depths`]) and per-tenant latency histograms.
    /// Always a single line starting with `{`, so [`ServerLine::parse`]
    /// classifies it as [`ServerLine::Stats`].
    pub fn stats_line(&self, admitted: usize, bound: usize, backlogs: &[(u64, usize)]) -> String {
        let mut rec = dise_obs::Record::new()
            .str("kind", "stats")
            .u64("uptime_ms", self.start.elapsed().as_millis() as u64)
            .u64("admitted", admitted as u64)
            .u64("bound", bound as u64)
            .u64("jobs_done", self.jobs_done.load(Ordering::Relaxed))
            .u64("cells_done", self.cells_done.load(Ordering::Relaxed))
            .u64("rejected", self.rejected.load(Ordering::Relaxed));
        let running = match self.running.lock().expect("serve stats running").as_ref() {
            Some(r) => dise_obs::Record::new()
                .u64("id", r.id)
                .u64("client", r.client)
                .str("name", &r.name)
                .u64("done", r.done)
                .u64("total", r.total)
                .finish(),
            None => "null".to_string(),
        };
        rec = rec.raw("running", &running);
        let mut depths = String::from("{");
        for (i, (client, depth)) in backlogs.iter().enumerate() {
            if i > 0 {
                depths.push(',');
            }
            depths.push_str(&format!("\"{client}\":{depth}"));
        }
        depths.push('}');
        rec = rec.raw("backlogs", &depths);
        let tenants = self.tenants.lock().expect("serve stats tenants");
        let mut t = String::from("{");
        for (i, (client, stats)) in tenants.iter().enumerate() {
            if i > 0 {
                t.push(',');
            }
            t.push_str(&format!("\"{client}\":{}", stats.json()));
        }
        t.push('}');
        drop(tenants);
        rec.raw("tenants", &t).finish()
    }
}

// ---------------------------------------------------------------------
// Job execution

/// Observer wiring pool scheduling into the session: `cell_start` /
/// `cell_done` events (tagged with the job id) and the shared
/// in-flight/done counters the heartbeat thread reads.
struct ServeObserver<'a> {
    session: &'a Session,
    job: &'a str,
    id: Option<u64>,
    keys: Vec<String>,
    in_flight: AtomicUsize,
    done: &'a AtomicUsize,
}

impl RunObserver for ServeObserver<'_> {
    fn started(&self, index: usize) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.session
            .event_tagged(self.id, &self.keys[index], "cell_start", Some(self.job), &[]);
    }

    fn finished(&self, index: usize) {
        let in_flight = self.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        self.session.event_tagged(
            self.id,
            &self.keys[index],
            "cell_done",
            Some(self.job),
            &[("done", done as f64), ("in_flight", in_flight as f64)],
        );
    }
}

/// The per-job stats log shape shared by the daemon and [`Sweep`]:
/// cell key → name-sorted stat pairs.
pub type StatsLog = Mutex<std::collections::BTreeMap<String, Vec<(String, f64)>>>;

/// Runs one job through the sweep's pool and cache, narrating through
/// `session`, and folds each cell's stats into `stats_log` (the same
/// key-sorted shape [`Sweep::stats_json`] renders). Returns the values
/// of every cell in job order.
///
/// Equivalent to [`run_job_tagged`] with no job id and no progress
/// stream — the in-process/oneshot entry point.
pub fn run_job(
    sweep: &Sweep,
    session: &Arc<Session>,
    job: &Job,
    heartbeat_ms: u64,
    stats_log: &StatsLog,
) -> Vec<Vec<f64>> {
    run_job_tagged(sweep, session, job, heartbeat_ms, stats_log, None, &|_, _| {}, None)
}

/// [`run_job`] as the daemon's scheduler invokes it: every record the
/// job emits is tagged with `id`, and `progress(done, total)` is called
/// on every heartbeat tick so the client's connection streams
/// `progress` lines at the same cadence.
///
/// Heartbeats: one `heartbeat` event immediately at job start (so even a
/// cache-warm job that finishes in microseconds leaves one), then one
/// every `heartbeat_ms` until the job completes, each carrying
/// done/total counts. The heartbeat thread parks on a `Condvar` rather
/// than sleeping, so job completion interrupts it immediately — a long
/// `--heartbeat-ms` never stalls the final response by up to a period.
///
/// Tracing: the whole job runs under a `job` span; each cell runs under
/// a `cell` span explicitly parented to it (cells execute on pool worker
/// threads, so the thread-local stack cannot see the job span), with the
/// run helpers' `phase` and `window` spans nesting below. All of it is
/// inert without an installed session.
///
/// Introspection: with `introspect = Some((stats, client))` the job
/// feeds the daemon's [`ServeStats`] — per-cell wall time, heartbeat
/// gaps, and running-job progress.
#[allow(clippy::too_many_arguments)]
pub fn run_job_tagged(
    sweep: &Sweep,
    session: &Arc<Session>,
    job: &Job,
    heartbeat_ms: u64,
    stats_log: &StatsLog,
    id: Option<u64>,
    progress: &(dyn Fn(u64, u64) + Sync),
    introspect: Option<(&ServeStats, u64)>,
) -> Vec<Vec<f64>> {
    let total = job.cells.len();
    let _job_tag = id.map(dise_obs::job_scope);
    let job_span = dise_obs::span::enter("job", &job.name);
    let job_span_id = job_span.id();
    session.event_tagged(
        id,
        "-",
        "job_start",
        Some(&job.name),
        &[("cells", total as f64)],
    );
    let done = AtomicUsize::new(0);
    let observer = ServeObserver {
        session: session.as_ref(),
        job: &job.name,
        id,
        keys: job.cells.iter().map(|c| c.key().to_string()).collect(),
        in_flight: AtomicUsize::new(0),
        done: &done,
    };
    // Paired stop flag + condvar: the heartbeat waits with a timeout and
    // the scheduler's completion notify wakes it immediately, so joining
    // never costs a heartbeat period.
    let stop = (Mutex::new(false), Condvar::new());

    let outs = std::thread::scope(|s| {
        let heartbeat = s.spawn(|| {
            let mut last_tick = Instant::now();
            loop {
                let d = done.load(Ordering::SeqCst) as u64;
                session.event_tagged(
                    id,
                    "-",
                    "heartbeat",
                    Some(&job.name),
                    &[("done", d as f64), ("total", total as f64)],
                );
                progress(d, total as u64);
                if let Some((stats, client)) = introspect {
                    let now = Instant::now();
                    stats.heartbeat_gap(client, now.duration_since(last_tick).as_millis() as u64);
                    last_tick = now;
                    stats.progress(d);
                }
                let (lock, cvar) = &stop;
                let stopped = lock.lock().expect("heartbeat stop lock");
                if *stopped {
                    break;
                }
                let (stopped, _timeout) = cvar
                    .wait_timeout(stopped, Duration::from_millis(heartbeat_ms))
                    .expect("heartbeat stop lock");
                if *stopped {
                    break;
                }
            }
        });

        let outs = sweep.pool.run_observed(&job.cells, &observer, |_, cell| {
            // Tag everything raised while this cell runs — anomaly reports
            // most importantly — with the cell's content-address key and
            // the job id (worker threads need their own tag guard).
            let _tag = id.map(dise_obs::job_scope);
            let _scope = dise_obs::cell_scope(cell.key());
            let _span = dise_obs::span::enter_under(job_span_id, "cell", cell.key());
            let _ckpt = crate::checkpoint::key_scope(cell.key());
            let started = Instant::now();
            let out = sweep.cache.get_or(cell.key(), || cell.compute());
            if let Some((stats, client)) = introspect {
                stats.cell_done(client, started.elapsed().as_millis() as u64);
            }
            if !out.stats.is_empty() {
                session.metrics_tagged(id, cell.key(), &out.stats);
            }
            out
        });

        *stop.0.lock().expect("heartbeat stop lock") = true;
        stop.1.notify_all();
        heartbeat.join().expect("heartbeat thread");
        outs
    });

    let mut log = stats_log.lock().expect("serve stats log");
    for (cell, out) in job.cells.iter().zip(&outs) {
        if !out.stats.is_empty() {
            log.insert(cell.key().to_string(), out.stats.clone());
        }
    }
    drop(log);
    session.event_tagged(
        id,
        "-",
        "job_done",
        Some(&job.name),
        &[("cells", total as f64)],
    );
    outs.into_iter().map(|o| o.values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CellCache;
    use crate::Pool;

    fn sweep() -> Sweep {
        Sweep::new(2_000, vec![Benchmark::Gzip], Pool::new(1), CellCache::disabled())
    }

    #[test]
    fn job_grammar_rejects_garbage_with_actionable_errors() {
        let s = sweep();
        let e = parse_job(&s, "").unwrap_err();
        assert!(e.contains("expected"), "{e}");
        let e = parse_job(&s, "baseline").unwrap_err();
        assert!(e.contains("expected"), "{e}");
        let e = parse_job(&s, "frobnicate gzip").unwrap_err();
        assert!(e.contains("unknown job kind"), "{e}");
        let e = parse_job(&s, "baseline quake3").unwrap_err();
        assert!(e.contains("known benchmarks"), "{e}");
    }

    #[test]
    fn fig6_top_job_expands_to_the_panel_cells() {
        let s = sweep();
        let job = parse_job(&s, "  fig6_top   gzip ").unwrap();
        assert_eq!(job.name, "fig6_top gzip");
        assert_eq!(job.cells.len(), 6);
        assert!(job.cells[0].key().contains("baseline"));
        assert!(job.cells[1].key().contains("rewrite_mfi"));
        assert!(job.cells[2].key().contains("dise_mfi"));
    }

    #[test]
    fn heartbeat_ms_rejects_zero_and_garbage() {
        assert_eq!(parse_heartbeat_ms("250"), Ok(250));
        assert_eq!(parse_heartbeat_ms(" 1 "), Ok(1));
        let zero = parse_heartbeat_ms("0").unwrap_err();
        assert!(zero.contains("at least 1"), "actionable: {zero}");
        let garbage = parse_heartbeat_ms("fast").unwrap_err();
        assert!(garbage.contains("positive integer"), "actionable: {garbage}");
        assert!(garbage.contains("fast"), "echoes the input: {garbage}");
    }

    #[test]
    fn queue_bound_rejects_zero_and_garbage() {
        assert_eq!(parse_queue_bound("16"), Ok(16));
        let zero = parse_queue_bound("0").unwrap_err();
        assert!(zero.contains("reject every job"), "actionable: {zero}");
        let garbage = parse_queue_bound("deep").unwrap_err();
        assert!(garbage.contains("positive integer"), "actionable: {garbage}");
    }

    #[test]
    fn server_lines_round_trip_through_the_parser() {
        assert_eq!(ServerLine::parse(&queued_line(3)), ServerLine::Queued { id: 3 });
        assert_eq!(
            ServerLine::parse(&progress_line(3, 2, 6)),
            ServerLine::Progress { id: 3, done: 2, total: 6, wait_ms: None, run_ms: None }
        );
        assert_eq!(
            ServerLine::parse(&progress_line_timed(3, 6, 6, 12, 340)),
            ServerLine::Progress { id: 3, done: 6, total: 6, wait_ms: Some(12), run_ms: Some(340) }
        );
        assert_eq!(
            ServerLine::parse(&job_ok_line(3, "fig6_top gzip", 6)),
            ServerLine::JobOk { id: 3 }
        );
        assert_eq!(
            ServerLine::parse(&job_error_line(3, "boom")),
            ServerLine::JobError { id: 3 }
        );
        assert_eq!(
            ServerLine::parse(&rejected_line("unknown benchmark \"quake3\"")),
            ServerLine::Rejected
        );
        assert_eq!(ServerLine::parse(&busy_line(4, 4)), ServerLine::Busy);
        assert_eq!(ServerLine::parse(&draining_line()), ServerLine::Busy);
        assert_eq!(ServerLine::parse(SHUTDOWN_ACK), ServerLine::ShutdownAck);
        assert_eq!(ServerLine::parse("hello world"), ServerLine::Other);
        assert_eq!(ServerLine::parse("queued lots"), ServerLine::Other);
    }

    #[test]
    fn stats_replies_parse_as_stats_and_carry_the_fleet_shape() {
        let stats = ServeStats::new();
        stats.rejection();
        stats.job_started(7, 2, "mfi gzip", 6, 12);
        stats.progress(3);
        stats.cell_done(2, 40);
        stats.heartbeat_gap(2, 250);
        let line = stats.stats_line(1, 4, &[(2, 1), (5, 3)]);
        assert_eq!(ServerLine::parse(&line), ServerLine::Stats);
        assert!(!line.contains('\n'), "stats reply must be one line: {line}");
        for needle in [
            "\"kind\":\"stats\"",
            "\"admitted\":1",
            "\"bound\":4",
            "\"jobs_done\":0",
            "\"cells_done\":1",
            "\"rejected\":1",
            "\"running\":{\"id\":7,\"client\":2,\"name\":\"mfi gzip\",\"done\":3,\"total\":6}",
            "\"backlogs\":{\"2\":1,\"5\":3}",
            "\"queue_wait_ms\":{\"count\":1,\"sum\":12",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }

        stats.job_finished(2);
        let line = stats.stats_line(0, 4, &[]);
        assert!(line.contains("\"running\":null"), "{line}");
        assert!(line.contains("\"jobs_done\":1"), "{line}");
        assert_eq!(stats.jobs_done(), 1);
    }

    #[test]
    fn backlog_depths_report_per_client_queues_in_client_order() {
        let queue: JobQueue<u64> = JobQueue::new(8);
        queue.submit(9, 100).unwrap();
        queue.submit(4, 101).unwrap();
        queue.submit(9, 102).unwrap();
        assert_eq!(queue.backlog_depths(), vec![(4, 1), (9, 2)]);
        let first = queue.next().unwrap();
        queue.finish();
        let after: usize = queue.backlog_depths().iter().map(|&(_, n)| n).sum();
        assert_eq!(after, 2, "popping one job ({first:?}) leaves two queued");
    }

    #[test]
    fn checkpoint_and_resumed_lines_round_trip() {
        assert_eq!(
            ServerLine::parse(&checkpoint_line(7)),
            ServerLine::Checkpoint { id: 7 }
        );
        assert_eq!(ServerLine::parse(&resumed_line(7)), ServerLine::Resumed { id: 7 });
        assert_eq!(ServerLine::parse("checkpoint soon"), ServerLine::Other);
        assert_eq!(ServerLine::parse("resumed maybe"), ServerLine::Other);
    }

    #[test]
    fn journal_records_scans_and_completes() {
        let dir = std::env::temp_dir().join(format!("dise-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = JobJournal::in_checkpoint_dir(&dir);
        assert!(journal.scan().is_empty(), "fresh journal must be empty");
        journal.record(3, "mfi gzip");
        journal.record(11, "fig6_top gcc");
        journal.record(2, "baseline mcf");
        assert_eq!(
            journal.scan(),
            vec![
                (2, "baseline mcf".to_string()),
                (3, "mfi gzip".to_string()),
                (11, "fig6_top gcc".to_string()),
            ]
        );
        journal.complete(3);
        assert_eq!(journal.scan().len(), 2);
        journal.complete(3); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_restore_keeps_ids_and_bypasses_the_bound() {
        let q: JobQueue<&str> = JobQueue::new(1);
        q.submit(1, "live").unwrap();
        // Recovery work is admitted even though the bound is full, under
        // its original id; fresh submissions then allocate past it.
        q.restore(0, 7, "recovered");
        assert_eq!(q.admitted(), 2);
        let first = q.next().expect("live job");
        assert_eq!((first.id, first.payload), (1, "live"));
        let second = q.next().expect("recovered job");
        assert_eq!((second.id, second.payload), (7, "recovered"));
        q.finish();
        q.finish();
        assert_eq!(q.submit(2, "fresh"), Ok(8), "ids must not collide with restores");
    }

    #[test]
    fn queue_dispatches_clients_round_robin() {
        let q: JobQueue<&str> = JobQueue::new(8);
        // Client 1 floods; client 2 submits one job later — it must not
        // wait behind the whole flood.
        assert_eq!(q.submit(1, "a"), Ok(1));
        assert_eq!(q.submit(1, "b"), Ok(2));
        assert_eq!(q.submit(1, "c"), Ok(3));
        assert_eq!(q.submit(2, "d"), Ok(4));
        let order: Vec<(u64, &str)> = std::iter::from_fn(|| {
            q.shutdown(); // idempotent; makes next() non-blocking when empty
            q.next().map(|j| (j.client, j.payload))
        })
        .collect();
        assert_eq!(order, vec![(1, "a"), (2, "d"), (1, "b"), (1, "c")]);
    }

    #[test]
    fn queue_bounds_admissions_and_frees_slots_on_finish() {
        let q: JobQueue<u32> = JobQueue::new(2);
        assert_eq!(q.submit(1, 10), Ok(1));
        assert_eq!(q.submit(1, 11), Ok(2));
        assert_eq!(
            q.submit(2, 12),
            Err(SubmitRejection::Busy { admitted: 2, bound: 2 })
        );
        // Popping alone does not free the slot — the job is running.
        let job = q.next().expect("job queued");
        assert_eq!(job.payload, 10);
        assert_eq!(
            q.submit(2, 12),
            Err(SubmitRejection::Busy { admitted: 2, bound: 2 })
        );
        q.finish();
        assert_eq!(q.submit(2, 12), Ok(3));
        assert_eq!(q.admitted(), 2);
    }

    #[test]
    fn queue_drains_on_shutdown_and_refuses_new_work() {
        let q: JobQueue<&str> = JobQueue::new(4);
        q.submit(1, "before").unwrap();
        q.shutdown();
        assert_eq!(q.submit(1, "after"), Err(SubmitRejection::Draining));
        // The already-admitted job still comes out, then None.
        assert_eq!(q.next().map(|j| j.payload), Some("before"));
        assert!(q.next().is_none());
    }

    #[test]
    fn queue_next_blocks_until_work_arrives() {
        let q: Arc<JobQueue<&str>> = Arc::new(JobQueue::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next().map(|j| j.payload))
        };
        std::thread::sleep(Duration::from_millis(30));
        q.submit(9, "late").unwrap();
        assert_eq!(waiter.join().expect("waiter"), Some("late"));
    }

    #[test]
    fn claim_socket_path_distinguishes_live_stale_and_foreign() {
        let dir = std::env::temp_dir().join(format!("dise-claim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Absent path: claimable.
        let fresh = dir.join("fresh.sock");
        assert_eq!(claim_socket_path(&fresh), Ok(()));

        // Live listener: refused, and the socket is left alone.
        let live = dir.join("live.sock");
        let listener = std::os::unix::net::UnixListener::bind(&live).unwrap();
        let err = claim_socket_path(&live).unwrap_err();
        assert!(err.contains("already listening"), "actionable: {err}");
        assert!(live.exists(), "a live socket must not be unlinked");
        drop(listener);

        // Stale socket (listener gone, file remains): reclaimed.
        assert_eq!(claim_socket_path(&live), Ok(()));
        assert!(!live.exists(), "stale socket should be unlinked");

        // A regular file is never removed.
        let file = dir.join("not-a-socket");
        std::fs::write(&file, "hello").unwrap();
        let err = claim_socket_path(&file).unwrap_err();
        assert!(err.contains("not a socket"), "actionable: {err}");
        assert!(file.exists(), "foreign files must not be unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn long_heartbeat_period_does_not_stall_job_completion() {
        // Regression for the heartbeat join: with the old
        // `thread::sleep`, a 60 s period stalled `run_job`'s return by up
        // to a full minute after the cells finished. The condvar wait is
        // interrupted by completion, so the whole job — simulation
        // included — finishes promptly.
        let s = sweep();
        let job = parse_job(&s, "baseline gzip").unwrap();
        let session = Arc::new(Session::new(
            Arc::new(dise_obs::MemSink::new()) as Arc<dyn dise_obs::Sink>,
            "hb-test",
        ));
        let stats = StatsLog::default();
        let start = std::time::Instant::now();
        run_job(&s, &session, &job, 60_000, &stats);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "run_job stalled {:?} — heartbeat join must be interruptible",
            start.elapsed()
        );
    }
}
