//! `dise_serve` — the daemonized sweep service (ISSUE 5 tentpole,
//! reworked into a concurrent multi-tenant job-queue service in ISSUE 8).
//!
//! Accepts cell jobs (see `dise_bench::serve` for the job grammar and
//! the response protocol) from many concurrent clients: one reader
//! thread per connection feeds a bounded [`JobQueue`] with per-client
//! round-robin fairness, a single scheduler thread dispatches queued
//! jobs to the shared harness pool, and each job's responses —
//! `queued <id>`, heartbeat-paced `progress <id> done/total`, and a
//! final `ok`/`error:` line — stream back on the submitting client's
//! connection. Submissions over the admission bound are refused with an
//! explicit `busy:` line. A client that disconnects mid-job does not
//! perturb the job: it finishes, ships its records, and populates the
//! cell cache; the writer notices the dead peer and discards.
//!
//! Live introspection (ISSUE 10): a `stats` line on any connection is
//! answered on that client's reader thread with a one-line JSON
//! snapshot — queue depth, per-client backlogs, the running job and its
//! progress, uptime, cumulative/rejected counters, and per-tenant
//! latency histograms — without touching the scheduler. Each finished
//! job additionally gets a timed final progress line
//! (`progress <id> <n>/<n> wait=<w>ms run=<r>ms`) splitting its latency
//! into queue wait and run time; `--submit` echoes that split as a
//! `# job <id>: ...` summary.
//!
//! Observability: per-cell heartbeats and completion events, per-cell
//! stats as `metrics` records — all tagged with the job's `id` — plus
//! anomaly reports through the installed sink, and a phase-profile
//! snapshot between jobs. A job's predecode tables die with its program
//! images, so a long-lived service does not grow monotonically.
//!
//! Modes:
//!
//! ```text
//! dise_serve --socket PATH [--checkpoint-dir DIR] [--obs-dir DIR] [--heartbeat-ms N] [--queue N] [--stats-json PATH]
//! dise_serve --oneshot JOBFILE [--obs-dir DIR] [--heartbeat-ms N] [--stats-json PATH]
//! dise_serve --submit PATH JOB...
//! ```
//!
//! Socket mode binds a Unix socket (refusing to clobber a live daemon's
//! socket — only a *stale* socket file is reclaimed) and serves
//! newline-delimited jobs; `shutdown` drains the queue and stops the
//! daemon. Oneshot mode replays a job file serially and exits (the
//! conformance tests and CI use it). Submit mode is the matching
//! protocol-aware client: it exits non-zero if any submitted job was
//! rejected or failed, even when a `shutdown` follows.
//!
//! `--checkpoint-dir DIR` makes the daemon crash-safe (ISSUE 9): each
//! admitted job is journaled under `DIR/jobs/<id>.job` until its final
//! ships, long cells periodically persist simulator snapshots under
//! `DIR` (period from `DISE_SNAPSHOT=every:<n>`, default one
//! heartbeat-scale slice — see `dise_bench::checkpoint`), and every
//! persisted checkpoint is narrated to the submitting client as a
//! `checkpoint <id>` line. A restarted daemon re-admits the journaled
//! jobs under their original ids, resumes their cells from the on-disk
//! snapshots, and tells every connecting client `resumed <id>`; the
//! bit-identical-resume contract (`tests/snapshot_resume.rs`) makes the
//! kill/restart cycle invisible in the exported stats
//! (`tests/serve_restart.rs`).
//!
//! The sweep configuration comes from the usual harness environment
//! (`DISE_BENCH_DYN`, `DISE_BENCH_FILTER`, `DISE_BENCH_JOBS`,
//! `DISE_BENCH_CACHE`); the sink comes from `--obs-dir` (rotating JSONL
//! files) or `DISE_OBS_SINK` (`jsonl:<dir>` or `uds:<path>`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dise_bench::serve::{
    busy_line, checkpoint_line, claim_socket_path, draining_line, job_ok_line, parse_heartbeat_ms,
    parse_job, parse_queue_bound, progress_line, progress_line_timed, queued_line, rejected_line,
    resumed_line, run_job_tagged, Job, JobJournal, JobQueue, ServeStats, ServerLine, StatsLog,
    SubmitRejection, DEFAULT_QUEUE_BOUND, SHUTDOWN_ACK,
};
use dise_bench::{checkpoint, stats_json_doc, write_stats_json, Sweep};
use dise_obs::{JsonlFileSink, Session, Sink};

/// Default heartbeat period while a job is in flight.
const DEFAULT_HEARTBEAT_MS: u64 = 250;

struct Opts {
    socket: Option<PathBuf>,
    oneshot: Option<PathBuf>,
    submit: Option<(PathBuf, Vec<String>)>,
    obs_dir: Option<PathBuf>,
    heartbeat_ms: u64,
    queue_bound: usize,
    stats_out: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dise_serve --socket PATH | --oneshot JOBFILE | --submit PATH JOB...\n\
         \x20      [--obs-dir DIR] [--heartbeat-ms N] [--queue N] [--stats-json PATH]\n\
         \x20      [--checkpoint-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stats_out = dise_bench::parse_telemetry_args(&mut args);
    let mut opts = Opts {
        socket: None,
        oneshot: None,
        submit: None,
        obs_dir: None,
        heartbeat_ms: DEFAULT_HEARTBEAT_MS,
        queue_bound: DEFAULT_QUEUE_BOUND,
        stats_out,
        checkpoint_dir: None,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{flag} wants a value");
            usage()
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => opts.socket = Some(PathBuf::from(value(&args, &mut i, "--socket"))),
            "--oneshot" => opts.oneshot = Some(PathBuf::from(value(&args, &mut i, "--oneshot"))),
            "--obs-dir" => opts.obs_dir = Some(PathBuf::from(value(&args, &mut i, "--obs-dir"))),
            "--checkpoint-dir" => {
                opts.checkpoint_dir =
                    Some(PathBuf::from(value(&args, &mut i, "--checkpoint-dir")));
            }
            "--heartbeat-ms" => {
                let v = value(&args, &mut i, "--heartbeat-ms");
                opts.heartbeat_ms = parse_heartbeat_ms(&v).unwrap_or_else(|why| {
                    eprintln!("{why}");
                    usage()
                });
            }
            "--queue" => {
                let v = value(&args, &mut i, "--queue");
                opts.queue_bound = parse_queue_bound(&v).unwrap_or_else(|why| {
                    eprintln!("{why}");
                    usage()
                });
            }
            "--submit" => {
                let sock = PathBuf::from(value(&args, &mut i, "--submit"));
                let jobs: Vec<String> = args[i + 1..].to_vec();
                if jobs.is_empty() {
                    eprintln!("--submit wants a socket path and at least one job");
                    usage();
                }
                opts.submit = Some((sock, jobs));
                i = args.len();
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
    if [
        opts.socket.is_some(),
        opts.oneshot.is_some(),
        opts.submit.is_some(),
    ]
    .iter()
    .filter(|&&x| x)
    .count()
        != 1
    {
        eprintln!("exactly one of --socket, --oneshot, --submit is required");
        usage();
    }
    opts
}

/// The session every record ships through: `--obs-dir` wins, then a sink
/// already installed from `DISE_OBS_SINK`, then rotating JSONL files
/// under `results/obs`.
fn session_for(opts: &Opts) -> Arc<Session> {
    if let Some(dir) = &opts.obs_dir {
        let sink = JsonlFileSink::create(dir).unwrap_or_else(|e| {
            eprintln!("cannot open --obs-dir {}: {e}", dir.display());
            std::process::exit(1);
        });
        let session = Arc::new(Session::with_generated_id(Arc::new(sink) as Arc<dyn Sink>));
        dise_obs::install(Arc::clone(&session));
        return session;
    }
    if let Some(session) = dise_obs::global() {
        return session;
    }
    let dir = PathBuf::from("results/obs");
    let sink = JsonlFileSink::create(&dir).unwrap_or_else(|e| {
        eprintln!("cannot open default obs dir {}: {e}", dir.display());
        std::process::exit(1);
    });
    let session = Arc::new(Session::with_generated_id(Arc::new(sink) as Arc<dyn Sink>));
    dise_obs::install(Arc::clone(&session));
    session
}

/// The write half of one client connection. Response lines from the
/// reader thread (`queued`/`busy:`/`error:`) and the scheduler
/// (`progress`/finals) interleave under the mutex; once a write fails
/// the peer is considered dead and every further line is discarded —
/// the job itself is never disturbed.
struct ClientConn {
    stream: Mutex<Option<UnixStream>>,
}

impl ClientConn {
    fn new(stream: UnixStream) -> ClientConn {
        ClientConn {
            stream: Mutex::new(Some(stream)),
        }
    }

    /// A connection with no peer: response lines for a journaled job
    /// re-admitted after a restart (its original client is long gone)
    /// are discarded, exactly like a disconnected client's.
    fn discard() -> ClientConn {
        ClientConn {
            stream: Mutex::new(None),
        }
    }

    fn send(&self, line: &str) {
        let mut slot = self.stream.lock().expect("client writer lock");
        if let Some(s) = slot.as_mut() {
            if writeln!(s, "{line}").is_err() {
                *slot = None; // dead peer: discard from here on
            }
        }
    }
}

/// State shared by the reader threads and the scheduler.
struct Daemon {
    sweep: Sweep,
    session: Arc<Session>,
    heartbeat_ms: u64,
    stats: StatsLog,
    /// Live fleet introspection behind the `stats` protocol command:
    /// counters and per-tenant latency histograms updated from the
    /// scheduler, heartbeat and pool threads, snapshotted on the asking
    /// client's reader thread so the answer never delays the scheduler.
    live: ServeStats,
    /// Queue payload: the parsed job, the submitting client's reply
    /// handle, and the admission instant (queue-wait = pop − admission).
    queue: JobQueue<(Job, Arc<ClientConn>, Instant)>,
    /// The in-flight job journal (`--checkpoint-dir` only): admitted
    /// jobs are journaled until their final ships, so a killed daemon's
    /// work survives a restart.
    journal: Option<JobJournal>,
    /// Journaled jobs re-admitted at startup and not yet finished; every
    /// connecting client is told `resumed <id>` for each.
    resumed: Mutex<Vec<u64>>,
}

impl Daemon {
    /// Between jobs the service exports the accumulated wall-clock phase
    /// profile (never part of per-cell stats — see DESIGN §11).
    fn after_job(&self) {
        let profile = dise_obs::profile::snapshot();
        if !profile.is_empty() {
            self.session.metrics("harness.profile", &profile);
        }
    }

    fn stats_json(&self) -> String {
        let log = self.stats.lock().expect("serve stats log");
        let entries: Vec<(String, Vec<(String, f64)>)> =
            log.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        stats_json_doc(&entries)
    }
}

/// One connection's reader loop: parse each line, admit it to the queue
/// (streaming the `queued`/`busy:`/`error:` acknowledgment), and flip
/// the queue into draining on `shutdown`. The connection stays open
/// after `shutdown` so finals for still-running jobs can stream.
fn serve_client(daemon: &Daemon, client: u64, stream: UnixStream) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("clone stream: {e}");
            return;
        }
    };
    let conn = Arc::new(ClientConn::new(writer));
    // A restarted daemon announces the journaled jobs it re-admitted, so
    // an operator reconnecting after a crash knows their work survived.
    for id in daemon.resumed.lock().expect("resumed list").iter() {
        conn.send(&resumed_line(*id));
    }
    for line in BufReader::new(stream).lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "shutdown" {
            // Ack before flipping the queue: once the queue drains, the
            // scheduler exits the process, and an ack queued behind the
            // drain could lose that race and never reach the client.
            conn.send(SHUTDOWN_ACK);
            daemon.queue.shutdown();
            continue;
        }
        if trimmed == "stats" {
            // Answered right here on the reader thread: the scheduler is
            // never interrupted, and a running job's heartbeats keep
            // their cadence while the snapshot is assembled.
            conn.send(&daemon.live.stats_line(
                daemon.queue.admitted(),
                daemon.queue.bound(),
                &daemon.queue.backlog_depths(),
            ));
            continue;
        }
        match parse_job(&daemon.sweep, trimmed) {
            Err(why) => conn.send(&rejected_line(&why)),
            Ok(job) => {
                let name = job.name.clone();
                match daemon
                    .queue
                    .submit(client, (job, Arc::clone(&conn), Instant::now()))
                {
                    Ok(id) => {
                        if let Some(journal) = &daemon.journal {
                            journal.record(id, &name);
                        }
                        conn.send(&queued_line(id));
                    }
                    Err(SubmitRejection::Busy { admitted, bound }) => {
                        daemon.live.rejection();
                        conn.send(&busy_line(admitted, bound))
                    }
                    Err(SubmitRejection::Draining) => {
                        daemon.live.rejection();
                        conn.send(&draining_line())
                    }
                }
            }
        }
    }
    // EOF: the client went away. Its admitted jobs stay queued and still
    // run to completion — results land in the stats log and cell cache,
    // and the dead ClientConn swallows the response lines.
}

fn serve_socket(daemon: &Arc<Daemon>, path: &PathBuf) {
    if let Err(why) = claim_socket_path(path) {
        eprintln!("{why}");
        std::process::exit(1);
    }
    let listener = UnixListener::bind(path).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", path.display());
        std::process::exit(1);
    });
    eprintln!(
        "dise_serve listening on {} (queue bound {})",
        path.display(),
        daemon.queue.bound()
    );
    daemon.session.event("-", "serve_start", None, &[]);

    // Resume-on-restart: re-admit every journaled job under its
    // original id. Its cells resume from their checkpoint files; the
    // final response goes nowhere (the original client is gone), but
    // stats land in the log and the cell cache exactly as if the first
    // daemon had finished.
    if let Some(journal) = &daemon.journal {
        for (id, line) in journal.scan() {
            match parse_job(&daemon.sweep, &line) {
                Ok(job) => {
                    eprintln!("resuming journaled job {id}: {line}");
                    daemon
                        .session
                        .event_tagged(Some(id), "-", "job_resume", Some(&line), &[]);
                    daemon.queue.restore(
                        0,
                        id,
                        (job, Arc::new(ClientConn::discard()), Instant::now()),
                    );
                    daemon.resumed.lock().expect("resumed list").push(id);
                }
                Err(why) => {
                    eprintln!("dropping unparseable journaled job {id} ({line:?}): {why}");
                    journal.complete(id);
                }
            }
        }
    }

    // Accept loop: one detached reader thread per connection. The thread
    // dies with the process once the scheduler drains after shutdown.
    {
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            let mut next_client = 1u64;
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("accept failed: {e}");
                        continue;
                    }
                };
                let client = next_client;
                next_client += 1;
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || serve_client(&daemon, client, stream));
            }
        });
    }

    // Scheduler: one job at a time through the shared pool (cells fan
    // out inside the job), per-client round-robin over the backlog.
    while let Some(queued) = daemon.queue.next() {
        let (job, conn, submitted) = queued.payload;
        let cells = job.cells.len();
        let wait_ms = submitted.elapsed().as_millis() as u64;
        daemon
            .live
            .job_started(queued.id, queued.client, &job.name, cells as u64, wait_ms);
        let progress = |done: u64, total: u64| conn.send(&progress_line(queued.id, done, total));
        // While this job runs, every checkpoint its cells persist is
        // narrated to the submitting client as `checkpoint <id>`.
        if daemon.journal.is_some() {
            let conn = Arc::clone(&conn);
            let id = queued.id;
            checkpoint::set_notifier(Some(Arc::new(move |_key, _insts| {
                conn.send(&checkpoint_line(id));
            })));
        }
        let started = Instant::now();
        run_job_tagged(
            &daemon.sweep,
            &daemon.session,
            &job,
            daemon.heartbeat_ms,
            &daemon.stats,
            Some(queued.id),
            &progress,
            Some((&daemon.live, queued.client)),
        );
        let run_ms = started.elapsed().as_millis() as u64;
        checkpoint::set_notifier(None);
        daemon.live.job_finished(queued.client);
        daemon.after_job();
        // The timed final progress line tells the client how the job's
        // latency split between queueing and running before the ok.
        conn.send(&progress_line_timed(
            queued.id,
            cells as u64,
            cells as u64,
            wait_ms,
            run_ms,
        ));
        conn.send(&job_ok_line(queued.id, &job.name, cells));
        if let Some(journal) = &daemon.journal {
            journal.complete(queued.id);
        }
        daemon.resumed.lock().expect("resumed list").retain(|&id| id != queued.id);
        daemon.queue.finish();
    }

    daemon.session.event("-", "serve_stop", None, &[]);
    daemon.session.sink().flush();
    let _ = std::fs::remove_file(path);
}

fn run_oneshot(daemon: &Daemon, jobfile: &PathBuf) {
    let text = std::fs::read_to_string(jobfile).unwrap_or_else(|e| {
        eprintln!("cannot read job file {}: {e}", jobfile.display());
        std::process::exit(1);
    });
    let mut next_id = 1u64;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_job(&daemon.sweep, trimmed) {
            Ok(job) => {
                let id = next_id;
                next_id += 1;
                run_job_tagged(
                    &daemon.sweep,
                    &daemon.session,
                    &job,
                    daemon.heartbeat_ms,
                    &daemon.stats,
                    Some(id),
                    &|_, _| {},
                    None,
                );
                daemon.after_job();
                println!("ok {} ({} cells)", job.name, job.cells.len());
            }
            Err(why) => {
                eprintln!("error: {why}");
                // Flush before exiting: records queued behind a JSONL or
                // UDS sink for the jobs that *did* run would otherwise be
                // silently dropped by the exit.
                daemon.session.sink().flush();
                std::process::exit(1);
            }
        }
    }
    daemon.session.sink().flush();
}

/// The protocol-aware submit client: sends every job, then follows the
/// multiplexed response stream until each submitted job has both its
/// acknowledgment (`queued`/`busy:`/`error:`) and — if admitted — its
/// final (`ok <id>`/`error: <id>`), plus the `shutdown` ack when one was
/// sent. Exits non-zero if anything was rejected or failed.
fn submit(sock: &PathBuf, jobs: &[String]) -> i32 {
    let stream = UnixStream::connect(sock).unwrap_or_else(|e| {
        eprintln!("cannot connect to {}: {e}", sock.display());
        std::process::exit(1);
    });
    let mut writer = stream.try_clone().expect("clone stream");
    let reader = BufReader::new(stream);

    let mut expected_acks = 0usize;
    let mut shutdown_sent = false;
    for job in jobs {
        writeln!(writer, "{}", job.trim()).expect("send job");
        if job.trim() == "shutdown" {
            shutdown_sent = true;
        } else {
            // Plain jobs are acknowledged with `queued`/`busy:`/`error:`;
            // a `stats` probe with its one-line JSON snapshot.
            expected_acks += 1;
        }
    }

    let mut acks = 0usize;
    let mut outstanding = 0i64; // admitted jobs awaiting their final
    let mut failed = false;
    let mut shutdown_acked = !shutdown_sent;
    // Queue-wait/run split per job, from the timed final progress line;
    // surfaced as a `# job <id>: ...` summary next to the job's ok.
    let mut timings: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut lines = reader.lines();
    while acks < expected_acks || outstanding > 0 || !shutdown_acked {
        let Some(line) = lines.next() else {
            eprintln!("server closed the connection with work outstanding");
            return 1;
        };
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("read response: {e}");
                return 1;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        println!("{line}");
        match ServerLine::parse(&line) {
            ServerLine::Queued { .. } => {
                acks += 1;
                outstanding += 1;
            }
            ServerLine::Busy | ServerLine::Rejected => {
                acks += 1;
                failed = true;
            }
            ServerLine::JobOk { id } => {
                outstanding -= 1;
                if let Some((wait_ms, run_ms)) = timings.get(&id) {
                    println!("# job {id}: queue-wait {wait_ms} ms, run {run_ms} ms");
                }
            }
            ServerLine::JobError { .. } => {
                outstanding -= 1;
                failed = true;
            }
            ServerLine::ShutdownAck => shutdown_acked = true,
            ServerLine::Stats => acks += 1,
            ServerLine::Progress {
                id,
                wait_ms: Some(wait_ms),
                run_ms: Some(run_ms),
                ..
            } => {
                timings.insert(id, (wait_ms, run_ms));
            }
            ServerLine::Progress { .. }
            | ServerLine::Checkpoint { .. }
            | ServerLine::Resumed { .. }
            | ServerLine::Other => {}
        }
    }
    i32::from(failed)
}

fn main() {
    let opts = parse_opts();
    if let Some((sock, jobs)) = &opts.submit {
        std::process::exit(submit(sock, jobs));
    }
    if let Some(dir) = &opts.checkpoint_dir {
        // Arm cell checkpointing under the journal's directory. The
        // period comes from DISE_SNAPSHOT when set; the default is one
        // heartbeat-scale slice.
        checkpoint::install(
            dir,
            dise_sim::snapshot_env().unwrap_or(checkpoint::DEFAULT_EVERY),
        );
    }
    let daemon = Arc::new(Daemon {
        sweep: Sweep::from_env().unwrap_or_else(|why| {
            eprintln!("{why}");
            std::process::exit(2);
        }),
        session: session_for(&opts),
        heartbeat_ms: opts.heartbeat_ms,
        stats: StatsLog::default(),
        live: ServeStats::new(),
        queue: JobQueue::new(opts.queue_bound),
        journal: opts
            .checkpoint_dir
            .as_deref()
            .map(JobJournal::in_checkpoint_dir),
        resumed: Mutex::new(Vec::new()),
    });
    if let Some(jobfile) = &opts.oneshot {
        run_oneshot(&daemon, jobfile);
    } else if let Some(sock) = &opts.socket {
        serve_socket(&daemon, sock);
    }
    if let Some(path) = &opts.stats_out {
        if let Err(why) = write_stats_json(path, &daemon.stats_json()) {
            eprintln!("{why}");
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}
