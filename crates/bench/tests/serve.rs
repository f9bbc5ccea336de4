//! `dise_serve` conformance (ISSUE 5, extended for the multi-tenant
//! service in ISSUE 8): the oneshot smoke job replays a Figure-6 smoke
//! cell with byte-stable metrics JSONL, the service's `--stats-json`
//! export matches an in-process direct run of the same cells
//! byte-for-byte, concurrent clients get correctly demultiplexed
//! response streams, and the daemon survives disconnects, refuses to
//! clobber a live socket, and applies `busy:` backpressure at the
//! configured queue bound.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use dise_bench::cache::CellCache;
use dise_bench::serve::{parse_job, run_job};
use dise_bench::{Pool, Sweep};
use dise_obs::{MemSink, Session, Sink};
use dise_workloads::Benchmark;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dise-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs `dise_serve --oneshot` with a small budget and no cache, fully
/// isolated from the developer's environment.
fn oneshot(jobfile: &Path, obs_dir: &Path, stats_json: Option<&Path>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dise_serve"));
    cmd.arg("--oneshot")
        .arg(jobfile)
        .arg("--obs-dir")
        .arg(obs_dir)
        .arg("--heartbeat-ms")
        .arg("50")
        .env("DISE_BENCH_DYN", "20000")
        .env("DISE_BENCH_JOBS", "1")
        .env("DISE_BENCH_CACHE", "off")
        .env_remove("DISE_OBS_SINK")
        .env_remove("DISE_BENCH_FILTER");
    if let Some(p) = stats_json {
        cmd.arg("--stats-json").arg(p);
    }
    cmd.output().expect("run dise_serve")
}

fn obs_lines(dir: &Path) -> Vec<String> {
    let mut lines = Vec::new();
    // Rotated files (oldest first), then the active file.
    for f in dise_obs::JsonlFileSink::rotated_in(dir) {
        lines.extend(
            std::fs::read_to_string(f)
                .unwrap()
                .lines()
                .map(str::to_string),
        );
    }
    lines.extend(
        std::fs::read_to_string(dir.join(dise_obs::ACTIVE_FILE))
            .unwrap_or_default()
            .lines()
            .map(str::to_string),
    );
    lines
}

/// Strips the per-run fields so two runs' records can be compared
/// byte-for-byte: the `"run"` id, and the `"seq"` stream position —
/// heartbeats (and span drops) from concurrent threads shift the shared
/// sequence counter by wall-clock-dependent amounts.
fn strip_run_id(line: &str) -> String {
    let line = match (line.find("\"run\":\""), line) {
        (Some(start), l) => {
            let rest = &l[start + 8..];
            let end = rest.find('"').expect("run id closes") + start + 8;
            format!("{}{}", &l[..start + 8], &l[end..])
        }
        (None, l) => l.to_string(),
    };
    match line.find("\"seq\":") {
        Some(start) => {
            let rest = &line[start + 6..];
            let end = rest
                .find([',', '}'])
                .map(|e| start + 6 + e)
                .expect("seq value closes");
            format!("{}{}", &line[..start + 6], &line[end..])
        }
        None => line,
    }
}

#[test]
fn oneshot_smoke_replays_a_fig6_cell_with_byte_stable_metrics() {
    let dir = tmpdir("oneshot");
    let jobfile = dir.join("jobs.txt");
    std::fs::write(&jobfile, "# smoke job\nbaseline gzip\n").unwrap();

    let run = |tag: &str| -> (Vec<String>, String) {
        let obs = dir.join(tag);
        let out = oneshot(&jobfile, &obs, None);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (obs_lines(&obs), stdout)
    };
    let (first, stdout) = run("a");
    let (second, _) = run("b");
    assert!(stdout.contains("ok baseline gzip (1 cells)"), "{stdout}");

    // The narration arrived: at least one heartbeat, the cell lifecycle,
    // the job bracketing, the metrics snapshot.
    for needle in [
        "\"name\":\"heartbeat\"",
        "\"name\":\"cell_start\"",
        "\"name\":\"cell_done\"",
        "\"name\":\"job_start\"",
        "\"name\":\"job_done\"",
        "\"kind\":\"metrics\"",
        "\"cell\":\"harness.profile\"",
    ] {
        assert!(
            first.iter().any(|l| l.contains(needle)),
            "missing {needle} in {first:#?}"
        );
    }

    // Sequence numbers are monotonic within the file.
    let seqs: Vec<u64> = first
        .iter()
        .filter_map(|l| l.split("\"seq\":").nth(1))
        .filter_map(|r| r.split([',', '}']).next())
        .filter_map(|s| s.parse().ok())
        .collect();
    assert!(!seqs.is_empty());
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "monotonic: {seqs:?}");

    // The metrics records — the simulation payload — are byte-stable
    // across runs once the run id is stripped. (Events interleave with
    // the heartbeat thread, so only the metrics stream is compared; the
    // `harness.profile` snapshot is wall-clock and excluded.)
    let metrics = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"metrics\""))
            .filter(|l| !l.contains("\"cell\":\"harness.profile\""))
            .map(|l| strip_run_id(l))
            .collect()
    };
    let (m1, m2) = (metrics(&first), metrics(&second));
    assert!(!m1.is_empty());
    assert_eq!(m1, m2, "metrics records must be byte-stable across runs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oneshot_stats_json_matches_an_in_process_direct_run() {
    let dir = tmpdir("statsjson");
    let jobfile = dir.join("jobs.txt");
    std::fs::write(&jobfile, "fig6_top gzip\n").unwrap();
    let stats_path = dir.join("served.json");
    let out = oneshot(&jobfile, &dir.join("obs"), Some(&stats_path));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served = std::fs::read_to_string(&stats_path).unwrap();

    // The same cells run directly in-process (same budget, no cache)
    // must produce the identical export: the service adds narration, not
    // different simulation results.
    let sweep = Sweep::new(20_000, vec![Benchmark::Gzip], Pool::new(1), CellCache::disabled());
    let session = Arc::new(Session::new(
        Arc::new(MemSink::new()) as Arc<dyn Sink>,
        "direct",
    ));
    let job = parse_job(&sweep, "fig6_top gzip").unwrap();
    let stats = Mutex::new(std::collections::BTreeMap::new());
    run_job(&sweep, &session, &job, 1_000, &stats);
    let entries: Vec<(String, Vec<(String, f64)>)> = stats
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let direct = dise_bench::stats_json_doc(&entries);
    assert_eq!(served, direct, "service stats-JSON must match a direct run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_stats_json_fails_with_an_actionable_error() {
    let dir = tmpdir("unwritable");
    let jobfile = dir.join("jobs.txt");
    std::fs::write(&jobfile, "baseline gzip\n").unwrap();
    // The target is a directory: the export cannot be written, and the
    // binary must name the path instead of panicking.
    let target = dir.join("taken");
    std::fs::create_dir_all(&target).unwrap();
    let out = oneshot(&jobfile, &dir.join("obs"), Some(&target));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--stats-json") && stderr.contains(&target.display().to_string()),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oneshot_rejects_a_bad_job_with_an_actionable_error() {
    let dir = tmpdir("badjob");
    let jobfile = dir.join("jobs.txt");
    std::fs::write(&jobfile, "frobnicate gzip\n").unwrap();
    let out = oneshot(&jobfile, &dir.join("obs"), None);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown job kind"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The multi-tenant service (ISSUE 8)

/// Spawns the daemon on `socket` with the standard isolated environment
/// (small budget, one pool job, no cache, no inherited sink).
fn daemon(
    socket: &Path,
    obs: &Path,
    stats_json: Option<&Path>,
    queue_bound: Option<usize>,
) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dise_serve"));
    cmd.arg("--socket")
        .arg(socket)
        .arg("--obs-dir")
        .arg(obs)
        .arg("--heartbeat-ms")
        .arg("50")
        .env("DISE_BENCH_DYN", "20000")
        .env("DISE_BENCH_JOBS", "1")
        .env("DISE_BENCH_CACHE", "off")
        .env_remove("DISE_OBS_SINK")
        .env_remove("DISE_BENCH_FILTER")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(p) = stats_json {
        cmd.arg("--stats-json").arg(p);
    }
    if let Some(q) = queue_bound {
        cmd.arg("--queue").arg(q.to_string());
    }
    cmd.spawn().expect("spawn dise_serve daemon")
}

/// Waits for the daemon to accept connections (bind happens right after
/// startup, so this is quick — the bound is generous for slow CI). A
/// bare existence check is not enough: a *stale* socket file can linger
/// at the path before the daemon reclaims and rebinds it.
fn await_socket(path: &Path) {
    for _ in 0..600 {
        if std::os::unix::net::UnixStream::connect(path).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon socket {} never came up", path.display());
}

/// Runs the protocol-aware submit client against a live daemon.
fn submit(socket: &Path, jobs: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dise_serve"));
    cmd.arg("--submit").arg(socket);
    for j in jobs {
        cmd.arg(j);
    }
    cmd.output().expect("run submit client")
}

fn drain_daemon(child: Child) -> std::process::Output {
    let out = child.wait_with_output().expect("wait for daemon");
    assert!(
        out.status.success(),
        "daemon exited non-zero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn heartbeat_and_queue_flags_reject_zero_at_parse_time() {
    // `--heartbeat-ms 0` parses as a u64 but contradicts the flag's
    // contract; it must be rejected before any work starts, not papered
    // over with `.max(1)`.
    let out = Command::new(env!("CARGO_BIN_EXE_dise_serve"))
        .args(["--oneshot", "/dev/null", "--heartbeat-ms", "0"])
        .output()
        .expect("run dise_serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--heartbeat-ms must be at least 1"),
        "stderr: {stderr}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_dise_serve"))
        .args(["--oneshot", "/dev/null", "--queue", "0"])
        .output()
        .expect("run dise_serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--queue must be at least 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_live_daemon_socket_is_never_clobbered() {
    let dir = tmpdir("livesock");
    let sock = dir.join("serve.sock");
    let first = daemon(&sock, &dir.join("obs-a"), None, None);
    await_socket(&sock);

    // A second daemon pointed at the same path must refuse to bind —
    // before the fix it silently removed the live daemon's socket.
    let second = Command::new(env!("CARGO_BIN_EXE_dise_serve"))
        .arg("--socket")
        .arg(&sock)
        .arg("--obs-dir")
        .arg(dir.join("obs-b"))
        .output()
        .expect("run second daemon");
    assert_eq!(second.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("already listening"), "stderr: {stderr}");

    // The first daemon is unharmed and still serves jobs.
    let client = submit(&sock, &["baseline gzip", "shutdown"]);
    assert!(
        client.status.success(),
        "client: {}",
        String::from_utf8_lossy(&client.stderr)
    );
    drain_daemon(first);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_socket_is_reclaimed_but_a_foreign_file_is_not() {
    let dir = tmpdir("stalesock");
    let sock = dir.join("serve.sock");

    // A regular file at the socket path is someone else's data: the
    // daemon must refuse and leave it alone.
    std::fs::write(&sock, "precious").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dise_serve"))
        .arg("--socket")
        .arg(&sock)
        .arg("--obs-dir")
        .arg(dir.join("obs-x"))
        .output()
        .expect("run daemon against foreign file");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a socket"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read_to_string(&sock).unwrap(), "precious");
    std::fs::remove_file(&sock).unwrap();

    // A socket file whose daemon died (connect refused) is stale and is
    // reclaimed transparently.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "stale socket file should linger");
    let child = daemon(&sock, &dir.join("obs"), None, None);
    await_socket(&sock);
    let client = submit(&sock, &["baseline gzip", "shutdown"]);
    assert!(
        client.status.success(),
        "client: {}",
        String::from_utf8_lossy(&client.stderr)
    );
    drain_daemon(child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_propagates_a_failure_even_when_shutdown_follows() {
    let dir = tmpdir("failexit");
    let sock = dir.join("serve.sock");
    let child = daemon(&sock, &dir.join("obs"), None, None);
    await_socket(&sock);

    // Before the fix the shutdown ack's early return swallowed the
    // failed job's exit status and the client exited 0.
    let client = submit(&sock, &["baseline nosuch", "shutdown"]);
    assert_eq!(client.status.code(), Some(1), "rejection must exit 1");
    let stdout = String::from_utf8_lossy(&client.stdout);
    assert!(stdout.contains("error: unknown benchmark"), "{stdout}");
    assert!(stdout.contains("ok shutting down"), "{stdout}");
    drain_daemon(child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oneshot_flushes_queued_records_when_a_job_fails() {
    let dir = tmpdir("flusherr");
    let uds = dir.join("obs.sock");
    let listener = std::os::unix::net::UnixListener::bind(&uds).unwrap();
    // Collect everything the harness ships over the UDS sink; EOF when
    // the oneshot process exits.
    let collector = std::thread::spawn(move || -> Vec<String> {
        let (stream, _) = listener.accept().expect("sink connection");
        BufReader::new(stream).lines().map_while(Result::ok).collect()
    });

    let jobfile = dir.join("jobs.txt");
    std::fs::write(&jobfile, "baseline gzip\nbaseline nosuch\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dise_serve"))
        .arg("--oneshot")
        .arg(&jobfile)
        .arg("--heartbeat-ms")
        .arg("50")
        .env("DISE_BENCH_DYN", "20000")
        .env("DISE_BENCH_JOBS", "1")
        .env("DISE_BENCH_CACHE", "off")
        .env("DISE_OBS_SINK", format!("uds:{}", uds.display()))
        .env_remove("DISE_BENCH_FILTER")
        .output()
        .expect("run dise_serve");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The first job ran to completion before the second failed; its
    // records must reach the sink even on the error exit path — before
    // the fix, exit(1) fired ahead of the flush and the UDS shipper
    // queue was dropped on the floor.
    let lines = collector.join().expect("collector thread");
    for needle in ["\"name\":\"job_start\"", "\"name\":\"job_done\"", "\"kind\":\"metrics\""] {
        assert!(
            lines.iter().any(|l| l.contains(needle)),
            "missing {needle} in flushed records: {lines:#?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_get_demultiplexed_streams_and_serial_identical_stats() {
    let dir = tmpdir("concurrent");
    let sock = dir.join("serve.sock");
    let stats_path = dir.join("served.json");
    let child = daemon(&sock, &dir.join("obs"), Some(&stats_path), None);
    await_socket(&sock);

    // Two clients, each a full Figure-6-top column on a different
    // benchmark, submitted concurrently.
    let spawn_client = |job: &str| -> Child {
        Command::new(env!("CARGO_BIN_EXE_dise_serve"))
            .arg("--submit")
            .arg(&sock)
            .arg(job)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn submit client")
    };
    let a = spawn_client("fig6_top gzip");
    let b = spawn_client("fig6_top gcc");
    let a = a.wait_with_output().expect("client a");
    let b = b.wait_with_output().expect("client b");

    // Each client sees only its own job's stream: the queued ack, that
    // job's progress lines, and its final — nothing from the other
    // tenant leaks onto the connection.
    let check = |out: &std::process::Output, name: &str, other: &str| {
        assert!(
            out.status.success(),
            "client {name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("queued "), "{name}: {stdout}");
        assert!(
            stdout.contains(&format!("{name} (6 cells)")),
            "{name}: {stdout}"
        );
        assert!(!stdout.contains(other), "{name} saw {other}: {stdout}");
        // Every protocol line carries the client's own job id as its
        // second token (`queued <id>` / `progress <id> d/t` /
        // `ok <id> ...`); `#`-prefixed lines are client-side summaries.
        let ids: Vec<&str> = stdout
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_whitespace().nth(1))
            .collect();
        assert!(!ids.is_empty());
        assert!(
            ids.iter().all(|&id| id == ids[0]),
            "{name} stream mixes ids: {stdout}"
        );
    };
    check(&a, "fig6_top gzip", "gcc");
    check(&b, "fig6_top gcc", "gzip");

    let down = submit(&sock, &["shutdown"]);
    assert!(down.status.success());
    drain_daemon(child);

    // The acceptance bar: the served stats export is byte-identical to
    // running the same jobs serially in-process.
    let served = std::fs::read_to_string(&stats_path).unwrap();
    let sweep = Sweep::new(
        20_000,
        vec![Benchmark::Gzip, Benchmark::Gcc],
        Pool::new(1),
        CellCache::disabled(),
    );
    let session = Arc::new(Session::new(
        Arc::new(MemSink::new()) as Arc<dyn Sink>,
        "direct",
    ));
    let stats = Mutex::new(std::collections::BTreeMap::new());
    for line in ["fig6_top gzip", "fig6_top gcc"] {
        let job = parse_job(&sweep, line).unwrap();
        run_job(&sweep, &session, &job, 1_000, &stats);
    }
    let entries: Vec<(String, Vec<(String, f64)>)> = stats
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let direct = dise_bench::stats_json_doc(&entries);
    assert_eq!(
        served, direct,
        "concurrent service stats must match a serial direct run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disconnecting_client_does_not_kill_the_daemon_or_its_job() {
    let dir = tmpdir("discon");
    let sock = dir.join("serve.sock");
    let stats_path = dir.join("served.json");
    let child = daemon(&sock, &dir.join("obs"), Some(&stats_path), None);
    await_socket(&sock);

    // A raw client submits a six-cell job, waits for the queued ack,
    // then vanishes mid-job.
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        stream.write_all(b"fig6_top gzip\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(
            line.starts_with("queued ") || line.starts_with("progress "),
            "unexpected first line {line:?}"
        );
    } // both halves drop here: the peer is gone

    // The daemon keeps running: a second client's work still succeeds.
    let client = submit(&sock, &["baseline gcc", "shutdown"]);
    assert!(
        client.status.success(),
        "client: {}",
        String::from_utf8_lossy(&client.stderr)
    );
    drain_daemon(child);

    // And the orphaned job ran to completion: its cells landed in the
    // stats export alongside the second client's.
    let served = std::fs::read_to_string(&stats_path).unwrap();
    assert!(served.contains("gzip"), "orphaned job's cells missing: {served}");
    assert!(served.contains("gcc"), "second client's cell missing: {served}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_answers_during_a_running_job_without_delaying_it() {
    let dir = tmpdir("stats");
    let sock = dir.join("serve.sock");
    let child = daemon(&sock, &dir.join("obs"), None, None);
    await_socket(&sock);

    // Client A submits a six-cell job and keeps its stream open.
    let a = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    let mut a_writer = a.try_clone().unwrap();
    a_writer.write_all(b"fig6_top gzip\n").unwrap();
    let mut a_lines = BufReader::new(a).lines();
    // The `queued` ack (reader thread) and the first `progress`
    // (scheduler) race onto the connection; the first progress line
    // proves the scheduler picked the job up — from here until the
    // final it is the running job.
    loop {
        let line = a_lines.next().unwrap().unwrap();
        assert!(
            line.starts_with("queued ") || line.starts_with("progress "),
            "{line:?}"
        );
        if line.starts_with("progress ") {
            break;
        }
    }

    // While the job runs, client B asks for `stats` and must get the
    // one-line JSON snapshot promptly — the command is answered on B's
    // reader thread, never queued behind the scheduler.
    let b = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut b_writer = b.try_clone().unwrap();
    b_writer.write_all(b"stats\n").unwrap();
    let mut snapshot = String::new();
    BufReader::new(b).read_line(&mut snapshot).unwrap();
    assert!(snapshot.starts_with('{'), "stats reply: {snapshot:?}");
    for needle in [
        "\"kind\":\"stats\"",
        "\"admitted\":1",
        "\"running\":{",
        "fig6_top gzip",
        "\"tenants\":{",
    ] {
        assert!(snapshot.contains(needle), "missing {needle} in {snapshot}");
    }

    // Client A's stream is undisturbed: progress keeps flowing, the
    // final timed progress splits the latency, and the ok closes it.
    let mut timed = None;
    let mut ok = None;
    for line in a_lines.by_ref() {
        let line = line.unwrap();
        if line.contains("wait=") {
            timed = Some(line.clone());
        }
        if line.starts_with("ok ") {
            ok = Some(line);
            break;
        }
    }
    let timed = timed.expect("a timed final progress line before the ok");
    assert!(
        timed.contains("6/6") && timed.contains("wait=") && timed.contains("run="),
        "{timed}"
    );
    assert!(ok.unwrap().contains("fig6_top gzip"), "job must finish");

    // The submit client surfaces the split as a summary comment, and a
    // `stats` probe sent through it prints the snapshot.
    let client = submit(&sock, &["baseline gcc", "stats", "shutdown"]);
    assert!(
        client.status.success(),
        "client: {}",
        String::from_utf8_lossy(&client.stderr)
    );
    let stdout = String::from_utf8_lossy(&client.stdout);
    assert!(stdout.contains("\"kind\":\"stats\""), "{stdout}");
    assert!(
        stdout.contains("queue-wait") && stdout.contains("ms, run "),
        "summary missing: {stdout}"
    );
    drain_daemon(child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn busy_backpressure_fires_at_the_queue_bound() {
    let dir = tmpdir("busy");
    let sock = dir.join("serve.sock");
    // Bound 1: one admitted job fills the service.
    let child = daemon(&sock, &dir.join("obs"), None, Some(1));
    await_socket(&sock);

    // The first job is admitted and runs for seconds; the second lands
    // microseconds later and must be refused with the queue depth.
    let client = submit(&sock, &["fig6_top gzip", "baseline gzip", "shutdown"]);
    assert_eq!(client.status.code(), Some(1), "busy rejection must exit 1");
    let stdout = String::from_utf8_lossy(&client.stdout);
    assert!(
        stdout.contains("busy: 1 jobs in flight (bound 1)"),
        "{stdout}"
    );
    assert!(stdout.contains("fig6_top gzip (6 cells)"), "{stdout}");
    drain_daemon(child);
    let _ = std::fs::remove_dir_all(&dir);
}
