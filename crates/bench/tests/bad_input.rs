//! Bad input to the figure binaries fails loudly: exit status 2 and one
//! stderr line naming the input, its bad value and the accepted form,
//! before any cell runs (nothing on stdout, no `[done]` line).

use std::process::{Command, Output};

/// Runs a figure binary on a tiny, uncached configuration with `env`
/// overriding it.
fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env("DISE_BENCH_DYN", "2000")
        .env("DISE_BENCH_FILTER", "mcf")
        .env("DISE_BENCH_JOBS", "1")
        .env("DISE_BENCH_CACHE", "off")
        .env_remove("DISE_OBS_SINK");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("figure binary runs")
}

fn assert_rejected(out: &Output, needles: &[&str]) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        out.stdout.is_empty(),
        "a table was printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(err.lines().count(), 1, "want one line: {err}");
    for needle in needles {
        assert!(err.contains(needle), "{needle:?} missing from: {err}");
    }
}

#[test]
fn unknown_panel_is_rejected_by_every_figure_binary() {
    for (bin, panels) in [
        (env!("CARGO_BIN_EXE_fig6_mfi"), "top, cache, width"),
        (env!("CARGO_BIN_EXE_fig7_compression"), "ratio, perf, rt"),
        (env!("CARGO_BIN_EXE_fig8_composition"), "cache, rt"),
        (env!("CARGO_BIN_EXE_ablation"), "mfi, rtmiss, ctx, rtblock"),
    ] {
        let out = run(bin, &["bogus_panel"], &[]);
        assert_rejected(&out, &["panel", "\"bogus_panel\"", panels]);
    }
}

#[test]
fn unknown_benchmark_in_the_filter_is_rejected() {
    let out = run(
        env!("CARGO_BIN_EXE_fig6_mfi"),
        &["top"],
        &[("DISE_BENCH_FILTER", "mcf,nosuch")],
    );
    assert_rejected(
        &out,
        &["DISE_BENCH_FILTER", "\"nosuch\"", "comma-separated", "gzip"],
    );
}

#[test]
fn malformed_budget_is_rejected() {
    let out = run(
        env!("CARGO_BIN_EXE_fig6_mfi"),
        &["top"],
        &[("DISE_BENCH_DYN", "abc")],
    );
    assert_rejected(&out, &["DISE_BENCH_DYN", "\"abc\"", "positive integer"]);
}

#[test]
fn malformed_job_count_is_rejected() {
    let out = run(
        env!("CARGO_BIN_EXE_fig6_mfi"),
        &["top"],
        &[("DISE_BENCH_JOBS", "x")],
    );
    assert_rejected(&out, &["DISE_BENCH_JOBS", "\"x\"", "positive integer"]);
}

#[test]
fn flag_without_its_value_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_fig6_mfi"), &["top", "--stats-json"], &[]);
    assert_rejected(&out, &["--stats-json", "PATH"]);
}
