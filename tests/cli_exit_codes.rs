//! Locks the `xui` CLI's exit-status contract: 0 pass, 1 experiment
//! failure, 2 usage/config error — in particular that a bad scenario
//! *path* (missing, unreadable, or invalid JSON) is a clean exit 2
//! with a pointed message, never a panic or a silent pass.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xui(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(args)
        .output()
        .expect("xui binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xui-cli-exit-{}-{name}", std::process::id()))
}

#[test]
fn run_with_missing_file_exits_2_with_message() {
    let out = xui(&["run", "/no/such/dir/scenario.json"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("cannot read scenario file `/no/such/dir/scenario.json`"),
        "unhelpful message: {err}"
    );
}

#[test]
fn run_with_unreadable_path_exits_2_with_message() {
    // A directory is unreadable-as-a-file on every platform and for
    // every uid (tests often run as root, where mode 000 still reads).
    let dir = tmp_path("dir.json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let arg = dir.to_str().expect("utf-8 temp path");
    let out = xui(&["run", arg]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot read scenario file"), "{}", stderr(&out));
}

#[test]
fn run_with_invalid_json_file_exits_2_with_message() {
    let file = tmp_path("garbage.json");
    std::fs::write(&file, "{ not json").expect("write temp scenario");
    let arg = file.to_str().expect("utf-8 temp path");
    let out = xui(&["run", arg]);
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid scenario file"), "{}", stderr(&out));
}

#[test]
fn run_with_unknown_preset_exits_2_and_points_at_list() {
    let out = xui(&["run", "no_such_preset"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown scenario `no_such_preset`"), "{err}");
    assert!(err.contains("xui list"), "should point at `xui list`: {err}");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = xui(&["run", "fig2_timeline", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
}

#[test]
fn trace_without_value_exits_2() {
    let out = xui(&["run", "fig6_timer_core", "--trace"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("requires a value"), "{}", stderr(&out));
}

#[test]
fn run_help_lists_every_run_flag() {
    let out = xui(&["run", "--help"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--bench-meta",
        "--metrics",
        "--trace <PATH>",
        "--threads <N>",
        "--full <N>",
        "--sim <N>",
        "--seed <S>",
    ] {
        assert!(stdout.contains(needle), "help missing {needle}: {stdout}");
    }
}

#[test]
fn show_preset_exits_0_with_json() {
    let out = xui(&["show", "fig2_timeline"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"fig2_timeline\""), "{body}");
}

#[test]
fn preset_name_wins_over_colliding_dirname() {
    // Regression: `load_scenario` used to treat any existing path as a
    // scenario file, so a stray `fig2_timeline/` in the CWD shadowed the
    // preset and `show`/`run` exited 2 ("cannot read scenario file").
    let cwd = tmp_path("collide-cwd");
    let dir = cwd.join("fig2_timeline");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["show", "fig2_timeline"])
        .current_dir(&cwd)
        .output()
        .expect("xui binary runs");
    std::fs::remove_dir_all(&cwd).ok();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"fig2_timeline\""), "{body}");
}

#[test]
fn show_and_list_reject_run_only_flags() {
    // Regression: one shared CliSpec used to declare every flag for
    // every command, so `show --faults x` parsed and was ignored.
    for args in [
        &["show", "fig2_timeline", "--faults", "x"][..],
        &["show", "fig2_timeline", "--threads", "4"],
        &["show", "fig2_timeline", "--full", "3"],
        &["list", "--threads", "4"],
        &["list", "--full", "3"],
    ] {
        let out = xui(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("usage"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn sweep_expand_prints_the_grid() {
    let out = xui(&["sweep", "sweep_fig2_grid", "--expand"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    let points: Vec<&str> = body.lines().collect();
    assert_eq!(points.len(), 16, "{body}");
    assert!(points[0].starts_with("fig2_timeline@sender_countdown=1000,"), "{body}");
}

#[test]
fn sweep_with_malformed_grid_exits_2() {
    let file = tmp_path("bad-grid.json");
    std::fs::write(
        &file,
        r#"{"name":"bad","scenario":"fig2_timeline","grid":{"sender_countdown":{"from":9,"to":1,"step":1}}}"#,
    )
    .expect("write temp sweep");
    let arg = file.to_str().expect("utf-8 temp path");
    let out = xui(&["sweep", arg, "--expand"]);
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("empty range"), "{}", stderr(&out));

    let out = xui(&["sweep", "{ not json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown sweep"), "{}", stderr(&out));

    let out = xui(&["sweep", "no_such_sweep"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown sweep `no_such_sweep`"), "{}", stderr(&out));
}

#[test]
fn sweep_rejects_malformed_shards() {
    for bad in ["5/2", "2/2", "x/y", "1/0", "3"] {
        let out = xui(&["sweep", "sweep_fig2_grid", "--shard", bad, "--expand"]);
        assert_eq!(out.status.code(), Some(2), "--shard {bad}: {}", stderr(&out));
        assert!(stderr(&out).contains("invalid shard"), "--shard {bad}: {}", stderr(&out));
    }
}

#[test]
fn run_fails_loudly_when_results_cannot_be_written() {
    // `results` is a regular file, so `results/<id>.json` cannot exist.
    let dir = tmp_path("results-is-a-file");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("results"), "not a directory").expect("write blocker");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["run", "fig2_timeline"])
        .current_dir(&dir)
        .output()
        .expect("xui binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_ne!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot save results/fig2_timeline.json"), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("[saved"), "claimed a save that failed: {stdout}");
}

#[test]
fn run_fails_loudly_when_the_bench_meta_record_cannot_be_written() {
    // `results/BENCH_sweep.json` is a directory: the artifact still
    // saves, but the `--bench-meta` record cannot, and the run must say so.
    let dir = tmp_path("bench-sweep-is-a-dir");
    std::fs::create_dir_all(dir.join("results").join("BENCH_sweep.json")).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["run", "fig2_timeline", "--bench-meta"])
        .current_dir(&dir)
        .output()
        .expect("xui binary runs");
    let artifact = dir.join("results").join("fig2_timeline.json").is_file();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("results/BENCH_sweep.json"), "{}", stderr(&out));
    assert!(artifact, "the fig2_timeline artifact is still written");
}
