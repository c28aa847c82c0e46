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
        "--metrics",
        "--trace <PATH>",
        "--threads <N>",
        "--full <N>",
        "--sim <N>",
        "--seed <S>",
    ] {
        assert!(stdout.contains(needle), "help missing {needle}: {stdout}");
    }
    // The serial-vs-parallel timing record is gone with its flag.
    assert!(!stdout.contains("--bench-meta"), "help still offers --bench-meta: {stdout}");
    let out = xui(&["run", "fig2_timeline", "--bench-meta"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown flag `--bench-meta`"), "{}", stderr(&out));
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
fn run_fails_loudly_when_the_trace_cannot_be_written() {
    // `notadir` is a regular file, so `notadir/t.json` cannot be created:
    // the artifact still saves, but the trace the run was asked for
    // cannot, and the run must say so.
    let dir = tmp_path("trace-parent-is-a-file");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("notadir"), "not a directory").expect("write blocker");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["run", "fig2_timeline", "--trace", "notadir/t.json"])
        .current_dir(&dir)
        .output()
        .expect("xui binary runs");
    let artifact = dir.join("results").join("fig2_timeline.json").is_file();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("notadir/t.json"), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("[trace"), "claimed a trace that failed: {stdout}");
    assert!(artifact, "the fig2_timeline artifact is still written");
}

/// `xui run FILE FLAGS` from inside `dir`.
fn run_file_in(dir: &std::path::Path, file: &str, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["run", file])
        .args(flags)
        .current_dir(dir)
        .output()
        .expect("xui binary runs")
}

#[test]
fn scenario_file_cannot_grant_telemetry_its_experiment_does_not_feed() {
    // Regression: a scenario used to carry its own telemetry capability
    // flags, so an x3 file declaring both ran with `--trace`/`--metrics`,
    // exited 0 and wrote neither file. What an experiment can feed now
    // follows from its variant, and the stale key is ignored.
    let dir = tmp_path("x3-telemetry");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let show = xui(&["show", "x3_signal_costs"]);
    assert_eq!(show.status.code(), Some(0), "stderr: {}", stderr(&show));
    let text = String::from_utf8(show.stdout).expect("utf-8 scenario").replacen(
        "\n  \"faults\":",
        "\n  \"telemetry\": {\"trace\": true, \"metrics\": true},\n  \"faults\":",
        1,
    );
    assert!(text.contains("\"telemetry\""), "{text}");
    std::fs::write(dir.join("x3.json"), &text).expect("write temp scenario");
    for (flags, named) in [(&["--trace", "t.json"][..], "--trace"), (&["--metrics"], "--metrics")] {
        let out = run_file_in(&dir, "x3.json", flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?} stderr: {}", stderr(&out));
        assert!(stderr(&out).contains(named), "{flags:?}: {}", stderr(&out));
        assert!(!dir.join("t.json").exists(), "{flags:?} wrote a trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_file_missing_a_float_field_exits_2_naming_it() {
    // Regression: a missing float key reads as NaN, and this file used
    // to run to exit 0 printing `0 krps` and `NaN% vs UIPI`.
    let show = xui(&["show", "fig7_rocksdb"]);
    assert_eq!(show.status.code(), Some(0), "stderr: {}", stderr(&show));
    let mut sc = serde_json::value_from_str(&String::from_utf8_lossy(&show.stdout)).expect("json");
    let serde::Value::Object(top) = &mut sc else { panic!("scenario is an object") };
    let Some((_, serde::Value::Object(experiment))) = top.last_mut() else {
        panic!("experiment is the last field and an object")
    };
    let Some((_, serde::Value::Object(payload))) = experiment.first_mut() else {
        panic!("the variant carries an object")
    };
    let before = payload.len();
    payload.retain(|(k, _)| k != "slo_us");
    assert_eq!(payload.len(), before - 1, "slo_us was present");

    let dir = tmp_path("fig7-no-slo");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let text = serde_json::to_string_pretty(&sc).expect("renders");
    std::fs::write(dir.join("fig7.json"), text).expect("write temp scenario");
    let out = run_file_in(&dir, "fig7.json", &[]);
    let ran = dir.join("results").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("slo_us"), "{}", stderr(&out));
    assert!(!ran, "the experiment ran on a NaN SLO");
}

#[test]
fn fault_plan_with_a_removed_op_exits_2_naming_it() {
    // Regression: two ops that no workload read used to parse, so a
    // plan declaring them ran clean. They are no longer fault ops.
    let show = xui(&["show", "fig7_rocksdb"]);
    assert_eq!(show.status.code(), Some(0), "stderr: {}", stderr(&show));
    let text = String::from_utf8(show.stdout).expect("utf-8 scenario");
    assert!(text.contains("\n  \"faults\": null,"), "{text}");
    let dir = tmp_path("fig7-removed-op");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (variant, op) in [
        ("FlipUif", r#"{"FlipUif": {"from": 0, "until": 10, "value": false}}"#),
        ("ReorderCompletions", r#"{"ReorderCompletions": {"window": 4}}"#),
    ] {
        let plan = format!(
            r#"{{"name": "removed", "seed": 0, "ops": [{op}], "degrade_threshold": 8}}"#
        );
        let file = format!("{variant}.json");
        std::fs::write(
            dir.join(&file),
            text.replacen("\"faults\": null", &format!("\"faults\": {plan}"), 1),
        )
        .expect("write temp scenario");
        let out = run_file_in(&dir, &file, &[]);
        assert_eq!(out.status.code(), Some(2), "{variant} stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown variant `{variant}`")),
            "{variant}: {}",
            stderr(&out)
        );
        assert!(!dir.join("results").exists(), "{variant}: the experiment ran");
    }
    std::fs::remove_dir_all(&dir).ok();
}
