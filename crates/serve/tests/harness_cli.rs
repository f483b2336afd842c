//! The `harness` binary end to end: `grid` maps every axis flag onto the
//! same campaign as [`GridRequest::to_campaign`], `compare` flags
//! regressions and one-sided groups through its exit code and table, and
//! a malformed numeric flag exits 2 naming the flag.

use gtd_core::RemapPolicy;
use gtd_netsim::EngineMode;
use gtd_serve::GridRequest;
use std::path::PathBuf;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("run harness")
}

/// A per-process scratch file path (removed by the caller).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("harness-cli-{}-{name}", std::process::id()))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn grid_flags_build_the_same_campaign_as_the_request() {
    let (json, csv) = (scratch("grid.jsonl"), scratch("grid.csv"));
    let out = harness(&[
        "grid",
        "--spec",
        "ring:8",
        "--spec",
        "ring:8+rewire=1@t50",
        "--mappers",
        "gtd,flood-echo",
        "--modes",
        "dense,parallel",
        "--policies",
        "lazy,eager",
        "--roots",
        "0,3",
        "--reps",
        "2",
        "--budget",
        "200000",
        "--cell-timeout",
        "60000",
        "--jobs",
        "2",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "grid failed: {}", stderr(&out));
    assert!(stdout(&out).contains("64 cells (0 errors, 0 cached)"));

    let mut req = GridRequest::new(["ring:8", "ring:8+rewire=1@t50"], ["gtd", "flood-echo"]);
    req.modes = vec![EngineMode::Dense, EngineMode::Parallel];
    req.policies = vec![RemapPolicy::Lazy, RemapPolicy::Eager];
    req.roots = vec![0, 3];
    req.reps = 2;
    req.budget = Some(200_000);
    req.cell_timeout_ms = Some(60_000);
    let report = req.to_campaign().unwrap().run().unwrap();

    let (got_json, got_csv) = (
        std::fs::read_to_string(&json).unwrap(),
        std::fs::read_to_string(&csv).unwrap(),
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&csv);
    assert_eq!(got_json, report.to_jsonl());
    assert_eq!(got_csv, report.to_csv());
}

/// A hand-written grid row: only what `compare` reads.
fn row(spec: &str, rounds: u64) -> String {
    format!(
        r#"{{"spec":"{spec}","mapper":"gtd","mode":"sparse","policy":"lazy","root":0,"rep":0,"n":8,"e":16,"ok":true,"rounds":{rounds},"verified":true}}"#
    )
}

fn write(name: &str, rows: &[String]) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, rows.join("\n") + "\n").unwrap();
    path
}

#[test]
fn compare_flags_growth_past_the_threshold_and_one_sided_groups() {
    let old = write("old.jsonl", &[row("ring:8", 100), row("ring:9", 50)]);
    let new = write("new.jsonl", &[row("ring:8", 120), row("ring:10", 60)]);
    let (old_s, new_s) = (old.to_str().unwrap(), new.to_str().unwrap());

    let strict = harness(&["compare", old_s, new_s, "--threshold", "10"]);
    let loose = harness(&["compare", old_s, new_s, "--threshold", "50"]);
    let _ = std::fs::remove_file(&old);
    let _ = std::fs::remove_file(&new);

    assert_eq!(strict.status.code(), Some(1), "{}", stderr(&strict));
    let text = stdout(&strict);
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("only in old"), "{text}");
    assert!(text.contains("only in new"), "{text}");
    assert!(text.contains("1 regression(s), 2 group(s) present on one side only"));

    assert_eq!(loose.status.code(), Some(0), "{}", stderr(&loose));
    let text = stdout(&loose);
    assert!(!text.contains("REGRESSED"), "{text}");
    assert!(text.contains("only in old") && text.contains("only in new"));
}

#[test]
fn compare_passes_identical_files() {
    let path = write("same.jsonl", &[row("ring:8", 100), row("ring:9", 50)]);
    let p = path.to_str().unwrap();
    let out = harness(&["compare", p, p]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 regression(s), 0 group(s) present on one side only"));
}

#[test]
fn malformed_numeric_flags_exit_2_and_name_the_flag() {
    let cases: [&[&str]; 6] = [
        &["grid", "--spec", "ring:8", "--reps", "two"],
        &["grid", "--spec", "ring:8", "--budget", "-1"],
        &["grid", "--spec", "ring:8", "--reps", "18446744073709551616"],
        &["run", "e1", "--scale", "x"],
        &["serve", "--lease-ms", "soon"],
        &["work", "--connect-retries", "many"],
    ];
    for args in cases {
        let out = harness(args);
        let flag = args[args.len() - 2];
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(flag),
            "{args:?}: stderr does not name {flag}: {}",
            stderr(&out)
        );
    }
}
