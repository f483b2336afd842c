//! Runs `map-random` and `grid-served` at seed 2 (their default is 1),
//! untraced and traced, and checks that every output verifies, so a claim
//! made on the default seed can be re-checked on a held-out one. Each run
//! maps a 512-node network at least once: use `cargo test --release`.

use std::process::Command;

fn last_line(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} exited {}: {stdout}",
        out.status
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

fn assert_correct(workload: &str, trace: u8) {
    let line = last_line(workload, 2, trace);
    assert!(
        line.starts_with("{\"correct\":true,") && line.contains("\"failed\":0,"),
        "{workload} --trace {trace} at seed 2: {line}"
    );
}

#[test]
fn map_random_passes_on_a_held_out_seed() {
    assert_correct("map-random", 0);
    assert_correct("map-random", 1);
}

#[test]
fn grid_served_passes_on_a_held_out_seed() {
    assert_correct("grid-served", 0);
    assert_correct("grid-served", 1);
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
