//! `gtd-check` — the correctness-tooling driver.
//!
//! Subcommands:
//!
//! * `lint [--root DIR]` — the repo-specific lint pass over the workspace
//!   at `DIR` (default: the one this binary was built from).
//! * `model` — bounded-exhaustive model check of the coordinator brain.
//! * `sanitize` — Miri and ThreadSanitizer passes, detected at runtime
//!   and skipped with a visible notice when the toolchain lacks them.
//! * `ci` — lint + model + sanitize, the order CI runs them.
//! * `loc` — non-test code lines per file and in total.
//! * `list` — the lint-rule and invariant registries.

use gtd_check::model;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("lint") => match args.get(1..) {
            Some([]) => run_lint(&workspace_root()),
            Some([flag, dir]) if flag == "--root" => run_lint(std::path::Path::new(dir)),
            _ => {
                eprintln!("gtd-check lint: usage: gtd-check lint [--root DIR]");
                false
            }
        },
        Some("model") => match parse_model_args(&args[1..]) {
            Some((cfg, floor)) => run_model(cfg, floor),
            None => false,
        },
        Some("sanitize") => run_sanitize(&workspace_root()),
        Some("ci") => run_ci(&args[1..]),
        Some("loc") => run_loc(&workspace_root()),
        Some("list") => {
            list();
            true
        }
        _ => {
            println!(
                "gtd-check <command>\n\n\
                 commands:\n  \
                 lint      run the repo-specific lint rules [--root DIR]\n  \
                 model     bounded-exhaustive model check of the coordinator brain\n  \
                 sanitize  Miri + ThreadSanitizer passes (skipped without the toolchain)\n  \
                 ci        lint + model + sanitize\n  \
                 loc       non-test code lines per file and in total\n  \
                 list      lint rules and model-checker invariants"
            );
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace this binary was built from.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Lint the workspace at `root` against its `lint.allow`. Clean means
/// zero unsuppressed violations *and* zero stale allow entries; each
/// finding names `rule: file:line` so CI logs point straight at it.
fn run_lint(root: &std::path::Path) -> bool {
    let ws = match gtd_check::lint::Workspace::load(root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "gtd-check lint: cannot load workspace at {}: {e}",
                root.display()
            );
            return false;
        }
    };
    let allow_text = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let allow = gtd_check::parse_allowlist(&allow_text);
    let outcome = gtd_check::lint_with_allowlist(&ws, &allow);
    for v in &outcome.violations {
        println!("{v}");
    }
    for a in &outcome.stale {
        let substring = a.substring.as_deref().map(|s| format!(" {s}"));
        println!(
            "stale-allow: lint.allow:{}: `{} {}{}` matched nothing — remove it",
            a.line,
            a.rule,
            a.file,
            substring.unwrap_or_default()
        );
    }
    println!(
        "gtd-check lint: {} file(s), {} rule(s), {} violation(s), {} suppressed, {} stale allow(s)",
        outcome.files_scanned,
        gtd_check::LINT_RULES.len(),
        outcome.violations.len(),
        outcome.suppressed,
        outcome.stale.len()
    );
    outcome.clean()
}

/// Parse `model` flags into a config plus a coverage floor
/// (`--min-transitions`): fail the run if exploration stayed smaller.
fn parse_model_args(args: &[String]) -> Option<(model::Config, u64)> {
    // CI-sized default: exhaust a deeper space than the in-test sweep.
    let mut cfg = model::Config {
        depth: 14,
        max_transitions: 2_000_000,
        ..model::Config::default()
    };
    let mut floor = 0u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--no-second-grid" {
            cfg.second_grid = false;
            continue;
        }
        let Some(value) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
            eprintln!("gtd-check model: `{arg}` needs a numeric value");
            return None;
        };
        match arg.as_str() {
            "--cells" => cfg.cells = value as usize,
            "--cached" => cfg.cached = value as usize,
            "--workers" => cfg.workers = value,
            "--depth" => cfg.depth = value as usize,
            "--max-attempts" => cfg.max_attempts = value as u32,
            "--max-transitions" => cfg.max_transitions = value,
            "--min-transitions" => floor = value,
            other => {
                eprintln!("gtd-check model: unknown argument `{other}`");
                return None;
            }
        }
    }
    Some((cfg, floor))
}

fn run_model(cfg: model::Config, floor: u64) -> bool {
    println!(
        "model: exploring <={} events deep, {} worker id(s), {}-cell grid ({} cached){}",
        cfg.depth,
        cfg.workers,
        cfg.cells,
        cfg.cached,
        if cfg.second_grid {
            ", second grid enabled"
        } else {
            ""
        }
    );
    let t0 = Instant::now();
    let report = model::sweep(cfg);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "model: {} transition(s) over {} distinct state(s), {} drain(s), {secs:.1}s{}",
        report.transitions,
        report.distinct_states,
        report.drains,
        if report.truncated {
            " (transition budget reached)"
        } else {
            " (state space exhausted)"
        }
    );
    if let Some(v) = &report.violation {
        println!("{v}");
        return false;
    }
    println!("model: all {} invariant(s) hold", model::INVARIANTS.len());
    if report.transitions < floor {
        println!(
            "model: FAILED coverage floor: {} < required {floor} transitions",
            report.transitions
        );
        return false;
    }
    true
}

/// Result of trying one sanitizer pass.
enum Sanitizer {
    Ran(bool),
    Skipped(String),
}

fn run_sanitize(root: &std::path::Path) -> bool {
    let mut ok = true;
    for (name, result) in [("miri", miri(root)), ("tsan", tsan(root))] {
        match result {
            Sanitizer::Ran(true) => println!("sanitize: {name}: PASS"),
            Sanitizer::Ran(false) => {
                println!("sanitize: {name}: FAIL");
                ok = false;
            }
            Sanitizer::Skipped(why) => {
                println!("sanitize: {name}: SKIPPED — {why} (advisory pass, not a failure)");
            }
        }
    }
    ok
}

/// Miri over the snake/netsim unit suites (UB detection on the engine's
/// index-heavy inner loops).
fn miri(root: &std::path::Path) -> Sanitizer {
    let probe = Command::new("cargo")
        .args(["miri", "--version"])
        .current_dir(root)
        .output();
    match probe {
        Ok(out) if out.status.success() => {}
        _ => {
            return Sanitizer::Skipped(
                "cargo miri not installed (rustup +nightly component add miri)".into(),
            )
        }
    }
    let status = Command::new("cargo")
        .args([
            "miri",
            "test",
            "-p",
            "gtd-snake",
            "-p",
            "gtd-netsim",
            "--lib",
        ])
        .current_dir(root)
        .status();
    Sanitizer::Ran(status.map(|s| s.success()).unwrap_or(false))
}

/// ThreadSanitizer build of the serve fault-injection test (the one
/// place real threads, sockets, and kill -9 meet).
fn tsan(root: &std::path::Path) -> Sanitizer {
    let nightly = Command::new("cargo")
        .args(["+nightly", "--version"])
        .current_dir(root)
        .output();
    match nightly {
        Ok(out) if out.status.success() => {}
        _ => return Sanitizer::Skipped("nightly toolchain not installed (-Zsanitizer)".into()),
    }
    let host = Command::new("rustc")
        .arg("-vV")
        .output()
        .ok()
        .and_then(|o| {
            String::from_utf8(o.stdout).ok().and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
            })
        });
    let Some(host) = host else {
        return Sanitizer::Skipped("cannot determine host triple from rustc -vV".into());
    };
    // TSan must instrument std too, which means -Zbuild-std — and that
    // needs the nightly rust-src component on disk.
    let sysroot = Command::new("rustc")
        .args(["+nightly", "--print", "sysroot"])
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string());
    let has_src = sysroot.as_ref().is_some_and(|s| {
        std::path::Path::new(s)
            .join("lib/rustlib/src/rust/library/std/Cargo.toml")
            .exists()
    });
    if !has_src {
        return Sanitizer::Skipped(
            "nightly rust-src not installed (rustup +nightly component add rust-src)".into(),
        );
    }
    let status = Command::new("cargo")
        .args([
            "+nightly",
            "test",
            "-Zbuild-std",
            "-p",
            "gtd-serve",
            "--test",
            "fault_injection",
            "--target",
            &host,
        ])
        .env("RUSTFLAGS", "-Zsanitizer=thread")
        .current_dir(root)
        .status();
    Sanitizer::Ran(status.map(|s| s.success()).unwrap_or(false))
}

fn run_ci(args: &[String]) -> bool {
    let root = workspace_root();
    println!("== gtd-check ci: lint ==");
    let lint_ok = run_lint(&root);
    println!("== gtd-check ci: model ==");
    let model_ok = match parse_model_args(args) {
        Some((cfg, floor)) => run_model(cfg, floor),
        None => false,
    };
    println!("== gtd-check ci: sanitize ==");
    let san_ok = run_sanitize(&root);
    let ok = lint_ok && model_ok && san_ok;
    println!(
        "gtd-check ci: {}",
        if ok {
            "all passes green"
        } else {
            "FAILED (see passes above)"
        }
    );
    ok
}

/// Print the non-test line count of every file the ROADMAP's rule
/// covers (see [`gtd_check::loc`]), then the total.
fn run_loc(root: &std::path::Path) -> bool {
    let census = gtd_check::loc::census(root);
    let Ok(files) = census.inspect_err(|e| eprintln!("gtd-check loc: cannot read: {e}")) else {
        return false;
    };
    for (path, lines) in &files {
        println!("{lines:>6}  {path}");
    }
    let total: usize = files.iter().map(|&(_, lines)| lines).sum();
    println!("{total:>6}  total ({} files)", files.len());
    true
}

fn list() {
    println!("lint rules (gtd-check lint, allowlist: lint.allow):");
    for rule in gtd_check::LINT_RULES {
        println!("  {:<24} {}", rule.name, rule.summary);
    }
    println!();
    println!("model-checker invariants (gtd-check model):");
    for inv in model::INVARIANTS {
        println!("  {:<24} {}", inv.name, inv.summary);
    }
}
