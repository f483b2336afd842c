//! The experiment harness — a subcommand CLI over the campaign layer.
//!
//! ```text
//! harness list                         # spec families, mappers, engine modes
//! harness run [e1 … e7] [--scale K] [--json FILE]
//! harness grid --spec S [--spec S …] [--mappers a,b] [--modes x,y]
//!              [--roots 0,1] [--reps K] [--budget T] [--jobs K]
//!              [--cell-timeout MS] [--via ADDR]
//!              [--resume-from OLD.jsonl] [--json FILE] [--csv FILE]
//! harness serve --listen ADDR [--workers N] [--cache FILE]
//!               [--resume-from OLD.jsonl] [--lease-ms MS] [--lease-max-ms MS]
//!               [--max-attempts K]
//! harness work --connect ADDR [--connect-retries K] [--connect-backoff-ms MS]
//! harness bench [--reps K] [--window T] [--modes x,y] [--json FILE]
//! harness compare OLD.jsonl NEW.jsonl [--threshold PCT]
//! ```
//!
//! `run` regenerates the E1–E7 experiment rows (each experiment
//! corresponds to one formal claim of the paper — the paper has no
//! empirical tables/figures; see DESIGN.md §2 for the mapping). E1 and E7
//! are expressed as [`Campaign`] grids; the probe experiments (E3/E4)
//! drive their machinery directly. `grid` runs an
//! arbitrary declared campaign; `--resume-from` seeds the incremental
//! cell cache from a previous export so only new cells execute, and
//! `--via` submits the same grid to a `harness serve` coordinator instead
//! of running in-process (same flags, byte-identical exports). `serve`
//! runs the crash-tolerant campaign service and `work` a worker for it
//! (see README §"Campaign service"). `bench` writes engine perf records
//! (median ticks/sec per spec × mode) that `compare` can gate against a
//! committed baseline. Bare experiment names (`harness e1 e7`) are
//! accepted as a shorthand for `run`.

use gtd_baselines::{family_size_log2, min_ticks_lower_bound, tree_loop_params};
use gtd_bench::json::{str_field, JsonValue};
use gtd_bench::{core_family_specs, json, json_line, Campaign, RunRecord, Table, Workload};
use gtd_core::{run_single_bca, run_single_rca, GtdSession, RemapPolicy, TranscriptEvent};
use gtd_netsim::{
    algo, generators, mutation, spec, DynamicSpec, EngineMode, NodeId, Port, TopologySpec,
};
use std::io::Write;
use std::process::exit;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("grid") => cmd_grid(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("work") => cmd_work(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => usage(0),
        // bare experiment ids / flags: legacy shorthand for `run`
        _ => cmd_run(&args),
    }
}

fn usage(code: i32) -> ! {
    eprintln!(
        "usage:\n  \
         harness list\n  \
         harness run [e1 .. e7] [--scale K] [--json FILE]\n  \
         harness grid --spec SPEC [--spec SPEC ...] [--mappers a,b] [--modes x,y]\n               \
         [--policies lazy,eager] [--roots 0,1] [--reps K] [--budget T] [--jobs K]\n               \
         [--cell-timeout MS] [--via ADDR]\n               \
         [--resume-from OLD.jsonl] [--json FILE] [--csv FILE]\n  \
         harness serve --listen ADDR [--workers N] [--cache FILE]\n               \
         [--resume-from OLD.jsonl] [--lease-ms MS] [--lease-max-ms MS] [--max-attempts K]\n  \
         harness work --connect ADDR [--connect-retries K] [--connect-backoff-ms MS]\n  \
         harness bench [--reps K] [--window T] [--modes x,y] [--json FILE]\n  \
         harness compare OLD.jsonl NEW.jsonl [--threshold PCT]\n\n\
         `harness list` prints the spec grammar; e.g. --spec ring:64 --spec debruijn:2,5\n\
         dynamic specs append mutation suffixes: --spec ring:64+node-leave=3@t500\n\
         fault suffixes ride before mutations: --spec ring:64~loss=0.01~delay=1..3\n\
         `grid --resume-from` skips cells already recorded in a previous JSONL export\n\
         `grid --via` submits the grid to a `harness serve` coordinator (same flags,\n\
         byte-identical exports); `serve --workers N` spawns its own worker fleet\n\
         `bench` measures engine throughput (median ticks/sec per spec x mode) and\n\
         writes machine-readable perf records (default BENCH_engine.json)"
    );
    exit(code)
}

fn bail(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    exit(2)
}

fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| bail(&format!("{flag} needs a value")))
}

// ---------------------------------------------------------------------------
// harness list
// ---------------------------------------------------------------------------

fn cmd_list(args: &[String]) {
    if !args.is_empty() {
        bail("`list` takes no arguments");
    }
    println!("topology spec families (family:arg,arg or family:key=value,...):\n");
    let mut t = Table::new(&["family", "parameters", "example", "builds"]);
    for fam in spec::REGISTRY {
        let params: Vec<String> = fam
            .params
            .iter()
            .map(|p| match p.default {
                Some(d) => format!("{}={d}", p.name),
                None => p.name.to_string(),
            })
            .collect();
        t.row(vec![
            fam.name.to_string(),
            params.join(","),
            fam.example.to_string(),
            fam.summary.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\nmutation suffixes (append +kind=selector@tTICK to any spec):\n");
    let mut t = Table::new(&["kind", "example", "effect"]);
    for m in mutation::MUTATION_REGISTRY {
        t.row(vec![
            m.name.to_string(),
            m.example.to_string(),
            m.summary.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("e.g. ring:64+node-leave=3@t500  (kinds without a valid candidate fall back to swap;");
    println!("node-join/node-leave change N — the collector's host never leaves)");

    println!("\nfault-plane suffixes (append ~key=value to any spec, before mutations):\n");
    let mut t = Table::new(&["knob", "example", "effect"]);
    for k in spec::FAULT_REGISTRY {
        t.row(vec![
            k.name.to_string(),
            k.example.to_string(),
            k.summary.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("e.g. ring:64~loss=0.01~delay=1..3~fault-seed=7+node-leave=1@t200");
    println!("faulted transcripts are byte-identical across engine modes and shard counts;");
    println!("~loss=0 (or any all-zero plane) is exactly the unfaulted spec");

    println!("\nchecks (gtd-lint rules; run `cargo run -p gtd-check --bin gtd-lint`):\n");
    let mut t = Table::new(&["rule", "enforces"]);
    for rule in gtd_check::LINT_RULES {
        t.row(vec![rule.name.to_string(), rule.summary.to_string()]);
    }
    print!("{}", t.render());

    println!("\ncoordinator invariants (model-checked; `cargo run -p gtd-check -- model`):\n");
    let mut t = Table::new(&["invariant", "guarantees"]);
    for inv in gtd_check::INVARIANTS {
        t.row(vec![inv.name.to_string(), inv.summary.to_string()]);
    }
    print!("{}", t.render());

    println!("\nmappers: {}", gtd_baselines::mapper_names().join(", "));
    let modes: Vec<&str> = EngineMode::ALL.iter().map(|m| m.name()).collect();
    println!("engine modes: {}", modes.join(", "));
    let policies: Vec<&str> = RemapPolicy::ALL.iter().map(|p| p.name()).collect();
    println!("remap policies: {}", policies.join(", "));
    println!(
        "\ncampaign service: `harness serve` runs a coordinator, `harness work` a worker,\n\
         and `harness grid --via ADDR` submits a grid to it (byte-identical exports)."
    );
}

// ---------------------------------------------------------------------------
// harness grid
// ---------------------------------------------------------------------------

fn cmd_grid(args: &[String]) {
    let mut specs: Vec<DynamicSpec> = Vec::new();
    let mut mappers: Option<Vec<String>> = None;
    let mut modes: Option<Vec<EngineMode>> = None;
    let mut policies: Option<Vec<RemapPolicy>> = None;
    let mut roots: Option<Vec<u32>> = None;
    let mut reps: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut budget: Option<u64> = None;
    let mut cell_timeout_ms: Option<u64> = None;
    let mut via: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => {
                let s = flag_value(&mut it, "--spec");
                match s.parse() {
                    Ok(spec) => specs.push(spec),
                    Err(e) => bail(&format!("--spec {s:?}: {e}")),
                }
            }
            "--mappers" => {
                mappers = Some(
                    flag_value(&mut it, "--mappers")
                        .split(',')
                        .map(String::from)
                        .collect(),
                );
            }
            "--modes" => {
                match flag_value(&mut it, "--modes")
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<EngineMode>, String>>()
                {
                    Ok(m) => modes = Some(m),
                    Err(e) => bail(&e),
                }
            }
            "--policies" => {
                match flag_value(&mut it, "--policies")
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<RemapPolicy>, String>>()
                {
                    Ok(p) => policies = Some(p),
                    Err(e) => bail(&e),
                }
            }
            "--roots" => {
                match flag_value(&mut it, "--roots")
                    .split(',')
                    .map(|r| r.trim().parse::<u32>())
                    .collect::<Result<Vec<u32>, _>>()
                {
                    Ok(r) => roots = Some(r),
                    Err(_) => bail("--roots expects comma-separated node numbers"),
                }
            }
            "--reps" => reps = Some(parse_int(&flag_value(&mut it, "--reps"), "--reps")),
            "--jobs" => jobs = Some(parse_int(&flag_value(&mut it, "--jobs"), "--jobs")),
            "--budget" => {
                budget = Some(parse_int(&flag_value(&mut it, "--budget"), "--budget") as u64)
            }
            "--cell-timeout" => {
                cell_timeout_ms =
                    Some(parse_int(&flag_value(&mut it, "--cell-timeout"), "--cell-timeout") as u64)
            }
            "--via" => via = Some(flag_value(&mut it, "--via")),
            "--json" => json_path = Some(flag_value(&mut it, "--json")),
            "--csv" => csv_path = Some(flag_value(&mut it, "--csv")),
            "--resume-from" => resume_path = Some(flag_value(&mut it, "--resume-from")),
            other => bail(&format!("unknown grid flag {other:?} (see `harness help`)")),
        }
    }
    let mappers = mappers.unwrap_or_else(|| {
        gtd_baselines::mapper_names()
            .into_iter()
            .map(String::from)
            .collect()
    });

    let t0 = Instant::now();
    let (report, service) = match via {
        Some(addr) => {
            // The service holds the cell cache; these knobs are local-run
            // concerns and silently ignoring them would mislead.
            if jobs.is_some() {
                bail("--jobs applies to in-process grids; the service shards across its workers");
            }
            if resume_path.is_some() {
                bail(
                    "--resume-from applies to in-process grids; use `harness serve --resume-from`",
                );
            }
            let mut req = gtd_serve::GridRequest::new(
                specs.iter().map(|s| s.to_string()),
                mappers.iter().cloned(),
            );
            if let Some(m) = modes {
                req.modes = m;
            }
            if let Some(p) = policies {
                req.policies = p;
            }
            if let Some(r) = roots {
                req.roots = r;
            }
            if let Some(r) = reps {
                req.reps = r;
            }
            req.budget = budget;
            req.cell_timeout_ms = cell_timeout_ms;
            match gtd_serve::run_grid(&addr, &req, std::time::Duration::from_secs(10)) {
                Ok(served) => (
                    gtd_bench::CampaignReport {
                        records: served.report.records,
                        cached: served.cached,
                    },
                    Some((addr, served.retries, served.worker_cells)),
                ),
                Err(e) => bail(&format!("{e}")),
            }
        }
        None => {
            let mut campaign = Campaign::new().specs(specs).mappers(mappers);
            if let Some(m) = modes {
                campaign = campaign.modes(m);
            }
            if let Some(p) = policies {
                campaign = campaign.policies(p);
            }
            if let Some(r) = roots {
                campaign = campaign.roots(r.into_iter().map(NodeId));
            }
            if let Some(r) = reps {
                campaign = campaign.reps(r);
            }
            if let Some(j) = jobs {
                campaign = campaign.jobs(j);
            }
            if let Some(b) = budget {
                campaign = campaign.tick_budget(b);
            }
            if let Some(ms) = cell_timeout_ms {
                campaign = campaign.cell_timeout(std::time::Duration::from_millis(ms));
            }
            if let Some(path) = resume_path {
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| bail(&format!("{path}: {e}")));
                campaign = campaign
                    .resume_from_jsonl(&text)
                    .unwrap_or_else(|e| bail(&format!("{path}: {e}")));
            }
            match campaign.run() {
                Ok(r) => (r, None),
                Err(e) => bail(&format!("{e}")),
            }
        }
    };
    let wall = t0.elapsed();

    let mut t = Table::new(&[
        "spec",
        "mapper",
        "mode",
        "policy",
        "runs",
        "errors",
        "min",
        "median",
        "max",
        "remap med",
    ]);
    for g in report.aggregate() {
        let fmt = |v: Option<u64>| v.map_or("-".into(), |x| x.to_string());
        t.row(vec![
            g.spec,
            g.mapper,
            g.mode.name().into(),
            g.policy.name().into(),
            g.runs.to_string(),
            g.errors.to_string(),
            fmt(g.min_rounds),
            fmt(g.median_rounds),
            fmt(g.max_rounds),
            fmt(g.median_remap),
        ]);
    }
    print!("{}", t.render());
    println!(
        "{} cells ({} errors, {} cached) in {:.1} ms",
        report.records.len(),
        report.error_count(),
        report.cached,
        wall.as_secs_f64() * 1e3
    );
    if let Some((addr, retries, worker_cells)) = service {
        let shards: Vec<String> = worker_cells
            .iter()
            .map(|(w, c)| format!("w{w}:{c}"))
            .collect();
        println!(
            "via {addr}: {} worker(s) [{}], {retries} lease retrie(s)",
            worker_cells.len(),
            shards.join(" ")
        );
    }
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_jsonl()).unwrap_or_else(|e| bail(&format!("{path}: {e}")));
        println!("wrote {path}");
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, report.to_csv()).unwrap_or_else(|e| bail(&format!("{path}: {e}")));
        println!("wrote {path}");
    }
}

fn parse_int(s: &str, flag: &str) -> usize {
    s.parse()
        .unwrap_or_else(|_| bail(&format!("{flag} expects an integer, got {s:?}")))
}

// ---------------------------------------------------------------------------
// harness serve / harness work (the campaign service)
// ---------------------------------------------------------------------------

/// `harness serve`: run the crash-tolerant campaign coordinator. Blocks
/// until killed; `--workers N` spawns N `harness work` child processes
/// against the bound address (they die with the coordinator since their
/// connection drops).
fn cmd_serve(args: &[String]) {
    let mut opts = gtd_serve::ServeOptions::default();
    let mut workers = 0usize;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => opts.listen = flag_value(&mut it, "--listen"),
            "--workers" => workers = parse_int(&flag_value(&mut it, "--workers"), "--workers"),
            "--cache" => opts.cache_path = Some(flag_value(&mut it, "--cache").into()),
            "--resume-from" => {
                let path = flag_value(&mut it, "--resume-from");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| bail(&format!("{path}: {e}")));
                let records =
                    gtd_bench::parse_jsonl(&text).unwrap_or_else(|e| bail(&format!("{path}: {e}")));
                opts.seed.extend(records);
            }
            "--lease-ms" => {
                opts.lease_override = Some(std::time::Duration::from_millis(parse_int(
                    &flag_value(&mut it, "--lease-ms"),
                    "--lease-ms",
                )
                    as u64))
            }
            "--lease-max-ms" => {
                opts.lease_max = Some(std::time::Duration::from_millis(parse_int(
                    &flag_value(&mut it, "--lease-max-ms"),
                    "--lease-max-ms",
                ) as u64))
            }
            "--max-attempts" => {
                opts.max_attempts =
                    parse_int(&flag_value(&mut it, "--max-attempts"), "--max-attempts") as u32;
                if opts.max_attempts == 0 {
                    bail("--max-attempts must be at least 1");
                }
            }
            other => bail(&format!(
                "unknown serve flag {other:?} (see `harness help`)"
            )),
        }
    }
    let handle = match gtd_serve::serve(opts) {
        Ok(h) => h,
        Err(e) => bail(&format!("serve: {e}")),
    };
    println!("serving on {}", handle.addr);
    let exe = std::env::current_exe().unwrap_or_else(|e| bail(&format!("current_exe: {e}")));
    for _ in 0..workers {
        // Workers live as long as the service itself: `handle.wait()`
        // below never returns, so there is no point at which to reap
        // them — they exit on their own when the coordinator dies and
        // the connection drops.
        #[allow(clippy::zombie_processes)]
        std::process::Command::new(&exe)
            .args(["work", "--connect", &handle.addr.to_string()])
            .spawn()
            .unwrap_or_else(|e| bail(&format!("spawn worker: {e}")));
    }
    handle.wait();
}

/// `harness work`: run one worker against a coordinator until it goes
/// away or sends `shutdown`. The initial connection retries with capped
/// exponential backoff (deterministic jitter), so a worker may be
/// started *before* its coordinator.
fn cmd_work(args: &[String]) {
    let mut connect: Option<String> = None;
    let mut retries = 5u32;
    let mut backoff_ms = 200u64;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(flag_value(&mut it, "--connect")),
            "--connect-retries" => {
                retries = parse_int(
                    &flag_value(&mut it, "--connect-retries"),
                    "--connect-retries",
                ) as u32
            }
            "--connect-backoff-ms" => {
                backoff_ms = parse_int(
                    &flag_value(&mut it, "--connect-backoff-ms"),
                    "--connect-backoff-ms",
                ) as u64
            }
            other => bail(&format!("unknown work flag {other:?} (see `harness help`)")),
        }
    }
    let addr = connect.unwrap_or_else(|| bail("work needs --connect ADDR"));
    match gtd_serve::run_worker_with_retry(&addr, retries, backoff_ms) {
        Ok(cells) => println!("worker done: {cells} cell(s) executed"),
        Err(e) => bail(&format!("work: {e}")),
    }
}

// ---------------------------------------------------------------------------
// harness compare
// ---------------------------------------------------------------------------

/// One side's samples for a (spec, mapper, mode) group.
#[derive(Default)]
struct GroupSamples {
    rounds: Vec<u64>,
    remap: Vec<u64>,
    errors: usize,
    /// Informational only — delivery/fault counters are reported in the
    /// comparison table but never flag a group as REGRESSED on their
    /// own: a faulted schedule is *expected* to drop and delay.
    dropped: u64,
    fault_dropped: u64,
    fault_delayed: u64,
    retries: u64,
}

impl GroupSamples {
    /// Compact informational cell: summed delivery/fault counters, or
    /// `-` when the side recorded none (e.g. a pre-fault-schema file).
    fn fault_column(&self) -> String {
        let parts: Vec<String> = [
            ("drop", self.dropped),
            ("lost", self.fault_dropped),
            ("late", self.fault_delayed),
            ("retry", self.retries),
        ]
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
        if parts.is_empty() {
            "-".into()
        } else {
            parts.join(" ")
        }
    }
}

/// One compare group's identity: (spec, mapper, mode, policy).
type GroupKey = (String, String, String, String);

/// Parse a grid JSONL export body into per-(spec, mapper, mode, policy)
/// samples, via the same record parser the incremental cache uses
/// ([`RunRecord::from_json`]). Rows of other shapes (e.g. `harness run
/// --json` experiment rows) are skipped, so mixed files degrade
/// gracefully; rows predating the policy axis default to `lazy` (its
/// historical value), and rows predating the fault schema simply
/// contribute no fault counters. A row that names a grid group but
/// fails full record parsing (an error kind or field this build does
/// not know) still counts as an error in its group — a foreign failed
/// cell must never vanish from a regression comparison.
fn parse_grid_rows(
    text: &str,
) -> Result<std::collections::BTreeMap<GroupKey, GroupSamples>, String> {
    let mut groups: std::collections::BTreeMap<GroupKey, GroupSamples> =
        std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = JsonValue::parse(line).map_err(|e| format!("{}: not JSON: {e}", lineno + 1))?;
        let key = |row: &JsonValue| -> Option<GroupKey> {
            Some((
                str_field(row, "spec")?,
                str_field(row, "mapper")?,
                str_field(row, "mode")?,
                str_field(row, "policy").unwrap_or_else(|| "lazy".into()),
            ))
        };
        match RunRecord::from_json(&row) {
            Some(rec) => {
                let g = groups
                    .entry((
                        rec.spec,
                        rec.mapper,
                        rec.mode.name().to_string(),
                        rec.policy.name().to_string(),
                    ))
                    .or_default();
                match rec.result {
                    Ok(cell) => {
                        g.rounds.push(cell.rounds);
                        if let Some(r) = &cell.remap {
                            g.remap.extend(r.latencies.iter().flatten());
                        }
                        g.dropped += cell.dropped.unwrap_or(0);
                        g.fault_dropped += cell.fault_dropped.unwrap_or(0);
                        g.fault_delayed += cell.fault_delayed.unwrap_or(0);
                        g.retries += u64::from(cell.retries.unwrap_or(0));
                    }
                    Err(_) => g.errors += 1,
                }
            }
            None => {
                if let Some(k) = key(&row) {
                    // a grid row this build cannot fully parse: keep its
                    // failure visible instead of dropping the cell
                    groups.entry(k).or_default().errors += 1;
                }
            }
        }
    }
    Ok(groups)
}

/// [`parse_grid_rows`] over a file, bailing with the path on any error.
fn load_grid_jsonl(path: &str) -> std::collections::BTreeMap<GroupKey, GroupSamples> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| bail(&format!("{path}: {e}")));
    parse_grid_rows(&text).unwrap_or_else(|e| bail(&format!("{path}:{e}")))
}

/// `harness compare old.jsonl new.jsonl`: per-(spec, mapper, mode)
/// round/remap-latency deltas with regression flagging. Purely a report
/// over the byte-stable grid exports — exit code 1 when any group
/// regressed beyond the threshold.
fn cmd_compare(args: &[String]) {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 0.0f64;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = flag_value(&mut it, "--threshold");
                threshold = v.parse().unwrap_or_else(|_| {
                    bail(&format!("--threshold expects a percentage, got {v:?}"))
                });
            }
            other if other.starts_with("--") => bail(&format!(
                "unknown compare flag {other:?} (see `harness help`)"
            )),
            path => paths.push(path.to_string()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        bail("compare takes exactly two JSONL files (see `harness help`)");
    };
    let mut old = load_grid_jsonl(old_path);
    let mut new = load_grid_jsonl(new_path);
    if old.is_empty() {
        bail(&format!("{old_path}: no grid rows found"));
    }
    if new.is_empty() {
        bail(&format!("{new_path}: no grid rows found"));
    }

    let keys: Vec<GroupKey> = old
        .keys()
        .chain(new.keys())
        .cloned()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut t = Table::new(&[
        "spec",
        "mapper",
        "mode",
        "policy",
        "old",
        "new",
        "delta",
        "delta %",
        "remap old",
        "remap new",
        "faults old",
        "faults new",
        "flag",
    ]);
    let fmt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
    let mut regressions = 0usize;
    let mut missing = 0usize;
    for key in keys {
        let (o, n) = (old.remove(&key), new.remove(&key));
        let (spec, mapper, mode, policy) = key;
        let row = |t: &mut Table,
                   o_med,
                   n_med,
                   o_remap,
                   n_remap,
                   o_faults: String,
                   n_faults: String,
                   flag: String| {
            let (delta, pct) = match (o_med, n_med) {
                (Some(a), Some(b)) => (
                    format!("{:+}", b as i64 - a as i64),
                    if a > 0 {
                        format!("{:+.1}", (b as f64 - a as f64) / a as f64 * 100.0)
                    } else {
                        "-".into()
                    },
                ),
                _ => ("-".into(), "-".into()),
            };
            t.row(vec![
                spec.clone(),
                mapper.clone(),
                mode.clone(),
                policy.clone(),
                fmt(o_med),
                fmt(n_med),
                delta,
                pct,
                fmt(o_remap),
                fmt(n_remap),
                o_faults,
                n_faults,
                flag,
            ]);
        };
        match (o, n) {
            (Some(mut o), Some(mut n)) => {
                let (o_med, n_med) = (
                    gtd_bench::campaign::lower_median(&mut o.rounds),
                    gtd_bench::campaign::lower_median(&mut n.rounds),
                );
                let (o_remap, n_remap) = (
                    gtd_bench::campaign::lower_median(&mut o.remap),
                    gtd_bench::campaign::lower_median(&mut n.remap),
                );
                let worse = |a: Option<u64>, b: Option<u64>| match (a, b) {
                    (Some(a), Some(b)) => (b as f64) > (a as f64) * (1.0 + threshold / 100.0),
                    _ => false,
                };
                // Fault counters stay informational: a schedule that
                // drops more characters is not by itself a regression.
                let regressed =
                    worse(o_med, n_med) || worse(o_remap, n_remap) || n.errors > o.errors;
                if regressed {
                    regressions += 1;
                }
                row(
                    &mut t,
                    o_med,
                    n_med,
                    o_remap,
                    n_remap,
                    o.fault_column(),
                    n.fault_column(),
                    if regressed {
                        "REGRESSED".into()
                    } else {
                        String::new()
                    },
                );
            }
            (Some(mut o), None) => {
                missing += 1;
                let (o_med, o_remap) = (
                    gtd_bench::campaign::lower_median(&mut o.rounds),
                    gtd_bench::campaign::lower_median(&mut o.remap),
                );
                row(
                    &mut t,
                    o_med,
                    None,
                    o_remap,
                    None,
                    o.fault_column(),
                    "-".into(),
                    "only in old".into(),
                );
            }
            (None, Some(mut n)) => {
                missing += 1;
                let (n_med, n_remap) = (
                    gtd_bench::campaign::lower_median(&mut n.rounds),
                    gtd_bench::campaign::lower_median(&mut n.remap),
                );
                row(
                    &mut t,
                    None,
                    n_med,
                    None,
                    n_remap,
                    "-".into(),
                    n.fault_column(),
                    "only in new".into(),
                );
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    print!("{}", t.render());
    println!(
        "{regressions} regression(s), {missing} group(s) present on one side only \
         (threshold {threshold}%)"
    );
    if regressions > 0 {
        exit(1);
    }
}

// ---------------------------------------------------------------------------
// harness bench (engine throughput records)
// ---------------------------------------------------------------------------

/// One perf measurement: deterministic tick count plus median wall time.
struct BenchMeasure {
    ticks: u64,
    median_secs: f64,
}

/// Run `f` `reps` times and keep the median wall time. `f` times its own
/// measured section (returning `(ticks, seconds)`), so engine
/// construction and warm-up ticks stay outside the recorded window.
fn measure(reps: usize, mut f: impl FnMut() -> (u64, f64)) -> BenchMeasure {
    let mut ticks = 0;
    let mut walls: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let (t, secs) = f();
        ticks = t;
        walls.push(secs);
    }
    walls.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    BenchMeasure {
        ticks,
        median_secs: walls[(walls.len() - 1) / 2],
    }
}

/// Time one closure, returning its result and elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in KiB: `VmHWM` from
/// `/proc/self/status`. Returns 0 where the file or field is missing
/// (non-Linux), keeping the JSONL schema stable everywhere. The value is
/// a process-wide high-water mark, so within one bench run it is
/// monotone across regimes — the biggest regime runs last so the smaller
/// rows stay meaningful.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// `harness bench`: engine workloads as machine-readable perf records —
/// median ticks/sec per spec × mode — written as grid-shaped
/// JSONL rows (default `BENCH_engine.json`) so `harness compare` can gate
/// the deterministic tick counts against a committed baseline while the
/// wall-time fields track the perf trajectory.
///
/// Seven regimes:
/// * full protocol runs (`ring:64`) — session-driven, lull-skipping;
/// * a quiet-heavy stepping window (`ring:1024` mid-GTD) — the regime the
///   event-driven frontier exists for: it pays O(active) per tick, not
///   O(N);
/// * flood-saturated windows (`random-sc:4096` and `random-sc:16384`
///   during an IG flood) — the regimes the sharded parallel mode exists
///   for, the larger one with real fan-out headroom;
/// * a dynamic timeline with a far-future mutation — exercising the O(1)
///   idle fast-forward;
/// * a chaos run (`ring:8~loss=0.0005~fault-seed=2`) — the resilient
///   session retrying through a lossy wire until a drop-free attempt
///   verifies, pricing the whole retry loop;
/// * a million-node flood window (`random-sc:1000000`, last so the
///   process-wide RSS high-water mark doesn't bleed into smaller rows) —
///   the memory regime the CSR/slab layout exists for.
///
/// Every row carries `peak_rss_kb` (0 off-Linux); `harness compare`
/// ignores it like the wall-time fields — informational, never
/// REGRESSED.
fn cmd_bench(args: &[String]) {
    let mut json_path = String::from("BENCH_engine.json");
    let mut reps = 3usize;
    let mut window = 50_000u64;
    let mut modes: Vec<EngineMode> = EngineMode::ALL.to_vec();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = flag_value(&mut it, "--json"),
            "--reps" => reps = parse_int(&flag_value(&mut it, "--reps"), "--reps").max(1),
            "--window" => window = parse_int(&flag_value(&mut it, "--window"), "--window") as u64,
            "--modes" => {
                match flag_value(&mut it, "--modes")
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<EngineMode>, String>>()
                {
                    Ok(m) if !m.is_empty() => modes = m,
                    Ok(_) => bail("--modes needs at least one engine mode"),
                    Err(e) => bail(&e),
                }
            }
            other => bail(&format!(
                "unknown bench flag {other:?} (see `harness help`)"
            )),
        }
    }

    let mut t = Table::new(&[
        "workload",
        "driver",
        "mode",
        "ticks",
        "wall ms",
        "Mticks/s",
        "vs dense",
        "peak RSS MB",
    ]);
    let mut rows: Vec<String> = Vec::new();
    let mut bench_workload =
        |spec: &str, driver: &str, run_one: &mut dyn FnMut(EngineMode) -> (u64, f64)| {
            let topo: DynamicSpec = spec
                .parse()
                .unwrap_or_else(|e| bail(&format!("{spec}: {e}")));
            let built = topo.build();
            let mut dense_tps = 0.0f64;
            for &mode in &modes {
                let m = measure(reps, || run_one(mode));
                let tps = m.ticks as f64 / m.median_secs;
                if mode == EngineMode::Dense {
                    dense_tps = tps;
                }
                // With `--modes` excluding dense there is no reference
                // run; the ratio degrades to 1.0 (compare ignores it).
                let speedup = if dense_tps > 0.0 {
                    tps / dense_tps
                } else {
                    1.0
                };
                let rss_kb = peak_rss_kb();
                t.row(vec![
                    spec.to_string(),
                    driver.to_string(),
                    mode.name().into(),
                    m.ticks.to_string(),
                    format!("{:.2}", m.median_secs * 1e3),
                    format!("{:.2}", tps / 1e6),
                    if dense_tps > 0.0 {
                        format!("{speedup:.1}x")
                    } else {
                        "n/a".into()
                    },
                    format!("{:.0}", rss_kb as f64 / 1024.0),
                ]);
                // Grid-shaped so `harness compare` groups and gates the
                // deterministic `rounds`; the "bench" marker keeps
                // `grid --resume-from` from ever mistaking a perf row
                // for a campaign cell ("verified" is schema filler the
                // parser requires — the closures assert correctness
                // themselves where a map exists).
                let row = json!({
                    "bench": "engine",
                    "spec": spec,
                    "mapper": driver,
                    "mode": mode.name(),
                    "policy": "lazy",
                    "root": 0u32,
                    "rep": 0usize,
                    "n": built.num_nodes(),
                    "e": built.num_edges(),
                    "ok": true,
                    "rounds": m.ticks,
                    "verified": true,
                    "wall_ms": m.median_secs * 1e3,
                    "ticks_per_sec": tps,
                    "speedup_vs_dense": speedup,
                    "peak_rss_kb": rss_kb,
                });
                rows.push(row.render());
            }
        };

    // Full protocol runs: lull-skipping session on a small quiet-heavy
    // ring. The timed window is the session run itself (engine build
    // included — it is part of what a mapping costs); the map is
    // verified outside it.
    {
        let topo = TopologySpec::Ring { n: 64 }.build();
        bench_workload("ring:64", "gtd", &mut |mode| {
            let (run, secs) = timed(|| {
                GtdSession::on(&topo)
                    .mode(mode)
                    .capture_transcript(false)
                    .run()
                    .expect("terminates")
            });
            run.map.verify_against(&topo, NodeId(0)).expect("exact map");
            (run.ticks, secs)
        });
    }
    // Quiet-heavy stepping window: raw per-tick engine cost mid-GTD on a
    // big ring — snakes crawl a few wires per tick while 1000+ processors
    // idle. The frontier pays O(active) per tick, not O(N).
    // Construction stays outside the timed window.
    {
        let topo = TopologySpec::Ring { n: 1024 }.build();
        bench_workload("ring:1024", "engine", &mut |mode| {
            let mut engine = gtd_core::build_gtd_engine(&topo, mode);
            let mut events = Vec::new();
            let ((), secs) = timed(|| {
                for _ in 0..window {
                    engine.tick(&mut events);
                }
            });
            events.clear();
            (window, secs)
        });
    }
    // Flood-saturated windows: every node active every tick, at two
    // scales — 4096 is the historical baseline, 16384
    // is where parallel fan-out headroom is real. Construction and the
    // 20 saturation ticks stay outside the timed window, which spans
    // ticks 20..60.
    for n in [4096, 16384] {
        let spec = TopologySpec::RandomSc {
            n,
            delta: 3,
            seed: 9,
        };
        let topo = spec.build();
        bench_workload(&spec.to_string(), "engine", &mut |mode| {
            let mut engine = gtd_netsim::Engine::new(&topo, mode, |meta| {
                let start = if meta.id == NodeId(1) {
                    gtd_core::StartBehavior::SingleRca
                } else {
                    gtd_core::StartBehavior::Passive
                };
                gtd_core::ProtocolNode::new(&meta, start)
            });
            let mut events = Vec::new();
            for _ in 0..20 {
                engine.tick(&mut events); // let the IG flood saturate
            }
            // Measure inside the saturated phase only: by ~tick 70 the
            // KILL flood has erased the growing snakes and the network
            // quiesces, which would measure idling, not flooding.
            let steps = 40u64;
            let ((), secs) = timed(|| {
                for _ in 0..steps {
                    engine.tick(&mut events);
                }
            });
            events.clear();
            (steps, secs)
        });
    }
    // Dynamic timeline with a far-future mutation: the engine idles to
    // tick 250k in O(1) via the frontier's lull fast-forward. The timed
    // window is the whole timeline; correctness asserted outside it.
    {
        let spec: DynamicSpec = "ring:64+add-edge=1@t250000"
            .parse()
            .expect("literal spec parses");
        let topo = spec.build();
        bench_workload(&spec.to_string(), "gtd", &mut |mode| {
            let (out, secs) = timed(|| {
                GtdSession::on(&topo)
                    .mode(mode)
                    .capture_transcript(false)
                    .run_dynamic(&spec.schedule)
                    .expect("timeline completes")
            });
            assert!(out.final_verified(), "final map must verify");
            (out.total_ticks, secs)
        });
    }
    // Chaos regime: a lossy ring driven through the resilient session
    // path. The fault hash is stateless, so the retry schedule — two
    // wedged attempts, then a drop-free third that verifies — and the
    // winning attempt's tick count are deterministic across modes and
    // reps (compare-gateable); the wall window prices the whole
    // retry loop, wasted attempts included, which is what a mapping
    // costs on an unreliable network.
    {
        let spec: DynamicSpec = "ring:8~loss=0.0005~fault-seed=2"
            .parse()
            .expect("literal spec parses");
        let topo = spec.build();
        bench_workload(&spec.to_string(), "gtd", &mut |mode| {
            let (res, secs) = timed(|| {
                GtdSession::on(&topo)
                    .mode(mode)
                    .capture_transcript(false)
                    .faults(spec.fault)
                    .max_retries(3)
                    .run_resilient()
                    .expect("well-formed session")
            });
            assert!(res.verified(), "hunted fault seed must verify");
            assert!(
                res.retries() > 0,
                "chaos regime must exercise the retry path"
            );
            (res.ticks, secs)
        });
    }
    // Million-node flood window: the memory regime. A full map is out of
    // budget here; a short saturating window is enough to charge the
    // whole CSR topology + SoA automaton state against peak RSS and to
    // track per-tick cost at scale. Runs last because VmHWM is a
    // process-wide high-water mark.
    {
        let spec = TopologySpec::RandomSc {
            n: 1_000_000,
            delta: 3,
            seed: 9,
        };
        let topo = spec.build();
        bench_workload(&spec.to_string(), "engine", &mut |mode| {
            let mut engine = gtd_netsim::Engine::new(&topo, mode, |meta| {
                let start = if meta.id == NodeId(1) {
                    gtd_core::StartBehavior::SingleRca
                } else {
                    gtd_core::StartBehavior::Passive
                };
                gtd_core::ProtocolNode::new(&meta, start)
            });
            let mut events = Vec::new();
            // ~2 ticks of dwell per hop and log₃(10⁶) ≈ 13 hops: 30
            // warm-up ticks reach the whole graph, so the window (and
            // the RSS high-water mark) measures the saturated state.
            for _ in 0..30 {
                engine.tick(&mut events);
            }
            let steps = 10u64;
            let ((), secs) = timed(|| {
                for _ in 0..steps {
                    engine.tick(&mut events);
                }
            });
            events.clear();
            (steps, secs)
        });
    }

    print!("{}", t.render());
    println!("ticks are deterministic (compare-gateable); wall times are this machine's.");
    let mut file = rows.join("\n");
    file.push('\n');
    std::fs::write(&json_path, file).unwrap_or_else(|e| bail(&format!("{json_path}: {e}")));
    println!("wrote {json_path} ({reps} rep(s), window {window})");
}

// ---------------------------------------------------------------------------
// harness run (the E1–E7 experiments)
// ---------------------------------------------------------------------------

struct Out {
    json: Option<std::fs::File>,
}

impl Out {
    fn section(&mut self, title: &str) {
        println!("\n=== {title} ===");
    }
    fn table(&mut self, t: &Table) {
        print!("{}", t.render());
    }
    fn json(&mut self, line: String) {
        if let Some(f) = &mut self.json {
            writeln!(f, "{line}").expect("write json row");
        }
    }
}

fn cmd_run(args: &[String]) {
    let mut scale = 1usize;
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_int(&flag_value(&mut it, "--scale"), "--scale"),
            "--json" => json_path = Some(flag_value(&mut it, "--json")),
            other if other.starts_with("--") => {
                bail(&format!("unknown run flag {other:?} (see `harness help`)"))
            }
            other => {
                let id = other.to_lowercase();
                if !matches!(id.as_str(), "e1" | "e2" | "e3" | "e4" | "e5" | "e6" | "e7") {
                    bail(&format!("unknown experiment {other:?} (e1 .. e7)"));
                }
                wanted.push(id);
            }
        }
    }
    let run_all = wanted.is_empty();
    let want = |k: &str, wanted: &[String]| run_all || wanted.iter().any(|w| w == k);
    let mut out = Out {
        json: json_path.map(|p| std::fs::File::create(p).expect("create json file")),
    };

    if want("e1", &wanted) {
        e1_correctness(&mut out, scale);
    }
    if want("e2", &wanted) {
        e2_scaling(&mut out, scale);
    }
    if want("e3", &wanted) {
        e3_rca(&mut out, scale);
    }
    if want("e4", &wanted) {
        e4_bca(&mut out, scale);
    }
    if want("e5", &wanted) {
        e5_cleanup(&mut out, scale);
    }
    if want("e6", &wanted) {
        e6_lower_bound(&mut out, scale);
    }
    if want("e7", &wanted) {
        e7_baselines(&mut out, scale);
    }
}

/// The E1/E7 workload axis: the core families plus four random digraphs.
fn e1_specs(scale: usize) -> Vec<TopologySpec> {
    let mut specs = core_family_specs(scale);
    for seed in 0..4u64 {
        specs.push(TopologySpec::RandomSc {
            n: 48 * scale,
            delta: 4,
            seed,
        });
    }
    specs
}

/// E1 (Theorem 4.1): exact port-level map on every family × seed,
/// expressed as a one-mapper campaign over the workload axis.
fn e1_correctness(out: &mut Out, scale: usize) {
    out.section("E1 — Theorem 4.1: the root maps the network exactly");
    let specs = e1_specs(scale);
    let report = Campaign::new()
        .specs(specs.clone())
        .mappers(["gtd"])
        .jobs(0)
        .run()
        .expect("E1 grid is well-formed");
    let mut t = Table::new(&["workload", "N", "E", "D", "ticks", "map", "clean (L4.2)"]);
    // one cell per spec (single mapper/mode/root/rep), in spec order
    assert_eq!(report.records.len(), specs.len());
    for (spec, rec) in specs.iter().zip(&report.records) {
        assert_eq!(rec.spec, spec.to_string());
        let cell = rec
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: protocol failed: {e}", rec.spec));
        let d = algo::diameter(&spec.build());
        t.row(vec![
            rec.spec.clone(),
            rec.nodes.to_string(),
            rec.edges.to_string(),
            d.to_string(),
            cell.rounds.to_string(),
            if cell.verified {
                "exact".into()
            } else {
                "WRONG".into()
            },
            match cell.clean {
                Some(true) => "yes".into(),
                _ => "NO".into(),
            },
        ]);
        out.json(json_line(
            "E1",
            json!({
                "workload": rec.spec, "n": rec.nodes, "e": rec.edges,
                "d": d, "ticks": cell.rounds, "exact": cell.verified,
                "clean": cell.clean,
            }),
        ));
    }
    out.table(&t);
}

/// E2 (Lemma 4.4): total ticks scale as O(E·D).
fn e2_scaling(out: &mut Out, scale: usize) {
    out.section("E2 — Lemma 4.4: GTD terminates in O(N·D) (measured against E·D)");
    let mut t = Table::new(&[
        "workload",
        "N",
        "E",
        "D",
        "ticks",
        "ticks/(E*D)",
        "ticks/(N*D)",
    ]);
    let mut specs: Vec<TopologySpec> = Vec::new();
    for k in 1..=3usize {
        specs.push(TopologySpec::Ring { n: 16 * k * scale });
    }
    for k in 1..=3usize {
        specs.push(TopologySpec::RandomSc {
            n: 48 * k * scale,
            delta: 3,
            seed: 5,
        });
    }
    for m in 4..=6usize {
        specs.push(TopologySpec::Debruijn { k: 2, m });
    }
    for w in specs.into_iter().map(Workload::from_spec) {
        let d = algo::diameter(&w.topo) as f64;
        let e = w.topo.num_edges() as f64;
        let n = w.topo.num_nodes() as f64;
        let run = GtdSession::on(&w.topo).run().expect("terminates");
        run.map.verify_against(&w.topo, NodeId(0)).expect("exact");
        t.row(vec![
            w.name(),
            n.to_string(),
            e.to_string(),
            d.to_string(),
            run.ticks.to_string(),
            format!("{:.1}", run.ticks as f64 / (e * d)),
            format!("{:.1}", run.ticks as f64 / (n * d)),
        ]);
        out.json(json_line(
            "E2",
            json!({
                "workload": w.name(), "n": n, "e": e, "d": d, "ticks": run.ticks,
            }),
        ));
    }
    out.table(&t);
    println!("shape check: ticks/(E*D) should stay in a narrow constant band.");

    // E2b — the anatomy of the constant: where do the ~33 ticks per
    // edge-diameter go? Phase shares straight off the session's breakdown.
    let mut t = Table::new(&[
        "workload",
        "RCAs",
        "search %",
        "echo %",
        "mark %",
        "report+cleanup %",
    ]);
    for spec in [
        TopologySpec::Ring {
            n: 24 * scale.min(4),
        },
        TopologySpec::RandomSc {
            n: 48 * scale,
            delta: 3,
            seed: 5,
        },
        TopologySpec::Debruijn { k: 2, m: 5 },
    ] {
        let w = Workload::from_spec(spec);
        let pb = GtdSession::on(&w.topo).run().expect("terminates").phases;
        let tot = pb.total().max(1) as f64;
        t.row(vec![
            w.name(),
            pb.rcas.to_string(),
            format!("{:.0}", pb.search as f64 / tot * 100.0),
            format!("{:.0}", pb.echo as f64 / tot * 100.0),
            format!("{:.0}", pb.mark as f64 / tot * 100.0),
            format!("{:.0}", pb.report_cleanup as f64 / tot * 100.0),
        ]);
        out.json(json_line(
            "E2b",
            json!({
                "workload": w.name(), "rcas": pb.rcas, "search": pb.search,
                "echo": pb.echo, "mark": pb.mark, "cleanup": pb.report_cleanup,
            }),
        ));
    }
    out.table(&t);
    println!("echo = OG+ID round trip; mark = conversions; report+cleanup = OD");
    println!("marking + loop token + KILL + UNMARK circuits (plus the next RCA's");
    println!("IG transit when RCAs are back-to-back; search = remaining idle gaps).");
}

/// E3 (Lemma 4.3): one RCA costs O(D) — linear in the marked-loop length.
fn e3_rca(out: &mut Out, scale: usize) {
    out.section("E3 — Lemma 4.3: a single RCA is linear in d(A,root)+d(root,A)");
    let mut t = Table::new(&["workload", "loop len L", "ticks", "ticks/L"]);
    for k in 1..=6usize {
        let n = 8 * k * scale;
        let topo = generators::ring(n);
        let probe = run_single_rca(&topo, NodeId(n as u32 / 2), EngineMode::Sparse).unwrap();
        let l = (probe.dist_to_root + probe.dist_from_root) as f64;
        t.row(vec![
            format!("ring:{n}, A at n/2"),
            format!("{l}"),
            probe.ticks.to_string(),
            format!("{:.2}", probe.ticks as f64 / l),
        ]);
        out.json(json_line(
            "E3",
            json!({"workload": format!("ring:{n}"), "loop": l, "ticks": probe.ticks}),
        ));
    }
    for k in 1..=6usize {
        let n = 8 * k * scale;
        let topo = generators::line_bidi(n);
        let a = NodeId(n as u32 - 1);
        let probe = run_single_rca(&topo, a, EngineMode::Sparse).unwrap();
        let l = (probe.dist_to_root + probe.dist_from_root) as f64;
        t.row(vec![
            format!("line-bidi:{n}, A at end"),
            format!("{l}"),
            probe.ticks.to_string(),
            format!("{:.2}", probe.ticks as f64 / l),
        ]);
        out.json(json_line(
            "E3",
            json!({"workload": format!("line-bidi:{n}"), "loop": l, "ticks": probe.ticks}),
        ));
    }
    out.table(&t);
    println!("shape check: ticks/L converges to a constant (speed-1 + token circuits).");
}

/// E4 (BCA contract): one BCA costs O(D).
fn e4_bca(out: &mut Out, scale: usize) {
    out.section("E4 — BCA contract: one backwards send is linear in the loop length");
    let mut t = Table::new(&["workload", "loop len", "B done", "delivered", "ticks/loop"]);
    for k in 1..=6usize {
        let n = 8 * k * scale;
        let topo = generators::ring(n);
        // node 1 sends backwards to node 0 through its only in-port: the
        // marked loop is the whole ring.
        let probe = run_single_bca(&topo, NodeId(1), Port(0), EngineMode::Sparse).unwrap();
        t.row(vec![
            format!("ring:{n}, B=n1"),
            probe.loop_len.to_string(),
            probe.ticks_initiator.to_string(),
            probe.ticks_delivered.to_string(),
            format!(
                "{:.2}",
                probe.ticks_delivered as f64 / probe.loop_len as f64
            ),
        ]);
        out.json(json_line(
            "E4",
            json!({
                "workload": format!("ring:{n}"), "loop": probe.loop_len,
                "initiator": probe.ticks_initiator, "delivered": probe.ticks_delivered,
            }),
        ));
    }
    out.table(&t);
    println!("shape check: delivered/loop converges to a constant.");
}

/// E5 (Lemma 4.2): the network is left undisturbed.
fn e5_cleanup(out: &mut Out, scale: usize) {
    out.section("E5 — Lemma 4.2: every RCA/BCA leaves the network undisturbed");
    let mut t = Table::new(&[
        "workload",
        "RCAs",
        "BCAs",
        "kills accepted",
        "max chars/node",
        "pristine at end",
    ]);
    for w in core_family_specs(scale)
        .into_iter()
        .map(Workload::from_spec)
    {
        let mut engine = gtd_core::build_gtd_engine(&w.topo, EngineMode::Sparse);
        let mut events = Vec::new();
        let mut terminated = false;
        for _ in 0..200_000_000u64 {
            events.clear();
            engine.tick(&mut events);
            if events
                .iter()
                .any(|&(_, ev)| ev == TranscriptEvent::Terminated)
            {
                terminated = true;
                break;
            }
        }
        assert!(terminated, "{} wedged", w.name());
        engine.tick(&mut events);
        let rcas: u64 = engine.nodes().iter().map(|n| n.stat_rcas_started()).sum();
        let bcas: u64 = engine.nodes().iter().map(|n| n.stat_bcas_started()).sum();
        let kills: u64 = engine.nodes().iter().map(|n| n.stat_kills_accepted()).sum();
        let maxc: u64 = engine
            .nodes()
            .iter()
            .map(|n| n.stat_max_chars())
            .max()
            .unwrap_or(0);
        let pristine = engine.nodes().iter().all(|n| n.snake_state_pristine())
            && engine.signals_in_flight() == 0;
        t.row(vec![
            w.name(),
            rcas.to_string(),
            bcas.to_string(),
            kills.to_string(),
            maxc.to_string(),
            if pristine { "yes".into() } else { "NO".into() },
        ]);
        out.json(json_line(
            "E5",
            json!({
                "workload": w.name(), "rcas": rcas, "bcas": bcas, "kills": kills,
                "max_chars": maxc, "pristine": pristine,
            }),
        ));
    }
    out.table(&t);
    println!("max chars/node bounds the finite-state claim (constant, not O(N)).");
}

/// E6 (Lemmas 5.1, 5.2 + Theorem 5.1): the counting lower bound vs GTD.
fn e6_lower_bound(out: &mut Out, scale: usize) {
    out.section("E6 — Theorem 5.1: Ω(N log N) lower bound vs measured GTD on the tree-loop family");
    let mut t = Table::new(&[
        "h",
        "N",
        "D",
        "log2 G(N)",
        "min ticks (T5.1)",
        "GTD ticks",
        "GTD/bound",
    ]);
    let hmax = 5 + scale.ilog2();
    for h in 2..=16u32 {
        let p = tree_loop_params(h);
        let run_protocol = h <= hmax;
        let (d, ticks) = if run_protocol {
            let topo = TopologySpec::TreeLoop { h, seed: 3 }.build();
            let d = algo::diameter(&topo);
            let run = GtdSession::on(&topo).run().expect("terminates");
            run.map.verify_against(&topo, NodeId(0)).expect("exact");
            (d.to_string(), Some(run.ticks))
        } else {
            // bound-only rows: the counting argument needs no simulation
            (format!("<={}", p.diameter_bound), None)
        };
        let bound = min_ticks_lower_bound(h);
        t.row(vec![
            h.to_string(),
            p.n.to_string(),
            d.clone(),
            format!("{:.0}", family_size_log2(h)),
            format!("{:.1}", bound),
            ticks.map_or("-".into(), |t| t.to_string()),
            ticks.map_or("-".into(), |t| format!("{:.1}", t as f64 / bound.max(1.0))),
        ]);
        out.json(json_line(
            "E6",
            json!({
                "h": h, "n": p.n, "d": d, "log2_g": family_size_log2(h),
                "min_ticks": bound, "gtd_ticks": ticks,
            }),
        ));
        if h >= 12 && !run_protocol {
            break;
        }
    }
    out.table(&t);
    println!("shape check: GTD/bound grows ~ like D (= O(log N) here), i.e. GTD is");
    println!("within an O(D) factor of optimal — the paper's asymptotic-optimality claim.");
}

/// E7: every mapper through the common `TopologyMapper` interface,
/// expressed as a full mappers × families campaign.
fn e7_baselines(out: &mut Out, scale: usize) {
    out.section("E7 — what finite-stateness costs: all mappers through TopologyMapper");
    let mappers = gtd_baselines::mapper_names();
    let report = Campaign::new()
        .specs(core_family_specs(scale))
        .mappers(mappers.clone())
        .jobs(0)
        .run()
        .expect("E7 grid is well-formed");
    // Ratio columns are derived from mapper names so reordering or
    // extending mapper_names() cannot silently mislabel them.
    let idx_of = |name: &str| mappers.iter().position(|m| *m == name);
    let gtd_idx = idx_of("gtd");
    let ratio_pairs: Vec<(String, usize, usize)> = ["routed-dfs", "flood-echo"]
        .iter()
        .filter_map(|base| {
            let (g, b) = (gtd_idx?, idx_of(base)?);
            Some((format!("gtd/{base}"), g, b))
        })
        .collect();
    let mut headers: Vec<String> = vec!["workload".into(), "N".into()];
    for m in &mappers {
        headers.push(format!("{m} rounds"));
    }
    for (label, _, _) in &ratio_pairs {
        headers.push(label.clone());
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    // Grid order is spec-major, mapper-minor: chunk per workload.
    for per_spec in report.records.chunks(mappers.len()) {
        // grid order is spec-major with default single mode/root/rep axes;
        // guard the chunking against a future extra axis on this campaign:
        // each window must hold one spec covering the mapper axis in order
        assert!(
            per_spec.len() == mappers.len()
                && per_spec
                    .iter()
                    .zip(&mappers)
                    .all(|(r, m)| r.spec == per_spec[0].spec && r.mapper == **m),
            "E7 chunking assumes one record per (spec, mapper)"
        );
        let mut rounds = Vec::new();
        for rec in per_spec {
            let cell = rec
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{} on {}: {e}", rec.mapper, rec.spec));
            assert!(cell.verified, "{} disagrees on {}", rec.mapper, rec.spec);
            out.json(json_line(
                "E7",
                json!({
                    "workload": rec.spec, "n": rec.nodes, "mapper": rec.mapper,
                    "rounds": cell.rounds, "messages": cell.messages,
                }),
            ));
            rounds.push(cell.rounds);
        }
        let first: &RunRecord = &per_spec[0];
        let mut row = vec![first.spec.clone(), first.nodes.to_string()];
        row.extend(rounds.iter().map(|r| r.to_string()));
        for &(_, g, b) in &ratio_pairs {
            row.push(format!("{:.1}", rounds[g] as f64 / rounds[b] as f64));
        }
        t.row(row);
    }
    out.table(&t);
    println!("expected shape: flood-echo wins by ~N x (unbounded bandwidth), routed-dfs");
    println!("by a constant factor (same O(E*D) walk without snake machinery).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `compare` must aggregate mixed-schema files: rows predating the
    /// fault schema (no `fault_*`/`retries` members, maybe no `policy`)
    /// land in the right group with empty fault counters, new-schema
    /// rows fold their counters in, `fault-degraded` rows count as
    /// errors, and grid-shaped rows this build cannot parse still count
    /// as errors instead of vanishing.
    #[test]
    fn parse_grid_rows_handles_mixed_schemas() {
        let text = concat!(
            // old schema: no policy member, PR-9 dropped counter only
            r#"{"spec":"ring:8","mapper":"gtd","mode":"dense","root":0,"rep":0,"n":8,"e":16,"ok":true,"rounds":100,"verified":true,"dropped":3}"#,
            "\n",
            // new schema: faulted spec with the full counter set
            r#"{"spec":"ring:8~loss=0.01~fault-seed=8","mapper":"gtd","mode":"dense","policy":"lazy","root":0,"rep":0,"n":8,"e":16,"ok":true,"rounds":120,"verified":true,"fault":"~loss=0.01~fault-seed=8","fault_dropped":2,"fault_delayed":1,"retries":1}"#,
            "\n",
            // new schema: structured degradation is an error in its group
            r#"{"spec":"ring:8~loss=1~fault-seed=1","mapper":"gtd","mode":"dense","policy":"lazy","root":0,"rep":0,"n":8,"e":16,"ok":false,"error_kind":"fault-degraded","error":"degraded to Exhausted after 3 retries"}"#,
            "\n",
            // not a grid row at all: skipped, not an error anywhere
            r#"{"experiment":"E1","claim":"lemma 4.1"}"#,
            "\n",
            // grid-shaped but unparseable here (future error kind):
            // still an error in its group
            r#"{"spec":"ring:8","mapper":"gtd","mode":"dense","ok":false,"error_kind":"from-the-future","error":"?"}"#,
            "\n",
        );
        let groups = parse_grid_rows(text).expect("well-formed JSONL parses");
        assert_eq!(groups.len(), 3, "three distinct (spec, …) groups");

        let plain = &groups[&("ring:8".into(), "gtd".into(), "dense".into(), "lazy".into())];
        assert_eq!(plain.rounds, vec![100]);
        assert_eq!(plain.errors, 1, "unparseable grid row stays visible");
        assert_eq!((plain.dropped, plain.fault_dropped), (3, 0));
        assert_eq!(plain.fault_column(), "drop=3");

        let faulted = &groups[&(
            "ring:8~loss=0.01~fault-seed=8".into(),
            "gtd".into(),
            "dense".into(),
            "lazy".into(),
        )];
        assert_eq!(faulted.rounds, vec![120]);
        assert_eq!(
            (
                faulted.fault_dropped,
                faulted.fault_delayed,
                faulted.retries
            ),
            (2, 1, 1)
        );
        assert_eq!(faulted.fault_column(), "lost=2 late=1 retry=1");

        let degraded = &groups[&(
            "ring:8~loss=1~fault-seed=1".into(),
            "gtd".into(),
            "dense".into(),
            "lazy".into(),
        )];
        assert_eq!((degraded.errors, degraded.rounds.len()), (1, 0));
        assert_eq!(degraded.fault_column(), "-", "no counters recorded");

        assert!(
            parse_grid_rows("not json\n").is_err(),
            "a malformed line is a file-level error, not a silent skip"
        );
    }
}
