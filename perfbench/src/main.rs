//! End-to-end and per-layer benchmark of the GTD reproduction.
//!
//! Drives only the public API of `gtd-netsim`, `gtd-core`,
//! `gtd-baselines`, `gtd-bench` and `gtd-serve`, and times those calls
//! from outside. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <map-random|rca-1m|grid-served>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it records spans around the layer calls and prints the
//! per-layer metrics instead. Human-readable lines start with `#`; the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod grid;
mod map;
mod mem;
mod rca;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Every end-to-end metric, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_ticks", "ticks"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed by every workload with `--trace 1`. A
/// layer the workload does not exercise at a public boundary reports 0
/// and its `#` line says `n=0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_us", "us"),
    ("topology.build_ms", "ms"),
    ("topology.rss_mb", "MB"),
    ("engine.build_ms", "ms"),
    ("engine.rss_mb", "MB"),
    ("engine.ticks_stepped", "count"),
    ("engine.ticks_skipped", "count"),
    ("engine.tick_us_p50", "us"),
    ("engine.tick_us_p95", "us"),
    ("engine.tick_s_total", "s"),
    ("engine.inflight_per_tick", "count"),
    ("engine.ns_per_signal", "ns"),
    ("engine.ns_per_proc_tick", "ns"),
    ("engine.shards", "count"),
    ("session.edge_ms_p50", "ms"),
    ("session.edge_ms_p95", "ms"),
    ("session.rcas", "count"),
    ("session.bcas", "count"),
    ("session.edges", "count"),
    ("session.phase_ticks.search", "ticks"),
    ("session.phase_ticks.echo", "ticks"),
    ("session.phase_ticks.mark", "ticks"),
    ("session.phase_ticks.report_cleanup", "ticks"),
    ("master.feed_ms_total", "ms"),
    ("master.decode_ms", "ms"),
    ("master.verify_ms", "ms"),
    ("mapper.gtd.cell_ms_p50", "ms"),
    ("mapper.routed-dfs.cell_ms_p50", "ms"),
    ("mapper.flood-echo.cell_ms_p50", "ms"),
    ("cell.static.cell_ms_p50", "ms"),
    ("cell.dynamic.cell_ms_p50", "ms"),
    ("cell.faulted.cell_ms_p50", "ms"),
    ("cell.retries", "count"),
    ("cell.fault_dropped", "count"),
    ("campaign.plan_ms", "ms"),
    ("campaign.render_us_p50", "us"),
    ("json.parse_us_p50", "us"),
    ("serve.first_row_ms", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p95", "ms"),
    ("serve.overhead_ms_per_cell", "ms"),
    ("serve.warm_row_gap_us_p50", "us"),
    ("serve.cached", "count"),
    ("serve.retries", "count"),
    ("grid.cells_per_s", "1/s"),
    ("grid.warm_cells_per_s", "1/s"),
    ("grid.cell_ms_p50", "ms"),
    ("grid.cell_ms_p95", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Workload names with their default seed.
pub const WORKLOADS: &[(&str, u64)] = &[("map-random", 1), ("rca-1m", 9), ("grid-served", 1)];

/// One invocation's settings.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time for the timed loop (set-up is extra).
    pub seconds: Duration,
    pub trace: bool,
}

/// Metrics, notes and the correctness ledger of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record metric `name` (must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not a declared metric");
        self.values.insert(name, value);
    }

    /// [`Report::set`] plus a `#` line with the sample count; `p` names
    /// the percentile when the value is one.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize, p: Option<f64>) {
        self.set(name, value);
        self.note(format!(
            "{name} = {} {} {}",
            sig(value),
            unit_of(name).unwrap_or(""),
            stats::annotate(n, p)
        ));
    }

    /// Record the median of `samples` as `name`, noting its quartiles.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        let spread = stats::quartiles(samples).map_or(String::new(), |[q1, _, q3]| {
            format!(", quartiles {} .. {}", sig(q1), sig(q3))
        });
        self.note(format!(
            "{name} = {} {} (median of n={}{spread})",
            sig(stats::median(samples)),
            unit_of(name).unwrap_or(""),
            samples.len()
        ));
    }

    /// Record the smallest of `samples` as `name`, noting the median too.
    pub fn set_min(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::min(samples));
        self.note(format!(
            "{name} = {} {} (fastest of n={}, median {})",
            sig(stats::min(samples)),
            unit_of(name).unwrap_or(""),
            samples.len(),
            sig(stats::median(samples))
        ));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation; a `Err` marks it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Print the `#` lines and the final JSON line for `trace` mode.
    fn finish(mut self, trace: bool) -> bool {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut missing = Vec::new();
        for &(name, _) in table {
            if !self.values.contains_key(name) {
                // End-to-end metrics must be measured by every workload; a
                // per-layer metric the workload never reached reads 0.
                if !trace {
                    missing.push(name);
                }
                self.values.insert(name, 0.0);
            }
        }
        const SHOWN: usize = 20;
        for e in self.errors.iter().take(SHOWN) {
            println!("# CHECK FAILED: {e}");
        }
        if self.errors.len() > SHOWN {
            println!("# ... and {} more failed checks", self.errors.len() - SHOWN);
        }
        if !missing.is_empty() {
            println!("# MISSING end-to-end metrics: {}", missing.join(", "));
        }
        for n in &self.notes {
            println!("# {n}");
        }
        let correct = self.failed == 0 && missing.is_empty() && self.attempted > 0;
        let mut metrics = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let v = self.values[name];
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// `v` with four significant digits, for the `#` lines.
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let default_seed = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or(1, |&(_, s)| s);
    let ctx = Ctx {
        seed: args.seed.unwrap_or(default_seed),
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
    };
    let mut report = Report::default();
    let mut tracer = if ctx.trace {
        trace::Tracer::default()
    } else {
        trace::Tracer::disabled()
    };
    match args.workload.as_str() {
        "map-random" => map::run(&ctx, &mut report, &mut tracer),
        "rca-1m" => rca::run(&ctx, &mut report, &mut tracer),
        "grid-served" => grid::run(&ctx, &mut report, &mut tracer),
        _ => unreachable!("validated by parse_args"),
    }
    if ctx.trace {
        for ((op, layer), (total, own, calls)) in tracer.layer_times() {
            report.note(format!(
                "op {op} layer {layer}: total {:.3} ms, self {:.3} ms, calls {calls}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            ));
        }
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, ctx.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.note(format!("could not write {}: {e}", path.display())),
        }
    } else {
        report.set("peak_rss_mb", mem::peak_rss_mb());
    }
    if !report.finish(ctx.trace) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload grid-served --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "grid-served");
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload map-random --trace 2").is_err());
        assert!(args("--workload map-random --seconds 0").is_err());
        assert!(args("--workload map-random --seed").is_err());
    }

    #[test]
    fn metric_names_and_units_follow_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(n) && ok_unit(u), "{n} [{u}]");
            assert!(seen.insert(n), "{n} declared twice");
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = gtd_bench::json::JsonValue::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(gtd_bench::json::JsonValue::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            gtd_bench::json::str_field(m, "name").unwrap_or_default(),
                            gtd_bench::json::str_field(m, "unit").unwrap_or_default(),
                        )
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(gtd_bench::json::JsonValue::Arr(items)) => items
                .iter()
                .filter_map(|w| gtd_bench::json::str_field(w, "name"))
                .collect(),
            _ => panic!("workloads missing"),
        };
        let own_workloads: Vec<String> = WORKLOADS.iter().map(|(w, _)| w.to_string()).collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn notes_keep_four_significant_digits() {
        assert_eq!(sig(0.000052601), "0.00005260");
        assert_eq!(sig(9.758854), "9.759");
        assert_eq!(sig(2153993.0), "2153993");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn report_line_is_last_and_complete() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.set("wall_s", 1.5);
        // missing end-to-end metrics make the run incorrect
        assert!(!r.finish(false));
        let mut r = Report::default();
        r.check(Ok(()));
        for &(n, _) in END_TO_END {
            r.set(n, 2.0);
        }
        assert!(r.finish(false));
        let mut r = Report::default();
        r.check(Err("boom".into()));
        assert!(!r.finish(true));
    }
}
