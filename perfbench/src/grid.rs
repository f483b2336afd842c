//! `grid-served`: a campaign grid submitted by one client to an
//! in-process `gtd-serve` coordinator with one `run_worker` thread over
//! loopback (a closed loop: 1 client, 1 worker), then re-submitted warm so
//! the coordinator's cache answers it.
//!
//! Each repetition starts a fresh coordinator and worker, so every cold
//! pass is cold. The coordinator has no shutdown call (it serves until its
//! process exits), so earlier repetitions' idle services live on until the
//! benchmark exits. Served JSONL must be byte-identical to an in-process
//! `Campaign::run` of the same request, computed outside the timed window.

use crate::stats;
use crate::{trace::Tracer, Ctx, Report};
use gtd_bench::json::JsonValue;
use gtd_bench::{Campaign, CampaignReport, CellSpec, RunRecord};
use gtd_netsim::{algo, DynamicSpec, EngineMode};
use gtd_serve::protocol::{read_message, write_message};
use gtd_serve::{serve, GridRequest, Message, ServeOptions};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Mappers, each with the metric its median cell time is reported as.
const MAPPERS: [(&str, &str); 3] = [
    ("gtd", "mapper.gtd.cell_ms_p50"),
    ("routed-dfs", "mapper.routed-dfs.cell_ms_p50"),
    ("flood-echo", "mapper.flood-echo.cell_ms_p50"),
];
/// Per-class median cell time metrics.
const CLASS_METRICS: [&str; 3] = [
    "cell.static.cell_ms_p50",
    "cell.dynamic.cell_ms_p50",
    "cell.faulted.cell_ms_p50",
];
const ROOTS: [u32; 2] = [0, 1];
/// Repetitions per cell: 17 specs × 3 mappers × 2 roots × 4 = 408 cells,
/// enough for p95 row gaps with ≥ 10 samples above them.
const REPS: usize = 4;
/// Candidate seeds tried per seeded spec before giving up.
const CANDIDATES: u64 = 400;
/// Nominal seconds of one served repetition (set-up, cold and warm pass).
/// The repetition count is `--seconds` over this, not a deadline: each
/// repetition leaves an idle coordinator behind, so a time-boxed count
/// would make `peak_rss_mb` follow the host's speed.
const NOMINAL_REPETITION_S: f64 = 1.25;

/// Untraced/traced in-process pass pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// Unseeded static specs across the families.
const STATIC: [&str; 8] = [
    "ring:16",
    "line-bidi:12",
    "torus:4,3",
    "debruijn:2,4",
    "debruijn:2,5",
    "kautz:2,2",
    "hypercube:3",
    "complete:4",
];
/// Unseeded dynamic specs (membership changes mid-run).
const DYNAMIC: [&str; 2] = ["ring:12+node-leave=1@t60", "ring:12+node-join=2@t60"];

/// What every row of a spec's cells must show.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    /// Every mapper verifies.
    Verified,
    /// Every mapper verifies; GTD needs at least one retry at some root.
    VerifiedAfterRetry,
    /// GTD degrades (`fault-degraded`); the baselines verify.
    GtdDegrades,
}

/// Renders a spec from a derived seed.
type MakeSpec = fn(u64) -> String;

/// Seeded reliable specs. Every mapper must verify on any draw whose
/// network stays strongly connected, so the seed is chosen by that
/// property of the topology alone and a mapper's outcome never shapes
/// the grid.
const SEEDED: [MakeSpec; 5] = [
    |s| format!("random-sc:n=24,delta=3,seed={s}"),
    |s| format!("bidi-grid-faulty:w=4,h=3,p=0.2,seed={s}"),
    |s| format!("tree-loop:h=3,seed={s}"),
    |s| format!("random-sc:n=16,delta=3,seed={s}+rewire=2@t50"),
    |s| format!("random-sc:n=16,delta=3,seed={s}+burst=3@t80"),
];

/// Faulted specs, each with the outcome its fault seed is probed for:
/// whether a fault schedule needs a retry or defeats GTD is known only by
/// running it.
const FAULTED: [(MakeSpec, Expect); 2] = [
    (
        |s| format!("ring:8~loss=0.0005~fault-seed={s}"),
        Expect::VerifiedAfterRetry,
    ),
    (
        |s| format!("ring:6~loss=1~fault-seed={s}"),
        Expect::GtdDegrades,
    ),
];

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mapper_names() -> [&'static str; 3] {
    MAPPERS.map(|(name, _)| name)
}

fn request(specs: Vec<String>, mappers: &[&str], roots: &[u32], reps: usize) -> GridRequest {
    let mut req = GridRequest::new(specs, mappers.iter().copied());
    req.modes = vec![EngineMode::Parallel];
    req.roots = roots.to_vec();
    req.reps = reps;
    req
}

fn run_in_process(req: &GridRequest) -> Result<CampaignReport, String> {
    req.to_campaign()
        .and_then(|c: Campaign| c.jobs(1).run())
        .map_err(|e| e.to_string())
}

/// Does one row show what `expect` asks of its mapper?
fn row_ok(expect: Expect, r: &RunRecord) -> bool {
    match (expect, r.mapper.as_str()) {
        (Expect::GtdDegrades, "gtd") => {
            matches!(&r.result, Err(e) if e.kind == "fault-degraded")
        }
        _ => matches!(&r.result, Ok(o) if o.verified),
    }
}

/// Do `records` (one spec's cells) meet `expect` as a whole?
fn meets(expect: Expect, records: &[RunRecord]) -> bool {
    let retried = records
        .iter()
        .any(|r| r.mapper == "gtd" && matches!(&r.result, Ok(o) if o.retries.unwrap_or(0) > 0));
    records.iter().all(|r| row_ok(expect, r)) && (expect != Expect::VerifiedAfterRetry || retried)
}

/// Are the network of `spec` and the one its mutations leave strongly
/// connected?
fn strongly_connected(spec: &str) -> bool {
    spec.parse::<DynamicSpec>().is_ok_and(|d| {
        algo::is_strongly_connected(&d.build()) && algo::is_strongly_connected(&d.final_topology())
    })
}

/// The grid for `seed`. Each seeded slot takes the first derived seed
/// that qualifies: by strong connectivity for [`SEEDED`], by a probe run
/// for [`FAULTED`].
fn grid_specs(seed: u64) -> Result<Vec<(String, Expect)>, String> {
    let mut specs: Vec<(String, Expect)> = STATIC
        .iter()
        .chain(&DYNAMIC)
        .map(|s| (s.to_string(), Expect::Verified))
        .collect();
    let slots = SEEDED
        .iter()
        .map(|&make| (make, Expect::Verified))
        .chain(FAULTED);
    for (slot, (make, expect)) in slots.enumerate() {
        let qualifies = |spec: &String| match expect {
            Expect::Verified => strongly_connected(spec),
            _ => {
                let probe = request(vec![spec.clone()], &mapper_names(), &ROOTS, 1);
                run_in_process(&probe).is_ok_and(|r| meets(expect, &r.records))
            }
        };
        let spec = (0..CANDIDATES)
            .map(|k| make(mix(seed, slot as u64 * 1000 + k) % 100_000))
            .find(qualifies)
            .ok_or_else(|| {
                format!("no seed for spec slot {slot} qualifies for {expect:?} after {CANDIDATES} tries")
            })?;
        specs.push((spec, expect));
    }
    Ok(specs)
}

/// One grid submission as seen by the client.
struct Pass {
    records: Vec<RunRecord>,
    /// Row arrival times since submit.
    arrivals: Vec<Duration>,
    /// The worker's `wall_ms` for each live (uncached) row.
    exec_ms: Vec<f64>,
    total: Duration,
    cached: usize,
    retries: u64,
}

impl Pass {
    /// Gaps between consecutive row arrivals; the first from submit.
    fn gaps_ms(&self) -> Vec<f64> {
        let mut prev = Duration::ZERO;
        self.arrivals
            .iter()
            .map(|&a| {
                let g = a - prev;
                prev = a;
                g.as_secs_f64() * 1e3
            })
            .collect()
    }

    fn jsonl(&self) -> String {
        CampaignReport {
            records: self.records.clone(),
            cached: self.cached,
        }
        .to_jsonl()
    }
}

/// Submit `req` and collect the streamed rows with their arrival times
/// (the same exchange as `gtd_serve::run_grid`, timed per row).
fn submit(addr: &str, req: &GridRequest) -> Result<Pass, String> {
    let io = |e: std::io::Error| format!("service I/O: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream;
    let t0 = Instant::now();
    write_message(&mut writer, &Message::Grid(req.clone())).map_err(io)?;
    let (mut records, mut arrivals, mut exec_ms) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        match read_message(&mut reader).map_err(io)? {
            Some(Ok(Message::Row {
                cell,
                record,
                wall_ms,
                ..
            })) => {
                arrivals.push(t0.elapsed());
                if cell != records.len() {
                    return Err(format!("row {cell} arrived out of order"));
                }
                exec_ms.extend(wall_ms);
                records.push(*record);
            }
            Some(Ok(Message::Done {
                cells,
                cached,
                retries,
                ..
            })) => {
                let total = t0.elapsed();
                if cells != records.len() {
                    return Err(format!("done after {} of {cells} rows", records.len()));
                }
                return Ok(Pass {
                    records,
                    arrivals,
                    exec_ms,
                    total,
                    cached,
                    retries,
                });
            }
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
}

/// Bind a fresh coordinator and start one worker thread; set-up ends when
/// a one-cell grid has made the round trip, which proves the worker's
/// handshake completed. Returns the address and the set-up time.
fn start_service() -> Result<(String, Duration), String> {
    let t = Instant::now();
    let handle = serve(ServeOptions::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr.to_string();
    let worker_addr = addr.clone();
    // Detached on purpose: the worker serves until its coordinator goes
    // away, which happens only when this process exits.
    std::thread::spawn(move || gtd_serve::run_worker(&worker_addr));
    let probe = request(vec!["ring:2".into()], &["flood-echo"], &[0], 1);
    let pass = submit(&addr, &probe)?;
    if !matches!(pass.records.as_slice(), [r] if r.result.is_ok()) || pass.retries != 0 {
        return Err("set-up round trip failed".into());
    }
    Ok((addr, t.elapsed()))
}

/// Check a served pass row by row against the in-process reference.
fn check_pass(report: &mut Report, what: &str, pass: &Pass, reference: &str, cached: usize) {
    let served = pass.jsonl();
    let mut lines = served.lines();
    for (i, want) in reference.lines().enumerate() {
        let got = lines.next();
        report.check(if got == Some(want) {
            Ok(())
        } else {
            Err(format!(
                "{what} row {i} differs from the in-process run: {got:?}"
            ))
        });
    }
    if lines.next().is_some() || pass.retries != 0 || pass.cached != cached {
        report.check(Err(format!(
            "{what}: {} rows, {} retries, {} cached (want {} rows, 0 retries, {cached} cached)",
            pass.records.len(),
            pass.retries,
            pass.cached,
            reference.lines().count()
        )));
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let specs = match grid_specs(ctx.seed) {
        Ok(s) => s,
        Err(e) => return report.check(Err(e)),
    };
    let req = request(
        specs.iter().map(|(s, _)| s.clone()).collect(),
        &mapper_names(),
        &ROOTS,
        REPS,
    );
    report.note(format!(
        "workload grid-served: {} specs x {} mappers x {} roots x {REPS} reps, parallel engine",
        specs.len(),
        MAPPERS.len(),
        ROOTS.len()
    ));
    for (s, e) in &specs {
        report.note(format!("  {s} ({e:?})"));
    }
    let reference = match run_in_process(&req) {
        Ok(r) => r,
        Err(e) => return report.check(Err(format!("in-process run failed: {e}"))),
    };
    let cells = reference.records.len();
    let per_spec = cells / specs.len();
    for (chunk, (spec, expect)) in reference.records.chunks(per_spec).zip(&specs) {
        for r in chunk {
            report.check(if row_ok(*expect, r) {
                Ok(())
            } else {
                Err(format!(
                    "{spec}: {} at root {:?} rep {} is not {expect:?}: {:?}",
                    r.mapper,
                    r.root,
                    r.rep,
                    r.result.as_ref().map(|o| o.verified).map_err(|e| e.kind)
                ))
            });
        }
        if chunk.iter().all(|r| row_ok(*expect, r)) && !meets(*expect, chunk) {
            report.check(Err(format!("{spec}: GTD verified without a retry")));
        }
    }
    let reference_jsonl = reference.to_jsonl();

    if ctx.trace {
        return traced(&req, &reference, report, tracer);
    }

    let repetitions = (ctx.seconds.as_secs_f64() / NOMINAL_REPETITION_S)
        .round()
        .max(3.0) as usize;
    let (mut setups, mut colds, mut warms, mut gaps) = (vec![], vec![], vec![], vec![]);
    for _ in 0..repetitions {
        let (addr, setup) = match start_service() {
            Ok(s) => s,
            Err(e) => return report.check(Err(e)),
        };
        let passes = submit(&addr, &req).and_then(|c| Ok((c, submit(&addr, &req)?)));
        let (cold, warm) = match passes {
            Ok(p) => p,
            Err(e) => return report.check(Err(e)),
        };
        check_pass(report, "cold", &cold, &reference_jsonl, 0);
        check_pass(report, "warm", &warm, &reference_jsonl, cells);
        setups.push(setup.as_secs_f64());
        colds.push(cold.total.as_secs_f64());
        warms.push(warm.total.as_secs_f64());
        gaps.extend(cold.gaps_ms());
    }
    report.set_min("setup_s", &setups);
    // A median, not `stats::fastest_path` over row gaps: rows arrive in
    // bursts as the socket buffers them, so a row's time is split
    // unevenly between neighbouring gaps and their minima undercount.
    report.set_median("wall_s", &colds);
    let ticks: u64 = reference
        .records
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|o| o.rounds)
        .sum();
    report.set("sim_ticks", ticks as f64);
    report.note(format!(
        "cells_per_s = {:.1} (cold, {cells} cells per grid), warm_cells_per_s = {:.1} (n={} grids)",
        cells as f64 / stats::median(&colds),
        cells as f64 / stats::median(&warms),
        colds.len()
    ));
    report.note(format!(
        "cell_ms_p50 = {} {}, cell_ms_p95 = {} {}",
        crate::sig(stats::median(&gaps)),
        stats::annotate(gaps.len(), None),
        crate::sig(stats::percentile(&gaps, 95.0)),
        stats::annotate(gaps.len(), Some(95.0))
    ));
}

/// The class metric of `cell`: static, dynamic (mutation schedule) or
/// faulted (active fault plane).
fn class_metric(cell: &CellSpec) -> &'static str {
    if cell.spec.fault.is_active() {
        CLASS_METRICS[2]
    } else if !cell.spec.is_static() {
        CLASS_METRICS[1]
    } else {
        CLASS_METRICS[0]
    }
}

/// Per-layer timings of a traced in-process pass, one sample per cell
/// (one in all for `plan_ms`).
#[derive(Default)]
struct LayerTimes {
    plan_ms: Vec<f64>,
    parse_us: Vec<f64>,
    build_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    render_us: Vec<f64>,
    json_us: Vec<f64>,
}

/// Run `f`; with tracing on, inside span `name`, pushing its duration
/// times `scale` to `out`.
fn lap<T>(
    tracer: &mut Tracer,
    name: &'static str,
    out: &mut Vec<f64>,
    scale: f64,
    f: impl FnOnce() -> T,
) -> T {
    if !tracer.enabled() {
        return f();
    }
    let s = tracer.enter(name);
    let t = Instant::now();
    let v = f();
    out.push(t.elapsed().as_secs_f64() * scale);
    tracer.exit(s);
    v
}

/// Plan `req`, then for each cell do what a worker and the client do:
/// parse the spec, build the topology, execute, render the row and parse
/// it back. With tracing off it is the same work, untimed. Returns the
/// JSONL.
fn in_process_pass(
    req: &GridRequest,
    tracer: &mut Tracer,
    times: &mut LayerTimes,
    report: &mut Report,
) -> Result<(Vec<CellSpec>, String), String> {
    let plan = || req.to_campaign().and_then(|c| c.plan());
    let cells = lap(tracer, "bench.campaign:plan", &mut times.plan_ms, 1e3, plan)
        .map_err(|e| format!("plan failed: {e}"))?;
    let mut jsonl = String::new();
    for cell in &cells {
        let text = cell.spec.to_string();
        let parse = || text.parse::<DynamicSpec>();
        let parsed = lap(tracer, "netsim.spec:parse", &mut times.parse_us, 1e6, parse)
            .map_err(|e| format!("{text} does not parse back: {e}"))?;
        let build = || parsed.build();
        let topo = lap(
            tracer,
            "netsim.topology:build",
            &mut times.build_ms,
            1e3,
            build,
        );
        let execute = || cell.execute(&topo);
        let record = lap(
            tracer,
            "baselines.mapper:execute",
            &mut times.execute_ms,
            1e3,
            execute,
        );
        let render = || record.to_json().render();
        let line = lap(
            tracer,
            "bench.campaign:render",
            &mut times.render_us,
            1e6,
            render,
        );
        let parse_row = || {
            JsonValue::parse(&line)
                .ok()
                .and_then(|v| RunRecord::from_json(&v))
        };
        let back = lap(
            tracer,
            "bench.json:parse",
            &mut times.json_us,
            1e6,
            parse_row,
        );
        // Rows travel the wire as JSON: parsed back, they must render the
        // same line again.
        if back.map(|r| r.to_json().render()).as_ref() != Some(&line) {
            report.check(Err(format!("{text}: JSON row does not parse back")));
        }
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    Ok((cells, jsonl))
}

/// In-process passes untraced and traced (spans around each layer call
/// of every cell), alternated [`OVERHEAD_PAIRS`] times, then one traced
/// served repetition.
fn traced(req: &GridRequest, reference: &CampaignReport, report: &mut Report, tracer: &mut Tracer) {
    let reference_jsonl = reference.to_jsonl();
    let mut pass = |tracer: &mut Tracer, times: &mut LayerTimes| {
        let t = Instant::now();
        let op = tracer.enter("bench:grid_in_process");
        let out = in_process_pass(req, tracer, times, report);
        tracer.exit(op);
        let wall = t.elapsed().as_secs_f64();
        let out = out.and_then(|(cells, jsonl)| {
            if jsonl == reference_jsonl {
                Ok(cells)
            } else {
                Err("in-process pass differs from Campaign::run".into())
            }
        });
        (out, wall)
    };
    let mut times = LayerTimes::default();
    let (mut plain_walls, mut traced_walls) = (vec![], vec![]);
    let mut cells = Err(String::new());
    for _ in 0..OVERHEAD_PAIRS {
        let (plain, wall) = pass(&mut Tracer::disabled(), &mut LayerTimes::default());
        plain_walls.push(wall);
        tracer.next_op();
        let (out, wall) = pass(tracer, &mut times);
        traced_walls.push(wall);
        cells = plain.and(out);
        if cells.is_err() {
            break;
        }
    }
    let cells = match cells {
        Ok(c) => c,
        Err(e) => return report.check(Err(e)),
    };

    let n = cells.len();
    report.set_n("spec.parse_us", stats::median(&times.parse_us), n, None);
    report.set_n("topology.build_ms", stats::median(&times.build_ms), n, None);
    let mut cell_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (cell, &ms) in cells.iter().cycle().zip(&times.execute_ms) {
        if let Some(&(_, metric)) = MAPPERS.iter().find(|(m, _)| *m == cell.mapper) {
            cell_ms.entry(metric).or_default().push(ms);
        }
        cell_ms.entry(class_metric(cell)).or_default().push(ms);
    }
    for name in MAPPERS
        .map(|(_, metric)| metric)
        .into_iter()
        .chain(CLASS_METRICS)
    {
        let samples = cell_ms.get(name).map_or(&[][..], Vec::as_slice);
        report.set_n(name, stats::median(samples), samples.len(), None);
    }
    let outcomes = || {
        reference
            .records
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
    };
    let retries: u64 = outcomes().map(|o| u64::from(o.retries.unwrap_or(0))).sum();
    let fault_dropped: u64 = outcomes().map(|o| o.fault_dropped.unwrap_or(0)).sum();
    report.set("cell.retries", retries as f64);
    report.set("cell.fault_dropped", fault_dropped as f64);
    report.set("campaign.plan_ms", stats::median(&times.plan_ms));
    report.set_n(
        "campaign.render_us_p50",
        stats::median(&times.render_us),
        n,
        None,
    );
    report.set_n("json.parse_us_p50", stats::median(&times.json_us), n, None);
    // Fastest pass of each kind: the host's speed state moves single
    // passes by more than the tracing costs.
    let (plain_wall, traced_wall) = (stats::min(&plain_walls), stats::min(&traced_walls));
    let overhead = (traced_wall / plain_wall - 1.0) * 100.0;
    report.set("trace.overhead_pct", overhead);
    report.note(format!(
        "in-process pass: untraced {plain_wall:.3} s, traced {traced_wall:.3} s \
         (fastest of {OVERHEAD_PAIRS} each), overhead {overhead:.2}%"
    ));

    // One served repetition, spans around set-up and each pass.
    tracer.next_op();
    let s = tracer.enter("serve:setup");
    let service = start_service();
    tracer.exit(s);
    let addr = match service {
        Ok((addr, _)) => addr,
        Err(e) => return report.check(Err(e)),
    };
    let s = tracer.enter("serve:cold");
    let cold = submit(&addr, req);
    tracer.exit(s);
    let s = tracer.enter("serve:warm");
    let warm = submit(&addr, req);
    tracer.exit(s);
    let (cold, warm) = match (cold, warm) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => return report.check(Err(e)),
    };
    check_pass(report, "cold", &cold, &reference_jsonl, 0);
    check_pass(report, "warm", &warm, &reference_jsonl, n);
    let exec_total: f64 = cold.exec_ms.iter().sum();
    let cold_ms = cold.total.as_secs_f64() * 1e3;
    report.set(
        "serve.first_row_ms",
        cold.arrivals.first().map_or(0.0, |d| d.as_secs_f64() * 1e3),
    );
    report.set_n(
        "serve.exec_ms_p50",
        stats::median(&cold.exec_ms),
        cold.exec_ms.len(),
        None,
    );
    report.set_n(
        "serve.exec_ms_p95",
        stats::percentile(&cold.exec_ms, 95.0),
        cold.exec_ms.len(),
        Some(95.0),
    );
    report.set(
        "serve.overhead_ms_per_cell",
        (cold_ms - exec_total) / n.max(1) as f64,
    );
    let warm_gaps: Vec<f64> = warm.gaps_ms().iter().map(|g| g * 1e3).collect();
    report.set_n(
        "serve.warm_row_gap_us_p50",
        stats::median(&warm_gaps),
        warm_gaps.len(),
        None,
    );
    report.set("serve.cached", warm.cached as f64);
    report.set("serve.retries", (cold.retries + warm.retries) as f64);
    let gaps = cold.gaps_ms();
    report.set("grid.cells_per_s", n as f64 / cold.total.as_secs_f64());
    report.set("grid.warm_cells_per_s", n as f64 / warm.total.as_secs_f64());
    report.set_n("grid.cell_ms_p50", stats::median(&gaps), gaps.len(), None);
    report.set_n(
        "grid.cell_ms_p95",
        stats::percentile(&gaps, 95.0),
        gaps.len(),
        Some(95.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
    }

    #[test]
    fn every_seeded_spec_parses() {
        for make in SEEDED.into_iter().chain(FAULTED.map(|(make, _)| make)) {
            let s = make(12_345);
            s.parse::<DynamicSpec>()
                .unwrap_or_else(|e| panic!("{s}: {e}"));
        }
        for s in STATIC.iter().chain(&DYNAMIC) {
            s.parse::<DynamicSpec>()
                .unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }
}
