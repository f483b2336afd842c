//! `map-random`: one full, verified GTD mapping from root n0 per
//! operation.
//!
//! Untraced runs time `GtdSession::run` in `EngineMode::Parallel` with the
//! automatic shard count; `wall_s` is `stats::fastest_path` over the
//! run's maps. Traced runs time one such run with an observer
//! (edge-report gaps), then drive the same session loop through the
//! public engine API so tick, lull-skip and decode time can be told apart,
//! and check that both produce the same ticks, counters and map.

use crate::stats::{self, Histogram};
use crate::{setup, trace::Tracer, Ctx, Report};
use gtd_core::{
    build_gtd_engine_sharded, default_tick_budget, phase_breakdown, GtdSession, MasterComputer,
    NetworkMap, PhaseBreakdown, RunOutcome, RunStats, TranscriptEvent,
};
use gtd_netsim::{algo, EngineMode, NodeId, Topology};
use std::time::{Duration, Instant};

const ROOT: NodeId = NodeId(0);

/// Maps per untraced run, at least: the process's peak RSS settles only
/// after the second map (the allocator keeps what the first freed).
const MIN_OPS: usize = 2;

/// Ticks per timed segment of an untraced map (about 430 segments).
const SEGMENT_TICKS: u64 = 1024;

/// Nominal seconds of one map on a 2-core x86 host. A run makes
/// `--seconds` ÷ this many maps (at least [`MIN_OPS`]): a count fixed by
/// the arguments rather than a deadline, because `stats::fastest_path`
/// reads lower the more maps it sees, so a faster build would otherwise
/// gain twice.
const NOMINAL_MAP_S: f64 = 10.0;

/// The topology spec the workload maps for `seed`.
pub fn spec(seed: u64) -> String {
    format!("random-sc:n=512,delta=3,seed={seed}")
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let spec = spec(ctx.seed);
    report.note(format!(
        "workload map-random: {spec}, root n0, parallel engine"
    ));
    tracer.next_op();
    let build = |topo: &Topology| build_gtd_engine_sharded(topo, EngineMode::Parallel, None);
    let mut set = setup::run(&spec, tracer, build);
    report.note(format!(
        "N = {}, E = {}, shards = {}",
        set.topo.num_nodes(),
        set.topo.num_edges(),
        set.engine.shard_count()
    ));
    if ctx.trace {
        set.report_layers(report);
        traced(&set.topo, report, tracer);
        return;
    }
    let (mut walls, mut segments) = (Vec::new(), Vec::new());
    let mut ticks = None;
    let maps = ((ctx.seconds.as_secs_f64() / NOMINAL_MAP_S).round() as usize).max(MIN_OPS);
    for i in 0..maps {
        if i > 0 {
            set.again(&spec, tracer, build);
        }
        let topo = &set.topo;
        // The first transcript event past each multiple of SEGMENT_TICKS
        // cuts the map into segments, identical in every map of the run,
        // for `stats::fastest_path`.
        let (mut stamps, mut segment) = (Vec::new(), 0);
        let t = Instant::now();
        let out = GtdSession::on(topo)
            .mode(EngineMode::Parallel)
            .observer(|tick, _| {
                if tick / SEGMENT_TICKS > segment {
                    segment = tick / SEGMENT_TICKS;
                    stamps.push(Instant::now());
                }
            })
            .run();
        let end = Instant::now();
        walls.push((end - t).as_secs_f64());
        stamps.push(end);
        let mut prev = t;
        segments.push(
            stamps
                .iter()
                .map(|&s| (s - std::mem::replace(&mut prev, s)).as_secs_f64())
                .collect::<Vec<f64>>(),
        );
        let out = out.map_err(|e| e.to_string());
        report.check(
            out.as_ref()
                .map_err(Clone::clone)
                .and_then(|o| check(topo, o)),
        );
        if let Ok(o) = &out {
            if *ticks.get_or_insert(o.ticks) != o.ticks {
                report.check(Err(format!(
                    "ticks changed between runs: {ticks:?} then {}",
                    o.ticks
                )));
            }
        }
    }
    set.again(&spec, tracer, build);
    set.report_end_to_end(report);
    let fastest = stats::fastest_path(&segments);
    report.check(
        fastest
            .map(drop)
            .ok_or_else(|| "transcript length changed between runs".to_string()),
    );
    report.set("wall_s", fastest.unwrap_or(0.0));
    report.note(format!(
        "wall_s = {} s (each of {} transcript segments at its fastest over n={} maps; median map {} s, quartiles {})",
        crate::sig(fastest.unwrap_or(0.0)),
        segments[0].len(),
        walls.len(),
        crate::sig(stats::median(&walls)),
        stats::quartiles(&walls).map_or("n/a".into(), |[q1, _, q3]| format!(
            "{} .. {}",
            crate::sig(q1),
            crate::sig(q3)
        ))
    ));
    report.set("sim_ticks", ticks.unwrap_or(0) as f64);
}

/// A verified map: exact against the topology, one report per edge, the
/// network pristine afterwards and every processor visited.
fn check(topo: &Topology, o: &RunOutcome) -> Result<(), String> {
    o.map
        .verify_against(topo, ROOT)
        .map_err(|e| format!("map does not verify: {e}"))?;
    if o.stats.edges_reported() != topo.num_edges() {
        return Err(format!(
            "{} edge reports for {} edges",
            o.stats.edges_reported(),
            topo.num_edges()
        ));
    }
    if !o.clean_at_end || !o.all_visited {
        return Err(format!(
            "clean_at_end = {}, all_visited = {}",
            o.clean_at_end, o.all_visited
        ));
    }
    Ok(())
}

fn traced(topo: &Topology, report: &mut Report, tracer: &mut Tracer) {
    // Reference: the session's own loop, edge reports timed by its observer.
    tracer.next_op();
    let mut edges_at: Vec<Instant> = Vec::new();
    let span = tracer.enter("core.session:run");
    let t = Instant::now();
    let reference = GtdSession::on(topo)
        .mode(EngineMode::Parallel)
        .observer(|_, ev| {
            if matches!(
                ev,
                TranscriptEvent::LoopForward { .. } | TranscriptEvent::LocalForward { .. }
            ) {
                edges_at.push(Instant::now());
            }
        })
        .run();
    let wall_ref = t.elapsed();
    tracer.exit(span);
    let reference = match reference {
        Ok(o) => o,
        Err(e) => return report.check(Err(format!("reference run failed: {e}"))),
    };
    report.check(check(topo, &reference));
    report.note(format!("sim_ticks = {} (GtdSession::run)", reference.ticks));

    // The same loop driven through the public engine API.
    tracer.next_op();
    let t = Instant::now();
    let driven = drive(topo, tracer);
    let wall_driven = t.elapsed();
    let driven = match driven {
        Ok(d) => d,
        Err(e) => return report.check(Err(format!("traced driver failed: {e}"))),
    };
    report.check(equivalent(&reference, &driven));

    // Decode: replay the captured transcript into a fresh master.
    let span = tracer.enter("core.master:decode");
    let t = Instant::now();
    let mut master = MasterComputer::new();
    let replayed = reference
        .event_stream()
        .try_for_each(|ev| master.feed(ev))
        .and_then(|()| master.into_map());
    let decode = t.elapsed();
    tracer.exit(span);
    if replayed.as_ref() != Ok(&reference.map) {
        report.check(Err("replayed transcript decodes to a different map".into()));
    }
    let span = tracer.enter("core.master:verify");
    let t = Instant::now();
    let verified = reference.map.verify_against(topo, ROOT);
    let verify = t.elapsed();
    tracer.exit(span);
    if let Err(e) = verified {
        report.check(Err(format!("map does not verify: {e}")));
    }

    let gaps: Vec<f64> = edges_at
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    report.set_n(
        "session.edge_ms_p50",
        stats::median(&gaps),
        gaps.len(),
        None,
    );
    report.set_n(
        "session.edge_ms_p95",
        stats::percentile(&gaps, 95.0),
        gaps.len(),
        Some(95.0),
    );
    report.set("session.rcas", reference.stats.rcas() as f64);
    report.set("session.bcas", reference.stats.bcas() as f64);
    report.set("session.edges", reference.stats.edges_reported() as f64);
    let ph = reference.phases;
    report.set("session.phase_ticks.search", ph.search as f64);
    report.set("session.phase_ticks.echo", ph.echo as f64);
    report.set("session.phase_ticks.mark", ph.mark as f64);
    report.set(
        "session.phase_ticks.report_cleanup",
        ph.report_cleanup as f64,
    );
    report.set("master.feed_ms_total", driven.feed.as_secs_f64() * 1e3);
    report.set("master.decode_ms", decode.as_secs_f64() * 1e3);
    report.set("master.verify_ms", verify.as_secs_f64() * 1e3);
    driven.engine.report(report, topo.num_nodes());
    let overhead = (wall_driven.as_secs_f64() / wall_ref.as_secs_f64() - 1.0) * 100.0;
    report.set("trace.overhead_pct", overhead);
    report.note(format!(
        "session run {:.3} s, traced driver {:.3} s, overhead {overhead:.2}%",
        wall_ref.as_secs_f64(),
        wall_driven.as_secs_f64()
    ));
}

/// `signals_in_flight()` is O(E), so the traced loop samples it on every
/// `PROBE_EVERY`-th stepped tick rather than on each one.
const PROBE_EVERY: u64 = 16;

/// Engine-side measurements of a traced tick loop.
#[derive(Default)]
pub struct EngineTrace {
    pub ticks: Histogram,
    pub tick_total: Duration,
    pub skipped: u64,
    pub skip_calls: u64,
    pub skip_total: Duration,
    /// Σ of `signals_in_flight()` after the sampled ticks.
    pub inflight: u64,
    pub probes: u64,
    pub probe_total: Duration,
    pub shards: usize,
}

impl EngineTrace {
    pub fn report(&self, report: &mut Report, nodes: usize) {
        let n = self.ticks.count();
        let tick_ns = self.tick_total.as_secs_f64() * 1e9;
        report.set("engine.ticks_stepped", n as f64);
        report.set("engine.ticks_skipped", self.skipped as f64);
        report.set_n(
            "engine.tick_us_p50",
            self.ticks.percentile_ns(50.0) / 1e3,
            n as usize,
            None,
        );
        report.set_n(
            "engine.tick_us_p95",
            self.ticks.percentile_ns(95.0) / 1e3,
            n as usize,
            Some(95.0),
        );
        report.set("engine.tick_s_total", self.tick_total.as_secs_f64());
        let inflight = self.inflight as f64 / self.probes.max(1) as f64;
        report.set_n(
            "engine.inflight_per_tick",
            inflight,
            self.probes as usize,
            None,
        );
        report.set(
            "engine.ns_per_signal",
            tick_ns / (inflight * n as f64).max(1.0),
        );
        report.set(
            "engine.ns_per_proc_tick",
            tick_ns / (nodes as f64 * n.max(1) as f64),
        );
        report.set("engine.shards", self.shards as f64);
        report.note(format!(
            "skip_lull: {} calls, {:.3} ms; signals_in_flight probe: {:.3} ms",
            self.skip_calls,
            self.skip_total.as_secs_f64() * 1e3,
            self.probe_total.as_secs_f64() * 1e3
        ));
    }

    /// Step `engine` once, timing the tick and probing signals in flight.
    pub fn tick<A: gtd_netsim::Automaton>(
        &mut self,
        engine: &mut gtd_netsim::Engine<A>,
        events: &mut Vec<(NodeId, A::Event)>,
    ) {
        let t = Instant::now();
        engine.tick(events);
        let dt = t.elapsed();
        self.ticks.record(dt.as_nanos() as u64);
        self.tick_total += dt;
        if self.ticks.count() % PROBE_EVERY == 1 {
            let t = Instant::now();
            self.inflight += engine.signals_in_flight() as u64;
            self.probe_total += t.elapsed();
            self.probes += 1;
        }
    }

    /// Fold the per-call totals into `parent` as aggregates.
    pub fn attach(&self, tracer: &mut Tracer, parent: usize) {
        tracer.aggregate(
            parent,
            "netsim.engine:tick",
            self.ticks.count(),
            self.tick_total,
        );
        tracer.aggregate(
            parent,
            "netsim.engine:skip_lull",
            self.skip_calls,
            self.skip_total,
        );
        tracer.aggregate(
            parent,
            "bench:signals_in_flight_probe",
            self.probes,
            self.probe_total,
        );
    }
}

/// Outcome of the public-API session loop.
struct Driven {
    ticks: u64,
    stats: RunStats,
    map: NetworkMap,
    phases: PhaseBreakdown,
    events: Vec<(u64, TranscriptEvent)>,
    clean_at_end: bool,
    all_visited: bool,
    feed: Duration,
    engine: EngineTrace,
}

/// `GtdSession::run` for an unfaulted static network, re-expressed with
/// public calls: precondition check, engine build, then skip_lull / tick
/// / classify / feed until the root terminates, then settle and decode.
fn drive(topo: &Topology, tracer: &mut Tracer) -> Result<Driven, String> {
    let op = tracer.enter("core.session:drive");
    let s = tracer.enter("core.session:preconditions");
    let connected = algo::is_strongly_connected(topo);
    tracer.exit(s);
    if !connected {
        return Err("network is not strongly connected".into());
    }
    let budget = default_tick_budget(topo);
    let s = tracer.enter("netsim.engine:build");
    let mut engine = build_gtd_engine_sharded(topo, EngineMode::Parallel, None);
    tracer.exit(s);
    let mut et = EngineTrace {
        shards: engine.shard_count(),
        ..EngineTrace::default()
    };
    let mut master = MasterComputer::new();
    let mut stats = RunStats::default();
    let mut events = Vec::new();
    let mut scratch = Vec::new();
    let mut feed = Duration::ZERO;
    let mut feeds = 0u64;
    let end_tick = loop {
        let t = Instant::now();
        et.skipped += engine.skip_lull(budget);
        et.skip_total += t.elapsed();
        et.skip_calls += 1;
        if engine.tick_count() >= budget {
            return Err(format!("tick budget {budget} exhausted"));
        }
        scratch.clear();
        et.tick(&mut engine, &mut scratch);
        let now = engine.tick_count();
        let mut terminated = false;
        for &(nid, ev) in &scratch {
            if nid != ROOT {
                return Err(format!("non-root {nid:?} emitted {ev:?}"));
            }
            match ev {
                TranscriptEvent::LoopForward { .. } => stats.forwards += 1,
                TranscriptEvent::LoopBack => stats.backs += 1,
                TranscriptEvent::LocalForward { .. } => stats.local_forwards += 1,
                TranscriptEvent::LocalBack => stats.local_backs += 1,
                TranscriptEvent::Terminated => terminated = true,
                _ => {}
            }
            events.push((now, ev));
            let t = Instant::now();
            let fed = master.feed(ev);
            feed += t.elapsed();
            feeds += 1;
            fed.map_err(|e| format!("decode failed: {e}"))?;
        }
        if terminated {
            break now;
        }
    };
    // Settle: the terminal tick's emissions drain within a few ticks.
    let mut settle = 0;
    loop {
        scratch.clear();
        et.tick(&mut engine, &mut scratch);
        if engine.is_quiet() {
            break;
        }
        settle += 1;
        if settle >= 1000 {
            return Err("network failed to settle after termination".into());
        }
    }
    stats.dropped = engine.nodes().iter().map(|n| n.stat_dropped()).sum();
    stats.fault_dropped = engine.fault_dropped();
    stats.fault_delayed = engine.fault_delayed();
    let clean_at_end =
        engine.signals_in_flight() == 0 && engine.nodes().iter().all(|n| n.snake_state_pristine());
    let all_visited = engine.nodes().iter().all(|n| n.dfs_visited());
    let phases = phase_breakdown(&events);
    let s = tracer.enter("core.master:into_map");
    let map = master.into_map().map_err(|e| format!("decode failed: {e}"));
    tracer.exit(s);
    et.attach(tracer, op);
    tracer.aggregate(op, "core.master:feed", feeds, feed);
    tracer.exit(op);
    Ok(Driven {
        ticks: end_tick,
        stats,
        map: map?,
        phases,
        events,
        clean_at_end,
        all_visited,
        feed,
        engine: et,
    })
}

/// The traced driver must reproduce the session exactly.
fn equivalent(reference: &RunOutcome, d: &Driven) -> Result<(), String> {
    let mut diffs = Vec::new();
    if reference.ticks != d.ticks {
        diffs.push(format!("ticks {} vs {}", reference.ticks, d.ticks));
    }
    if reference.stats != d.stats {
        diffs.push(format!("stats {:?} vs {:?}", reference.stats, d.stats));
    }
    if reference.phases != d.phases {
        diffs.push(format!("phases {:?} vs {:?}", reference.phases, d.phases));
    }
    if reference.map != d.map {
        diffs.push("maps differ".into());
    }
    if reference.events != d.events {
        diffs.push("transcripts differ".into());
    }
    if (reference.clean_at_end, reference.all_visited) != (d.clean_at_end, d.all_visited) {
        diffs.push("clean/visited flags differ".into());
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "traced driver diverges from GtdSession::run: {}",
            diffs.join("; ")
        ))
    }
}
