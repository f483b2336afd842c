//! `rca-1m`: one Root Communication Algorithm (paper §4.2) from
//! processor 1 to the root on a million-node random network, run until
//! `RcaComplete` and then checked clean — the same steps as
//! `gtd_core::run_single_rca`, with the engine built during set-up.

use crate::map::EngineTrace;
use crate::stats;
use crate::{setup, trace::Tracer, Ctx, Report};
use gtd_core::{default_tick_budget, ProtocolNode, StartBehavior, TranscriptEvent};
use gtd_netsim::{Engine, EngineMode, NodeId, Topology};
use std::time::Instant;

const INITIATOR: NodeId = NodeId(1);

/// The network is fixed rather than derived from the run seed: the RCA's
/// cost follows its loop length d(n1, n0) + d(n0, n1), which moves the
/// tick count by about 15% between graph seeds (228 to 305 ticks over
/// seeds 1 to 20), enough to hide a regression of that size in the
/// out-of-cache path this workload exists to measure.
const SPEC: &str = "random-sc:n=1000000,delta=3,seed=9";

fn build(topo: &Topology) -> Engine<ProtocolNode> {
    Engine::new(topo, EngineMode::Parallel, |meta| {
        let start = if meta.id == INITIATOR {
            StartBehavior::SingleRca
        } else {
            StartBehavior::Passive
        };
        ProtocolNode::new(&meta, start)
    })
}

fn completes(&(nid, ev): &(NodeId, TranscriptEvent)) -> bool {
    nid == INITIATOR && ev == TranscriptEvent::RcaComplete
}

/// After `RcaComplete`: drain one tick, then the network must be quiet
/// with every processor back in its factory snake state (Lemma 4.2).
fn drain_and_check(engine: &mut Engine<ProtocolNode>) -> Result<(), String> {
    let mut scratch = Vec::new();
    engine.tick(&mut scratch);
    let quiet = engine.is_quiet() && engine.signals_in_flight() == 0;
    if quiet && engine.nodes().iter().all(|n| n.snake_state_pristine()) {
        Ok(())
    } else {
        Err(format!(
            "network not clean after RcaComplete (quiet = {quiet})"
        ))
    }
}

/// One untraced RCA on a freshly built engine: `(ticks, outcome)`.
fn rca(engine: &mut Engine<ProtocolNode>, budget: u64) -> (u64, Result<(), String>) {
    let (_, fired) = engine.run_until(budget, completes);
    let ticks = engine.tick_count();
    if !fired {
        return (ticks, Err(format!("no RcaComplete within {budget} ticks")));
    }
    (ticks, drain_and_check(engine))
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let spec = SPEC;
    report.note(format!("workload rca-1m: {spec}, RCA from n1 to root n0"));
    tracer.next_op();
    let set = setup::run(spec, tracer, build);
    report.note(format!(
        "N = {}, E = {}, shards = {}",
        set.topo.num_nodes(),
        set.topo.num_edges(),
        set.engine.shard_count()
    ));
    if ctx.trace {
        set.report_layers(report);
    } else {
        set.report_end_to_end(report);
    }
    let setup::Setup { topo, engine, .. } = set;
    let budget = default_tick_budget(&topo);
    if ctx.trace {
        return traced(&topo, engine, budget, report, tracer);
    }
    let mut engine = Some(engine);
    let mut walls = Vec::new();
    let mut ticks = None;
    let started = Instant::now();
    loop {
        // Every RCA needs a fresh network; only the first reuses set-up's.
        let mut e = engine.take().unwrap_or_else(|| build(&topo));
        let t = Instant::now();
        let (k, outcome) = rca(&mut e, budget);
        walls.push(t.elapsed().as_secs_f64());
        drop(e);
        report.check(outcome);
        if *ticks.get_or_insert(k) != k {
            report.check(Err(format!(
                "ticks changed between runs: {ticks:?} then {k}"
            )));
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + stats::median(&walls) > ctx.seconds.as_secs_f64() {
            break;
        }
    }
    report.set_median("wall_s", &walls);
    report.set("sim_ticks", ticks.unwrap_or(0) as f64);
}

/// One untraced RCA on the set-up engine as the reference, then one on a
/// fresh engine stepped tick by tick with per-tick timing.
fn traced(
    topo: &Topology,
    mut engine: Engine<ProtocolNode>,
    budget: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    tracer.next_op();
    let span = tracer.enter("netsim.engine:run_until");
    let t = Instant::now();
    let (ref_ticks, outcome) = rca(&mut engine, budget);
    let wall_ref = t.elapsed();
    tracer.exit(span);
    drop(engine);
    report.check(outcome);
    report.note(format!("sim_ticks = {ref_ticks} (run_until)"));

    tracer.next_op();
    let s = tracer.enter("netsim.engine:build");
    let mut engine = build(topo);
    tracer.exit(s);
    let op = tracer.enter("bench:rca");
    let mut et = EngineTrace {
        shards: engine.shard_count(),
        ..EngineTrace::default()
    };
    let t = Instant::now();
    let mut scratch = Vec::new();
    let mut fired = false;
    while engine.tick_count() < budget {
        scratch.clear();
        et.tick(&mut engine, &mut scratch);
        if scratch.iter().any(completes) {
            fired = true;
            break;
        }
        if engine.is_quiet() {
            break;
        }
    }
    let ticks = engine.tick_count();
    let outcome = if fired {
        drain_and_check(&mut engine)
    } else {
        Err(format!("no RcaComplete within {budget} ticks"))
    };
    let wall = t.elapsed();
    et.attach(tracer, op);
    tracer.exit(op);
    report.check(outcome.and_then(|()| {
        if ticks == ref_ticks {
            Ok(())
        } else {
            Err(format!(
                "traced RCA took {ticks} ticks, run_until {ref_ticks}"
            ))
        }
    }));
    et.report(report, topo.num_nodes());
    let overhead = (wall.as_secs_f64() / wall_ref.as_secs_f64() - 1.0) * 100.0;
    report.set("trace.overhead_pct", overhead);
    report.note(format!(
        "run_until {:.3} s, traced loop {:.3} s, overhead {overhead:.2}%",
        wall_ref.as_secs_f64(),
        wall.as_secs_f64()
    ));
}
