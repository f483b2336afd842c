//! The set-up phase shared by the map and RCA workloads: spec parse,
//! topology build and engine build, repeated in batches so `setup_s` is
//! the fastest of many identical set-ups.

use crate::{mem, stats, trace::Tracer, Report};
use gtd_netsim::{Topology, TopologySpec};
use std::time::{Duration, Instant};

/// Set-up repetitions per batch: at least [`MIN_REPS`], more while the
/// batch stays under [`MIN_TIME`], never more than [`MAX_REPS`].
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 10_000;
const MIN_TIME: Duration = Duration::from_millis(500);

/// What the first batch built last, and the timings of every repetition.
pub struct Setup<E> {
    pub topo: Topology,
    pub engine: E,
    pub times: Timings,
}

/// Timings of every set-up repetition of the run.
#[derive(Default)]
pub struct Timings {
    pub total_s: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub topology_ms: Vec<f64>,
    pub engine_ms: Vec<f64>,
    /// RSS growth across the first topology / engine build of the process
    /// (later builds reuse the memory the allocator kept).
    pub topology_rss_mb: f64,
    pub engine_rss_mb: f64,
}

/// Parse `spec`, build its topology, and build an engine with `build`:
/// the first batch of repetitions.
pub fn run<E>(spec: &str, tracer: &mut Tracer, build: impl FnMut(&Topology) -> E) -> Setup<E> {
    let mut times = Timings::default();
    let (topo, engine) = batch(spec, tracer, build, &mut times);
    Setup {
        topo,
        engine,
        times,
    }
}

impl<E> Setup<E> {
    /// One more batch, whose builds are dropped. The host's CPU speed
    /// switches between states lasting seconds, so batches spread over a
    /// run are likelier to catch it at full speed.
    pub fn again(&mut self, spec: &str, tracer: &mut Tracer, build: impl FnMut(&Topology) -> E) {
        batch(spec, tracer, build, &mut self.times);
    }

    /// `setup_s` (untraced runs): the fastest repetition, since every
    /// repetition does the same work.
    pub fn report_end_to_end(&self, report: &mut Report) {
        report.set_min("setup_s", &self.times.total_s);
    }

    /// The spec/topology/engine build metrics (traced runs).
    pub fn report_layers(&self, report: &mut Report) {
        let t = &self.times;
        let n = t.total_s.len();
        report.set_n("spec.parse_us", stats::median(&t.parse_us), n, None);
        report.set_n("topology.build_ms", stats::median(&t.topology_ms), n, None);
        report.set_n("engine.build_ms", stats::median(&t.engine_ms), n, None);
        report.set("topology.rss_mb", t.topology_rss_mb);
        report.set("engine.rss_mb", t.engine_rss_mb);
        report.note(format!(
            "topology.rss_mb = {:.3}, engine.rss_mb = {:.3} (first build of the process)",
            t.topology_rss_mb, t.engine_rss_mb
        ));
    }
}

/// One batch of set-up repetitions, timings appended to `times`. Each
/// repetition's topology and engine are dropped before the next starts;
/// the last one's are returned.
fn batch<E>(
    spec: &str,
    tracer: &mut Tracer,
    mut build: impl FnMut(&Topology) -> E,
    times: &mut Timings,
) -> (Topology, E) {
    let started = Instant::now();
    let mut reps = 0;
    let mut last: Option<(Topology, E)> = None;
    while reps < MIN_REPS || (started.elapsed() < MIN_TIME && reps < MAX_REPS) {
        drop(last.take());
        // RSS is read around the process's first repetition only (procfs
        // reads are slow next to a small build).
        let first = times.total_s.is_empty();
        let rss_now = || if first { mem::rss_mb() } else { 0.0 };
        let span = tracer.enter("bench:setup");
        let s = tracer.enter("netsim.spec:parse");
        let t = Instant::now();
        let parsed: TopologySpec = spec.parse().expect("benchmark specs parse");
        let parse = t.elapsed();
        tracer.exit(s);

        let rss0 = rss_now();
        let s = tracer.enter("netsim.topology:build");
        let t = Instant::now();
        let topo = parsed.build();
        let topology = t.elapsed();
        tracer.exit(s);

        let rss1 = rss_now();
        let s = tracer.enter("netsim.engine:build");
        let t = Instant::now();
        let engine = build(&topo);
        let engine_t = t.elapsed();
        tracer.exit(s);
        let rss2 = rss_now();
        tracer.exit(span);

        if first {
            (times.topology_rss_mb, times.engine_rss_mb) = (rss1 - rss0, rss2 - rss1);
        }
        times
            .total_s
            .push((parse + topology + engine_t).as_secs_f64());
        times.parse_us.push(parse.as_secs_f64() * 1e6);
        times.topology_ms.push(topology.as_secs_f64() * 1e3);
        times.engine_ms.push(engine_t.as_secs_f64() * 1e3);
        last = Some((topo, engine));
        reps += 1;
    }
    last.expect("at least one repetition")
}
