//! The engine against the naive oracle (`gtd::netsim::oracle::Oracle`).
//!
//! The oracle steps every processor every tick and routes through
//! per-node in-port feed lists built from `Topology::edges()`. It shares
//! no route table, frontier, timer or shard code with the engine, so a
//! routing or scheduling bug in the engine cannot reproduce in the
//! reference. Every check runs the engine at 1, 2, 7 and 16 shards:
//!
//! * static GTD maps on all 10 families: the oracle's tick-stamped root
//!   transcript, up to `Terminated`, equals the session's;
//! * engine-level GTD runs on all 10 families under all 9 mutation kinds,
//!   applied at tick 35 on both sides: every node's events and
//!   `is_quiet` agree tick by tick;
//! * the same under a lossy and a delaying fault plane, fault counters
//!   included.

use gtd::netsim::oracle::Oracle;
use gtd::netsim::{AppliedMutation, Engine, FaultPlane, NodeMeta};
use gtd::protocol::build_gtd_engine_sharded;
use gtd::{
    EngineMode, GtdSession, MutationKind, NodeId, ProtocolNode, StartBehavior, Topology,
    TopologyMutation, TopologySpec, TranscriptEvent,
};

const SHARDS: [usize; 4] = [1, 2, 7, 16];

/// The tick every mutation lands at, on both sides.
const MUTATE_AT: u64 = 35;

/// One instance per registered spec family (all 10).
fn ten_family_specs() -> Vec<TopologySpec> {
    [
        "ring:9",
        "line-bidi:8",
        "torus:3,3",
        "debruijn:2,3",
        "kautz:2,3",
        "hypercube:3",
        "complete:5",
        "random-sc:n=12,delta=3,seed=3",
        "bidi-grid-faulty:w=4,h=3,p=0.2,seed=2",
        "tree-loop:h=2,seed=1",
    ]
    .iter()
    .map(|s| s.parse().expect("literal spec parses"))
    .collect()
}

fn gtd_node(meta: NodeMeta) -> ProtocolNode {
    let start = if meta.is_root {
        StartBehavior::GtdRoot
    } else {
        StartBehavior::Passive
    };
    ProtocolNode::new(&meta, start)
}

fn passive(meta: NodeMeta) -> ProtocolNode {
    ProtocolNode::new(&meta, StartBehavior::Passive)
}

/// What a run is driven through: the engine or the oracle.
trait Sim {
    fn tick(&mut self, events: &mut Vec<(NodeId, TranscriptEvent)>);
    fn now(&self) -> u64;
    fn quiet(&self) -> bool;
    fn faults(&self) -> (u64, u64);
    fn rewire(&mut self, applied: &AppliedMutation);
}

impl Sim for Engine<ProtocolNode> {
    fn tick(&mut self, events: &mut Vec<(NodeId, TranscriptEvent)>) {
        Engine::tick(self, events);
    }
    fn now(&self) -> u64 {
        self.tick_count()
    }
    fn quiet(&self) -> bool {
        self.is_quiet()
    }
    fn faults(&self) -> (u64, u64) {
        (self.fault_dropped(), self.fault_delayed())
    }
    fn rewire(&mut self, applied: &AppliedMutation) {
        self.apply_topology_with(&applied.topology, applied.membership, &mut passive);
    }
}

impl Sim for Oracle<ProtocolNode> {
    fn tick(&mut self, events: &mut Vec<(NodeId, TranscriptEvent)>) {
        Oracle::tick(self, events);
    }
    fn now(&self) -> u64 {
        self.tick_count()
    }
    fn quiet(&self) -> bool {
        self.is_quiet()
    }
    fn faults(&self) -> (u64, u64) {
        Oracle::faults(self)
    }
    fn rewire(&mut self, applied: &AppliedMutation) {
        self.apply_topology_with(&applied.topology, applied.membership, &mut passive);
    }
}

/// One tick of a run: the tick count after it, every node's events, and
/// whether the network is quiet and what the fault plane did so far.
type TickRow = (u64, Vec<(NodeId, TranscriptEvent)>, bool, (u64, u64));

/// Tick `sim` until it goes quiet or `max_ticks` pass, applying
/// `mutation` (already resolved against the topology) at [`MUTATE_AT`].
fn tick_log(
    sim: &mut impl Sim,
    mutation: Option<&AppliedMutation>,
    max_ticks: u64,
) -> Vec<TickRow> {
    let mut log = Vec::new();
    while sim.now() < max_ticks {
        if let Some(applied) = mutation.filter(|_| sim.now() == MUTATE_AT) {
            sim.rewire(applied);
        }
        let mut events = Vec::new();
        sim.tick(&mut events);
        log.push((sim.now(), events, sim.quiet(), sim.faults()));
        if sim.quiet() {
            break;
        }
    }
    log
}

/// Run one case on the oracle, then on the engine at every shard count,
/// and require identical logs.
fn assert_agrees(
    case: &str,
    topo: &Topology,
    plane: FaultPlane,
    mutation: Option<&AppliedMutation>,
    max_ticks: u64,
) {
    let mut oracle = Oracle::new(topo, NodeId(0), &mut gtd_node);
    oracle.set_fault_plane(plane);
    let base = tick_log(&mut oracle, mutation, max_ticks);
    if mutation.is_some() {
        assert!(
            base.len() as u64 > MUTATE_AT,
            "{case}: quiet before the mutation"
        );
    }
    if plane.is_active() {
        assert!(
            base.last().is_some_and(|row| row.3 != (0, 0)),
            "{case}: no fault fired"
        );
    }
    for shards in SHARDS {
        let mut engine = build_gtd_engine_sharded(topo, EngineMode::Parallel, Some(shards));
        engine.set_fault_plane(plane);
        let log = tick_log(&mut engine, mutation, max_ticks);
        let first = base.iter().zip(&log).position(|(a, b)| a != b);
        assert!(
            first.is_none() && base.len() == log.len(),
            "{case}, {shards} shards: first divergence at row {first:?} (oracle {} rows, engine {})",
            base.len(),
            log.len()
        );
    }
}

#[test]
fn static_gtd_transcripts_match_the_oracle_on_every_family() {
    for spec in ten_family_specs() {
        let topo = spec.build();
        let mut oracle = Oracle::new(&topo, NodeId(0), &mut gtd_node);
        let mut transcript = Vec::new();
        while transcript
            .last()
            .is_none_or(|&(_, ev)| ev != TranscriptEvent::Terminated)
        {
            assert!(
                oracle.tick_count() < 1_000_000,
                "{spec}: the oracle never terminated"
            );
            let mut events = Vec::new();
            oracle.tick(&mut events);
            let t = oracle.tick_count();
            transcript.extend(
                events
                    .into_iter()
                    .filter(|&(n, _)| n == NodeId(0))
                    .map(|(_, ev)| (t, ev)),
            );
        }
        for shards in SHARDS {
            let run = GtdSession::on(&topo)
                .mode(EngineMode::Parallel)
                .par_shards(shards)
                .capture_transcript(true)
                .run()
                .expect("terminates");
            assert_eq!(transcript, run.events, "{spec}, {shards} shards");
        }
    }
}

#[test]
fn every_mutation_kind_matches_the_oracle_tick_by_tick() {
    assert_eq!(MutationKind::ALL.len(), 9);
    for spec in ten_family_specs() {
        let topo = spec.build();
        for kind in MutationKind::ALL {
            let applied =
                topo.apply_or_fallback_rooted(&TopologyMutation { kind, selector: 1 }, NodeId(0));
            let case = format!("{spec} + {kind:?}");
            assert_agrees(&case, &topo, FaultPlane::NONE, Some(&applied), 2_000);
        }
    }
}

#[test]
fn lossy_and_delaying_planes_match_the_oracle_tick_by_tick() {
    let planes = [
        FaultPlane {
            loss: 0.005,
            seed: 8,
            ..FaultPlane::NONE
        },
        FaultPlane {
            delay_min: 1,
            delay_max: 2,
            seed: 3,
            ..FaultPlane::NONE
        },
    ];
    for spec in ten_family_specs() {
        let topo = spec.build();
        for plane in planes {
            assert_agrees(&format!("{spec}, {plane:?}"), &topo, plane, None, 4_000);
        }
    }
}
