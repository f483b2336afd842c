//! Behaviour pin for the protocol automaton.
//!
//! The mode-equivalence suites compare engine modes against each other,
//! but every mode runs the same `ProtocolNode::step`, so a change inside
//! the step that alters behaviour passes them all. This test pins the
//! step's observable behaviour instead: an FNV digest of each run's
//! tick-stamped transcript and counters, plus the per-processor sums of
//! the automaton's own statistics.
//!
//! The scenarios are chosen to reach every input channel and every
//! non-steady path of the step: static maps (every snake kind, KILL,
//! loop tokens, UNMARK, DFS), a re-map (the RESET flood), lossy and
//! delayed wires, a `node-restart` (the offline path) and live rewires
//! and bursts (mutation-era straggler characters). Three more pin tick
//! counts that the protocol alone decides, the cost the paper bounds: a
//! 64-ring map, a 64-ring timeline that idles to a far-future mutation,
//! and a lossy ring's retry schedule.

use gtd::protocol::runner::build_gtd_engine;
use gtd::{
    DynamicSpec, Engine, EngineMode, EpochOutcome, FaultPlane, GtdSession, MutationKind, NodeId,
    ProtocolNode, RunOutcome, RunStats, Topology, TopologyMutation, TopologySpec, TranscriptEvent,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    fn transcript(&mut self, events: &[(u64, TranscriptEvent)]) {
        self.u64(events.len() as u64);
        for (t, e) in events {
            self.u64(*t);
            self.debug(e);
        }
    }

    fn stats(&mut self, s: &RunStats) {
        self.debug(s);
    }

    fn run(&mut self, r: &RunOutcome) {
        self.u64(r.ticks);
        self.transcript(&r.events);
        self.stats(&r.stats);
        self.debug(&(r.clean_at_end, r.all_visited));
    }

    fn epoch(&mut self, e: &EpochOutcome) {
        self.debug(&(e.start_tick, e.end_tick, e.status, e.nodes));
        self.transcript(&e.events);
    }
}

fn dynamic(spec: &str) -> DynamicSpec {
    spec.parse().expect("literal spec parses")
}

/// One run through the session API, digested.
fn session_digest(name: &str) -> u64 {
    let mut h = Fnv::new();
    match name {
        "static ring:9"
        | "static debruijn:2,4"
        | "static random-sc:n=40,delta=3,seed=2"
        | "static ring:64" => {
            let topo = dynamic(&name["static ".len()..]).base.build();
            h.run(&GtdSession::on(&topo).run().expect("maps"));
        }
        "remap random-sc:n=16,delta=3,seed=21" => {
            let topo = dynamic(&name["remap ".len()..]).base.build();
            let runs = GtdSession::on(&topo).run_repeated(2).expect("re-maps");
            assert_eq!(runs.len(), 2);
            for r in &runs {
                h.run(r);
            }
        }
        "resilient random-sc:n=24,delta=3,seed=4~loss=0.002~fault-seed=3"
        | "resilient random-sc:n=24,delta=3,seed=4~delay=1..2~fault-seed=5" => {
            let spec = dynamic(&name["resilient ".len()..]);
            let topo = spec.base.build();
            let out = GtdSession::on(&topo)
                .faults(spec.fault)
                .max_retries(2)
                .run_resilient()
                .expect("structured outcome");
            assert!(
                out.stats.fault_dropped + out.stats.fault_delayed > 0,
                "{name}"
            );
            h.debug(&(out.status, &out.attempts, out.ticks, out.total_ticks));
            h.stats(&out.stats);
            h.transcript(&out.events);
        }
        // Lossy until a drop-free attempt: two wedged attempts, then a
        // third that verifies, so its own counters read no drop.
        "chaos ring:8~loss=0.0005~fault-seed=2" => {
            let spec = dynamic(&name["chaos ".len()..]);
            let topo = spec.base.build();
            let out = GtdSession::on(&topo)
                .faults(spec.fault)
                .max_retries(3)
                .run_resilient()
                .expect("structured outcome");
            assert!(out.verified(), "{name}");
            assert_eq!(out.retries(), 2, "{name}");
            h.debug(&(out.status, &out.attempts, out.ticks, out.total_ticks));
            h.stats(&out.stats);
            h.transcript(&out.events);
        }
        _ => {
            let spec = dynamic(&name["dynamic ".len()..]);
            let topo = spec.base.build();
            let out = GtdSession::on(&topo)
                .run_dynamic(&spec.schedule)
                .expect("timeline completes");
            for e in &out.epochs {
                h.epoch(e);
            }
            h.debug(&out.mutations);
            h.debug(&(out.total_ticks, out.fault_dropped, out.fault_delayed));
        }
    }
    h.0
}

/// What an engine-driven run leaves behind: the digest of every
/// processor's tick-stamped events, and the per-processor statistics
/// summed over the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct NodePin {
    events: u64,
    kills_accepted: u64,
    rcas_started: u64,
    bcas_started: u64,
    max_chars: u64,
    dropped: u64,
}

/// Tick `engine` until `hook`, called after every tick, says stop or
/// `cap` ticks have run.
fn drive(
    engine: &mut Engine<ProtocolNode>,
    cap: u64,
    mut hook: impl FnMut(&mut Engine<ProtocolNode>) -> bool,
) -> NodePin {
    let mut h = Fnv::new();
    let mut events = Vec::new();
    while engine.tick_count() < cap {
        events.clear();
        engine.tick(&mut events);
        for (n, e) in &events {
            h.u64(engine.tick_count());
            h.u64(u64::from(n.0));
            h.debug(e);
        }
        if !hook(engine) {
            break;
        }
    }
    h.u64(engine.tick_count());
    let nodes = engine.nodes();
    NodePin {
        events: h.0,
        kills_accepted: nodes.iter().map(|n| n.stat_kills_accepted()).sum(),
        rcas_started: nodes.iter().map(|n| n.stat_rcas_started()).sum(),
        bcas_started: nodes.iter().map(|n| n.stat_bcas_started()).sum(),
        max_chars: nodes.iter().map(|n| n.stat_max_chars()).sum(),
        dropped: nodes.iter().map(|n| n.stat_dropped()).sum(),
    }
}

const CAP: u64 = 60_000;

/// One run driven tick by tick through the engine, pinned per processor.
fn node_pin(name: &str) -> NodePin {
    let (kind, spec) = name
        .split_once(' ')
        .expect("scenario names are `kind spec`");
    let spec: TopologySpec = spec.parse().expect("literal spec parses");
    let topo: Topology = spec.build();
    let mut engine = build_gtd_engine(&topo, EngineMode::Sparse);
    // A clean map goes quiet only after the root terminated.
    match kind {
        // Map to termination, then let the network settle.
        "static" => drive(&mut engine, CAP, |e| !e.is_quiet()),
        // Map, settle, have the master ask for a re-map (RESET flood), map
        // again.
        "remap" => {
            let mut rounds = 0;
            drive(&mut engine, CAP, |e| {
                if e.is_quiet() {
                    rounds += 1;
                    if rounds == 2 {
                        return false;
                    }
                    e.node_mut(NodeId(0)).master_restart();
                }
                true
            })
        }
        // Lossy or delaying wires until the network goes quiet.
        "loss" | "delay" => {
            engine.set_fault_plane(if kind == "loss" {
                FaultPlane {
                    loss: 0.003,
                    delay_min: 0,
                    delay_max: 0,
                    seed: 3,
                }
            } else {
                FaultPlane {
                    loss: 0.0,
                    delay_min: 1,
                    delay_max: 2,
                    seed: 5,
                }
            });
            drive(&mut engine, CAP, |e| !e.is_quiet())
        }
        // Power-cycle processor 5 mid-run; stop once quiet.
        "restart" => drive(&mut engine, CAP, |e| {
            if e.tick_count() == 150 {
                let now = e.tick_count();
                e.node_mut(NodeId(5)).restart(now);
            }
            !e.is_quiet()
        }),
        // Rewire a port mid-run under flying snakes; stop once quiet.
        _ => {
            let rewired = topo
                .apply(&TopologyMutation {
                    kind: MutationKind::RewirePort,
                    selector: 2,
                })
                .expect("rewire applies");
            drive(&mut engine, CAP, |e| {
                if e.tick_count() == 200 {
                    e.apply_topology(&rewired);
                }
                !e.is_quiet()
            })
        }
    }
}

/// `NodePin` in table form: events digest, then the summed
/// `stat_kills_accepted()`, `stat_rcas_started()`, `stat_bcas_started()`,
/// `stat_max_chars()` and `stat_dropped()`.
const fn pin(events: u64, sums: [u64; 5]) -> NodePin {
    NodePin {
        events,
        kills_accepted: sums[0],
        rcas_started: sums[1],
        bcas_started: sums[2],
        max_chars: sums[3],
        dropped: sums[4],
    }
}

#[test]
fn protocol_behaviour_is_pinned() {
    let sessions: [(&str, u64); 13] = [
        ("static ring:9", 0xb39d_b910_790c_6e49),
        ("static debruijn:2,4", 0xed61_4f2c_ccea_2bca),
        (
            "static random-sc:n=40,delta=3,seed=2",
            0xccf8_1f04_b28f_bbcc,
        ),
        (
            "remap random-sc:n=16,delta=3,seed=21",
            0x2490_7f8c_5542_c1d8,
        ),
        (
            "resilient random-sc:n=24,delta=3,seed=4~loss=0.002~fault-seed=3",
            0x77b6_3ce7_136a_edb6,
        ),
        (
            "resilient random-sc:n=24,delta=3,seed=4~delay=1..2~fault-seed=5",
            0x71e5_48c6_1d51_66b8,
        ),
        (
            "dynamic torus:4,4+node-restart=3@t200",
            0x759c_af84_53fc_0333,
        ),
        (
            "dynamic random-sc:n=24,delta=3,seed=1+rewire=2@t200",
            0x6b24_7d9a_5b86_0a57,
        ),
        (
            "dynamic random-sc:n=16,delta=3,seed=5+burst=3@t80",
            0xe8f3_22fc_09c9_2713,
        ),
        ("dynamic ring:12+rewire=1@t60", 0x9fd9_e414_4c6e_5c46),
        // 133,001 ticks.
        ("static ring:64", 0xeb89_0919_3129_ff15),
        // 384,401 ticks in all, a remap latency of 134,401.
        ("dynamic ring:64+add-edge=1@t250000", 0x9668_a810_012c_a7bc),
        // 1,849 ticks in the third attempt.
        (
            "chaos ring:8~loss=0.0005~fault-seed=2",
            0xd587_25c5_edac_bab8,
        ),
    ];
    let nodes: [(&str, NodePin); 8] = [
        (
            "static ring:9",
            pin(11382414083495624458, [200, 16, 9, 27, 0]),
        ),
        (
            "static debruijn:2,4",
            pin(17958496915625925263, [1352, 58, 30, 70, 0]),
        ),
        (
            "static random-sc:n=40,delta=3,seed=2",
            pin(8517681655460788003, [13962, 230, 118, 221, 0]),
        ),
        (
            "remap random-sc:n=16,delta=3,seed=21",
            pin(2375788824124876538, [4324, 180, 96, 76, 0]),
        ),
        (
            "loss random-sc:n=24,delta=3,seed=4",
            pin(6992954363669079424, [273, 12, 0, 112, 0]),
        ),
        (
            "delay random-sc:n=24,delta=3,seed=4",
            pin(10032818036118384505, [42, 1, 0, 69, 0]),
        ),
        (
            "restart random-sc:n=24,delta=3,seed=4",
            pin(10146217428175842921, [5012, 136, 71, 123, 14]),
        ),
        (
            "rewire random-sc:n=24,delta=3,seed=1",
            pin(15548087770666544076, [122, 5, 0, 95, 0]),
        ),
    ];
    let mut failures = Vec::new();
    for (name, want) in sessions {
        let got = session_digest(name);
        if got != want {
            failures.push(format!("session {name}: {got:#018x}, pinned {want:#018x}"));
        }
    }
    for (name, want) in nodes {
        let got = node_pin(name);
        if got != want {
            failures.push(format!("engine {name}: {got:?}, pinned {want:?}"));
        }
    }
    assert!(failures.is_empty(), "behaviour moved: {failures:#?}");
}
