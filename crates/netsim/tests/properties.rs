//! Property tests for the substrate: topology invariants, graph-algorithm
//! cross-checks, and engine equivalence with the naive oracle under
//! arbitrary automata.

use gtd_netsim::oracle::Oracle;
use gtd_netsim::{
    algo, generators, Automaton, Engine, EngineMode, NodeId, NodeMeta, Port, StepCtx, Topology,
    TopologyBuilder,
};
use proptest::prelude::*;

fn arb_sc_topology() -> impl Strategy<Value = Topology> {
    (3usize..40, 2u8..6, 0u64..1_000_000).prop_map(|(n, d, seed)| generators::random_sc(n, d, seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn generated_topologies_validate(topo in arb_sc_topology()) {
        topo.validate().expect("generator output validates");
        prop_assert!(algo::is_strongly_connected(&topo));
    }

    #[test]
    fn degree_bounds_respected(topo in arb_sc_topology()) {
        let delta = topo.delta() as usize;
        for v in topo.node_ids() {
            prop_assert!(topo.out_degree(v) >= 1 && topo.out_degree(v) <= delta);
            prop_assert!(topo.in_degree(v) >= 1 && topo.in_degree(v) <= delta);
        }
    }

    #[test]
    fn edge_listing_is_involutive(topo in arb_sc_topology()) {
        // rebuilding from the edge list reproduces the identical topology
        let mut b = TopologyBuilder::new(topo.num_nodes(), topo.delta());
        for e in topo.edges() {
            b.connect(e.src, e.src_port, e.dst, e.dst_port).unwrap();
        }
        prop_assert_eq!(b.build().unwrap(), topo);
    }

    #[test]
    fn bfs_satisfies_triangle_inequality_on_edges(topo in arb_sc_topology()) {
        let d0 = algo::bfs_dist(&topo, NodeId(0));
        for e in topo.edges() {
            // dist(0, dst) <= dist(0, src) + 1
            prop_assert!(d0[e.dst.idx()] <= d0[e.src.idx()] + 1);
        }
    }

    #[test]
    fn forward_and_reverse_bfs_agree_on_reachability(topo in arb_sc_topology()) {
        // strongly connected: both directions fully reachable
        let fwd = algo::bfs_dist(&topo, NodeId(1 % topo.num_nodes() as u32));
        let rev = algo::bfs_dist_rev(&topo, NodeId(1 % topo.num_nodes() as u32));
        prop_assert!(fwd.iter().all(|&d| d != algo::UNREACHABLE));
        prop_assert!(rev.iter().all(|&d| d != algo::UNREACHABLE));
    }

    #[test]
    fn tarjan_single_component_iff_strongly_connected(topo in arb_sc_topology()) {
        let comp = algo::tarjan_scc(&topo);
        prop_assert!(comp.iter().all(|&c| c == comp[0]));
    }

    #[test]
    fn diameter_is_max_eccentricity(topo in arb_sc_topology()) {
        let d = algo::diameter(&topo);
        let mut max_ecc = 0;
        for v in topo.node_ids() {
            let dist = algo::bfs_dist(&topo, v);
            max_ecc = max_ecc.max(*dist.iter().max().unwrap());
        }
        prop_assert_eq!(d, max_ecc);
    }

    #[test]
    fn canonical_paths_are_shortest_and_deterministic(topo in arb_sc_topology()) {
        let src = NodeId(0);
        let dist = algo::bfs_dist(&topo, src);
        let tree1 = algo::canonical_bfs(&topo, src);
        let tree2 = algo::canonical_bfs(&topo, src);
        prop_assert_eq!(&tree1, &tree2, "canonical BFS must be deterministic");
        for v in topo.node_ids() {
            let p = algo::canonical_path(&topo, src, v).unwrap();
            prop_assert_eq!(p.len() as u32, dist[v.idx()], "canonical path not shortest");
            // and it walks to v
            let outs: Vec<Port> = p.iter().map(|&(o, _)| o).collect();
            prop_assert_eq!(topo.walk_out_ports(src, &outs), Some(v));
        }
    }

    #[test]
    fn canonical_parent_is_lowest_inport_among_frontier(topo in arb_sc_topology()) {
        let src = NodeId(0);
        let dist = algo::bfs_dist(&topo, src);
        let tree = algo::canonical_bfs(&topo, src);
        for v in topo.node_ids() {
            let Some(e) = tree[v.idx()] else { continue };
            // no lower-numbered in-port of v is fed by a frontier node
            for (i, ep) in topo.in_edges(v) {
                if i < e.parent_in_port {
                    prop_assert!(
                        dist[ep.node.idx()] + 1 > dist[v.idx()],
                        "in-port {i} of {v} would have won the tie-break"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine equivalence under an arbitrary little automaton
// ---------------------------------------------------------------------

/// A pseudo-random but fully deterministic automaton: xor-accumulates
/// inputs, emits on a schedule derived from its accumulated state, and
/// emits events so transcript equality is a strong check.
#[derive(Clone)]
struct Scrambler {
    acc: u64,
    fires_left: u32,
    out_ports: Vec<usize>,
    is_root: bool,
    started: bool,
}

#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct Word(u64);

impl Automaton for Scrambler {
    type Sig = Word;
    type Event = u64;

    fn step(&mut self, ctx: &mut StepCtx<'_, Word, u64>) {
        if self.is_root && !self.started {
            self.started = true;
            self.acc = 0x9e3779b97f4a7c15;
            self.fires_left = 6;
        }
        for (i, s) in ctx.inputs.iter().enumerate() {
            if s.0 != 0 {
                self.acc = self
                    .acc
                    .rotate_left(7)
                    .wrapping_mul(0x2545f4914f6cdd1d)
                    .wrapping_add(s.0 ^ i as u64);
                if self.fires_left == 0 {
                    self.fires_left = (s.0 % 3) as u32;
                }
                ctx.events.push(self.acc);
            }
        }
        if self.fires_left > 0 {
            self.fires_left -= 1;
            let v = self.acc | 1;
            let o = self.out_ports[(self.acc % self.out_ports.len() as u64) as usize];
            ctx.outputs[o] = Word(v);
            if self.fires_left > 0 {
                ctx.request_restep();
            }
        }
    }
}

fn scrambler(meta: NodeMeta) -> Scrambler {
    Scrambler {
        acc: 0,
        fires_left: 0,
        out_ports: meta.out_connected.iter().map(|p| p.idx()).collect(),
        is_root: meta.is_root,
        started: false,
    }
}

fn run_scrambler(topo: &Topology, mode: EngineMode, ticks: u64) -> Vec<(NodeId, u64)> {
    run_scrambler_sharded(topo, mode, ticks, None)
}

/// The reference transcript: `ticks` ticks of the naive oracle.
fn oracle_scrambler(topo: &Topology, ticks: u64) -> Vec<(NodeId, u64)> {
    let mut oracle = Oracle::new(topo, NodeId(0), &mut scrambler);
    let mut all = Vec::new();
    for _ in 0..ticks {
        oracle.tick(&mut all);
    }
    all
}

fn run_scrambler_sharded(
    topo: &Topology,
    mode: EngineMode,
    ticks: u64,
    shards: Option<usize>,
) -> Vec<(NodeId, u64)> {
    let mut engine = Engine::with_root_sharded(topo, mode, NodeId(0), shards, &mut scrambler);
    let mut all = Vec::new();
    let mut events = Vec::new();
    for _ in 0..ticks {
        events.clear();
        engine.tick(&mut events);
        all.append(&mut events);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn engine_modes_equivalent_for_arbitrary_automata(
        topo in arb_sc_topology(),
        ticks in 10u64..120,
    ) {
        let base = oracle_scrambler(&topo, ticks);
        let dense = run_scrambler(&topo, EngineMode::Dense, ticks);
        let sparse = run_scrambler(&topo, EngineMode::Sparse, ticks);
        let parallel = run_scrambler(&topo, EngineMode::Parallel, ticks);
        prop_assert_eq!(&base, &dense, "oracle vs dense");
        prop_assert_eq!(&base, &sparse, "oracle vs sparse");
        prop_assert_eq!(&base, &parallel, "oracle vs parallel");
    }
}

#[test]
fn pooled_sharded_parallel_matches_dense_at_scale() {
    // Every generated proptest topology is tiny, where auto-sharding
    // keeps Parallel sequential. This instance forces multi-shard worker
    // pools so the pooled step/scatter/merge phases, cross-shard lanes,
    // saturated ticks, and the frontier rebuild all actually run — and
    // must stay bit-identical to the oracle at every shard count.
    let topo = generators::random_sc(1024, 3, 42);
    let base = oracle_scrambler(&topo, 150);
    assert!(!base.is_empty(), "scrambler must emit events");
    for shards in [2usize, 7, 16] {
        let parallel = run_scrambler_sharded(&topo, EngineMode::Parallel, 150, Some(shards));
        assert_eq!(
            base, parallel,
            "parallel/{shards} shards diverged from the oracle"
        );
    }
}

// ---------------------------------------------------------------------
// Far wakes: the engine's overflow heap against the oracle
// ---------------------------------------------------------------------

/// How far ahead an alarm may ring: well past the engine's 8-tick timing
/// wheel, so most wakes sit in the overflow heap.
const FAR: u64 = 20;

/// A processor with alarms. Each character it reads sets two: an echo
/// exactly 20 ticks ahead and a relay 1..=20 ticks ahead, both past the
/// engine's 8-tick timing wheel as often as not. Its wake is always its
/// earliest alarm, so a relay that lands before a pending far echo
/// re-requests an earlier deadline and leaves the engine's heap entry
/// for the echo stale. Every ringing alarm emits an event, and a relay
/// also broadcasts one character while the processor's lifetime fuel
/// lasts, so every run dies out. Blank steps before an
/// alarm change nothing and re-request the same wake, as the deadline
/// contract asks.
#[derive(Clone)]
struct Alarm {
    /// `(tick, is relay)`.
    alarms: Vec<(u64, bool)>,
    acc: u64,
    fuel: u32,
    out_ports: Vec<usize>,
    is_root: bool,
    started: bool,
    /// Steps that moved a wake beyond the wheel to an earlier tick.
    far_rearms: u32,
}

impl Automaton for Alarm {
    type Sig = Word;
    type Event = u64;

    fn step(&mut self, ctx: &mut StepCtx<'_, Word, u64>) {
        let t = ctx.tick;
        if self.is_root && !self.started {
            self.started = true;
            self.acc = 0x9e3779b97f4a7c15;
            self.fuel = 4;
            self.alarms = (0..4).map(|k| (t + 2 + (k * 7) % FAR, true)).collect();
        }
        let wake = self.alarms.iter().map(|a| a.0).min();
        for (i, s) in ctx.inputs.iter().enumerate() {
            if s.0 != 0 {
                self.acc =
                    self.acc.rotate_left(9).wrapping_mul(0x2545f4914f6cdd1d) ^ s.0 ^ i as u64;
                ctx.events.push(self.acc);
                self.alarms.push((t + FAR, false));
                self.alarms.push((t + 1 + self.acc % FAR, true));
            }
        }
        let rearmed = self.alarms.iter().map(|a| a.0).min();
        if wake.is_some_and(|w| w > t + 8 && rearmed < Some(w)) {
            self.far_rearms += 1;
        }
        let mut rung = Vec::new();
        self.alarms.retain(|&(at, relay)| {
            if at <= t {
                rung.push(relay);
            }
            at > t
        });
        for relay in rung {
            ctx.events.push(self.acc ^ t);
            if relay && self.fuel > 0 {
                self.fuel -= 1;
                for &o in &self.out_ports {
                    ctx.outputs[o] = Word(self.acc | 1);
                }
                self.acc = self.acc.rotate_left(17).wrapping_add(t);
            }
        }
        if let Some(next) = self.alarms.iter().map(|a| a.0).min() {
            ctx.request_restep_at(next);
        }
    }
}

fn alarm(meta: NodeMeta) -> Alarm {
    Alarm {
        alarms: Vec::new(),
        acc: 0,
        fuel: 3,
        out_ports: meta.out_connected.iter().map(|p| p.idx()).collect(),
        is_root: meta.is_root,
        started: false,
        far_rearms: 0,
    }
}

/// Each tick's events, and whether the network is quiet after it.
type AlarmLog = Vec<(Vec<(NodeId, u64)>, bool)>;

/// `ticks` ticks of the oracle.
fn oracle_alarms(topo: &Topology, ticks: u64) -> AlarmLog {
    let mut oracle = Oracle::new(topo, NodeId(0), &mut alarm);
    (0..ticks)
        .map(|_| {
            let mut events = Vec::new();
            oracle.tick(&mut events);
            (events, oracle.is_quiet())
        })
        .collect()
}

/// [`oracle_alarms`] on the engine at `shards` shards, plus the far
/// re-arms its processors made.
fn engine_alarms(topo: &Topology, ticks: u64, shards: usize) -> (AlarmLog, u32) {
    let mut engine = Engine::with_root_sharded(
        topo,
        EngineMode::Parallel,
        NodeId(0),
        Some(shards),
        &mut alarm,
    );
    let log = (0..ticks)
        .map(|_| {
            let mut events = Vec::new();
            engine.tick(&mut events);
            (events, engine.is_quiet())
        })
        .collect();
    (log, engine.nodes().iter().map(|a| a.far_rearms).sum())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn far_wakes_match_the_oracle_at_every_shard_count(
        topo in arb_sc_topology(),
        ticks in 10u64..120,
    ) {
        let base = oracle_alarms(&topo, ticks);
        for shards in [1usize, 2, 7, 16] {
            prop_assert_eq!(&base, &engine_alarms(&topo, ticks, shards).0, "{} shards", shards);
        }
    }
}

#[test]
fn far_wakes_and_earlier_rearms_match_the_oracle_at_scale() {
    let topo = generators::random_sc(256, 3, 5);
    let base = oracle_alarms(&topo, 150);
    assert!(
        !base[0].1 && base[149].1,
        "the run must be busy, then die out"
    );
    for shards in [1usize, 2, 7, 16] {
        let (log, far_rearms) = engine_alarms(&topo, 150, shards);
        assert_eq!(base, log, "{shards} shards diverged from the oracle");
        assert!(far_rearms > 0, "no processor moved a far wake earlier");
    }
}
