//! The wire word sized to δ (`gtd::snake::Signal<W>`).
//!
//! Networks with δ > 4 run on the wide `u128` word (`complete:6`,
//! `hypercube:5`, `debruijn:8,2` and a sparse δ = 64 network): each maps
//! exactly, ends clean and reproduces the naive oracle's tick-stamped
//! root transcript at 1 and 2 engine shards. The narrow `u64` word refuses
//! such a network loudly, and its 55 bits hold the protocol's whole
//! alphabet at δ = 4.

use gtd::baselines::signal_alphabet_log2;
use gtd::netsim::oracle::Oracle;
use gtd::netsim::NodeMeta;
use gtd::protocol::needs_wide_word;
use gtd::snake::Signal;
use gtd::{
    Engine, EngineMode, GtdSession, NodeId, Port, ProtocolNode, StartBehavior, Topology,
    TopologyBuilder, TopologySpec, TranscriptEvent,
};

fn wide_node(meta: NodeMeta) -> ProtocolNode<u128> {
    let start = if meta.is_root {
        StartBehavior::GtdRoot
    } else {
        StartBehavior::Passive
    };
    ProtocolNode::with_word(&meta, start)
}

/// The oracle's tick-stamped root transcript, up to `Terminated`.
fn oracle_transcript(topo: &Topology) -> Vec<(u64, TranscriptEvent)> {
    let mut oracle = Oracle::new(topo, NodeId(0), &mut wide_node);
    let mut transcript = Vec::new();
    let mut events = Vec::new();
    while transcript
        .last()
        .is_none_or(|&(_, ev)| ev != TranscriptEvent::Terminated)
    {
        assert!(
            oracle.tick_count() < 1_000_000,
            "the oracle never terminated"
        );
        events.clear();
        oracle.tick(&mut events);
        let t = oracle.tick_count();
        let root = events.iter().filter(|&&(n, _)| n == NodeId(0));
        transcript.extend(root.map(|&(_, ev)| (t, ev)));
    }
    transcript
}

/// Map `topo` on the wide word at 1 and 2 shards: each run verifies,
/// ends clean and reproduces the oracle's tick-stamped transcript.
fn maps_on_the_wide_word(topo: &Topology) {
    assert!(needs_wide_word(topo), "δ = {}", topo.delta());
    let want = oracle_transcript(topo);
    for shards in [1, 2] {
        let run = GtdSession::on(topo)
            .mode(EngineMode::Parallel)
            .par_shards(shards)
            .run()
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        run.map
            .verify_against(topo, NodeId(0))
            .unwrap_or_else(|e| panic!("{shards} shards: {e:?}"));
        assert!(run.clean_at_end, "{shards} shards: not clean");
        assert_eq!(run.events, want, "{shards} shards");
    }
}

fn spec(s: &str) -> Topology {
    s.parse::<TopologySpec>().expect("parses").build()
}

#[test]
fn complete_6_maps_on_the_wide_word() {
    maps_on_the_wide_word(&spec("complete:6"));
}

#[test]
fn hypercube_5_maps_on_the_wide_word() {
    maps_on_the_wide_word(&spec("hypercube:5"));
}

#[test]
fn debruijn_8_2_maps_on_the_wide_word() {
    maps_on_the_wide_word(&spec("debruijn:8,2"));
}

/// δ = 64 on four processors: a bidirectional ring whose ports sit across
/// the whole 6-bit range, up to 63, plus two chords. `debruijn:64,1` also
/// has δ = 64, but its 4,096 wires take minutes to map in a debug build.
fn sparse_delta_64() -> Topology {
    let mut b = TopologyBuilder::new(4, 64);
    for v in 0..4u8 {
        let (next, prev) = (NodeId(u32::from(v + 1) % 4), NodeId(u32::from(v + 3) % 4));
        b.connect(NodeId(v.into()), Port(63), next, Port(62))
            .expect("free ports");
        b.connect(NodeId(v.into()), Port(32 + v), prev, Port(31 - v))
            .expect("free ports");
    }
    b.connect(NodeId(0), Port(0), NodeId(2), Port(5))
        .expect("free ports");
    b.connect(NodeId(1), Port(1), NodeId(3), Port(47))
        .expect("free ports");
    b.build().expect("valid")
}

#[test]
fn a_sparse_delta_64_network_maps_on_the_wide_word() {
    let topo = sparse_delta_64();
    assert_eq!(topo.delta(), 64);
    maps_on_the_wide_word(&topo);
}

#[test]
#[should_panic(expected = "δ = 5 exceeds the 4-port wire word")]
fn a_narrow_node_refuses_a_network_of_delta_5() {
    let topo = "complete:6"
        .parse::<TopologySpec>()
        .expect("parses")
        .build();
    let _: Engine<ProtocolNode> = Engine::new(&topo, EngineMode::Sparse, |meta| {
        ProtocolNode::new(&meta, StartBehavior::Passive)
    });
}

#[test]
fn the_narrow_word_holds_the_alphabet_at_delta_4() {
    // Lemma 5.2's count of the characters one wire carries, plus the
    // RESET extension's present and parity bits.
    let need = signal_alphabet_log2(4) + 2.0;
    assert!(f64::from(Signal::<u64>::BITS) >= need, "{need} bits needed");
    const { assert!(Signal::<u64>::BITS <= u64::BITS) };
    let need = signal_alphabet_log2(64) + 2.0;
    assert!(
        f64::from(Signal::<u128>::BITS) >= need,
        "{need} bits needed"
    );
    const { assert!(Signal::<u128>::BITS <= u128::BITS) };
}
