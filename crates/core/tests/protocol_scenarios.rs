//! Hand-verifiable protocol scenarios: exact tick counts and transcript
//! contents on networks small enough to trace on paper (the 2-cycle and
//! 3-ring traces in the module docs of `gtd_core::node` were derived by
//! hand; these tests pin them).

use gtd_core::events::TranscriptEvent;
use gtd_core::{
    run_single_bca, run_single_rca, GtdSession, MasterComputer, ProtocolNode, StartBehavior,
};
use gtd_netsim::{generators, Engine, EngineMode, NodeId, Port, TopologyBuilder};
use gtd_snake::Hop;

/// Collect (tick, event) pairs from a full GTD run — the session captures
/// the tick-stamped transcript directly.
fn traced_gtd(topo: &gtd_netsim::Topology) -> Vec<(u64, TranscriptEvent)> {
    GtdSession::on(topo)
        .mode(EngineMode::Dense)
        .run()
        .expect("GTD terminates")
        .events
}

#[test]
fn two_cycle_transcript_is_exactly_the_hand_trace() {
    use TranscriptEvent::*;
    let topo = generators::ring(2);
    let events: Vec<TranscriptEvent> = traced_gtd(&topo).into_iter().map(|(_, e)| e).collect();
    let hop = Hop::new(Port(0), Port(0));
    assert_eq!(
        events,
        vec![
            Start,
            // n1's fresh-visit FORWARD RCA
            IgHop(hop),
            IgTail,
            IdHop(hop),
            IdTail,
            LoopForward {
                out_port: Port(0),
                in_port: Port(0)
            },
            // n1 explores its out-port; the token re-enters the root
            LocalForward {
                out_port: Port(0),
                in_port: Port(0)
            },
            // the root bounces via BCA; n1 reports BACK
            IgHop(hop),
            IgTail,
            IdHop(hop),
            IdTail,
            LoopBack,
            // n1 exhausted; BCA returns the token to the root
            LocalBack,
            Terminated,
        ]
    );
}

#[test]
fn three_ring_paths_have_expected_lengths() {
    // ring 0 -> 1 -> 2 -> 0: n1 is 1 hop from root (path root->n1 len 1,
    // n1->root len 2), n2 is 2 hops out, 1 back.
    let topo = generators::ring(3);
    let trace = traced_gtd(&topo);
    // decode and assert the name paths via the master computer
    let mut master = MasterComputer::new();
    for &(_, ev) in &trace {
        master.feed(ev).unwrap();
    }
    let map = master.into_map().unwrap();
    assert_eq!(map.num_nodes(), 3);
    let mut lens: Vec<usize> = map.paths.iter().map(|p| p.len()).collect();
    lens.sort_unstable();
    assert_eq!(lens, vec![0, 1, 2], "root, n1 at 1 hop, n2 at 2 hops");
    map.verify_against(&topo, NodeId(0)).unwrap();
}

#[test]
fn rca_on_two_cycle_takes_constant_ticks() {
    // The smallest possible RCA: loop length 2. The exact constant pins
    // the speed implementation (changing any dwell breaks this loudly).
    let topo = generators::ring(2);
    let p1 = run_single_rca(&topo, NodeId(1), EngineMode::Dense).unwrap();
    assert!(p1.clean_at_end);
    assert_eq!(p1.dist_to_root + p1.dist_from_root, 2);
    let p2 = run_single_rca(&topo, NodeId(1), EngineMode::Sparse).unwrap();
    assert_eq!(p1.ticks, p2.ticks, "modes agree on the exact tick count");
    assert!(
        (15..=40).contains(&p1.ticks),
        "2-cycle RCA should take a few dozen ticks, got {}",
        p1.ticks
    );
}

#[test]
fn bca_on_two_cycle_delivers_and_cleans() {
    let topo = generators::ring(2);
    let probe = run_single_bca(&topo, NodeId(1), Port(0), EngineMode::Dense).unwrap();
    assert_eq!(probe.loop_len, 2);
    assert!(probe.clean_at_end);
    assert!(probe.ticks_initiator < probe.ticks_delivered);
    assert!(
        probe.ticks_delivered < 50,
        "tiny loop, tiny cost: {}",
        probe.ticks_delivered
    );
}

#[test]
fn rca_ticks_exactly_linear_on_ring() {
    // Beyond O(D): on the ring the RCA cost is *exactly* affine in n —
    // measure the increment and check it is constant.
    let t: Vec<u64> = [4usize, 6, 8, 10]
        .iter()
        .map(|&n| {
            run_single_rca(&generators::ring(n), NodeId(1), EngineMode::Sparse)
                .unwrap()
                .ticks
        })
        .collect();
    let d1 = t[1] - t[0];
    let d2 = t[2] - t[1];
    let d3 = t[3] - t[2];
    assert_eq!(d1, d2, "non-affine RCA cost: {t:?}");
    assert_eq!(d2, d3, "non-affine RCA cost: {t:?}");
    assert_eq!(d1 % 2, 0, "two extra hops per ring step");
}

#[test]
fn probe_roles_can_be_assigned_anywhere() {
    // B in the middle of a line, message crossing the middle edge backwards.
    let topo = generators::line_bidi(9);
    // node 4's in-port fed by node 3: find it
    let (via, _) = topo
        .in_edges(NodeId(4))
        .find(|(_, ep)| ep.node == NodeId(3))
        .expect("wire 3 -> 4 exists");
    let probe = run_single_bca(&topo, NodeId(4), via, EngineMode::Dense).unwrap();
    assert!(probe.clean_at_end);
    // loop is 4 -> 3 (1 hop via the reverse edge!) .. shortest 4~>3 is direct
    assert_eq!(probe.loop_len, 2);
}

#[test]
fn gtd_root_with_high_degree_terminates() {
    // Root with the maximum degree: complete bidirectional K5.
    let topo = generators::complete_bidi(5);
    let run = GtdSession::on(&topo).run().unwrap();
    run.map.verify_against(&topo, NodeId(0)).unwrap();
    assert_eq!(run.map.num_edges(), 20);
}

#[test]
fn long_thin_network_terminates() {
    // Worst-case diameter vs N: a 40-node directed ring.
    let topo = generators::ring(40);
    let run = GtdSession::on(&topo).run().unwrap();
    run.map.verify_against(&topo, NodeId(0)).unwrap();
    assert!(run.clean_at_end);
}

#[test]
fn asymmetric_distances_handled() {
    // d(A, root) very different from d(root, A): ring + one shortcut back.
    let mut b = TopologyBuilder::new(12, 2);
    for u in 0..12u32 {
        b.connect_auto(NodeId(u), NodeId((u + 1) % 12)).unwrap();
    }
    b.connect_auto(NodeId(3), NodeId(0)).unwrap(); // shortcut 3 -> 0
    let topo = b.build().unwrap();
    let probe = run_single_rca(&topo, NodeId(3), EngineMode::Dense).unwrap();
    assert_eq!(probe.dist_to_root, 1, "via the shortcut");
    assert_eq!(probe.dist_from_root, 3);
    assert!(probe.clean_at_end);
    let run = GtdSession::on(&topo).run().unwrap();
    run.map.verify_against(&topo, NodeId(0)).unwrap();
}

#[test]
#[should_panic(expected = "root communicates with itself")]
fn rca_from_root_is_rejected() {
    let topo = generators::ring(3);
    let _ = run_single_rca(&topo, NodeId(0), EngineMode::Dense);
}

#[test]
#[should_panic(expected = "GtdRoot behaviour belongs on the root")]
fn gtd_start_on_non_root_is_rejected() {
    let topo = generators::ring(3);
    let _ = Engine::new(&topo, EngineMode::Dense, |meta| {
        // wrongly give every node the root behaviour
        ProtocolNode::new(&meta, StartBehavior::GtdRoot)
    });
}

#[test]
fn transcript_tick_spacing_shows_speed_one() {
    // Consecutive IgHop events at the root arrive 1 tick apart (stream
    // spacing), and the Ig->Id gap spans the OG+ID round trip.
    let topo = generators::ring(4);
    let trace = traced_gtd(&topo);
    let ig_ticks: Vec<u64> = trace
        .iter()
        .filter_map(|&(t, e)| matches!(e, TranscriptEvent::IgHop(_)).then_some(t))
        .collect();
    // first RCA: A = n1, path n1->root has 3 hops on the 4-ring
    assert!(ig_ticks.len() >= 3);
    assert_eq!(ig_ticks[1] - ig_ticks[0], 1, "stream chars 1 tick apart");
    assert_eq!(ig_ticks[2] - ig_ticks[1], 1);
}

#[test]
fn stats_counters_census() {
    let topo = generators::random_sc(20, 3, 13);
    let mut engine = gtd_core::runner::build_gtd_engine(&topo, EngineMode::Sparse);
    let mut events = Vec::new();
    loop {
        events.clear();
        engine.tick(&mut events);
        if events
            .iter()
            .any(|&(_, e)| e == TranscriptEvent::Terminated)
        {
            break;
        }
        assert!(engine.tick_count() < 5_000_000);
    }
    let e = topo.num_edges() as u64;
    let rcas: u64 = engine.nodes().iter().map(|n| n.stat_rcas_started()).sum();
    let bcas: u64 = engine.nodes().iter().map(|n| n.stat_bcas_started()).sum();
    // one FORWARD RCA per edge + one BACK RCA per BCA-returned token,
    // minus the root's local transcriptions; one BCA per edge.
    assert_eq!(bcas, e, "exactly one BCA per edge");
    assert!(rcas <= 2 * e, "at most two RCAs per edge");
    assert!(rcas >= e / 2, "at least the non-root FORWARDs");
}

#[test]
fn remapping_extension_reproduces_identical_maps() {
    // The dynamic-remapping extension: map, RESET-flood, map again — three
    // times on one live network, identical results each round.
    for seed in [1u64, 8] {
        let topo = generators::random_sc(18, 3, seed);
        let runs = GtdSession::on(&topo).run_repeated(3).unwrap();
        assert_eq!(runs.len(), 3);
        for r in &runs {
            r.map.verify_against(&topo, NodeId(0)).unwrap();
            assert!(r.clean_at_end);
        }
        // determinism: each round costs the same (the RESET flood itself
        // runs concurrently with the first RCA, so round 2+ may differ from
        // round 1 by at most the restart tick)
        assert_eq!(
            runs[1].ticks, runs[2].ticks,
            "steady-state rounds identical"
        );
        let stream = |i: usize| runs[i].event_stream().collect::<Vec<_>>();
        assert_eq!(stream(0), stream(1));
    }
}

#[test]
fn remapping_works_across_modes() {
    let topo = generators::ring(6);
    let a = GtdSession::on(&topo)
        .mode(EngineMode::Dense)
        .run_repeated(2)
        .unwrap();
    let b = GtdSession::on(&topo)
        .mode(EngineMode::Sparse)
        .run_repeated(2)
        .unwrap();
    // tick-stamped equality: the modes agree on *when* every transcript
    // symbol of the second round is emitted, not just the symbol order
    assert_eq!(a[1].events, b[1].events);
}
