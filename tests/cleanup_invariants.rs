//! Lemma 4.2 at integration scope: "the network is left completely
//! undisturbed by any data construct created by the algorithm".
//!
//! These tests drive the engine tick by tick and check the invariant at
//! every opportunity, not just at termination: whenever *no* processor has
//! protocol machinery running, *every* processor must be indistinguishable
//! from factory state (DFS bookkeeping aside — the paper never erases it).

use gtd_core::runner::{build_gtd_engine, run_single_bca, run_single_rca};
use gtd_core::{GtdSession, ProtocolNode, StartBehavior, TranscriptEvent};
use gtd_netsim::{generators, Engine, EngineMode, NodeId, Port};

/// Tick the engine to termination, checking the quiet⇒pristine invariant
/// on every tick. Returns total ticks.
fn run_checked(topo: &gtd_netsim::Topology) -> u64 {
    let mut engine = build_gtd_engine(topo, EngineMode::Dense);
    let mut events = Vec::new();
    let guard = 2_000_000u64;
    loop {
        assert!(engine.tick_count() < guard, "wedged");
        events.clear();
        engine.tick(&mut events);
        let anyone_busy = engine.nodes().iter().any(|n| n.protocol_busy());
        if !anyone_busy && engine.signals_in_flight() == 0 {
            for (i, n) in engine.nodes().iter().enumerate() {
                assert!(
                    n.snake_state_pristine(),
                    "tick {}: idle network, node {i} residue: {}",
                    engine.tick_count(),
                    n.residue_description()
                );
            }
        }
        if events
            .iter()
            .any(|&(_, ev)| ev == TranscriptEvent::Terminated)
        {
            break;
        }
    }
    let t = engine.tick_count();
    // after termination: one grace tick, then everything is pristine forever
    engine.tick(&mut events);
    assert!(engine.is_quiet());
    assert_eq!(engine.signals_in_flight(), 0);
    for n in engine.nodes() {
        assert!(
            n.snake_state_pristine(),
            "post-termination residue: {}",
            n.residue_description()
        );
    }
    t
}

#[test]
fn quiet_network_is_always_pristine_ring() {
    run_checked(&generators::ring(7));
}

#[test]
fn quiet_network_is_always_pristine_random() {
    for seed in 0..8 {
        run_checked(&generators::random_sc(20, 3, seed));
    }
}

#[test]
fn quiet_network_is_always_pristine_tree_loop() {
    run_checked(&generators::tree_loop_random(3, 2));
}

#[test]
fn single_rca_leaves_no_trace_anywhere() {
    for seed in 0..5 {
        let topo = generators::random_sc(25, 3, seed);
        for a in [1u32, 7, 13] {
            let probe = run_single_rca(&topo, NodeId(a), EngineMode::Dense).unwrap();
            assert!(probe.clean_at_end, "seed {seed} A={a}");
        }
    }
}

#[test]
fn single_bca_leaves_no_trace_anywhere() {
    for seed in 0..5 {
        let topo = generators::random_sc(25, 3, seed);
        // every node's in-port 0 is wired in random_sc (hamiltonian base)
        for b in [0u32, 5, 11] {
            let probe = run_single_bca(&topo, NodeId(b), Port(0), EngineMode::Dense).unwrap();
            assert!(probe.clean_at_end, "seed {seed} B={b}");
        }
    }
}

#[test]
fn finite_state_bound_holds() {
    // The per-processor character high-water mark must stay a small
    // constant — independent of N — or the automaton is not finite-state.
    let mut max_small = 0u64;
    let mut max_large = 0u64;
    for (n, slot) in [(16usize, 0usize), (64, 1)] {
        let topo = generators::random_sc(n, 3, 3);
        let mut engine = build_gtd_engine(&topo, EngineMode::Sparse);
        let mut events = Vec::new();
        for _ in 0..5_000_000u64 {
            events.clear();
            engine.tick(&mut events);
            if events
                .iter()
                .any(|&(_, ev)| ev == TranscriptEvent::Terminated)
            {
                break;
            }
        }
        let m = engine
            .nodes()
            .iter()
            .map(|x| x.stat_max_chars())
            .max()
            .unwrap();
        if slot == 0 {
            max_small = m;
        } else {
            max_large = m;
        }
    }
    assert!(
        max_small <= 8,
        "character high-water {max_small} > constant bound"
    );
    assert!(
        max_large <= 8,
        "character high-water {max_large} > constant bound"
    );
    // and crucially: not growing with N
    assert!(
        max_large <= max_small + 2,
        "char bound grows with N: {max_small} -> {max_large}"
    );
}

#[test]
fn kill_floods_are_bounded_per_protocol() {
    // Each RCA/BCA floods at most one KILL acceptance per processor per
    // erasure wave; total accepted kills must be O((RCAs + BCAs) * N).
    let topo = generators::random_sc(24, 3, 6);
    let mut engine = build_gtd_engine(&topo, EngineMode::Sparse);
    let mut events = Vec::new();
    for _ in 0..5_000_000u64 {
        events.clear();
        engine.tick(&mut events);
        if events
            .iter()
            .any(|&(_, ev)| ev == TranscriptEvent::Terminated)
        {
            break;
        }
    }
    let kills: u64 = engine.nodes().iter().map(|n| n.stat_kills_accepted()).sum();
    let protocols: u64 = engine
        .nodes()
        .iter()
        .map(|n| n.stat_rcas_started() + n.stat_bcas_started())
        .sum();
    let n = topo.num_nodes() as u64;
    assert!(
        kills <= protocols * n * 2,
        "kills {kills} exceed 2*N per protocol ({protocols} protocols)"
    );
}

#[test]
fn passive_network_stays_silent_forever() {
    // No root, no probes: nothing may ever happen (quiescence, §1.1).
    let topo = generators::random_sc(15, 3, 0);
    let mut engine = Engine::new(&topo, EngineMode::Sparse, |meta| {
        ProtocolNode::new(&meta, StartBehavior::Passive)
    });
    let mut events = Vec::new();
    for _ in 0..50 {
        engine.tick(&mut events);
    }
    assert!(events.is_empty());
    assert!(engine.is_quiet());
    assert_eq!(engine.signals_in_flight(), 0);
}

#[test]
fn remap_rounds_are_also_pristine_throughout() {
    // The re-mapping extension must preserve the quiet ⇒ pristine invariant
    // across round boundaries (the RESET flood runs concurrently with the
    // new round's first RCA and must not confuse the census: RESET touches
    // only DFS bookkeeping, never snake state).
    let topo = generators::random_sc(16, 3, 21);
    let runs = GtdSession::on(&topo)
        .mode(EngineMode::Dense)
        .run_repeated(2)
        .unwrap();
    for r in &runs {
        assert!(r.clean_at_end);
        r.map.verify_against(&topo, NodeId(0)).unwrap();
    }
}
