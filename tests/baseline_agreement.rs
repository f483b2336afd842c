//! The three mappers — GTD (finite-state), routed DFS (unbounded memory)
//! and flood-echo (unbounded messages) — all run through the common
//! [`TopologyMapper`] trait, must discover literally the same wires, and
//! their costs must order the way README § Experiments (E7) states.

use gtd::{
    algo, all_mappers, generators, FloodEchoMapper, GtdMapper, NodeId, RoutedDfsMapper,
    TopologyMapper,
};

#[test]
fn all_three_mappers_agree_on_the_edge_set() {
    for seed in 0..10 {
        let topo = generators::random_sc(30, 3, seed);
        let truth = topo.sorted_edges();
        for mapper in all_mappers() {
            let run = mapper
                .map_network(&topo, NodeId(0))
                .expect("mapper succeeds");
            assert_eq!(run.edges, truth, "{} seed {seed}", mapper.name());
            assert!(run.verify_against(&topo));
        }
    }
}

#[test]
fn all_three_mappers_agree_from_non_default_roots() {
    let topo = generators::random_sc(24, 3, 3);
    let truth = topo.sorted_edges();
    for root in [5u32, 13, 23] {
        for mapper in all_mappers() {
            let run = mapper
                .map_network(&topo, NodeId(root))
                .expect("mapper succeeds");
            assert_eq!(run.edges, truth, "{} root {root}", mapper.name());
        }
    }
}

#[test]
fn cost_ordering_matches_design_predictions() {
    let gtd_mapper = GtdMapper::default();
    let dfs_mapper = RoutedDfsMapper;
    let flood_mapper = FloodEchoMapper;
    for seed in 0..5 {
        let topo = generators::random_sc(40, 3, seed);
        let d = algo::diameter(&topo) as u64;
        let e = topo.num_edges() as u64;

        let gtd = gtd_mapper.map_network(&topo, NodeId(0)).unwrap().rounds;
        let b2 = dfs_mapper.map_network(&topo, NodeId(0)).unwrap().rounds;
        let b1 = flood_mapper.map_network(&topo, NodeId(0)).unwrap().rounds;

        // flood-echo = O(D): by far the fastest.
        assert!(b1 <= d + 2, "B1 {b1} > D+2");
        // routed DFS = Θ(E·avg-d): between the two.
        assert!(b2 >= e, "B2 {b2} < E {e}");
        assert!(b2 <= e * (d + 1), "B2 {b2} > E(D+1)");
        // GTD pays the finite-state tax on top of B2's walk.
        assert!(gtd > b2, "GTD {gtd} should exceed B2 {b2}");
        assert!(gtd > b1 * 10, "GTD {gtd} should dwarf B1 {b1}");
        // …but stays within its O(E·D) envelope.
        assert!(gtd <= 60 * e * (d + 1), "GTD {gtd} outside O(E*D) envelope");
    }
}

#[test]
fn flood_hides_enormous_bandwidth() {
    // The "unbounded message size" assumption is what flood-echo buys
    // speed with; make the hidden cost visible through the trait's message
    // counter — GTD ships one constant-size character per wire per tick
    // and reports no message count at all.
    let topo = generators::random_sc(40, 3, 1);
    let flood = FloodEchoMapper.map_network(&topo, NodeId(0)).unwrap();
    let per_round_msgs = flood.messages.expect("flood counts messages") / flood.rounds.max(1);
    assert!(
        per_round_msgs as usize >= topo.num_edges(),
        "flooding transmits on every wire every round"
    );
    let gtd = GtdMapper::default().map_network(&topo, NodeId(0)).unwrap();
    assert_eq!(
        gtd.messages, None,
        "finite-state GTD has no message-count concept"
    );
}

#[test]
fn baselines_handle_structured_families() {
    for topo in [
        generators::ring(12),
        generators::torus(4, 4),
        generators::debruijn(2, 4),
        generators::tree_loop_random(3, 5),
        generators::line_bidi(9),
    ] {
        for mapper in all_mappers() {
            assert!(
                mapper
                    .map_network(&topo, NodeId(0))
                    .unwrap()
                    .verify_against(&topo),
                "{} failed",
                mapper.name()
            );
        }
    }
}

#[test]
fn gtd_and_routed_dfs_walk_the_same_number_of_edges() {
    // Both perform the identical DFS edge walk; their forward-move counts
    // must both equal E exactly.
    let topo = generators::random_sc(25, 4, 2);
    let run = gtd::GtdSession::on(&topo).run().unwrap();
    let b2 = gtd::baselines::source_routed_dfs(&topo, NodeId(0)).unwrap();
    assert_eq!(run.stats.edges_reported() as u64, b2.forward_moves);
    assert_eq!(b2.forward_moves as usize, topo.num_edges());
}
