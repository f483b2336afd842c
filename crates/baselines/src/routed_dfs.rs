//! Baseline B2: unbounded-memory source-routed DFS mapping.
//!
//! Same edge walk as the paper's GTD (§3) — the DFS token crosses every
//! edge forward once and returns backwards once per traversal — but the
//! finite-state restriction is dropped: the token carries the entire
//! accumulated map (unbounded size), so no RCA reporting is needed, and a
//! backwards move is an addressed flood that reaches the waiting processor
//! in d(holder, target) rounds instead of a snake-built BCA.
//!
//! Complexity: E forward rounds + Σ backtrack distances = Θ(E·D̄) rounds.
//! This is the same *shape* as GTD's O(E·D) — what the comparison in
//! experiment E7 isolates is the constant factor that snakes, speed-1
//! dwells, KILL floods and UNMARK circuits cost, and the O(N·D̄) extra a
//! per-move RCA report would add.

use gtd_core::PreconditionViolation;
use gtd_netsim::{algo, Edge, NodeId, Topology};

/// Result of a source-routed DFS run.
#[derive(Clone, Debug)]
pub struct RoutedDfsOutcome {
    /// Synchronous rounds until the token returned to the root with the map.
    pub rounds: u64,
    /// The edge set accumulated in the token.
    pub edges: Vec<Edge>,
    /// Forward token moves (must equal E).
    pub forward_moves: u64,
    /// Backwards moves (bounces + backtracks), each an addressed flood.
    pub backward_moves: u64,
    /// Message count, charging each backwards flood a full network's worth
    /// of messages (the price of addressed flooding without routing tables).
    pub messages: u64,
}

/// Run the unbounded-memory DFS mapper from `root`, refusing a root or
/// network that fails [`PreconditionViolation::check`].
pub fn source_routed_dfs(
    topo: &Topology,
    root: NodeId,
) -> Result<RoutedDfsOutcome, PreconditionViolation> {
    PreconditionViolation::check(topo, root)?;
    let n = topo.num_nodes();
    let e = topo.num_edges() as u64;
    let mut visited = vec![false; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut cursor = vec![0usize; n];
    let mut edges: Vec<Edge> = Vec::with_capacity(e as usize);
    let mut rounds = 0u64;
    let mut forward_moves = 0u64;
    let mut backward_moves = 0u64;
    let mut messages = 0u64;
    visited[root.idx()] = true;
    let mut cur = root;
    loop {
        let outs: Vec<_> = topo.out_edges(cur).collect();
        if cursor[cur.idx()] < outs.len() {
            let (o, ep) = outs[cursor[cur.idx()]];
            // Forward move: one round, one message.
            rounds += 1;
            forward_moves += 1;
            messages += 1;
            edges.push(Edge {
                src: cur,
                src_port: o,
                dst: ep.node,
                dst_port: ep.port,
            });
            if !visited[ep.node.idx()] {
                visited[ep.node.idx()] = true;
                parent[ep.node.idx()] = Some(cur);
                cur = ep.node;
            } else {
                // Bounce: addressed flood from ep.node back to cur.
                let d = algo::bfs_dist(topo, ep.node)[cur.idx()] as u64;
                rounds += d;
                backward_moves += 1;
                messages += e; // flood upper bound: every wire once
                cursor[cur.idx()] += 1;
            }
        } else if let Some(par) = parent[cur.idx()] {
            // Subtree finished: flood the token back to the parent.
            let d = algo::bfs_dist(topo, cur)[par.idx()] as u64;
            rounds += d;
            backward_moves += 1;
            messages += e;
            cursor[par.idx()] += 1;
            cur = par;
        } else {
            break; // the root has finished every out-port
        }
    }
    edges.sort_unstable();
    Ok(RoutedDfsOutcome {
        rounds,
        edges,
        forward_moves,
        backward_moves,
        messages,
    })
}

impl RoutedDfsOutcome {
    /// Does the accumulated edge set match the network exactly?
    pub fn verify_against(&self, topo: &Topology) -> bool {
        self.edges == topo.sorted_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_netsim::generators;

    #[test]
    fn maps_ring_exactly() {
        let t = generators::ring(6);
        let out = source_routed_dfs(&t, NodeId(0)).unwrap();
        assert!(out.verify_against(&t));
        assert_eq!(out.forward_moves, 6);
        // every forward traversal is answered by exactly one backward move
        assert_eq!(out.backward_moves, 6);
    }

    #[test]
    fn maps_random_networks() {
        for seed in 0..15 {
            let t = generators::random_sc(50, 3, seed);
            let out = source_routed_dfs(&t, NodeId(0)).unwrap();
            assert!(out.verify_against(&t), "seed {seed}");
            assert_eq!(out.forward_moves as usize, t.num_edges());
            assert_eq!(out.backward_moves as usize, t.num_edges());
        }
    }

    #[test]
    fn rounds_bounded_by_e_times_d() {
        for seed in 0..5 {
            let t = generators::random_sc(40, 3, seed);
            let d = algo::diameter(&t) as u64;
            let e = t.num_edges() as u64;
            let out = source_routed_dfs(&t, NodeId(0)).unwrap();
            assert!(
                out.rounds <= e * (d + 1),
                "rounds {} > E(D+1) {}",
                out.rounds,
                e * (d + 1)
            );
            assert!(out.rounds >= e, "at least one round per edge");
        }
    }

    #[test]
    fn maps_parallel_edges_and_two_cycles() {
        let mut b = gtd_netsim::TopologyBuilder::new(3, 3);
        for (u, v) in [(0u32, 1u32), (0, 1), (1, 0), (1, 2), (2, 0), (0, 2)] {
            b.connect_auto(NodeId(u), NodeId(v)).unwrap();
        }
        let t = b.build().unwrap();
        let out = source_routed_dfs(&t, NodeId(0)).unwrap();
        assert!(out.verify_against(&t));
    }
}
