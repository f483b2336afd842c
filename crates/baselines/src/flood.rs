//! Baseline B1: unbounded-message flood-echo mapping.
//!
//! Model relaxations vs the paper: processors have unique identifiers and
//! unbounded local memory, and a wire carries an arbitrarily large message
//! per round. Everything else is kept: links are unidirectional, topology
//! unknown, one synchronous round per global tick.
//!
//! Round 0: every processor announces `(my id, my out-port number)` on each
//! out-wire, so each receiver learns the full identity of every in-edge —
//! the only fact a directed network cannot know locally.
//! Rounds 1…: every processor floods the set of edge records it knows on
//! all out-wires; sets merge on reception. After at most D+1 rounds the
//! root knows every edge. The root detects completion locally by watching
//! its knowledge stop growing for D_max rounds — here we simply run until
//! the root's set is stable over one round *and* complete (the simulation
//! has ground truth to check against; a real deployment would use a
//! diameter bound, which is exactly what makes this an *idealized*
//! baseline).

use gtd_core::PreconditionViolation;
use gtd_netsim::{Edge, NodeId, Topology};
use std::collections::BTreeSet;

/// Result of a flood-echo run.
#[derive(Clone, Debug)]
pub struct FloodOutcome {
    /// Synchronous rounds until the root's edge set was complete.
    pub rounds: u64,
    /// The edge set collected at the root.
    pub edges: Vec<Edge>,
    /// Total messages sent (each a whole edge-set — unbounded size!).
    pub messages: u64,
    /// Total edge records carried across wires (∝ bits of bandwidth a real
    /// network would burn; shows what "unbounded messages" hides).
    pub records_shipped: u64,
}

/// Run the flood-echo mapper with the collector at `root`, refusing a
/// root or network that fails [`PreconditionViolation::check`].
pub fn flood_echo(topo: &Topology, root: NodeId) -> Result<FloodOutcome, PreconditionViolation> {
    PreconditionViolation::check(topo, root)?;
    let n = topo.num_nodes();
    // Round 0: learn in-edges — every processor knows (src, src_port,
    // self, in_port) for each of its in-wires after one exchange.
    let mut know: Vec<BTreeSet<Edge>> = vec![BTreeSet::new(); n];
    let mut messages = 0u64;
    let mut records = 0u64;
    for v in topo.node_ids() {
        for (in_port, ep) in topo.in_edges(v) {
            know[v.idx()].insert(Edge {
                src: ep.node,
                src_port: ep.port,
                dst: v,
                dst_port: in_port,
            });
            messages += 1; // the (id, out-port) announcement on this wire
            records += 1;
        }
    }
    let total_edges = topo.num_edges();
    let mut rounds = 1u64; // round 0 happened above
    while know[root.idx()].len() < total_edges {
        // Synchronous flood round: everyone transmits its current set.
        let snapshot: Vec<BTreeSet<Edge>> = know.clone();
        for u in topo.node_ids() {
            if snapshot[u.idx()].is_empty() {
                continue;
            }
            for (_, ep) in topo.out_edges(u) {
                messages += 1;
                records += snapshot[u.idx()].len() as u64;
                know[ep.node.idx()].extend(snapshot[u.idx()].iter().copied());
            }
        }
        rounds += 1;
        assert!(
            rounds <= n as u64 + 2,
            "flood-echo must finish within D+2 ≤ N+2 rounds on a strongly-connected network"
        );
    }
    let edges: Vec<Edge> = know[root.idx()].iter().copied().collect();
    Ok(FloodOutcome {
        rounds,
        edges,
        messages,
        records_shipped: records,
    })
}

impl FloodOutcome {
    /// Does the collected edge set match the network exactly?
    pub fn verify_against(&self, topo: &Topology) -> bool {
        self.edges == topo.sorted_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_netsim::{algo, generators};

    #[test]
    fn maps_ring_exactly() {
        let t = generators::ring(7);
        let out = flood_echo(&t, NodeId(0)).unwrap();
        assert!(out.verify_against(&t));
        // ring diameter 6: knowledge from the far node needs 6 forward hops
        assert!(out.rounds <= 8, "rounds = {}", out.rounds);
    }

    #[test]
    fn rounds_scale_with_diameter_not_size() {
        let small_d = generators::debruijn(2, 5); // 32 nodes, D ≈ 5
        let big_d = generators::ring(32); // 32 nodes, D = 31
        let a = flood_echo(&small_d, NodeId(0)).unwrap();
        let b = flood_echo(&big_d, NodeId(0)).unwrap();
        assert!(a.verify_against(&small_d));
        assert!(b.verify_against(&big_d));
        assert!(
            a.rounds < b.rounds,
            "low-diameter network must finish sooner ({} vs {})",
            a.rounds,
            b.rounds
        );
        let d = algo::diameter(&big_d) as u64;
        assert!(b.rounds <= d + 2);
    }

    #[test]
    fn maps_random_networks() {
        for seed in 0..10 {
            let t = generators::random_sc(40, 3, seed);
            let out = flood_echo(&t, NodeId(0)).unwrap();
            assert!(out.verify_against(&t), "seed {seed}");
            let d = algo::diameter(&t) as u64;
            assert!(out.rounds <= d + 2, "rounds {} > D+2 {}", out.rounds, d + 2);
        }
    }

    #[test]
    fn bandwidth_cost_is_enormous() {
        // The "win" of unbounded messages is bought with Ω(E) records per
        // wire per round — make the hidden cost visible.
        let t = generators::random_sc(40, 3, 1);
        let out = flood_echo(&t, NodeId(0)).unwrap();
        assert!(out.records_shipped as usize > t.num_edges() * t.num_nodes() / 4);
    }
}
