//! The standalone RCA/BCA probes and the raw engine constructors.
//!
//! The full-protocol entry points live on
//! [`GtdSession`](crate::session::GtdSession). The single-probe runners
//! ([`run_single_rca`],
//! [`run_single_bca`]) are the canonical way to measure one auxiliary
//! protocol in isolation (experiments E3/E4). Both, like the session,
//! size the wire word to the network's δ ([`needs_wide_word`]).

use crate::events::TranscriptEvent;
use crate::node::{ProtocolNode, StartBehavior};
use crate::session::{default_tick_budget, GtdError};
use gtd_netsim::{algo, Engine, EngineMode, NodeId, Port, Topology};
use gtd_snake::{Signal, WireWord};

/// Does `topo`'s δ exceed what the narrow `u64` wire word carries? Such
/// networks run on `u128` words ([`ProtocolNode`]'s `W`).
pub fn needs_wide_word(topo: &Topology) -> bool {
    topo.delta() > Signal::<u64>::MAX_DELTA
}

/// Build a GTD engine over `topo` with the root at node 0 on the narrow
/// wire word — exposed so tests and experiments can drive ticks manually
/// (mid-run invariant checks, phase censuses). Panics if δ > 4; see
/// [`build_gtd_engine_with`].
pub fn build_gtd_engine(topo: &Topology, mode: EngineMode) -> Engine<ProtocolNode> {
    build_gtd_engine_with(topo, mode, NodeId(0), None)
}

/// [`build_gtd_engine`] with an explicit parallel shard count (ignored
/// outside [`EngineMode::Parallel`]; `None` auto-sizes).
pub fn build_gtd_engine_sharded(
    topo: &Topology,
    mode: EngineMode,
    par_shards: Option<usize>,
) -> Engine<ProtocolNode> {
    build_gtd_engine_with(topo, mode, NodeId(0), par_shards)
}

/// The GTD engine over `topo` on the wire word `W`, with the master on
/// `root`: the root powers on as [`StartBehavior::GtdRoot`], every other
/// processor passive. The one builder behind the two above and
/// [`GtdSession`](crate::session::GtdSession); any network whose δ fits
/// `W` ([`Signal::MAX_DELTA`]) runs identically on either word.
pub fn build_gtd_engine_with<W: WireWord>(
    topo: &Topology,
    mode: EngineMode,
    root: NodeId,
    par_shards: Option<usize>,
) -> Engine<ProtocolNode<W>> {
    Engine::with_root_sharded(topo, mode, root, par_shards, &mut |meta| {
        let start = if meta.is_root {
            StartBehavior::GtdRoot
        } else {
            StartBehavior::Passive
        };
        ProtocolNode::with_word(&meta, start)
    })
}

/// An engine where `who` powers on with `start` and everyone else waits.
fn probe_engine<W: WireWord>(
    topo: &Topology,
    mode: EngineMode,
    who: NodeId,
    start: StartBehavior,
) -> Engine<ProtocolNode<W>> {
    Engine::new(topo, mode, |meta| {
        let start = if meta.id == who {
            start
        } else {
            StartBehavior::Passive
        };
        ProtocolNode::with_word(&meta, start)
    })
}

/// Drain the final tick's emissions (there are none in a clean run), then:
/// is the network quiet with every processor back in its factory snake
/// state (Lemma 4.2)?
fn drains_clean<W: WireWord>(engine: &mut Engine<ProtocolNode<W>>) -> bool {
    engine.tick(&mut Vec::new());
    engine.is_quiet()
        && engine.signals_in_flight() == 0
        && engine.nodes().iter().all(|n| n.snake_state_pristine())
}

/// Measurements from a standalone RCA (experiment E3, Lemma 4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RcaProbe {
    /// Ticks from initiation until A terminates the RCA.
    pub ticks: u64,
    /// Hop distance d(A, root) in the network.
    pub dist_to_root: u32,
    /// Hop distance d(root, A).
    pub dist_from_root: u32,
    /// Was the entire network back to factory snake-state at completion?
    pub clean_at_end: bool,
}

/// Run one RCA from processor `a` to the root (node 0) and measure it.
pub fn run_single_rca(topo: &Topology, a: NodeId, mode: EngineMode) -> Result<RcaProbe, GtdError> {
    assert_ne!(
        a,
        NodeId(0),
        "the root communicates with itself locally (README, reconstruction choice 2)"
    );
    if needs_wide_word(topo) {
        rca_probe::<u128>(topo, a, mode)
    } else {
        rca_probe::<u64>(topo, a, mode)
    }
}

fn rca_probe<W: WireWord>(
    topo: &Topology,
    a: NodeId,
    mode: EngineMode,
) -> Result<RcaProbe, GtdError> {
    let mut engine = probe_engine::<W>(topo, mode, a, StartBehavior::SingleRca);
    let budget = default_tick_budget(topo);
    let (_, fired) = engine.run_until(budget, |&(nid, ev)| {
        nid == a && ev == TranscriptEvent::RcaComplete
    });
    if !fired {
        return Err(GtdError::BudgetExhausted {
            budget,
            ticks: engine.tick_count(),
        });
    }
    let ticks = engine.tick_count();
    Ok(RcaProbe {
        ticks,
        dist_to_root: algo::bfs_dist(topo, a)[0],
        dist_from_root: algo::bfs_dist(topo, NodeId(0))[a.idx()],
        clean_at_end: drains_clean(&mut engine),
    })
}

/// Measurements from a standalone BCA (experiment E4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BcaProbe {
    /// Ticks until the initiator B finished (released the UNMARK).
    pub ticks_initiator: u64,
    /// Ticks until the target acted on the payload (absorbed the UNMARK).
    pub ticks_delivered: u64,
    /// Length of the marked loop B→…→A→B (shortest B→A distance + 1).
    pub loop_len: u32,
    /// Was the entire network back to factory snake-state at completion?
    pub clean_at_end: bool,
}

/// Run one BCA: processor `b` sends a message backwards through its
/// in-port `via` (the wire from its in-neighbour) and both ends are timed.
pub fn run_single_bca(
    topo: &Topology,
    b: NodeId,
    via: Port,
    mode: EngineMode,
) -> Result<BcaProbe, GtdError> {
    if needs_wide_word(topo) {
        bca_probe::<u128>(topo, b, via, mode)
    } else {
        bca_probe::<u64>(topo, b, via, mode)
    }
}

fn bca_probe<W: WireWord>(
    topo: &Topology,
    b: NodeId,
    via: Port,
    mode: EngineMode,
) -> Result<BcaProbe, GtdError> {
    let target = topo
        .in_endpoint(b, via)
        .expect("BCA requires a wired in-port")
        .node;
    let mut engine = probe_engine::<W>(topo, mode, b, StartBehavior::SingleBca { via });
    let budget = default_tick_budget(topo);
    let mut ticks_initiator = None;
    let mut ticks_delivered = None;
    let mut scratch = Vec::new();
    while ticks_delivered.is_none() {
        if engine.tick_count() >= budget {
            return Err(GtdError::BudgetExhausted {
                budget,
                ticks: engine.tick_count(),
            });
        }
        scratch.clear();
        engine.tick(&mut scratch);
        for &(nid, ev) in scratch.iter() {
            match ev {
                TranscriptEvent::BcaComplete if nid == b => {
                    ticks_initiator = Some(engine.tick_count());
                }
                // The payload surfaces at the in-neighbour only.
                TranscriptEvent::BcaDelivered if nid == target => {
                    ticks_delivered = Some(engine.tick_count());
                }
                _ => {}
            }
        }
    }
    Ok(BcaProbe {
        ticks_initiator: ticks_initiator.expect("initiator finishes before delivery"),
        ticks_delivered: ticks_delivered.unwrap(),
        loop_len: algo::bfs_dist(topo, b)[target.idx()] + 1,
        clean_at_end: drains_clean(&mut engine),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_netsim::generators;

    #[test]
    fn single_rca_on_ring_is_clean_and_linear() {
        let topo = generators::ring(6);
        let probe = run_single_rca(&topo, NodeId(3), EngineMode::Dense).unwrap();
        assert!(probe.clean_at_end, "Lemma 4.2 violated");
        // loop length = d(A,root) + d(root,A) = 6 on a ring; speed-1 ≈ 3
        // ticks/hop across ~4 phases
        let loop_len = (probe.dist_to_root + probe.dist_from_root) as u64;
        assert_eq!(loop_len, 6);
        assert!(probe.ticks >= 3 * loop_len, "too fast to be speed-1");
        assert!(
            probe.ticks <= 20 * loop_len + 40,
            "not O(D): {}",
            probe.ticks
        );
    }

    #[test]
    fn single_bca_delivers_backwards() {
        // ring: 1's in-port 0 is fed by 0; BCA from 1 targets 0.
        let topo = generators::ring(4);
        let probe = run_single_bca(&topo, NodeId(1), Port(0), EngineMode::Dense).unwrap();
        assert!(probe.clean_at_end);
        // loop 1→2→3→0→1: 4 hops
        assert_eq!(probe.loop_len, 4);
        assert!(probe.ticks_initiator < probe.ticks_delivered);
    }
}
