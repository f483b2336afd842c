//! A naive reference simulator for checking [`Engine`](crate::Engine):
//! paper §1.1 taken literally. Every tick every processor steps against a
//! snapshot of its in-ports, then every in-port pulls what its feeding
//! out-port wrote, through feeder lists built from [`Topology::edges`].
//! There is no frontier, timer, shard or route table, and the only code
//! shared with the engine is [`FaultPlane::fate`], which defines the fault
//! model, so an engine routing or scheduling bug cannot reproduce here.

use crate::engine::{Automaton, FaultPlane, NodeMeta, StepCtx};
use crate::ids::{NodeId, PortMask};
use crate::mutation::MembershipChange;
use crate::topology::Topology;

/// `feeds[v][i]`: the `(node, out-port)` wired into in-port `i` of `v`.
type Feeds = Vec<Vec<Option<(usize, usize)>>>;

/// The feeds and the `(in, out)` port masks, read off [`Topology::edges`].
fn wiring(topo: &Topology) -> (Feeds, Vec<(PortMask, PortMask)>) {
    let delta = topo.delta() as usize;
    let mut feeds = vec![vec![None; delta]; topo.num_nodes()];
    let mut masks = vec![(PortMask::default(), PortMask::default()); topo.num_nodes()];
    for e in topo.edges() {
        feeds[e.dst.idx()][e.dst_port.idx()] = Some((e.src.idx(), e.src_port.idx()));
        masks[e.dst.idx()].0 = masks[e.dst.idx()].0.with(e.dst_port);
        masks[e.src.idx()].1 = masks[e.src.idx()].1.with(e.src_port);
    }
    (feeds, masks)
}

/// The naive simulator. Mirrors the engine's observable surface: events
/// in node order, quiescence, in-flight census and fault counters.
pub struct Oracle<A: Automaton> {
    delta: usize,
    root: NodeId,
    tick: u64,
    nodes: Vec<A>,
    feeds: Feeds,
    masks: Vec<(PortMask, PortMask)>,
    /// `inputs[v][i]`: what in-port `i` of `v` reads on the coming tick.
    inputs: Vec<Vec<A::Sig>>,
    /// The wake each processor's latest step asked for (`u64::MAX`: none).
    wakes: Vec<u64>,
    plane: FaultPlane,
    /// Late characters: `(due tick, node, in-port, emit tick, character)`.
    held: Vec<(u64, usize, usize, u64, A::Sig)>,
    /// Characters the plane dropped, and delayed.
    faults: (u64, u64),
}

impl<A: Automaton> Oracle<A> {
    /// Power on one automaton per node of `topo`, `root` flagged.
    pub fn new(topo: &Topology, root: NodeId, factory: &mut dyn FnMut(NodeMeta) -> A) -> Self {
        let (feeds, masks) = wiring(topo);
        let (n, delta) = (topo.num_nodes(), topo.delta() as usize);
        let mut oracle = Oracle {
            delta,
            root,
            tick: 0,
            nodes: Vec::new(),
            feeds,
            masks,
            inputs: vec![vec![A::Sig::default(); delta]; n],
            // Every processor takes a power-on step at tick 0.
            wakes: vec![0; n],
            plane: FaultPlane::NONE,
            held: Vec::new(),
            faults: (0, 0),
        };
        oracle.nodes = (0..n).map(|v| factory(oracle.meta(v))).collect();
        oracle
    }

    fn meta(&self, v: usize) -> NodeMeta {
        NodeMeta {
            id: NodeId(v as u32),
            is_root: v == self.root.idx(),
            in_connected: self.masks[v].0,
            out_connected: self.masks[v].1,
            delta: self.delta as u8,
        }
    }

    /// Interpose `plane` on every wire from now on.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.plane = plane;
    }

    /// One tick: late characters land, everyone steps, every in-port pulls.
    pub fn tick(&mut self, events: &mut Vec<(NodeId, A::Event)>) {
        let (t, blank) = (self.tick, A::Sig::default());
        // A late character lands only on a blank in-port, and only the
        // latest emission among those due on one in-port; the rest are lost.
        let (due, later): (Vec<_>, _) = self.held.drain(..).partition(|h| h.0 <= t);
        self.held = later;
        for &(_, v, i, emit, sig) in &due {
            let newest = due.iter().all(|g| (g.1, g.2) != (v, i) || g.3 <= emit);
            if newest && self.inputs[v][i] == blank {
                self.inputs[v][i] = sig;
            } else {
                self.faults.0 += 1;
            }
        }
        let mut outputs = vec![vec![blank; self.delta]; self.nodes.len()];
        let mut emitted = Vec::new();
        for (v, node) in self.nodes.iter_mut().enumerate() {
            self.wakes[v] = u64::MAX;
            node.step(&mut StepCtx {
                tick: t,
                inputs: &self.inputs[v],
                outputs: &mut outputs[v],
                events: &mut emitted,
                wake: &mut self.wakes[v],
            });
            events.extend(emitted.drain(..).map(|e| (NodeId(v as u32), e)));
        }
        for (v, feeds) in self.feeds.iter().enumerate() {
            for (i, feed) in feeds.iter().enumerate() {
                self.inputs[v][i] = blank;
                let Some((u, o)) = *feed else { continue };
                match (outputs[u][o], self.plane.fate(u * self.delta + o, t)) {
                    (sig, _) if sig == blank => {}
                    (_, None) => self.faults.0 += 1,
                    (sig, Some(0)) => self.inputs[v][i] = sig,
                    (sig, Some(d)) => {
                        self.faults.1 += 1;
                        self.held.push(((t + 1).saturating_add(d), v, i, t, sig));
                    }
                }
            }
        }
        self.tick += 1;
    }

    /// Rewire to `topo` between ticks, with `change` joining or removing
    /// a processor. A character in flight survives only on a wire that
    /// joins the same two physical processors through the same ports;
    /// held characters are all lost. Processors whose port masks changed
    /// get [`Automaton::on_rewire`] and a step on the coming tick.
    pub fn apply_topology_with(
        &mut self,
        topo: &Topology,
        change: MembershipChange,
        factory: &mut dyn FnMut(NodeMeta) -> A,
    ) {
        self.faults.0 += self.held.len() as u64;
        self.held.clear();
        // The old index of each new index (`None`: the newcomer).
        let old: Vec<Option<usize>> = (0..topo.num_nodes())
            .map(|v| match change {
                MembershipChange::None => Some(v),
                MembershipChange::Joined { node } => (v != node.idx()).then_some(v),
                MembershipChange::Left { node } => Some(v + usize::from(v >= node.idx())),
            })
            .collect();
        let (feeds, masks) = wiring(topo);
        let blank = A::Sig::default();
        let mut inputs = vec![vec![blank; self.delta]; topo.num_nodes()];
        for (v, ins) in inputs.iter_mut().enumerate() {
            for (i, sig) in ins.iter_mut().enumerate() {
                if let (Some(ov), Some((u, o))) = (old[v], feeds[v][i]) {
                    if old[u].is_some_and(|ou| self.feeds[ov][i] == Some((ou, o))) {
                        *sig = self.inputs[ov][i];
                    }
                }
            }
        }
        let wakes = old.iter().map(|o| o.map_or(self.tick, |o| self.wakes[o]));
        self.wakes = wakes.collect();
        let old_masks = std::mem::replace(&mut self.masks, masks);
        (self.feeds, self.inputs) = (feeds, inputs);
        self.root = change.relabel(self.root);
        match change {
            MembershipChange::None => {}
            MembershipChange::Joined { node } => {
                let meta = self.meta(node.idx());
                self.nodes.push(factory(meta.clone()));
                self.nodes[node.idx()].on_join(&meta);
            }
            MembershipChange::Left { node } => drop(self.nodes.remove(node.idx())),
        }
        for (v, o) in old.iter().enumerate() {
            if o.is_some_and(|o| old_masks[o] != self.masks[v]) {
                let meta = self.meta(v);
                self.nodes[v].on_rewire(&meta);
                self.wakes[v] = self.wakes[v].min(self.tick);
            }
        }
    }

    /// Ticks elapsed.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// No wake asked for, no character on a wire or held back.
    pub fn is_quiet(&self) -> bool {
        self.signals_in_flight() == 0 && self.wakes.iter().all(|&w| w == u64::MAX)
    }

    /// Non-blank characters on wires plus those held back.
    pub fn signals_in_flight(&self) -> usize {
        let blank = A::Sig::default();
        let on_wires = self.inputs.iter().flatten().filter(|s| **s != blank);
        on_wires.count() + self.held.len()
    }

    /// Characters the fault plane dropped (a rewire drops every held one)
    /// and delayed.
    pub fn faults(&self) -> (u64, u64) {
        self.faults
    }
}
