//! Port-labelled directed multigraphs — the paper's network model (§1.1).
//!
//! A network is formed "by connecting out-ports from processors to the
//! in-ports of other processors with wires". Each wire is unidirectional and
//! carries one constant-size character per tick. A pair of processors may be
//! connected by two wires in opposite directions (a simulated bidirectional
//! link) or by several parallel wires; a processor is never wired to itself
//! (self-loops carry no information in the model and the paper never uses
//! them — see README, reconstruction choice 3).
//!
//! ## Storage
//!
//! Every port of node `v` has a *slot*, `v·δ + port`, and a [`Topology`]
//! keeps one `u32` per slot in each direction: `outs[v·δ + o]` is the
//! in-slot that out-port `o` of `v` feeds, `ins[v·δ + i]` the out-slot
//! feeding in-port `i` of `v`, and [`UNWIRED`] marks a free port. A δ=3
//! network costs 24 bytes per node. The builder writes these tables, the
//! finished topology keeps them behind one shared, immutable handle, and
//! every clone of the topology and every engine built over it reads that
//! same allocation as its route tables, so the wiring has one format,
//! held once, from generator to tick. An endpoint is `slot / δ` and
//! `slot % δ`, so lookups are O(1); degrees and masks read a node's δ
//! slots. The query API below exposes thin views
//! (iterators and O(1) lookups) over these arrays; nothing allocates.

use crate::ids::{Endpoint, NodeId, Port, PortMask};
use std::sync::Arc;

/// Largest supported port bound δ. Connectivity masks are single 64-bit
/// words ([`PortMask`]); the paper's δ is a small constant, so this is not
/// a practical restriction.
pub const MAX_DELTA: u8 = 64;

/// The slot-table entry of a port with no wire.
pub(crate) const UNWIRED: u32 = u32::MAX;

/// A single wire: out-port `src_port` of `src` feeds in-port `dst_port` of `dst`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Sending processor.
    pub src: NodeId,
    /// Out-port on the sender.
    pub src_port: Port,
    /// Receiving processor.
    pub dst: NodeId,
    /// In-port on the receiver.
    pub dst_port: Port,
}

/// Errors raised while constructing a topology.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// A referenced node does not exist.
    UnknownNode(NodeId),
    /// A port number is ≥ δ.
    PortOutOfRange { node: NodeId, port: Port, delta: u8 },
    /// The out-port (or in-port) is already wired.
    PortBusy {
        node: NodeId,
        port: Port,
        is_out: bool,
    },
    /// Self-loops are rejected (README, reconstruction choice 3).
    SelfLoop(NodeId),
    /// All ports on this side of the node are already wired.
    NodeFull { node: NodeId, is_out: bool },
    /// The finished network violates the model: a node lacks a connected
    /// in-port or out-port, or there are fewer than two processors.
    Malformed(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::PortOutOfRange { node, port, delta } => {
                write!(f, "port {port} on {node} out of range (delta = {delta})")
            }
            TopologyError::PortBusy { node, port, is_out } => {
                let side = if *is_out { "out" } else { "in" };
                write!(f, "{side}-port {port} on {node} already wired")
            }
            TopologyError::SelfLoop(n) => write!(f, "self-loop on {n} rejected"),
            TopologyError::NodeFull { node, is_out } => {
                let side = if *is_out { "out" } else { "in" };
                write!(f, "all {side}-ports of {node} are wired")
            }
            TopologyError::Malformed(msg) => write!(f, "malformed network: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A finished network's two slot tables, shared by every clone of its
/// [`Topology`] and by every engine built over it; nothing writes them
/// once [`TopologyBuilder::build`] has wrapped them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Wiring {
    /// `outs[v·δ + o]` = the in-slot fed by out-port `o` of `v`, or
    /// [`UNWIRED`].
    pub(crate) outs: Vec<u32>,
    /// `ins[v·δ + i]` = the out-slot feeding in-port `i` of `v`, or
    /// [`UNWIRED`].
    pub(crate) ins: Vec<u32>,
}

/// An immutable, validated network topology.
///
/// Construct one through [`TopologyBuilder`] or the generators in
/// [`crate::generators`]. Validation guarantees: at least two processors,
/// every processor has ≥ 1 connected in-port and ≥ 1 connected out-port
/// (required by the model, §1.1), no self-loops, and all port numbers < δ.
/// Cloning is O(1): clones share the slot tables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Topology {
    delta: u8,
    n: u32,
    edges: usize,
    wiring: Arc<Wiring>,
}

impl Topology {
    /// The network constant δ: the uniform bound on in- and out-degree.
    #[inline]
    pub fn delta(&self) -> u8 {
        self.delta
    }

    /// Number of processors N.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n as usize
    }

    /// Number of wires E.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Iterate over all node ids `0..N`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// The shared slot tables; an engine keeps a clone of this handle as
    /// its route tables.
    pub(crate) fn wiring(&self) -> &Arc<Wiring> {
        &self.wiring
    }

    /// `node`'s δ slots in `table`.
    #[inline]
    fn row<'a>(&self, table: &'a [u32], node: NodeId) -> &'a [u32] {
        let base = node.idx() * self.delta as usize;
        &table[base..base + self.delta as usize]
    }

    /// The endpoint a slot-table entry names, `None` if [`UNWIRED`].
    #[inline]
    fn endpoint(&self, slot: u32) -> Option<Endpoint> {
        let delta = u32::from(self.delta);
        (slot != UNWIRED).then(|| Endpoint::new(NodeId(slot / delta), Port((slot % delta) as u8)))
    }

    /// The wired ports of one row, ascending, with their remote endpoints.
    fn wired<'a>(&'a self, row: &'a [u32]) -> impl Iterator<Item = (Port, Endpoint)> + 'a {
        (0..self.delta)
            .zip(row)
            .filter_map(|(p, &slot)| Some((Port(p), self.endpoint(slot)?)))
    }

    /// The ports of one row that are wired, as a mask.
    #[inline]
    fn mask(row: &[u32]) -> PortMask {
        (0..).zip(row).fold(PortMask::EMPTY, |m, (p, &slot)| {
            if slot == UNWIRED {
                m
            } else {
                m.with(Port(p))
            }
        })
    }

    /// The endpoint `table` names at `node`'s port `port`; `None` if the
    /// port is unwired or does not exist.
    #[inline]
    fn lookup(&self, table: &[u32], node: NodeId, port: Port) -> Option<Endpoint> {
        if port.0 >= self.delta {
            return None;
        }
        self.endpoint(*table.get(node.idx() * self.delta as usize + port.idx())?)
    }

    /// The remote endpoint fed by `node`'s out-port `port`, if wired.
    #[inline]
    pub fn out_endpoint(&self, node: NodeId, port: Port) -> Option<Endpoint> {
        self.lookup(&self.wiring.outs, node, port)
    }

    /// The remote endpoint feeding `node`'s in-port `port`, if wired.
    #[inline]
    pub fn in_endpoint(&self, node: NodeId, port: Port) -> Option<Endpoint> {
        self.lookup(&self.wiring.ins, node, port)
    }

    /// Out-port connectivity of a node as a bitmask (out-port awareness,
    /// §1.2.1). Bit `o` set ⇔ out-port `o` is wired.
    #[inline]
    pub fn out_mask(&self, node: NodeId) -> PortMask {
        Self::mask(self.row(&self.wiring.outs, node))
    }

    /// In-port connectivity of a node as a bitmask (in-port awareness, §1.2.1).
    #[inline]
    pub fn in_mask(&self, node: NodeId) -> PortMask {
        Self::mask(self.row(&self.wiring.ins, node))
    }

    /// Out-port connectivity flags of a node, one `bool` per port `0..δ`,
    /// without allocating (one read of the slot row).
    pub fn out_connected(&self, node: NodeId) -> impl Iterator<Item = bool> + '_ {
        let m = self.out_mask(node);
        (0..self.delta).map(move |p| m.contains(Port(p)))
    }

    /// In-port connectivity flags of a node, one `bool` per port `0..δ`,
    /// without allocating (one read of the slot row).
    pub fn in_connected(&self, node: NodeId) -> impl Iterator<Item = bool> + '_ {
        let m = self.in_mask(node);
        (0..self.delta).map(move |p| m.contains(Port(p)))
    }

    /// Connected out-degree of a node.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_mask(node).len()
    }

    /// Connected in-degree of a node.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_mask(node).len()
    }

    /// Out-neighbours of a node as `(out-port, remote endpoint)` pairs, in
    /// ascending port order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (Port, Endpoint)> + '_ {
        self.wired(self.row(&self.wiring.outs, node))
    }

    /// In-neighbours of a node as `(in-port, remote endpoint)` pairs, in
    /// ascending port order.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (Port, Endpoint)> + '_ {
        self.wired(self.row(&self.wiring.ins, node))
    }

    /// Every wire in the network, in `(src node, src port)` order, as a
    /// non-allocating view over the slot tables.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.node_ids().flat_map(move |src| {
            self.out_edges(src).map(move |(src_port, ep)| Edge {
                src,
                src_port,
                dst: ep.node,
                dst_port: ep.port,
            })
        })
    }

    /// The edge set as a sorted vector — the canonical form used to compare a
    /// reconstructed map against ground truth.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        let mut e: Vec<Edge> = self.edges().collect();
        e.sort_unstable();
        e
    }

    /// Follow a sequence of out-ports starting from `from`. Returns the node
    /// reached, or `None` if some port on the walk is unwired.
    ///
    /// This is how the master computer's canonical names (root→A port paths)
    /// are resolved back to ground-truth processors during verification.
    pub fn walk_out_ports(&self, from: NodeId, ports: &[Port]) -> Option<NodeId> {
        let mut cur = from;
        for &p in ports {
            cur = self.out_endpoint(cur, p)?.node;
        }
        Some(cur)
    }

    /// Validate the cross-linking invariants and the model requirements;
    /// used by tests and by [`TopologyBuilder::build`]'s debug check.
    ///
    /// Nodes are checked in order, each for its out-wires (no self-loop,
    /// mirrored by the in-table), its in-wires (mirrored by the
    /// out-table) and its degrees in turn, so the error names the first
    /// defect in node order. A slot past the network mirrors nothing.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.n < 2 {
            return Err(TopologyError::Malformed(
                "the model requires at least two processors".into(),
            ));
        }
        for node in self.node_ids() {
            for (o, ep) in self.out_edges(node) {
                if ep.node == node {
                    return Err(TopologyError::SelfLoop(node));
                }
                let back = self.in_endpoint(ep.node, ep.port);
                if back != Some(Endpoint::new(node, o)) {
                    return Err(TopologyError::Malformed(format!(
                        "wire {node}:{o} -> {ep} not mirrored ({back:?})"
                    )));
                }
            }
            for (i, ep) in self.in_edges(node) {
                let fwd = self.out_endpoint(ep.node, ep.port);
                if fwd != Some(Endpoint::new(node, i)) {
                    return Err(TopologyError::Malformed(format!(
                        "wire {ep} -> {node}:{i} not mirrored ({fwd:?})"
                    )));
                }
            }
            if self.out_degree(node) == 0 {
                return Err(TopologyError::Malformed(format!(
                    "{node} has no connected out-port"
                )));
            }
            if self.in_degree(node) == 0 {
                return Err(TopologyError::Malformed(format!(
                    "{node} has no connected in-port"
                )));
            }
        }
        Ok(())
    }
}

/// Incremental constructor for [`Topology`].
///
/// Port numbers can be chosen explicitly ([`TopologyBuilder::connect`]) or
/// auto-assigned to the lowest free ports ([`TopologyBuilder::connect_auto`]),
/// which keeps generator output deterministic in edge-insertion order.
///
/// The builder writes [`Topology`]'s two slot tables directly, and
/// [`TopologyBuilder::build`] moves them, uncopied, into the finished
/// network's shared handle.
/// Per-node wired-port counts sit beside the tables, so free-port queries
/// such as [`TopologyBuilder::can_connect`] are O(1) and never touch them.
/// While every node's ports have been wired in order (always, unless an
/// explicit `connect` skipped a port), the counts are also the lowest free
/// ports, so `connect_auto` only writes the tables and never reads them.
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    delta: u8,
    n: usize,
    /// `outs[v·δ + o]` = the in-slot fed by `v`'s out-port `o`, or
    /// [`UNWIRED`].
    outs: Vec<u32>,
    /// `ins[v·δ + i]` = the out-slot feeding `v`'s in-port `i`, or
    /// [`UNWIRED`].
    ins: Vec<u32>,
    /// `out_used[v]` = number of wired out-ports of `v` (the wired slots
    /// in its `outs` row). `wire` is the only writer of the slot tables
    /// and of these counts.
    out_used: Vec<u8>,
    /// `in_used[v]` = number of wired in-ports of `v`.
    in_used: Vec<u8>,
    /// Some wire took a port other than its node's next one (`out_used` /
    /// `in_used`), so a node's wired ports may no longer be `0..used`.
    /// Until then the counts are the lowest free ports.
    gapped: bool,
}

impl TopologyBuilder {
    /// Start a network with `n` processors and port bound `delta` (δ ≥ 2,
    /// as in the paper).
    ///
    /// Panics when `n·δ` does not fit in 32 bits: the slot tables index
    /// wire slots with `u32` (one value reserved as the [`UNWIRED`]
    /// sentinel), and silently truncating node ids there would corrupt
    /// the wiring. Spec-driven construction rejects such sizes earlier
    /// with a structured parse error.
    pub fn new(n: usize, delta: u8) -> Self {
        assert!(delta >= 2, "the paper requires delta >= 2");
        assert!(
            delta <= MAX_DELTA,
            "delta must be <= {MAX_DELTA} (connectivity masks are 64-bit)"
        );
        assert!(n >= 2, "the model requires at least two processors");
        assert!(
            n.checked_mul(delta as usize)
                .is_some_and(|slots| slots < UNWIRED as usize),
            "network too large: n * delta must fit in 32 bits"
        );
        TopologyBuilder {
            delta,
            n,
            outs: vec![UNWIRED; n * delta as usize],
            ins: vec![UNWIRED; n * delta as usize],
            out_used: vec![0; n],
            in_used: vec![0; n],
            gapped: false,
        }
    }

    /// δ of the network under construction.
    pub fn delta(&self) -> u8 {
        self.delta
    }

    /// Number of processors.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn slot(&self, node: NodeId, port: Port) -> usize {
        node.idx() * self.delta as usize + port.idx()
    }

    #[inline]
    fn slots(&self, node: NodeId) -> std::ops::Range<usize> {
        let base = node.idx() * self.delta as usize;
        base..base + self.delta as usize
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.idx() >= self.n {
            Err(TopologyError::UnknownNode(n))
        } else {
            Ok(())
        }
    }

    /// Wire out-port `src_port` of `src` to in-port `dst_port` of `dst`.
    pub fn connect(
        &mut self,
        src: NodeId,
        src_port: Port,
        dst: NodeId,
        dst_port: Port,
    ) -> Result<(), TopologyError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        if src_port.idx() >= self.delta as usize {
            return Err(TopologyError::PortOutOfRange {
                node: src,
                port: src_port,
                delta: self.delta,
            });
        }
        if dst_port.idx() >= self.delta as usize {
            return Err(TopologyError::PortOutOfRange {
                node: dst,
                port: dst_port,
                delta: self.delta,
            });
        }
        if self.outs[self.slot(src, src_port)] != UNWIRED {
            return Err(TopologyError::PortBusy {
                node: src,
                port: src_port,
                is_out: true,
            });
        }
        if self.ins[self.slot(dst, dst_port)] != UNWIRED {
            return Err(TopologyError::PortBusy {
                node: dst,
                port: dst_port,
                is_out: false,
            });
        }
        self.wire(src, src_port, dst, dst_port);
        Ok(())
    }

    /// Record a checked wire: both ports exist and are free.
    fn wire(&mut self, src: NodeId, src_port: Port, dst: NodeId, dst_port: Port) {
        let (su, du) = (&mut self.out_used[src.idx()], &mut self.in_used[dst.idx()]);
        self.gapped |= src_port.0 != *su || dst_port.0 != *du;
        *su += 1;
        *du += 1;
        let (so, si) = (self.slot(src, src_port), self.slot(dst, dst_port));
        self.outs[so] = si as u32;
        self.ins[si] = so as u32;
    }
    /// Wire `src` to `dst` using the lowest free out-port on `src` and the
    /// lowest free in-port on `dst`. Returns the chosen `(out, in)` ports.
    pub fn connect_auto(
        &mut self,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(Port, Port), TopologyError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(TopologyError::SelfLoop(src));
        }
        let o = self.lowest_free(src, true).ok_or(TopologyError::NodeFull {
            node: src,
            is_out: true,
        })?;
        let i = self
            .lowest_free(dst, false)
            .ok_or(TopologyError::NodeFull {
                node: dst,
                is_out: false,
            })?;
        self.wire(src, o, dst, i);
        Ok((o, i))
    }

    /// The lowest free port on one side of `node`, `None` if all δ are
    /// wired: the wired-port count while the builder is gap-free, else a
    /// scan of the node's slots.
    fn lowest_free(&self, node: NodeId, is_out: bool) -> Option<Port> {
        let (table, used) = if is_out {
            (&self.outs, &self.out_used)
        } else {
            (&self.ins, &self.in_used)
        };
        let port = if self.gapped {
            table[self.slots(node)].iter().position(|&s| s == UNWIRED)?
        } else {
            used[node.idx()] as usize
        };
        (port < self.delta as usize).then_some(Port(port as u8))
    }

    /// True if `src` has a free out-port and `dst` a free in-port. O(1).
    pub fn can_connect(&self, src: NodeId, dst: NodeId) -> bool {
        src != dst
            && src.idx() < self.n
            && dst.idx() < self.n
            && self.out_used[src.idx()] < self.delta
            && self.in_used[dst.idx()] < self.delta
    }

    /// Number of wired out-ports of `node` so far. O(1).
    ///
    /// Panics if `node` does not exist.
    pub(crate) fn out_degree(&self, node: NodeId) -> usize {
        self.out_used[node.idx()] as usize
    }

    /// True if some wire `src → dst` already exists (any port pair).
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        let delta = u32::from(self.delta);
        self.outs[self.slots(src)]
            .iter()
            .any(|&slot| slot != UNWIRED && slot / delta == dst.0)
    }

    /// Finish and validate: move the slot tables into a [`Topology`].
    ///
    /// The check needs no lookup across wires. `wire` is the tables' only
    /// writer and records each wire at both ends, after the range and
    /// self-loop checks, so the tables mirror each other as long as no
    /// slot was written twice, which one pass confirms by matching every
    /// row against its node's port count. What is left of
    /// [`Topology::validate`] is that every node has a wired out- and
    /// in-port; the first node without one gives the error `validate`
    /// would.
    pub fn build(self) -> Result<Topology, TopologyError> {
        self.check_counts()?;
        let unwired = self.first_unwired();
        let t = self.into_topology();
        debug_assert_eq!(t.validate(), unwired.clone().map_or(Ok(()), Err));
        unwired.map_or(Ok(t), Err)
    }

    /// An error if some node's wired slots, on either side, disagree with
    /// its port count.
    fn check_counts(&self) -> Result<(), TopologyError> {
        for node in 0..self.n {
            let id = NodeId(node as u32);
            for (table, used) in [(&self.outs, &self.out_used), (&self.ins, &self.in_used)] {
                let wired = table[self.slots(id)]
                    .iter()
                    .filter(|&&s| s != UNWIRED)
                    .count();
                if wired != used[node] as usize {
                    return Err(TopologyError::Malformed(format!(
                        "{id} has {wired} wired slots but counts {}",
                        used[node]
                    )));
                }
            }
        }
        Ok(())
    }

    /// The tables as a [`Topology`], unvalidated.
    fn into_topology(self) -> Topology {
        Topology {
            delta: self.delta,
            n: self.n as u32,
            edges: self.out_used.iter().map(|&c| c as usize).sum(),
            wiring: Arc::new(Wiring {
                outs: self.outs,
                ins: self.ins,
            }),
        }
    }

    /// The model defect [`Topology::validate`] would report first for the
    /// tables: the lowest node without a wired out-port, or without a
    /// wired in-port.
    fn first_unwired(&self) -> Option<TopologyError> {
        let node = (0..self.n).find(|&v| self.out_used[v] == 0 || self.in_used[v] == 0)?;
        let side = if self.out_used[node] == 0 {
            "out"
        } else {
            "in"
        };
        Some(TopologyError::Malformed(format!(
            "{} has no connected {side}-port",
            NodeId(node as u32)
        )))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // asserts may panic freely
mod tests {
    use super::*;

    fn two_cycle() -> Topology {
        let mut b = TopologyBuilder::new(2, 2);
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn minimal_two_cycle_builds() {
        let t = two_cycle();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(
            t.out_endpoint(NodeId(0), Port(0)),
            Some(Endpoint::new(NodeId(1), Port(0)))
        );
        assert_eq!(
            t.in_endpoint(NodeId(0), Port(0)),
            Some(Endpoint::new(NodeId(1), Port(0)))
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new(2, 2);
        assert_eq!(
            b.connect(NodeId(0), Port(0), NodeId(0), Port(1)),
            Err(TopologyError::SelfLoop(NodeId(0)))
        );
        assert_eq!(
            b.connect_auto(NodeId(1), NodeId(1)),
            Err(TopologyError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn busy_port_rejected() {
        let mut b = TopologyBuilder::new(3, 2);
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        assert_eq!(
            b.connect(NodeId(0), Port(0), NodeId(2), Port(0)),
            Err(TopologyError::PortBusy {
                node: NodeId(0),
                port: Port(0),
                is_out: true
            })
        );
        assert_eq!(
            b.connect(NodeId(2), Port(0), NodeId(1), Port(0)),
            Err(TopologyError::PortBusy {
                node: NodeId(1),
                port: Port(0),
                is_out: false
            })
        );
    }

    #[test]
    fn port_out_of_range_rejected() {
        let mut b = TopologyBuilder::new(2, 2);
        assert!(matches!(
            b.connect(NodeId(0), Port(2), NodeId(1), Port(0)),
            Err(TopologyError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = TopologyBuilder::new(2, 2);
        assert_eq!(
            b.connect(NodeId(5), Port(0), NodeId(1), Port(0)),
            Err(TopologyError::UnknownNode(NodeId(5)))
        );
    }

    #[test]
    fn node_without_in_port_fails_validation() {
        let mut b = TopologyBuilder::new(3, 2);
        // n2 gets an out-edge but no in-edge.
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        b.connect(NodeId(2), Port(0), NodeId(0), Port(1)).unwrap();
        assert!(matches!(b.build(), Err(TopologyError::Malformed(_))));
    }

    #[test]
    fn connect_auto_picks_lowest_free_ports() {
        let mut b = TopologyBuilder::new(3, 3);
        assert_eq!(
            b.connect_auto(NodeId(0), NodeId(1)).unwrap(),
            (Port(0), Port(0))
        );
        assert_eq!(
            b.connect_auto(NodeId(0), NodeId(1)).unwrap(),
            (Port(1), Port(1))
        );
        assert_eq!(
            b.connect_auto(NodeId(2), NodeId(1)).unwrap(),
            (Port(0), Port(2))
        );
        // n1 is now full on the in-side.
        assert_eq!(
            b.connect_auto(NodeId(2), NodeId(1)),
            Err(TopologyError::NodeFull {
                node: NodeId(1),
                is_out: false
            })
        );
    }

    #[test]
    fn parallel_edges_supported() {
        let mut b = TopologyBuilder::new(2, 2);
        b.connect_auto(NodeId(0), NodeId(1)).unwrap();
        b.connect_auto(NodeId(0), NodeId(1)).unwrap();
        b.connect_auto(NodeId(1), NodeId(0)).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.out_degree(NodeId(0)), 2);
        assert_eq!(t.in_degree(NodeId(1)), 2);
    }

    #[test]
    fn edges_listing_sorted_and_mirrored() {
        let t = two_cycle();
        let e = t.sorted_edges();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].src, NodeId(0));
        assert_eq!(e[1].src, NodeId(1));
        t.validate().unwrap();
    }

    #[test]
    fn connectivity_views_match_wiring() {
        let mut b = TopologyBuilder::new(2, 3);
        b.connect(NodeId(0), Port(2), NodeId(1), Port(1)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        let t = b.build().unwrap();
        assert_eq!(
            t.out_connected(NodeId(0)).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        assert_eq!(
            t.in_connected(NodeId(1)).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        assert_eq!(t.out_mask(NodeId(0)).iter().collect::<Vec<_>>(), [Port(2)]);
        assert_eq!(t.in_mask(NodeId(0)).iter().collect::<Vec<_>>(), [Port(0)]);
    }

    #[test]
    fn walk_out_ports_follows_wires() {
        let t = two_cycle();
        assert_eq!(t.walk_out_ports(NodeId(0), &[Port(0)]), Some(NodeId(1)));
        assert_eq!(
            t.walk_out_ports(NodeId(0), &[Port(0), Port(0)]),
            Some(NodeId(0))
        );
        assert_eq!(t.walk_out_ports(NodeId(0), &[Port(1)]), None);
        assert_eq!(t.walk_out_ports(NodeId(0), &[]), Some(NodeId(0)));
    }

    #[test]
    fn clone_roundtrip_validates() {
        // Rebuilding from the edge list reproduces an identical, valid
        // topology (the structural analogue of a serialization roundtrip).
        let t = two_cycle();
        let mut b = TopologyBuilder::new(t.num_nodes(), t.delta());
        for e in t.edges() {
            b.connect(e.src, e.src_port, e.dst, e.dst_port).unwrap();
        }
        let t2 = b.build().unwrap();
        assert_eq!(t, t2);
        t2.validate().unwrap();
    }

    /// `validate` against a reference that reads only the wire views
    /// ([`Topology::edges`] and [`Topology::in_edges`]), error for error,
    /// over one random corruption of a valid network's slot tables per
    /// case: a slot cleared on one side, a wire cleared at both ends, a
    /// slot past the network, a one-sided write, or a mirrored wire written
    /// over any two slots (busy ones and self-loops included).
    #[test]
    fn validate_reports_the_node_ordered_first_defect() {
        use crate::rng::DetRng;
        use std::collections::BTreeMap;
        type Ends = BTreeMap<(NodeId, Port), Endpoint>;
        // The first defect in node order: out-wires (no self-loop,
        // mirrored), in-wires (mirrored), degrees.
        let reference = |t: &Topology| {
            let outs: Ends = t
                .edges()
                .map(|e| ((e.src, e.src_port), Endpoint::new(e.dst, e.dst_port)))
                .collect();
            let ins: Ends = t
                .node_ids()
                .flat_map(|v| t.in_edges(v).map(move |(i, ep)| ((v, i), ep)))
                .collect();
            let malformed = |msg: String| Err(TopologyError::Malformed(msg));
            for v in t.node_ids() {
                let row = |ends: &Ends| -> Vec<(Port, Endpoint)> {
                    ends.range((v, Port(0))..=(v, Port(u8::MAX)))
                        .map(|(&(_, p), &ep)| (p, ep))
                        .collect()
                };
                let (out_row, in_row) = (row(&outs), row(&ins));
                for &(o, ep) in &out_row {
                    if ep.node == v {
                        return Err(TopologyError::SelfLoop(v));
                    }
                    let back = ins.get(&(ep.node, ep.port)).copied();
                    if back != Some(Endpoint::new(v, o)) {
                        return malformed(format!("wire {v}:{o} -> {ep} not mirrored ({back:?})"));
                    }
                }
                for &(i, ep) in &in_row {
                    let fwd = outs.get(&(ep.node, ep.port)).copied();
                    if fwd != Some(Endpoint::new(v, i)) {
                        return malformed(format!("wire {ep} -> {v}:{i} not mirrored ({fwd:?})"));
                    }
                }
                if out_row.is_empty() {
                    return malformed(format!("{v} has no connected out-port"));
                }
                if in_row.is_empty() {
                    return malformed(format!("{v} has no connected in-port"));
                }
            }
            Ok(())
        };
        let (n, delta) = (10u32, 3u8);
        let mut b = TopologyBuilder::new(n as usize, delta);
        for u in 0..n {
            b.connect_auto(NodeId(u), NodeId((u + 1) % n)).unwrap();
            if u % 3 == 0 {
                b.connect_auto(NodeId(u), NodeId((u + 4) % n)).unwrap();
            }
        }
        let base = b.build().unwrap();
        let slots = n * u32::from(delta);
        let mut rng = DetRng::seed_from_u64(0x7661_6c69_6461_7465);
        let mut outcomes = BTreeMap::new();
        for case in 0..4000 {
            // Copy-on-write: the corruption never reaches `base`'s tables.
            let mut t = base.clone();
            let w = Arc::make_mut(&mut t.wiring);
            let slot = |rng: &mut DetRng| rng.random_range(0..slots);
            let (s, r) = (slot(&mut rng) as usize, slot(&mut rng));
            let table = if rng.random_bool(0.5) {
                &mut w.outs
            } else {
                &mut w.ins
            };
            match rng.random_range(0..5) {
                0 => table[s] = UNWIRED,
                1 => {
                    if w.outs[s] != UNWIRED {
                        w.ins[w.outs[s] as usize] = UNWIRED;
                    }
                    w.outs[s] = UNWIRED;
                }
                2 => table[s] = rng.random_range(slots..UNWIRED),
                3 => table[s] = r,
                _ => (w.outs[s], w.ins[r as usize]) = (r, s as u32),
            }
            let expected = reference(&t);
            assert_eq!(t.validate(), expected, "case {case}");
            let outcome = match expected {
                Ok(()) => "valid",
                Err(TopologyError::SelfLoop(_)) => "self-loop",
                Err(TopologyError::Malformed(m)) => ["mirrored", "out-port", "in-port"]
                    .into_iter()
                    .find(|key| m.contains(key))
                    .unwrap(),
                Err(e) => panic!("case {case}: {e:?}"),
            };
            *outcomes.entry(outcome).or_insert(0usize) += 1;
        }
        assert!(
            outcomes.len() == 5 && outcomes.values().all(|&c| c > 20),
            "outcomes: {outcomes:?}"
        );
    }

    /// The O(1) free-port counts against a scan of the slot tables, after
    /// every call of a random sequence of explicit and automatic connects
    /// that includes each way a connect can fail.
    #[test]
    fn can_connect_agrees_with_a_slot_scan_through_failing_connects() {
        use crate::rng::DetRng;
        let (n, delta) = (6u32, 3u8);
        let mut b = TopologyBuilder::new(n as usize, delta);
        // Reference: scan `node`'s slots on one side (`None` past the last node).
        let scan = |b: &TopologyBuilder, node: NodeId, out: bool| {
            let table = if out { &b.outs } else { &b.ins };
            (node.idx() < b.n).then(|| table[b.slots(node)].to_vec())
        };
        let free = |b: &TopologyBuilder, node: NodeId, out: bool| {
            scan(b, node, out).is_some_and(|row| row.contains(&UNWIRED))
        };
        let wired = |b: &TopologyBuilder, node: NodeId, out: bool| {
            scan(b, node, out).map_or(0, |row| row.iter().filter(|&&s| s != UNWIRED).count())
        };
        let mut rng = DetRng::seed_from_u64(0x636f_756e_7473);
        let mut failures = std::collections::BTreeSet::new();
        for step in 0..600 {
            // One draw past the last node exercises the range checks too.
            let src = NodeId(rng.random_range(0..n + 1));
            let dst = NodeId(rng.random_range(0..n + 1));
            let counts = (b.out_used.clone(), b.in_used.clone());
            let result = if rng.random_bool(0.5) {
                b.connect_auto(src, dst).map(|_| ())
            } else {
                // Ports up to δ inclusive: δ itself is out of range.
                let o = Port(rng.random_range(0..delta as u32 + 1) as u8);
                let i = Port(rng.random_range(0..delta as u32 + 1) as u8);
                b.connect(src, o, dst, i)
            };
            if let Err(e) = result {
                failures.insert(match e {
                    TopologyError::UnknownNode(_) => "UnknownNode",
                    TopologyError::PortOutOfRange { .. } => "PortOutOfRange",
                    TopologyError::PortBusy { .. } => "PortBusy",
                    TopologyError::SelfLoop(_) => "SelfLoop",
                    TopologyError::NodeFull { .. } => "NodeFull",
                    TopologyError::Malformed(_) => "Malformed",
                });
                assert_eq!(
                    (&b.out_used, &b.in_used),
                    (&counts.0, &counts.1),
                    "step {step}: failed {e:?} moved the counts"
                );
            }
            for v in (0..n).map(NodeId) {
                assert_eq!(b.out_degree(v), wired(&b, v, true), "step {step}");
                assert_eq!(
                    b.in_used[v.idx()] as usize,
                    wired(&b, v, false),
                    "step {step}"
                );
            }
            for s in (0..n + 1).map(NodeId) {
                for d in (0..n + 1).map(NodeId) {
                    let scan = s != d && free(&b, s, true) && free(&b, d, false);
                    assert_eq!(b.can_connect(s, d), scan, "step {step}: {s} -> {d}");
                }
            }
        }
        for kind in [
            "PortBusy",
            "SelfLoop",
            "PortOutOfRange",
            "NodeFull",
            "UnknownNode",
        ] {
            assert!(failures.contains(kind), "{kind} never hit: {failures:?}");
        }
    }

    /// `connect_auto` against a reference that scans the slot tables for
    /// the lowest free ports, port for port and error for error, over
    /// random interleavings with explicit `connect`s. Half the explicit
    /// ports are each node's next one, which keeps a run gap-free, and
    /// half are arbitrary (busy, out of range, or leaving a gap).
    #[test]
    fn connect_auto_matches_a_lowest_free_port_scan() {
        use crate::rng::DetRng;
        let reference = |b: &TopologyBuilder, src: NodeId, dst: NodeId| {
            b.check_node(src)?;
            b.check_node(dst)?;
            if src == dst {
                return Err(TopologyError::SelfLoop(src));
            }
            let lowest = |table: &[u32], node: NodeId, is_out| {
                table[b.slots(node)]
                    .iter()
                    .position(|&s| s == UNWIRED)
                    .map(|p| Port(p as u8))
                    .ok_or(TopologyError::NodeFull { node, is_out })
            };
            Ok((lowest(&b.outs, src, true)?, lowest(&b.ins, dst, false)?))
        };
        let mut rng = DetRng::seed_from_u64(0x6175_746f_7363_616e);
        let (mut gapped_runs, mut autos) = (0, [0usize; 2]);
        for run in 0..300 {
            let n = rng.random_range(2..9);
            let delta = rng.random_range(2..5) as u8;
            let mut b = TopologyBuilder::new(n as usize, delta);
            let mut gap_left = false;
            for step in 0..rng.random_range(1..60) {
                let src = NodeId(rng.random_range(0..n + 1));
                let dst = NodeId(rng.random_range(0..n + 1));
                if rng.random_bool(0.7) {
                    let expected = reference(&b, src, dst);
                    let got = b.connect_auto(src, dst);
                    assert_eq!(got, expected, "run {run} step {step}: {src} -> {dst}");
                    if let Ok((o, i)) = got {
                        assert_eq!(b.outs[b.slot(src, o)], b.slot(dst, i) as u32);
                        assert_eq!(b.ins[b.slot(dst, i)], b.slot(src, o) as u32);
                    }
                    autos[usize::from(b.gapped)] += 1;
                } else {
                    let next = |used: &[u8], node: NodeId| used.get(node.idx()).copied();
                    let (o, i) = if rng.random_bool(0.5) {
                        (
                            Port(next(&b.out_used, src).unwrap_or(0)),
                            Port(next(&b.in_used, dst).unwrap_or(0)),
                        )
                    } else {
                        let port =
                            |rng: &mut DetRng| Port(rng.random_range(0..delta as u32 + 1) as u8);
                        (port(&mut rng), port(&mut rng))
                    };
                    let leaves_gap =
                        next(&b.out_used, src) != Some(o.0) || next(&b.in_used, dst) != Some(i.0);
                    if b.connect(src, o, dst, i).is_ok() {
                        gap_left |= leaves_gap;
                    }
                }
                assert_eq!(b.gapped, gap_left, "run {run} step {step}");
            }
            gapped_runs += usize::from(gap_left);
        }
        assert!(
            (50..250).contains(&gapped_runs),
            "{gapped_runs} of 300 runs left a gap"
        );
        assert!(
            autos.iter().all(|&c| c > 1000),
            "gap-free/gapped: {autos:?}"
        );
    }

    /// `build`'s count-based check gives `validate`'s verdict on the
    /// builder's tables, first defect included, over random partial wirings
    /// in which some nodes lack an in- or out-port.
    #[test]
    fn build_agrees_with_validate_on_partial_wirings() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(0x0062_7569_6c64);
        let mut outcomes = [0usize; 2];
        for case in 0..500 {
            let n = rng.random_range(2..10);
            let mut b = TopologyBuilder::new(n as usize, rng.random_range(2..4) as u8);
            for _ in 0..rng.random_range(n..4 * n) {
                let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
                if rng.random_bool(0.8) {
                    let _ = b.connect_auto(NodeId(src), NodeId(dst));
                } else {
                    let (o, i) = (rng.random_range(0..3) as u8, rng.random_range(0..3) as u8);
                    let _ = b.connect(NodeId(src), Port(o), NodeId(dst), Port(i));
                }
            }
            b.check_counts().unwrap();
            let expected = b.clone().into_topology().validate();
            let built = b.clone().build();
            assert_eq!(built.as_ref().err(), expected.as_ref().err(), "case {case}");
            if let Ok(t) = built {
                assert_eq!(t, b.into_topology());
            }
            outcomes[usize::from(expected.is_err())] += 1;
        }
        assert!(
            outcomes.iter().all(|&c| c > 50),
            "valid/defective: {outcomes:?}"
        );
    }

    /// A slot written twice leaves its row one entry short of the node's
    /// port count, and `build` refuses the tables.
    #[test]
    fn build_refuses_a_slot_written_twice() {
        let mut b = TopologyBuilder::new(3, 2);
        b.connect(NodeId(0), Port(0), NodeId(1), Port(0)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(0), Port(0)).unwrap();
        b.connect(NodeId(1), Port(1), NodeId(2), Port(0)).unwrap();
        b.wire(NodeId(2), Port(0), NodeId(0), Port(0));
        assert_eq!(
            b.build(),
            Err(TopologyError::Malformed(
                "n0 has 1 wired slots but counts 2".into()
            ))
        );
    }

    #[test]
    #[should_panic(expected = "delta >= 2")]
    fn delta_below_two_panics() {
        let _ = TopologyBuilder::new(2, 1);
    }

    #[test]
    #[should_panic(expected = "two processors")]
    fn single_node_panics() {
        let _ = TopologyBuilder::new(1, 2);
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn oversized_network_panics() {
        let _ = TopologyBuilder::new(u32::MAX as usize, 2);
    }
}
