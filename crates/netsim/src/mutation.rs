//! Topology mutations — the paper's §1 motivating scenario made
//! declarative.
//!
//! "The topology or size of the network might change", forcing the master
//! to re-determine the map. This module turns such changes into data: a
//! [`TopologyMutation`] names one structural edit (drop a wire, add a
//! wire, rewire a wire's head, swap two processors' labels, splice a
//! fresh processor in, remove a processor, or burst a processor's
//! out-wires), a [`ScheduledMutation`] stamps it with the global clock
//! tick at which it happens, and a [`MutationSchedule`] is the full
//! timeline of a dynamic scenario.
//!
//! Mutations are **validity-preserving**: [`Topology::apply`] never
//! produces a network that violates the model (δ port bound, ≥ 1
//! connected in-/out-port per processor, no self-loops) or breaks strong
//! connectivity — the protocol's standing precondition. Each mutation
//! carries a `selector`: a deterministic scan starts at the selector and
//! settles on the first candidate edit whose result is valid, so the same
//! `(topology, mutation)` pair always yields the identical new topology
//! and campaign grids stay byte-reproducible. When *no* candidate of the
//! requested kind exists (a directed ring cannot lose a wire — every edge
//! is a bridge), [`Topology::apply`] reports
//! [`MutationError::NoCandidate`] and
//! [`Topology::apply_or_fallback`] degrades to the always-applicable
//! [`MutationKind::SwapLabels`] so a scheduled network event still
//! happens and remap latency stays measurable.
//!
//! The membership kinds ([`MutationKind::NodeJoin`],
//! [`MutationKind::NodeLeave`]) change N itself: a join appends processor
//! `n` and splices it into an existing wire (`u→v` becomes `u→n→v`), a
//! leave removes a processor, shifts higher ids down by one, and
//! deterministically re-stitches the departed processor's in- and
//! out-wires pairwise so the network stays strongly connected within the
//! δ bound. The collector's host is never removed, so leaves take the
//! root-aware entry points ([`Topology::apply_rooted`],
//! [`Topology::apply_or_fallback_rooted`]); the root-free methods protect
//! processor 0 by convention. Each application reports a
//! [`MembershipChange`] so engines and collectors can track how node ids
//! (the root's included) relabel across the edit. When a leave has no
//! valid candidate (N ≤ 2, or every removal disconnects the network), the
//! swap fallback fires as for any other kind.
//!
//! ```
//! use gtd_netsim::{generators, MutationKind, TopologyMutation};
//!
//! let topo = generators::random_sc(24, 3, 7);
//! let mutated = topo
//!     .apply(&TopologyMutation { kind: MutationKind::DropEdge, selector: 3 })
//!     .expect("a random-sc graph has droppable wires");
//! assert_eq!(mutated.num_edges(), topo.num_edges() - 1);
//! assert!(gtd_netsim::algo::is_strongly_connected(&mutated));
//! ```

use crate::algo;
use crate::ids::{Endpoint, NodeId, Port};
use crate::topology::{Edge, Topology, TopologyBuilder};
use std::fmt;
use std::str::FromStr;

/// The seven structural edits a network can undergo.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// `drop-edge` — remove one wire.
    DropEdge,
    /// `add-edge` — wire a free out-port to a free in-port.
    AddEdge,
    /// `rewire` — exchange the heads of two wires (degree-preserving, so
    /// it applies even to port-saturated networks).
    RewirePort,
    /// `swap` — exchange two processors' positions in the wiring (as if
    /// their cable bundles were swapped). Always applicable.
    SwapLabels,
    /// `node-join` — splice a fresh processor into an existing wire
    /// (`u→v` becomes `u→new→v`). N grows by one; always applicable.
    NodeJoin,
    /// `node-leave` — remove a processor and re-stitch its wires pairwise
    /// (predecessors to successors) so the network stays strongly
    /// connected. N shrinks by one; higher node ids shift down.
    NodeLeave,
    /// `burst` — a correlated failure of one processor's out-wires: drop
    /// every out-wire of the selected processor that validity allows
    /// (always keeping its last one), or exchange their heads when none
    /// can be dropped — one scheduled event, the paper's §1.2.2 region
    /// fault in miniature.
    Burst,
    /// `node-restart` — power-cycle one processor: it leaves the protocol
    /// at the scheduled tick and rejoins with amnesia after a fixed
    /// downtime, its wires untouched (the paper's §1.2.2 transient fault,
    /// exercising RESET parity). Structurally the identity — live
    /// drivers reset the victim's automaton via [`restart_victim`].
    NodeRestart,
    /// `burst-r` — radius-r region failure: drop the out-wires of every
    /// processor within `r` out-hops of the victim where validity and
    /// strong connectivity allow. The selector packs `victim:radius`
    /// (see [`burst_r_selector`] / [`burst_r_parts`]).
    BurstRadius,
}

impl MutationKind {
    /// Every kind, in canonical (registry) order.
    pub const ALL: [MutationKind; 9] = [
        MutationKind::DropEdge,
        MutationKind::AddEdge,
        MutationKind::RewirePort,
        MutationKind::SwapLabels,
        MutationKind::NodeJoin,
        MutationKind::NodeLeave,
        MutationKind::Burst,
        MutationKind::NodeRestart,
        MutationKind::BurstRadius,
    ];

    /// Stable suffix-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::DropEdge => "drop-edge",
            MutationKind::AddEdge => "add-edge",
            MutationKind::RewirePort => "rewire",
            MutationKind::SwapLabels => "swap",
            MutationKind::NodeJoin => "node-join",
            MutationKind::NodeLeave => "node-leave",
            MutationKind::Burst => "burst",
            MutationKind::NodeRestart => "node-restart",
            MutationKind::BurstRadius => "burst-r",
        }
    }

    /// Look a kind up by its grammar name.
    pub fn by_name(name: &str) -> Option<MutationKind> {
        MutationKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Can this kind change the processor count?
    pub fn changes_membership(self) -> bool {
        matches!(self, MutationKind::NodeJoin | MutationKind::NodeLeave)
    }
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Registry entry describing one mutation kind (mirrors
/// [`FamilySpec`](crate::spec::FamilySpec) for the suffix grammar).
#[derive(Clone, Copy, Debug)]
pub struct MutationSpec {
    /// Suffix-grammar name (matches [`MutationKind::name`]).
    pub name: &'static str,
    /// A canonical suffix example.
    pub example: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every mutation kind, in display order — the enumerable source of truth
/// for `harness list`, docs and property tests.
pub const MUTATION_REGISTRY: &[MutationSpec] = &[
    MutationSpec {
        name: "drop-edge",
        example: "drop-edge=3@t500",
        summary: "remove one wire (validity-preserving scan from the selector)",
    },
    MutationSpec {
        name: "add-edge",
        example: "add-edge=1@t200",
        summary: "wire a free out-port to a free in-port",
    },
    MutationSpec {
        name: "rewire",
        example: "rewire=2@t200",
        summary: "exchange the heads of two wires (degree-preserving)",
    },
    MutationSpec {
        name: "swap",
        example: "swap=5@t900",
        summary: "swap two processors' cable bundles (always applicable)",
    },
    MutationSpec {
        name: "node-join",
        example: "node-join=2@t300",
        summary: "splice a fresh processor into an existing wire (N grows by one)",
    },
    MutationSpec {
        name: "node-leave",
        example: "node-leave=3@t500",
        summary: "remove a processor, re-stitching its wires (N shrinks by one)",
    },
    MutationSpec {
        name: "burst",
        example: "burst=5@t800",
        summary: "correlated failure of one processor's out-wires (drop or head-exchange)",
    },
    MutationSpec {
        name: "node-restart",
        example: "node-restart=3@t400",
        summary: "power-cycle a processor: amnesia rejoin after a fixed downtime, wires unchanged",
    },
    MutationSpec {
        name: "burst-r",
        example: "burst-r=5:2@t800",
        summary: "radius-r region failure: drop out-wires of every processor within r hops",
    },
];

/// Pack a `burst-r` `victim:radius` pair into a selector (victim in the
/// low 32 bits, radius in the high 32).
pub fn burst_r_selector(victim: u64, radius: u64) -> u64 {
    (radius.min(u64::from(u32::MAX)) << 32) | (victim & u64::from(u32::MAX))
}

/// Unpack a `burst-r` selector into `(victim scan start, raw radius)`.
/// The exact inverse of [`burst_r_selector`] — a radius of zero is kept
/// as written so `Display`/`FromStr` round-trip bit-for-bit; application
/// clamps the radius to ≥ 1, so a bare selector (radius bits zero) still
/// behaves as a radius-1 burst around the victim.
pub fn burst_r_parts(selector: u64) -> (u64, u64) {
    (selector & u64::from(u32::MAX), selector >> 32)
}

/// The processor a `node-restart` mutation power-cycles: a deterministic
/// cyclic scan from the selector, skipping the root (the collector's host
/// never goes dark; the model's n ≥ 2 guarantees a candidate).
pub fn restart_victim(topo: &Topology, selector: u64, root: NodeId) -> NodeId {
    let n = topo.num_nodes();
    for k in 0..n {
        let x = NodeId((((selector % n as u64) as usize + k) % n) as u32);
        if x != root {
            return x;
        }
    }
    root // unreachable: the model requires at least two processors
}

/// One structural edit, selected deterministically.
///
/// The `selector` is not an exact edge index but the *start* of a
/// deterministic candidate scan: the mutation applies to the first
/// candidate (cyclically from the selector) whose result is a valid,
/// strongly-connected network. This keeps mutations total over their
/// candidate space and independent of how the topology was produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TopologyMutation {
    /// What kind of edit.
    pub kind: MutationKind,
    /// Deterministic candidate selector.
    pub selector: u64,
}

impl fmt::Display for TopologyMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MutationKind::BurstRadius => {
                let (victim, radius) = burst_r_parts(self.selector);
                write!(f, "{}={victim}:{radius}", self.kind)
            }
            _ => write!(f, "{}={}", self.kind, self.selector),
        }
    }
}

/// A mutation stamped with the global clock tick at which it happens.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduledMutation {
    /// Global tick at which the edit takes effect (between ticks).
    pub tick: u64,
    /// The edit.
    pub mutation: TopologyMutation,
}

impl fmt::Display for ScheduledMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@t{}", self.mutation, self.tick)
    }
}

/// Why a mutation suffix (`kind=selector@tTICK`) failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationSuffixError {
    /// The suffix was empty.
    Empty,
    /// No `@t…` tick stamp.
    MissingTick,
    /// The tick after `@t` is not an unsigned integer (or the `t` marker
    /// is missing).
    BadTick {
        /// The offending tick text (after `@`).
        value: String,
    },
    /// The kind before `=` is not in the [`MUTATION_REGISTRY`].
    UnknownKind {
        /// The name that was given.
        kind: String,
    },
    /// A known kind with no `=selector`.
    MissingSelector,
    /// The selector after `=` is not an unsigned integer.
    BadSelector {
        /// The offending selector text.
        value: String,
    },
}

/// Levenshtein edit distance, for the [`MutationSuffixError::UnknownKind`]
/// nearest-name suggestion.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The registry kind nearest (by edit distance) to `kind`, ties broken by
/// registry order — the deterministic "did you mean" suggestion.
pub fn nearest_kind(kind: &str) -> &'static str {
    // min_by_key on a non-empty const registry always yields a value.
    #[allow(clippy::expect_used)]
    MUTATION_REGISTRY
        .iter()
        .map(|m| m.name)
        .min_by_key(|name| edit_distance(kind, name))
        .expect("registry is non-empty")
}

impl fmt::Display for MutationSuffixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationSuffixError::Empty => write!(f, "empty mutation suffix"),
            MutationSuffixError::MissingTick => {
                write!(f, "missing @t tick stamp (expected kind=selector@tTICK)")
            }
            MutationSuffixError::BadTick { value } => {
                write!(f, "tick {value:?} is not t<unsigned integer>")
            }
            MutationSuffixError::UnknownKind { kind } => {
                let known: Vec<&str> = MUTATION_REGISTRY.iter().map(|m| m.name).collect();
                write!(
                    f,
                    "unknown mutation kind {kind:?} (known: {}; did you mean {:?}?)",
                    known.join(", "),
                    nearest_kind(kind)
                )
            }
            MutationSuffixError::MissingSelector => {
                write!(f, "missing =selector (expected kind=selector@tTICK)")
            }
            MutationSuffixError::BadSelector { value } => {
                write!(f, "selector {value:?} is not an unsigned integer")
            }
        }
    }
}

impl std::error::Error for MutationSuffixError {}

impl ScheduledMutation {
    /// Parse one `kind=selector@tTICK` suffix. On failure the scheduled
    /// tick is reported alongside the reason whenever it parsed — spec
    /// errors must name the offending suffix *and* tick.
    pub fn parse_suffix(s: &str) -> Result<Self, (Option<u64>, MutationSuffixError)> {
        let s = s.trim();
        if s.is_empty() {
            return Err((None, MutationSuffixError::Empty));
        }
        let (head, tick_text) = s
            .split_once('@')
            .ok_or((None, MutationSuffixError::MissingTick))?;
        let tick_text = tick_text.trim();
        let tick: u64 = tick_text
            .strip_prefix('t')
            .and_then(|t| t.trim().parse().ok())
            .ok_or_else(|| {
                (
                    None,
                    MutationSuffixError::BadTick {
                        value: tick_text.to_string(),
                    },
                )
            })?;
        let head = head.trim();
        let (kind_text, selector_text) = match head.split_once('=') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (head, None),
        };
        let kind = MutationKind::by_name(kind_text).ok_or_else(|| {
            (
                Some(tick),
                MutationSuffixError::UnknownKind {
                    kind: kind_text.to_string(),
                },
            )
        })?;
        let selector_text =
            selector_text.ok_or((Some(tick), MutationSuffixError::MissingSelector))?;
        let bad_selector = |value: &str| {
            (
                Some(tick),
                MutationSuffixError::BadSelector {
                    value: value.to_string(),
                },
            )
        };
        // `burst-r` selectors are `victim:radius` pairs (bare `victim`
        // reads as radius 1); every other kind takes a plain integer.
        let selector: u64 = if kind == MutationKind::BurstRadius {
            let (v_text, r_text) = match selector_text.split_once(':') {
                Some((v, r)) => (v.trim(), Some(r.trim())),
                None => (selector_text, None),
            };
            let victim: u64 = v_text.parse().map_err(|_| bad_selector(selector_text))?;
            let radius: u64 = match r_text {
                Some(t) => t.parse().map_err(|_| bad_selector(selector_text))?,
                None => 1,
            };
            burst_r_selector(victim, radius)
        } else {
            selector_text
                .parse()
                .map_err(|_| bad_selector(selector_text))?
        };
        Ok(ScheduledMutation {
            tick,
            mutation: TopologyMutation { kind, selector },
        })
    }
}

impl FromStr for ScheduledMutation {
    type Err = MutationSuffixError;

    fn from_str(s: &str) -> Result<Self, MutationSuffixError> {
        ScheduledMutation::parse_suffix(s).map_err(|(_, reason)| reason)
    }
}

/// A tick-ordered timeline of mutations (the dynamic half of a
/// [`DynamicSpec`](crate::spec::DynamicSpec)).
///
/// Insertion keeps the schedule sorted by tick (stable, so same-tick
/// mutations keep their insertion order), which makes the rendered suffix
/// string canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationSchedule {
    items: Vec<ScheduledMutation>,
}

impl MutationSchedule {
    /// An empty (static) schedule.
    pub fn new() -> Self {
        MutationSchedule::default()
    }

    /// Add a mutation at `tick`, keeping the timeline sorted.
    pub fn push(&mut self, tick: u64, mutation: TopologyMutation) {
        self.items.push(ScheduledMutation { tick, mutation });
        self.items.sort_by_key(|s| s.tick);
    }

    /// Builder-style [`MutationSchedule::push`].
    pub fn with(mut self, tick: u64, mutation: TopologyMutation) -> Self {
        self.push(tick, mutation);
        self
    }

    /// Number of scheduled mutations.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the schedule empty (a static scenario)?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The timeline in tick order.
    pub fn items(&self) -> &[ScheduledMutation] {
        &self.items
    }

    /// Iterate the timeline in tick order.
    pub fn iter(&self) -> impl Iterator<Item = &ScheduledMutation> {
        self.items.iter()
    }

    /// The topology after the whole timeline has been applied to `base`,
    /// with the swap fallback for inapplicable mutations (the same
    /// semantics every dynamic driver uses). The collector is assumed to
    /// sit on processor 0 (see [`MutationSchedule::final_topology_rooted`]
    /// for other roots — `node-leave` never removes the root).
    pub fn final_topology(&self, base: &Topology) -> Topology {
        self.final_topology_rooted(base, NodeId(0))
    }

    /// [`MutationSchedule::final_topology`] for a collector on `root`.
    /// The root id is tracked across membership changes (a leave below
    /// the root shifts it down by one).
    pub fn final_topology_rooted(&self, base: &Topology, root: NodeId) -> Topology {
        let mut topo = base.clone();
        let mut root = root;
        for sm in &self.items {
            let applied = topo.apply_or_fallback_rooted(&sm.mutation, root);
            root = applied.membership.relabel(root);
            topo = applied.topology;
        }
        topo
    }
}

impl FromIterator<ScheduledMutation> for MutationSchedule {
    fn from_iter<I: IntoIterator<Item = ScheduledMutation>>(iter: I) -> Self {
        let mut s = MutationSchedule::new();
        for sm in iter {
            s.push(sm.tick, sm.mutation);
        }
        s
    }
}

/// How one applied mutation changed the processor set.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MembershipChange {
    /// The processor set is unchanged (the wire-level kinds).
    #[default]
    None,
    /// A fresh processor joined; it holds the highest id of the new
    /// topology (ids of existing processors are unchanged).
    Joined {
        /// The new processor's id in the *new* topology.
        node: NodeId,
    },
    /// A processor left. Ids above it shift down by one; `node` is its id
    /// in the *old* topology.
    Left {
        /// The departed processor's id in the *old* topology.
        node: NodeId,
    },
}

impl MembershipChange {
    /// Map a surviving processor's old id to its id in the new topology.
    /// `id` must not be the departed processor (leaves never remove the
    /// root, so tracked roots are always survivors).
    pub fn relabel(self, id: NodeId) -> NodeId {
        match self {
            MembershipChange::Left { node } => {
                debug_assert_ne!(id, node, "the departed processor has no new id");
                if id.0 > node.0 {
                    NodeId(id.0 - 1)
                } else {
                    id
                }
            }
            _ => id,
        }
    }
}

/// The result of [`Topology::apply_or_fallback_rooted`]: the new
/// topology, the kind actually applied (the swap fallback may differ from
/// the scheduled kind), and how the processor set changed.
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedMutation {
    /// The mutated topology.
    pub topology: Topology,
    /// The kind actually applied.
    pub kind: MutationKind,
    /// Membership effect ([`MembershipChange::None`] for wire-level kinds).
    pub membership: MembershipChange,
}

/// Why a mutation could not be applied to a particular topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationError {
    /// No candidate edit of this kind yields a valid, strongly-connected
    /// network (e.g. dropping a wire from a directed ring).
    NoCandidate {
        /// The kind that had no candidate.
        kind: MutationKind,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::NoCandidate { kind } => write!(
                f,
                "no {kind} candidate keeps the network valid and strongly connected"
            ),
        }
    }
}

impl std::error::Error for MutationError {}

/// Rebuild a topology from an edge list; `None` if the wiring is invalid
/// or the result is not strongly connected.
fn rebuild(n: usize, delta: u8, edges: &[Edge]) -> Option<Topology> {
    let mut b = TopologyBuilder::new(n, delta);
    for e in edges {
        b.connect(e.src, e.src_port, e.dst, e.dst_port).ok()?;
    }
    let t = b.build().ok()?;
    algo::is_strongly_connected(&t).then_some(t)
}

fn free_out_port(topo: &Topology, node: NodeId) -> Option<Port> {
    (0..topo.delta())
        .map(Port)
        .find(|&o| !topo.out_mask(node).contains(o))
}

fn free_in_port(topo: &Topology, node: NodeId) -> Option<Port> {
    (0..topo.delta())
        .map(Port)
        .find(|&i| !topo.in_mask(node).contains(i))
}

/// Remove processor `x`, shift higher ids down, and re-stitch its wires:
/// the `i`-th feeder pairs with the `i`-th target cyclically, so every
/// feeder keeps an out-wire and every target an in-wire where ports
/// allow. Freed ports are reused first; extra stitches take the lowest
/// free ports. `None` when any stitch is impossible (port exhaustion,
/// forced self-loop leaving a node wireless) or the result is not
/// strongly connected.
fn try_leave(topo: &Topology, x: NodeId) -> Option<Topology> {
    let n = topo.num_nodes();
    if n < 3 {
        return None; // the model requires at least two processors
    }
    let change = MembershipChange::Left { node: x };
    let relabel = |id: NodeId| change.relabel(id);
    let mut b = TopologyBuilder::new(n - 1, topo.delta());
    for e in topo.sorted_edges() {
        if e.src == x || e.dst == x {
            continue;
        }
        b.connect(relabel(e.src), e.src_port, relabel(e.dst), e.dst_port)
            .ok()?;
    }
    // (feeder, its freed out-port) and (target, its freed in-port), in
    // x's port order — deterministic.
    let preds: Vec<(NodeId, Port)> = topo.in_edges(x).map(|(_, ep)| (ep.node, ep.port)).collect();
    let succs: Vec<(NodeId, Port)> = topo
        .out_edges(x)
        .map(|(_, ep)| (ep.node, ep.port))
        .collect();
    let (p, q) = (preds.len(), succs.len());
    for i in 0..p.max(q) {
        let (u, uo) = preds[i % p];
        let (v, vi) = succs[i % q];
        if u == v {
            continue; // a stitch here would be a self-loop
        }
        if i < p && i < q {
            b.connect(relabel(u), uo, relabel(v), vi).ok()?;
        } else {
            b.connect_auto(relabel(u), relabel(v)).ok()?;
        }
    }
    let t = b.build().ok()?;
    algo::is_strongly_connected(&t).then_some(t)
}

/// Radius-`r` region failure around `x`: BFS the out-edge ball of radius
/// `r` from the victim, then greedily drop each ball processor's
/// out-wires where validity and strong connectivity allow (always
/// keeping a processor's last out-wire). Ball processors are dropped in
/// ascending id order, so the edit is deterministic. `None` when the
/// region cannot lose a single wire.
fn try_burst_r(topo: &Topology, x: NodeId, radius: u64) -> Option<Topology> {
    let n = topo.num_nodes();
    let delta = topo.delta();
    let mut dist = vec![u64::MAX; n];
    dist[x.idx()] = 0;
    let mut ball = vec![x];
    let mut queue = std::collections::VecDeque::from([x]);
    while let Some(u) = queue.pop_front() {
        if dist[u.idx()] == radius {
            continue;
        }
        for (_, ep) in topo.out_edges(u) {
            if dist[ep.node.idx()] == u64::MAX {
                dist[ep.node.idx()] = dist[u.idx()] + 1;
                ball.push(ep.node);
                queue.push_back(ep.node);
            }
        }
    }
    ball.sort_unstable();
    let mut cur = topo.clone();
    let mut dropped = 0usize;
    for &b in &ball {
        let ports: Vec<Port> = cur.out_edges(b).map(|(o, _)| o).collect();
        for o in ports {
            if cur.out_degree(b) <= 1 {
                break;
            }
            let rest: Vec<Edge> = cur
                .sorted_edges()
                .into_iter()
                .filter(|e| !(e.src == b && e.src_port == o))
                .collect();
            if let Some(t) = rebuild(n, delta, &rest) {
                cur = t;
                dropped += 1;
            }
        }
    }
    (dropped > 0).then_some(cur)
}

/// Correlated failure of `x`'s out-wires: greedily drop each out-wire
/// whose removal keeps the network valid and strongly connected (always
/// keeping x's last one) — a radius-0 [`try_burst_r`]; when nothing is
/// droppable, exchange the heads of x's out-wires cyclically
/// (degree-preserving). `None` when neither variant produces a changed,
/// valid network.
fn try_burst(topo: &Topology, x: NodeId) -> Option<Topology> {
    if let Some(t) = try_burst_r(topo, x, 0) {
        return Some(t);
    }
    let ports: Vec<Port> = topo.out_edges(x).map(|(o, _)| o).collect();
    if ports.len() < 2 {
        return None;
    }
    // `ports` holds x's wired out-ports only.
    #[allow(clippy::expect_used)]
    let heads: Vec<Endpoint> = ports
        .iter()
        .map(|&o| topo.out_endpoint(x, o).expect("out-port is wired"))
        .collect();
    let mut edges: Vec<Edge> = topo
        .sorted_edges()
        .into_iter()
        .filter(|e| e.src != x)
        .collect();
    for (i, &o) in ports.iter().enumerate() {
        let h = heads[(i + 1) % heads.len()];
        edges.push(Edge {
            src: x,
            src_port: o,
            dst: h.node,
            dst_port: h.port,
        });
    }
    rebuild(topo.num_nodes(), topo.delta(), &edges).filter(|t| t != topo)
}

impl Topology {
    /// Apply one mutation, returning the new topology. The candidate scan
    /// starts at the mutation's selector and settles on the first edit
    /// whose result satisfies the model (δ bound, ≥ 1 in-/out-port per
    /// processor, no self-loops) *and* stays strongly connected —
    /// deterministic for a given `(topology, mutation)` pair.
    ///
    /// Root-agnostic convenience over [`Topology::apply_rooted`]:
    /// `node-leave` protects processor 0 (the conventional collector) and
    /// the membership report is dropped.
    pub fn apply(&self, m: &TopologyMutation) -> Result<Topology, MutationError> {
        self.apply_rooted(m, NodeId(0)).map(|(t, _)| t)
    }

    /// [`Topology::apply`] for a collector on `root`: `node-leave` skips
    /// the root in its candidate scan (the master computer's host cannot
    /// leave the network it is mapping) and every application reports how
    /// the processor set changed.
    pub fn apply_rooted(
        &self,
        m: &TopologyMutation,
        root: NodeId,
    ) -> Result<(Topology, MembershipChange), MutationError> {
        let n = self.num_nodes();
        let delta = self.delta();
        let no_candidate = MutationError::NoCandidate { kind: m.kind };
        match m.kind {
            MutationKind::DropEdge => {
                let edges = self.sorted_edges();
                let e = edges.len();
                for k in 0..e {
                    let skip = ((m.selector % e as u64) as usize + k) % e;
                    let rest: Vec<Edge> = edges
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != skip)
                        .map(|(_, &e)| e)
                        .collect();
                    if let Some(t) = rebuild(n, delta, &rest) {
                        return Ok((t, MembershipChange::None));
                    }
                }
                Err(no_candidate)
            }
            MutationKind::AddEdge => {
                let total = n * n;
                let start = (m.selector % total as u64) as usize;
                for k in 0..total {
                    let idx = (start + k) % total;
                    let (u, v) = (NodeId((idx / n) as u32), NodeId((idx % n) as u32));
                    if u == v {
                        continue;
                    }
                    let (Some(o), Some(i)) = (free_out_port(self, u), free_in_port(self, v)) else {
                        continue;
                    };
                    let mut edges = self.sorted_edges();
                    edges.push(Edge {
                        src: u,
                        src_port: o,
                        dst: v,
                        dst_port: i,
                    });
                    if let Some(t) = rebuild(n, delta, &edges) {
                        return Ok((t, MembershipChange::None));
                    }
                }
                Err(no_candidate)
            }
            MutationKind::RewirePort => {
                // Exchange the heads of two wires: e1 = u1→v1, e2 = u2→v2
                // become u1→v2 and u2→v1 (same in-ports). Degrees are
                // preserved, so this works even on port-saturated networks
                // (e.g. `random-sc` at its δ target) where no in-port is
                // free for a one-sided re-route.
                let edges = self.sorted_edges();
                let e = edges.len();
                for k1 in 0..e {
                    let i1 = ((m.selector % e as u64) as usize + k1) % e;
                    let e1 = edges[i1];
                    for k2 in 1..e {
                        let i2 = (i1 + k2) % e;
                        let e2 = edges[i2];
                        if e1.src == e2.dst || e2.src == e1.dst {
                            continue; // the exchange would create a self-loop
                        }
                        let mut new_edges = edges.clone();
                        new_edges[i1] = Edge {
                            src: e1.src,
                            src_port: e1.src_port,
                            dst: e2.dst,
                            dst_port: e2.dst_port,
                        };
                        new_edges[i2] = Edge {
                            src: e2.src,
                            src_port: e2.src_port,
                            dst: e1.dst,
                            dst_port: e1.dst_port,
                        };
                        if let Some(t) = rebuild(n, delta, &new_edges) {
                            return Ok((t, MembershipChange::None));
                        }
                    }
                }
                Err(no_candidate)
            }
            MutationKind::SwapLabels => {
                let a = (m.selector % n as u64) as usize;
                let b = (a + 1 + ((m.selector / n as u64) % (n as u64 - 1)) as usize) % n;
                let relabel = |x: NodeId| -> NodeId {
                    if x.idx() == a {
                        NodeId(b as u32)
                    } else if x.idx() == b {
                        NodeId(a as u32)
                    } else {
                        x
                    }
                };
                let edges: Vec<Edge> = self
                    .sorted_edges()
                    .into_iter()
                    .map(|e| Edge {
                        src: relabel(e.src),
                        src_port: e.src_port,
                        dst: relabel(e.dst),
                        dst_port: e.dst_port,
                    })
                    .collect();
                // A relabelling is an isomorphism: always valid.
                rebuild(n, delta, &edges)
                    .map(|t| (t, MembershipChange::None))
                    .ok_or(no_candidate)
            }
            MutationKind::NodeJoin => {
                // Splice processor `n` into an existing wire: u→v becomes
                // u→n→v. Degrees at u and v are untouched and every old
                // path through the wire reroutes through the newcomer, so
                // the first candidate is always valid — the scan exists
                // only for uniformity with the other kinds.
                let edges = self.sorted_edges();
                let e = edges.len();
                let new = NodeId(n as u32);
                for k in 0..e {
                    let idx = ((m.selector % e as u64) as usize + k) % e;
                    let spliced = edges[idx];
                    let mut new_edges = edges.clone();
                    new_edges[idx] = Edge {
                        src: spliced.src,
                        src_port: spliced.src_port,
                        dst: new,
                        dst_port: Port(0),
                    };
                    new_edges.push(Edge {
                        src: new,
                        src_port: Port(0),
                        dst: spliced.dst,
                        dst_port: spliced.dst_port,
                    });
                    if let Some(t) = rebuild(n + 1, delta, &new_edges) {
                        return Ok((t, MembershipChange::Joined { node: new }));
                    }
                }
                Err(no_candidate)
            }
            MutationKind::NodeLeave => {
                for k in 0..n {
                    let x = NodeId((((m.selector % n as u64) as usize + k) % n) as u32);
                    if x == root {
                        continue; // the collector's host never leaves
                    }
                    if let Some(t) = try_leave(self, x) {
                        return Ok((t, MembershipChange::Left { node: x }));
                    }
                }
                Err(no_candidate)
            }
            MutationKind::Burst => {
                for k in 0..n {
                    let x = NodeId((((m.selector % n as u64) as usize + k) % n) as u32);
                    if let Some(t) = try_burst(self, x) {
                        return Ok((t, MembershipChange::None));
                    }
                }
                Err(no_candidate)
            }
            MutationKind::NodeRestart => {
                // Structurally the identity: the victim's processor state
                // resets (amnesia) but the physical network is untouched.
                // Timeline folds treat it as a no-op; live drivers
                // power-cycle the victim chosen by [`restart_victim`].
                Ok((self.clone(), MembershipChange::None))
            }
            MutationKind::BurstRadius => {
                let (start, radius) = burst_r_parts(m.selector);
                let radius = radius.max(1);
                for k in 0..n {
                    let x = NodeId((((start % n as u64) as usize + k) % n) as u32);
                    if let Some(t) = try_burst_r(self, x, radius) {
                        return Ok((t, MembershipChange::None));
                    }
                }
                Err(no_candidate)
            }
        }
    }

    /// Apply `m`, degrading to [`MutationKind::SwapLabels`] (with the
    /// same selector) when no candidate of the requested kind exists, so
    /// a scheduled network event always happens. Returns the new topology
    /// and the kind that was actually applied. Root-agnostic convenience
    /// over [`Topology::apply_or_fallback_rooted`] (collector on
    /// processor 0).
    pub fn apply_or_fallback(&self, m: &TopologyMutation) -> (Topology, MutationKind) {
        let applied = self.apply_or_fallback_rooted(m, NodeId(0));
        (applied.topology, applied.kind)
    }

    /// [`Topology::apply_or_fallback`] for a collector on `root`,
    /// reporting the full [`AppliedMutation`] (including the membership
    /// change a join or leave performed). The swap fallback never changes
    /// membership.
    pub fn apply_or_fallback_rooted(&self, m: &TopologyMutation, root: NodeId) -> AppliedMutation {
        match self.apply_rooted(m, root) {
            Ok((topology, membership)) => AppliedMutation {
                topology,
                kind: m.kind,
                membership,
            },
            Err(MutationError::NoCandidate { .. }) => {
                let swap = TopologyMutation {
                    kind: MutationKind::SwapLabels,
                    selector: m.selector,
                };
                // SwapLabels has no candidate preconditions, so the
                // fallback application cannot itself fail.
                #[allow(clippy::expect_used)]
                let (topology, membership) = self
                    .apply_rooted(&swap, root)
                    .expect("label swap applies to any valid network");
                AppliedMutation {
                    topology,
                    kind: MutationKind::SwapLabels,
                    membership,
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // asserts may panic freely
mod tests {
    use super::*;
    use crate::generators;

    fn mutation(kind: MutationKind, selector: u64) -> TopologyMutation {
        TopologyMutation { kind, selector }
    }

    #[test]
    fn drop_edge_keeps_validity_and_connectivity() {
        let topo = generators::random_sc(24, 3, 7);
        for sel in 0..8u64 {
            let t = topo.apply(&mutation(MutationKind::DropEdge, sel)).unwrap();
            assert_eq!(t.num_edges(), topo.num_edges() - 1);
            t.validate().unwrap();
            assert!(algo::is_strongly_connected(&t));
        }
    }

    #[test]
    fn drop_edge_on_a_ring_has_no_candidate() {
        // every wire of a directed ring is a bridge
        let topo = generators::ring(8);
        assert_eq!(
            topo.apply(&mutation(MutationKind::DropEdge, 3)),
            Err(MutationError::NoCandidate {
                kind: MutationKind::DropEdge
            })
        );
        // ...but the fallback still produces a changed, valid network
        let (t, applied) = topo.apply_or_fallback(&mutation(MutationKind::DropEdge, 3));
        assert_eq!(applied, MutationKind::SwapLabels);
        assert_ne!(t, topo);
        t.validate().unwrap();
        assert!(algo::is_strongly_connected(&t));
    }

    #[test]
    fn add_edge_adds_exactly_one_wire() {
        let topo = generators::ring(8); // delta 2, one port used per side
        for sel in [0u64, 5, 63] {
            let t = topo.apply(&mutation(MutationKind::AddEdge, sel)).unwrap();
            assert_eq!(t.num_edges(), topo.num_edges() + 1);
            t.validate().unwrap();
            assert!(algo::is_strongly_connected(&t));
        }
    }

    #[test]
    fn add_edge_on_a_saturated_network_has_no_candidate() {
        // complete_bidi uses every port of every node
        let topo = generators::complete_bidi(4);
        assert_eq!(
            topo.apply(&mutation(MutationKind::AddEdge, 1)),
            Err(MutationError::NoCandidate {
                kind: MutationKind::AddEdge
            })
        );
    }

    #[test]
    fn rewire_preserves_edge_count_and_connectivity() {
        let topo = generators::random_sc(20, 3, 9);
        for sel in 0..6u64 {
            let t = topo
                .apply(&mutation(MutationKind::RewirePort, sel))
                .unwrap();
            assert_eq!(t.num_edges(), topo.num_edges());
            assert_ne!(t, topo, "rewire must move a wire");
            t.validate().unwrap();
            assert!(algo::is_strongly_connected(&t));
        }
    }

    #[test]
    fn swap_is_an_isomorphic_relabelling() {
        let topo = generators::random_sc(16, 3, 2);
        let t = topo
            .apply(&mutation(MutationKind::SwapLabels, 12345))
            .unwrap();
        assert_eq!(t.num_edges(), topo.num_edges());
        assert_eq!(t.num_nodes(), topo.num_nodes());
        t.validate().unwrap();
        assert!(algo::is_strongly_connected(&t));
        // applying the same swap twice undoes it
        let back = t.apply(&mutation(MutationKind::SwapLabels, 12345)).unwrap();
        assert_eq!(back, topo);
    }

    #[test]
    fn mutations_are_deterministic() {
        let topo = generators::random_sc(18, 3, 4);
        for kind in MutationKind::ALL {
            let a = topo.apply_or_fallback(&mutation(kind, 7)).0;
            let b = topo.apply_or_fallback(&mutation(kind, 7)).0;
            assert_eq!(a, b, "{kind}");
        }
    }

    #[test]
    fn schedule_sorts_by_tick_stably() {
        let mut s = MutationSchedule::new();
        s.push(900, mutation(MutationKind::RewirePort, 5));
        s.push(200, mutation(MutationKind::RewirePort, 2));
        s.push(900, mutation(MutationKind::DropEdge, 1));
        let ticks: Vec<u64> = s.iter().map(|m| m.tick).collect();
        assert_eq!(ticks, vec![200, 900, 900]);
        // same-tick entries keep insertion order
        assert_eq!(s.items()[1].mutation.kind, MutationKind::RewirePort);
        assert_eq!(s.items()[2].mutation.kind, MutationKind::DropEdge);
    }

    #[test]
    fn suffix_grammar_round_trips() {
        for text in ["drop-edge=3@t500", "rewire=2@t200", "swap=0@t0"] {
            let sm: ScheduledMutation = text.parse().unwrap();
            assert_eq!(sm.to_string(), text);
        }
        let sm = ScheduledMutation::parse_suffix(" add-edge = 4 @ t 17 ").unwrap();
        assert_eq!(sm.to_string(), "add-edge=4@t17");
    }

    #[test]
    fn suffix_errors_are_structured_and_carry_the_tick() {
        use MutationSuffixError::*;
        let cases: [(&str, Option<u64>, MutationSuffixError); 6] = [
            ("", None, Empty),
            ("drop-edge=3", None, MissingTick),
            (
                "drop-edge=3@500",
                None,
                BadTick {
                    value: "500".into(),
                },
            ),
            (
                "warp=1@t5",
                Some(5),
                UnknownKind {
                    kind: "warp".into(),
                },
            ),
            ("drop-edge@t5", Some(5), MissingSelector),
            ("drop-edge=x@t5", Some(5), BadSelector { value: "x".into() }),
        ];
        for (text, tick, reason) in cases {
            assert_eq!(
                ScheduledMutation::parse_suffix(text),
                Err((tick, reason.clone())),
                "{text:?}"
            );
        }
    }

    #[test]
    fn node_join_splices_a_fresh_processor_into_a_wire() {
        let topo = generators::ring(8);
        for sel in [0u64, 3, 17] {
            let (t, change) = topo
                .apply_rooted(&mutation(MutationKind::NodeJoin, sel), NodeId(0))
                .unwrap();
            assert_eq!(change, MembershipChange::Joined { node: NodeId(8) });
            assert_eq!(t.num_nodes(), 9);
            assert_eq!(t.num_edges(), topo.num_edges() + 1);
            assert_eq!(t.in_degree(NodeId(8)), 1);
            assert_eq!(t.out_degree(NodeId(8)), 1);
            t.validate().unwrap();
            assert!(algo::is_strongly_connected(&t));
        }
    }

    #[test]
    fn node_leave_removes_and_restitches() {
        let topo = generators::random_sc(16, 3, 7);
        for sel in 0..6u64 {
            let (t, change) = topo
                .apply_rooted(&mutation(MutationKind::NodeLeave, sel), NodeId(0))
                .unwrap();
            let MembershipChange::Left { node } = change else {
                panic!("leave must report the departed processor");
            };
            assert_ne!(node, NodeId(0), "the root never leaves");
            assert_eq!(t.num_nodes(), 15);
            t.validate().unwrap();
            assert!(algo::is_strongly_connected(&t));
        }
    }

    #[test]
    fn node_leave_turns_a_ring_into_a_smaller_ring() {
        let topo = generators::ring(8);
        let (t, change) = topo
            .apply_rooted(&mutation(MutationKind::NodeLeave, 3), NodeId(0))
            .unwrap();
        assert_eq!(change, MembershipChange::Left { node: NodeId(3) });
        assert_eq!(t.num_nodes(), 7);
        assert_eq!(t.num_edges(), 7, "pred stitched straight to succ");
        t.validate().unwrap();
        assert!(algo::is_strongly_connected(&t));
    }

    #[test]
    fn node_leave_respects_the_root_protection_for_any_root() {
        let topo = generators::random_sc(12, 3, 4);
        for root in [0u32, 5, 11] {
            let applied =
                topo.apply_or_fallback_rooted(&mutation(MutationKind::NodeLeave, 5), NodeId(root));
            let MembershipChange::Left { node } = applied.membership else {
                panic!("random-sc networks always have a leavable processor");
            };
            assert_ne!(node, NodeId(root));
            let new_root = applied.membership.relabel(NodeId(root));
            assert!(new_root.idx() < applied.topology.num_nodes());
        }
    }

    #[test]
    fn node_leave_on_a_two_cycle_has_no_candidate() {
        let topo = generators::ring(2);
        assert_eq!(
            topo.apply(&mutation(MutationKind::NodeLeave, 1)),
            Err(MutationError::NoCandidate {
                kind: MutationKind::NodeLeave
            })
        );
        let (t, applied) = topo.apply_or_fallback(&mutation(MutationKind::NodeLeave, 1));
        assert_eq!(applied, MutationKind::SwapLabels);
        assert_eq!(t.num_nodes(), 2);
    }

    #[test]
    fn burst_drops_a_processors_out_wires_where_validity_allows() {
        let topo = generators::complete_bidi(5);
        let t = topo.apply(&mutation(MutationKind::Burst, 2)).unwrap();
        assert!(t.num_edges() < topo.num_edges(), "some out-wires dropped");
        assert_eq!(t.num_nodes(), topo.num_nodes());
        for id in t.node_ids() {
            assert!(t.out_degree(id) >= 1);
            assert!(t.in_degree(id) >= 1);
        }
        t.validate().unwrap();
        assert!(algo::is_strongly_connected(&t));
    }

    #[test]
    fn burst_on_a_ring_falls_back_to_a_swap() {
        // every ring processor has a single, bridge out-wire: nothing to
        // drop and nothing to head-exchange
        let topo = generators::ring(6);
        assert_eq!(
            topo.apply(&mutation(MutationKind::Burst, 0)),
            Err(MutationError::NoCandidate {
                kind: MutationKind::Burst
            })
        );
        let applied = topo.apply_or_fallback_rooted(&mutation(MutationKind::Burst, 0), NodeId(0));
        assert_eq!(applied.kind, MutationKind::SwapLabels);
        assert_eq!(applied.membership, MembershipChange::None);
    }

    #[test]
    fn registry_and_kind_list_stay_in_sync() {
        assert_eq!(MUTATION_REGISTRY.len(), MutationKind::ALL.len());
        for (spec, kind) in MUTATION_REGISTRY.iter().zip(MutationKind::ALL) {
            assert_eq!(spec.name, kind.name());
            let sm: ScheduledMutation = spec.example.parse().unwrap();
            assert_eq!(sm.mutation.kind, kind, "{}", spec.example);
        }
    }

    #[test]
    fn node_restart_is_structurally_the_identity() {
        let topo = generators::random_sc(12, 3, 4);
        let (t, change) = topo
            .apply_rooted(&mutation(MutationKind::NodeRestart, 5), NodeId(0))
            .unwrap();
        assert_eq!(t, topo);
        assert_eq!(change, MembershipChange::None);
    }

    #[test]
    fn restart_victim_scans_cyclically_and_skips_the_root() {
        let topo = generators::ring(4);
        assert_eq!(restart_victim(&topo, 2, NodeId(0)), NodeId(2));
        assert_eq!(restart_victim(&topo, 0, NodeId(0)), NodeId(1));
        // the scan wraps past the root
        assert_eq!(restart_victim(&topo, 1, NodeId(1)), NodeId(2));
        assert_eq!(restart_victim(&topo, 5, NodeId(1)), NodeId(2));
        // deterministic
        assert_eq!(
            restart_victim(&topo, 7, NodeId(0)),
            restart_victim(&topo, 7, NodeId(0))
        );
    }

    #[test]
    fn burst_r_selector_packs_and_unpacks() {
        let sel = burst_r_selector(5, 2);
        assert_eq!(burst_r_parts(sel), (5, 2));
        // parts is the exact inverse of the pack: raw radii survive, so
        // Display/FromStr round-trip on arbitrary selectors (radius 0 is
        // clamped to 1 only when the burst is applied)
        assert_eq!(burst_r_parts(3), (3, 0));
        assert_eq!(burst_r_parts(burst_r_selector(3, 0)), (3, 0));
    }

    #[test]
    fn burst_r_suffixes_round_trip_canonically() {
        let sm: ScheduledMutation = "burst-r=5:2@t800".parse().unwrap();
        assert_eq!(sm.to_string(), "burst-r=5:2@t800");
        assert_eq!(burst_r_parts(sm.mutation.selector), (5, 2));
        // a bare victim canonicalizes to radius 1
        let bare: ScheduledMutation = "burst-r=3@t400".parse().unwrap();
        assert_eq!(bare.to_string(), "burst-r=3:1@t400");
        // malformed pairs are structured errors
        assert!(matches!(
            ScheduledMutation::parse_suffix("burst-r=a:2@t1"),
            Err((Some(1), MutationSuffixError::BadSelector { .. }))
        ));
        assert!(matches!(
            ScheduledMutation::parse_suffix("burst-r=1:x@t1"),
            Err((Some(1), MutationSuffixError::BadSelector { .. }))
        ));
    }

    #[test]
    fn burst_r_drops_wires_across_the_whole_ball() {
        let topo = generators::complete_bidi(6);
        let r1 = topo
            .apply(&mutation(MutationKind::BurstRadius, burst_r_selector(2, 1)))
            .unwrap();
        let r2 = topo
            .apply(&mutation(MutationKind::BurstRadius, burst_r_selector(2, 2)))
            .unwrap();
        assert!(r1.num_edges() < topo.num_edges());
        // a wider ball can only lose at least as many wires
        assert!(r2.num_edges() <= r1.num_edges(), "radius widens the damage");
        for t in [&r1, &r2] {
            t.validate().unwrap();
            assert!(algo::is_strongly_connected(t));
            for id in t.node_ids() {
                assert!(t.out_degree(id) >= 1 && t.in_degree(id) >= 1);
            }
        }
    }

    #[test]
    fn burst_r_on_a_ring_falls_back_to_a_swap() {
        let topo = generators::ring(6);
        assert_eq!(
            topo.apply(&mutation(MutationKind::BurstRadius, burst_r_selector(1, 3))),
            Err(MutationError::NoCandidate {
                kind: MutationKind::BurstRadius
            })
        );
        let applied = topo.apply_or_fallback_rooted(
            &mutation(MutationKind::BurstRadius, burst_r_selector(1, 3)),
            NodeId(0),
        );
        assert_eq!(applied.kind, MutationKind::SwapLabels);
    }

    #[test]
    fn membership_relabel_shifts_ids_above_the_departed() {
        let left = MembershipChange::Left { node: NodeId(3) };
        assert_eq!(left.relabel(NodeId(2)), NodeId(2));
        assert_eq!(left.relabel(NodeId(5)), NodeId(4));
        assert_eq!(
            MembershipChange::Joined { node: NodeId(9) }.relabel(NodeId(5)),
            NodeId(5)
        );
        assert_eq!(MembershipChange::None.relabel(NodeId(5)), NodeId(5));
    }

    #[test]
    fn unknown_kind_suggests_the_nearest_registry_name() {
        for (typo, expect) in [
            ("node-leav", "node-leave"),
            ("node_join", "node-join"),
            ("brust", "burst"),
            ("dropedge", "drop-edge"),
        ] {
            assert_eq!(nearest_kind(typo), expect, "{typo}");
            let msg = MutationSuffixError::UnknownKind { kind: typo.into() }.to_string();
            assert!(msg.contains(&format!("did you mean {expect:?}?")), "{msg}");
            // the known-kind list stays in registry order
            let order: Vec<usize> = MUTATION_REGISTRY
                .iter()
                .map(|m| {
                    msg.find(m.name)
                        .unwrap_or_else(|| panic!("{} in {msg}", m.name))
                })
                .collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{msg}");
        }
    }

    #[test]
    fn malformed_membership_suffixes_are_structured() {
        use MutationSuffixError::*;
        let cases: [(&str, Option<u64>, MutationSuffixError); 5] = [
            ("node-leave@t5", Some(5), MissingSelector),
            ("node-join=x@t5", Some(5), BadSelector { value: "x".into() }),
            ("burst=1", None, MissingTick),
            (
                "burst=1@900",
                None,
                BadTick {
                    value: "900".into(),
                },
            ),
            (
                "node_leave=1@t5",
                Some(5),
                UnknownKind {
                    kind: "node_leave".into(),
                },
            ),
        ];
        for (text, tick, reason) in cases {
            assert_eq!(
                ScheduledMutation::parse_suffix(text),
                Err((tick, reason.clone())),
                "{text:?}"
            );
        }
    }

    #[test]
    fn membership_suffixes_round_trip() {
        for text in ["node-join=2@t300", "node-leave=3@t500", "burst=5@t800"] {
            let sm: ScheduledMutation = text.parse().unwrap();
            assert_eq!(sm.to_string(), text);
        }
    }

    #[test]
    fn final_topology_rooted_tracks_the_root_across_leaves() {
        let base = generators::random_sc(14, 3, 9);
        let schedule = MutationSchedule::new()
            .with(100, mutation(MutationKind::NodeLeave, 2))
            .with(300, mutation(MutationKind::NodeJoin, 1));
        for root in [0u32, 7, 13] {
            let end = schedule.final_topology_rooted(&base, NodeId(root));
            assert_eq!(end.num_nodes(), 14, "one leave, one join");
            end.validate().unwrap();
            assert!(algo::is_strongly_connected(&end));
        }
        // the root-free fold matches the root-0 fold
        assert_eq!(
            schedule.final_topology(&base),
            schedule.final_topology_rooted(&base, NodeId(0))
        );
    }

    #[test]
    fn final_topology_folds_the_whole_timeline() {
        let base = generators::random_sc(16, 3, 5);
        let schedule = MutationSchedule::new()
            .with(100, mutation(MutationKind::DropEdge, 1))
            .with(300, mutation(MutationKind::AddEdge, 2));
        let end = schedule.final_topology(&base);
        let step1 = base
            .apply_or_fallback(&mutation(MutationKind::DropEdge, 1))
            .0;
        let step2 = step1
            .apply_or_fallback(&mutation(MutationKind::AddEdge, 2))
            .0;
        assert_eq!(end, step2);
        end.validate().unwrap();
    }
}
