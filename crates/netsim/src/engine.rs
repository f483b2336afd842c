//! The synchronous lockstep engine (paper §1.1).
//!
//! "Processors synchronously, within a single global clock pulse, perform
//! the following actions in order: read in the inputs from each of their
//! in-ports, process their individual state changes, and prepare and
//! broadcast their outputs."
//!
//! [`Engine::tick`] implements exactly that: every automaton reads the
//! signals that were written onto its in-wires at the end of the previous
//! tick, steps, and writes signals onto its out-wires for the next tick.
//! Wires are double-buffered so all automata observe one consistent
//! snapshot regardless of step order.
//!
//! Three observationally-equivalent execution strategies are provided
//! (equivalence is enforced by tests and measured by experiment E8):
//!
//! * [`EngineMode::Dense`] — step every automaton every tick. The obvious
//!   reference implementation.
//! * [`EngineMode::Sparse`] — event-driven: step only the **active
//!   frontier** — automata with a pending input or a due wake deadline.
//!   The frontier is intrusive: it is updated at signal-write time (the
//!   scatter marks the receiving node) and via a timer wheel/heap fed by
//!   [`StepCtx::request_restep_at`], so a quiet tick costs O(active)
//!   rather than O(N). Protocol activity is usually localized, so this is
//!   the workhorse for large runs. Correctness relies on the *deadline
//!   contract* documented on [`Automaton`].
//! * [`EngineMode::Parallel`] — the sharded event engine. The active
//!   frontier is partitioned over contiguous node ranges, each shard
//!   owning its own timing wheel, overflow heap, and input worklist;
//!   shards are fanned over a persistent worker pool
//!   ([`crate::pool::WorkerPool`]: pre-spawned at construction, parked
//!   between ticks, shut down on drop) when the merged frontier is large
//!   enough, and run inline otherwise — so Parallel never pays dispatch
//!   overhead on quiet-heavy phases. When a flood saturates the network
//!   (≥ half the nodes have pending input) the mode switches to a
//!   *saturated tick*: a dense-scan step/gather over shard ranges that
//!   skips worklist bookkeeping entirely (the frontier is lazily rebuilt
//!   on the way back to event ticks). Shard count comes from
//!   [`Engine::with_root_sharded`], the `GTD_PAR_SHARDS` environment
//!   variable, or auto-sizing by core count.
//!
//! All three modes maintain the same frontier bookkeeping (`wake_at`
//! deadlines, pending-input flags, armed counters), so [`Engine::is_quiet`]
//! is O(1) and [`Engine::skip_lull`] fast-forwards deadline-driven lulls
//! identically regardless of mode — which is what keeps the modes
//! bit-identical even on timelines that skip ticks. Transcripts are
//! byte-identical across modes **and across any shard count**: shard
//! ranges partition the node space in ascending order, each shard's step
//! list is sorted, and every heuristic (pool engagement, saturation)
//! only chooses between observationally-equivalent paths.

use crate::ids::{NodeId, Port, PortMask};
use crate::mutation::MembershipChange;
use crate::pool::{PhaseFn, WorkerPool};
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Static facts a processor knows about itself at power-on: which of its
/// ports are wired (in-/out-port awareness, §1.2.1) and whether it is the
/// root. The simulator-side `id` is provided **for tracing only** — protocol
/// logic must never branch on it (the paper's processors are anonymous).
#[derive(Clone, Debug)]
pub struct NodeMeta {
    /// Simulator-side identity. Tracing/diagnostics only.
    pub id: NodeId,
    /// True for the distinguished root processor.
    pub is_root: bool,
    /// Bit `i` set — is in-port `i` wired?
    pub in_connected: PortMask,
    /// Bit `o` set — is out-port `o` wired?
    pub out_connected: PortMask,
    /// The network constant δ.
    pub delta: u8,
}

/// Everything an automaton sees during one clock pulse.
pub struct StepCtx<'a, S, E> {
    /// The current global tick (first step happens at tick 0).
    pub tick: u64,
    /// One signal per in-port, indexed by in-port number. Unwired ports
    /// always read blank.
    pub inputs: &'a [S],
    /// One signal per out-port, indexed by out-port number; pre-blanked.
    /// Writing to an unwired port is allowed and discarded.
    pub outputs: &'a mut [S],
    /// Transcript events (only the root uses this in the GTD protocol, but
    /// the engine supports any node emitting).
    pub events: &'a mut Vec<E>,
    wake: &'a mut u64,
}

impl<S, E> StepCtx<'_, S, E> {
    /// Ask to be stepped on the next tick even if no input arrives.
    /// Equivalent to [`StepCtx::request_restep_at`]`(tick + 1)`.
    #[inline]
    pub fn request_restep(&mut self) {
        let at = self.tick + 1;
        if *self.wake > at {
            *self.wake = at;
        }
    }

    /// Ask to be stepped at tick `at` (clamped to the coming tick) even if
    /// no input arrives — the deadline form used by speed timers: a node
    /// holding a character that emerges at tick `d` sleeps until `d`
    /// instead of burning a no-op step on every intervening tick. Multiple
    /// requests within one step keep the earliest deadline.
    #[inline]
    pub fn request_restep_at(&mut self, at: u64) {
        let at = at.max(self.tick + 1);
        if *self.wake > at {
            *self.wake = at;
        }
    }

    /// Convenience: the input on in-port `p`.
    #[inline]
    pub fn input(&self, p: Port) -> &S {
        &self.inputs[p.idx()]
    }
}

/// A synchronous finite-state processor.
///
/// **Deadline contract** (required by [`EngineMode::Sparse`] and by
/// [`Engine::skip_lull`]): if all of an automaton's inputs are blank and
/// its most recent step requested no wake ([`StepCtx::request_restep_at`])
/// — or requested one that has not yet arrived — then stepping it must
/// not change its observable state and must emit only blank outputs,
/// except that it may re-request a wake no earlier than the original.
/// The dense paths step every automaton every tick and rely on those
/// extra steps being no-ops; the event paths skip them entirely; both
/// must agree, and the dense/sparse equivalence tests in this crate and
/// downstream enforce it.
pub trait Automaton: Send {
    /// The wire alphabet — one constant-size character per wire per tick.
    /// `Default` is the blank character b of the paper. `Copy` keeps the
    /// routing phase a plain word move: the engine never clones or
    /// allocates a signal on the hot path.
    type Sig: Copy + Default + PartialEq + Send + Sync;
    /// Transcript event type (what the root pipes to its master computer).
    type Event: Send;

    /// One global clock pulse: read inputs, change state, write outputs.
    fn step(&mut self, ctx: &mut StepCtx<'_, Self::Sig, Self::Event>);

    /// The network was rewired around this processor
    /// ([`Engine::apply_topology`]): `meta` carries the new port
    /// connectivity masks (§1.2.1 port awareness tracks the physical
    /// wiring). Called between ticks, only on processors whose masks
    /// changed; the default ignores the event.
    fn on_rewire(&mut self, meta: &NodeMeta) {
        let _ = meta;
    }

    /// This processor was spliced into a *running* network
    /// ([`Engine::apply_topology_with`] with a
    /// [`MembershipChange::Joined`]): called once on the freshly built
    /// automaton, between ticks, before its first step. `meta` is the
    /// same power-on view the factory received; the newcomer is also
    /// scheduled for a step, so it powers on at the next tick in every
    /// engine mode. The default ignores the event.
    fn on_join(&mut self, meta: &NodeMeta) {
        let _ = meta;
    }
}

/// Execution strategy. See module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineMode {
    /// Step every node every tick, sequentially.
    Dense,
    /// Step only the active frontier (event-driven), sequentially.
    Sparse,
    /// Sharded event-driven stepping over a persistent worker pool, with
    /// a dense-scan fast path for saturated ticks.
    Parallel,
}

impl EngineMode {
    /// Every mode, in canonical order (CLI listings, campaign grids).
    pub const ALL: [EngineMode; 3] = [EngineMode::Dense, EngineMode::Sparse, EngineMode::Parallel];

    /// Stable lowercase name (round-trips through [`FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Dense => "dense",
            EngineMode::Sparse => "sparse",
            EngineMode::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        EngineMode::ALL
            .into_iter()
            .find(|m| m.name() == s.trim())
            .ok_or_else(|| format!("unknown engine mode {s:?} (known: dense, sparse, parallel)"))
    }
}

const NO_ROUTE: u32 = u32::MAX;

/// Sentinel "no wake requested" deadline.
const NO_WAKE: u64 = u64::MAX;

/// Timing-wheel horizon: wakes within this many ticks of the clock are
/// indexed by a per-tick slot vector instead of the heap. Every dwell the
/// protocol uses (speed-1 = 3 ticks/hop) fits comfortably.
const WHEEL: usize = 8;

/// Hard ceiling on the parallel shard count (and thus pool size).
pub const MAX_SHARDS: usize = 64;

/// Auto-sizing: one shard per ~this many nodes (capped by core count),
/// so small networks never pay for idle shards.
const NODES_PER_SHARD: usize = 256;

/// With auto-sized shards, the worker pool engages only when the coming
/// tick's active set (pending inputs + armed wakes) is at least this many
/// nodes per shard; smaller frontiers run the same phases inline. This is
/// the active-fraction heuristic that replaced the old fixed
/// `PAR_MIN_NODES` cliff: Parallel falls back to sequential event
/// scheduling on quiet-heavy phases instead of losing to Sparse there.
const PAR_ACTIVE_PER_SHARD: usize = 32;

/// One partition of the active frontier: a contiguous node range with its
/// own scheduling structures, so a tick phase over shard `s` touches no
/// other shard's state (cross-shard signal deliveries go through `lanes`).
struct Shard {
    /// First node id owned by this shard.
    lo: usize,
    /// One past the last node id owned by this shard.
    hi: usize,
    /// Near-deadline timing wheel: `wheel[t % WHEEL]` holds owned nodes
    /// whose wake was scheduled for tick `t` within the next [`WHEEL`]
    /// ticks. Entries are lazily validated against `wake_at` when their
    /// slot drains.
    wheel: [Vec<u32>; WHEEL],
    /// Lazy-deletion min-heap of `(wake tick, node)` for owned nodes with
    /// wakes beyond the wheel horizon. Between the wheel and the heap,
    /// whenever `wake_at[n] != NO_WAKE` there is an entry covering
    /// exactly that tick (unless the frontier is dirty).
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    /// Owned nodes whose `has_input` flag flipped on during the last
    /// scatter/merge — the input half of the coming tick's frontier.
    frontier: Vec<u32>,
    /// The shard's step list of the current tick (sorted node ids).
    stepped: Vec<u32>,
    /// `lanes[d]` — nodes in shard `d` this shard delivered a signal to
    /// during the scatter phase. Written only by this shard (its own
    /// lane, no contention); drained by shard `d` in the merge phase,
    /// which dedups via the owner's `has_input`.
    lanes: Vec<Vec<u32>>,
    /// Change to the engine-wide `pending_inputs` accumulated this tick
    /// (absolute per-shard count after a saturated tick).
    pending_delta: i64,
    /// Change to the engine-wide `armed` counter accumulated this tick
    /// (absolute per-shard count after a saturated tick).
    armed_delta: i64,
}

/// Deterministic unreliable-wire model interposed on signal delivery —
/// the fault axis that breaks the paper's synchronous-reliable wire
/// assumption (§1.1) on purpose, sustained rather than one-shot (§1.2.2).
///
/// Every non-blank character written onto a wire is independently
/// dropped with probability `loss`, and otherwise delayed by a number
/// of extra ticks drawn uniformly from `delay_min..=delay_max` (a draw
/// of 0 delivers on schedule). Decisions are **stateless**: each is a
/// pure hash of `(seed, out-slot, emit tick)`, never a sequential RNG
/// stream, so they are independent of step order, shard count, engine
/// mode, and the saturation heuristic — which is what keeps faulted
/// transcripts byte-identical across dense/sparse/parallel and every
/// shard count. An inactive plane (`loss == 0`, no delay) installs no
/// state at all, so unfaulted runs stay bit-identical **and**
/// allocation-free.
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct FaultPlane {
    /// Per-character drop probability in `[0, 1]`.
    pub loss: f64,
    /// Minimum extra delivery delay in ticks.
    pub delay_min: u64,
    /// Maximum extra delivery delay in ticks (0 disables the delay axis).
    pub delay_max: u64,
    /// Seed for the per-character fault hash.
    pub seed: u64,
}

impl FaultPlane {
    /// The reliable plane: nothing dropped, nothing delayed.
    pub const NONE: FaultPlane = FaultPlane {
        loss: 0.0,
        delay_min: 0,
        delay_max: 0,
        seed: 0,
    };

    /// Does this plane ever touch a character?
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.delay_max > 0
    }

    /// The same fault axes under a retry-attempt-specific seed. A fresh
    /// power-cycle resets the engine clock, so retrying under the
    /// *identical* seed would replay the identical drop pattern and
    /// wedge identically forever; mixing the attempt index breaks that
    /// loop while staying fully deterministic.
    pub fn with_attempt(&self, attempt: u32) -> FaultPlane {
        if attempt == 0 {
            return *self;
        }
        FaultPlane {
            seed: fault_hash(self.seed, u64::from(attempt), 0, 2),
            ..*self
        }
    }
}

/// Stateless per-character fault hash: a splitmix64-style finalizer over
/// the mixed identity `(seed, a, b, salt)`. Order-independent by
/// construction — no sequential stream state anywhere.
fn fault_hash(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ b.wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ salt.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One character's fate under the plane: `None` = dropped, `Some(0)` =
/// deliver on schedule, `Some(d)` = deliver `d` ticks late.
#[inline]
fn fault_decide(plane: &FaultPlane, threshold: u64, out_slot: usize, emit: u64) -> Option<u64> {
    if plane.loss > 0.0 && fault_hash(plane.seed, out_slot as u64, emit, 0) < threshold {
        return None;
    }
    if plane.delay_max == 0 {
        return Some(0);
    }
    let span = plane.delay_max - plane.delay_min + 1;
    Some(plane.delay_min + fault_hash(plane.seed, out_slot as u64, emit, 1) % span)
}

/// A character taken off its wire by the fault plane, due for delivery at
/// the top of tick `due` (= `emit + 1 + extra`; on-schedule characters
/// are read at `emit + 1`).
struct Delayed<S> {
    due: u64,
    in_slot: u32,
    emit: u64,
    sig: S,
}

/// Per-shard fault accumulation for one tick: written only by the owning
/// shard's phase (no contention), folded into [`FaultState`] after the
/// phase barriers. Accumulation order across shards is irrelevant —
/// delivery sorts by `(in_slot, emit)`.
struct FaultShard<S> {
    dropped: u64,
    delayed: Vec<Delayed<S>>,
}

/// Live fault-plane state: the configuration plus the delayed in-flight
/// set and lifetime counters. Boxed behind an `Option` on the engine so
/// the reliable path pays one null check per delivery site.
struct FaultState<S> {
    plane: FaultPlane,
    /// `loss` scaled to the hash range (precomputed).
    threshold: u64,
    /// Characters in flight past their on-schedule delivery tick.
    delayed: Vec<Delayed<S>>,
    /// One accumulation cell per shard (empty for Dense).
    scratch: Vec<FaultShard<S>>,
    /// Reusable batch buffer for due deliveries.
    due_scratch: Vec<Delayed<S>>,
    /// Lifetime count of characters the plane destroyed.
    dropped: u64,
    /// Lifetime count of characters the plane delayed.
    delayed_total: u64,
}

/// Pick the parallel shard count: an explicit builder knob wins, then the
/// `GTD_PAR_SHARDS` environment variable, then auto-sizing (core count,
/// but at least [`NODES_PER_SHARD`] nodes per shard). Returns the count
/// and whether it was forced (explicit counts always fan out, so tests
/// and CI sweeps exercise the pool even when the heuristic would not).
fn resolve_shards(n: usize, requested: Option<usize>) -> (usize, bool) {
    if let Some(s) = requested {
        return (s.clamp(1, MAX_SHARDS), true);
    }
    if let Ok(v) = std::env::var("GTD_PAR_SHARDS") {
        if let Ok(s) = v.trim().parse::<usize>() {
            if s >= 1 {
                return (s.min(MAX_SHARDS), true);
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let cap = n.div_ceil(NODES_PER_SHARD).max(1);
    (cores.clamp(1, cap).min(MAX_SHARDS), false)
}

/// The lockstep simulator. Generic over the automaton type so the same
/// engine runs the GTD protocol, unit-test probes, and ablation automata.
///
/// Steady-state ticks are allocation-free in every mode: all per-tick
/// scratch (per-shard event buffers and step lists, frontier worklists,
/// timer structures, cross-shard lanes) is reused across ticks, the
/// worker pool is pre-spawned and coordinated by atomics, and topology
/// mutations reuse the route-table rebuild buffers (`apply_scratch`).
pub struct Engine<A: Automaton> {
    mode: EngineMode,
    delta: usize,
    root: NodeId,
    tick: u64,
    nodes: Vec<A>,
    /// `in_buf[n*δ + i]` — signal visible on in-port `i` of node `n` this tick.
    in_buf: Vec<A::Sig>,
    /// `out_buf[n*δ + o]` — signal written on out-port `o` of node `n`.
    out_buf: Vec<A::Sig>,
    /// For each in-slot, the out-slot feeding it (dense/saturated gather).
    route_in: Vec<u32>,
    /// For each out-slot, the in-slot it feeds (event scatter). Bijective
    /// on wired slots — which is what makes cross-shard in-slot writes
    /// race-free.
    route_out: Vec<u32>,
    /// `wake_at[n]` — earliest tick node `n` asked to be stepped at
    /// ([`NO_WAKE`] = no request). The authoritative deadline store; the
    /// shard timer structures are only an index over it.
    wake_at: Vec<u64>,
    /// Nodes with a non-blank signal delivered for the coming tick.
    has_input: Vec<bool>,
    /// Count of `true` entries in `has_input` (O(1) quiet checks).
    pending_inputs: usize,
    /// Count of non-[`NO_WAKE`] entries in `wake_at`.
    armed: usize,
    /// Frontier partitions: empty for Dense, one shard for Sparse, the
    /// resolved shard count for Parallel.
    shards: Vec<Shard>,
    /// Nodes per shard (`shard_of(n) = min(n / chunk, shards - 1)`).
    chunk: usize,
    /// Set by saturated ticks, which bypass the shard worklists: the
    /// wheel/heap/frontier contents are stale and must be rebuilt
    /// ([`Engine::rebuild_frontier`]) before the next event tick.
    frontier_dirty: bool,
    /// The shard count was requested explicitly (knob or env var): fan
    /// event ticks over the pool unconditionally.
    forced_fanout: bool,
    /// Persistent tick-phase workers (Parallel with > 1 shard only);
    /// spawned once here, parked between dispatches, joined on drop.
    pool: Option<WorkerPool>,
    /// Per-shard event buffers (one for Dense), drained every tick.
    event_bufs: Vec<EventBuf<A::Event>>,
    /// Route-table and invalidation rebuild buffers for
    /// [`Engine::apply_topology_with`], reused across mutations so
    /// mutation-dense schedules don't reallocate per event.
    apply_scratch: ApplyScratch<A::Sig>,
    /// The unreliable-wire model, when one is interposed
    /// ([`Engine::set_fault_plane`]); `None` on the reliable path.
    fault: Option<Box<FaultState<A::Sig>>>,
}

/// The events one shard's steps emit in a tick. A step pushes into
/// `scratch` ([`StepCtx::events`]); [`EventBuf::tag`] moves them into
/// `tagged` with the stepping node's id right after the step. Step lists
/// ascend within a shard and shard ranges ascend, so concatenating the
/// shards' `tagged` lists in shard order yields ascending node order —
/// the same order Dense emits, at any shard count.
struct EventBuf<E> {
    scratch: Vec<E>,
    tagged: Vec<(NodeId, E)>,
}

impl<E> EventBuf<E> {
    fn new() -> Self {
        EventBuf {
            scratch: Vec::new(),
            tagged: Vec::new(),
        }
    }

    /// File whatever node `n`'s step just emitted.
    #[inline]
    fn tag(&mut self, n: usize) {
        if !self.scratch.is_empty() {
            let id = NodeId(n as u32);
            self.tagged.extend(self.scratch.drain(..).map(|e| (id, e)));
        }
    }
}

/// Reusable buffers for the atomic rewire path.
struct ApplyScratch<S> {
    route_in: Vec<u32>,
    route_out: Vec<u32>,
    in_buf: Vec<S>,
    wake_at: Vec<u64>,
    inv: Vec<Option<usize>>,
}

impl<S> Default for ApplyScratch<S> {
    fn default() -> Self {
        ApplyScratch {
            route_in: Vec::new(),
            route_out: Vec::new(),
            in_buf: Vec::new(),
            wake_at: Vec::new(),
            inv: Vec::new(),
        }
    }
}

/// Fill `route_in`/`route_out` (pre-sized to `n*δ`, all [`NO_ROUTE`])
/// from the wiring of `topo`.
fn fill_routes(topo: &Topology, delta: usize, route_in: &mut [u32], route_out: &mut [u32]) {
    for u in topo.node_ids() {
        for (o, ep) in topo.out_edges(u) {
            let out_slot = u.idx() * delta + o.idx();
            let in_slot = ep.node.idx() * delta + ep.port.idx();
            route_out[out_slot] = in_slot as u32;
            route_in[in_slot] = out_slot as u32;
        }
    }
}

/// Raw view of the engine tables a tick phase touches, type-erased behind
/// a `*const ()` so the non-generic worker pool can call monomorphized
/// phase functions. Rebuilt on every tick (it borrows nothing — the
/// pointers are only valid while the owning `Engine` methods hold still),
/// and published to workers per dispatch.
///
/// Safety argument for the phases below: shard ranges partition the node
/// space, every per-node table is indexed by node id, and each phase
/// writes only (a) state owned by its shard index, or (b) `in_buf` slots
/// reached through `route_out`, which is bijective on wired slots so no
/// two shards ever write the same slot. Phases are separated by pool
/// barriers, so no read races a foreign write.
struct ParCtx<A: Automaton> {
    nodes: *mut A,
    in_buf: *mut A::Sig,
    out_buf: *mut A::Sig,
    /// Indexed by shard: phase `s` touches only `event_bufs.add(s)`.
    event_bufs: *mut EventBuf<A::Event>,
    wake_at: *mut u64,
    has_input: *mut bool,
    shards: *mut Shard,
    route_in: *const u32,
    route_out: *const u32,
    /// Per-shard fault accumulation cells (null when no plane is active).
    /// Each phase touches only `fault.add(s)` — its own shard's cell.
    fault: *mut FaultShard<A::Sig>,
    fplane: FaultPlane,
    fthreshold: u64,
    num_shards: usize,
    chunk: usize,
    delta: usize,
    tick: u64,
}

/// Event phase A (per shard): drain the shard's due frontier — input
/// worklist, this tick's wheel slot, due overflow timers — into a sorted
/// step list, step each node against the `in_buf` snapshot, fold wake
/// re-arms back into the shard's wheel/heap, and clear consumed inputs.
unsafe fn shard_step<A: Automaton>(ctx: *const (), s: usize) {
    let c = &*ctx.cast::<ParCtx<A>>();
    let sh = &mut *c.shards.add(s);
    let delta = c.delta;
    let tick = c.tick;
    let blank = A::Sig::default();
    sh.stepped.clear();
    sh.stepped.append(&mut sh.frontier);
    let slot = (tick % WHEEL as u64) as usize;
    let mut due = std::mem::take(&mut sh.wheel[slot]);
    for n in due.drain(..) {
        if *c.wake_at.add(n as usize) <= tick {
            sh.stepped.push(n);
        }
    }
    sh.wheel[slot] = due;
    while let Some(&Reverse((at, n))) = sh.timers.peek() {
        if at > tick {
            break;
        }
        sh.timers.pop();
        if *c.wake_at.add(n as usize) <= tick {
            sh.stepped.push(n);
        }
    }
    // Ascending within the shard; shard ranges ascend across shards, so
    // the concatenated step list is globally sorted (event-drain
    // determinism across any shard count). Dedup removes input+wake
    // double entries.
    sh.stepped.sort_unstable();
    sh.stepped.dedup();
    let ev = &mut *c.event_bufs.add(s);
    for &n in &sh.stepped {
        let n = n as usize;
        // Pre-blank the out chunk: saturated ticks leave out_buf dirty,
        // so the historical all-blank-between-ticks invariant is gone.
        let outs = std::slice::from_raw_parts_mut(c.out_buf.add(n * delta), delta);
        for sig in outs.iter_mut() {
            *sig = A::Sig::default();
        }
        let old_wake = *c.wake_at.add(n);
        let mut wake = NO_WAKE;
        let mut step_ctx = StepCtx {
            tick,
            inputs: std::slice::from_raw_parts(c.in_buf.add(n * delta), delta),
            outputs: outs,
            events: &mut ev.scratch,
            wake: &mut wake,
        };
        (*c.nodes.add(n)).step(&mut step_ctx);
        ev.tag(n);
        if wake != old_wake {
            match (old_wake == NO_WAKE, wake == NO_WAKE) {
                (true, false) => sh.armed_delta += 1,
                (false, true) => sh.armed_delta -= 1,
                _ => {}
            }
            *c.wake_at.add(n) = wake;
            if wake != NO_WAKE {
                if wake - tick < WHEEL as u64 {
                    sh.wheel[(wake % WHEEL as u64) as usize].push(n as u32);
                } else {
                    sh.timers.push(Reverse((wake, n as u32)));
                }
            }
        }
        if *c.has_input.add(n) {
            let ins = std::slice::from_raw_parts_mut(c.in_buf.add(n * delta), delta);
            for sig in ins.iter_mut() {
                if *sig != blank {
                    *sig = A::Sig::default();
                }
            }
            *c.has_input.add(n) = false;
            sh.pending_delta -= 1;
        }
    }
}

/// Event phase B (per shard): scatter the outputs of the shard's stepped
/// nodes by move. In-shard deliveries mark `has_input`/frontier directly;
/// cross-shard deliveries write the in-slot (race-free: `route_out` is
/// bijective on wired slots) and flag the destination on this shard's own
/// lane — reading the foreign owner's `has_input` here would race, so
/// dedup happens in the owner's merge phase.
unsafe fn shard_scatter<A: Automaton>(ctx: *const (), s: usize) {
    let c = &*ctx.cast::<ParCtx<A>>();
    let sh = &mut *c.shards.add(s);
    let delta = c.delta;
    let blank = A::Sig::default();
    for &n in &sh.stepped {
        let n = n as usize;
        for o in 0..delta {
            let out_slot = n * delta + o;
            let sig = *c.out_buf.add(out_slot);
            if sig == blank {
                continue;
            }
            *c.out_buf.add(out_slot) = A::Sig::default();
            let r = *c.route_out.add(out_slot);
            if r == NO_ROUTE {
                continue;
            }
            let in_slot = r as usize;
            if !c.fault.is_null() {
                match fault_decide(&c.fplane, c.fthreshold, out_slot, c.tick) {
                    None => {
                        (*c.fault.add(s)).dropped += 1;
                        continue;
                    }
                    Some(0) => {}
                    Some(d) => {
                        (*c.fault.add(s)).delayed.push(Delayed {
                            due: c.tick + 1 + d,
                            in_slot: r,
                            emit: c.tick,
                            sig,
                        });
                        continue;
                    }
                }
            }
            *c.in_buf.add(in_slot) = sig;
            let dst = in_slot / delta;
            let d = (dst / c.chunk).min(c.num_shards - 1);
            if d == s {
                if !*c.has_input.add(dst) {
                    *c.has_input.add(dst) = true;
                    sh.frontier.push(dst as u32);
                    sh.pending_delta += 1;
                }
            } else {
                sh.lanes[d].push(dst as u32);
            }
        }
    }
}

/// Event phase C (per shard): merge — drain every other shard's lane
/// aimed at this shard, marking newly-delivered owned nodes into this
/// shard's frontier. Lane entries may repeat (several senders, several
/// ports); the owner's `has_input` check dedups.
unsafe fn shard_merge<A: Automaton>(ctx: *const (), d: usize) {
    let c = &*ctx.cast::<ParCtx<A>>();
    for s in 0..c.num_shards {
        if s == d {
            continue;
        }
        let lane: *mut Vec<u32> = &mut (&mut (*c.shards.add(s)).lanes)[d];
        for &dst in (*lane).iter() {
            let dst = dst as usize;
            if !*c.has_input.add(dst) {
                *c.has_input.add(dst) = true;
                let me = &mut *c.shards.add(d);
                me.frontier.push(dst as u32);
                me.pending_delta += 1;
            }
        }
        (*lane).clear();
    }
}

/// Saturated phase A (per shard): dense-scan step every node in the
/// shard's range. When the network floods, stepping the stragglers (no-ops
/// by the deadline contract) is cheaper than worklist bookkeeping — and
/// the armed recount folds into the same pass, which is what lets a
/// saturated Parallel tick beat both Sparse (no sort) and Dense (no
/// separate recount scans). Leaves the shard worklists stale: the caller
/// marks the frontier dirty.
unsafe fn shard_step_all<A: Automaton>(ctx: *const (), s: usize) {
    let c = &*ctx.cast::<ParCtx<A>>();
    let sh = &mut *c.shards.add(s);
    let delta = c.delta;
    let tick = c.tick;
    let mut armed = 0i64;
    let ev = &mut *c.event_bufs.add(s);
    for n in sh.lo..sh.hi {
        let outs = std::slice::from_raw_parts_mut(c.out_buf.add(n * delta), delta);
        for sig in outs.iter_mut() {
            *sig = A::Sig::default();
        }
        let mut wake = NO_WAKE;
        let mut step_ctx = StepCtx {
            tick,
            inputs: std::slice::from_raw_parts(c.in_buf.add(n * delta), delta),
            outputs: outs,
            events: &mut ev.scratch,
            wake: &mut wake,
        };
        (*c.nodes.add(n)).step(&mut step_ctx);
        ev.tag(n);
        *c.wake_at.add(n) = wake;
        if wake != NO_WAKE {
            armed += 1;
        }
    }
    sh.armed_delta = armed;
}

/// In-slots whose source signals [`shard_gather`] loads as one batch
/// (32 × the 16-byte GTD signal = 512 B of stack).
const GATHER_BLOCK: usize = 32;

/// Saturated phase B (per shard): dense gather — copy every wired
/// out-slot into the in-slot it feeds for the shard's nodes, recomputing
/// `has_input` and the shard's pending count in the same pass.
///
/// The gather is a permutation: `out_buf[route_in[slot]]` is a random
/// read for every wire, a cache miss on networks beyond the last-level
/// cache. Per-phase timers around the two saturated phases (one RCA on
/// `random-sc:n=1000000,delta=3,seed=9`, 2 shards on a 2-vCPU x86-64
/// host, 57 saturated ticks) put the old per-slot loop at 8.6–9.2 s of
/// gather against 5.3–5.4 s of stepping every automaton: the wire
/// permutation, not the protocol, was the cost. Two things cut it to
/// 3.0–3.7 s (stepping unchanged):
///
/// * Blocked loads. The in-slots are walked in blocks of
///   [`GATHER_BLOCK`]: first the block's source signals are copied into
///   a stack array — independent loads the CPU keeps in flight together
///   — and only then are the fault decision, the in-slot write and the
///   `has_input` fold applied slot by slot. Blocks run over slots, not
///   nodes, so a node may span blocks (several when δ > the block) and
///   `has` carries across. Alone this cut the gather by about a fifth.
/// * Blank tests against `A::Sig::default()` itself rather than a copy
///   held in a local: the optimizer then sees the constant and turns a
///   derived `PartialEq` on a product alphabet into a few vector
///   compares, where a compare against memory is a chain of
///   data-dependent branches. Copies still come from the local `blank`:
///   building `default()` in place at every copy measured twice as slow.
///
/// `tick_dense` keeps the naive per-slot loop on purpose: it is the
/// independent reference the equivalence suites check this one against.
unsafe fn shard_gather<A: Automaton>(ctx: *const (), s: usize) {
    let c = &*ctx.cast::<ParCtx<A>>();
    let sh = &mut *c.shards.add(s);
    let delta = c.delta;
    let blank = A::Sig::default();
    let end = sh.hi * delta;
    let mut block = [blank; GATHER_BLOCK];
    let mut pending = 0i64;
    let (mut n, mut port, mut has) = (sh.lo, 0, false);
    let mut base = sh.lo * delta;
    while base < end {
        let len = GATHER_BLOCK.min(end - base);
        for (j, src) in block[..len].iter_mut().enumerate() {
            let r = *c.route_in.add(base + j);
            *src = if r == NO_ROUTE {
                blank
            } else {
                *c.out_buf.add(r as usize)
            };
        }
        for (j, &loaded) in block[..len].iter().enumerate() {
            let in_slot = base + j;
            let mut sig = loaded;
            if !c.fault.is_null() && sig != A::Sig::default() {
                let r = *c.route_in.add(in_slot) as usize;
                match fault_decide(&c.fplane, c.fthreshold, r, c.tick) {
                    None => {
                        (*c.fault.add(s)).dropped += 1;
                        sig = blank;
                    }
                    Some(0) => {}
                    Some(d) => {
                        (*c.fault.add(s)).delayed.push(Delayed {
                            due: c.tick + 1 + d,
                            in_slot: in_slot as u32,
                            emit: c.tick,
                            sig,
                        });
                        sig = blank;
                    }
                }
            }
            // An unwired slot loaded blank, so this also clears it.
            *c.in_buf.add(in_slot) = sig;
            has = has || sig != A::Sig::default();
            port += 1;
            if port == delta {
                *c.has_input.add(n) = has;
                pending += i64::from(has);
                (n, port, has) = (n + 1, 0, false);
            }
        }
        base += len;
    }
    sh.pending_delta = pending;
}

impl<A: Automaton> Engine<A> {
    /// Build an engine over `topo`, constructing one automaton per node via
    /// `factory`. Node 0 is the root by convention (callers that want a
    /// different root relabel their topology).
    pub fn new(topo: &Topology, mode: EngineMode, mut factory: impl FnMut(NodeMeta) -> A) -> Self {
        Self::with_root(topo, mode, NodeId(0), &mut factory)
    }

    /// Like [`Engine::new`] but with an explicit root processor.
    pub fn with_root(
        topo: &Topology,
        mode: EngineMode,
        root: NodeId,
        factory: &mut dyn FnMut(NodeMeta) -> A,
    ) -> Self {
        Self::with_root_sharded(topo, mode, root, None, factory)
    }

    /// Like [`Engine::with_root`] with an explicit parallel shard count.
    ///
    /// `par_shards` only affects [`EngineMode::Parallel`] (clamped to
    /// `1..=`[`MAX_SHARDS`]); `None` consults the `GTD_PAR_SHARDS`
    /// environment variable, then auto-sizes by core count with at least
    /// ~256 nodes per shard. An explicit count (knob or env) also forces
    /// event ticks over the worker pool regardless of frontier size, so
    /// determinism sweeps exercise the pooled phases. Transcripts are
    /// bit-identical across every shard count.
    pub fn with_root_sharded(
        topo: &Topology,
        mode: EngineMode,
        root: NodeId,
        par_shards: Option<usize>,
        factory: &mut dyn FnMut(NodeMeta) -> A,
    ) -> Self {
        assert!(root.idx() < topo.num_nodes(), "root must exist");
        let n = topo.num_nodes();
        let delta = topo.delta() as usize;
        let mut nodes = Vec::with_capacity(n);
        for id in topo.node_ids() {
            nodes.push(factory(NodeMeta {
                id,
                is_root: id == root,
                in_connected: topo.in_mask(id),
                out_connected: topo.out_mask(id),
                delta: topo.delta(),
            }));
        }
        let mut route_in = vec![NO_ROUTE; n * delta];
        let mut route_out = vec![NO_ROUTE; n * delta];
        fill_routes(topo, delta, &mut route_in, &mut route_out);
        let (s_count, forced_fanout) = match mode {
            EngineMode::Dense => (0, false),
            EngineMode::Sparse => (1, false),
            EngineMode::Parallel => resolve_shards(n, par_shards),
        };
        let chunk = if s_count > 0 {
            n.div_ceil(s_count).max(1)
        } else {
            1
        };
        // tick 0's wheel slot holds every owned node (the power-on step:
        // every node must be stepped at least once so initiators can
        // start protocols without external input); Dense steps everyone
        // unconditionally and keeps no shards at all.
        let shards: Vec<Shard> = (0..s_count)
            .map(|s| {
                let lo = (s * chunk).min(n);
                let hi = ((s + 1) * chunk).min(n);
                Shard {
                    lo,
                    hi,
                    wheel: std::array::from_fn(|i| {
                        if i == 0 {
                            (lo as u32..hi as u32).collect()
                        } else {
                            Vec::new()
                        }
                    }),
                    timers: BinaryHeap::new(),
                    frontier: Vec::new(),
                    stepped: Vec::with_capacity(hi - lo),
                    lanes: (0..s_count).map(|_| Vec::new()).collect(),
                    pending_delta: 0,
                    armed_delta: 0,
                }
            })
            .collect();
        let pool =
            (mode == EngineMode::Parallel && s_count > 1).then(|| WorkerPool::new(s_count - 1));
        Engine {
            mode,
            delta,
            root,
            tick: 0,
            nodes,
            in_buf: vec![A::Sig::default(); n * delta],
            out_buf: vec![A::Sig::default(); n * delta],
            route_in,
            route_out,
            // Arm every wake for tick 0 (the power-on step).
            wake_at: vec![0; n],
            has_input: vec![false; n],
            pending_inputs: 0,
            armed: n,
            shards,
            chunk,
            frontier_dirty: false,
            forced_fanout,
            pool,
            event_bufs: (0..s_count.max(1)).map(|_| EventBuf::new()).collect(),
            apply_scratch: ApplyScratch::default(),
            fault: None,
        }
    }

    /// Interpose `plane` on every wire delivery (see [`FaultPlane`]).
    /// An inactive plane installs nothing — the reliable path stays
    /// byte-identical and allocation-free. Replaces any previous plane
    /// and discards its delayed in-flight characters.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        if !plane.is_active() {
            self.fault = None;
            return;
        }
        let threshold = (plane.loss.clamp(0.0, 1.0) * (u64::MAX as f64)) as u64;
        let shards = self.shards.len();
        self.fault = Some(Box::new(FaultState {
            plane,
            threshold,
            delayed: Vec::new(),
            scratch: (0..shards)
                .map(|_| FaultShard {
                    dropped: 0,
                    delayed: Vec::new(),
                })
                .collect(),
            due_scratch: Vec::new(),
            dropped: 0,
            delayed_total: 0,
        }));
    }

    /// The interposed fault plane ([`FaultPlane::NONE`] when reliable).
    pub fn fault_plane(&self) -> FaultPlane {
        self.fault.as_ref().map_or(FaultPlane::NONE, |f| f.plane)
    }

    /// Lifetime count of characters the fault plane destroyed.
    pub fn fault_dropped(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.dropped)
    }

    /// Lifetime count of characters the fault plane delayed.
    pub fn fault_delayed(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.delayed_total)
    }

    /// Number of automata.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Global ticks elapsed.
    #[inline]
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Frontier partitions this engine schedules over (0 for Dense, 1 for
    /// Sparse, the resolved shard count for Parallel).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pre-spawned pool workers (shard count − 1 for Parallel with more
    /// than one shard; 0 otherwise — the main thread is always a worker).
    #[inline]
    pub fn pool_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::workers)
    }

    /// Immutable view of an automaton (invariant checks, tracing).
    #[inline]
    pub fn node(&self, n: NodeId) -> &A {
        &self.nodes[n.idx()]
    }

    /// Immutable view of all automata.
    #[inline]
    pub fn nodes(&self) -> &[A] {
        &self.nodes
    }

    /// The shard owning node `n`.
    #[inline]
    fn shard_of(&self, n: usize) -> usize {
        (n / self.chunk).min(self.shards.len().saturating_sub(1))
    }

    /// Index node `n`'s wake at tick `wake` into its shard's timer
    /// structures: near wakes go to the wheel slot that drains at exactly
    /// that tick, far ones to the overflow heap. Caller has already
    /// stored `wake` in `wake_at` (which is what validates entries when
    /// they surface). Dense keeps no shards and consults `wake_at` by
    /// scan; a dirty frontier skips indexing (the rebuild re-indexes).
    #[inline]
    fn schedule_wake(&mut self, n: u32, wake: u64) {
        if self.shards.is_empty() || self.frontier_dirty {
            return;
        }
        let tick = self.tick;
        let s = self.shard_of(n as usize);
        let sh = &mut self.shards[s];
        if wake.saturating_sub(tick) < WHEEL as u64 {
            sh.wheel[(wake % WHEEL as u64) as usize].push(n);
        } else {
            sh.timers.push(Reverse((wake, n)));
        }
    }

    /// Arm node `n`'s wake for tick `at` (keeping any earlier deadline).
    fn arm(&mut self, n: usize, at: u64) {
        if self.wake_at[n] <= at {
            return;
        }
        if self.wake_at[n] == NO_WAKE {
            self.armed += 1;
        }
        self.wake_at[n] = at;
        self.schedule_wake(n as u32, at);
    }

    /// Mutable access to one automaton — the "outside source" of the paper
    /// nudging a processor (e.g. the master computer restarting the root
    /// for a re-map). The node is also scheduled for a step so the nudge
    /// takes effect even in the event-driven modes.
    pub fn node_mut(&mut self, n: NodeId) -> &mut A {
        self.arm(n.idx(), self.tick);
        &mut self.nodes[n.idx()]
    }

    /// Atomically rewire the running network to `new_topo` between ticks
    /// — the live half of a topology mutation (paper §1: "the topology …
    /// might change").
    ///
    /// * Route tables are rebuilt from the new wiring (into buffers reused
    ///   across mutations — no per-event allocation once warmed).
    /// * In-flight signals are invalidated on every wire that was removed
    ///   or re-sourced: a character already delivered for the coming tick
    ///   survives only if the identical wire (same out-slot → same
    ///   in-slot) still exists.
    /// * Every automaton whose port connectivity changed receives
    ///   [`Automaton::on_rewire`] with its new [`NodeMeta`] and is
    ///   scheduled for a step, so all three engine modes observe the
    ///   mutation on the same tick and stay observationally identical.
    ///
    /// The processor count must be preserved (δ always is); for membership
    /// changes use [`Engine::apply_topology_with`].
    pub fn apply_topology(&mut self, new_topo: &Topology) {
        assert_eq!(
            new_topo.num_nodes(),
            self.nodes.len(),
            "apply_topology preserves the node count (use apply_topology_with)"
        );
        self.apply_topology_with(new_topo, MembershipChange::None, &mut |_| {
            unreachable!("no processor joins without a membership change")
        });
    }

    /// [`Engine::apply_topology`] generalized to membership changes: the
    /// running network is atomically rewired to `new_topo` between ticks
    /// while a processor joins or leaves.
    ///
    /// * [`MembershipChange::Joined`] — `factory` builds the newcomer's
    ///   automaton from its power-on [`NodeMeta`]; it then receives
    ///   [`Automaton::on_join`] and is scheduled, so it powers on at the
    ///   next tick identically in all three engine modes.
    /// * [`MembershipChange::Left`] — the departed automaton is removed
    ///   (its in-flight signals and pending inputs with it) and every
    ///   higher processor id shifts down by one, mirroring
    ///   [`MembershipChange::relabel`]. The engine's root must survive
    ///   (session drivers guarantee it: the collector's host never
    ///   leaves); its id is re-tracked automatically.
    ///
    /// In-flight characters survive exactly on wires that connect the same
    /// *physical* processors through the same ports on both sides of the
    /// change; everything else is invalidated, as for a plain rewire.
    /// The sharded frontier is rebuilt for the new node count: shard
    /// ranges are recomputed (the shard *count* is fixed at construction)
    /// and every worklist, wheel, heap, and lane is reindexed.
    pub fn apply_topology_with(
        &mut self,
        new_topo: &Topology,
        change: MembershipChange,
        factory: &mut dyn FnMut(NodeMeta) -> A,
    ) {
        let old_n = self.nodes.len();
        let delta = self.delta;
        assert_eq!(
            new_topo.delta() as usize,
            delta,
            "mutations preserve the port bound"
        );
        // A rewire invalidates delayed characters wholesale: their wire
        // identity (in-slot) may no longer mean the same physical wire,
        // so the plane destroys them rather than misdeliver.
        if let Some(f) = self.fault.as_deref_mut() {
            f.dropped += f.delayed.len() as u64;
            f.delayed.clear();
        }
        let new_n = new_topo.num_nodes();
        let mut scratch = std::mem::take(&mut self.apply_scratch);
        // new-id → old-id of the same physical processor (None: newcomer).
        let inv = &mut scratch.inv;
        inv.clear();
        match change {
            MembershipChange::None => {
                assert_eq!(new_n, old_n, "membership change says the count is fixed");
                inv.extend((0..old_n).map(Some));
            }
            MembershipChange::Joined { node } => {
                assert_eq!(new_n, old_n + 1, "a join grows the network by one");
                assert_eq!(node.idx(), old_n, "the newcomer takes the highest id");
                inv.extend((0..new_n).map(|i| (i < old_n).then_some(i)));
            }
            MembershipChange::Left { node } => {
                assert_eq!(new_n, old_n - 1, "a leave shrinks the network by one");
                let x = node.idx();
                assert!(x < old_n, "departed processor must exist");
                assert_ne!(x, self.root.idx(), "the root cannot leave");
                inv.extend((0..new_n).map(|i| Some(if i < x { i } else { i + 1 })));
            }
        }
        let route_in = &mut scratch.route_in;
        let route_out = &mut scratch.route_out;
        route_in.clear();
        route_in.resize(new_n * delta, NO_ROUTE);
        route_out.clear();
        route_out.resize(new_n * delta, NO_ROUTE);
        fill_routes(new_topo, delta, route_in, route_out);
        // Carry in-flight characters across wires that connect the same
        // physical processors through the same ports; every removed or
        // re-sourced wire loses its character.
        let blank = A::Sig::default();
        let in_buf = &mut scratch.in_buf;
        in_buf.clear();
        in_buf.resize(new_n * delta, A::Sig::default());
        for (slot, dst) in in_buf.iter_mut().enumerate() {
            let r = route_in[slot];
            if r == NO_ROUTE {
                continue;
            }
            let (Some(old_dst), Some(old_src)) = (inv[slot / delta], inv[r as usize / delta])
            else {
                continue; // a wire touching the newcomer carries nothing yet
            };
            let old_in_slot = old_dst * delta + slot % delta;
            let old_out_slot = (old_src * delta + r as usize % delta) as u32;
            if self.route_in[old_in_slot] == old_out_slot && self.in_buf[old_in_slot] != blank {
                *dst = self.in_buf[old_in_slot];
            }
        }
        // Splice the automaton tables into the new indexing.
        match change {
            MembershipChange::None => {}
            MembershipChange::Joined { node } => {
                let meta = NodeMeta {
                    id: node,
                    is_root: false,
                    in_connected: new_topo.in_mask(node),
                    out_connected: new_topo.out_mask(node),
                    delta: new_topo.delta(),
                };
                let mut automaton = factory(meta.clone());
                automaton.on_join(&meta);
                self.nodes.push(automaton);
            }
            MembershipChange::Left { node } => {
                let x = node.idx();
                self.nodes.remove(x);
                if self.root.idx() > x {
                    self.root = NodeId(self.root.0 - 1);
                }
            }
        }
        // Carry wake deadlines across the relabeling; the newcomer's
        // power-on step is armed for the coming tick.
        let wake_at = &mut scratch.wake_at;
        wake_at.clear();
        wake_at.extend(inv.iter().map(|old| match old {
            Some(old_id) => self.wake_at[*old_id],
            None => self.tick,
        }));
        // Notify surviving processors whose port awareness changed and
        // schedule them so the event modes step them exactly when dense
        // would.
        for (new_id, &old) in inv.iter().enumerate() {
            let Some(old_id) = old else { continue };
            let changed = (0..delta).any(|p| {
                let (old_slot, new_slot) = (old_id * delta + p, new_id * delta + p);
                (self.route_out[old_slot] == NO_ROUTE) != (route_out[new_slot] == NO_ROUTE)
                    || (self.route_in[old_slot] == NO_ROUTE) != (route_in[new_slot] == NO_ROUTE)
            });
            if changed {
                let id = NodeId(new_id as u32);
                self.nodes[new_id].on_rewire(&NodeMeta {
                    id,
                    is_root: id == self.root,
                    in_connected: new_topo.in_mask(id),
                    out_connected: new_topo.out_mask(id),
                    delta: new_topo.delta(),
                });
                wake_at[new_id] = wake_at[new_id].min(self.tick);
            }
        }
        // Swap the rebuilt tables in; the displaced buffers become the
        // next mutation's scratch.
        std::mem::swap(&mut self.route_in, route_in);
        std::mem::swap(&mut self.route_out, route_out);
        std::mem::swap(&mut self.in_buf, in_buf);
        std::mem::swap(&mut self.wake_at, wake_at);
        self.apply_scratch = scratch;
        self.out_buf.clear();
        self.out_buf.resize(new_n * delta, A::Sig::default());
        // Rebuild the sharded frontier for the new indexing: recompute
        // shard ranges (the count is fixed), clear every worklist, then
        // re-mark pending inputs and re-index armed wakes.
        self.has_input.clear();
        self.has_input.resize(new_n, false);
        if !self.shards.is_empty() {
            self.chunk = new_n.div_ceil(self.shards.len()).max(1);
        }
        let chunk = self.chunk;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            sh.lo = (s * chunk).min(new_n);
            sh.hi = ((s + 1) * chunk).min(new_n);
            for slot in &mut sh.wheel {
                slot.clear();
            }
            sh.timers.clear();
            sh.frontier.clear();
            sh.stepped.clear();
            for lane in &mut sh.lanes {
                lane.clear();
            }
            sh.pending_delta = 0;
            sh.armed_delta = 0;
        }
        self.frontier_dirty = false;
        self.pending_inputs = 0;
        for n in 0..new_n {
            let sigs = &self.in_buf[n * delta..(n + 1) * delta];
            if sigs.iter().any(|s| *s != blank) {
                self.has_input[n] = true;
                self.pending_inputs += 1;
                if !self.shards.is_empty() {
                    let s = self.shard_of(n);
                    self.shards[s].frontier.push(n as u32);
                }
            }
        }
        self.armed = 0;
        for n in 0..new_n {
            let w = self.wake_at[n];
            if w != NO_WAKE {
                self.armed += 1;
                self.schedule_wake(n as u32, w);
            }
        }
    }

    /// True when nothing is pending: no node has an armed wake deadline
    /// and no non-blank signal is in flight. O(1) — the frontier counters
    /// make the scan of the old implementation unnecessary. A quiet
    /// network stays quiet forever.
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.pending_inputs == 0
            && self.armed == 0
            && self.fault.as_ref().is_none_or(|f| f.delayed.is_empty())
    }

    /// Census of non-blank signals currently in flight (delivered for the
    /// coming tick, plus any the fault plane is holding back). Used by
    /// the Lemma 4.2 cleanliness experiments.
    pub fn signals_in_flight(&self) -> usize {
        let blank = A::Sig::default();
        self.in_buf.iter().filter(|s| **s != blank).count()
            + self.fault.as_ref().map_or(0, |f| f.delayed.len())
    }

    /// Fast-forward a quiet network by `ticks` clock pulses. A quiet
    /// network stays quiet (the deadline contract makes every step a
    /// no-op), so only the clock advances — this lets dynamic timelines
    /// idle to a far-future mutation tick in O(1). Panics if the network
    /// is not quiet.
    pub fn skip_quiet_ticks(&mut self, ticks: u64) {
        assert!(self.is_quiet(), "can only skip ticks on a quiet network");
        self.tick += ticks;
    }

    /// The earliest armed wake deadline, if any. Drops stale timer-heap
    /// entries as they surface (amortized O(1) in the event modes; a
    /// linear scan in Dense — which pays O(N) per tick anyway — and
    /// while the frontier is dirty after saturated ticks).
    fn next_wake(&mut self) -> Option<u64> {
        if self.shards.is_empty() || self.frontier_dirty {
            return self.wake_at.iter().copied().filter(|&w| w != NO_WAKE).min();
        }
        // Earliest genuine wake on any shard's wheel: scan the coming
        // WHEEL slots in tick order; the first slot holding a validated
        // entry is exact (an earlier genuine wake would have a validated
        // entry in an earlier slot or a heap).
        let mut best = None;
        'wheels: for d in 0..WHEEL as u64 {
            let t_cand = self.tick + d;
            let slot = (t_cand % WHEEL as u64) as usize;
            for sh in &self.shards {
                if sh.wheel[slot]
                    .iter()
                    .any(|&n| self.wake_at[n as usize] <= t_cand)
                {
                    best = Some(t_cand);
                    break 'wheels;
                }
            }
        }
        // Earliest genuine far wake: drop stale tops off each shard heap.
        let wake_at = &self.wake_at;
        for sh in &mut self.shards {
            while let Some(&Reverse((at, n))) = sh.timers.peek() {
                if wake_at[n as usize] == at {
                    best = Some(best.map_or(at, |b: u64| b.min(at)));
                    break;
                }
                sh.timers.pop();
            }
        }
        best
    }

    /// Fast-forward a **lull**: if the coming tick would step nothing (no
    /// signal in flight, no wake deadline due), jump the clock straight to
    /// the earliest armed deadline — or to `limit`, whichever is smaller —
    /// in O(1). Generalizes [`Engine::skip_quiet_ticks`]: a fully quiet
    /// network skips to `limit`; a network merely waiting out speed-timer
    /// dwells skips to the next deadline. Skipped ticks are pure no-ops by
    /// the deadline contract, and the decision depends only on
    /// mode-uniform frontier state, so timelines that skip stay
    /// bit-identical across all three engine modes. Returns the number of
    /// ticks skipped (0 when the coming tick has work or `limit` is not
    /// ahead of the clock).
    pub fn skip_lull(&mut self, limit: u64) -> u64 {
        if self.pending_inputs > 0 || limit <= self.tick {
            return 0;
        }
        let mut target = match self.next_wake() {
            Some(w) => w.min(limit),
            None => limit,
        };
        // A delayed character's due tick is a delivery deadline: jumping
        // past it would miss the delivery, so it caps the skip exactly
        // like an armed wake (and identically in every mode).
        if let Some(f) = self.fault.as_ref() {
            if let Some(min_due) = f.delayed.iter().map(|d| d.due).min() {
                target = target.min(min_due);
            }
        }
        if target <= self.tick {
            return 0;
        }
        let skipped = target - self.tick;
        self.tick = target;
        skipped
    }

    /// Advance one global clock tick. Events emitted by nodes are appended
    /// to `events` in ascending node order (deterministic across modes and
    /// shard counts).
    pub fn tick(&mut self, events: &mut Vec<(NodeId, A::Event)>) {
        self.deliver_due_faults();
        match self.mode {
            EngineMode::Dense => self.tick_dense(events),
            EngineMode::Sparse => self.tick_event(events),
            EngineMode::Parallel => {
                // Saturation: once half the nodes hold a pending input,
                // a dense-scan tick beats worklist bookkeeping. Either
                // path is observationally identical (extra steps are
                // no-ops by the deadline contract), so the threshold
                // affects speed only, never transcripts.
                if self.pending_inputs * 2 >= self.nodes.len() {
                    self.tick_saturated(events);
                } else {
                    if self.frontier_dirty {
                        self.rebuild_frontier();
                    }
                    self.tick_event(events);
                }
            }
        }
        self.tick += 1;
    }

    /// Run until `stop` returns true for some emitted event, or until the
    /// network goes quiet, or until `max_ticks` elapse. Returns all events
    /// emitted and whether `stop` fired.
    pub fn run_until(
        &mut self,
        max_ticks: u64,
        mut stop: impl FnMut(&(NodeId, A::Event)) -> bool,
    ) -> (Vec<(NodeId, A::Event)>, bool) {
        let mut all = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..max_ticks {
            scratch.clear();
            self.tick(&mut scratch);
            let mut fired = false;
            for ev in scratch.drain(..) {
                if stop(&ev) {
                    fired = true;
                }
                all.push(ev);
            }
            if fired {
                return (all, true);
            }
            if self.is_quiet() {
                break;
            }
        }
        (all, false)
    }

    /// Deliver every delayed character that has come due — at the top of
    /// the tick, into blank in-slots only: a character freshly delivered
    /// on its wire wins over a late one, and among late characters for
    /// the same in-slot the latest emission wins (the rest count as
    /// dropped). Sorting the batch by `(in_slot, emit)` — unique, since
    /// `route_out` is bijective — makes the outcome independent of the
    /// order shards appended to the delayed set, preserving byte-identity
    /// across modes and shard counts.
    fn deliver_due_faults(&mut self) {
        let Some(f) = self.fault.as_deref_mut() else {
            return;
        };
        if f.delayed.is_empty() {
            return;
        }
        let tick = self.tick;
        let due = &mut f.due_scratch;
        due.clear();
        let mut i = 0;
        while i < f.delayed.len() {
            if f.delayed[i].due <= tick {
                due.push(f.delayed.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if due.is_empty() {
            return;
        }
        due.sort_unstable_by_key(|d| (d.in_slot, d.emit));
        let blank = A::Sig::default();
        let delta = self.delta;
        for i in 0..due.len() {
            let d = &due[i];
            let slot = d.in_slot as usize;
            let last_for_slot = due.get(i + 1).is_none_or(|n| n.in_slot != d.in_slot);
            if !last_for_slot || self.in_buf[slot] != blank {
                f.dropped += 1;
                continue;
            }
            self.in_buf[slot] = d.sig;
            let n = slot / delta;
            if !self.has_input[n] {
                self.has_input[n] = true;
                self.pending_inputs += 1;
                // Between ticks, so the engine-wide counter is adjusted
                // directly; a dirty frontier re-derives from `has_input`.
                if !self.shards.is_empty() && !self.frontier_dirty {
                    let s = (n / self.chunk).min(self.shards.len() - 1);
                    self.shards[s].frontier.push(n as u32);
                }
            }
        }
        due.clear();
    }

    /// Fold the per-shard fault accumulation cells into the global plane
    /// state after the tick's phase barriers.
    fn settle_faults(&mut self) {
        let Some(f) = self.fault.as_deref_mut() else {
            return;
        };
        for i in 0..f.scratch.len() {
            f.dropped += std::mem::take(&mut f.scratch[i].dropped);
            f.delayed_total += f.scratch[i].delayed.len() as u64;
            let mut v = std::mem::take(&mut f.scratch[i].delayed);
            f.delayed.append(&mut v);
            f.scratch[i].delayed = v;
        }
    }

    /// The type-erased table view the tick phases work through.
    fn par_ctx(&mut self) -> ParCtx<A> {
        let (fault, fplane, fthreshold) = match self.fault.as_deref_mut() {
            Some(f) => (f.scratch.as_mut_ptr(), f.plane, f.threshold),
            None => (std::ptr::null_mut(), FaultPlane::NONE, 0),
        };
        ParCtx {
            fault,
            fplane,
            fthreshold,
            nodes: self.nodes.as_mut_ptr(),
            in_buf: self.in_buf.as_mut_ptr(),
            out_buf: self.out_buf.as_mut_ptr(),
            event_bufs: self.event_bufs.as_mut_ptr(),
            wake_at: self.wake_at.as_mut_ptr(),
            has_input: self.has_input.as_mut_ptr(),
            shards: self.shards.as_mut_ptr(),
            route_in: self.route_in.as_ptr(),
            route_out: self.route_out.as_ptr(),
            num_shards: self.shards.len(),
            chunk: self.chunk,
            delta: self.delta,
            tick: self.tick,
        }
    }

    /// Run each phase over every shard, with a barrier between phases:
    /// fanned over the worker pool when `use_pool`, inline otherwise.
    /// Both drivers execute the identical phase functions, which is what
    /// keeps pooled and sequential ticks bit-identical.
    fn run_phases(&mut self, phases: &[PhaseFn], use_pool: bool) {
        let ctx = self.par_ctx();
        let p = (&ctx as *const ParCtx<A>).cast::<()>();
        let shards = ctx.num_shards;
        match (&self.pool, use_pool) {
            (Some(pool), true) => {
                for &phase in phases {
                    // SAFETY: ctx lives until this call returns, and each
                    // phase touches only shard-disjoint state (see ParCtx).
                    unsafe { pool.dispatch(phase, p, shards) };
                }
            }
            _ => {
                for &phase in phases {
                    for s in 0..shards {
                        // SAFETY: as above, with no concurrency at all.
                        unsafe { phase(p, s) };
                    }
                }
            }
        }
    }

    /// Fold the per-shard tick deltas into the engine-wide counters.
    /// After a saturated tick the per-shard values are absolute recounts;
    /// after an event tick they are increments.
    fn settle_counters(&mut self, absolute: bool) {
        let mut pending = 0i64;
        let mut armed = 0i64;
        for sh in &mut self.shards {
            pending += sh.pending_delta;
            armed += sh.armed_delta;
            sh.pending_delta = 0;
            sh.armed_delta = 0;
        }
        if !absolute {
            pending += self.pending_inputs as i64;
            armed += self.armed as i64;
        }
        self.pending_inputs = pending as usize;
        self.armed = armed as usize;
    }

    /// One event-driven tick over the shards (Sparse always, Parallel
    /// below saturation): step/scatter/merge phases with barriers, then
    /// counter settlement and the event drain. The pool engages when the
    /// active set justifies dispatch (or fan-out is forced); otherwise
    /// the same phases run inline — the active-fraction fallback that
    /// keeps Parallel from ever losing to Sparse on quiet phases.
    fn tick_event(&mut self, events: &mut Vec<(NodeId, A::Event)>) {
        let s_count = self.shards.len();
        let use_pool = self.pool.is_some()
            && (self.forced_fanout
                || self.pending_inputs + self.armed >= s_count * PAR_ACTIVE_PER_SHARD);
        let phases: [PhaseFn; 3] = [shard_step::<A>, shard_scatter::<A>, shard_merge::<A>];
        self.run_phases(&phases, use_pool);
        self.settle_counters(false);
        self.settle_faults();
        self.drain_events(events);
    }

    /// Hand the tick's events to the caller in ascending node order (see
    /// [`EventBuf`]); the buffers keep their capacity.
    fn drain_events(&mut self, events: &mut Vec<(NodeId, A::Event)>) {
        for buf in &mut self.event_bufs {
            events.append(&mut buf.tagged);
        }
    }

    /// One saturated tick (Parallel only): dense-scan step + gather over
    /// shard ranges, skipping all worklist bookkeeping. Marks the
    /// frontier dirty — the wheel/heap/frontier no longer reflect
    /// `wake_at`/`has_input` and are rebuilt before the next event tick.
    fn tick_saturated(&mut self, events: &mut Vec<(NodeId, A::Event)>) {
        let use_pool = self.pool.is_some();
        let phases: [PhaseFn; 2] = [shard_step_all::<A>, shard_gather::<A>];
        self.run_phases(&phases, use_pool);
        self.settle_counters(true);
        self.settle_faults();
        self.frontier_dirty = true;
        self.drain_events(events);
    }

    /// Re-derive every shard's worklists from the authoritative tables
    /// (`has_input`, `wake_at`) after saturated ticks bypassed them. O(N);
    /// runs only on the saturated→event transition.
    fn rebuild_frontier(&mut self) {
        for sh in &mut self.shards {
            for slot in &mut sh.wheel {
                slot.clear();
            }
            sh.timers.clear();
            sh.frontier.clear();
            sh.stepped.clear();
        }
        self.frontier_dirty = false;
        self.pending_inputs = 0;
        self.armed = 0;
        for n in 0..self.nodes.len() {
            if self.has_input[n] {
                self.pending_inputs += 1;
                let s = self.shard_of(n);
                self.shards[s].frontier.push(n as u32);
            }
            let w = self.wake_at[n];
            if w != NO_WAKE {
                self.armed += 1;
                self.schedule_wake(n as u32, w);
            }
        }
    }

    /// One dense tick: step everyone, gather every wire, recount the
    /// frontier counters wholesale. Sequential — the reference
    /// implementation stays the simplest possible loop.
    fn tick_dense(&mut self, events: &mut Vec<(NodeId, A::Event)>) {
        let delta = self.delta;
        let tick = self.tick;
        // Phase 1: step everyone against the in_buf snapshot. Each node's
        // wake slot is reset and re-requested within its step (the
        // deadline contract keeps re-requests idempotent).
        let in_buf = &self.in_buf;
        let ev = &mut self.event_bufs[0];
        for (idx, ((node, out_chunk), wake)) in self
            .nodes
            .iter_mut()
            .zip(self.out_buf.chunks_mut(delta))
            .zip(self.wake_at.iter_mut())
            .enumerate()
        {
            for s in out_chunk.iter_mut() {
                *s = A::Sig::default();
            }
            *wake = NO_WAKE;
            let mut ctx = StepCtx {
                tick,
                inputs: &in_buf[idx * delta..(idx + 1) * delta],
                outputs: out_chunk,
                events: &mut ev.scratch,
                wake,
            };
            node.step(&mut ctx);
            ev.tag(idx);
        }
        // Phase 2: gather — route every wired out-slot to its in-slot by
        // plain copy (the `Copy` bound keeps this a word move, never a
        // clone or an allocation). An active fault plane interposes the
        // same stateless per-character decision the sharded paths make.
        let out_buf = &self.out_buf;
        let route_in = &self.route_in;
        let blank = A::Sig::default();
        let mut fault = self.fault.take();
        for (nid, (chunk, has)) in self
            .in_buf
            .chunks_mut(delta)
            .zip(self.has_input.iter_mut())
            .enumerate()
        {
            *has = false;
            for (i, dst) in chunk.iter_mut().enumerate() {
                let r = route_in[nid * delta + i];
                if r == NO_ROUTE {
                    if *dst != blank {
                        *dst = A::Sig::default();
                    }
                } else {
                    let mut sig = out_buf[r as usize];
                    if sig != blank {
                        if let Some(f) = fault.as_deref_mut() {
                            match fault_decide(&f.plane, f.threshold, r as usize, tick) {
                                None => {
                                    f.dropped += 1;
                                    sig = blank;
                                }
                                Some(0) => {}
                                Some(d) => {
                                    f.delayed.push(Delayed {
                                        due: tick + 1 + d,
                                        in_slot: (nid * delta + i) as u32,
                                        emit: tick,
                                        sig,
                                    });
                                    f.delayed_total += 1;
                                    sig = blank;
                                }
                            }
                        }
                    }
                    *dst = sig;
                    if *dst != blank {
                        *has = true;
                    }
                }
            }
        }
        self.fault = fault;
        // Phase 3: refresh the frontier counters wholesale — dense pays
        // O(N) per tick anyway (the saturated parallel path fuses these
        // recounts into its scan, which is how it wins).
        self.pending_inputs = self.has_input.iter().filter(|&&h| h).count();
        self.armed = self.wake_at.iter().filter(|&&w| w != NO_WAKE).count();
        // Phase 4: drain events in node order.
        self.drain_events(events);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // asserts may panic freely
mod tests {
    use super::*;
    use crate::generators;

    /// Test automaton: forwards any received u32+1 on all out-ports after a
    /// fixed dwell; the root injects value 1 at tick 0. Exercises wake-up,
    /// dwell timers, and the deadline contract (the dwell is expressed as
    /// an absolute wake deadline, not a per-step countdown).
    #[derive(Clone)]
    struct Hopper {
        meta_is_root: bool,
        out_ports: Vec<usize>,
        pending: Option<(u64, u32)>, // (emit_at_tick, value)
        dwell: u64,
        seen: Vec<u32>,
        started: bool,
    }

    #[derive(Clone, Copy, PartialEq, Debug, Default)]
    struct U32Sig(u32);

    impl Automaton for Hopper {
        type Sig = U32Sig;
        type Event = u32;

        fn step(&mut self, ctx: &mut StepCtx<'_, U32Sig, u32>) {
            if self.meta_is_root && !self.started {
                self.started = true;
                self.pending = Some((ctx.tick, 1));
            }
            for s in ctx.inputs {
                if s.0 != 0 {
                    self.seen.push(s.0);
                    ctx.events.push(s.0);
                    if self.pending.is_none() && s.0 < 5 {
                        self.pending = Some((ctx.tick + self.dwell, s.0 + 1));
                    }
                }
            }
            if let Some((at, v)) = self.pending {
                if at <= ctx.tick {
                    for &o in &self.out_ports {
                        ctx.outputs[o] = U32Sig(v);
                    }
                    self.pending = None;
                } else {
                    ctx.request_restep_at(at);
                }
            }
        }
    }

    fn hopper_factory(meta: NodeMeta) -> Hopper {
        Hopper {
            meta_is_root: meta.is_root,
            out_ports: meta.out_connected.iter().map(|p| p.idx()).collect(),
            pending: None,
            dwell: 0,
            seen: Vec::new(),
            started: false,
        }
    }

    fn hopper_engine(mode: EngineMode, dwell: u64) -> Engine<Hopper> {
        hopper_engine_sharded(mode, dwell, None)
    }

    fn hopper_engine_sharded(
        mode: EngineMode,
        dwell: u64,
        shards: Option<usize>,
    ) -> Engine<Hopper> {
        let topo = generators::ring(4);
        Engine::with_root_sharded(&topo, mode, NodeId(0), shards, &mut |meta| Hopper {
            dwell,
            ..hopper_factory(meta)
        })
    }

    fn run_to_quiet(eng: &mut Engine<Hopper>) -> Vec<(NodeId, u32)> {
        let mut events = Vec::new();
        for _ in 0..200 {
            eng.tick(&mut events);
            if eng.is_quiet() {
                break;
            }
        }
        assert!(eng.is_quiet(), "hopper network should quiesce");
        events
    }

    #[test]
    fn message_hops_around_ring() {
        let mut eng = hopper_engine(EngineMode::Dense, 0);
        let events = run_to_quiet(&mut eng);
        // Value k arrives at node k (mod 4): 1@n1, 2@n2, 3@n3, 4@n0, 5@n1 stops.
        let vals: Vec<(u32, u32)> = events.iter().map(|&(n, v)| (n.0, v)).collect();
        assert_eq!(vals, vec![(1, 1), (2, 2), (3, 3), (0, 4), (1, 5)]);
    }

    #[test]
    fn all_modes_agree() {
        for dwell in [0u64, 2, 3] {
            let base = run_to_quiet(&mut hopper_engine(EngineMode::Dense, dwell));
            let sparse = run_to_quiet(&mut hopper_engine(EngineMode::Sparse, dwell));
            let par = run_to_quiet(&mut hopper_engine(EngineMode::Parallel, dwell));
            assert_eq!(base, sparse, "dense vs sparse, dwell {dwell}");
            assert_eq!(base, par, "dense vs parallel, dwell {dwell}");
        }
    }

    #[test]
    fn all_shard_counts_agree_with_dense() {
        // An explicit shard count forces event ticks through the worker
        // pool, so this sweep exercises the pooled step/scatter/merge
        // phases and cross-shard lanes, not just the inline driver.
        for dwell in [0u64, 2] {
            let base = run_to_quiet(&mut hopper_engine(EngineMode::Dense, dwell));
            for shards in [1usize, 2, 3, 7, 16] {
                let mut eng = hopper_engine_sharded(EngineMode::Parallel, dwell, Some(shards));
                assert_eq!(eng.shard_count(), shards);
                assert_eq!(eng.pool_workers(), shards - 1);
                let got = run_to_quiet(&mut eng);
                assert_eq!(
                    base, got,
                    "dense vs parallel/{shards} shards, dwell {dwell}"
                );
            }
        }
    }

    /// Broadcast automaton: every received value is re-emitted + 1 on all
    /// out-ports until a cap — floods the whole network, driving Parallel
    /// across the saturation threshold and back (frontier rebuild path).
    #[derive(Clone)]
    struct Flooder {
        meta_is_root: bool,
        out_ports: Vec<usize>,
        started: bool,
    }

    impl Automaton for Flooder {
        type Sig = U32Sig;
        type Event = u32;

        fn step(&mut self, ctx: &mut StepCtx<'_, U32Sig, u32>) {
            let mut best = 0;
            if self.meta_is_root && !self.started {
                self.started = true;
                best = 1;
            }
            for s in ctx.inputs {
                if s.0 != 0 && s.0 > best {
                    best = s.0;
                }
            }
            if best != 0 && best < 12 {
                ctx.events.push(best);
                for &o in &self.out_ports {
                    ctx.outputs[o] = U32Sig(best + 1);
                }
            }
        }
    }

    fn flooder_engine(mode: EngineMode, shards: Option<usize>) -> Engine<Flooder> {
        flooder_engine_on(&generators::random_sc(48, 2, 11), mode, shards)
    }

    fn flooder_engine_on(
        topo: &Topology,
        mode: EngineMode,
        shards: Option<usize>,
    ) -> Engine<Flooder> {
        Engine::with_root_sharded(topo, mode, NodeId(0), shards, &mut |meta| Flooder {
            meta_is_root: meta.is_root,
            out_ports: meta.out_connected.iter().map(|p| p.idx()).collect(),
            started: false,
        })
    }

    #[test]
    fn saturated_ticks_agree_with_dense_across_shard_counts() {
        let run = |mode, shards| {
            let mut eng = flooder_engine(mode, shards);
            let mut events = Vec::new();
            for _ in 0..40 {
                eng.tick(&mut events);
                if eng.is_quiet() {
                    break;
                }
            }
            assert!(eng.is_quiet());
            events
        };
        let base = run(EngineMode::Dense, None);
        assert!(!base.is_empty());
        assert_eq!(base, run(EngineMode::Sparse, None), "dense vs sparse");
        for shards in [1usize, 2, 7, 16] {
            assert_eq!(
                base,
                run(EngineMode::Parallel, Some(shards)),
                "dense vs parallel/{shards} shards across saturation"
            );
        }
    }

    /// Event-order probe: a flood in which every node emits two events
    /// per step that sees a new value (the first carrying its wave value,
    /// the second marking it), then one more "echo" event a staggered
    /// 2–5 ticks later. The flood drives Parallel through saturated
    /// ticks; the echoes fall in event ticks where many nodes emit at
    /// once but few hold inputs.
    #[derive(Clone)]
    struct Chorus {
        id: u32,
        is_root: bool,
        out_ports: Vec<usize>,
        started: bool,
        best: u32,
        echo_at: Option<u64>,
    }

    impl Automaton for Chorus {
        type Sig = U32Sig;
        type Event = (u64, u32);

        fn step(&mut self, ctx: &mut StepCtx<'_, U32Sig, (u64, u32)>) {
            let mut fresh = 0;
            if self.is_root && !self.started {
                self.started = true;
                fresh = 1;
            }
            for s in ctx.inputs {
                if s.0 > self.best.max(fresh) {
                    fresh = s.0;
                }
            }
            if fresh != 0 {
                self.best = fresh;
                ctx.events.push((ctx.tick, fresh));
                ctx.events.push((ctx.tick, 100 + fresh));
                if fresh < 10 {
                    for &o in &self.out_ports {
                        ctx.outputs[o] = U32Sig(fresh + 1);
                    }
                }
                self.echo_at = Some(ctx.tick + 2 + u64::from(self.id % 4));
            }
            match self.echo_at {
                Some(at) if at <= ctx.tick => {
                    ctx.events.push((ctx.tick, 1000 + self.id));
                    self.echo_at = None;
                }
                Some(at) => ctx.request_restep_at(at),
                None => {}
            }
        }

        fn on_rewire(&mut self, meta: &NodeMeta) {
            self.out_ports = meta.out_connected.iter().map(|p| p.idx()).collect();
        }
    }

    fn chorus_factory(meta: NodeMeta) -> Chorus {
        Chorus {
            id: meta.id.0,
            is_root: meta.is_root,
            out_ports: meta.out_connected.iter().map(|p| p.idx()).collect(),
            started: false,
            best: 0,
            echo_at: None,
        }
    }

    /// One tick's events, and whether the tick ran saturated.
    type TickLog = Vec<(Vec<(NodeId, (u64, u32))>, bool)>;

    /// Run a Chorus flood to quiet, applying `mutations` (tick, topology,
    /// change) between ticks, and log each tick's events separately.
    fn chorus_run(
        topo: &Topology,
        mode: EngineMode,
        shards: Option<usize>,
        mutations: &[(u64, Topology, MembershipChange)],
    ) -> TickLog {
        let mut eng = Engine::with_root_sharded(topo, mode, NodeId(0), shards, &mut chorus_factory);
        let mut log = Vec::new();
        for _ in 0..200 {
            for (at, t, change) in mutations {
                if *at == eng.tick_count() {
                    eng.apply_topology_with(t, *change, &mut chorus_factory);
                }
            }
            let mut events = Vec::new();
            eng.tick(&mut events);
            log.push((events, eng.frontier_dirty));
            let pending = mutations.iter().any(|(at, ..)| *at >= eng.tick_count());
            if eng.is_quiet() && !pending {
                break;
            }
        }
        assert!(eng.is_quiet(), "{mode:?}/{shards:?} must quiesce");
        log
    }

    /// Every tick's events come out in ascending node order (a node's own
    /// events keep their emission order), identical to Dense at every
    /// shard count; the Parallel runs must include both saturated and
    /// event ticks in which several nodes emit.
    fn assert_event_order(topo: &Topology, mutations: &[(u64, Topology, MembershipChange)]) {
        let strip = |log: &TickLog| log.iter().map(|(e, _)| e.clone()).collect::<Vec<_>>();
        let base = chorus_run(topo, EngineMode::Dense, None, mutations);
        let sparse = chorus_run(topo, EngineMode::Sparse, None, mutations);
        assert_eq!(strip(&base), strip(&sparse), "dense vs sparse");
        for shards in [1usize, 2, 7, 16] {
            let log = chorus_run(topo, EngineMode::Parallel, Some(shards), mutations);
            assert_eq!(strip(&base), strip(&log), "dense vs parallel/{shards}");
            let mut seen = [false; 2];
            for (events, saturated) in &log {
                assert!(
                    events.windows(2).all(|w| w[0].0 <= w[1].0),
                    "parallel/{shards}: events out of node order: {events:?}"
                );
                let mut nodes: Vec<NodeId> = events.iter().map(|&(n, _)| n).collect();
                nodes.dedup();
                if nodes.len() > 1 {
                    seen[usize::from(*saturated)] = true;
                }
            }
            assert_eq!(
                seen,
                [true, true],
                "parallel/{shards}: want multi-node event and saturated ticks"
            );
        }
    }

    #[test]
    fn events_drain_in_node_order_in_saturated_and_event_ticks() {
        assert_event_order(&generators::random_sc(48, 2, 11), &[]);
    }

    #[test]
    fn events_drain_in_node_order_across_a_join_and_a_leave() {
        use crate::mutation::{MutationKind, TopologyMutation};
        let root = NodeId(0);
        let base = generators::random_sc(48, 2, 11);
        let join = base.apply_or_fallback_rooted(
            &TopologyMutation {
                kind: MutationKind::NodeJoin,
                selector: 5,
            },
            root,
        );
        assert!(matches!(join.membership, MembershipChange::Joined { .. }));
        let leave = join.topology.apply_or_fallback_rooted(
            &TopologyMutation {
                kind: MutationKind::NodeLeave,
                selector: 9,
            },
            root,
        );
        assert!(matches!(leave.membership, MembershipChange::Left { .. }));
        // Join mid-flood, leave while the echoes are still due.
        let mutations = [
            (3, join.topology, join.membership),
            (7, leave.topology, leave.membership),
        ];
        assert_event_order(&base, &mutations);
    }

    #[test]
    fn batched_gather_block_edges_agree_with_dense() {
        // δ = 40 on 20 nodes: one node's in-slots overrun a whole gather
        // block, and most in-ports stay unwired. δ = 3 on 53 nodes: 159
        // slots, so neither the whole range nor any shard range is a
        // multiple of the block.
        let topos = [
            generators::random_sc(20, 40, 5),
            generators::random_sc(53, 3, 8),
        ];
        assert!(topos[0].delta() as usize > GATHER_BLOCK);
        assert!(topos[0].num_edges() < 20 * 40, "some in-ports are unwired");
        let planes = [
            FaultPlane::NONE,
            FaultPlane {
                loss: 0.1,
                delay_min: 1,
                delay_max: 2,
                seed: 17,
            },
        ];
        for (ti, topo) in topos.iter().enumerate() {
            for plane in planes {
                // Events, plus after every tick the signals in flight and
                // the fault counters, plus how many ticks were saturated.
                let run = |mode, shards| {
                    let mut eng = flooder_engine_on(topo, mode, shards);
                    eng.set_fault_plane(plane);
                    let mut events = Vec::new();
                    let mut trace = Vec::new();
                    let mut saturated = 0;
                    for _ in 0..200 {
                        eng.tick(&mut events);
                        saturated += usize::from(eng.frontier_dirty);
                        trace.push((
                            eng.signals_in_flight(),
                            eng.fault_dropped(),
                            eng.fault_delayed(),
                        ));
                        if eng.is_quiet() {
                            break;
                        }
                    }
                    assert!(eng.is_quiet(), "topology {ti} must quiesce");
                    (events, trace, saturated)
                };
                let (base_events, base_trace, _) = run(EngineMode::Dense, None);
                assert!(!base_events.is_empty());
                if plane.is_active() {
                    assert!(base_trace.last().is_some_and(|t| t.1 > 0 && t.2 > 0));
                }
                for shards in [1usize, 2, 7, 16] {
                    let (events, trace, saturated) = run(EngineMode::Parallel, Some(shards));
                    let case = format!("topology {ti}, {plane:?}, {shards} shards");
                    assert!(saturated > 0, "{case}: no saturated tick ran");
                    assert_eq!(base_events, events, "{case}: events");
                    assert_eq!(base_trace, trace, "{case}: in flight / dropped / delayed");
                }
            }
        }
    }

    #[test]
    fn dwell_delays_hops() {
        let mut fast = hopper_engine(EngineMode::Sparse, 0);
        let mut slow = hopper_engine(EngineMode::Sparse, 2);
        run_to_quiet(&mut fast);
        run_to_quiet(&mut slow);
        // 5 hops, each slowed by 2 extra ticks.
        assert!(slow.tick_count() >= fast.tick_count() + 8);
    }

    #[test]
    fn quiet_network_stays_quiet() {
        let mut eng = hopper_engine(EngineMode::Sparse, 1);
        run_to_quiet(&mut eng);
        let t = eng.tick_count();
        let mut events = Vec::new();
        for _ in 0..10 {
            eng.tick(&mut events);
        }
        assert!(events.is_empty());
        assert!(eng.is_quiet());
        assert_eq!(eng.tick_count(), t + 10);
        assert_eq!(eng.signals_in_flight(), 0);
    }

    #[test]
    fn run_until_stops_on_event() {
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        let (events, fired) = eng.run_until(100, |&(_, v)| v == 3);
        assert!(fired);
        assert_eq!(events.last().map(|&(_, v)| v), Some(3));
    }

    #[test]
    fn run_until_times_out() {
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        let (_, fired) = eng.run_until(2, |&(_, v)| v == 99);
        assert!(!fired);
    }

    #[test]
    fn signals_in_flight_counts_nonblank() {
        let mut eng = hopper_engine(EngineMode::Dense, 0);
        let mut events = Vec::new();
        eng.tick(&mut events); // root emitted 1 onto the wire
        assert_eq!(eng.signals_in_flight(), 1);
    }

    #[test]
    fn skip_lull_jumps_to_the_next_deadline_in_every_mode() {
        // dwell 5: after each hop the holder sleeps 5 ticks — a pure lull.
        for mode in EngineMode::ALL {
            let mut eng = hopper_engine(mode, 5);
            let mut events = Vec::new();
            eng.tick(&mut events); // tick 0: root emits 1
            eng.tick(&mut events); // tick 1: n1 receives, arms wake at 6
            assert!(!eng.is_quiet());
            // the coming ticks 2..=5 step nothing: one O(1) jump covers them
            let skipped = eng.skip_lull(u64::MAX);
            assert_eq!(skipped, 4, "{mode:?}");
            assert_eq!(eng.tick_count(), 6);
            // a cap inside the lull is honored exactly
            let mut capped = hopper_engine(mode, 5);
            let mut capped_events = Vec::new();
            capped.tick(&mut capped_events);
            capped.tick(&mut capped_events);
            assert_eq!(capped.skip_lull(4), 2, "{mode:?}");
            assert_eq!(capped.tick_count(), 4);
            // skipping never changes what happens, only how fast we get
            // there: the full hop chain still completes identically
            let mut tail = run_to_quiet(&mut eng);
            events.append(&mut tail);
            let vals: Vec<(u32, u32)> = events.iter().map(|&(n, v)| (n.0, v)).collect();
            assert_eq!(
                vals,
                vec![(1, 1), (2, 2), (3, 3), (0, 4), (1, 5)],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn skip_lull_on_a_quiet_network_skips_to_the_limit() {
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        run_to_quiet(&mut eng);
        let t = eng.tick_count();
        assert_eq!(eng.skip_lull(t + 1_000_000), 1_000_000);
        assert_eq!(eng.tick_count(), t + 1_000_000);
        assert!(eng.is_quiet());
        // a limit at or behind the clock is a no-op
        assert_eq!(eng.skip_lull(t), 0);
    }

    #[test]
    fn skip_lull_does_nothing_while_signals_are_in_flight() {
        let mut eng = hopper_engine(EngineMode::Sparse, 3);
        let mut events = Vec::new();
        eng.tick(&mut events); // value 1 is in flight: the coming tick has work
        assert_eq!(eng.skip_lull(u64::MAX), 0);
    }

    /// ring(4) with the wire 0→1 moved from in-port 0 to in-port 1 of n1:
    /// same nodes and δ, one wire re-routed.
    fn ring4_rerouted() -> crate::Topology {
        use crate::ids::Port;
        let mut b = crate::TopologyBuilder::new(4, 2);
        b.connect(NodeId(0), Port(0), NodeId(1), Port(1)).unwrap();
        b.connect(NodeId(1), Port(0), NodeId(2), Port(0)).unwrap();
        b.connect(NodeId(2), Port(0), NodeId(3), Port(0)).unwrap();
        b.connect(NodeId(3), Port(0), NodeId(0), Port(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn apply_topology_invalidates_in_flight_signals_on_removed_wires() {
        let mut eng = hopper_engine(EngineMode::Dense, 0);
        let mut events = Vec::new();
        eng.tick(&mut events); // value 1 is in flight on wire 0→1 (in-port 0)
        assert_eq!(eng.signals_in_flight(), 1);
        eng.apply_topology(&ring4_rerouted());
        // the old wire is gone; its in-flight character with it
        assert_eq!(eng.signals_in_flight(), 0);
        let events = run_to_quiet(&mut eng);
        assert!(events.is_empty(), "the lost character never arrives");
    }

    #[test]
    fn apply_topology_keeps_signals_on_surviving_wires() {
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        let mut events = Vec::new();
        eng.tick(&mut events);
        assert_eq!(eng.signals_in_flight(), 1);
        // re-applying the identical wiring disturbs nothing
        eng.apply_topology(&generators::ring(4));
        assert_eq!(eng.signals_in_flight(), 1);
        let events = run_to_quiet(&mut eng);
        assert_eq!(events.len(), 5, "the full hop chain still completes");
    }

    #[test]
    fn repeated_rewires_preserve_wake_deadlines_and_reuse_scratch() {
        // A node mid-dwell keeps its wake across a rewire that does not
        // touch its ports, in every stepping discipline including the
        // pooled sharded one.
        let cases = [
            (EngineMode::Dense, None),
            (EngineMode::Sparse, None),
            (EngineMode::Parallel, Some(3)),
        ];
        for (mode, shards) in cases {
            let mut eng = hopper_engine_sharded(mode, 4, shards);
            let mut events = Vec::new();
            eng.tick(&mut events); // root emits 1
            eng.tick(&mut events); // n1 adopts it, arms wake at 1 + 4
            for _ in 0..10 {
                // rewiring back and forth exercises the reused scratch path
                eng.apply_topology(&ring4_rerouted());
                eng.apply_topology(&generators::ring(4));
            }
            let mut tail = run_to_quiet(&mut eng);
            events.append(&mut tail);
            let vals: Vec<u32> = events.iter().map(|&(_, v)| v).collect();
            assert_eq!(vals, vec![1, 2, 3, 4, 5], "{mode:?} {shards:?}");
        }
    }

    #[test]
    fn apply_topology_with_splices_a_joining_automaton_in() {
        use crate::mutation::{MutationKind, TopologyMutation};
        let base = generators::ring(4);
        let (joined, change) = base
            .apply_rooted(
                &TopologyMutation {
                    kind: MutationKind::NodeJoin,
                    // splice the quiet wire 1→2 (the wire 0→1 carries the
                    // in-flight value and re-splicing it would drop it)
                    selector: 1,
                },
                NodeId(0),
            )
            .unwrap();
        let cases = [
            (EngineMode::Dense, None),
            (EngineMode::Sparse, None),
            (EngineMode::Parallel, Some(2)),
            (EngineMode::Parallel, Some(16)),
        ];
        let runs: Vec<Vec<(NodeId, u32)>> = cases
            .into_iter()
            .map(|(mode, shards)| {
                let mut eng = hopper_engine_sharded(mode, 0, shards);
                let mut events = Vec::new();
                eng.tick(&mut events);
                eng.apply_topology_with(&joined, change, &mut hopper_factory);
                assert_eq!(eng.num_nodes(), 5);
                let mut tail = run_to_quiet(&mut eng);
                events.append(&mut tail);
                events
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(&runs[0], r, "all disciplines agree across a join");
        }
        // the newcomer (n4) took part in the hop chain
        assert!(
            runs[0].iter().any(|&(n, _)| n == NodeId(4)),
            "{:?}",
            runs[0]
        );
    }

    #[test]
    fn apply_topology_with_removes_a_leaving_automaton_and_its_signals() {
        use crate::mutation::{MembershipChange, MutationKind, TopologyMutation};
        let base = generators::ring(4);
        let applied = base.apply_or_fallback_rooted(
            &TopologyMutation {
                kind: MutationKind::NodeLeave,
                selector: 1,
            },
            NodeId(0),
        );
        assert_eq!(
            applied.membership,
            MembershipChange::Left { node: NodeId(1) }
        );
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        let mut events = Vec::new();
        eng.tick(&mut events); // value 1 in flight on the wire 0→1
        assert_eq!(eng.signals_in_flight(), 1);
        eng.apply_topology_with(&applied.topology, applied.membership, &mut hopper_factory);
        assert_eq!(eng.num_nodes(), 3);
        // the in-flight character died with its wire into the departed node
        assert_eq!(eng.signals_in_flight(), 0);
        let events = run_to_quiet(&mut eng);
        assert!(events.is_empty(), "the lost character never arrives");
    }

    #[test]
    fn all_modes_agree_across_a_rewire_boundary() {
        let runs: Vec<Vec<(NodeId, u32)>> =
            [EngineMode::Dense, EngineMode::Sparse, EngineMode::Parallel]
                .into_iter()
                .map(|mode| {
                    let mut eng = hopper_engine(mode, 2);
                    let mut events = Vec::new();
                    for _ in 0..3 {
                        eng.tick(&mut events);
                    }
                    eng.apply_topology(&ring4_rerouted());
                    let mut tail = run_to_quiet(&mut eng);
                    events.append(&mut tail);
                    events
                })
                .collect();
        assert_eq!(runs[0], runs[1], "dense vs sparse across rewire");
        assert_eq!(runs[0], runs[2], "dense vs parallel across rewire");
    }

    #[test]
    fn inactive_fault_plane_installs_no_state() {
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        eng.set_fault_plane(FaultPlane::NONE);
        assert!(eng.fault.is_none());
        eng.set_fault_plane(FaultPlane {
            loss: 0.0,
            delay_min: 0,
            delay_max: 0,
            seed: 99,
        });
        assert!(eng.fault.is_none());
        let events = run_to_quiet(&mut eng);
        let base = run_to_quiet(&mut hopper_engine(EngineMode::Sparse, 0));
        assert_eq!(events, base, "a zero plane is bit-identical to none");
        assert_eq!(eng.fault_dropped(), 0);
        assert_eq!(eng.fault_delayed(), 0);
    }

    #[test]
    fn total_loss_kills_every_character() {
        let mut eng = hopper_engine(EngineMode::Dense, 0);
        eng.set_fault_plane(FaultPlane {
            loss: 1.0,
            delay_min: 0,
            delay_max: 0,
            seed: 7,
        });
        let events = run_to_quiet(&mut eng);
        assert!(events.is_empty(), "nothing survives a loss=1 plane");
        assert!(eng.fault_dropped() >= 1);
    }

    #[test]
    fn pure_delay_preserves_values_and_defers_them() {
        let run = |plane: Option<FaultPlane>| {
            let mut eng = hopper_engine(EngineMode::Sparse, 0);
            if let Some(p) = plane {
                eng.set_fault_plane(p);
            }
            let events = run_to_quiet(&mut eng);
            (events, eng.tick_count(), eng.fault_delayed())
        };
        let (base, base_ticks, _) = run(None);
        let (delayed, delayed_ticks, delayed_count) = run(Some(FaultPlane {
            loss: 0.0,
            delay_min: 2,
            delay_max: 2,
            seed: 3,
        }));
        let vals = |evs: &[(NodeId, u32)]| evs.iter().map(|&(n, v)| (n.0, v)).collect::<Vec<_>>();
        assert_eq!(vals(&base), vals(&delayed), "delay reorders nothing here");
        assert!(delayed_count >= 1, "every hop was delayed");
        assert!(
            delayed_ticks >= base_ticks + 2,
            "the chain finishes later under delay ({delayed_ticks} vs {base_ticks})"
        );
    }

    #[test]
    fn faulted_transcripts_agree_across_modes_and_shard_counts() {
        let plane = FaultPlane {
            loss: 0.25,
            delay_min: 1,
            delay_max: 3,
            seed: 42,
        };
        let run = |mode, shards| {
            let mut eng = flooder_engine(mode, shards);
            eng.set_fault_plane(plane);
            let mut events = Vec::new();
            for _ in 0..200 {
                eng.tick(&mut events);
                if eng.is_quiet() {
                    break;
                }
            }
            assert!(eng.is_quiet(), "{mode:?}/{shards:?} must quiesce");
            (
                events,
                eng.tick_count(),
                eng.fault_dropped(),
                eng.fault_delayed(),
            )
        };
        let base = run(EngineMode::Dense, None);
        assert!(base.2 > 0, "the plane dropped something");
        assert!(base.3 > 0, "the plane delayed something");
        assert_eq!(base, run(EngineMode::Sparse, None), "dense vs sparse");
        for shards in [1usize, 2, 7, 16] {
            assert_eq!(
                base,
                run(EngineMode::Parallel, Some(shards)),
                "dense vs parallel/{shards} under faults"
            );
        }
    }

    #[test]
    fn skip_lull_stops_at_a_delayed_delivery() {
        // dwell 0 hoppers + a long pure delay: after the root's emission
        // is taken off the wire, nothing is armed — only the delayed
        // character's due tick keeps the network alive.
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        eng.set_fault_plane(FaultPlane {
            loss: 0.0,
            delay_min: 20,
            delay_max: 20,
            seed: 1,
        });
        let mut events = Vec::new();
        eng.tick(&mut events); // root emits 1; the plane holds it back
        assert!(!eng.is_quiet(), "a delayed character counts as in flight");
        assert_eq!(eng.signals_in_flight(), 1);
        let skipped = eng.skip_lull(u64::MAX);
        assert!(skipped > 0 && skipped <= 21, "skip capped by the due tick");
        let tail = run_to_quiet(&mut eng);
        assert_eq!(tail.len(), 5, "the full hop chain still completes");
    }

    #[test]
    fn with_attempt_varies_the_seed_deterministically() {
        let p = FaultPlane {
            loss: 0.5,
            delay_min: 0,
            delay_max: 0,
            seed: 11,
        };
        assert_eq!(p.with_attempt(0), p);
        assert_ne!(p.with_attempt(1).seed, p.seed);
        assert_eq!(p.with_attempt(3), p.with_attempt(3));
        assert_ne!(p.with_attempt(1).seed, p.with_attempt(2).seed);
        assert_eq!(p.with_attempt(1).loss, p.loss);
    }

    #[test]
    fn rewire_destroys_delayed_characters() {
        let mut eng = hopper_engine(EngineMode::Sparse, 0);
        eng.set_fault_plane(FaultPlane {
            loss: 0.0,
            delay_min: 50,
            delay_max: 50,
            seed: 5,
        });
        let mut events = Vec::new();
        eng.tick(&mut events);
        assert_eq!(eng.signals_in_flight(), 1, "held by the plane");
        eng.apply_topology(&ring4_rerouted());
        assert_eq!(eng.signals_in_flight(), 0, "flushed by the rewire");
        assert_eq!(eng.fault_dropped(), 1, "flushed characters count dropped");
        let tail = run_to_quiet(&mut eng);
        assert!(tail.is_empty());
    }

    #[test]
    fn auto_sharding_stays_sequential_on_tiny_networks() {
        // ring(4) is far below a shard's worth of nodes: no pool.
        let eng = hopper_engine(EngineMode::Parallel, 0);
        assert_eq!(eng.shard_count(), 1);
        assert_eq!(eng.pool_workers(), 0);
        let sparse = hopper_engine(EngineMode::Sparse, 0);
        assert_eq!(sparse.shard_count(), 1);
        let dense = hopper_engine(EngineMode::Dense, 0);
        assert_eq!(dense.shard_count(), 0);
    }
}
