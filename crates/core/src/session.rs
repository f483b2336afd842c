//! Builder-configured GTD runs — the crate's primary entry point.
//!
//! One [`GtdSession`] builder configures the root processor, the engine
//! strategy, the tick budget, transcript capture and a streaming
//! observer. Its four entry points — [`GtdSession::run`],
//! [`GtdSession::run_repeated`], [`GtdSession::run_resilient`] and
//! [`GtdSession::run_dynamic`] — are policies over one epoch stepper
//! that ticks the engine, feeds the root's transcript to the master
//! computer, settles the network and decodes the map.
//!
//! ```
//! use gtd_core::GtdSession;
//! use gtd_netsim::{generators, EngineMode, NodeId};
//!
//! let topo = generators::random_sc(24, 3, 7);
//! let outcome = GtdSession::on(&topo)
//!     .root(NodeId(5))             // any processor can host the master
//!     .mode(EngineMode::Sparse)
//!     .run()
//!     .expect("protocol completes");
//! outcome.map.verify_against(&topo, NodeId(5)).expect("exact map");
//! assert!(outcome.ticks > 0);
//! assert_eq!(outcome.phases.rcas, outcome.stats.rcas());
//! ```
//!
//! A tick budget turns a wedged or oversized run into a structured error
//! instead of an endless loop:
//!
//! ```
//! use gtd_core::{GtdError, GtdSession};
//! use gtd_netsim::generators;
//!
//! let topo = generators::ring(16);
//! let err = GtdSession::on(&topo).tick_budget(10).run().unwrap_err();
//! assert!(matches!(err, GtdError::BudgetExhausted { budget: 10, .. }));
//! ```

use crate::events::TranscriptEvent;
use crate::master::{DecodeError, MasterComputer, NetworkMap};
use crate::node::{ProtocolNode, StartBehavior};
use crate::phases::{phase_breakdown, PhaseBreakdown};
use gtd_netsim::{
    algo, restart_victim, Engine, EngineMode, FaultPlane, MembershipChange, MutationKind,
    MutationSchedule, NodeId, ScheduledMutation, Topology,
};

/// A model precondition the session detected before simulating a single
/// tick (paper §1.1 assumes them; the protocol would simply never
/// terminate otherwise).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PreconditionViolation {
    /// The network is not strongly connected (checked via
    /// [`gtd_netsim::algo::is_strongly_connected`]).
    NotStronglyConnected,
    /// The configured root is not a processor of the network.
    RootOutOfRange {
        /// The requested root.
        root: NodeId,
        /// Number of processors in the network.
        nodes: usize,
    },
    /// The configured [`StartBehavior`] cannot drive a full GTD run to
    /// termination (only [`StartBehavior::GtdRoot`] initiates the DFS
    /// whose `Terminated` event ends a session run).
    StartNotRunnable(StartBehavior),
}

impl std::fmt::Display for PreconditionViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreconditionViolation::NotStronglyConnected => {
                write!(f, "network is not strongly connected")
            }
            PreconditionViolation::RootOutOfRange { root, nodes } => {
                write!(
                    f,
                    "root {root} out of range (network has {nodes} processors)"
                )
            }
            PreconditionViolation::StartNotRunnable(start) => {
                write!(f, "start behaviour {start:?} cannot terminate a GTD run")
            }
        }
    }
}

/// Why a run failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GtdError {
    /// The tick budget ran out before the root terminated. With the
    /// default budget this indicates a protocol bug; with a user budget
    /// it simply means the run was larger than allowed.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
        /// Ticks spent when the budget ran out: always `budget` (a run
        /// that goes quiet early would idle out the rest). A
        /// [`GtdSession::run_repeated`] round counts them from its own
        /// start, one or more ticks after the previous round terminated.
        ticks: u64,
    },
    /// A model precondition was violated; nothing was simulated.
    Precondition(PreconditionViolation),
    /// The root's transcript could not be replayed.
    Decode(DecodeError),
    /// A dynamic run kept producing stale or wedged mapping epochs
    /// without converging on a correct map — the defensive cap of
    /// [`GtdSession::run_dynamic`] (it cannot fire for valid mutations,
    /// which always leave a mappable, strongly-connected network).
    RemapDiverged {
        /// Mapping epochs executed before giving up.
        epochs: usize,
    },
    /// An unfaulted static run broke a protocol invariant: a processor
    /// other than the root emitted a transcript event, a processor
    /// emitted after termination, the network failed to settle after
    /// termination, or a re-map produced a different map. Always a bug.
    Invariant {
        /// Which invariant broke.
        what: &'static str,
        /// Global tick at which it was detected.
        tick: u64,
    },
}

impl std::fmt::Display for GtdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GtdError::BudgetExhausted { budget, ticks } => {
                write!(f, "tick budget {budget} exhausted after {ticks} ticks")
            }
            GtdError::Precondition(p) => write!(f, "precondition violated: {p}"),
            GtdError::Decode(e) => write!(f, "transcript decode error: {e}"),
            GtdError::RemapDiverged { epochs } => {
                write!(
                    f,
                    "dynamic run did not converge after {epochs} mapping epochs"
                )
            }
            GtdError::Invariant { what, tick } => {
                write!(f, "protocol invariant broken at tick {tick}: {what}")
            }
        }
    }
}

impl std::error::Error for GtdError {}

impl From<DecodeError> for GtdError {
    fn from(e: DecodeError) -> Self {
        GtdError::Decode(e)
    }
}

impl From<PreconditionViolation> for GtdError {
    fn from(p: PreconditionViolation) -> Self {
        GtdError::Precondition(p)
    }
}

/// Aggregate counters derived from the transcript.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunStats {
    /// Network RCAs with a FORWARD report.
    pub forwards: usize,
    /// Network RCAs with a BACK report.
    pub backs: usize,
    /// Root-local forward transcriptions (token re-entered the root).
    pub local_forwards: usize,
    /// Root-local backs (BCA returned the token to the root).
    pub local_backs: usize,
    /// Snake characters the processors' bounded dwell lanes refused at
    /// capacity during this run (summed over all processors at round end;
    /// see `DwellPool::push_bounded`). Always 0 on clean runs — non-zero
    /// only when a live topology mutation orphaned a growing stream.
    pub dropped: u64,
    /// Characters the wire-level [`FaultPlane`] destroyed during this run
    /// (0 whenever the session runs without faults).
    pub fault_dropped: u64,
    /// Characters the fault plane delivered late during this run.
    pub fault_delayed: u64,
    /// Power-cycle retries a resilient run consumed before this outcome
    /// (0 for a first-attempt success and for every unfaulted run).
    pub retries: u32,
}

impl RunStats {
    /// Total RCAs run over the network.
    pub fn rcas(&self) -> usize {
        self.forwards + self.backs
    }

    /// Total BCAs run over the network: one per BACK report (every
    /// backwards token move rides a BCA) plus one per root-local back.
    pub fn bcas(&self) -> usize {
        self.backs + self.local_backs
    }

    /// Total edge reports — must equal E exactly (Theorem 4.1's "a FORWARD
    /// token is sent for every edge").
    pub fn edges_reported(&self) -> usize {
        self.forwards + self.local_forwards
    }
}

/// The unified outcome of one GTD run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The processor that hosted the master computer.
    pub root: NodeId,
    /// The reconstructed port-level map.
    pub map: NetworkMap,
    /// Global clock ticks from initiation to the root's terminal state
    /// (round-local for repeated runs).
    pub ticks: u64,
    /// Transcript-derived counters.
    pub stats: RunStats,
    /// Where the ticks went (empty unless the transcript was captured).
    pub phases: PhaseBreakdown,
    /// The tick-stamped transcript (for replay, tracing, phase analysis).
    /// Empty when [`GtdSession::capture_transcript`] was turned off.
    pub events: Vec<(u64, TranscriptEvent)>,
    /// True if after termination every processor's snake/token state was
    /// back to factory state (Lemma 4.2) and no signal was in flight.
    pub clean_at_end: bool,
    /// True if the DFS visited every processor.
    pub all_visited: bool,
}

impl RunOutcome {
    /// The transcript without tick stamps (replays into a
    /// [`MasterComputer`] verbatim).
    pub fn event_stream(&self) -> impl Iterator<Item = TranscriptEvent> + '_ {
        self.events.iter().map(|&(_, e)| e)
    }
}

/// Generous default tick budget: each edge costs at most two RCAs and one
/// BCA, each O(D) ⊆ O(N) with small constants (speed-1 = 3 ticks/hop,
/// ~4 loop traversals per RCA). A correct run always fits; exhaustion
/// under this budget means a protocol bug or a violated precondition that
/// slipped past the static check.
pub fn default_tick_budget(topo: &Topology) -> u64 {
    let n = topo.num_nodes() as u64;
    let e = topo.num_edges() as u64;
    1_000 + (e + 2) * (n + 8) * 60
}

/// Default wedge-detection window for [`GtdSession::run_resilient`]:
/// generously above the longest event-free stretch of a healthy run (one
/// edge's RCA+BCA costs O(N) speed-1 hop-dwells), so only a genuinely
/// stalled protocol trips it. Scaled up for wire delay and doubled per
/// retry by the resilient loop itself.
pub fn default_progress_window(topo: &Topology) -> u64 {
    let n = topo.num_nodes() as u64;
    1_000 + n * 240
}

/// When a dynamic run re-maps after a mid-epoch mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RemapPolicy {
    /// Let a disturbed epoch run to termination (or wedge) before
    /// re-mapping — no monitoring needed, but a mutation's remap latency
    /// includes the disturbed epoch's wasted tail.
    #[default]
    Lazy,
    /// Power-cycle the instant monitoring sees a mutation land mid-epoch:
    /// the disturbed epoch is cut short ([`EpochStatus::Preempted`]) and
    /// the remap latency is bounded by one fresh mapping run.
    Eager,
}

impl RemapPolicy {
    /// Every policy, in canonical order (CLI listings, campaign grids).
    pub const ALL: [RemapPolicy; 2] = [RemapPolicy::Lazy, RemapPolicy::Eager];

    /// Stable lowercase name (round-trips through [`std::str::FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            RemapPolicy::Lazy => "lazy",
            RemapPolicy::Eager => "eager",
        }
    }
}

impl std::fmt::Display for RemapPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RemapPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        RemapPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s.trim())
            .ok_or_else(|| {
                let known: Vec<&str> = RemapPolicy::ALL.iter().map(|p| p.name()).collect();
                format!("unknown remap policy {s:?} (known: {})", known.join(", "))
            })
    }
}

/// How one mapping epoch of a dynamic run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpochStatus {
    /// The root terminated and its map matches the live topology.
    Verified,
    /// The root terminated but the map is wrong for the live topology
    /// (or the transcript failed to decode) — a mutation outdated it.
    Stale,
    /// The epoch could never terminate with a map: it ran out of tick
    /// budget, the network went quiet without terminating, or the
    /// transcript stopped decoding mid-run (protocol state lost to a
    /// mutation).
    Wedged,
    /// [`RemapPolicy::Eager`] cut the epoch short the moment a mutation
    /// landed mid-run; the master power-cycles and re-maps immediately.
    Preempted,
    /// A faulted run gave up retrying, but the master's transcript had
    /// decoded a usable **partial map**: every edge in it was reported by
    /// a completed RCA, so the map is exact on what it covers, merely
    /// incomplete (graceful degradation under an active [`FaultPlane`]).
    Partial,
    /// A faulted run exhausted its retries without decoding a single
    /// edge — the fault schedule destroyed every mapping attempt.
    Exhausted,
}

/// One mapping epoch of a dynamic run: a full protocol execution from
/// initiation (or re-initiation) to termination, wedge or budget
/// exhaustion, stamped in global timeline ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochOutcome {
    /// Global tick at which the epoch's mapping run began.
    pub start_tick: u64,
    /// Global tick of termination (or of the wedge decision).
    pub end_tick: u64,
    /// How the epoch ended.
    pub status: EpochStatus,
    /// Processors in the network when the epoch ended (membership
    /// mutations change N mid-timeline).
    pub nodes: usize,
    /// The decoded map, when the transcript decoded (stale maps are kept
    /// — they are what the master *believed* before re-mapping).
    pub map: Option<NetworkMap>,
    /// The epoch's tick-stamped transcript (global ticks). Empty when
    /// [`GtdSession::capture_transcript`] was turned off.
    pub events: Vec<(u64, TranscriptEvent)>,
}

impl EpochOutcome {
    /// Ticks this epoch's mapping run took.
    pub fn ticks(&self) -> u64 {
        self.end_tick - self.start_tick
    }
}

/// What happened to one scheduled mutation over the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The mutation as scheduled.
    pub scheduled: ScheduledMutation,
    /// Global tick at which it was actually applied (the first
    /// between-ticks opportunity at or after the scheduled tick).
    pub applied_at: Option<u64>,
    /// The kind actually applied —
    /// [`MutationKind::SwapLabels`] when the scheduled kind had no valid
    /// candidate and the fallback fired.
    pub applied_as: Option<MutationKind>,
    /// **Remap latency**: global ticks from the mutation's application to
    /// the end of the next verified mapping epoch — how long the master's
    /// picture of the network stayed wrong.
    pub remap_latency: Option<u64>,
}

/// The unified outcome of a schedule-aware dynamic run
/// ([`GtdSession::run_dynamic`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RemapOutcome {
    /// The processor that hosted the master computer, as configured (its
    /// id *in the base topology* — see [`RemapOutcome::final_root`]).
    pub root: NodeId,
    /// The master's host in the *final* topology: `node-leave` mutations
    /// below the root shift its id down (the root itself never leaves).
    pub final_root: NodeId,
    /// Every mapping epoch, in timeline order. The first epoch maps the
    /// pristine network; later ones are remaps.
    pub epochs: Vec<EpochOutcome>,
    /// Per-mutation application and remap-latency records, in schedule
    /// order.
    pub mutations: Vec<MutationOutcome>,
    /// Global ticks simulated over the whole timeline (mapping epochs,
    /// settling and idle gaps included).
    pub total_ticks: u64,
    /// The topology at the end of the timeline.
    pub final_topology: Topology,
    /// Characters the wire-level fault plane destroyed over the whole
    /// timeline (0 for unfaulted timelines).
    pub fault_dropped: u64,
    /// Characters the fault plane delivered late over the whole timeline.
    pub fault_delayed: u64,
}

impl RemapOutcome {
    /// Did the timeline end with a map matching the final topology?
    /// (Always true when `run_dynamic` returns `Ok` — kept as data so
    /// reports can assert it.)
    pub fn final_verified(&self) -> bool {
        matches!(
            self.epochs.last(),
            Some(e) if e.status == EpochStatus::Verified
        )
    }

    /// Ticks of the initial (pristine-network) mapping epoch.
    pub fn initial_ticks(&self) -> u64 {
        self.epochs.first().map_or(0, EpochOutcome::ticks)
    }

    /// Remap latencies in schedule order.
    pub fn remap_latencies(&self) -> Vec<Option<u64>> {
        self.mutations.iter().map(|m| m.remap_latency).collect()
    }

    /// Per-epoch processor counts, in timeline order (membership
    /// mutations change N; static timelines repeat the base count).
    pub fn epoch_nodes(&self) -> Vec<usize> {
        self.epochs.iter().map(|e| e.nodes).collect()
    }

    /// Did the timeline end in graceful degradation — a faulted run that
    /// gave up retrying with a [`EpochStatus::Partial`] map (or nothing,
    /// [`EpochStatus::Exhausted`]) instead of a verified one?
    pub fn final_degraded(&self) -> bool {
        matches!(
            self.epochs.last(),
            Some(e) if matches!(e.status, EpochStatus::Partial | EpochStatus::Exhausted)
        )
    }
}

/// One mapping attempt of a [`GtdSession::run_resilient`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AttemptOutcome {
    /// Attempt index (0 = first try; each retry power-cycles the whole
    /// network and re-seeds the fault plane via
    /// [`FaultPlane::with_attempt`]).
    pub attempt: u32,
    /// Ticks this attempt simulated before verifying, wedging or giving
    /// up — the per-retry latency record.
    pub ticks: u64,
    /// How the attempt ended: [`EpochStatus::Verified`],
    /// [`EpochStatus::Stale`] (terminated but the map failed
    /// verification) or [`EpochStatus::Wedged`] (progress window or
    /// budget expired, or the network went quiet without terminating).
    pub status: EpochStatus,
    /// Edges the master had decoded when the attempt ended.
    pub edges_reported: usize,
}

/// The unified outcome of a fault-tolerant run
/// ([`GtdSession::run_resilient`]): instead of hanging or erroring on a
/// wedge, the session retries up to [`GtdSession::max_retries`] times
/// and always ends in a structured status.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilientOutcome {
    /// The processor that hosted the master computer.
    pub root: NodeId,
    /// [`EpochStatus::Verified`] (some attempt produced an exact map),
    /// [`EpochStatus::Partial`] (all attempts failed but the best one
    /// decoded a usable partial map) or [`EpochStatus::Exhausted`]
    /// (nothing decoded at all).
    pub status: EpochStatus,
    /// The exact map on `Verified`, the best partial map on `Partial`
    /// (every edge in it is real — see
    /// [`MasterComputer::into_partial_map`]), `None` on `Exhausted`.
    pub map: Option<NetworkMap>,
    /// Every attempt, in order — the per-retry latency ledger.
    pub attempts: Vec<AttemptOutcome>,
    /// Transcript-derived counters of the winning (or best-partial)
    /// attempt; `retries` counts all consumed retries.
    pub stats: RunStats,
    /// Ticks of the winning (or best-partial) attempt.
    pub ticks: u64,
    /// Ticks summed over all attempts.
    pub total_ticks: u64,
    /// The winning (or best-partial) attempt's tick-stamped transcript
    /// (attempt-local ticks; empty when capture was off).
    pub events: Vec<(u64, TranscriptEvent)>,
}

impl ResilientOutcome {
    /// Did some attempt verify an exact map?
    pub fn verified(&self) -> bool {
        self.status == EpochStatus::Verified
    }

    /// Retries consumed after the first attempt.
    pub fn retries(&self) -> u32 {
        (self.attempts.len().saturating_sub(1)) as u32
    }
}

/// Observer callback: `(tick, event)` for every root transcript symbol.
type Observer<'a> = Box<dyn FnMut(u64, TranscriptEvent) + 'a>;

/// Builder for configured GTD runs. See the [module docs](self) for
/// examples.
pub struct GtdSession<'a> {
    topo: &'a Topology,
    root: NodeId,
    mode: EngineMode,
    tick_budget: Option<u64>,
    start: StartBehavior,
    capture: bool,
    policy: RemapPolicy,
    par_shards: Option<usize>,
    fault: FaultPlane,
    progress_window: Option<u64>,
    max_retries: u32,
    observer: Option<Observer<'a>>,
}

impl<'a> GtdSession<'a> {
    /// Start configuring a run on `topo`. Defaults: root `n0`, sparse
    /// engine, [`default_tick_budget`], transcript captured, lazy remap
    /// policy, no observer.
    pub fn on(topo: &'a Topology) -> Self {
        GtdSession {
            topo,
            root: NodeId(0),
            mode: EngineMode::Sparse,
            tick_budget: None,
            start: StartBehavior::GtdRoot,
            capture: true,
            policy: RemapPolicy::Lazy,
            par_shards: None,
            fault: FaultPlane::NONE,
            progress_window: None,
            max_retries: 3,
            observer: None,
        }
    }

    /// Which processor hosts the master computer. The protocol is
    /// identical at every processor, so any root works (§1.1: the root
    /// differs only by its power-on flag).
    pub fn root(mut self, root: NodeId) -> Self {
        self.root = root;
        self
    }

    /// Engine mode: it only picks the shard count (see [`EngineMode`]),
    /// so results are identical across modes.
    pub fn mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Force the parallel engine's shard count (only meaningful with
    /// [`EngineMode::Parallel`]; other modes ignore it). `None` (the
    /// default) lets the engine auto-size from the core count and
    /// network size, honouring the `GTD_PAR_SHARDS` environment
    /// override. Outcomes are bit-identical at every shard count; the
    /// knob exists for benchmarking and for the equivalence sweeps.
    pub fn par_shards(mut self, shards: usize) -> Self {
        self.par_shards = Some(shards);
        self
    }

    /// Hard cap on simulated ticks (per round for repeated runs).
    /// Exhaustion returns [`GtdError::BudgetExhausted`] instead of
    /// spinning forever.
    pub fn tick_budget(mut self, budget: u64) -> Self {
        self.tick_budget = Some(budget);
        self
    }

    /// The root's power-on behaviour. Only [`StartBehavior::GtdRoot`]
    /// (the default) initiates the DFS whose `Terminated` event ends a
    /// session run, so [`Self::run`]/[`Self::run_repeated`] reject any
    /// other value up front with
    /// [`PreconditionViolation::StartNotRunnable`] — probe behaviours
    /// belong on non-root initiators and are driven by
    /// [`run_single_rca`](crate::runner::run_single_rca) /
    /// [`run_single_bca`](crate::runner::run_single_bca). The knob
    /// exists so future run shapes (e.g. probe sessions) keep the same
    /// builder surface.
    pub fn start(mut self, start: StartBehavior) -> Self {
        self.start = start;
        self
    }

    /// Keep (default) or drop the tick-stamped transcript. Dropping it
    /// saves memory on very large runs; the phase breakdown is then left
    /// empty (it is derived from the transcript).
    pub fn capture_transcript(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// When a [`Self::run_dynamic`] timeline re-maps after a mid-epoch
    /// mutation (ignored by the static entry points). The default,
    /// [`RemapPolicy::Lazy`], lets a disturbed epoch run out;
    /// [`RemapPolicy::Eager`] power-cycles at the mutation so the remap
    /// latency is bounded by one fresh mapping run.
    pub fn policy(mut self, policy: RemapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Interpose a wire-level [`FaultPlane`] (per-character loss and
    /// bounded delay, deterministically seeded) on every delivery. An
    /// inactive plane (the default) leaves the engine's unfaulted fast
    /// path untouched. Faulted runs keep the engine's determinism
    /// contract — byte-identical transcripts across modes and shard
    /// counts — but may wedge: prefer [`Self::run_resilient`] (or
    /// [`Self::run_dynamic`], which degrades gracefully) over
    /// [`Self::run`] when the plane is active.
    pub fn faults(mut self, plane: FaultPlane) -> Self {
        self.fault = plane;
        self
    }

    /// Wedge-detection window for [`Self::run_resilient`]: an attempt
    /// that produces **no transcript progress** for this many ticks is
    /// preempted and retried. Defaults to [`default_progress_window`]
    /// scaled for the plane's wire delay; the window doubles on each
    /// retry so persistent wedges get increasing patience.
    pub fn progress_window(mut self, window: u64) -> Self {
        self.progress_window = Some(window.max(1));
        self
    }

    /// How many fresh power-cycle retries a faulted run may consume
    /// after its first attempt before degrading to
    /// [`EpochStatus::Partial`] / [`EpochStatus::Exhausted`]. Each retry
    /// re-seeds the fault plane ([`FaultPlane::with_attempt`]) so it
    /// does not replay the identical drop pattern. Default 3.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Stream every `(tick, event)` pair to `f` as the root emits it —
    /// independent of [`Self::capture_transcript`], so huge runs can be
    /// traced without buffering.
    pub fn observer(mut self, f: impl FnMut(u64, TranscriptEvent) + 'a) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    fn check_preconditions(&self) -> Result<(), PreconditionViolation> {
        if self.root.idx() >= self.topo.num_nodes() {
            return Err(PreconditionViolation::RootOutOfRange {
                root: self.root,
                nodes: self.topo.num_nodes(),
            });
        }
        if self.start != StartBehavior::GtdRoot {
            return Err(PreconditionViolation::StartNotRunnable(self.start));
        }
        if !algo::is_strongly_connected(self.topo) {
            return Err(PreconditionViolation::NotStronglyConnected);
        }
        Ok(())
    }

    /// Build a fresh engine on `topo` with the master on `root` (the
    /// session's base topology and root, or a mutated successor during a
    /// dynamic run's power-cycle — membership mutations can have shifted
    /// the root's id by then). `attempt` re-seeds an active fault plane:
    /// a power-cycle resets the engine clock, so a retry under the
    /// identical seed would replay the identical fault pattern.
    fn build_engine_on(&self, topo: &Topology, root: NodeId, attempt: u32) -> Engine<ProtocolNode> {
        let start = self.start;
        let mut engine =
            Engine::with_root_sharded(topo, self.mode, root, self.par_shards, &mut |meta| {
                let behaviour = if meta.is_root {
                    start
                } else {
                    StartBehavior::Passive
                };
                ProtocolNode::new(&meta, behaviour)
            });
        if self.fault.is_active() {
            engine.set_fault_plane(self.fault.with_attempt(attempt));
        }
        engine
    }

    /// `base` ticks stretched for wire delay: each speed-1 hop costs 3
    /// ticks unfaulted and up to `delay_max` more under the plane, so a
    /// delayed-but-lossless run still fits.
    fn stretched(&self, base: u64) -> u64 {
        base.saturating_add(base / 3 * self.fault.delay_max)
    }

    /// The effective per-run tick budget: the user's explicit budget, or
    /// [`default_tick_budget`] stretched for wire delay.
    fn effective_budget(&self, topo: &Topology) -> u64 {
        self.tick_budget
            .unwrap_or_else(|| self.stretched(default_tick_budget(topo)))
    }

    /// Run the protocol once and return the unified outcome.
    pub fn run(mut self) -> Result<RunOutcome, GtdError> {
        self.check_preconditions()?;
        let mut engine = self.build_engine_on(self.topo, self.root, 0);
        self.round(&mut engine)
    }

    /// Run the protocol `rounds` times on the same live network: after
    /// each termination the master computer nudges the root
    /// ([`ProtocolNode::master_restart`]), a RESET flood clears the DFS
    /// bookkeeping, and the network is mapped again — the
    /// dynamic-remapping extension motivated by the paper's §1 ("the
    /// network topology or size might change…"). Determinism implies all
    /// rounds of an unfaulted run produce identical maps; a round that
    /// does not is a [`GtdError::Invariant`]. Zero rounds simulate
    /// nothing and return an empty list.
    pub fn run_repeated(mut self, rounds: usize) -> Result<Vec<RunOutcome>, GtdError> {
        self.check_preconditions()?;
        let mut engine = self.build_engine_on(self.topo, self.root, 0);
        let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(rounds);
        for round in 0..rounds {
            if round > 0 {
                engine.node_mut(self.root).master_restart();
            }
            let outcome = self.round(&mut engine)?;
            // Faulted rounds see different per-tick drop patterns (the
            // hash keys on the emit tick), so identical maps are only an
            // unfaulted invariant.
            if !self.fault.is_active() && outcomes.first().is_some_and(|o| o.map != outcome.map) {
                return Err(GtdError::Invariant {
                    what: "re-mapping produced a different map",
                    tick: engine.tick_count(),
                });
            }
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// One mapping round on `engine`, from the root's (re)start to its
    /// decoded map: the whole of [`Self::run`], one round of
    /// [`Self::run_repeated`].
    fn round(&mut self, engine: &mut Engine<ProtocolNode>) -> Result<RunOutcome, GtdError> {
        let budget = self.effective_budget(self.topo);
        let mut ep = Epoch::new(engine, 0, self.root, self.capture, !self.fault.is_active());
        let limits = Limits::budget(engine.tick_count().saturating_add(budget));
        let end = ep.advance(engine, limits, &mut self.observer)?;
        // A round settles for at least one tick, so the next round of a
        // repeated run restarts one tick after a quiet termination.
        let (_, tick, map) = ep.finish(end, engine, self.topo, self.root, 1)?;
        let Some(map) = map else {
            // With no window and no schedule only the budget is left: a
            // quiet network would idle out the rest of it.
            let exhausted = GtdError::BudgetExhausted {
                budget,
                ticks: budget,
            };
            return Err(ep.error.map_or(exhausted, GtdError::Decode));
        };
        let nodes = engine.nodes();
        Ok(RunOutcome {
            root: self.root,
            map,
            ticks: tick - ep.start,
            stats: ep.stats(engine),
            phases: phase_breakdown(&ep.events),
            events: ep.events,
            clean_at_end: engine.signals_in_flight() == 0
                && nodes.iter().all(|n| n.snake_state_pristine()),
            all_visited: nodes.iter().all(|n| n.dfs_visited()),
        })
    }

    /// Run the protocol with **graceful degradation** under an active
    /// [`FaultPlane`]: instead of hanging on a wedge or erroring on
    /// budget exhaustion, the session watches transcript progress and
    /// power-cycles the whole network when a configurable window
    /// ([`Self::progress_window`]) passes without a new root event,
    /// retrying up to [`Self::max_retries`] times with exponentially
    /// growing patience and a re-seeded fault plane per attempt.
    ///
    /// Always returns a structured [`ResilientOutcome`]:
    ///
    /// * **`Verified`** — some attempt terminated with an exact map
    ///   (faulted attempts that merely run slow still verify);
    /// * **`Partial`** — every attempt failed, but the best one decoded
    ///   a usable partial map (exact on the edges it covers);
    /// * **`Exhausted`** — the fault schedule destroyed every attempt
    ///   before a single edge decoded.
    ///
    /// Only [`GtdError::Precondition`] can make this return `Err`, plus
    /// [`GtdError::Invariant`] for a protocol bug in an unfaulted run.
    /// Without an active plane it runs exactly one attempt (retries
    /// could only replay the identical deterministic run).
    pub fn run_resilient(mut self) -> Result<ResilientOutcome, GtdError> {
        self.check_preconditions()?;
        let budget = self.effective_budget(self.topo);
        let window0 = self
            .progress_window
            .unwrap_or_else(|| self.stretched(default_progress_window(self.topo)));
        let strict = !self.fault.is_active();
        let retries = if strict { 0 } else { self.max_retries };
        // Holds the winning attempt, else the best partial one by edge
        // count, else an exhausted verdict with the last attempt's stats.
        let mut out = ResilientOutcome {
            root: self.root,
            status: EpochStatus::Exhausted,
            map: None,
            attempts: Vec::new(),
            stats: RunStats::default(),
            ticks: 0,
            total_ticks: 0,
            events: Vec::new(),
        };
        for attempt in 0..=retries {
            let mut engine = self.build_engine_on(self.topo, self.root, attempt);
            let mut ep = Epoch::new(&engine, 0, self.root, self.capture, strict);
            // Each retry doubles the wedge window: a pattern that stalls
            // slowly should not be preempted at the same impatience that
            // already failed.
            let limits = Limits {
                window: window0.saturating_mul(1u64 << attempt.min(16)),
                ..Limits::budget(budget)
            };
            let end = ep.advance(&mut engine, limits, &mut self.observer)?;
            let (status, ticks, map) = ep.finish(end, &mut engine, self.topo, self.root, 0)?;
            out.total_ticks += engine.tick_count();
            let (grade, map) = match status {
                EpochStatus::Verified => (status, map),
                _ => ep.salvage(map),
            };
            let edges_reported = map.as_ref().map_or(0, NetworkMap::num_edges);
            out.attempts.push(AttemptOutcome {
                attempt,
                ticks,
                status,
                edges_reported,
            });
            let best = out.map.as_ref().map_or(0, NetworkMap::num_edges);
            let better = grade == EpochStatus::Verified || edges_reported > best;
            if better || out.status == EpochStatus::Exhausted {
                out.stats = ep.stats(&engine);
            }
            if better {
                (out.status, out.map, out.ticks, out.events) = (grade, map, ticks, ep.events);
            }
            if grade == EpochStatus::Verified {
                break;
            }
        }
        out.stats.retries = out.retries();
        Ok(out)
    }

    /// Run the protocol over a *changing* network — the paper's §1
    /// motivating scenario as one timeline.
    ///
    /// The schedule's mutations are applied to the live engine atomically
    /// between ticks ([`Engine::apply_topology`]): in-flight characters on
    /// removed wires vanish, affected processors' port awareness updates,
    /// and whatever protocol run is in progress continues on the changed
    /// network. Each mapping epoch then ends one of three ways:
    ///
    /// * **verified** — the root terminated and the decoded map matches
    ///   the live topology;
    /// * **stale** — it terminated but the map is outdated (or the
    ///   transcript no longer decodes): the master re-maps, via the RESET
    ///   flood when the network settled cleanly, via a full power-cycle
    ///   (fresh automata, same clock) when protocol state was lost;
    /// * **wedged** — the run lost its DFS token to a mutation (network
    ///   quiet without termination), exhausted the epoch tick budget, or
    ///   its transcript stopped decoding mid-run: the master power-cycles
    ///   and re-maps.
    ///
    /// The timeline ends when every scheduled mutation has been applied
    /// and re-mapped: each mutation's **remap latency** — global ticks
    /// from its application to the next verified map — is the headline
    /// metric of the returned [`RemapOutcome`]. Mutations whose kind has
    /// no valid candidate (dropping a wire from a directed ring) degrade
    /// to a label swap so a network event still happens; the outcome
    /// records the kind actually applied.
    ///
    /// Membership mutations change N mid-timeline: a `node-join` splices
    /// a fresh, passive automaton into the live engine (it powers on at
    /// the next tick), a `node-leave` removes one — never the root — and
    /// shifts higher ids down (the session tracks the root's id; see
    /// [`RemapOutcome::final_root`]). An epoch whose membership changed
    /// always re-maps via a full power-cycle: the RESET-flood shortcut
    /// assumes the automaton set that ran the last map still exists.
    ///
    /// [`Self::policy`] picks the remap trigger: lazy (default) lets a
    /// disturbed epoch run out; eager preempts it at the mutation
    /// ([`EpochStatus::Preempted`]), bounding remap latency by one fresh
    /// run.
    ///
    /// Under an active [`FaultPlane`], more than [`Self::max_retries`]
    /// consecutive epochs failing with no mutation to blame end the
    /// timeline in graceful degradation ([`EpochStatus::Partial`] or
    /// [`EpochStatus::Exhausted`]), as in [`Self::run_resilient`].
    ///
    /// Deterministic across [`EngineMode`]s: all three produce identical
    /// epochs, transcripts and latencies.
    pub fn run_dynamic(mut self, schedule: &MutationSchedule) -> Result<RemapOutcome, GtdError> {
        self.check_preconditions()?;
        let faulted = self.fault.is_active();
        let strict = !faulted && schedule.is_empty();
        let mut tl = Timeline {
            engine: self.build_engine_on(self.topo, self.root, 0),
            topo: self.topo.clone(),
            root: self.root,
            base: 0,
            muts: schedule
                .iter()
                .map(|&scheduled| MutationOutcome {
                    scheduled,
                    applied_at: None,
                    applied_as: None,
                    remap_latency: None,
                })
                .collect(),
            fired: 0,
            membership_dirty: false,
        };
        // Power-cycles re-seed an active fault plane (the fresh engine's
        // clock restarts, so the same seed would replay the same faults).
        let mut power_cycles: u32 = 0;
        // Fault counters are per-engine lifetimes; fold them into the
        // timeline totals whenever an engine is retired.
        let mut retired_faults = (0u64, 0u64);
        // Consecutive epochs that failed with *no mutation landing
        // mid-epoch* — failures attributable to the fault plane alone.
        // Mutation-disturbed epochs are expected to fail and don't count.
        let mut fault_failures: u32 = 0;
        let mut epochs: Vec<EpochOutcome> = Vec::new();
        // Each mutation can spoil at most the epoch it lands in plus the
        // remap that follows; anything past this cap is a protocol bug.
        let max_epochs = 2 * tl.muts.len() + 3;
        loop {
            tl.fire_due();
            if let Some(last) = epochs.last() {
                // (Every remapped mutation has fired.)
                let last_verified = last.status == EpochStatus::Verified;
                if last_verified && tl.muts.iter().all(|m| m.remap_latency.is_some()) {
                    break;
                }
                if last_verified && tl.fired < tl.muts.len() && tl.engine.is_quiet() {
                    // Nothing to re-map yet: idle the quiet network to the
                    // next mutation tick (O(1) — quiet networks stay quiet).
                    let next = tl.next_mutation_at();
                    tl.engine.skip_lull(next);
                    continue;
                }
                // (A verified epoch can leave mutation-era junk circulating
                // past the settle cap; the non-quiet case falls through so
                // the pristine check below power-cycles before idling.)
                if epochs.len() >= max_epochs {
                    if !faulted {
                        let epochs = epochs.len();
                        return Err(GtdError::RemapDiverged { epochs });
                    }
                    // Graceful degradation instead of an error: the fault
                    // plane (not a protocol bug) kept spoiling epochs.
                    // Re-grade the last epoch by what its master salvaged
                    // and end the timeline.
                    if let Some(last) = epochs.last_mut() {
                        (last.status, last.map) = degrade(last.map.take());
                    }
                    break;
                }
                // Begin a remap: the gentle RESET flood when the network
                // settled cleanly and its membership is intact, a
                // power-cycle otherwise.
                let engine = &tl.engine;
                let can_restart = !tl.membership_dirty
                    && engine.node(tl.root).terminated()
                    && engine.signals_in_flight() == 0
                    && engine.nodes().iter().all(|n| n.snake_state_pristine());
                if can_restart {
                    tl.engine.node_mut(tl.root).master_restart();
                } else {
                    tl.base += engine.tick_count();
                    retired_faults.0 += engine.fault_dropped();
                    retired_faults.1 += engine.fault_delayed();
                    power_cycles += 1;
                    tl.engine = self.build_engine_on(&tl.topo, tl.root, power_cycles);
                    tl.membership_dirty = false;
                }
            }

            // ---- one mapping epoch ----
            let mut ep = Epoch::new(&tl.engine, tl.base, tl.root, self.capture, strict);
            let epoch_fired = tl.fired;
            let budget = self.effective_budget(&tl.topo);
            let budget_at = tl.engine.tick_count().saturating_add(budget);
            let (status, end_tick, map) = loop {
                let limits = Limits {
                    mutation_at: tl.next_mutation_at(),
                    ..Limits::budget(budget_at)
                };
                let end = ep.advance(&mut tl.engine, limits, &mut self.observer)?;
                if !matches!(end, EpochEnd::MutationDue) {
                    break ep.finish(end, &mut tl.engine, &tl.topo, tl.root, 0)?;
                }
                tl.fire_due();
                ep.root = tl.root;
                if self.policy == RemapPolicy::Eager {
                    // Monitoring saw a mutation land mid-epoch: cut the
                    // epoch short and re-map right away.
                    break (EpochStatus::Preempted, tl.now(), None);
                }
            };
            if status == EpochStatus::Verified {
                for m in &mut tl.muts {
                    if let (None, Some(at)) = (m.remap_latency, m.applied_at) {
                        m.remap_latency = Some(end_tick.saturating_sub(at));
                    }
                }
            }
            // Wedge-retry accounting under an active fault plane: only
            // epochs that failed with no mutation landing mid-run count
            // against the retry budget (a mutation-disturbed epoch is
            // *supposed* to fail; the remap that follows is the fix).
            match status {
                EpochStatus::Verified => fault_failures = 0,
                EpochStatus::Preempted => {}
                _ if tl.fired > epoch_fired => fault_failures = 0,
                _ => fault_failures += 1,
            }
            // Retries exhausted: end the timeline with whatever the last
            // master salvaged instead of power-cycling forever.
            let give_up = faulted && fault_failures > self.max_retries;
            let (status, map) = if give_up {
                ep.salvage(map)
            } else {
                (status, map)
            };
            epochs.push(EpochOutcome {
                start_tick: ep.start,
                end_tick,
                status,
                nodes: tl.topo.num_nodes(),
                map,
                events: ep.events,
            });
            if give_up {
                break;
            }
        }
        Ok(RemapOutcome {
            root: self.root,
            final_root: tl.root,
            epochs,
            total_ticks: tl.now(),
            mutations: tl.muts,
            final_topology: tl.topo,
            fault_dropped: retired_faults.0 + tl.engine.fault_dropped(),
            fault_delayed: retired_faults.1 + tl.engine.fault_delayed(),
        })
    }
}

/// The graceful-degradation verdict of a faulted run that gave up: a
/// salvaged map with at least one edge is [`EpochStatus::Partial`],
/// anything else [`EpochStatus::Exhausted`] (and carries no map).
fn degrade(map: Option<NetworkMap>) -> (EpochStatus, Option<NetworkMap>) {
    match map {
        Some(m) if m.num_edges() > 0 => (EpochStatus::Partial, Some(m)),
        _ => (EpochStatus::Exhausted, None),
    }
}

/// Why [`Epoch::advance`] returned.
enum EpochEnd {
    /// The root emitted `Terminated` at this (global) tick.
    Terminated { tick: u64 },
    /// The network went quiet with the root still running: nothing can
    /// ever terminate it.
    Quiet,
    /// The epoch's tick budget ran out.
    Budget,
    /// The progress window passed without a root event.
    Window,
    /// A scheduled mutation is due before the next tick.
    MutationDue,
    /// The transcript stopped decoding (see [`Epoch::error`]) and the
    /// root did not terminate in the same tick.
    MasterDead,
}

/// Where [`Epoch::advance`] stops, in the engine's own ticks
/// (`u64::MAX`: never).
#[derive(Clone, Copy)]
struct Limits {
    /// End of the epoch's tick budget.
    budget_at: u64,
    /// Tick of the next scheduled mutation.
    mutation_at: u64,
    /// Ticks without a root event after which the epoch is wedged.
    window: u64,
}

impl Limits {
    /// A budget and nothing else.
    fn budget(budget_at: u64) -> Self {
        let never = u64::MAX;
        Limits {
            budget_at,
            mutation_at: never,
            window: never,
        }
    }
}

/// Most ticks a terminated epoch may take to go quiet. The master knows
/// the map by then, hence a safe bound; in practice 1–2 ticks.
const SETTLE_CAP: u32 = 1_000;

/// One mapping epoch: the master computer reading the root's transcript
/// while the engine ticks — the paper's §3–4 loop, which every entry
/// point runs as a policy over [`Epoch::advance`] and [`Epoch::finish`].
///
/// A **strict** epoch (no active fault plane, no mutation schedule) treats
/// a transcript event from any processor but the root, an emission after
/// termination and a network that fails to settle as protocol bugs:
/// [`GtdError::Invariant`]. Otherwise strays are dropped and the settle is
/// a bounded best effort (a dropped UNMARK can leave a stray token
/// circulating forever).
struct Epoch {
    /// The master's host (a dynamic run relabels it on `node-leave`).
    root: NodeId,
    /// Global tick of the engine's tick 0 (a dynamic run's power-cycles
    /// swap the engine but not the clock).
    base: u64,
    /// Global tick at which the epoch began.
    start: u64,
    capture: bool,
    strict: bool,
    master: MasterComputer,
    /// The transcript's first decode failure; the master is dead from
    /// then on.
    error: Option<DecodeError>,
    events: Vec<(u64, TranscriptEvent)>,
    stats: RunStats,
    /// Engine tick of the last root event (or of the epoch's start).
    last_progress: u64,
    /// Lifetime drop counters at the epoch's start (see
    /// [`drop_counters`]).
    drops_before: [u64; 3],
    scratch: Vec<(NodeId, TranscriptEvent)>,
}

/// Lifetime drop counters of `engine`: automata, fault-plane drops,
/// fault-plane delays.
fn drop_counters(engine: &Engine<ProtocolNode>) -> [u64; 3] {
    let dropped = engine.nodes().iter().map(|n| n.stat_dropped()).sum();
    [dropped, engine.fault_dropped(), engine.fault_delayed()]
}

impl Epoch {
    fn new(
        engine: &Engine<ProtocolNode>,
        base: u64,
        root: NodeId,
        capture: bool,
        strict: bool,
    ) -> Self {
        Epoch {
            root,
            base,
            start: base + engine.tick_count(),
            capture,
            strict,
            master: MasterComputer::new(),
            error: None,
            events: Vec::new(),
            stats: RunStats::default(),
            last_progress: engine.tick_count(),
            drops_before: drop_counters(engine),
            scratch: Vec::new(),
        }
    }

    /// Tick until the root terminates or a limit, a quiet network or a
    /// dead master ends the epoch. Each root event is classified into
    /// [`RunStats`], handed to the observer, captured and fed to the
    /// master, in that order.
    fn advance(
        &mut self,
        engine: &mut Engine<ProtocolNode>,
        limits: Limits,
        observer: &mut Option<Observer<'_>>,
    ) -> Result<EpochEnd, GtdError> {
        loop {
            let now = engine.tick_count();
            let wedge_at = self.last_progress.saturating_add(limits.window);
            if now >= limits.mutation_at {
                return Ok(EpochEnd::MutationDue);
            } else if now >= limits.budget_at {
                return Ok(EpochEnd::Budget);
            } else if engine.is_quiet() && !engine.node(self.root).terminated() {
                return Ok(EpochEnd::Quiet);
            } else if now >= wedge_at {
                return Ok(EpochEnd::Window);
            }
            // Fast-forward deadline-driven lulls (speed-1 dwells leave
            // whole ticks with nothing to step), capped so every limit
            // fires at exactly the tick a one-by-one loop would reach.
            if engine.skip_lull(limits.budget_at.min(limits.mutation_at).min(wedge_at)) > 0 {
                continue;
            }
            self.scratch.clear();
            engine.tick(&mut self.scratch);
            let t = self.base + engine.tick_count();
            let mut terminated = false;
            for &(nid, ev) in &self.scratch {
                // A mutation-era stray (e.g. a BCA probe event from a
                // disturbed endpoint) is not part of the transcript.
                if nid != self.root && self.strict {
                    return Err(self.invariant(engine, "a non-root processor emitted an event"));
                } else if nid != self.root {
                    continue;
                }
                self.last_progress = engine.tick_count();
                match ev {
                    TranscriptEvent::LoopForward { .. } => self.stats.forwards += 1,
                    TranscriptEvent::LoopBack => self.stats.backs += 1,
                    TranscriptEvent::LocalForward { .. } => self.stats.local_forwards += 1,
                    TranscriptEvent::LocalBack => self.stats.local_backs += 1,
                    TranscriptEvent::Terminated => terminated = true,
                    _ => {}
                }
                if let Some(obs) = observer.as_mut() {
                    obs(t, ev);
                }
                if self.capture {
                    self.events.push((t, ev));
                }
                if self.error.is_none() {
                    self.error = self.master.feed(ev).err();
                }
            }
            if terminated {
                return Ok(EpochEnd::Terminated { tick: t });
            } else if self.error.is_some() {
                return Ok(EpochEnd::MasterDead);
            }
        }
    }

    /// Turn a non-mutation `end` into `(status, global tick, map)`. A
    /// termination settles — at least `min_settle` ticks, then (boundedly)
    /// until the network is quiet — and decodes: the map is
    /// [`EpochStatus::Verified`] against `topo` as seen from `root`, else
    /// [`EpochStatus::Stale`], and missing when the transcript did not
    /// decode ([`Epoch::error`]). Any other end is
    /// [`EpochStatus::Wedged`] at the current tick: the root never
    /// terminated, so its token died, the budget or window ran out, or the
    /// transcript stopped decoding. Only a strict epoch errors.
    fn finish(
        &mut self,
        end: EpochEnd,
        engine: &mut Engine<ProtocolNode>,
        topo: &Topology,
        root: NodeId,
        min_settle: u32,
    ) -> Result<(EpochStatus, u64, Option<NetworkMap>), GtdError> {
        let EpochEnd::Terminated { tick } = end else {
            return Ok((EpochStatus::Wedged, self.base + engine.tick_count(), None));
        };
        for i in 0..SETTLE_CAP {
            if i >= min_settle && engine.is_quiet() {
                break;
            }
            self.scratch.clear();
            engine.tick(&mut self.scratch);
            if self.strict && !self.scratch.is_empty() {
                return Err(self.invariant(engine, "a processor emitted after termination"));
            }
        }
        if self.strict && !engine.is_quiet() {
            return Err(self.invariant(engine, "network failed to settle after termination"));
        }
        let map = self.take_map();
        Ok(match map.as_ref().map(|m| m.verify_against(topo, root)) {
            Some(Ok(())) => (EpochStatus::Verified, tick, map),
            _ => (EpochStatus::Stale, tick, map),
        })
    }

    fn invariant(&self, engine: &Engine<ProtocolNode>, what: &'static str) -> GtdError {
        let tick = self.base + engine.tick_count();
        GtdError::Invariant { what, tick }
    }

    /// The master's map so far — complete once it has accepted
    /// `Terminated` — or none once the transcript stopped decoding.
    fn take_map(&mut self) -> Option<NetworkMap> {
        let master = &mut self.master;
        self.error
            .is_none()
            .then(|| std::mem::take(master).into_partial_map())
    }

    /// The graceful-degradation verdict on a failed epoch: its decoded
    /// map, else whatever partial map its master holds (see [`degrade`]).
    fn salvage(&mut self, decoded: Option<NetworkMap>) -> (EpochStatus, Option<NetworkMap>) {
        degrade(decoded.or_else(|| self.take_map()))
    }

    /// The transcript counters plus the drops of this epoch alone.
    fn stats(&self, engine: &Engine<ProtocolNode>) -> RunStats {
        let [dropped, fault_dropped, fault_delayed] = drop_counters(engine);
        let [d0, f0, l0] = self.drops_before;
        RunStats {
            dropped: dropped.saturating_sub(d0),
            fault_dropped: fault_dropped.saturating_sub(f0),
            fault_delayed: fault_delayed.saturating_sub(l0),
            ..self.stats
        }
    }
}

/// A dynamic run's live network: the mutated topology, the engine on it
/// and how far the schedule has fired.
struct Timeline {
    engine: Engine<ProtocolNode>,
    topo: Topology,
    /// The master's host: `node-leave` below the root shifts its id.
    root: NodeId,
    /// Global timeline tick of the current engine's tick 0.
    base: u64,
    muts: Vec<MutationOutcome>,
    fired: usize,
    /// Did membership change since this engine's automata were built? If
    /// so, the next remap must power-cycle (lost members invalidate the
    /// RESET-flood shortcut).
    membership_dirty: bool,
}

impl Timeline {
    fn now(&self) -> u64 {
        self.base + self.engine.tick_count()
    }

    /// Engine tick of the next unfired mutation (`u64::MAX`: none).
    fn next_mutation_at(&self) -> u64 {
        let next = self.muts.get(self.fired);
        next.map_or(u64::MAX, |m| m.scheduled.tick.saturating_sub(self.base))
    }

    /// Apply every mutation whose tick has arrived (between ticks).
    fn fire_due(&mut self) {
        while let Some(m) = self.muts.get_mut(self.fired) {
            if m.scheduled.tick > self.base + self.engine.tick_count() {
                break;
            }
            let mutation = m.scheduled.mutation;
            let kind = if mutation.kind == MutationKind::NodeRestart {
                // A node-restart is structurally the identity — no
                // rewiring, no membership change — so it bypasses the
                // topology plumbing entirely and power-cycles one live
                // automaton in place: the victim goes dark for
                // `RESTART_DOWNTIME` ticks, consumes (and drops) whatever
                // arrives meanwhile, then rejoins with factory-state
                // amnesia (no DFS mark, no RESET parity). The running
                // epoch usually wedges and re-maps, exercising exactly the
                // paper's §1.2.2 transient-fault recovery story.
                let victim = restart_victim(&self.topo, mutation.selector, self.root);
                let now = self.engine.tick_count();
                self.engine.node_mut(victim).restart(now);
                MutationKind::NodeRestart
            } else {
                let applied = self.topo.apply_or_fallback_rooted(&mutation, self.root);
                self.topo = applied.topology;
                let passive = &mut |meta| ProtocolNode::new(&meta, StartBehavior::Passive);
                self.engine
                    .apply_topology_with(&self.topo, applied.membership, passive);
                self.root = applied.membership.relabel(self.root);
                self.membership_dirty |= applied.membership != MembershipChange::None;
                applied.kind
            };
            m.applied_at = Some(self.base + self.engine.tick_count());
            m.applied_as = Some(kind);
            self.fired += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtd_netsim::{generators, NodeId, TopologyBuilder};

    #[test]
    fn session_defaults_match_protocol_contract() {
        let topo = generators::ring(5);
        let out = GtdSession::on(&topo).run().unwrap();
        out.map.verify_against(&topo, NodeId(0)).unwrap();
        assert_eq!(out.stats.edges_reported(), topo.num_edges());
        assert!(out.clean_at_end);
        assert!(out.all_visited);
        assert_eq!(out.root, NodeId(0));
        // tick-stamped transcript brackets the run
        assert!(matches!(
            out.events.first(),
            Some(&(_, TranscriptEvent::Start))
        ));
        assert!(matches!(
            out.events.last(),
            Some(&(_, TranscriptEvent::Terminated))
        ));
    }

    #[test]
    fn two_cycle_maps_exactly() {
        // the smallest legal network: one bidirectional pair (§1.1)
        let topo = generators::ring(2);
        let run = GtdSession::on(&topo).mode(EngineMode::Dense).run().unwrap();
        run.map.verify_against(&topo, NodeId(0)).unwrap();
        assert_eq!(run.map.num_nodes(), 2);
        assert_eq!(run.map.num_edges(), 2);
        assert_eq!(run.stats.edges_reported(), 2);
        assert!(run.clean_at_end, "Lemma 4.2 violated");
        assert!(run.all_visited);
    }

    #[test]
    fn non_default_root_maps_exactly() {
        let topo = generators::random_sc(18, 3, 4);
        for root in [1u32, 9, 17] {
            let out = GtdSession::on(&topo).root(NodeId(root)).run().unwrap();
            out.map.verify_against(&topo, NodeId(root)).unwrap();
            assert!(out.clean_at_end);
        }
    }

    #[test]
    fn budget_exhaustion_is_structured() {
        let topo = generators::ring(12);
        match GtdSession::on(&topo).tick_budget(25).run() {
            Err(GtdError::BudgetExhausted { budget: 25, ticks }) => assert!(ticks >= 25),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn not_strongly_connected_is_rejected_up_front() {
        // two 2-cycles bridged one way: valid wiring, not strongly connected
        let mut b = TopologyBuilder::new(4, 2);
        b.connect_auto(NodeId(0), NodeId(1)).unwrap();
        b.connect_auto(NodeId(1), NodeId(0)).unwrap();
        b.connect_auto(NodeId(2), NodeId(3)).unwrap();
        b.connect_auto(NodeId(3), NodeId(2)).unwrap();
        b.connect_auto(NodeId(1), NodeId(2)).unwrap();
        let topo = b.build().unwrap();
        assert_eq!(
            GtdSession::on(&topo).run().unwrap_err(),
            GtdError::Precondition(PreconditionViolation::NotStronglyConnected)
        );
    }

    #[test]
    fn non_runnable_start_behaviour_is_rejected_up_front() {
        // A passive root would never emit `Terminated` and would burn the
        // whole default budget; the session rejects it before simulating.
        let topo = generators::ring(4);
        assert_eq!(
            GtdSession::on(&topo)
                .start(StartBehavior::Passive)
                .run()
                .unwrap_err(),
            GtdError::Precondition(PreconditionViolation::StartNotRunnable(
                StartBehavior::Passive
            ))
        );
    }

    #[test]
    fn bogus_root_is_rejected_up_front() {
        let topo = generators::ring(3);
        assert_eq!(
            GtdSession::on(&topo).root(NodeId(99)).run().unwrap_err(),
            GtdError::Precondition(PreconditionViolation::RootOutOfRange {
                root: NodeId(99),
                nodes: 3
            })
        );
    }

    /// The `(tick, event)` pairs `run` hands the session's observer.
    fn observed<T>(
        session: GtdSession,
        run: impl FnOnce(GtdSession) -> T,
    ) -> (Vec<(u64, TranscriptEvent)>, T) {
        let mut streamed = Vec::new();
        let out = run(session.observer(|t, e| streamed.push((t, e))));
        (streamed, out)
    }

    #[test]
    fn observer_streams_the_whole_transcript() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::ring(16);
        let (streamed, out) = observed(GtdSession::on(&topo), |s| s.run().unwrap());
        assert_eq!(streamed, out.events);
        let (streamed, rounds) = observed(GtdSession::on(&topo), |s| s.run_repeated(2).unwrap());
        assert_eq!(
            streamed,
            [&rounds[0].events[..], &rounds[1].events].concat()
        );
        // A preempted epoch streams its events too, in timeline order.
        let leave = TopologyMutation {
            kind: MutationKind::NodeLeave,
            selector: 3,
        };
        let eager = GtdSession::on(&topo).policy(RemapPolicy::Eager);
        let (streamed, out) = observed(eager, |s| {
            s.run_dynamic(&MutationSchedule::new().with(100, leave))
                .unwrap()
        });
        assert_eq!(out.epochs[0].status, EpochStatus::Preempted);
        let epochs: Vec<_> = out.epochs.iter().map(|e| &e.events[..]).collect();
        assert_eq!(streamed, epochs.concat());
        // So do failed attempts; the outcome keeps the winner's.
        let lossy = GtdSession::on(&topo).faults(FaultPlane {
            loss: 0.05,
            delay_min: 0,
            delay_max: 0,
            seed: 7,
        });
        let (streamed, res) = observed(lossy, |s| s.run_resilient().unwrap());
        assert!(res.attempts.len() > 1 && streamed.len() > res.events.len());
        assert!(streamed.ends_with(&res.events));
    }

    #[test]
    fn zero_rounds_simulate_nothing() {
        let topo = generators::ring(4);
        assert!(GtdSession::on(&topo).run_repeated(0).unwrap().is_empty());
    }

    #[test]
    fn every_epoch_end_is_reachable() {
        let topo = generators::ring(6);
        let never = Limits::budget(u64::MAX);
        // One epoch on a fresh engine (master on n0), watching `root`, its
        // master optionally fed one event first.
        let end = |s: GtdSession, root, strict, limits, prime| {
            let mut engine = s.build_engine_on(&topo, NodeId(0), 0);
            let mut ep = Epoch::new(&engine, 0, root, true, strict);
            if let Some(ev) = prime {
                ep.master.feed(ev).unwrap();
            }
            ep.advance(&mut engine, limits, &mut None)
        };
        let on = || GtdSession::on(&topo);
        let at = |t| Limits::budget(t);
        let (n0, n1) = (NodeId(0), NodeId(1));
        assert!(matches!(
            end(on(), n0, true, never, None),
            Ok(EpochEnd::Terminated { .. })
        ));
        assert!(matches!(
            end(on(), n0, true, at(20), None),
            Ok(EpochEnd::Budget)
        ));
        let window = Limits { window: 1, ..never };
        assert!(matches!(
            end(on(), n0, true, window, None),
            Ok(EpochEnd::Window)
        ));
        let mutation = Limits {
            mutation_at: 30,
            ..never
        };
        assert!(matches!(
            end(on(), n0, true, mutation, None),
            Ok(EpochEnd::MutationDue)
        ));
        // A passive root never starts the DFS: the network is quiet at once.
        let passive = on().start(StartBehavior::Passive);
        assert!(matches!(
            end(passive, n0, true, never, None),
            Ok(EpochEnd::Quiet)
        ));
        // A master that already saw `Start` rejects the root's own.
        let primed = end(on(), n0, true, never, Some(TranscriptEvent::Start));
        assert!(matches!(primed, Ok(EpochEnd::MasterDead)));
        // Watching n1 makes n0's events strays: a bug when strict, else
        // dropped.
        assert!(matches!(
            end(on(), n1, true, never, None),
            Err(GtdError::Invariant { .. })
        ));
        assert!(matches!(
            end(on(), n1, false, never, None),
            Ok(EpochEnd::Quiet)
        ));
    }

    #[test]
    fn capture_off_still_produces_the_map() {
        let topo = generators::random_sc(16, 3, 2);
        let out = GtdSession::on(&topo)
            .capture_transcript(false)
            .run()
            .unwrap();
        assert!(out.events.is_empty());
        assert_eq!(out.phases, PhaseBreakdown::default());
        out.map.verify_against(&topo, NodeId(0)).unwrap();
    }

    #[test]
    fn phase_breakdown_covers_most_of_the_run() {
        let topo = generators::ring(8);
        let out = GtdSession::on(&topo).run().unwrap();
        assert_eq!(out.phases.rcas, out.stats.rcas());
        assert!(out.phases.total() <= out.ticks);
        assert!(
            out.phases.total() * 10 >= out.ticks * 8,
            "breakdown should cover >= 80% of the run: {} vs {}",
            out.phases.total(),
            out.ticks
        );
    }

    #[test]
    fn repeated_rounds_reproduce_the_map() {
        let topo = generators::random_sc(16, 3, 21);
        let outs = GtdSession::on(&topo)
            .mode(EngineMode::Dense)
            .run_repeated(2)
            .unwrap();
        assert_eq!(outs.len(), 2);
        for o in &outs {
            assert!(o.clean_at_end);
            o.map.verify_against(&topo, NodeId(0)).unwrap();
        }
    }

    #[test]
    fn dynamic_run_with_empty_schedule_matches_a_static_run() {
        use gtd_netsim::MutationSchedule;
        let topo = generators::random_sc(14, 3, 6);
        let plain = GtdSession::on(&topo).run().unwrap();
        let dynamic = GtdSession::on(&topo)
            .run_dynamic(&MutationSchedule::new())
            .unwrap();
        assert_eq!(dynamic.epochs.len(), 1);
        assert_eq!(dynamic.epochs[0].status, EpochStatus::Verified);
        assert_eq!(dynamic.epochs[0].map.as_ref(), Some(&plain.map));
        assert_eq!(dynamic.initial_ticks(), plain.ticks);
        assert_eq!(dynamic.epochs[0].events, plain.events);
        assert!(dynamic.mutations.is_empty());
        assert_eq!(dynamic.final_topology, topo);
        assert!(dynamic.final_verified());
    }

    #[test]
    fn mid_run_mutation_is_detected_and_remapped() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(16, 3, 3);
        // t=40 lands well inside the first mapping run
        let schedule = MutationSchedule::new().with(
            40,
            TopologyMutation {
                kind: MutationKind::RewirePort,
                selector: 2,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert!(out.final_verified());
        assert_eq!(out.mutations.len(), 1);
        let m = &out.mutations[0];
        assert_eq!(m.applied_at, Some(40));
        assert_eq!(m.applied_as, Some(MutationKind::RewirePort));
        let latency = m.remap_latency.expect("remap latency populated");
        assert!(latency > 0);
        // the final epoch's map matches the mutated network, not the base
        let final_map = out.epochs.last().unwrap().map.as_ref().unwrap();
        final_map
            .verify_against(&out.final_topology, NodeId(0))
            .unwrap();
        assert_ne!(out.final_topology, topo);
        assert!(final_map.verify_against(&topo, NodeId(0)).is_err());
    }

    #[test]
    fn post_termination_mutation_uses_the_reset_flood_remap() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(12, 3, 9);
        let first = GtdSession::on(&topo).run().unwrap();
        // schedule far past the first run: the network idles, then remaps
        let tick = first.ticks + 5_000;
        let schedule = MutationSchedule::new().with(
            tick,
            TopologyMutation {
                kind: MutationKind::AddEdge,
                selector: 7,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert_eq!(out.epochs.len(), 2, "one clean map, one clean remap");
        assert_eq!(out.epochs[0].status, EpochStatus::Verified);
        assert_eq!(out.epochs[1].status, EpochStatus::Verified);
        assert_eq!(out.mutations[0].applied_at, Some(tick));
        // the remap began at the mutation, so latency = remap epoch ticks
        assert_eq!(
            out.mutations[0].remap_latency,
            Some(out.epochs[1].end_tick - tick)
        );
        assert!(out.total_ticks >= tick);
    }

    #[test]
    fn inapplicable_mutations_fall_back_to_a_label_swap() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        // a directed ring cannot lose a wire: every edge is a bridge
        let topo = generators::ring(8);
        let schedule = MutationSchedule::new().with(
            30,
            TopologyMutation {
                kind: MutationKind::DropEdge,
                selector: 3,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert!(out.final_verified());
        assert_eq!(out.mutations[0].applied_as, Some(MutationKind::SwapLabels));
        assert!(out.mutations[0].remap_latency.is_some());
        assert_eq!(out.final_topology.num_edges(), topo.num_edges());
    }

    #[test]
    fn node_join_grows_the_network_and_is_remapped() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(14, 3, 8);
        let schedule = MutationSchedule::new().with(
            50,
            TopologyMutation {
                kind: MutationKind::NodeJoin,
                selector: 2,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert!(out.final_verified());
        assert_eq!(out.final_topology.num_nodes(), 15);
        assert_eq!(out.final_root, NodeId(0));
        let nodes = out.epoch_nodes();
        assert_eq!(*nodes.last().unwrap(), 15);
        out.epochs
            .last()
            .unwrap()
            .map
            .as_ref()
            .unwrap()
            .verify_against(&out.final_topology, NodeId(0))
            .unwrap();
    }

    #[test]
    fn node_leave_shrinks_the_network_and_tracks_the_root() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(14, 3, 8);
        let schedule = MutationSchedule::new().with(
            60,
            TopologyMutation {
                kind: MutationKind::NodeLeave,
                selector: 0,
            },
        );
        // a high root exercises the id shift when a lower node leaves
        let out = GtdSession::on(&topo)
            .root(NodeId(13))
            .run_dynamic(&schedule)
            .unwrap();
        assert!(out.final_verified());
        assert_eq!(out.final_topology.num_nodes(), 13);
        assert_eq!(out.root, NodeId(13));
        let m = &out.mutations[0];
        assert_eq!(m.applied_as, Some(MutationKind::NodeLeave));
        assert!(m.remap_latency.is_some());
        // the departed node's id was below the root, so the root shifted
        assert_eq!(out.final_root, NodeId(12));
        out.epochs
            .last()
            .unwrap()
            .map
            .as_ref()
            .unwrap()
            .verify_against(&out.final_topology, out.final_root)
            .unwrap();
    }

    #[test]
    fn membership_changes_force_a_power_cycle_remap() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(12, 3, 9);
        let first = GtdSession::on(&topo).run().unwrap();
        // schedule far past the first run: post-termination, where a
        // wire-level mutation would take the RESET-flood shortcut
        let tick = first.ticks + 5_000;
        let schedule = MutationSchedule::new().with(
            tick,
            TopologyMutation {
                kind: MutationKind::NodeJoin,
                selector: 1,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert_eq!(out.epochs.len(), 2);
        assert_eq!(out.epochs[1].status, EpochStatus::Verified);
        assert_eq!(out.epochs[1].nodes, 13);
        // a power-cycled remap re-emits Start from a fresh automaton set;
        // its transcript begins at the epoch's own start tick
        assert!(out.epochs[1].events.first().unwrap().0 >= tick);
        assert!(out.final_verified());
    }

    #[test]
    fn eager_policy_preempts_a_disturbed_epoch() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::ring(16);
        let schedule = MutationSchedule::new().with(
            100,
            TopologyMutation {
                kind: MutationKind::NodeLeave,
                selector: 3,
            },
        );
        let eager = GtdSession::on(&topo)
            .policy(RemapPolicy::Eager)
            .run_dynamic(&schedule)
            .unwrap();
        assert!(eager.final_verified());
        assert_eq!(eager.epochs[0].status, EpochStatus::Preempted);
        assert!(eager.epochs[0].map.is_none());
        let lazy = GtdSession::on(&topo)
            .policy(RemapPolicy::Lazy)
            .run_dynamic(&schedule)
            .unwrap();
        assert!(lazy.final_verified());
        assert_ne!(lazy.epochs[0].status, EpochStatus::Preempted);
        // eager bounds the remap latency by one fresh run; lazy pays the
        // disturbed epoch's tail on top
        let (e, l) = (
            eager.mutations[0].remap_latency.unwrap(),
            lazy.mutations[0].remap_latency.unwrap(),
        );
        assert!(e <= l, "eager {e} vs lazy {l}");
    }

    #[test]
    fn remap_policy_names_round_trip() {
        for p in RemapPolicy::ALL {
            assert_eq!(p.name().parse::<RemapPolicy>().unwrap(), p);
        }
        assert!("eventually".parse::<RemapPolicy>().is_err());
        assert_eq!(RemapPolicy::default(), RemapPolicy::Lazy);
    }

    #[test]
    fn resilient_without_faults_matches_a_plain_run() {
        let topo = generators::random_sc(14, 3, 6);
        let plain = GtdSession::on(&topo).run().unwrap();
        let res = GtdSession::on(&topo).run_resilient().unwrap();
        assert!(res.verified());
        assert_eq!(res.attempts.len(), 1, "no plane, no retries");
        assert_eq!(res.retries(), 0);
        assert_eq!(res.map.as_ref(), Some(&plain.map));
        assert_eq!(res.ticks, plain.ticks);
        assert_eq!(res.events, plain.events);
        assert_eq!(res.stats.fault_dropped, 0);
        assert_eq!(res.stats.fault_delayed, 0);
        assert_eq!(res.stats.retries, 0);
    }

    #[test]
    fn constant_delay_stretches_the_run_but_still_verifies() {
        // A degenerate delay span shifts every character uniformly: FIFO
        // and stream contiguity are preserved, so the protocol merely
        // runs slower — no retries, exact map.
        let topo = generators::ring(10);
        let plain = GtdSession::on(&topo).run().unwrap();
        let res = GtdSession::on(&topo)
            .faults(FaultPlane {
                loss: 0.0,
                delay_min: 2,
                delay_max: 2,
                seed: 5,
            })
            .run_resilient()
            .unwrap();
        assert!(
            res.verified(),
            "uniform shift must verify: {:?}",
            res.status
        );
        res.map
            .as_ref()
            .unwrap()
            .verify_against(&topo, NodeId(0))
            .unwrap();
        assert_eq!(res.stats.fault_dropped, 0);
        assert!(res.stats.fault_delayed > 0);
        assert!(res.ticks > plain.ticks, "delay must cost wall-clock ticks");
    }

    #[test]
    fn lossy_resilient_runs_are_structured_and_deterministic() {
        let topo = generators::ring(16);
        let plane = FaultPlane {
            loss: 0.05,
            delay_min: 0,
            delay_max: 0,
            seed: 7,
        };
        let run = || GtdSession::on(&topo).faults(plane).run_resilient().unwrap();
        let a = run();
        assert_eq!(a, run(), "faulted sessions replay byte-identically");
        assert!(matches!(
            a.status,
            EpochStatus::Verified | EpochStatus::Partial | EpochStatus::Exhausted
        ));
        assert_eq!(a.stats.retries as usize + 1, a.attempts.len());
        assert!(a.stats.fault_dropped > 0, "a 5% plane must bite");
        match &a.map {
            Some(m) if a.verified() => m.verify_against(&topo, NodeId(0)).unwrap(),
            Some(m) => assert!(m.num_edges() > 0, "partial maps carry real edges"),
            None => assert_eq!(a.status, EpochStatus::Exhausted),
        }
    }

    #[test]
    fn faulted_outcomes_are_identical_across_engine_modes() {
        let topo = generators::random_sc(12, 3, 5);
        let plane = FaultPlane {
            loss: 0.04,
            delay_min: 1,
            delay_max: 2,
            seed: 11,
        };
        let run = |mode| {
            GtdSession::on(&topo)
                .mode(mode)
                .faults(plane)
                .run_resilient()
                .unwrap()
        };
        let d = run(EngineMode::Dense);
        assert_eq!(d, run(EngineMode::Sparse), "dense vs sparse");
        assert_eq!(d, run(EngineMode::Parallel), "dense vs parallel");
    }

    #[test]
    fn total_loss_exhausts_every_attempt() {
        let topo = generators::ring(6);
        let res = GtdSession::on(&topo)
            .faults(FaultPlane {
                loss: 1.0,
                delay_min: 0,
                delay_max: 0,
                seed: 1,
            })
            .max_retries(2)
            .run_resilient()
            .unwrap();
        assert_eq!(res.status, EpochStatus::Exhausted);
        assert!(res.map.is_none());
        assert_eq!(res.attempts.len(), 3, "first try + two retries");
        assert_eq!(res.retries(), 2);
        assert_eq!(res.stats.retries, 2);
        assert!(res.attempts.iter().all(|a| a.status == EpochStatus::Wedged));
        assert!(res.stats.fault_dropped > 0);
    }

    #[test]
    fn node_restart_mutation_is_survived_and_remapped() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(14, 3, 8);
        // t=60 lands mid-epoch: the victim goes dark with amnesia, the
        // disturbed epoch fails and the master re-maps.
        let schedule = MutationSchedule::new().with(
            60,
            TopologyMutation {
                kind: MutationKind::NodeRestart,
                selector: 3,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert!(out.final_verified());
        assert_eq!(out.final_topology, topo, "a restart rewires nothing");
        let m = &out.mutations[0];
        assert_eq!(m.applied_at, Some(60));
        assert_eq!(m.applied_as, Some(MutationKind::NodeRestart));
        assert!(m.remap_latency.is_some());
        assert_eq!(out.fault_dropped, 0, "no wire plane was configured");
    }

    #[test]
    fn node_restart_after_termination_forces_a_fresh_map() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(12, 3, 9);
        let first = GtdSession::on(&topo).run().unwrap();
        // Post-termination restart: the victim misses the RESET flood
        // while dark (parity desync) — the session must still converge.
        let tick = first.ticks + 5_000;
        let schedule = MutationSchedule::new().with(
            tick,
            TopologyMutation {
                kind: MutationKind::NodeRestart,
                selector: 5,
            },
        );
        let out = GtdSession::on(&topo).run_dynamic(&schedule).unwrap();
        assert!(out.final_verified());
        assert!(out.epochs.len() >= 2, "the restart must trigger a remap");
        assert_eq!(out.mutations[0].applied_as, Some(MutationKind::NodeRestart));
        assert_eq!(out.final_topology, topo);
    }

    #[test]
    fn heavily_faulted_dynamic_timeline_degrades_gracefully() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        // loss=0.6 on a ring destroys every mapping attempt; the timeline
        // must end Ok with a structured degraded status, never hang or
        // return RemapDiverged.
        let topo = generators::ring(8);
        let schedule = MutationSchedule::new().with(
            50,
            TopologyMutation {
                kind: MutationKind::SwapLabels,
                selector: 1,
            },
        );
        let out = GtdSession::on(&topo)
            .faults(FaultPlane {
                loss: 0.6,
                delay_min: 0,
                delay_max: 0,
                seed: 3,
            })
            .max_retries(1)
            .run_dynamic(&schedule)
            .unwrap();
        assert!(out.final_degraded(), "expected graceful degradation");
        let last = out.epochs.last().unwrap();
        assert!(matches!(
            last.status,
            EpochStatus::Partial | EpochStatus::Exhausted
        ));
        if last.status == EpochStatus::Partial {
            assert!(last.map.as_ref().unwrap().num_edges() > 0);
        }
        assert!(out.fault_dropped > 0);
    }

    #[test]
    fn dynamic_runs_are_identical_across_engine_modes() {
        use gtd_netsim::{MutationKind, MutationSchedule, TopologyMutation};
        let topo = generators::random_sc(16, 3, 11);
        let schedule = MutationSchedule::new()
            .with(
                60,
                TopologyMutation {
                    kind: MutationKind::DropEdge,
                    selector: 1,
                },
            )
            .with(
                200,
                TopologyMutation {
                    kind: MutationKind::AddEdge,
                    selector: 4,
                },
            );
        let runs: Vec<RemapOutcome> = [EngineMode::Dense, EngineMode::Sparse, EngineMode::Parallel]
            .into_iter()
            .map(|mode| {
                GtdSession::on(&topo)
                    .mode(mode)
                    .run_dynamic(&schedule)
                    .unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "dense vs sparse");
        assert_eq!(runs[0], runs[2], "dense vs parallel");
        assert!(runs[0].final_verified());
    }
}
