//! The protocol automaton — one identical finite-state processor (§1.1).
//!
//! [`ProtocolNode`] composes the snake/token components of `gtd-snake` with
//! four small drivers:
//!
//! * **root responder** ([`RootRca`]) — the root's side of every RCA:
//!   convert the first incoming IG snake to the OG snake, later convert the
//!   ID snake to the OD snake, transcribe everything (§4.2.1 steps 2–3);
//! * **RCA driver** ([`RcaState`]) — the initiator A's side: release IG
//!   snakes, eat the first returning OG head, launch the ID snake, then
//!   KILL + loop token + UNMARK (§4.2.1 steps 1, 3–5);
//! * **BCA driver** ([`BcaState`]) — our reconstruction of Ostrovsky &
//!   Wilkerson's backwards communication (DESIGN.md §5): BG flood, BD loop
//!   marking with endpoint self-detection, KILL + payload token, UNMARK
//!   absorbed at the target;
//! * **DFS driver** ([`DfsState`]) — the Global Topology Determination
//!   algorithm of §3: forward moves carry the DFS token directly, backward
//!   moves ride the BCA, and every receipt triggers an RCA with FORWARD or
//!   BACK (the root transcribes its own moves locally).
//!
//! Everything a processor does here is a function of its constant-size
//! state and the characters on its ports — node identity is never consulted
//! (the paper's processors are anonymous; only the `is_root` power-on flag
//! differs).

use crate::events::{RcaReport, TranscriptEvent};
use gtd_netsim::{Automaton, NodeMeta, Port, PortMask, StepCtx};
use gtd_snake::{
    BcaMsg, DfsToken, DwellSpill, DyingPassage, GrowEmit, GrowRelay, Hop, LoopMarks, LoopToken,
    MarkPair, Presence, Signal, SnakeChar, SnakeKind, SPEED1_DWELL,
};

type Ctx<'a> = StepCtx<'a, Signal, TranscriptEvent>;

/// Downtime (in ticks) a power-cycled processor spends dark before it
/// rejoins with amnesia — the `node-restart` fault's fixed repair time.
/// Long enough that in-flight characters addressed to the old
/// incarnation die against the dark window rather than racing the fresh
/// power-on.
pub const RESTART_DOWNTIME: u64 = 24;

/// What a processor does when first powered on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StartBehavior {
    /// The root of a full Global Topology Determination run: start the DFS.
    GtdRoot,
    /// Probe: run one standalone RCA (report = BACK) and emit
    /// [`TranscriptEvent::RcaComplete`] — used by experiment E3.
    SingleRca,
    /// Probe: run one standalone BCA through in-port `via` and emit
    /// [`TranscriptEvent::BcaComplete`] — used by experiment E4.
    SingleBca {
        /// The in-port whose wire the message crosses backwards.
        via: Port,
    },
    /// Wait quietly for the network (every non-root processor; also the
    /// root when probing RCAs/BCAs elsewhere).
    Passive,
}

/// What the DFS does once the current RCA completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AfterRca {
    /// Fresh visit: begin exploring our out-ports.
    Descend,
    /// Re-visit: return the token backwards through in-port `via`.
    Bounce { via: Port },
    /// A BCA brought our token back: mark the port finished and move on.
    Advance,
    /// Standalone probe: report completion.
    ProbeDone,
}

/// Initiator-side RCA phases (§4.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RcaState {
    Idle,
    /// Step 1 done (IG snakes released); waiting for the first OG head.
    AwaitOg {
        report: RcaReport,
        after: AfterRca,
    },
    /// Converting OG→ID; waiting for the OD tail (step 3).
    AwaitOdTail {
        report: RcaReport,
        after: AfterRca,
    },
    /// Step 4: KILL + loop token released; waiting for the token to circle.
    AwaitLoopReturn {
        after: AfterRca,
    },
    /// Step 5: UNMARK released; waiting for it to circle.
    AwaitUnmarkReturn {
        after: AfterRca,
    },
}

/// Root-side RCA phases (§4.2.1 steps 2–3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RootRca {
    /// Open to IG snakes.
    Open,
    /// Adopted an IG stream; converting it to the OG snake.
    ConvertingIg,
    /// IG tail passed; closed to IG; waiting for the ID snake.
    AwaitId,
    /// Converting ID→OD.
    ConvertingId,
    /// Conversion done; the loop token and UNMARK will pass through; the
    /// UNMARK reopens us.
    LoopPhase,
}

/// Initiator-side BCA phases (DESIGN.md §5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BcaState {
    Idle,
    /// BG snakes released; waiting for the first BG head to return through
    /// the designated in-port.
    AwaitBgHead {
        via: Port,
    },
    /// Converting the returning BG stream into the BD loop-marking snake.
    Converting {
        via: Port,
    },
    /// Conversion done; waiting for the physical BD tail to circle the loop.
    AwaitBdTail {
        via: Port,
    },
    /// KILL + payload token released; waiting for the token to circle.
    AwaitLoopReturn,
}

/// DFS bookkeeping (§3). This state intentionally survives the protocol:
/// the paper's DFS marks (parent in-port, finished out-ports) are never
/// cleaned up — only snake/token state is (Lemma 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct DfsState {
    visited: bool,
    parent: Option<Port>,
    /// Out-ports below this index (into the connected-out-port list) are
    /// finished; the one at it is being explored.
    cursor: usize,
    /// Waiting for the DFS token to come back through a BCA.
    awaiting: bool,
    /// Root only: the terminal state has been reached.
    done: bool,
}

/// The identical synchronous finite-state processor of the paper.
#[derive(Clone, Debug)]
pub struct ProtocolNode {
    // -- static configuration (power-on facts) --
    is_root: bool,
    delta: u8,
    out_ports: PortMask,
    start: StartBehavior,
    started: bool,

    // -- snake & token components --
    ig: GrowRelay,
    og: GrowRelay,
    bg: GrowRelay,
    /// ID lane: passage on the A→root half; at the RCA initiator, the
    /// OG→ID conversion.
    dying_id: DyingPassage,
    /// OD lane: passage on the root→A half; at the root, the ID→OD
    /// conversion.
    dying_od: DyingPassage,
    /// BD lane: BCA loop marking; at B, the BG→BD conversion.
    dying_bd: DyingPassage,
    /// Where the six lanes above keep characters past their four inline
    /// slots (never on a clean run), and the count of characters lost
    /// to power cycles: relay drop counts retired at
    /// [`ProtocolNode::restart`] (amnesia would otherwise zero them) plus
    /// everything consumed while dark. Keeps
    /// [`ProtocolNode::stat_dropped`] monotonic across restarts.
    spill: DwellSpill,
    marks: LoopMarks,
    /// A loop token dwelling here (speed-1), with its emission deadline and
    /// successor out-port.
    pending_loop: Option<(u64, LoopToken, Port)>,
    /// BCA payload captured by the loop's endpoint, acted on at UNMARK.
    pending_bca: Option<BcaMsg>,

    // -- drivers --
    rca: RcaState,
    root_rca: RootRca,
    bca: BcaState,
    bca_probe: bool,
    dfs: DfsState,
    /// Root only: the master computer asked for a re-map; on the next step
    /// the root floods RESET and restarts the DFS (re-mapping extension).
    pending_restart: bool,
    /// Re-map round parity: a RESET is accepted only when its stamp
    /// differs, so straggler flood copies are idempotent within a round.
    reset_parity: bool,
    /// `node-restart` fault: while `tick < offline_until` the processor
    /// is dark — it consumes (and loses) every arriving character and
    /// emits nothing. 0 on processors that never restarted.
    offline_until: u64,

    // -- simulator-side counters (diagnostics/experiments only; a real
    // finite-state processor would not carry these) --
    /// KILL tokens this processor accepted (erasures performed).
    pub stat_kills_accepted: u64,
    /// RCAs initiated here.
    pub stat_rcas_started: u64,
    /// BCAs initiated here.
    pub stat_bcas_started: u64,
    /// High-water mark of characters dwelling here at once.
    pub stat_max_chars: usize,
}

// A saturated tick streams every processor's state once: at n = 1M a byte
// here is a megabyte of traffic per tick. The six dwell lanes hold their
// characters inline, and the lanes that outgrow them share one pointer.
const _: () = assert!(std::mem::size_of::<ProtocolNode>() <= 256);

impl ProtocolNode {
    /// Snake characters this processor lost: refused at capacity by the
    /// bounded growing-snake queues, plus everything a `node-restart`
    /// power cycle destroyed (lifetime total; 0 on clean runs).
    pub fn stat_dropped(&self) -> u64 {
        self.spill.dropped()
    }

    /// Dwell lanes that ever held more than four characters at once (or
    /// refused one at capacity) since power-on. 0 on clean runs: the
    /// automaton's lanes stay in their inline slots.
    pub fn spilled_lanes(&self) -> usize {
        self.spill.spilled_lanes()
    }
}

impl ProtocolNode {
    /// Build the processor for one network position. `start` is
    /// [`StartBehavior::GtdRoot`] on the root for a full GTD run.
    pub fn new(meta: &NodeMeta, start: StartBehavior) -> Self {
        let out_ports = meta.out_connected;
        assert!(
            !out_ports.is_empty(),
            "the model requires a connected out-port"
        );
        if matches!(start, StartBehavior::GtdRoot) {
            assert!(meta.is_root, "GtdRoot behaviour belongs on the root");
        }
        ProtocolNode {
            is_root: meta.is_root,
            delta: meta.delta,
            out_ports,
            start,
            started: false,
            ig: GrowRelay::new(SnakeKind::Ig),
            og: GrowRelay::new(SnakeKind::Og),
            bg: GrowRelay::new(SnakeKind::Bg),
            dying_id: DyingPassage::new(SnakeKind::Id),
            dying_od: DyingPassage::new(SnakeKind::Od),
            dying_bd: DyingPassage::new(SnakeKind::Bd),
            spill: DwellSpill::default(),
            marks: LoopMarks::new(),
            pending_loop: None,
            pending_bca: None,
            rca: RcaState::Idle,
            root_rca: RootRca::Open,
            bca: BcaState::Idle,
            bca_probe: false,
            pending_restart: false,
            reset_parity: false,
            offline_until: 0,
            stat_kills_accepted: 0,
            stat_rcas_started: 0,
            stat_bcas_started: 0,
            stat_max_chars: 0,
            dfs: DfsState {
                visited: meta.is_root,
                parent: None,
                cursor: 0,
                awaiting: false,
                done: false,
            },
        }
    }

    // ------------------------------------------------------------------
    // Observability (tests, invariants, experiment censuses)
    // ------------------------------------------------------------------

    /// Lemma 4.2's promise: between protocol phases, everything the RCA/BCA
    /// created is gone. DFS bookkeeping is excluded — the paper never
    /// erases it.
    pub fn snake_state_pristine(&self) -> bool {
        self.ig.is_pristine()
            && self.og.is_pristine()
            && self.bg.is_pristine()
            && self.dying_id.is_pristine()
            && self.dying_od.is_pristine()
            && self.dying_bd.is_pristine()
            && self.marks.is_pristine()
            && self.pending_loop.is_none()
            && self.pending_bca.is_none()
            && self.rca == RcaState::Idle
            && self.bca == BcaState::Idle
            && (!self.is_root || self.root_rca == RootRca::Open)
    }

    /// Count of growing-snake characters dwelling here plus set markings
    /// (the things KILL tokens must eradicate) — E5's residue census.
    pub fn growing_residue(&self) -> usize {
        let marks = [&self.ig, &self.og, &self.bg]
            .iter()
            .map(|r| usize::from(r.is_marked()) + r.pending_len())
            .sum::<usize>();
        marks
    }

    /// Characters of any kind dwelling in this processor (type-size /
    /// finite-state census).
    pub fn chars_in_flight(&self) -> usize {
        self.ig.pending_len()
            + self.og.pending_len()
            + self.bg.pending_len()
            + self.dying_id.pending_len()
            + self.dying_od.pending_len()
            + self.dying_bd.pending_len()
            + usize::from(self.pending_loop.is_some())
    }

    /// Is any protocol machinery (RCA/BCA/root conversion/pending
    /// emissions) active on this processor? Used with
    /// [`ProtocolNode::snake_state_pristine`] to catch cleanup leaks: when
    /// *no* processor is busy, *every* processor must be pristine.
    pub fn protocol_busy(&self) -> bool {
        self.rca != RcaState::Idle
            || self.bca != BcaState::Idle
            || self.root_rca != RootRca::Open
            || self.has_pending()
    }

    /// Debug description of any non-pristine snake state (empty if clean).
    pub fn residue_description(&self) -> String {
        let mut out = String::new();
        for (name, ok) in [
            ("ig", self.ig.is_pristine()),
            ("og", self.og.is_pristine()),
            ("bg", self.bg.is_pristine()),
            ("dying_id", self.dying_id.is_pristine()),
            ("dying_od", self.dying_od.is_pristine()),
            ("dying_bd", self.dying_bd.is_pristine()),
            ("marks", self.marks.is_pristine()),
            ("pending_loop", self.pending_loop.is_none()),
            ("pending_bca", self.pending_bca.is_none()),
            ("rca", self.rca == RcaState::Idle),
            ("bca", self.bca == BcaState::Idle),
            ("root_rca", !self.is_root || self.root_rca == RootRca::Open),
        ] {
            if !ok {
                out.push_str(name);
                out.push(' ');
            }
        }
        out
    }

    /// Has the root reached the paper's terminal state?
    pub fn terminated(&self) -> bool {
        self.dfs.done
    }

    /// Re-mapping extension: the master computer (the "outside source" of
    /// §1.1) nudges the terminated root to map the network again. On its
    /// next step the root floods a speed-3 RESET token that clears every
    /// processor's DFS bookkeeping, then restarts the DFS. The RESET flood
    /// travels at least three times faster than any protocol progress, so
    /// it always runs ahead of the new DFS token.
    pub fn master_restart(&mut self) {
        assert!(
            self.is_root,
            "only the root is attached to the master computer"
        );
        assert!(
            self.dfs.done,
            "restart is only meaningful after termination"
        );
        assert!(
            self.snake_state_pristine(),
            "network must be clean before a re-map"
        );
        self.pending_restart = true;
    }

    /// DFS visited flag (every processor must end visited — the DFS token
    /// crosses every edge).
    pub fn dfs_visited(&self) -> bool {
        self.dfs.visited
    }

    /// Is this processor dark from a `node-restart` power cycle at `now`?
    pub fn is_offline(&self, now: u64) -> bool {
        now < self.offline_until
    }

    /// `node-restart` fault: power-cycle this processor at tick `now`.
    /// The processor goes dark for [`RESTART_DOWNTIME`] ticks, then
    /// rejoins with total amnesia — factory-fresh protocol state, reset
    /// parity cleared (so the next RESET flood's stamp always reads as a
    /// new round), power-on behaviour re-armed. Only the power-on facts
    /// (`is_root`, δ, port awareness, start behaviour) and the
    /// simulator-side diagnostic counters survive; the lanes' drop counts
    /// are retired into the spill first so `stat_dropped` never moves
    /// backwards. The root hosts the master computer and cannot restart.
    pub fn restart(&mut self, now: u64) {
        assert!(!self.is_root, "the master computer's host never restarts");
        self.spill.retire_lanes();
        self.ig = GrowRelay::new(SnakeKind::Ig);
        self.og = GrowRelay::new(SnakeKind::Og);
        self.bg = GrowRelay::new(SnakeKind::Bg);
        self.dying_id = DyingPassage::new(SnakeKind::Id);
        self.dying_od = DyingPassage::new(SnakeKind::Od);
        self.dying_bd = DyingPassage::new(SnakeKind::Bd);
        self.marks = LoopMarks::new();
        self.pending_loop = None;
        self.pending_bca = None;
        self.rca = RcaState::Idle;
        self.root_rca = RootRca::Open;
        self.bca = BcaState::Idle;
        self.bca_probe = false;
        self.pending_restart = false;
        self.reset_parity = false;
        self.started = false;
        self.dfs = DfsState {
            visited: false,
            parent: None,
            cursor: 0,
            awaiting: false,
            done: false,
        };
        self.offline_until = now + RESTART_DOWNTIME;
    }

    // ------------------------------------------------------------------
    // Emission helpers
    // ------------------------------------------------------------------

    fn broadcast_snake(&self, outputs: &mut [Signal], kind: SnakeKind, c: SnakeChar) {
        for o in self.out_ports.iter() {
            outputs[o.idx()].put_snake(kind, c);
        }
    }

    fn broadcast_kill(&self, outputs: &mut [Signal]) {
        for o in self.out_ports.iter() {
            outputs[o.idx()].set_kill();
        }
    }

    // ------------------------------------------------------------------
    // Protocol drivers
    // ------------------------------------------------------------------

    fn start_rca(&mut self, report: RcaReport, after: AfterRca, now: u64) {
        // In an undisturbed run RCAs are strictly serialized and start on a
        // pristine relay; after a live topology mutation a straggler DFS
        // token can ask for an RCA while one is in flight — drop the
        // request (the session's remap driver recovers the stalled run).
        if self.rca != RcaState::Idle || self.ig.is_marked() {
            return;
        }
        self.ig.start(&mut self.spill, now);
        self.stat_rcas_started += 1;
        self.rca = RcaState::AwaitOg { report, after };
    }

    fn start_bca(&mut self, via: Port, now: u64) {
        // Serialized like RCAs; see start_rca for the mutation caveat.
        if self.bca != BcaState::Idle || self.bg.is_marked() {
            return;
        }
        self.bg.start(&mut self.spill, now);
        self.stat_bcas_started += 1;
        self.bca = BcaState::AwaitBgHead { via };
    }

    /// Release the KILL flood and erase our own growing state. Done as
    /// soon as the initiator has consumed its whole growing stream — the
    /// growing snakes carry no further information from that moment, and
    /// releasing here (rather than at the paper's step 4) widens Lemma
    /// 4.2's catch-up margin from O(1) ticks to Θ(loop) ticks, closing a
    /// real race where a stale KILL of a short-loop BCA could erase the
    /// next RCA's fresh flood (DESIGN.md §5).
    fn release_kill(&mut self, ctx: &mut Ctx) {
        self.ig.erase();
        self.og.erase();
        self.bg.erase();
        self.broadcast_kill(ctx.outputs);
    }

    /// RCA step 4: on the OD tail, release the speed-1 FORWARD/BACK loop
    /// token (the KILL flood was already released at OG-tail consumption).
    fn rca_step4(&mut self, report: RcaReport, after: AfterRca, ctx: &mut Ctx) {
        let tok = match report {
            RcaReport::Forward { out_port, in_port } => LoopToken::Forward { out_port, in_port },
            RcaReport::Back => LoopToken::Back,
        };
        // The loop is always marked before step 4 in an undisturbed run; a
        // mutation can erase the marks under us — stall instead of panic.
        let Some(succ) = self.marks.succ(MarkPair::First) else {
            return;
        };
        ctx.outputs[succ.idx()].put_loop(tok);
        self.rca = RcaState::AwaitLoopReturn { after };
    }

    fn on_rca_done(&mut self, after: AfterRca, now: u64, ctx: &mut Ctx) {
        match after {
            AfterRca::Descend => {
                self.dfs.cursor = 0;
                self.advance_dfs(now, ctx);
            }
            AfterRca::Bounce { via } => self.start_bca(via, now),
            AfterRca::Advance => {
                self.dfs.cursor += 1;
                self.advance_dfs(now, ctx);
            }
            AfterRca::ProbeDone => ctx.events.push(TranscriptEvent::RcaComplete),
        }
    }

    /// Send the DFS token out the current out-port, backtrack via BCA, or —
    /// at the root — terminate (§3).
    fn advance_dfs(&mut self, now: u64, ctx: &mut Ctx) {
        if let Some(o) = self.out_ports.nth(self.dfs.cursor) {
            self.dfs.awaiting = true;
            ctx.outputs[o.idx()].put_dfs(DfsToken { sender_out_port: o });
        } else if self.is_root {
            self.dfs.done = true;
            ctx.events.push(TranscriptEvent::Terminated);
        } else {
            // A finished non-root processor always has a parent in an
            // undisturbed run; a mutation-era RESET can clear it.
            let Some(parent) = self.dfs.parent else {
                return;
            };
            self.start_bca(parent, now);
        }
    }

    /// The BCA delivered its payload to us (we are the loop endpoint and
    /// have just absorbed the UNMARK — the network is clean again).
    fn on_bca_payload(&mut self, msg: BcaMsg, now: u64, ctx: &mut Ctx) {
        match msg {
            BcaMsg::DfsReturn => {
                if !self.dfs.awaiting {
                    // standalone BCA probe target
                    ctx.events.push(TranscriptEvent::BcaDelivered);
                    return;
                }
                self.dfs.awaiting = false;
                if self.is_root {
                    ctx.events.push(TranscriptEvent::LocalBack);
                    self.dfs.cursor += 1;
                    self.advance_dfs(now, ctx);
                } else {
                    self.start_rca(RcaReport::Back, AfterRca::Advance, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-channel input handlers
    // ------------------------------------------------------------------

    fn kill_accepted(&self, p: Port) -> bool {
        self.ig.parent() == Some(p) || self.og.parent() == Some(p) || self.bg.parent() == Some(p)
    }

    fn on_ig(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx) {
        if self.is_root {
            match self.root_rca {
                RootRca::Open => {
                    if self.og.is_marked() {
                        // Leftover OG state from a mutation-disturbed RCA:
                        // the root cannot become the OG origin again yet.
                        return;
                    }
                    if let Some(c) = self.ig.accept(p, c) {
                        // First IG head of this RCA: adopt, transcribe, and
                        // begin converting to the OG snake (step 2). The OG
                        // relay becomes the OG tree's origin. A headless
                        // character here means the relay kept stale adoption
                        // state across a lossy schedule (a dropped KILL) —
                        // drop it rather than corrupt the transcript.
                        let Some(hop) = c.hop() else {
                            return;
                        };
                        ctx.events.push(TranscriptEvent::IgHop(hop));
                        self.og.mark_initiator();
                        self.og.relay(&mut self.spill, c, now);
                        self.root_rca = RootRca::ConvertingIg;
                    }
                }
                RootRca::ConvertingIg => {
                    if let Some(c) = self.ig.accept(p, c) {
                        match c {
                            SnakeChar::Tail => {
                                ctx.events.push(TranscriptEvent::IgTail);
                                // relay(Tail) appends the root's own hop then
                                // the tail — "the root holds onto the tail
                                // character while it sends OG(i, ∗) out of
                                // each of its out-ports" (step 2).
                                self.og.relay(&mut self.spill, SnakeChar::Tail, now);
                                self.root_rca = RootRca::AwaitId;
                            }
                            other => {
                                // Heads and bodies always carry a hop; guard
                                // anyway so a fault-mangled stream is dropped
                                // instead of panicking mid-conversion.
                                let Some(hop) = other.hop() else {
                                    return;
                                };
                                ctx.events.push(TranscriptEvent::IgHop(hop));
                                self.og.relay(&mut self.spill, other, now);
                            }
                        }
                    }
                }
                // Closed: "the root will accept no further IG-snakes during
                // this execution" — and stragglers after the KILL.
                _ => {}
            }
            return;
        }
        if self.rca != RcaState::Idle {
            // We are the IG source of the running RCA; echoes are ignored.
            return;
        }
        if let Some(c) = self.ig.accept(p, c) {
            self.ig.relay(&mut self.spill, c, now);
        }
    }

    fn on_og(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx) {
        if self.is_root {
            // The root is the OG source; it never re-admits OG characters.
            return;
        }
        match self.rca {
            RcaState::AwaitOg { report, after } => {
                if self.dying_id.is_active()
                    || self.marks.pred(MarkPair::First).is_some()
                    || self.marks.succ(MarkPair::First).is_some()
                {
                    // Mutation-era residue occupies the #1 pair; adopting
                    // another stream would corrupt it.
                    return;
                }
                if let Some(c) = self.og.accept(p, c) {
                    // First surviving OG head: eat it as if it were an ID
                    // head (step 3) — its hop is our own first hop towards
                    // the root.
                    let Some(hop) = c.hop() else {
                        return; // headless straggler stream
                    };
                    self.marks.set_pred(MarkPair::First, p);
                    self.marks.set_succ(MarkPair::First, hop.out_port);
                    self.dying_id.begin(p, hop.out_port);
                    self.rca = RcaState::AwaitOdTail { report, after };
                }
            }
            RcaState::AwaitOdTail { .. }
                // The adopted stream arrives exclusively through the
                // predecessor in-port recorded at head consumption; gate on
                // that rather than the (KILL-erased) OG relay so post-KILL
                // straggler heads cannot re-adopt us. Once the tail is
                // consumed the conversion is over and everything is junk.
                if !self.dying_id.is_done() && self.dying_id.pred() == Some(p) => {
                    let c = c.filled(p);
                    // Convert the rest of the OG stream into the ID snake.
                    let is_tail = c.is_tail();
                    self.dying_id.feed(&mut self.spill, p, c, now);
                    if is_tail {
                        // The whole OG stream is consumed: the growing
                        // snakes are pure garbage now — kill them early.
                        self.release_kill(ctx);
                    }
                }
            RcaState::Idle => {
                if let Some(c) = self.og.accept(p, c) {
                    self.og.relay(&mut self.spill, c, now);
                }
            }
            // Step 4/5 phases: closed to OG (stragglers die here).
            _ => {}
        }
    }

    fn on_bg(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx) {
        match self.bca {
            BcaState::AwaitBgHead { via } if p == via => {
                let c = c.filled(p);
                if let SnakeChar::Head(hop) = c {
                    if self.dying_bd.is_active()
                        || self.marks.pred(MarkPair::First).is_some()
                        || self.marks.succ(MarkPair::First).is_some()
                    {
                        return; // mutation-era residue on the #1 pair
                    }
                    // The first BG head returning through the designated
                    // in-port encodes the canonical loop B→…→A→B. Eat the
                    // head, mark our ports, start converting to BD.
                    self.marks.set_pred(MarkPair::First, via);
                    self.marks.set_succ(MarkPair::First, hop.out_port);
                    self.dying_bd.begin(via, hop.out_port);
                    self.bca = BcaState::Converting { via };
                }
            }
            BcaState::Converting { via }
                if p == via && !self.dying_bd.is_done() && self.dying_bd.pred() == Some(via) =>
            {
                let c = c.filled(p);
                let is_tail = c.is_tail();
                self.dying_bd.feed(&mut self.spill, via, c, now);
                if is_tail {
                    self.bca = BcaState::AwaitBdTail { via };
                    // BG stream fully consumed: kill the flood early (the
                    // BD marking rides its own alphabet and is untouched).
                    self.release_kill(ctx);
                }
            }
            BcaState::Idle => {
                if let Some(c) = self.bg.accept(p, c) {
                    self.bg.relay(&mut self.spill, c, now);
                }
            }
            // B ignores BG characters on other ports / later phases.
            _ => {}
        }
    }

    fn on_id(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx) {
        if self.is_root {
            match self.root_rca {
                RootRca::AwaitId => {
                    let c = c.filled(p);
                    if let SnakeChar::Head(hop) = c {
                        if self.dying_od.is_active()
                            || self.marks.pred(MarkPair::First).is_some()
                            || self.marks.succ(MarkPair::Second).is_some()
                        {
                            return; // mutation-era residue
                        }
                        // Convert ID→OD: predecessor #1, successor #2
                        // (§2.3.3 — the root's exceptional port pairing).
                        ctx.events.push(TranscriptEvent::IdHop(hop));
                        self.marks.set_pred(MarkPair::First, p);
                        self.marks.set_succ(MarkPair::Second, hop.out_port);
                        self.dying_od.begin(p, hop.out_port);
                        self.root_rca = RootRca::ConvertingId;
                    }
                }
                RootRca::ConvertingId
                    if !self.dying_od.is_done() && self.dying_od.pred() == Some(p) =>
                {
                    let c = c.filled(p);
                    match c {
                        SnakeChar::Body(hop) => ctx.events.push(TranscriptEvent::IdHop(hop)),
                        SnakeChar::Tail => ctx.events.push(TranscriptEvent::IdTail),
                        SnakeChar::Head(_) => return, // cannot happen in a clean run
                    }
                    self.dying_od.feed(&mut self.spill, p, c, now);
                    if c.is_tail() {
                        self.root_rca = RootRca::LoopPhase;
                    }
                }
                _ => {}
            }
            return;
        }
        // Ordinary passage on the A→root half (pair #1).
        let c = c.filled(p);
        match c {
            SnakeChar::Head(hop)
                if !self.dying_id.is_active()
                    && self.marks.pred(MarkPair::First).is_none()
                    && self.marks.succ(MarkPair::First).is_none() =>
            {
                self.marks.set_pred(MarkPair::First, p);
                self.marks.set_succ(MarkPair::First, hop.out_port);
                self.dying_id.begin(p, hop.out_port);
            }
            _ if !self.dying_id.is_done() && self.dying_id.pred() == Some(p) => {
                self.dying_id.feed(&mut self.spill, p, c, now);
            }
            _ => {} // off-path character (only possible after a mutation)
        }
    }

    fn on_od(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx) {
        if self.is_root {
            // The OD snake travels root→A and never revisits the root.
            return;
        }
        if let RcaState::AwaitOdTail { report, after } = self.rca {
            if self.marks.pred(MarkPair::First) == Some(p) {
                // "[Processor A] will only receive the tail character ODT"
                // (step 3) — the loop is fully marked; begin step 4. A
                // non-tail here is mutation-era junk and is dropped.
                if c.is_tail() {
                    self.rca_step4(report, after, ctx);
                }
                return;
            }
        }
        // Ordinary passage on the root→A half (pair #2).
        let c = c.filled(p);
        match c {
            SnakeChar::Head(hop)
                if !self.dying_od.is_active()
                    && self.marks.pred(MarkPair::Second).is_none()
                    && self.marks.succ(MarkPair::Second).is_none() =>
            {
                self.marks.set_pred(MarkPair::Second, p);
                self.marks.set_succ(MarkPair::Second, hop.out_port);
                self.dying_od.begin(p, hop.out_port);
            }
            _ if !self.dying_od.is_done() && self.dying_od.pred() == Some(p) => {
                self.dying_od.feed(&mut self.spill, p, c, now);
            }
            _ => {} // off-path character (only possible after a mutation)
        }
    }

    fn on_bd(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx) {
        if let BcaState::AwaitBdTail { via } = self.bca {
            if p == via {
                // The physical BD tail has circled the loop: every
                // processor on it (including the endpoint) is marked.
                // Release the payload loop token (the KILL flood already
                // flew at BG-tail consumption). Anything other than the
                // tail — or erased marks — is mutation-era junk.
                if !c.is_tail() {
                    return;
                }
                let Some(succ) = self.marks.succ(MarkPair::First) else {
                    return;
                };
                ctx.outputs[succ.idx()].put_loop(LoopToken::Bca(BcaMsg::DfsReturn));
                self.bca = BcaState::AwaitLoopReturn;
                return;
            }
        }
        // Ordinary BD passage (pair #1; BCA loops are simple cycles).
        let c = c.filled(p);
        match c {
            SnakeChar::Head(hop)
                if !self.dying_bd.is_active()
                    && self.marks.pred(MarkPair::First).is_none()
                    && self.marks.succ(MarkPair::First).is_none() =>
            {
                self.marks.set_pred(MarkPair::First, p);
                self.marks.set_succ(MarkPair::First, hop.out_port);
                self.dying_bd.begin(p, hop.out_port);
            }
            _ if !self.dying_bd.is_done() && self.dying_bd.pred() == Some(p) => {
                self.dying_bd.feed(&mut self.spill, p, c, now);
            }
            _ => {} // off-path character (only possible after a mutation)
        }
    }

    fn on_loop(&mut self, p: Port, tok: LoopToken, now: u64, ctx: &mut Ctx) {
        // Absorption by the RCA initiator (step 4 → step 5).
        if let RcaState::AwaitLoopReturn { after } = self.rca {
            if self.marks.pred(MarkPair::First) == Some(p) {
                let Some(succ) = self.marks.succ(MarkPair::First) else {
                    return; // marks half-erased by a mutation
                };
                ctx.outputs[succ.idx()].set_unmark();
                self.rca = RcaState::AwaitUnmarkReturn { after };
                return;
            }
        }
        // Absorption by the BCA initiator: release the UNMARK (absorbed at
        // the target) and finish — B already knows delivery succeeded.
        if self.bca == BcaState::AwaitLoopReturn && self.marks.pred(MarkPair::First) == Some(p) {
            let Some(succ) = self.marks.succ(MarkPair::First) else {
                return; // marks half-erased by a mutation
            };
            ctx.outputs[succ.idx()].set_unmark();
            self.marks.clear();
            self.dying_bd.reset();
            self.bca = BcaState::Idle;
            if self.bca_probe {
                ctx.events.push(TranscriptEvent::BcaComplete);
            }
            return;
        }
        // Ordinary loop-token forwarding. In an undisturbed run a loop
        // token never arrives off-loop or while another token dwells here;
        // after a live mutation both can happen — drop the token (the
        // stalled run is recovered by the session's remap driver).
        let Some(route) = self.marks.route(p) else {
            return;
        };
        if self.pending_loop.is_some() {
            return;
        }
        if self.is_root {
            match tok {
                LoopToken::Forward { out_port, in_port } => {
                    ctx.events
                        .push(TranscriptEvent::LoopForward { out_port, in_port });
                }
                LoopToken::Back => ctx.events.push(TranscriptEvent::LoopBack),
                LoopToken::Bca(_) => {}
            }
        }
        if self.dying_bd.is_endpoint() {
            if let LoopToken::Bca(msg) = tok {
                // We are the BCA target: capture the payload, act on it
                // when the UNMARK reaches us and the network is clean.
                self.pending_bca = Some(msg);
            }
        }
        self.pending_loop = Some((now + SPEED1_DWELL, tok, route.succ));
        self.marks.advance(route);
    }

    fn on_unmark(&mut self, p: Port, now: u64, ctx: &mut Ctx) {
        // Absorption by the RCA initiator: the RCA is over (step 5).
        if let RcaState::AwaitUnmarkReturn { after } = self.rca {
            if self.marks.pred(MarkPair::First) == Some(p) {
                self.marks.clear();
                self.dying_id.reset();
                self.dying_od.reset();
                self.rca = RcaState::Idle;
                self.on_rca_done(after, now, ctx);
                return;
            }
        }
        // Absorption by the BCA target: everything before us on the loop is
        // erased and all KILLs are dead — act on the payload.
        if self.dying_bd.is_endpoint() && self.dying_bd.pred() == Some(p) {
            self.marks.clear();
            self.dying_bd.reset();
            // The endpoint always holds the payload in an undisturbed run;
            // a mutation can deliver the UNMARK without it.
            let Some(msg) = self.pending_bca.take() else {
                return;
            };
            self.on_bca_payload(msg, now, ctx);
            return;
        }
        // Ordinary forwarding: pass (speed-3) and forget the designations.
        if let Some(route) = self.marks.unmark(p) {
            ctx.outputs[route.succ.idx()].set_unmark();
            match route.pair {
                MarkPair::First => {
                    self.dying_id.reset();
                    self.dying_bd.reset();
                }
                MarkPair::Second => {
                    self.dying_od.reset();
                }
            }
            if self.is_root {
                // "Upon reception of this UNMARK token, the root reopens
                // itself to IG-snakes" (step 5).
                self.dying_od.reset();
                self.dying_id.reset();
                self.root_rca = RootRca::Open;
            }
        }
        // An off-loop UNMARK (impossible without a mutation) is dropped.
    }

    fn on_dfs_forward(&mut self, o: Port, i: Port, now: u64, ctx: &mut Ctx) {
        if self.is_root {
            // Root self-communication short-circuit (DESIGN.md §5): the
            // transcript is piped locally, then the token bounces back.
            ctx.events.push(TranscriptEvent::LocalForward {
                out_port: o,
                in_port: i,
            });
            self.start_bca(i, now);
            return;
        }
        let report = RcaReport::Forward {
            out_port: o,
            in_port: i,
        };
        if !self.dfs.visited {
            self.dfs.visited = true;
            self.dfs.parent = Some(i);
            self.start_rca(report, AfterRca::Descend, now);
        } else {
            // "A processor never wants more than one parent": report the
            // edge, then send the token straight back via the BCA.
            self.start_rca(report, AfterRca::Bounce { via: i }, now);
        }
    }

    // ------------------------------------------------------------------
    // Scheduled emissions
    // ------------------------------------------------------------------

    fn flush_due(&mut self, now: u64, outputs: &mut [Signal]) {
        // At most one emission per snake kind per tick. In an undisturbed
        // run deadlines within one relay are spaced ≥ 1 tick apart (one
        // character per wire per tick) and the processor steps on every
        // tick it holds pending characters, so this drains exactly as the
        // unbounded loop would. After a live mutation a straggler stream
        // can land a second character whose deadline collides with a
        // queued one (e.g. a re-routed head arriving behind a tail);
        // serializing the emissions preserves the one-character-per-kind
        // wire invariant instead of tripping its collision guard.
        for kind in [SnakeKind::Ig, SnakeKind::Og, SnakeKind::Bg] {
            let relay = match kind {
                SnakeKind::Ig => &mut self.ig,
                SnakeKind::Og => &mut self.og,
                _ => &mut self.bg,
            };
            if let Some(e) = relay.due(&mut self.spill, now) {
                match e {
                    GrowEmit::Heads => {
                        for o in self.out_ports.iter() {
                            outputs[o.idx()].put_snake(kind, SnakeChar::Head(Hop::star(o)));
                        }
                    }
                    GrowEmit::Relay(c) => self.broadcast_snake(outputs, kind, c),
                    GrowEmit::Extend => {
                        for o in self.out_ports.iter() {
                            outputs[o.idx()].put_snake(kind, SnakeChar::Body(Hop::star(o)));
                        }
                    }
                    GrowEmit::Tail => self.broadcast_snake(outputs, kind, SnakeChar::Tail),
                }
            }
        }
        // Dying lanes route each character to one specific port, but the
        // same collision argument applies per lane: one emission per tick.
        for lane in [&mut self.dying_id, &mut self.dying_od, &mut self.dying_bd] {
            if let Some(e) = lane.due(&mut self.spill, now) {
                outputs[e.port.idx()].put_snake(lane.out_kind(), e.c);
            }
        }
        if let Some((deadline, tok, port)) = self.pending_loop {
            if deadline <= now {
                outputs[port.idx()].put_loop(tok);
                self.pending_loop = None;
            }
        }
    }

    fn has_pending(&self) -> bool {
        self.ig.has_pending()
            || self.og.has_pending()
            || self.bg.has_pending()
            || self.dying_id.has_pending()
            || self.dying_od.has_pending()
            || self.dying_bd.has_pending()
            || self.pending_loop.is_some()
    }

    /// Earliest tick at which any dwelling character emerges — the wake
    /// deadline this processor hands the engine's frontier. `None` when
    /// nothing is dwelling (the processor is purely input-driven).
    fn next_emission_deadline(&self, now: u64) -> Option<u64> {
        let never = u64::MAX;
        let spill = &self.spill;
        let next = self
            .ig
            .next_deadline(spill, now)
            .unwrap_or(never)
            .min(self.og.next_deadline(spill, now).unwrap_or(never))
            .min(self.bg.next_deadline(spill, now).unwrap_or(never))
            .min(self.dying_id.next_deadline(spill, now).unwrap_or(never))
            .min(self.dying_od.next_deadline(spill, now).unwrap_or(never))
            .min(self.dying_bd.next_deadline(spill, now).unwrap_or(never))
            .min(self.pending_loop.map_or(never, |(deadline, _, _)| deadline));
        (next != never).then_some(next)
    }
}

impl Automaton for ProtocolNode {
    type Sig = Signal;
    type Event = TranscriptEvent;

    fn step(&mut self, ctx: &mut Ctx) {
        let now = ctx.tick;

        // A power-cycled processor is dark: every arriving character is
        // consumed and lost, nothing is emitted, and the engine is asked
        // to wake us exactly when the downtime expires (so the amnesiac
        // power-on lands on the same tick in every engine mode).
        if now < self.offline_until {
            let blank = Signal::default();
            let lost = ctx.inputs[..self.delta as usize]
                .iter()
                .filter(|s| **s != blank)
                .count();
            self.spill.record_lost(lost as u64);
            ctx.request_restep_at(self.offline_until);
            return;
        }

        // Power-on behaviour.
        if !self.started {
            self.started = true;
            match self.start {
                StartBehavior::GtdRoot => {
                    ctx.events.push(TranscriptEvent::Start);
                    self.advance_dfs(now, ctx);
                }
                StartBehavior::SingleRca => {
                    self.start_rca(RcaReport::Back, AfterRca::ProbeDone, now);
                }
                StartBehavior::SingleBca { via } => {
                    self.bca_probe = true;
                    self.start_bca(via, now);
                }
                StartBehavior::Passive => {}
            }
        }

        // Which channels arrived at all. Channels ride independent
        // alphabets (§2.3.1), so every phase below whose channel is blank
        // on all in-ports is skipped whole; within a phase the port-major
        // order is unchanged.
        let live = Presence::of(&ctx.inputs[..self.delta as usize]);

        // Phase 0: RESET flood (re-mapping extension). Processed before
        // everything else so a DFS token arriving the same tick sees a
        // cleared slate.
        if self.pending_restart {
            self.pending_restart = false;
            self.reset_parity = !self.reset_parity;
            self.dfs = DfsState {
                visited: true,
                parent: None,
                cursor: 0,
                awaiting: false,
                done: false,
            };
            for o in self.out_ports.iter() {
                ctx.outputs[o.idx()].set_reset(self.reset_parity);
            }
            ctx.events.push(TranscriptEvent::Start);
            self.advance_dfs(now, ctx);
        }
        if !self.is_root && live.reset() {
            let stamp = (0..self.delta as usize).find_map(|i| ctx.inputs[i].reset());
            if let Some(p) = stamp {
                if p != self.reset_parity {
                    // first copy of the new round: clear, stamp, forward.
                    self.reset_parity = p;
                    self.dfs = DfsState {
                        visited: false,
                        parent: None,
                        cursor: 0,
                        awaiting: false,
                        done: false,
                    };
                    for o in self.out_ports.iter() {
                        ctx.outputs[o.idx()].set_reset(p);
                    }
                }
            }
        }

        // Phase 1: KILL tokens — erasure wins ties with arriving characters.
        let mut killed = false;
        if live.kill() {
            for i in 0..self.delta as usize {
                if ctx.inputs[i].kill() && self.kill_accepted(Port(i as u8)) {
                    killed = true;
                }
            }
        }
        if killed {
            self.stat_kills_accepted += 1;
            self.ig.erase();
            self.og.erase();
            self.bg.erase();
            self.broadcast_kill(ctx.outputs);
        }

        // Phase 2: growing-snake characters (ascending port order ⇒ the
        // paper's lowest-in-port tie-break). `on_og`/`on_bg` may release
        // the KILL flood mid-loop, so the kinds stay interleaved per port.
        if !killed && live.growing() {
            for i in 0..self.delta as usize {
                let p = Port(i as u8);
                let sig = ctx.inputs[i];
                if let Some(c) = sig.snake(SnakeKind::Ig) {
                    self.on_ig(p, c, now, ctx);
                }
                if let Some(c) = sig.snake(SnakeKind::Og) {
                    self.on_og(p, c, now, ctx);
                }
                if let Some(c) = sig.snake(SnakeKind::Bg) {
                    self.on_bg(p, c, now, ctx);
                }
            }
        }

        // Phase 3: dying-snake characters.
        if live.dying() {
            for i in 0..self.delta as usize {
                let p = Port(i as u8);
                let sig = ctx.inputs[i];
                if let Some(c) = sig.snake(SnakeKind::Id) {
                    self.on_id(p, c, now, ctx);
                }
                if let Some(c) = sig.snake(SnakeKind::Od) {
                    self.on_od(p, c, now, ctx);
                }
                if let Some(c) = sig.snake(SnakeKind::Bd) {
                    self.on_bd(p, c, now, ctx);
                }
            }
        }

        // Phase 4: loop tokens (speed-1).
        if live.loop_tok() {
            for i in 0..self.delta as usize {
                if let Some(tok) = ctx.inputs[i].loop_tok() {
                    self.on_loop(Port(i as u8), tok, now, ctx);
                }
            }
        }

        // Phase 5: UNMARK tokens (speed-3: processed and forwarded within
        // the same tick).
        if live.unmark() {
            for i in 0..self.delta as usize {
                if ctx.inputs[i].unmark() {
                    self.on_unmark(Port(i as u8), now, ctx);
                }
            }
        }

        // Phase 6: the DFS token.
        if live.dfs() {
            for i in 0..self.delta as usize {
                if let Some(d) = ctx.inputs[i].dfs() {
                    self.on_dfs_forward(d.sender_out_port, Port(i as u8), now, ctx);
                }
            }
        }

        // Phase 7: scheduled emissions whose dwell expired this tick.
        // Nothing dwelling means nothing to emit, nothing to count and no
        // wake to request.
        if !self.has_pending() {
            return;
        }
        self.flush_due(now, ctx.outputs);

        // Phase 8: sleep until the earliest scheduled emission. The engine
        // frontier skips this processor entirely until that deadline (or
        // until a character arrives) — the speed-1 dwells that dominate a
        // protocol run cost no steps at all. `flush_due` drains at most
        // one emission per lane per tick, so a drained lane whose next
        // item is already due simply re-arms for the coming tick.
        self.stat_max_chars = self.stat_max_chars.max(self.chars_in_flight());
        if let Some(deadline) = self.next_emission_deadline(now) {
            ctx.request_restep_at(deadline);
        }
    }

    fn on_rewire(&mut self, meta: &NodeMeta) {
        // Port awareness (§1.2.1) tracks the physical wiring: recompute
        // the connected out-port list. Snake and DFS state are left alone
        // — the session-level remap driver decides whether the disturbed
        // run needs a RESET flood or a full power-cycle.
        self.out_ports = meta.out_connected;
        if self.dfs.cursor > self.out_ports.len() {
            self.dfs.cursor = self.out_ports.len();
        }
    }

    fn on_join(&mut self, meta: &NodeMeta) {
        // A processor spliced into a running network powers on exactly
        // like one present at t0: factory-fresh state, port awareness from
        // its power-on meta. Refreshing the out-port list keeps the hook
        // honest even if a caller constructs the automaton from stale
        // meta.
        // The master's host cannot join mid-run; a harness that feeds a
        // root join anyway gets a no-op, not a debug-only crash.
        if meta.is_root {
            return;
        }
        self.on_rewire(meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_processor_on_blank_inputs_does_nothing() {
        // The contract `step`'s channel gating rests on: a started
        // processor with nothing dwelling, stepped on all-blank inputs,
        // writes only blank outputs, emits no event, requests no wake and
        // keeps its state. Checked on every processor of a passive
        // network after power-on and of a mapped network after
        // termination (DFS marks set, the root terminated).
        use crate::runner::build_gtd_engine;
        use gtd_netsim::{generators, Engine, EngineMode, NodeId};

        let topo = generators::random_sc(12, 3, 4);
        let mut passive = Engine::new(&topo, EngineMode::Sparse, |meta| {
            ProtocolNode::new(&meta, StartBehavior::Passive)
        });
        let mut mapped = build_gtd_engine(&topo, EngineMode::Sparse);
        let mut events = Vec::new();
        passive.tick(&mut events);
        let mut done = false;
        while !(done && mapped.is_quiet()) {
            assert!(mapped.tick_count() < 1_000_000, "the map never settled");
            events.clear();
            mapped.tick(&mut events);
            done |= events
                .iter()
                .any(|&(_, e)| e == TranscriptEvent::Terminated);
        }
        for engine in [&mut passive, &mut mapped] {
            for n in (0..engine.num_nodes() as u32).map(NodeId) {
                assert!(engine.is_quiet());
                let before = format!("{:?}", engine.node(n));
                assert!(!engine.node(n).has_pending(), "{n}: dwelling");
                // `node_mut` schedules the processor for the coming tick.
                engine.node_mut(n);
                events.clear();
                engine.tick(&mut events);
                assert!(events.is_empty(), "{n}: emitted {events:?}");
                assert_eq!(engine.signals_in_flight(), 0, "{n}: non-blank output");
                assert!(engine.is_quiet(), "{n}: requested a wake");
                assert_eq!(format!("{:?}", engine.node(n)), before, "{n}: state moved");
            }
        }
    }

    /// Tick `engine` until it is quiet after `done` was emitted (or
    /// `cap` ticks ran), calling `each` after every tick.
    fn drive(
        engine: &mut gtd_netsim::Engine<ProtocolNode>,
        done: TranscriptEvent,
        cap: u64,
        mut each: impl FnMut(&mut gtd_netsim::Engine<ProtocolNode>),
    ) {
        let mut events = Vec::new();
        let mut finished = false;
        while !(finished && engine.is_quiet()) && engine.tick_count() < cap {
            events.clear();
            engine.tick(&mut events);
            finished |= events.iter().any(|&(_, e)| e == done);
            each(engine);
        }
    }

    #[test]
    fn clean_runs_never_spill_a_lane() {
        // E5's finite-state census as a check. On one small network of
        // every family, a full map and a standalone RCA keep every
        // growing lane at most three characters deep after each step and
        // every dying lane at most two, and no lane ever needs more than
        // its four inline slots.
        use crate::runner::build_gtd_engine;
        use gtd_netsim::{spec::registry_examples, Engine, EngineMode, NodeId};

        for spec in registry_examples() {
            let topo = spec.build();
            let map = build_gtd_engine(&topo, EngineMode::Sparse);
            let rca = Engine::new(&topo, EngineMode::Sparse, |meta| {
                let start = if meta.id == NodeId(1) {
                    StartBehavior::SingleRca
                } else {
                    StartBehavior::Passive
                };
                ProtocolNode::new(&meta, start)
            });
            for (mut engine, done) in [
                (map, TranscriptEvent::Terminated),
                (rca, TranscriptEvent::RcaComplete),
            ] {
                let (mut growing, mut dying) = (0, 0);
                drive(&mut engine, done, 1_000_000, |e| {
                    for n in e.nodes() {
                        for r in [&n.ig, &n.og, &n.bg] {
                            growing = growing.max(r.pending_len());
                        }
                        for p in [&n.dying_id, &n.dying_od, &n.dying_bd] {
                            dying = dying.max(p.pending_len());
                        }
                    }
                });
                let at = format!("{spec} until {done:?}");
                assert!(engine.is_quiet(), "{at}: never settled");
                assert!(growing <= 3 && dying <= 2, "{at}: {growing} / {dying}");
                for n in engine.nodes() {
                    assert_eq!(n.spilled_lanes(), 0, "{at}");
                    assert!(n.stat_max_chars <= 8, "{at}: {}", n.stat_max_chars);
                    assert_eq!(n.stat_dropped(), 0, "{at}");
                }
            }
        }
    }

    #[test]
    fn an_orphaned_growing_snake_spills_and_drops() {
        // Rewiring a port under a live flood orphans a growing stream
        // into a cycle, where it grows one character per lap: its lanes
        // spill, fill to capacity and refuse characters. The drop count
        // is the one the queues gave before they held characters inline.
        use crate::runner::build_gtd_engine;
        use gtd_netsim::{EngineMode, MutationKind, TopologyMutation, TopologySpec};

        let spec: TopologySpec = "debruijn:2,4".parse().expect("literal spec parses");
        let topo = spec.build();
        let rewired = topo
            .apply(&TopologyMutation {
                kind: MutationKind::RewirePort,
                selector: 2,
            })
            .expect("rewire applies");
        let mut engine = build_gtd_engine(&topo, EngineMode::Sparse);
        drive(&mut engine, TranscriptEvent::Terminated, 20_000, |e| {
            if e.tick_count() == 60 {
                e.apply_topology(&rewired);
            }
        });
        assert_eq!(engine.tick_count(), 20_000, "the orphan circulates forever");
        let nodes = engine.nodes();
        assert!(nodes.iter().map(|n| n.spilled_lanes()).sum::<usize>() > 0);
        assert_eq!(nodes.iter().map(|n| n.stat_dropped()).sum::<u64>(), 4);
    }
}
