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
//!   Wilkerson's backwards communication (README, reconstruction choice
//!   1): BG flood, BD loop marking with endpoint self-detection, KILL +
//!   payload token, UNMARK absorbed at the target;
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
    BcaMsg, DfsToken, DwellItem, DwellPool, DyingPassage, GrowEmit, GrowRelay, Hop, LoopMarks,
    LoopToken, MarkPair, OptPort, Presence, Signal, SnakeChar, SnakeKind, TickStamp, WireWord,
    SPEED1_DWELL,
};
use std::marker::PhantomData;

type Ctx<'a, W> = StepCtx<'a, Signal<W>, TranscriptEvent>;

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

/// Initiator-side BCA phases (README, reconstruction choice 1).
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
    parent: OptPort,
    /// Out-ports below this index (into the connected-out-port list) are
    /// finished; the one at it is being explored. Saturates: every value
    /// at or past the list's end (δ ≤ 64) means "all finished".
    cursor: u8,
    /// Waiting for the DFS token to come back through a BCA.
    awaiting: bool,
    /// Root only: the terminal state has been reached.
    done: bool,
}

impl DfsState {
    /// The bookkeeping of a processor the DFS has not reached (or, with
    /// `visited`, of the root it starts from).
    fn fresh(visited: bool) -> Self {
        DfsState {
            visited,
            parent: OptPort::NONE,
            cursor: 0,
            awaiting: false,
            done: false,
        }
    }
}

/// The dying kinds, in lane order.
const DYING: [SnakeKind; 3] = [SnakeKind::Id, SnakeKind::Od, SnakeKind::Bd];

/// Row of `kind` in the lane tables ([`ProtocolNode`]'s `grow` and
/// `dying`): one row per snake direction, in (IG, ID), out (OG, OD) and
/// backwards (BG, BD). Every rule the automaton applies to a lane is
/// written once over these tables.
fn lane(kind: SnakeKind) -> usize {
    match kind {
        SnakeKind::Ig | SnakeKind::Id => 0,
        SnakeKind::Og | SnakeKind::Od => 1,
        SnakeKind::Bg | SnakeKind::Bd => 2,
    }
}

/// The loop-mark pair an ordinary passage of a dying kind sets: pair #1
/// for ID and BD, pair #2 for OD (§2.4).
fn pair_of(kind: SnakeKind) -> MarkPair {
    if kind == SnakeKind::Od {
        MarkPair::Second
    } else {
        MarkPair::First
    }
}

/// The identical synchronous finite-state processor of the paper.
///
/// `W` is the word its wire characters pack into ([`WireWord`]): the
/// default `u64` carries ports below 4, `u128` every port below 64. The
/// word changes the size of the engine's wire buffers and nothing else;
/// the session picks it from δ ([`crate::runner::needs_wide_word`]).
///
/// A saturated tick streams every processor's state once, so the struct
/// holds only what `step` reads and writes as the protocol runs, at most
/// 128 bytes (a const assert; 1M processors are 122 MiB). The hot budget,
/// in bytes:
///
/// | fields | bytes |
/// |--------|-------|
/// | dwell `pool`: eight entries (`u16` stamp, `u16` item, 4-bit lane), length, spilled-lane bits, spill pointer | 48 |
/// | lane markings: three `GrowRelay` (2), three `DyingPassage` (4) | 18 |
/// | `out_ports` mask | 8 |
/// | drivers: `rca` (6), `bca` (2), `root_rca`, `bca_probe`, `dfs` (5), two re-map flags | 17 |
/// | `pending_loop` (`u16` deadline stamp, token, port) | 6 |
/// | loop `marks` (four one-byte `OptPort`s, alternation) | 5 |
/// | power-on facts: `is_root`, δ, `start` (2), `started` | 5 |
/// | `pending_bca` | 1 |
/// | diagnostics: KILLs accepted, RCAs and BCAs started (`u32` each), `max_chars` (`u8`) | 13 |
/// | padding to the 8-byte alignment | 7 |
///
/// Everything else is cold and sits behind the pool's one spill pointer,
/// boxed on first use: lanes that outgrow the pool's eight entries, drop
/// counts and the end of a `node-restart` downtime. The diagnostic
/// counters stay hot, narrowed and saturating: a KILL flood reaches every
/// processor and every processor a GTD map visits starts an RCA, so
/// counting them in the box would box it on every processor of every run.
#[derive(Clone, Debug)]
pub struct ProtocolNode<W: WireWord = u64> {
    // -- static configuration (power-on facts) --
    is_root: bool,
    delta: u8,
    out_ports: PortMask,
    start: StartBehavior,
    started: bool,

    // -- snake & token components --
    /// Every character dwelling here, one lane per snake kind: the relays
    /// and passages below keep only their markings. Its cold spill holds
    /// lanes that outgrow the pool (never on a clean run); the count of
    /// characters lost to power cycles, i.e. lane drop counts retired at
    /// [`ProtocolNode::restart`] (amnesia would otherwise zero them) plus
    /// everything consumed while dark, which keeps
    /// [`ProtocolNode::stat_dropped`] monotonic across restarts; and the
    /// end of the current power-cycle downtime.
    pool: DwellPool,
    /// The IG, OG and BG relays.
    grow: [GrowRelay; 3],
    /// The ID, OD and BD passages. ID: the A→root half of an RCA loop;
    /// at the RCA initiator, the OG→ID conversion. OD: the root→A half;
    /// at the root, the ID→OD conversion. BD: BCA loop marking; at B,
    /// the BG→BD conversion.
    dying: [DyingPassage; 3],
    marks: LoopMarks,
    /// A loop token dwelling here (speed-1), with the stamp of its
    /// emission deadline (at most [`SPEED1_DWELL`] ahead) and its
    /// successor out-port.
    pending_loop: Option<(TickStamp, LoopToken, Port)>,
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

    // -- simulator-side counters (diagnostics/experiments only; a real
    // finite-state processor would not carry these) --
    /// KILL tokens this processor accepted (erasures performed),
    /// saturating, like the two below.
    kills_accepted: u32,
    /// RCAs initiated here.
    rcas_started: u32,
    /// BCAs initiated here.
    bcas_started: u32,
    /// High-water mark of characters dwelling here at once, saturating.
    max_chars: u8,
    /// The wire word the processor's characters pack into (no storage).
    word: PhantomData<W>,
}

// A saturated tick streams every processor's state once: at n = 1M a byte
// here is a megabyte of traffic per tick. See the budget above.
const _: () = assert!(std::mem::size_of::<ProtocolNode>() <= 128);
const _: () = assert!(std::mem::size_of::<ProtocolNode<u128>>() <= 128);

impl<W: WireWord> ProtocolNode<W> {
    /// KILL tokens this processor accepted (erasures performed).
    pub fn stat_kills_accepted(&self) -> u64 {
        u64::from(self.kills_accepted)
    }

    /// RCAs initiated here.
    pub fn stat_rcas_started(&self) -> u64 {
        u64::from(self.rcas_started)
    }

    /// BCAs initiated here.
    pub fn stat_bcas_started(&self) -> u64 {
        u64::from(self.bcas_started)
    }

    /// High-water mark of characters dwelling here at once (at most
    /// 6 × 16 lane slots plus a loop token; pinned per family on clean
    /// runs, and never past the pool's eight entries there).
    pub fn stat_max_chars(&self) -> u64 {
        u64::from(self.max_chars)
    }

    /// Raise the dwelling-character high-water mark to `chars`,
    /// saturating at 255.
    fn note_chars(&mut self, chars: usize) {
        self.max_chars = self.max_chars.max(u8::try_from(chars).unwrap_or(u8::MAX));
    }

    /// Snake characters this processor lost: refused at capacity by the
    /// bounded dwell lanes, plus everything a `node-restart`
    /// power cycle destroyed (lifetime total; 0 on clean runs).
    pub fn stat_dropped(&self) -> u64 {
        self.pool.spill().dropped()
    }

    /// Dwell lanes that ever spilled out of the pool (or refused a
    /// character at capacity) since power-on. 0 on clean runs: the
    /// automaton's characters stay in its pool's eight entries.
    pub fn spilled_lanes(&self) -> usize {
        self.pool.spill().spilled_lanes()
    }
}

impl ProtocolNode {
    /// Build the processor for one network position on the narrow wire
    /// word (δ ≤ 4; [`ProtocolNode::with_word`] builds on any word).
    /// `start` is [`StartBehavior::GtdRoot`] on the root for a full GTD
    /// run.
    pub fn new(meta: &NodeMeta, start: StartBehavior) -> Self {
        Self::with_word(meta, start)
    }
}

impl<W: WireWord> ProtocolNode<W> {
    /// Build the processor for one network position on the wire word
    /// `W`. Panics if the network's δ exceeds what `W` carries
    /// ([`Signal::MAX_DELTA`]): its ports would not round-trip.
    pub fn with_word(meta: &NodeMeta, start: StartBehavior) -> Self {
        assert!(
            meta.delta <= Signal::<W>::MAX_DELTA,
            "δ = {} exceeds the {}-port wire word; build the engine with a wider word",
            meta.delta,
            Signal::<W>::MAX_DELTA
        );
        let out_ports = meta.out_connected;
        assert!(
            !out_ports.is_empty(),
            "the model requires a connected out-port"
        );
        if matches!(start, StartBehavior::GtdRoot) {
            assert!(meta.is_root, "GtdRoot behaviour belongs on the root");
        }
        Self::factory_fresh(meta.is_root, meta.delta, out_ports, start)
    }

    /// A processor straight from the factory: only its power-on facts
    /// set.
    fn factory_fresh(is_root: bool, delta: u8, out_ports: PortMask, start: StartBehavior) -> Self {
        ProtocolNode {
            is_root,
            delta,
            out_ports,
            start,
            started: false,
            pool: DwellPool::default(),
            grow: SnakeKind::GROWING.map(GrowRelay::new),
            dying: DYING.map(DyingPassage::new),
            marks: LoopMarks::new(),
            pending_loop: None,
            pending_bca: None,
            rca: RcaState::Idle,
            root_rca: RootRca::Open,
            bca: BcaState::Idle,
            bca_probe: false,
            pending_restart: false,
            reset_parity: false,
            kills_accepted: 0,
            rcas_started: 0,
            bcas_started: 0,
            max_chars: 0,
            dfs: DfsState::fresh(is_root),
            word: PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Observability (tests, invariants, experiment censuses)
    // ------------------------------------------------------------------

    /// Lemma 4.2's promise: between protocol phases, everything the RCA/BCA
    /// created is gone. DFS bookkeeping is excluded — the paper never
    /// erases it.
    pub fn snake_state_pristine(&self) -> bool {
        self.cleanup_checks().iter().all(|&(_, clean)| clean)
    }

    /// Characters of any kind dwelling in this processor (type-size /
    /// finite-state census).
    pub fn chars_in_flight(&self) -> usize {
        self.pool.len() + usize::from(self.pending_loop.is_some())
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
        let residue = self
            .cleanup_checks()
            .into_iter()
            .filter(|&(_, clean)| !clean);
        residue.map(|(name, _)| format!("{name} ")).collect()
    }

    /// Everything Lemma 4.2 promises to clean up, by name, each with
    /// whether it is pristine.
    fn cleanup_checks(&self) -> [(&'static str, bool); 12] {
        let pool = &self.pool;
        let [ig, og, bg] = self.grow.each_ref().map(|r| r.is_pristine(pool));
        let [id, od, bd] = self.dying.each_ref().map(|d| d.is_pristine(pool));
        [
            ("ig", ig),
            ("og", og),
            ("bg", bg),
            ("dying_id", id),
            ("dying_od", od),
            ("dying_bd", bd),
            ("marks", self.marks.is_pristine()),
            ("pending_loop", self.pending_loop.is_none()),
            ("pending_bca", self.pending_bca.is_none()),
            ("rca", self.rca == RcaState::Idle),
            ("bca", self.bca == BcaState::Idle),
            ("root_rca", !self.is_root || self.root_rca == RootRca::Open),
        ]
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
        now < self.pool.spill().dark_until()
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
        self.pool.retire();
        *self = ProtocolNode {
            pool: std::mem::take(&mut self.pool),
            kills_accepted: self.kills_accepted,
            rcas_started: self.rcas_started,
            bcas_started: self.bcas_started,
            max_chars: self.max_chars,
            ..Self::factory_fresh(self.is_root, self.delta, self.out_ports, self.start)
        };
        self.pool.spill_mut().go_dark(now + RESTART_DOWNTIME);
    }

    // ------------------------------------------------------------------
    // Protocol drivers
    // ------------------------------------------------------------------

    fn start_rca(&mut self, report: RcaReport, after: AfterRca, now: u64) {
        // In an undisturbed run RCAs are strictly serialized and start on a
        // pristine relay; after a live topology mutation a straggler DFS
        // token can ask for an RCA while one is in flight — drop the
        // request (the session's remap driver recovers the stalled run).
        if self.rca != RcaState::Idle || self.grow[lane(SnakeKind::Ig)].is_marked() {
            return;
        }
        self.grow[lane(SnakeKind::Ig)].start(&mut self.pool, now);
        self.rcas_started = self.rcas_started.saturating_add(1);
        self.rca = RcaState::AwaitOg { report, after };
    }

    fn start_bca(&mut self, via: Port, now: u64) {
        // Serialized like RCAs; see start_rca for the mutation caveat.
        if self.bca != BcaState::Idle || self.grow[lane(SnakeKind::Bg)].is_marked() {
            return;
        }
        self.grow[lane(SnakeKind::Bg)].start(&mut self.pool, now);
        self.bcas_started = self.bcas_started.saturating_add(1);
        self.bca = BcaState::AwaitBgHead { via };
    }

    /// Release the KILL flood and erase our own growing state. Done as
    /// soon as the initiator has consumed its whole growing stream — the
    /// growing snakes carry no further information from that moment, and
    /// releasing here (rather than at the paper's step 4) widens Lemma
    /// 4.2's catch-up margin from O(1) ticks to Θ(loop) ticks, closing a
    /// real race where a stale KILL of a short-loop BCA could erase the
    /// next RCA's fresh flood (README, reconstruction choice 5).
    fn release_kill(&mut self, ctx: &mut Ctx<W>) {
        for relay in &mut self.grow {
            relay.erase(&mut self.pool);
        }
        for o in self.out_ports.iter() {
            ctx.outputs[o.idx()].set_kill();
        }
    }

    /// RCA step 4: on the OD tail, release the speed-1 FORWARD/BACK loop
    /// token (the KILL flood was already released at OG-tail consumption).
    fn rca_step4(&mut self, report: RcaReport, after: AfterRca, ctx: &mut Ctx<W>) {
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

    fn on_rca_done(&mut self, after: AfterRca, now: u64, ctx: &mut Ctx<W>) {
        match after {
            AfterRca::Descend => {
                self.dfs.cursor = 0;
                self.advance_dfs(now, ctx);
            }
            AfterRca::Bounce { via } => self.start_bca(via, now),
            AfterRca::Advance => {
                self.dfs.cursor = self.dfs.cursor.saturating_add(1);
                self.advance_dfs(now, ctx);
            }
            AfterRca::ProbeDone => ctx.events.push(TranscriptEvent::RcaComplete),
        }
    }

    /// Send the DFS token out the current out-port, backtrack via BCA, or —
    /// at the root — terminate (§3).
    fn advance_dfs(&mut self, now: u64, ctx: &mut Ctx<W>) {
        if let Some(o) = self.out_ports.nth(usize::from(self.dfs.cursor)) {
            self.dfs.awaiting = true;
            ctx.outputs[o.idx()].put_dfs(DfsToken { sender_out_port: o });
        } else if self.is_root {
            self.dfs.done = true;
            ctx.events.push(TranscriptEvent::Terminated);
        } else {
            // A finished non-root processor always has a parent in an
            // undisturbed run; a mutation-era RESET can clear it.
            let Some(parent) = self.dfs.parent.get() else {
                return;
            };
            self.start_bca(parent, now);
        }
    }

    /// The BCA delivered its payload to us (we are the loop endpoint and
    /// have just absorbed the UNMARK — the network is clean again).
    fn on_bca_payload(&mut self, msg: BcaMsg, now: u64, ctx: &mut Ctx<W>) {
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
                    self.dfs.cursor = self.dfs.cursor.saturating_add(1);
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

    /// The idle relay: pass on a growing character by the flood rule
    /// (§2.3.2).
    fn relay_idle(&mut self, kind: SnakeKind, p: Port, c: SnakeChar, now: u64) {
        let relay = &mut self.grow[lane(kind)];
        if let Some(c) = relay.accept(p, c) {
            relay.relay(&mut self.pool, c, now);
        }
    }

    /// The loop-pair guard: may the `kind` lane adopt a head, marking
    /// its predecessor on pair `pred` and its successor on the lane's own
    /// pair? The two pairs differ only at the root's ID→OD conversion
    /// (§2.3.3). Always in an undisturbed run; adopting over
    /// mutation-era residue on the lane or the pairs would corrupt it.
    fn lane_free(&self, kind: SnakeKind, pred: MarkPair) -> bool {
        !self.dying[lane(kind)].is_active()
            && self.marks.pred(pred).is_none()
            && self.marks.succ(pair_of(kind)).is_none()
    }

    /// Head adoption: a head that arrived through `p` names successor
    /// out-port `out`. Mark both ports, as [`Self::lane_free`] checked,
    /// and begin the `kind` passage.
    fn adopt_head(&mut self, kind: SnakeKind, pred: MarkPair, p: Port, out: Port) {
        self.marks.set_pred(pred, p);
        self.marks.set_succ(pair_of(kind), out);
        self.dying[lane(kind)].begin(p, out);
    }

    /// Does `p` carry the rest of the `kind` lane's adopted stream? Only
    /// its predecessor in-port does, and only until the tail.
    fn on_path(&self, kind: SnakeKind, p: Port) -> bool {
        let passage = &self.dying[lane(kind)];
        !passage.is_done() && passage.pred() == Some(p)
    }

    /// The ordinary dying passage (§2.3.3) on the lane's own mark pair:
    /// adopt a head while the lane and the pair are free, pass the
    /// adopted stream on, and drop any other character (off-path, only
    /// possible after a mutation).
    fn pass_dying(&mut self, kind: SnakeKind, p: Port, c: SnakeChar, now: u64) {
        let pair = pair_of(kind);
        let c = c.filled(p);
        match c {
            SnakeChar::Head(hop) if self.lane_free(kind, pair) => {
                self.adopt_head(kind, pair, p, hop.out_port);
            }
            _ if self.on_path(kind, p) => {
                self.dying[lane(kind)].feed(&mut self.pool, p, c, now);
            }
            _ => {}
        }
    }

    /// UNMARK erasure: reset the `kinds` passages and their dwelling
    /// characters.
    fn reset_dying(&mut self, kinds: impl IntoIterator<Item = SnakeKind>) {
        for kind in kinds {
            self.dying[lane(kind)].reset(&mut self.pool);
        }
    }

    fn on_ig(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx<W>) {
        if self.is_root {
            match self.root_rca {
                RootRca::Open => {
                    if self.grow[lane(SnakeKind::Og)].is_marked() {
                        // Leftover OG state from a mutation-disturbed RCA:
                        // the root cannot become the OG origin again yet.
                        return;
                    }
                    if let Some(c) = self.grow[lane(SnakeKind::Ig)].accept(p, c) {
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
                        let og = &mut self.grow[lane(SnakeKind::Og)];
                        og.mark_initiator();
                        og.relay(&mut self.pool, c, now);
                        self.root_rca = RootRca::ConvertingIg;
                    }
                }
                RootRca::ConvertingIg => {
                    if let Some(c) = self.grow[lane(SnakeKind::Ig)].accept(p, c) {
                        match c {
                            SnakeChar::Tail => {
                                ctx.events.push(TranscriptEvent::IgTail);
                                // relay(Tail) appends the root's own hop then
                                // the tail — "the root holds onto the tail
                                // character while it sends OG(i, ∗) out of
                                // each of its out-ports" (step 2).
                                let og = &self.grow[lane(SnakeKind::Og)];
                                og.relay(&mut self.pool, SnakeChar::Tail, now);
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
                                self.grow[lane(SnakeKind::Og)].relay(&mut self.pool, other, now);
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
        self.relay_idle(SnakeKind::Ig, p, c, now);
    }

    fn on_og(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx<W>) {
        if self.is_root {
            // The root is the OG source; it never re-admits OG characters.
            return;
        }
        match self.rca {
            RcaState::AwaitOg { report, after } => {
                if !self.lane_free(SnakeKind::Id, MarkPair::First) {
                    return;
                }
                if let Some(c) = self.grow[lane(SnakeKind::Og)].accept(p, c) {
                    // First surviving OG head: eat it as if it were an ID
                    // head (step 3) — its hop is our own first hop towards
                    // the root.
                    let Some(hop) = c.hop() else {
                        return; // headless straggler stream
                    };
                    self.adopt_head(SnakeKind::Id, MarkPair::First, p, hop.out_port);
                    self.rca = RcaState::AwaitOdTail { report, after };
                }
            }
            RcaState::AwaitOdTail { .. }
                // The adopted stream arrives exclusively through the
                // predecessor in-port recorded at head consumption; gate on
                // that rather than the (KILL-erased) OG relay so post-KILL
                // straggler heads cannot re-adopt us. Once the tail is
                // consumed the conversion is over and everything is junk.
                if self.on_path(SnakeKind::Id, p) => {
                    let c = c.filled(p);
                    // Convert the rest of the OG stream into the ID snake.
                    let is_tail = c.is_tail();
                    self.dying[lane(SnakeKind::Id)].feed(&mut self.pool, p, c, now);
                    if is_tail {
                        // The whole OG stream is consumed: the growing
                        // snakes are pure garbage now — kill them early.
                        self.release_kill(ctx);
                    }
                }
            RcaState::Idle => self.relay_idle(SnakeKind::Og, p, c, now),
            // Step 4/5 phases: closed to OG (stragglers die here).
            _ => {}
        }
    }

    fn on_bg(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx<W>) {
        match self.bca {
            BcaState::AwaitBgHead { via } if p == via => {
                let c = c.filled(p);
                if let SnakeChar::Head(hop) = c {
                    if !self.lane_free(SnakeKind::Bd, MarkPair::First) {
                        return;
                    }
                    // The first BG head returning through the designated
                    // in-port encodes the canonical loop B→…→A→B. Eat the
                    // head, mark our ports, start converting to BD.
                    self.adopt_head(SnakeKind::Bd, MarkPair::First, via, hop.out_port);
                    self.bca = BcaState::Converting { via };
                }
            }
            BcaState::Converting { via } if p == via && self.on_path(SnakeKind::Bd, p) => {
                let c = c.filled(p);
                let is_tail = c.is_tail();
                self.dying[lane(SnakeKind::Bd)].feed(&mut self.pool, via, c, now);
                if is_tail {
                    self.bca = BcaState::AwaitBdTail { via };
                    // BG stream fully consumed: kill the flood early (the
                    // BD marking rides its own alphabet and is untouched).
                    self.release_kill(ctx);
                }
            }
            BcaState::Idle => self.relay_idle(SnakeKind::Bg, p, c, now),
            // B ignores BG characters on other ports / later phases.
            _ => {}
        }
    }

    fn on_id(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx<W>) {
        if self.is_root {
            match self.root_rca {
                RootRca::AwaitId => {
                    let c = c.filled(p);
                    if let SnakeChar::Head(hop) = c {
                        // Convert ID→OD: predecessor #1, successor #2
                        // (§2.3.3 — the root's exceptional port pairing).
                        if !self.lane_free(SnakeKind::Od, MarkPair::First) {
                            return;
                        }
                        ctx.events.push(TranscriptEvent::IdHop(hop));
                        self.adopt_head(SnakeKind::Od, MarkPair::First, p, hop.out_port);
                        self.root_rca = RootRca::ConvertingId;
                    }
                }
                RootRca::ConvertingId if self.on_path(SnakeKind::Od, p) => {
                    let c = c.filled(p);
                    match c {
                        SnakeChar::Body(hop) => ctx.events.push(TranscriptEvent::IdHop(hop)),
                        SnakeChar::Tail => ctx.events.push(TranscriptEvent::IdTail),
                        SnakeChar::Head(_) => return, // cannot happen in a clean run
                    }
                    self.dying[lane(SnakeKind::Od)].feed(&mut self.pool, p, c, now);
                    if c.is_tail() {
                        self.root_rca = RootRca::LoopPhase;
                    }
                }
                _ => {}
            }
            return;
        }
        // Ordinary passage on the A→root half.
        self.pass_dying(SnakeKind::Id, p, c, now);
    }

    fn on_od(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx<W>) {
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
        // Ordinary passage on the root→A half.
        self.pass_dying(SnakeKind::Od, p, c, now);
    }

    fn on_bd(&mut self, p: Port, c: SnakeChar, now: u64, ctx: &mut Ctx<W>) {
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
        // Ordinary BD passage (BCA loops are simple cycles).
        self.pass_dying(SnakeKind::Bd, p, c, now);
    }

    fn on_loop(&mut self, p: Port, tok: LoopToken, now: u64, ctx: &mut Ctx<W>) {
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
            self.reset_dying([SnakeKind::Bd]);
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
        if self.dying[lane(SnakeKind::Bd)].is_endpoint() {
            if let LoopToken::Bca(msg) = tok {
                // We are the BCA target: capture the payload, act on it
                // when the UNMARK reaches us and the network is clean.
                self.pending_bca = Some(msg);
            }
        }
        self.pending_loop = Some((TickStamp::new(now + SPEED1_DWELL), tok, route.succ));
        self.marks.advance(route);
    }

    fn on_unmark(&mut self, p: Port, now: u64, ctx: &mut Ctx<W>) {
        // Absorption by the RCA initiator: the RCA is over (step 5).
        if let RcaState::AwaitUnmarkReturn { after } = self.rca {
            if self.marks.pred(MarkPair::First) == Some(p) {
                self.marks.clear();
                self.reset_dying([SnakeKind::Id, SnakeKind::Od]);
                self.rca = RcaState::Idle;
                self.on_rca_done(after, now, ctx);
                return;
            }
        }
        // Absorption by the BCA target: everything before us on the loop is
        // erased and all KILLs are dead — act on the payload.
        let bd = &self.dying[lane(SnakeKind::Bd)];
        if bd.is_endpoint() && bd.pred() == Some(p) {
            self.marks.clear();
            self.reset_dying([SnakeKind::Bd]);
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
            self.reset_dying(DYING.into_iter().filter(|&k| pair_of(k) == route.pair));
            if self.is_root {
                // "Upon reception of this UNMARK token, the root reopens
                // itself to IG-snakes" (step 5).
                self.reset_dying([SnakeKind::Od, SnakeKind::Id]);
                self.root_rca = RootRca::Open;
            }
        }
        // An off-loop UNMARK (impossible without a mutation) is dropped.
    }

    fn on_dfs_forward(&mut self, o: Port, i: Port, now: u64, ctx: &mut Ctx<W>) {
        if self.is_root {
            // Root self-communication short-circuit (README, reconstruction
            // choice 2): the transcript is piped locally, then the token
            // bounces back.
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
            self.dfs.parent = OptPort::some(i);
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

    /// Emit what is due at `now`, and return the earliest tick at which
    /// anything still dwelling emerges: the wake deadline this processor
    /// hands the engine's frontier. `None` when nothing is left dwelling
    /// (the processor is purely input-driven).
    fn flush_due(&mut self, now: u64, outputs: &mut [Signal<W>]) -> Option<u64> {
        // At most one emission per snake kind per tick. In an undisturbed
        // run deadlines within one lane are spaced ≥ 1 tick apart (one
        // character per wire per tick) and the processor steps on every
        // tick it holds pending characters, so this drains exactly as the
        // unbounded loop would. After a live mutation a straggler stream
        // can land a second character whose deadline collides with a
        // queued one (e.g. a re-routed head arriving behind a tail);
        // serializing the emissions preserves the one-character-per-kind
        // wire invariant instead of tripping its collision guard. Every
        // lane's front is popped in one pass over the pool, which also
        // finds the earliest deadline left. The popped items land in a
        // local array: an array returned by value was written with 4-byte
        // stores and copied with 16-byte loads, a store-forwarding stall
        // on every step.
        let mut due = [None; SnakeKind::ALL.len()];
        let next = self
            .pool
            .pop_due_each(now, |kind, w| due[kind.idx()] = Some(w));
        for kind in SnakeKind::GROWING {
            let Some(w) = due[kind.idx()] else { continue };
            let emit = GrowEmit::unpack(w);
            for o in self.out_ports.iter() {
                let c = match emit {
                    GrowEmit::Heads => SnakeChar::Head(Hop::star(o)),
                    GrowEmit::Relay(c) => c,
                    GrowEmit::Extend => SnakeChar::Body(Hop::star(o)),
                    GrowEmit::Tail => SnakeChar::Tail,
                };
                outputs[o.idx()].put_snake(kind, c);
            }
        }
        // Dying lanes route each character to their passage's successor
        // out-port, which is set whenever the lane holds characters.
        for passage in &self.dying {
            let kind = passage.out_kind();
            if let (Some(w), Some(port)) = (due[kind.idx()], passage.succ()) {
                outputs[port.idx()].put_snake(kind, SnakeChar::unpack(w));
            }
        }
        if let Some((deadline, tok, port)) = self.pending_loop {
            if deadline.tick(now) <= now {
                outputs[port.idx()].put_loop(tok);
                self.pending_loop = None;
            }
        }
        let token = self.pending_loop.map(|(at, _, _)| at.tick(now));
        next.into_iter().chain(token).min()
    }

    fn has_pending(&self) -> bool {
        !self.pool.is_empty() || self.pending_loop.is_some()
    }
}

impl<W: WireWord> Automaton for ProtocolNode<W> {
    type Sig = Signal<W>;
    type Event = TranscriptEvent;

    fn step(&mut self, ctx: &mut Ctx<W>) {
        let now = ctx.tick;

        // A power-cycled processor is dark: every arriving character is
        // consumed and lost, nothing is emitted, and the engine is asked
        // to wake us exactly when the downtime expires (so the amnesiac
        // power-on lands on the same tick in every engine mode).
        let dark_until = self.pool.spill().dark_until();
        if now < dark_until {
            let blank = Signal::default();
            let lost = ctx.inputs[..self.delta as usize]
                .iter()
                .filter(|s| **s != blank)
                .count();
            self.pool.spill_mut().record_lost(lost as u64);
            ctx.request_restep_at(dark_until);
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
            self.dfs = DfsState::fresh(true);
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
                    self.dfs = DfsState::fresh(false);
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
                // a KILL is accepted only through a growing lane's parent
                let parent = Some(Port(i as u8));
                if ctx.inputs[i].kill() && self.grow.iter().any(|r| r.parent() == parent) {
                    killed = true;
                }
            }
        }
        if killed {
            self.kills_accepted = self.kills_accepted.saturating_add(1);
            self.release_kill(ctx);
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
        let next = self.flush_due(now, ctx.outputs);

        // Phase 8: sleep until the earliest scheduled emission. The engine
        // frontier skips this processor entirely until that deadline (or
        // until a character arrives) — the speed-1 dwells that dominate a
        // protocol run cost no steps at all. `flush_due` drains at most
        // one emission per lane per tick, so a drained lane whose next
        // item is already due simply re-arms for the coming tick.
        self.note_chars(self.chars_in_flight());
        if let Some(deadline) = next {
            ctx.request_restep_at(deadline);
        }
    }

    fn on_rewire(&mut self, meta: &NodeMeta) {
        // Port awareness (§1.2.1) tracks the physical wiring: recompute
        // the connected out-port list. Snake and DFS state are left alone
        // — the session-level remap driver decides whether the disturbed
        // run needs a RESET flood or a full power-cycle.
        self.out_ports = meta.out_connected;
        let len = self.out_ports.len() as u8;
        if self.dfs.cursor > len {
            self.dfs.cursor = len;
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
        // every dying lane at most two, and no processor ever holds more
        // characters than its pool's eight entries, so no lane spills.
        // Each family's character high-water mark (`stat_max_chars`, a
        // dwelling loop token included) is pinned exactly, for the map
        // and for the RCA: a protocol change that deepens dwell fails
        // here before it starts spilling.
        use crate::runner::build_gtd_engine;
        use gtd_netsim::{spec::registry_examples, Engine, EngineMode, NodeId};

        // Per family: the high-water mark of the map, then of the RCA.
        const MAX_CHARS: &[(&str, [u64; 2])] = &[
            ("ring", [3, 3]),
            ("line-bidi", [5, 3]),
            ("torus", [6, 6]),
            ("debruijn", [5, 3]),
            ("kautz", [5, 3]),
            ("hypercube", [6, 6]),
            ("complete", [3, 3]),
            ("random-sc", [6, 6]),
            ("bidi-grid-faulty", [6, 3]),
            ("tree-loop", [6, 3]),
        ];
        let specs = registry_examples();
        assert_eq!(specs.len(), MAX_CHARS.len(), "one pin per family");
        for (spec, &(family, pinned)) in specs.iter().zip(MAX_CHARS) {
            assert_eq!(spec.family_name(), family);
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
            for ((mut engine, done), pinned) in [
                (map, TranscriptEvent::Terminated),
                (rca, TranscriptEvent::RcaComplete),
            ]
            .into_iter()
            .zip(pinned)
            {
                let (mut growing, mut dying, mut pooled) = (0, 0, 0);
                drive(&mut engine, done, 1_000_000, |e| {
                    for n in e.nodes() {
                        for r in &n.grow {
                            growing = growing.max(r.pending_len(&n.pool));
                        }
                        for p in &n.dying {
                            dying = dying.max(p.pending_len(&n.pool));
                        }
                        pooled = pooled.max(n.pool.len());
                    }
                });
                let at = format!("{spec} until {done:?}");
                assert!(engine.is_quiet(), "{at}: never settled");
                assert!(growing <= 3 && dying <= 2, "{at}: {growing} / {dying}");
                assert!(
                    pooled <= DwellPool::INLINE,
                    "{at}: the pool overflowed ({pooled})"
                );
                for n in engine.nodes() {
                    assert_eq!(n.spilled_lanes(), 0, "{at}");
                    assert!(n.stat_max_chars() <= 8, "{at}: {}", n.stat_max_chars());
                    assert_eq!(n.stat_dropped(), 0, "{at}");
                }
                let max_chars = engine.nodes().iter().map(|n| n.stat_max_chars()).max();
                assert_eq!(max_chars, Some(pinned), "{at}: the high-water mark moved");
            }
        }
    }

    #[test]
    fn every_dying_lane_adopts_one_stream_and_drops_off_path_characters() {
        // The ordinary passage, once per dying lane: a stray body on an
        // idle lane is dropped, a head adopts the lane and its mark pair,
        // and from then on only the adopted in-port feeds it — a body or
        // a second head through another in-port leaves the node as it
        // was. Clean runs never send an off-path character.
        use gtd_netsim::{generators, EngineMode, NodeId};

        let topo = generators::random_sc(12, 3, 4);
        let engine = crate::runner::build_gtd_engine(&topo, EngineMode::Sparse);
        let head = SnakeChar::Head(Hop::star(Port(2)));
        let body = SnakeChar::Body(Hop::star(Port(1)));
        for kind in DYING {
            let mut n = engine.node(NodeId(1)).clone();
            n.pass_dying(kind, Port(0), body, 0);
            assert!(n.snake_state_pristine(), "{kind}: a stray body was kept");
            n.pass_dying(kind, Port(0), head, 0);
            let passage = &n.dying[lane(kind)];
            assert_eq!(
                (passage.pred(), passage.succ()),
                (Some(Port(0)), Some(Port(2)))
            );
            let pair = pair_of(kind);
            assert_eq!(n.marks.pred(pair), Some(Port(0)), "{kind}");
            assert_eq!(n.marks.succ(pair), Some(Port(2)), "{kind}");
            let adopted = format!("{n:?}");
            n.pass_dying(kind, Port(1), body, 1);
            n.pass_dying(kind, Port(1), head, 1);
            assert_eq!(
                format!("{n:?}"),
                adopted,
                "{kind}: an off-path character moved state"
            );
            n.pass_dying(kind, Port(0), body, 1);
            assert_eq!(n.dying[lane(kind)].pending_len(&n.pool), 1, "{kind}");
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

    #[test]
    fn a_swapped_network_overflowing_a_dying_lane_drops_instead_of_panicking() {
        // Swapping two processors' labels under a running map can feed a
        // dying lane a stream faster than it drains. The lane refuses the
        // characters past its capacity and counts them, as growing lanes
        // do; it used to trip the finite-state guard's panic.
        use crate::runner::build_gtd_engine;
        use gtd_netsim::{EngineMode, MutationKind, TopologyMutation, TopologySpec};

        let spec: TopologySpec = "random-sc:n=24,delta=3,seed=1"
            .parse()
            .expect("literal spec parses");
        let topo = spec.build();
        let swapped = topo
            .apply(&TopologyMutation {
                kind: MutationKind::SwapLabels,
                selector: 0,
            })
            .expect("swap applies");
        let mut engine = build_gtd_engine(&topo, EngineMode::Sparse);
        drive(&mut engine, TranscriptEvent::Terminated, 20_000, |e| {
            if e.tick_count() == 45 {
                e.apply_topology(&swapped);
            }
        });
        let dropped: u64 = engine.nodes().iter().map(|n| n.stat_dropped()).sum();
        assert!(dropped > 0, "the overflow was never reached");
    }

    #[test]
    fn compact_deadlines_hold_above_u32_max_and_across_stamp_wraps() {
        // Differential test of the 16-bit loop-token deadline and the
        // cold restart deadline. A re-map, with one processor power-cycled
        // along the way, runs once at the clock the first map left and
        // once with the clock jumped past `u32::MAX` to just before a
        // 16-bit wrap, so stamps wrap mid-run. Both must tell the same
        // story tick for tick, and the restarted processor must be dark
        // for exactly `RESTART_DOWNTIME` ticks.
        use crate::runner::build_gtd_engine;
        use gtd_netsim::{generators, Engine, EngineMode, NodeId};

        type Story = Vec<(u64, NodeId, TranscriptEvent)>;
        let topo = generators::random_sc(12, 3, 4);
        let victim = NodeId(5);
        let remap = |jump_to: Option<u64>| -> (Story, Vec<[u64; 5]>) {
            let mut engine: Engine<ProtocolNode> = build_gtd_engine(&topo, EngineMode::Sparse);
            drive(&mut engine, TranscriptEvent::Terminated, 1_000_000, |_| {});
            if let Some(at) = jump_to {
                engine.skip_lull(at);
            }
            let base = engine.tick_count();
            engine.node_mut(NodeId(0)).master_restart();
            let (mut story, mut events) = (Story::new(), Vec::new());
            while engine.tick_count() - base < 30_000 {
                let now = engine.tick_count();
                if now - base == 3_000 {
                    engine.node_mut(victim).restart(now);
                }
                let dark = (3_000..3_000 + RESTART_DOWNTIME).contains(&(now - base));
                assert_eq!(engine.node(victim).is_offline(now), dark, "tick {now}");
                events.clear();
                engine.tick(&mut events);
                story.extend(events.iter().map(|&(n, e)| (now - base, n, e)));
            }
            let stats = engine.nodes().iter().map(|n| {
                [
                    n.stat_kills_accepted(),
                    n.stat_rcas_started(),
                    n.stat_bcas_started(),
                    n.stat_max_chars(),
                    n.stat_dropped(),
                ]
            });
            (story, stats.collect())
        };
        let (story, stats) = remap(None);
        assert!(story.len() > 300, "the re-map ran");
        assert!(
            stats[victim.0 as usize][4] > 0,
            "the power cycle lost characters"
        );
        let wrap = 1u64 << 16;
        for jump_to in [(1 << 32) + wrap - 97, (1 << 32) + 7 * wrap - 1_000, 1 << 40] {
            assert_eq!(
                remap(Some(jump_to)),
                (story.clone(), stats.clone()),
                "at {jump_to}"
            );
        }
    }

    #[test]
    fn the_character_high_water_mark_saturates() {
        let topo = gtd_netsim::generators::ring(3);
        let engine = crate::runner::build_gtd_engine(&topo, gtd_netsim::EngineMode::Sparse);
        let mut node = engine.node(gtd_netsim::NodeId(1)).clone();
        node.note_chars(7);
        assert_eq!(node.stat_max_chars(), 7);
        node.note_chars(300);
        assert_eq!(node.stat_max_chars(), 255);
        node.note_chars(usize::MAX);
        node.note_chars(3);
        assert_eq!(node.stat_max_chars(), 255);
    }
}
