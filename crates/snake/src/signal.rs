//! The wire alphabet.
//!
//! Each wire carries one constant-size character per tick. The protocol
//! multiplexes several *construct channels* onto a wire — the paper's
//! convention that "snakes of different types do not interact. A processor
//! can handle different snake types simultaneously … because snake types
//! are distinguished by their alphabets" (§2.3.1). Formally the wire
//! alphabet is the product of finitely many constant alphabets, which is
//! still a constant alphabet; [`Signal`] is that product type, bit-packed
//! into one integer whose port fields are sized to δ ([`WireWord`]): a
//! `u64` with 2-bit ports for δ ≤ 4, a `u128` with 6-bit ports up to
//! δ = 64. The blank character *b* of the quiescent state is
//! `Signal::default()`, the all-zero word at either width.

use crate::chars::{Hop, SnakeChar, SnakeKind};
use crate::grow::GrowEmit;
use crate::speed::DwellItem;
use gtd_netsim::{Port, MAX_DELTA};
use std::ops::{BitAnd, BitOr, Not, Shl, Shr};

/// Constant-size message a BCA delivers backwards along an edge.
///
/// In the GTD protocol the only backwards cargo is the DFS token itself;
/// the enum leaves room for other protocols built on the same BCA.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BcaMsg {
    /// "Here is the DFS token back" (§3: backtrack or bounce).
    DfsReturn,
}

/// A token travelling around a marked loop (speed-1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopToken {
    /// RCA payload: the DFS moved forward through out-port `out_port` of
    /// the previous holder into in-port `in_port` of the sender (§3).
    /// δ² variants, exactly as the paper counts them.
    Forward { out_port: Port, in_port: Port },
    /// RCA payload: the DFS token moved backwards (§3).
    Back,
    /// BCA payload delivered to the loop's endpoint processor.
    Bca(BcaMsg),
}

/// The DFS token moving *forward* along a wire (§3). It "remembers …
/// through which out-port it has been most recently passed"; the receiving
/// processor supplies the in-port itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DfsToken {
    /// The out-port the sender pushed the token through.
    pub sender_out_port: Port,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u128 {}
}

/// The integer a [`Signal`] packs into, which fixes the width of its port
/// fields: `u64` carries ports below 4 (2 bits each), `u128` every port
/// below [`MAX_DELTA`] (6 bits each). A network picks the narrowest word
/// that holds its δ; nothing but memory differs between the two.
pub trait WireWord:
    sealed::Sealed
    + Copy
    + Default
    + Eq
    + Send
    + Sync
    + std::fmt::Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + From<u16>
{
    /// Bits per port field.
    const PORT_BITS: u32;

    /// The word's low 16 bits.
    fn low16(self) -> u16;
}

impl WireWord for u64 {
    const PORT_BITS: u32 = 2;

    #[inline]
    fn low16(self) -> u16 {
        self as u16
    }
}

impl WireWord for u128 {
    const PORT_BITS: u32 = 6;

    #[inline]
    fn low16(self) -> u16 {
        self as u16
    }
}

/// Everything that can cross one wire in one tick: at most one character
/// per snake kind, plus the token channels.
///
/// The paper's wire alphabet is a constant-size product of constant
/// alphabets (§1.1, §2.3.1). With `P` = [`WireWord::PORT_BITS`] the
/// product packs into one word `W`, from bit 0 up:
///
/// * six snake slots of `3 + 2P` bits, one per [`SnakeKind`] in slot
///   order: the role (2 bits: 0 = absent, 1 = head, 2 = body, 3 = tail),
///   the hop's out-port, one bit set when the in-port is known (clear =
///   the paper's `∗`), the in-port;
/// * the loop token, `2 + 2P` bits: the variant (0 = absent, 1 = BACK,
///   2 = BCA payload, 3 = FORWARD), then FORWARD's out- and in-port;
/// * four flags: KILL, UNMARK, RESET present, RESET parity;
/// * the DFS field, `P + 1` bits: the sender's out-port + 1 (0 = absent).
///
/// That is [`Signal::BITS`] = 55 bits in a `u64` (8 bytes, δ ≤ 4) and 115
/// in a `u128` (16 bytes, δ ≤ 64). Every port below
/// [`Signal::MAX_DELTA`] round-trips exactly; a larger one is masked, so
/// the protocol automaton refuses a network whose δ its word cannot
/// carry. The blank character *b* is the zero word, so `==` is one
/// integer compare. The word is aligned to its size, so a wire slot
/// never straddles two cache lines: the engine's saturated gather reads
/// one slot per wire in random order, and a straddling slot costs two
/// misses instead of one.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct Signal<W: WireWord = u64>(W);

// Each layout fits its word, and the wide word's 6-bit port fields cover
// every port only while δ ≤ 64.
const _: () = assert!(Signal::<u64>::BITS <= u64::BITS);
const _: () = assert!(Signal::<u128>::BITS <= u128::BITS);
const _: () = assert!(MAX_DELTA <= Signal::<u128>::MAX_DELTA);

const ROLE_BITS: u16 = 3;
const ROLE_HEAD: u16 = 1;
const ROLE_BODY: u16 = 2;
const ROLE_TAIL: u16 = 3;

const LOOP_BITS: u16 = 3;
const LOOP_BACK: u16 = 1;
const LOOP_BCA: u16 = 2;
const LOOP_FORWARD: u16 = 3;

const FLAG_KILL: u16 = 1;
const FLAG_UNMARK: u16 = 1 << 1;
const FLAG_RESET: u16 = 1 << 2;
const FLAG_RESET_PARITY: u16 = 1 << 3;

/// Port width of the dwell pool's 16-bit item form ([`DwellItem`]): the
/// wide word's, whatever word the wires use.
const DWELL_PORT_BITS: u32 = <u128 as WireWord>::PORT_BITS;

#[inline]
fn port_code(p: Port, bits: u32) -> u16 {
    u16::from(p.0) & ((1 << bits) - 1)
}

#[inline]
fn port_at(w: u16, shift: u32, bits: u32) -> Port {
    Port(((w >> shift) & ((1 << bits) - 1)) as u8)
}

/// The slot code of `c` with `bits`-bit ports: role, out-port,
/// in-port-present bit, in-port.
#[inline]
fn encode_snake(c: SnakeChar, bits: u32) -> u16 {
    let (role, hop) = match c {
        SnakeChar::Head(h) => (ROLE_HEAD, h),
        SnakeChar::Body(h) => (ROLE_BODY, h),
        SnakeChar::Tail => return ROLE_TAIL,
    };
    let in_port = hop
        .in_port
        .map_or(0, |p| (1 | port_code(p, bits) << 1) << (2 + bits));
    role | port_code(hop.out_port, bits) << 2 | in_port
}

/// The character a slot code with a non-zero role encodes.
#[inline]
fn snake_of(w: u16, bits: u32) -> SnakeChar {
    let role = w & ROLE_BITS;
    if role == ROLE_TAIL {
        return SnakeChar::Tail;
    }
    let hop = Hop {
        out_port: port_at(w, 2, bits),
        in_port: (w >> (2 + bits) & 1 != 0).then(|| port_at(w, 3 + bits, bits)),
    };
    if role == ROLE_HEAD {
        SnakeChar::Head(hop)
    } else {
        SnakeChar::Body(hop)
    }
}

/// A dwelling character is held in its slot code.
impl DwellItem for SnakeChar {
    #[inline]
    fn pack(self) -> u16 {
        encode_snake(self, DWELL_PORT_BITS)
    }

    #[inline]
    fn unpack(w: u16) -> Self {
        snake_of(w, DWELL_PORT_BITS)
    }
}

// The growing-snake emissions that carry no character take role-0 codes,
// which no snake character uses.
const EMIT_HEADS: u16 = 0;
const EMIT_EXTEND: u16 = 1 << 2;
const EMIT_TAIL: u16 = 2 << 2;

impl DwellItem for GrowEmit {
    #[inline]
    fn pack(self) -> u16 {
        match self {
            GrowEmit::Heads => EMIT_HEADS,
            GrowEmit::Relay(c) => c.pack(),
            GrowEmit::Extend => EMIT_EXTEND,
            GrowEmit::Tail => EMIT_TAIL,
        }
    }

    #[inline]
    fn unpack(w: u16) -> Self {
        match w {
            EMIT_HEADS => GrowEmit::Heads,
            EMIT_EXTEND => GrowEmit::Extend,
            EMIT_TAIL => GrowEmit::Tail,
            _ => GrowEmit::Relay(SnakeChar::unpack(w)),
        }
    }
}

impl<W: WireWord> Signal<W> {
    const P: u32 = W::PORT_BITS;
    /// Bits of one snake slot.
    const SLOT: u32 = 3 + 2 * Self::P;
    const LOOP_AT: u32 = 6 * Self::SLOT;
    const FLAGS_AT: u32 = Self::LOOP_AT + 2 + 2 * Self::P;
    const DFS_AT: u32 = Self::FLAGS_AT + 4;

    /// Bits of the word the layout uses: 55 in a `u64`, 115 in a `u128`.
    pub const BITS: u32 = Self::DFS_AT + Self::P + 1;

    /// The largest δ whose every port this word carries.
    pub const MAX_DELTA: u8 = 1 << Self::P;

    /// The word with `code` at bit `at`.
    #[inline]
    fn at(code: u16, at: u32) -> W {
        W::from(code) << at
    }

    /// The `bits`-bit field at bit `at`.
    #[inline]
    fn field(self, at: u32, bits: u32) -> u16 {
        (self.0 >> at).low16() & ((1 << bits) - 1)
    }

    #[inline]
    fn any(self, mask: W) -> bool {
        self.0 & mask != W::default()
    }

    /// The role bits of every slot in `kinds`.
    #[inline]
    fn roles(kinds: &[SnakeKind]) -> W {
        kinds.iter().fold(W::default(), |m, k| {
            m | Self::at(ROLE_BITS, k.idx() as u32 * Self::SLOT)
        })
    }

    #[inline]
    fn slot(self, kind: SnakeKind) -> u16 {
        self.field(kind.idx() as u32 * Self::SLOT, Self::SLOT)
    }

    #[inline]
    fn loop_code(self) -> u16 {
        self.field(Self::LOOP_AT, 2 + 2 * Self::P)
    }

    #[inline]
    fn dfs_code(self) -> u16 {
        self.field(Self::DFS_AT, Self::P + 1)
    }

    #[inline]
    fn flag(self, f: u16) -> bool {
        self.any(Self::at(f, Self::FLAGS_AT))
    }

    /// The blank character *b*.
    #[inline]
    pub fn blank() -> Self {
        Signal::default()
    }

    /// Is this the blank character?
    #[inline]
    pub fn is_blank(&self) -> bool {
        *self == Signal::default()
    }

    /// The snake character of `kind` on this wire, if any.
    #[inline]
    pub fn snake(&self, kind: SnakeKind) -> Option<SnakeChar> {
        let w = self.slot(kind);
        (w & ROLE_BITS != 0).then(|| snake_of(w, Self::P))
    }

    /// Place a snake character of `kind` on this wire. Panics if the slot
    /// is already occupied — the protocol guarantees one character per kind
    /// per wire per tick, and a collision means a relay bug.
    #[inline]
    pub fn put_snake(&mut self, kind: SnakeKind, c: SnakeChar) {
        assert!(
            self.slot(kind) == 0,
            "snake channel collision: two {kind} characters on one wire in one tick"
        );
        let code = encode_snake(c, Self::P);
        self.0 = self.0 | Self::at(code, kind.idx() as u32 * Self::SLOT);
    }

    /// The speed-1 loop token (FORWARD / BACK / BCA payload), if any.
    #[inline]
    pub fn loop_tok(&self) -> Option<LoopToken> {
        let w = self.loop_code();
        match w & LOOP_BITS {
            0 => None,
            LOOP_BACK => Some(LoopToken::Back),
            LOOP_BCA => Some(LoopToken::Bca(BcaMsg::DfsReturn)),
            _ => Some(LoopToken::Forward {
                out_port: port_at(w, 2, Self::P),
                in_port: port_at(w, 2 + Self::P, Self::P),
            }),
        }
    }

    /// Place a loop token; panics on collision (at most one loop construct
    /// exists per RCA/BCA phase).
    #[inline]
    pub fn put_loop(&mut self, t: LoopToken) {
        assert!(self.loop_code() == 0, "loop-token channel collision");
        let code = match t {
            LoopToken::Forward { out_port, in_port } => {
                let ports = port_code(out_port, Self::P) | port_code(in_port, Self::P) << Self::P;
                LOOP_FORWARD | ports << 2
            }
            LoopToken::Back => LOOP_BACK,
            LoopToken::Bca(BcaMsg::DfsReturn) => LOOP_BCA,
        };
        self.0 = self.0 | Self::at(code, Self::LOOP_AT);
    }

    /// The DFS token moving forward through this wire, if any.
    #[inline]
    pub fn dfs(&self) -> Option<DfsToken> {
        self.dfs_code().checked_sub(1).map(|p| DfsToken {
            sender_out_port: Port(p as u8),
        })
    }

    /// Place the DFS token; panics on collision (there is exactly one DFS
    /// token in the network).
    #[inline]
    pub fn put_dfs(&mut self, t: DfsToken) {
        assert!(self.dfs_code() == 0, "dfs channel collision");
        let code = port_code(t.sender_out_port, Self::P) + 1;
        self.0 = self.0 | Self::at(code, Self::DFS_AT);
    }

    /// Speed-3 breadth-first KILL token (RCA step 4).
    #[inline]
    pub fn kill(&self) -> bool {
        self.flag(FLAG_KILL)
    }

    /// Place a KILL token.
    #[inline]
    pub fn set_kill(&mut self) {
        self.0 = self.0 | Self::at(FLAG_KILL, Self::FLAGS_AT);
    }

    /// Speed-3 UNMARK loop token (RCA step 5).
    #[inline]
    pub fn unmark(&self) -> bool {
        self.flag(FLAG_UNMARK)
    }

    /// Place an UNMARK token.
    #[inline]
    pub fn set_unmark(&mut self) {
        self.0 = self.0 | Self::at(FLAG_UNMARK, Self::FLAGS_AT);
    }

    /// Speed-3 RESET flood: clears DFS bookkeeping so the root can re-map
    /// a (possibly changed) network — our dynamic-remapping extension.
    /// Carries the new round's parity bit so late-arriving flood copies
    /// cannot re-clear a processor the new DFS already visited.
    #[inline]
    pub fn reset(&self) -> Option<bool> {
        self.flag(FLAG_RESET).then(|| self.flag(FLAG_RESET_PARITY))
    }

    /// Place a RESET stamped with round parity `parity` (a second RESET on
    /// the same wire overwrites the stamp).
    #[inline]
    pub fn set_reset(&mut self, parity: bool) {
        let p = if parity { FLAG_RESET_PARITY } else { 0 };
        let cleared = self.0 & !Self::at(FLAG_RESET_PARITY, Self::FLAGS_AT);
        self.0 = cleared | Self::at(FLAG_RESET | p, Self::FLAGS_AT);
    }

    /// Number of non-empty construct channels (diagnostics / E5 census).
    pub fn occupancy(&self) -> usize {
        SnakeKind::ALL
            .iter()
            .filter(|&&k| self.slot(k) != 0)
            .count()
            + usize::from(self.kill())
            + usize::from(self.unmark())
            + usize::from(self.reset().is_some())
            + usize::from(self.loop_code() != 0)
            + usize::from(self.dfs_code() != 0)
    }
}

/// Which construct channels are live on a set of wires: the OR of their
/// words.
///
/// Snake kinds and tokens ride independent alphabets and "do not
/// interact" (§2.3.1), so a channel that is blank on every in-port cannot
/// change anything in a step. The automaton builds one summary of its
/// in-ports per step and skips every channel it reports absent.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Presence<W: WireWord = u64>(Signal<W>);

impl<W: WireWord> Presence<W> {
    /// The summary of `signals` (nothing is live on an empty slice).
    #[inline]
    pub fn of(signals: &[Signal<W>]) -> Self {
        Presence(Signal(signals.iter().fold(W::default(), |a, s| a | s.0)))
    }

    /// Does some wire carry a character of `kind`?
    #[inline]
    pub fn snake(&self, kind: SnakeKind) -> bool {
        self.0.any(Signal::roles(&[kind]))
    }

    /// Does some wire carry a growing-snake character (IG, OG or BG)?
    #[inline]
    pub fn growing(&self) -> bool {
        self.0.any(Signal::roles(&SnakeKind::GROWING))
    }

    /// Does some wire carry a dying-snake character (ID, OD or BD)?
    #[inline]
    pub fn dying(&self) -> bool {
        self.0.any(Signal::roles(&[
            SnakeKind::Id,
            SnakeKind::Od,
            SnakeKind::Bd,
        ]))
    }

    /// Does some wire carry a KILL token?
    #[inline]
    pub fn kill(&self) -> bool {
        self.0.kill()
    }

    /// Does some wire carry an UNMARK token?
    #[inline]
    pub fn unmark(&self) -> bool {
        self.0.unmark()
    }

    /// Does some wire carry a RESET token (of either parity)?
    #[inline]
    pub fn reset(&self) -> bool {
        self.0.flag(FLAG_RESET)
    }

    /// Does some wire carry a loop token?
    #[inline]
    pub fn loop_tok(&self) -> bool {
        self.0.loop_code() & LOOP_BITS != 0
    }

    /// Does some wire carry the DFS token?
    #[inline]
    pub fn dfs(&self) -> bool {
        self.0.dfs_code() != 0
    }
}

impl<W: WireWord> std::fmt::Debug for Presence<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Presence")
            .field("snakes", &SnakeKind::ALL.map(|k| self.snake(k)))
            .field("kill", &self.kill())
            .field("unmark", &self.unmark())
            .field("reset", &self.reset())
            .field("loop_tok", &self.loop_tok())
            .field("dfs", &self.dfs())
            .finish()
    }
}

impl<W: WireWord> std::fmt::Debug for Signal<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal")
            .field("snakes", &SnakeKind::ALL.map(|k| self.snake(k)))
            .field("kill", &self.kill())
            .field("unmark", &self.unmark())
            .field("reset", &self.reset())
            .field("loop_tok", &self.loop_tok())
            .field("dfs", &self.dfs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a test body at both word widths.
    macro_rules! at_both_widths {
        ($($name:ident => $body:ident;)*) => {$(
            #[test]
            fn $name() {
                $body::<u64>();
                $body::<u128>();
            }
        )*};
    }

    at_both_widths! {
        blank_is_default_and_empty => blank_empty;
        every_snake_char_round_trips_in_every_slot => snake_round_trip;
        every_token_round_trips => token_round_trip;
        setting_one_channel_leaves_the_others_unchanged => one_channel_moves;
        presence_reports_exactly_the_channels_some_input_carries => presence_is_exact;
        presence_of_blank_or_no_input_reports_nothing => presence_of_blanks;
        a_slot_without_role_bits_decodes_to_nothing => role_zero_is_absent;
        blank_is_all_zero => blank_zero;
    }

    fn ports<W: WireWord>() -> impl Iterator<Item = Port> + Clone {
        (0..Signal::<W>::MAX_DELTA).map(Port)
    }

    /// Every character a snake slot of the word can carry: heads and
    /// bodies with and without the in-port, plus the tail.
    fn all_snake_chars<W: WireWord>() -> Vec<SnakeChar> {
        let mut out = vec![SnakeChar::Tail];
        for o in ports::<W>() {
            for hop in std::iter::once(Hop::star(o)).chain(ports::<W>().map(|i| Hop::new(o, i))) {
                out.push(SnakeChar::Head(hop));
                out.push(SnakeChar::Body(hop));
            }
        }
        out
    }

    fn all_loop_tokens<W: WireWord>() -> Vec<LoopToken> {
        let mut out = vec![LoopToken::Back, LoopToken::Bca(BcaMsg::DfsReturn)];
        for out_port in ports::<W>() {
            for in_port in ports::<W>() {
                out.push(LoopToken::Forward { out_port, in_port });
            }
        }
        out
    }

    /// Every channel read back at once, for "nothing else moved" checks.
    type Channels = (
        [Option<SnakeChar>; 6],
        bool,
        bool,
        Option<bool>,
        Option<LoopToken>,
        Option<DfsToken>,
    );

    fn channels<W: WireWord>(s: &Signal<W>) -> Channels {
        (
            SnakeKind::ALL.map(|k| s.snake(k)),
            s.kill(),
            s.unmark(),
            s.reset(),
            s.loop_tok(),
            s.dfs(),
        )
    }

    /// The highest port the word carries.
    fn top<W: WireWord>() -> u8 {
        Signal::<W>::MAX_DELTA - 1
    }

    /// A signal with every channel occupied by a non-trivial value.
    fn busy<W: WireWord>() -> Signal<W> {
        let t = top::<W>();
        let mut s = Signal::blank();
        for (n, k) in SnakeKind::ALL.into_iter().enumerate() {
            let n = n as u8;
            s.put_snake(
                k,
                SnakeChar::Body(Hop::new(Port(t - n % 4), Port(n % (t + 1)))),
            );
        }
        s.set_kill();
        s.set_unmark();
        s.set_reset(true);
        s.put_loop(LoopToken::Forward {
            out_port: Port(t),
            in_port: Port(t - 1),
        });
        s.put_dfs(DfsToken {
            sender_out_port: Port(t - 2),
        });
        s
    }

    fn blank_empty<W: WireWord>() {
        let b = Signal::<W>::blank();
        assert!(b.is_blank());
        assert_eq!(b.occupancy(), 0);
        assert_eq!(channels(&b), ([None; 6], false, false, None, None, None));
    }

    fn blank_zero<W: WireWord>() {
        assert!(Signal::<W>::blank().0 == W::default());
    }

    fn snake_round_trip<W: WireWord>() {
        let chars = all_snake_chars::<W>();
        let d = usize::from(Signal::<W>::MAX_DELTA);
        assert_eq!(chars.len(), 2 * (d * d + d) + 1);
        for k in SnakeKind::ALL {
            for &c in &chars {
                let mut s = Signal::<W>::blank();
                s.put_snake(k, c);
                assert_eq!(s.snake(k), Some(c), "{k} {c:?}");
                assert!(!s.is_blank());
                assert_eq!(s.occupancy(), 1);
                for other in SnakeKind::ALL.into_iter().filter(|&o| o != k) {
                    assert_eq!(s.snake(other), None);
                }
            }
        }
    }

    #[test]
    fn every_dwelling_item_round_trips_through_its_slot_word() {
        // The dwell pool's 16-bit form carries every port at either width.
        let chars = all_snake_chars::<u128>();
        let mut emits = vec![GrowEmit::Heads, GrowEmit::Extend, GrowEmit::Tail];
        emits.extend(chars.iter().map(|&c| GrowEmit::Relay(c)));
        let mut words = std::collections::HashSet::new();
        for &e in &emits {
            assert_eq!(GrowEmit::unpack(e.pack()), e, "{e:?}");
            assert!(words.insert(e.pack()), "{e:?} shares a code");
        }
        for &c in &chars {
            assert_eq!(SnakeChar::unpack(c.pack()), c, "{c:?}");
            assert_eq!(GrowEmit::Relay(c).pack(), c.pack());
        }
    }

    fn token_round_trip<W: WireWord>() {
        let tokens = all_loop_tokens::<W>();
        assert_eq!(tokens.len(), usize::from(Signal::<W>::MAX_DELTA).pow(2) + 2);
        for t in tokens {
            let mut s = Signal::<W>::blank();
            s.put_loop(t);
            assert_eq!(s.loop_tok(), Some(t));
            assert_eq!(s.occupancy(), 1);
        }
        for sender_out_port in ports::<W>() {
            let d = DfsToken { sender_out_port };
            let mut s = Signal::<W>::blank();
            s.put_dfs(d);
            assert_eq!(s.dfs(), Some(d));
            assert_eq!(s.occupancy(), 1);
        }
        for parity in [false, true] {
            let mut s = Signal::<W>::blank();
            s.set_reset(parity);
            assert_eq!(s.reset(), Some(parity));
            // a later copy re-stamps the wire
            s.set_reset(!parity);
            assert_eq!(s.reset(), Some(!parity));
            assert_eq!(s.occupancy(), 1);
        }
        let mut s = Signal::<W>::blank();
        s.set_kill();
        assert!(s.kill() && !s.unmark());
        let mut s = Signal::<W>::blank();
        s.set_unmark();
        assert!(s.unmark() && !s.kill());
    }

    /// `s` with the bits of `mask` cleared (a channel emptied in place).
    fn without<W: WireWord>(s: Signal<W>, code: u16, at: u32) -> Signal<W> {
        Signal(s.0 & !Signal::<W>::at(code, at))
    }

    fn one_channel_moves<W: WireWord>() {
        // Write each channel onto a blank signal and onto one where every
        // other channel is busy: only the written channel may change.
        let t = Port(top::<W>());
        let full = busy::<W>();
        assert_eq!(full.occupancy(), 11);
        let slot_mask = (1 << Signal::<W>::SLOT) - 1;
        let loop_mask = (1 << (2 + 2 * Signal::<W>::P)) - 1;
        let dfs_mask = (1 << (Signal::<W>::P + 1)) - 1;
        for base in [Signal::blank(), full] {
            for k in SnakeKind::ALL {
                for c in [
                    SnakeChar::Tail,
                    SnakeChar::Head(Hop::star(t)),
                    SnakeChar::Body(Hop::new(t, t)),
                ] {
                    let mut s = without(base, slot_mask, k.idx() as u32 * Signal::<W>::SLOT);
                    let before = channels(&s);
                    s.put_snake(k, c);
                    let mut expect = before;
                    expect.0[k.idx()] = Some(c);
                    assert_eq!(channels(&s), expect);
                }
            }
            for tok in [
                LoopToken::Back,
                LoopToken::Bca(BcaMsg::DfsReturn),
                LoopToken::Forward {
                    out_port: t,
                    in_port: t,
                },
            ] {
                let mut s = without(base, loop_mask, Signal::<W>::LOOP_AT);
                let mut expect = channels(&s);
                s.put_loop(tok);
                expect.4 = Some(tok);
                assert_eq!(channels(&s), expect);
            }
            let mut s = without(base, dfs_mask, Signal::<W>::DFS_AT);
            let mut expect = channels(&s);
            let d = DfsToken { sender_out_port: t };
            s.put_dfs(d);
            expect.5 = Some(d);
            assert_eq!(channels(&s), expect);
            for parity in [false, true] {
                let mut s = base;
                let mut expect = channels(&s);
                s.set_reset(parity);
                expect.3 = Some(parity);
                assert_eq!(channels(&s), expect);
            }
            let mut s = without(base, FLAG_KILL | FLAG_UNMARK, Signal::<W>::FLAGS_AT);
            let mut expect = channels(&s);
            s.set_kill();
            expect.1 = true;
            assert_eq!(channels(&s), expect);
            s.set_unmark();
            expect.2 = true;
            assert_eq!(channels(&s), expect);
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut s = Signal::<u64>::blank();
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
        s.put_snake(SnakeKind::Og, SnakeChar::Head(Hop::star(Port(0))));
        s.set_kill();
        s.put_loop(LoopToken::Back);
        assert!(!s.is_blank());
        assert_eq!(s.occupancy(), 4);
        assert_eq!(s.snake(SnakeKind::Ig), Some(SnakeChar::Tail));
        assert_eq!(
            s.snake(SnakeKind::Og),
            Some(SnakeChar::Head(Hop::star(Port(0))))
        );
        assert_eq!(s.snake(SnakeKind::Id), None);
    }

    #[test]
    #[should_panic(expected = "collision")]
    fn same_kind_same_wire_same_tick_panics() {
        let mut s = Signal::<u64>::blank();
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
    }

    #[test]
    #[should_panic(expected = "dfs channel")]
    fn dfs_collision_panics() {
        let mut s = Signal::<u64>::blank();
        s.put_dfs(DfsToken {
            sender_out_port: Port(0),
        });
        s.put_dfs(DfsToken {
            sender_out_port: Port(1),
        });
    }

    #[test]
    #[should_panic(expected = "loop-token channel")]
    fn loop_collision_panics() {
        let mut s = Signal::<u64>::blank();
        s.put_loop(LoopToken::Back);
        s.put_loop(LoopToken::Back);
    }

    /// A random character: each channel independently present with
    /// probability 1/4, so sets of up to δ signals often leave a channel
    /// blank on every wire and often share one.
    fn random_signal<W: WireWord>(rng: &mut gtd_netsim::rng::DetRng) -> Signal<W> {
        let mut s = Signal::blank();
        let d = u32::from(Signal::<W>::MAX_DELTA);
        let port = |rng: &mut gtd_netsim::rng::DetRng| Port(rng.random_range(0..d) as u8);
        for k in SnakeKind::ALL {
            if rng.random_bool(0.25) {
                let c = match rng.random_range(0..3) {
                    0 => SnakeChar::Tail,
                    1 => SnakeChar::Head(Hop::new(port(rng), port(rng))),
                    _ => SnakeChar::Body(Hop::star(port(rng))),
                };
                s.put_snake(k, c);
            }
        }
        if rng.random_bool(0.25) {
            s.set_kill();
        }
        if rng.random_bool(0.25) {
            s.set_unmark();
        }
        if rng.random_bool(0.25) {
            s.set_reset(rng.random_bool(0.5));
        }
        if rng.random_bool(0.25) {
            s.put_loop(match rng.random_range(0..3) {
                0 => LoopToken::Back,
                1 => LoopToken::Bca(BcaMsg::DfsReturn),
                _ => LoopToken::Forward {
                    out_port: port(rng),
                    in_port: port(rng),
                },
            });
        }
        if rng.random_bool(0.25) {
            s.put_dfs(DfsToken {
                sender_out_port: port(rng),
            });
        }
        s
    }

    fn presence_is_exact<W: WireWord>() {
        let mut rng = gtd_netsim::rng::DetRng::seed_from_u64(15);
        for _ in 0..20_000 {
            let n = rng.random_range(0..u32::from(Signal::<W>::MAX_DELTA) + 1) as usize;
            let sigs: Vec<Signal<W>> = (0..n).map(|_| random_signal(&mut rng)).collect();
            let live = Presence::of(&sigs);
            let any = |f: &dyn Fn(&Signal<W>) -> bool| sigs.iter().any(f);
            let carried = |k: SnakeKind| any(&|s| s.snake(k).is_some());
            for k in SnakeKind::ALL {
                assert_eq!(live.snake(k), carried(k), "{k}");
            }
            assert_eq!(live.growing(), SnakeKind::GROWING.into_iter().any(carried));
            let mut dying = SnakeKind::ALL.into_iter().filter(|k| k.is_dying());
            assert_eq!(live.dying(), dying.any(carried));
            assert_eq!(live.kill(), any(&|s| s.kill()));
            assert_eq!(live.unmark(), any(&|s| s.unmark()));
            assert_eq!(live.reset(), any(&|s| s.reset().is_some()));
            assert_eq!(live.loop_tok(), any(&|s| s.loop_tok().is_some()));
            assert_eq!(live.dfs(), any(&|s| s.dfs().is_some()));
        }
    }

    fn presence_of_blanks<W: WireWord>() {
        for n in 0..=usize::from(Signal::<W>::MAX_DELTA) {
            let live = Presence::of(&vec![Signal::<W>::blank(); n]);
            assert_eq!(live, Presence::default());
            assert!(SnakeKind::ALL.iter().all(|&k| !live.snake(k)));
            assert!(!live.growing() && !live.dying());
            assert!(!live.kill() && !live.unmark() && !live.reset());
            assert!(!live.loop_tok() && !live.dfs());
        }
    }

    fn role_zero_is_absent<W: WireWord>() {
        // Whatever the port bits hold, role 0 is the absent character.
        let slot = Signal::<W>::SLOT;
        for w in (0..1u16 << slot).filter(|w| w & ROLE_BITS == 0) {
            for k in SnakeKind::ALL {
                let s = Signal(Signal::<W>::at(w, k.idx() as u32 * slot));
                assert_eq!(s.snake(k), None, "{w:#06x}");
                assert!(!Presence::of(&[s]).snake(k));
            }
        }
    }

    #[test]
    fn signal_stays_compact() {
        // The wire buffers are the simulator's largest allocation: two
        // copies of N·δ signals, 48 MB at n = 1M, δ = 3 on the narrow
        // word. Each word is aligned to its size, so a slot never
        // straddles a cache line.
        use std::mem::{align_of, size_of};
        assert_eq!((size_of::<Signal>(), align_of::<Signal>()), (8, 8));
        let wide = (size_of::<Signal<u128>>(), align_of::<Signal<u128>>());
        assert_eq!(wide, (16, 16));
        assert_eq!((Signal::<u64>::BITS, Signal::<u128>::BITS), (55, 115));
        assert_eq!(Signal::<u64>::MAX_DELTA, 4);
        assert_eq!(Signal::<u128>::MAX_DELTA, MAX_DELTA);
    }

    #[test]
    fn loop_token_variants_distinct() {
        let variants = [
            LoopToken::Forward {
                out_port: Port(3),
                in_port: Port(1),
            },
            LoopToken::Forward {
                out_port: Port(1),
                in_port: Port(3),
            },
            LoopToken::Back,
            LoopToken::Bca(BcaMsg::DfsReturn),
        ];
        for (i, a) in variants.iter().enumerate() {
            for (j, b) in variants.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }
}
