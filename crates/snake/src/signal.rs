//! The wire alphabet.
//!
//! Each wire carries one constant-size character per tick. The protocol
//! multiplexes several *construct channels* onto a wire — the paper's
//! convention that "snakes of different types do not interact. A processor
//! can handle different snake types simultaneously … because snake types
//! are distinguished by their alphabets" (§2.3.1). Formally the wire
//! alphabet is the product of finitely many constant alphabets, which is
//! still a constant alphabet; [`Signal`] is that product type. The blank
//! character *b* of the quiescent state is `Signal::default()`.

use crate::chars::{Hop, SnakeChar, SnakeKind};
use crate::grow::GrowEmit;
use crate::speed::DwellItem;
use gtd_netsim::{Port, MAX_DELTA};

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

/// Everything that can cross one wire in one tick: at most one character
/// per snake kind, plus the token channels.
///
/// The paper's wire alphabet is a constant-size product of constant
/// alphabets (§1.1, §2.3.1), and with δ ≤ [`MAX_DELTA`] = 64 every channel
/// of that product fits in 16 bits, so the whole character packs into 16
/// bytes:
///
/// * six `u16` snake slots, one per [`SnakeKind`]: bits 0–1 the role
///   (0 = absent, 1 = head, 2 = body, 3 = tail), bits 2–7 the hop's
///   out-port, bit 8 set when the in-port is known (clear = the paper's
///   `∗`), bits 9–14 the in-port;
/// * a `u16` loop token: bits 0–1 the variant (0 = absent, 1 = BACK,
///   2 = BCA payload, 3 = FORWARD), bits 2–7 / 8–13 FORWARD's out-/in-port;
/// * one flag byte: KILL, UNMARK, RESET present, RESET parity;
/// * one DFS byte: the sender's out-port + 1 (0 = absent).
///
/// Every port below [`MAX_DELTA`] round-trips exactly, and the blank
/// character *b* is all zeros, so the derived `==` is a single 16-byte
/// compare. Aligned to its size so a wire slot never straddles two cache
/// lines: the engine's saturated gather reads one slot per wire in random
/// order, and a straddling slot costs two misses instead of one.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, align(16))]
pub struct Signal {
    snakes: [u16; 6],
    loop_tok: u16,
    flags: u8,
    dfs: u8,
}

// The 6-bit port fields cover every port only while δ ≤ 64.
const _: () = assert!(MAX_DELTA <= 64);

const PORT_BITS: u8 = 0x3f;

const ROLE_BITS: u16 = 3;
const ROLE_HEAD: u16 = 1;
const ROLE_BODY: u16 = 2;
const ROLE_TAIL: u16 = 3;
const SNAKE_IN_PRESENT: u16 = 1 << 8;

const LOOP_BITS: u16 = 3;
const LOOP_BACK: u16 = 1;
const LOOP_BCA: u16 = 2;
const LOOP_FORWARD: u16 = 3;

const FLAG_KILL: u8 = 1;
const FLAG_UNMARK: u8 = 1 << 1;
const FLAG_RESET: u8 = 1 << 2;
const FLAG_RESET_PARITY: u8 = 1 << 3;

#[inline]
fn port_field(p: Port, shift: u32) -> u16 {
    u16::from(p.0 & PORT_BITS) << shift
}

#[inline]
fn port_at(w: u16, shift: u32) -> Port {
    Port((w >> shift) as u8 & PORT_BITS)
}

#[inline]
fn encode_snake(c: SnakeChar) -> u16 {
    let (role, hop) = match c {
        SnakeChar::Head(h) => (ROLE_HEAD, h),
        SnakeChar::Body(h) => (ROLE_BODY, h),
        SnakeChar::Tail => return ROLE_TAIL,
    };
    let in_port = hop
        .in_port
        .map_or(0, |p| SNAKE_IN_PRESENT | port_field(p, 9));
    role | port_field(hop.out_port, 2) | in_port
}

#[inline]
fn decode_snake(w: u16) -> Option<SnakeChar> {
    (w & ROLE_BITS != 0).then(|| snake_of(w))
}

/// The character a slot word with a non-zero role encodes.
#[inline]
fn snake_of(w: u16) -> SnakeChar {
    let role = w & ROLE_BITS;
    if role == ROLE_TAIL {
        return SnakeChar::Tail;
    }
    let hop = Hop {
        out_port: port_at(w, 2),
        in_port: (w & SNAKE_IN_PRESENT != 0).then(|| port_at(w, 9)),
    };
    if role == ROLE_HEAD {
        SnakeChar::Head(hop)
    } else {
        SnakeChar::Body(hop)
    }
}

/// A dwelling character is held in its slot word.
impl DwellItem for SnakeChar {
    #[inline]
    fn pack(self) -> u16 {
        encode_snake(self)
    }

    #[inline]
    fn unpack(w: u16) -> Self {
        snake_of(w)
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
            GrowEmit::Relay(c) => encode_snake(c),
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
            _ => GrowEmit::Relay(snake_of(w)),
        }
    }
}

#[inline]
fn encode_loop(t: LoopToken) -> u16 {
    match t {
        LoopToken::Forward { out_port, in_port } => {
            LOOP_FORWARD | port_field(out_port, 2) | port_field(in_port, 8)
        }
        LoopToken::Back => LOOP_BACK,
        LoopToken::Bca(BcaMsg::DfsReturn) => LOOP_BCA,
    }
}

impl Signal {
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
        decode_snake(self.snakes[kind.idx()])
    }

    /// Place a snake character of `kind` on this wire. Panics if the slot
    /// is already occupied — the protocol guarantees one character per kind
    /// per wire per tick, and a collision means a relay bug.
    #[inline]
    pub fn put_snake(&mut self, kind: SnakeKind, c: SnakeChar) {
        let slot = &mut self.snakes[kind.idx()];
        assert!(
            *slot == 0,
            "snake channel collision: two {kind} characters on one wire in one tick"
        );
        *slot = encode_snake(c);
    }

    /// The speed-1 loop token (FORWARD / BACK / BCA payload), if any.
    #[inline]
    pub fn loop_tok(&self) -> Option<LoopToken> {
        let w = self.loop_tok;
        match w & LOOP_BITS {
            0 => None,
            LOOP_BACK => Some(LoopToken::Back),
            LOOP_BCA => Some(LoopToken::Bca(BcaMsg::DfsReturn)),
            _ => Some(LoopToken::Forward {
                out_port: port_at(w, 2),
                in_port: port_at(w, 8),
            }),
        }
    }

    /// Place a loop token; panics on collision (at most one loop construct
    /// exists per RCA/BCA phase).
    #[inline]
    pub fn put_loop(&mut self, t: LoopToken) {
        assert!(self.loop_tok == 0, "loop-token channel collision");
        self.loop_tok = encode_loop(t);
    }

    /// The DFS token moving forward through this wire, if any.
    #[inline]
    pub fn dfs(&self) -> Option<DfsToken> {
        self.dfs.checked_sub(1).map(|p| DfsToken {
            sender_out_port: Port(p),
        })
    }

    /// Place the DFS token; panics on collision (there is exactly one DFS
    /// token in the network).
    #[inline]
    pub fn put_dfs(&mut self, t: DfsToken) {
        assert!(self.dfs == 0, "dfs channel collision");
        self.dfs = (t.sender_out_port.0 & PORT_BITS) + 1;
    }

    /// Speed-3 breadth-first KILL token (RCA step 4).
    #[inline]
    pub fn kill(&self) -> bool {
        self.flags & FLAG_KILL != 0
    }

    /// Place a KILL token.
    #[inline]
    pub fn set_kill(&mut self) {
        self.flags |= FLAG_KILL;
    }

    /// Speed-3 UNMARK loop token (RCA step 5).
    #[inline]
    pub fn unmark(&self) -> bool {
        self.flags & FLAG_UNMARK != 0
    }

    /// Place an UNMARK token.
    #[inline]
    pub fn set_unmark(&mut self) {
        self.flags |= FLAG_UNMARK;
    }

    /// Speed-3 RESET flood: clears DFS bookkeeping so the root can re-map
    /// a (possibly changed) network — our dynamic-remapping extension.
    /// Carries the new round's parity bit so late-arriving flood copies
    /// cannot re-clear a processor the new DFS already visited.
    #[inline]
    pub fn reset(&self) -> Option<bool> {
        (self.flags & FLAG_RESET != 0).then_some(self.flags & FLAG_RESET_PARITY != 0)
    }

    /// Place a RESET stamped with round parity `parity` (a second RESET on
    /// the same wire overwrites the stamp).
    #[inline]
    pub fn set_reset(&mut self, parity: bool) {
        let p = if parity { FLAG_RESET_PARITY } else { 0 };
        self.flags = (self.flags & !FLAG_RESET_PARITY) | FLAG_RESET | p;
    }

    /// Number of non-empty construct channels (diagnostics / E5 census).
    pub fn occupancy(&self) -> usize {
        self.snakes.iter().filter(|&&w| w != 0).count()
            + usize::from(self.kill())
            + usize::from(self.unmark())
            + usize::from(self.reset().is_some())
            + usize::from(self.loop_tok != 0)
            + usize::from(self.dfs != 0)
    }
}

/// Which construct channels are live on a set of wires: the field-wise OR
/// of their characters.
///
/// Snake kinds and tokens ride independent alphabets and "do not
/// interact" (§2.3.1), so a channel that is blank on every in-port cannot
/// change anything in a step. The automaton builds one summary of its
/// in-ports per step and skips every channel it reports absent.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Presence(Signal);

impl Presence {
    /// The summary of `signals` (nothing is live on an empty slice).
    #[inline]
    pub fn of(signals: &[Signal]) -> Self {
        let mut acc = Signal::default();
        for s in signals {
            for (a, w) in acc.snakes.iter_mut().zip(s.snakes) {
                *a |= w;
            }
            acc.loop_tok |= s.loop_tok;
            acc.flags |= s.flags;
            acc.dfs |= s.dfs;
        }
        Presence(acc)
    }

    #[inline]
    fn role_bits(&self, kinds: [SnakeKind; 3]) -> u16 {
        (self.0.snakes[kinds[0].idx()]
            | self.0.snakes[kinds[1].idx()]
            | self.0.snakes[kinds[2].idx()])
            & ROLE_BITS
    }

    /// Does some wire carry a character of `kind`?
    #[inline]
    pub fn snake(&self, kind: SnakeKind) -> bool {
        self.0.snakes[kind.idx()] & ROLE_BITS != 0
    }

    /// Does some wire carry a growing-snake character (IG, OG or BG)?
    #[inline]
    pub fn growing(&self) -> bool {
        self.role_bits(SnakeKind::GROWING) != 0
    }

    /// Does some wire carry a dying-snake character (ID, OD or BD)?
    #[inline]
    pub fn dying(&self) -> bool {
        self.role_bits([SnakeKind::Id, SnakeKind::Od, SnakeKind::Bd]) != 0
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
        self.0.flags & FLAG_RESET != 0
    }

    /// Does some wire carry a loop token?
    #[inline]
    pub fn loop_tok(&self) -> bool {
        self.0.loop_tok & LOOP_BITS != 0
    }

    /// Does some wire carry the DFS token?
    #[inline]
    pub fn dfs(&self) -> bool {
        self.0.dfs != 0
    }
}

impl std::fmt::Debug for Presence {
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

impl std::fmt::Debug for Signal {
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

    /// Every character a snake slot can carry over ports `0..64`: heads
    /// and bodies with and without the in-port, plus the tail.
    fn all_snake_chars() -> Vec<SnakeChar> {
        let mut out = vec![SnakeChar::Tail];
        for o in 0..MAX_DELTA {
            for hop in std::iter::once(Hop::star(Port(o)))
                .chain((0..MAX_DELTA).map(|i| Hop::new(Port(o), Port(i))))
            {
                out.push(SnakeChar::Head(hop));
                out.push(SnakeChar::Body(hop));
            }
        }
        out
    }

    fn all_loop_tokens() -> Vec<LoopToken> {
        let mut out = vec![LoopToken::Back, LoopToken::Bca(BcaMsg::DfsReturn)];
        for o in 0..MAX_DELTA {
            for i in 0..MAX_DELTA {
                out.push(LoopToken::Forward {
                    out_port: Port(o),
                    in_port: Port(i),
                });
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

    fn channels(s: &Signal) -> Channels {
        (
            SnakeKind::ALL.map(|k| s.snake(k)),
            s.kill(),
            s.unmark(),
            s.reset(),
            s.loop_tok(),
            s.dfs(),
        )
    }

    /// A signal with every channel occupied by a non-trivial value.
    fn busy() -> Signal {
        let mut s = Signal::blank();
        for (n, k) in SnakeKind::ALL.into_iter().enumerate() {
            let n = n as u8;
            s.put_snake(k, SnakeChar::Body(Hop::new(Port(60 + n % 4), Port(n))));
        }
        s.set_kill();
        s.set_unmark();
        s.set_reset(true);
        s.put_loop(LoopToken::Forward {
            out_port: Port(63),
            in_port: Port(62),
        });
        s.put_dfs(DfsToken {
            sender_out_port: Port(61),
        });
        s
    }

    #[test]
    fn blank_is_default_and_empty() {
        let b = Signal::blank();
        assert!(b.is_blank());
        assert_eq!(b.occupancy(), 0);
        for k in SnakeKind::ALL {
            assert_eq!(b.snake(k), None);
        }
        assert_eq!(channels(&b), ([None; 6], false, false, None, None, None));
    }

    #[test]
    fn blank_is_all_zero() {
        let b = Signal::blank();
        assert_eq!((b.snakes, b.loop_tok, b.flags, b.dfs), ([0; 6], 0, 0, 0));
    }

    #[test]
    fn every_snake_char_round_trips_in_every_slot() {
        let chars = all_snake_chars();
        assert_eq!(chars.len(), 2 * (64 * 64 + 64) + 1);
        for k in SnakeKind::ALL {
            for &c in &chars {
                let mut s = Signal::blank();
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
        let chars = all_snake_chars();
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

    #[test]
    fn every_token_round_trips() {
        let tokens = all_loop_tokens();
        assert_eq!(tokens.len(), 64 * 64 + 2);
        for t in tokens {
            let mut s = Signal::blank();
            s.put_loop(t);
            assert_eq!(s.loop_tok(), Some(t));
            assert_eq!(s.occupancy(), 1);
        }
        for o in 0..MAX_DELTA {
            let d = DfsToken {
                sender_out_port: Port(o),
            };
            let mut s = Signal::blank();
            s.put_dfs(d);
            assert_eq!(s.dfs(), Some(d));
            assert_eq!(s.occupancy(), 1);
        }
        for parity in [false, true] {
            let mut s = Signal::blank();
            s.set_reset(parity);
            assert_eq!(s.reset(), Some(parity));
            // a later copy re-stamps the wire
            s.set_reset(!parity);
            assert_eq!(s.reset(), Some(!parity));
            assert_eq!(s.occupancy(), 1);
        }
        let mut s = Signal::blank();
        s.set_kill();
        assert!(s.kill() && !s.unmark());
        let mut s = Signal::blank();
        s.set_unmark();
        assert!(s.unmark() && !s.kill());
    }

    #[test]
    fn setting_one_channel_leaves_the_others_unchanged() {
        // Write each channel onto a blank signal and onto one where every
        // other channel is busy: only the written channel may change.
        let full = busy();
        assert_eq!(full.occupancy(), 11);
        for base in [Signal::blank(), full] {
            for k in SnakeKind::ALL {
                for c in [
                    SnakeChar::Tail,
                    SnakeChar::Head(Hop::star(Port(63))),
                    SnakeChar::Body(Hop::new(Port(63), Port(63))),
                ] {
                    let mut s = base;
                    s.snakes[k.idx()] = 0;
                    let before = channels(&s);
                    s.put_snake(k, c);
                    let mut expect = before;
                    expect.0[k.idx()] = Some(c);
                    assert_eq!(channels(&s), expect);
                }
            }
            for t in [
                LoopToken::Back,
                LoopToken::Bca(BcaMsg::DfsReturn),
                LoopToken::Forward {
                    out_port: Port(63),
                    in_port: Port(63),
                },
            ] {
                let mut s = base;
                s.loop_tok = 0;
                let mut expect = channels(&s);
                s.put_loop(t);
                expect.4 = Some(t);
                assert_eq!(channels(&s), expect);
            }
            let mut s = base;
            s.dfs = 0;
            let mut expect = channels(&s);
            let d = DfsToken {
                sender_out_port: Port(63),
            };
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
            let mut s = base;
            s.flags &= !(FLAG_KILL | FLAG_UNMARK);
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
        let mut s = Signal::blank();
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
        let mut s = Signal::blank();
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
    }

    #[test]
    #[should_panic(expected = "dfs channel")]
    fn dfs_collision_panics() {
        let mut s = Signal::blank();
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
        let mut s = Signal::blank();
        s.put_loop(LoopToken::Back);
        s.put_loop(LoopToken::Back);
    }

    /// A random character: each channel independently present with
    /// probability 1/4, so sets of up to δ signals often leave a channel
    /// blank on every wire and often share one.
    fn random_signal(rng: &mut gtd_netsim::rng::DetRng) -> Signal {
        let mut s = Signal::blank();
        let port = |rng: &mut gtd_netsim::rng::DetRng| Port(rng.random_range(0..64) as u8);
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

    #[test]
    fn presence_reports_exactly_the_channels_some_input_carries() {
        let mut rng = gtd_netsim::rng::DetRng::seed_from_u64(15);
        for _ in 0..20_000 {
            let n = rng.random_range(0..MAX_DELTA as u32 + 1) as usize;
            let sigs: Vec<Signal> = (0..n).map(|_| random_signal(&mut rng)).collect();
            let live = Presence::of(&sigs);
            let any = |f: &dyn Fn(&Signal) -> bool| sigs.iter().any(f);
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

    #[test]
    fn presence_of_blank_or_no_input_reports_nothing() {
        for n in 0..=MAX_DELTA as usize {
            let live = Presence::of(&vec![Signal::blank(); n]);
            assert_eq!(live, Presence::default());
            assert!(SnakeKind::ALL.iter().all(|&k| !live.snake(k)));
            assert!(!live.growing() && !live.dying());
            assert!(!live.kill() && !live.unmark() && !live.reset());
            assert!(!live.loop_tok() && !live.dfs());
        }
    }

    #[test]
    fn a_slot_without_role_bits_decodes_to_nothing() {
        // Whatever the port bits hold, role 0 is the absent character.
        for w in (0..=u16::MAX).filter(|w| w & ROLE_BITS == 0) {
            assert_eq!(decode_snake(w), None, "{w:#06x}");
            for k in SnakeKind::ALL {
                let mut s = Signal::blank();
                s.snakes[k.idx()] = w;
                assert_eq!(s.snake(k), None);
                assert!(!Presence::of(&[s]).snake(k));
            }
        }
    }

    #[test]
    fn signal_stays_compact() {
        // The wire buffer is the hottest allocation in the simulator: two
        // copies of N·δ signals, 96 MB at n = 1M, δ = 3. One more byte of
        // payload would round every slot up to 32 bytes under
        // `align(16)`, so the size is pinned exactly.
        assert_eq!(std::mem::size_of::<Signal>(), 16, "Signal size changed");
        assert_eq!(
            std::mem::align_of::<Signal>(),
            16,
            "Signal alignment changed"
        );
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
