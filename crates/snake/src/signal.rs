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

use crate::chars::{SnakeChar, SnakeKind};
use gtd_netsim::Port;

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
/// Aligned to its 32-byte size so a wire slot never straddles two cache
/// lines: the engine's saturated gather reads one slot per wire in
/// random order, and a straddling slot costs two misses instead of one.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(align(32))]
pub struct Signal {
    /// One optional character per snake kind, indexed by [`SnakeKind::idx`].
    pub snakes: [Option<SnakeChar>; 6],
    /// Speed-3 breadth-first KILL token (RCA step 4).
    pub kill: bool,
    /// Speed-3 UNMARK loop token (RCA step 5).
    pub unmark: bool,
    /// Speed-3 RESET flood: clears DFS bookkeeping so the root can re-map
    /// a (possibly changed) network — our dynamic-remapping extension.
    /// Carries the new round's parity bit so late-arriving flood copies
    /// cannot re-clear a processor the new DFS already visited.
    pub reset: Option<bool>,
    /// Speed-1 loop token (FORWARD / BACK / BCA payload).
    pub loop_tok: Option<LoopToken>,
    /// The DFS token moving forward through this wire.
    pub dfs: Option<DfsToken>,
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
        self.snakes[kind.idx()]
    }

    /// Place a snake character of `kind` on this wire. Panics if the slot
    /// is already occupied — the protocol guarantees one character per kind
    /// per wire per tick, and a collision means a relay bug.
    #[inline]
    pub fn put_snake(&mut self, kind: SnakeKind, c: SnakeChar) {
        let slot = &mut self.snakes[kind.idx()];
        assert!(
            slot.is_none(),
            "snake channel collision: two {kind} characters on one wire in one tick"
        );
        *slot = Some(c);
    }

    /// Place a loop token; panics on collision (at most one loop construct
    /// exists per RCA/BCA phase).
    #[inline]
    pub fn put_loop(&mut self, t: LoopToken) {
        assert!(self.loop_tok.is_none(), "loop-token channel collision");
        self.loop_tok = Some(t);
    }

    /// Place the DFS token; panics on collision (there is exactly one DFS
    /// token in the network).
    #[inline]
    pub fn put_dfs(&mut self, t: DfsToken) {
        assert!(self.dfs.is_none(), "dfs channel collision");
        self.dfs = Some(t);
    }

    /// Number of non-empty construct channels (diagnostics / E5 census).
    pub fn occupancy(&self) -> usize {
        self.snakes.iter().flatten().count()
            + usize::from(self.kill)
            + usize::from(self.unmark)
            + usize::from(self.reset.is_some())
            + usize::from(self.loop_tok.is_some())
            + usize::from(self.dfs.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::Hop;

    #[test]
    fn blank_is_default_and_empty() {
        let b = Signal::blank();
        assert!(b.is_blank());
        assert_eq!(b.occupancy(), 0);
        for k in SnakeKind::ALL {
            assert_eq!(b.snake(k), None);
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut s = Signal::blank();
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
        s.put_snake(SnakeKind::Og, SnakeChar::Head(Hop::star(Port(0))));
        s.kill = true;
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
    fn signal_stays_compact() {
        // The wire buffer is the hottest allocation in the simulator: two
        // copies of N·δ signals. Under `align(32)` one more byte of
        // payload would round every slot up to 64 bytes (+192 MB at
        // n = 1M, δ = 3), so the size is pinned exactly.
        assert_eq!(std::mem::size_of::<Signal>(), 32, "Signal size changed");
        assert_eq!(
            std::mem::align_of::<Signal>(),
            32,
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
