//! Snake character alphabets (paper §2.3).
//!
//! "A snake is a string … made up of an alphabet of 2(δ² + δ) + 1
//! characters, namely δ² + δ head characters, δ² + δ body characters, and a
//! unique tail character." Head and body characters carry a hop
//! `(out-port, in-port)`; a freshly generated character carries `(i, ∗)` —
//! the receiver fills the ∗ with the in-port it arrived through. Each snake
//! *kind* gets its own copy of the alphabet so processors can handle
//! several snakes simultaneously without confusion (§2.3.1).

use gtd_netsim::Port;

/// The six snake kinds used across the RCA (§4.2) and our BCA
/// reconstruction (README, reconstruction choice 1).
///
/// "Out" snakes are generated at the root and move away from it; "in"
/// snakes are generated elsewhere and trigger an action when they reach the
/// root. "Backwards" (Bg/Bd) snakes belong to the BCA, where the initiator
/// is also the terminator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SnakeKind {
    /// In-growing: searches for the root (RCA step 1).
    Ig,
    /// Out-growing: broadcast from the root back towards A (RCA step 2).
    Og,
    /// In-dying: marks the path A → root (RCA step 3).
    Id,
    /// Out-dying: marks the path root → A (RCA step 3).
    Od,
    /// Backwards-growing: BCA's loop search (README, reconstruction choice 1).
    Bg,
    /// Backwards-dying: BCA's loop marker.
    Bd,
}

impl SnakeKind {
    /// All kinds, in slot order (orders [`crate::Signal`]'s snake slots).
    pub const ALL: [SnakeKind; 6] = [
        SnakeKind::Ig,
        SnakeKind::Og,
        SnakeKind::Id,
        SnakeKind::Od,
        SnakeKind::Bg,
        SnakeKind::Bd,
    ];

    /// Slot index of this kind in per-node / per-signal tables.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// The growing kinds (these flood and are subject to KILL tokens).
    pub const GROWING: [SnakeKind; 3] = [SnakeKind::Ig, SnakeKind::Og, SnakeKind::Bg];

    /// Is this a growing snake kind?
    #[inline]
    pub fn is_growing(self) -> bool {
        matches!(self, SnakeKind::Ig | SnakeKind::Og | SnakeKind::Bg)
    }

    /// Is this a dying snake kind?
    #[inline]
    pub fn is_dying(self) -> bool {
        !self.is_growing()
    }
}

impl std::fmt::Display for SnakeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SnakeKind::Ig => "IG",
            SnakeKind::Og => "OG",
            SnakeKind::Id => "ID",
            SnakeKind::Od => "OD",
            SnakeKind::Bg => "BG",
            SnakeKind::Bd => "BD",
        };
        f.write_str(s)
    }
}

/// One encoded hop: the sender's out-port and the receiver's in-port.
///
/// `in_port == None` is the paper's `∗`: the character was just generated
/// and has not yet crossed its first wire. The first receiver replaces the
/// ∗ with the in-port of arrival ([`Hop::filled`]); after that the hop is
/// immutable no matter how far the character is relayed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Hop {
    /// Out-port of the processor that generated the character.
    pub out_port: Port,
    /// In-port of the processor on the far side of that wire (`None` = ∗).
    pub in_port: Option<Port>,
}

impl Hop {
    /// A freshly generated `(i, ∗)` hop.
    #[inline]
    pub fn star(out_port: Port) -> Self {
        Hop {
            out_port,
            in_port: None,
        }
    }

    /// A complete `(i, j)` hop.
    #[inline]
    pub fn new(out_port: Port, in_port: Port) -> Self {
        Hop {
            out_port,
            in_port: Some(in_port),
        }
    }

    /// Fill the ∗ with the in-port of first arrival; complete hops are
    /// returned unchanged (relays never rewrite them).
    #[inline]
    pub fn filled(self, arrival: Port) -> Self {
        Hop {
            out_port: self.out_port,
            in_port: self.in_port.or(Some(arrival)),
        }
    }
}

/// An optional port in one byte, where `Option<Port>` takes two: 0 is
/// none and `p + 1` is port `p`, the encoding of [`crate::Signal`]'s DFS
/// field. The ports a processor remembers (loop marks, dying-lane
/// predecessors and successors, the DFS parent) are stored this way.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct OptPort(u8);

impl OptPort {
    /// No port.
    pub const NONE: OptPort = OptPort(0);

    /// Port `p`.
    #[inline]
    pub fn some(p: Port) -> Self {
        OptPort(p.0 + 1)
    }

    /// The port, if any.
    #[inline]
    pub fn get(self) -> Option<Port> {
        self.0.checked_sub(1).map(Port)
    }

    /// Is no port held?
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Is a port held?
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// Is port `p` held?
    #[inline]
    pub fn is(self, p: Port) -> bool {
        self.0 == p.0 + 1
    }
}

impl std::fmt::Debug for OptPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// One snake character (kind is carried by the [`crate::Signal`] slot, so
/// the character itself only stores role and hop).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SnakeChar {
    /// A head character `XH(i, j)`.
    Head(Hop),
    /// A body character `X(i, j)`.
    Body(Hop),
    /// The unique tail character `XT`.
    Tail,
}

impl SnakeChar {
    /// The hop carried by a head or body character.
    #[inline]
    pub fn hop(self) -> Option<Hop> {
        match self {
            SnakeChar::Head(h) | SnakeChar::Body(h) => Some(h),
            SnakeChar::Tail => None,
        }
    }

    /// Fill a `∗` second parameter with the arrival in-port (no-op on tails
    /// and complete hops) — the reception rule of §2.3.2.
    #[inline]
    pub fn filled(self, arrival: Port) -> Self {
        match self {
            SnakeChar::Head(h) => SnakeChar::Head(h.filled(arrival)),
            SnakeChar::Body(h) => SnakeChar::Body(h.filled(arrival)),
            SnakeChar::Tail => SnakeChar::Tail,
        }
    }

    /// Re-role a character as a head (dying-snake passage promotes the first
    /// body character after the consumed head to the new head, §2.3.3).
    #[inline]
    pub fn as_head(self) -> Self {
        match self {
            SnakeChar::Body(h) | SnakeChar::Head(h) => SnakeChar::Head(h),
            SnakeChar::Tail => SnakeChar::Tail,
        }
    }

    /// Re-role a character as a body.
    #[inline]
    pub fn as_body(self) -> Self {
        match self {
            SnakeChar::Body(h) | SnakeChar::Head(h) => SnakeChar::Body(h),
            SnakeChar::Tail => SnakeChar::Tail,
        }
    }

    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, SnakeChar::Head(_))
    }

    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, SnakeChar::Tail)
    }
}

/// Size of one snake kind's character alphabet for a network constant δ —
/// the paper's 2(δ² + δ) + 1: heads and bodies each come in δ·δ complete
/// `(i, j)` variants plus δ star `(i, ∗)` variants, plus the unique tail.
pub fn alphabet_size(delta: u8) -> usize {
    let d = delta as usize;
    2 * (d * d + d) + 1
}

/// Exhaustively enumerate a kind's alphabet for a given δ (used by tests to
/// confirm the constant-size-character claim).
pub fn enumerate_alphabet(delta: u8) -> Vec<SnakeChar> {
    let mut out = Vec::with_capacity(alphabet_size(delta));
    for role_head in [true, false] {
        for i in 0..delta {
            let mk = |hop| {
                if role_head {
                    SnakeChar::Head(hop)
                } else {
                    SnakeChar::Body(hop)
                }
            };
            out.push(mk(Hop::star(Port(i))));
            for j in 0..delta {
                out.push(mk(Hop::new(Port(i), Port(j))));
            }
        }
    }
    out.push(SnakeChar::Tail);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_size_matches_paper_formula() {
        // δ² + δ heads, δ² + δ bodies, one tail.
        for delta in 2..=8u8 {
            let chars = enumerate_alphabet(delta);
            assert_eq!(chars.len(), alphabet_size(delta));
            let d = delta as usize;
            assert_eq!(alphabet_size(delta), 2 * (d * d + d) + 1);
            // no duplicates
            let mut sorted = chars.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), chars.len());
        }
    }

    #[test]
    fn star_filled_on_first_arrival_only() {
        let c = SnakeChar::Body(Hop::star(Port(3)));
        let once = c.filled(Port(1));
        assert_eq!(once, SnakeChar::Body(Hop::new(Port(3), Port(1))));
        // relaying further never rewrites the in-port
        let twice = once.filled(Port(2));
        assert_eq!(twice, once);
    }

    #[test]
    fn tail_ignores_fill() {
        assert_eq!(SnakeChar::Tail.filled(Port(0)), SnakeChar::Tail);
        assert_eq!(SnakeChar::Tail.hop(), None);
    }

    #[test]
    fn head_body_promotion() {
        let b = SnakeChar::Body(Hop::new(Port(1), Port(2)));
        assert_eq!(b.as_head(), SnakeChar::Head(Hop::new(Port(1), Port(2))));
        assert_eq!(b.as_head().as_body(), b);
        assert!(b.as_head().is_head());
        assert!(!b.is_head());
        assert!(SnakeChar::Tail.is_tail());
    }

    #[test]
    fn opt_port_round_trips_every_port_in_one_byte() {
        use gtd_netsim::MAX_DELTA;
        assert_eq!(std::mem::size_of::<OptPort>(), 1);
        assert_eq!(OptPort::default(), OptPort::NONE);
        assert_eq!(
            (OptPort::NONE.get(), format!("{:?}", OptPort::NONE)),
            (None, "None".into())
        );
        for p in (0..MAX_DELTA).map(Port) {
            let o = OptPort::some(p);
            assert_eq!(o.get(), Some(p));
            assert!(o.is_some() && !o.is_none() && o.is(p));
            assert!(!OptPort::NONE.is(p));
            assert_eq!(format!("{o:?}"), format!("{:?}", Some(p)));
        }
    }

    #[test]
    fn kind_partition() {
        for k in SnakeKind::ALL {
            assert_ne!(k.is_growing(), k.is_dying());
        }
        assert_eq!(SnakeKind::ALL.len(), 6);
        // slot indexes are unique and dense
        let mut idxs: Vec<usize> = SnakeKind::ALL.iter().map(|k| k.idx()).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4, 5]);
    }
}
