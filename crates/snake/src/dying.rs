//! Dying snakes (paper §2.3.3).
//!
//! A dying snake marks the path its body encodes. Its head tells the
//! current processor which ports the path uses; the first body character
//! after the head is promoted to the new head and sent one hop further; all
//! later characters pass through unchanged; the snake shrinks by one
//! character per processor — hence "dying".
//!
//! [`DyingPassage`] handles one snake's transit through one processor. The
//! *caller* (the protocol automaton) consumes the head — because mark-pair
//! selection and kind conversion are role decisions: ordinary processors
//! pass ID→ID on pair #1 and OD→OD on pair #2, the root converts ID→OD
//! using predecessor #1 / successor #2 (§2.3.3 + footnote 2), and processor
//! A starts an ID passage by eating an *OG* head (§4.2.1 step 3). The
//! passage then schedules the converted emissions at speed-1 and reports
//! whether this processor turned out to be the **path endpoint** (its head
//! was immediately followed by the tail) — the local test our BCA
//! reconstruction uses to let the target recognize itself
//! (README, reconstruction choice 1).

use crate::chars::{OptPort, SnakeChar, SnakeKind};
use crate::speed::{DwellPool, SPEED1_DWELL};
use gtd_netsim::Port;

/// A scheduled dying-snake emission: one character through the successor
/// out-port recorded by the passage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DyingEmit {
    /// The character to place on the wire.
    pub c: SnakeChar,
    /// The successor out-port to emit through.
    pub port: Port,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DState {
    /// No dying snake of this lane has arrived.
    Idle,
    /// Head consumed; the next character decides head-promotion vs endpoint.
    AwaitFirst,
    /// Mid-body: pass characters through unchanged until the tail.
    Passing,
    /// Tail has been scheduled; the passage is over (marks remain until
    /// UNMARK).
    Done,
    /// [`DState::Done`], and this processor is the path endpoint: its
    /// head was immediately followed by the tail.
    Endpoint,
}

/// One dying snake's transit through one processor.
///
/// The passage keeps only its marking; the characters it schedules dwell
/// on its lane of the processor's [`DwellPool`], so every call that
/// schedules, emits or resets characters takes the pool. A lane holds
/// characters only between [`DyingPassage::begin`] and
/// [`DyingPassage::reset`], while the successor out-port is set.
#[derive(Clone, Debug)]
pub struct DyingPassage {
    state: DState,
    pred: OptPort,
    succ: OptPort,
    /// The emitted kind, which is also the passage's lane in the pool.
    /// It differs from the incoming kind at converting processors (root
    /// ID→OD, processor A OG→ID).
    out_kind: SnakeKind,
}

impl DyingPassage {
    /// Fresh, quiescent passage emitting characters of `out_kind`.
    pub fn new(out_kind: SnakeKind) -> Self {
        assert!(out_kind.is_dying(), "DyingPassage emits dying kinds");
        DyingPassage {
            state: DState::Idle,
            pred: OptPort::NONE,
            succ: OptPort::NONE,
            out_kind,
        }
    }

    /// Kind of the characters this passage emits.
    #[inline]
    pub fn out_kind(&self) -> SnakeKind {
        self.out_kind
    }

    /// The caller has consumed a head that arrived through in-port `pred`
    /// and carried successor out-port `succ`. (Mark setting is the caller's
    /// job — which pair depends on the processor's role.)
    pub fn begin(&mut self, pred: Port, succ: Port) {
        assert_eq!(self.state, DState::Idle, "dying passage already active");
        self.state = DState::AwaitFirst;
        self.pred = OptPort::some(pred);
        self.succ = OptPort::some(succ);
    }

    /// Feed the next stream character (caller guarantees it arrived through
    /// the predecessor in-port — asserted). Returns `true` when this call
    /// identified the processor as the path endpoint.
    ///
    /// Lossy at capacity, like [`crate::GrowRelay::relay`]: a clean run
    /// keeps a dying lane at most two characters deep, but a stream
    /// disturbed by a live topology mutation can outrun the lane. The
    /// character is then refused and counted (see
    /// [`DwellPool::push_bounded`]) instead of breaking the finite-state
    /// guard.
    pub fn feed(&mut self, pool: &mut DwellPool, port: Port, c: SnakeChar, now: u64) -> bool {
        assert!(self.pred.is(port), "dying character arrived off-path");
        let (state, out) = match (self.state, c) {
            // Head immediately followed by tail: we are the last processor
            // of the marked path. The tail is forwarded as-is (§2.3.3: "if
            // the next character happens to be a tail, then it gets sent
            // through the successor out-port as is").
            (DState::AwaitFirst, SnakeChar::Tail) => (DState::Endpoint, SnakeChar::Tail),
            // First body character → promoted to the new head.
            (DState::AwaitFirst, c) => (DState::Passing, c.as_head()),
            (DState::Passing, SnakeChar::Tail) => (DState::Done, SnakeChar::Tail),
            // Pass through exactly as received (as a body character).
            (DState::Passing, c) => (DState::Passing, c.as_body()),
            (s, c) => panic!("dying passage fed {c:?} in state {s:?}"),
        };
        self.state = state;
        pool.push_bounded(self.out_kind, now + SPEED1_DWELL, out);
        state == DState::Endpoint
    }

    /// Pop the next emission due at `now`.
    #[inline]
    pub fn due(&self, pool: &mut DwellPool, now: u64) -> Option<DyingEmit> {
        let port = self.succ.get()?;
        pool.pop_due(self.out_kind, now)
            .map(|c| DyingEmit { c, port })
    }

    /// Has the snake arrived (head consumed) on this lane?
    #[inline]
    pub fn is_active(&self) -> bool {
        self.state != DState::Idle
    }

    /// Has the whole snake passed (tail scheduled/sent)?
    #[inline]
    pub fn is_done(&self) -> bool {
        matches!(self.state, DState::Done | DState::Endpoint)
    }

    /// Was this processor the endpoint of the marked path?
    #[inline]
    pub fn is_endpoint(&self) -> bool {
        self.state == DState::Endpoint
    }

    /// The predecessor in-port recorded at head consumption.
    #[inline]
    pub fn pred(&self) -> Option<Port> {
        self.pred.get()
    }

    /// The successor out-port recorded at head consumption.
    #[inline]
    pub fn succ(&self) -> Option<Port> {
        self.succ.get()
    }

    /// Any scheduled emissions pending?
    #[inline]
    pub fn has_pending(&self, pool: &DwellPool) -> bool {
        self.pending_len(pool) > 0
    }

    /// Number of characters dwelling here (E5 census).
    #[inline]
    pub fn pending_len(&self, pool: &DwellPool) -> usize {
        pool.lane_len(self.out_kind)
    }

    /// Reset for the next RCA/BCA (performed alongside UNMARK).
    pub fn reset(&mut self, pool: &mut DwellPool) {
        self.state = DState::Idle;
        self.pred = OptPort::NONE;
        self.succ = OptPort::NONE;
        pool.clear(self.out_kind);
    }

    /// True when indistinguishable from a factory-fresh passage.
    #[inline]
    pub fn is_pristine(&self, pool: &DwellPool) -> bool {
        self.state == DState::Idle
            && self.pred.is_none()
            && self.succ.is_none()
            && !self.has_pending(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::Hop;

    fn body(o: u8, i: u8) -> SnakeChar {
        SnakeChar::Body(Hop::new(Port(o), Port(i)))
    }

    #[test]
    fn first_body_promoted_to_head() {
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(1), Port(2));
        assert!(!p.feed(&mut pool, Port(1), body(3, 0), 10));
        let e = p.due(&mut pool, 12).unwrap();
        assert_eq!(e.port, Port(2));
        assert_eq!(e.c, SnakeChar::Head(Hop::new(Port(3), Port(0))));
        assert!(!p.is_done());
    }

    #[test]
    fn later_chars_pass_unchanged_then_tail_finishes() {
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Od);
        p.begin(Port(0), Port(0));
        p.feed(&mut pool, Port(0), body(1, 1), 10);
        p.feed(&mut pool, Port(0), body(2, 2), 11);
        p.feed(&mut pool, Port(0), SnakeChar::Tail, 12);
        assert!(p.is_done());
        assert!(!p.is_endpoint());
        assert_eq!(
            p.due(&mut pool, 12).unwrap().c,
            SnakeChar::Head(Hop::new(Port(1), Port(1)))
        );
        assert_eq!(p.due(&mut pool, 13).unwrap().c, body(2, 2));
        assert_eq!(p.due(&mut pool, 14).unwrap().c, SnakeChar::Tail);
        assert!(!p.has_pending(&pool));
    }

    #[test]
    fn head_then_tail_is_endpoint() {
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Bd);
        p.begin(Port(3), Port(1));
        assert!(p.feed(&mut pool, Port(3), SnakeChar::Tail, 20));
        assert!(p.is_endpoint());
        assert!(p.is_done());
        let e = p.due(&mut pool, 22).unwrap();
        assert_eq!(e.c, SnakeChar::Tail);
        assert_eq!(e.port, Port(1));
    }

    #[test]
    fn speed_one_dwell_on_every_char() {
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(0), Port(0));
        p.feed(&mut pool, Port(0), body(0, 0), 7);
        assert_eq!(p.due(&mut pool, 8), None);
        assert!(p.due(&mut pool, 9).is_some());
    }

    #[test]
    fn a_lane_past_capacity_drops_and_counts() {
        // A mutation-era stream can outrun a dying lane; the refused
        // characters are counted, not a panic.
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(0), Port(1));
        let cap = DwellPool::HARD_CAP;
        for _ in 0..cap + 3 {
            assert!(!p.feed(&mut pool, Port(0), body(1, 1), 5));
        }
        p.feed(&mut pool, Port(0), SnakeChar::Tail, 6);
        assert!(p.is_done());
        assert_eq!((p.pending_len(&pool), pool.spill().dropped()), (cap, 4));
    }

    #[test]
    #[should_panic(expected = "off-path")]
    fn wrong_port_panics() {
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(0), Port(0));
        p.feed(&mut pool, Port(1), body(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_begin_panics() {
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(0), Port(0));
        p.begin(Port(1), Port(1));
    }

    #[test]
    fn reset_restores_pristine() {
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Od);
        p.begin(Port(0), Port(1));
        p.feed(&mut pool, Port(0), SnakeChar::Tail, 5);
        assert!(!p.is_pristine(&pool));
        p.reset(&mut pool);
        assert!(p.is_pristine(&pool));
        // reusable afterwards
        p.begin(Port(2), Port(2));
        assert!(p.is_active());
    }

    #[test]
    #[should_panic(expected = "dying kinds")]
    fn growing_kind_rejected() {
        let _ = DyingPassage::new(SnakeKind::Ig);
    }
}
