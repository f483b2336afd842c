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
//! reconstruction uses to let the target recognize itself (DESIGN.md §5).

use crate::chars::{SnakeChar, SnakeKind};
use crate::speed::{DwellQueue, DwellSpill, SPEED1_DWELL};
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
}

/// One dying snake's transit through one processor.
///
/// The passage's dwell queue spills into the processor's [`DwellSpill`],
/// so every call that schedules or emits characters takes it.
#[derive(Clone, Debug)]
pub struct DyingPassage {
    state: DState,
    pred: Option<Port>,
    succ: Option<Port>,
    endpoint: bool,
    /// Dwell queue on the lane of the emitted kind, which differs from
    /// the incoming kind at converting processors (root ID→OD, processor
    /// A OG→ID).
    q: DwellQueue<SnakeChar>,
}

impl DyingPassage {
    /// Fresh, quiescent passage emitting characters of `out_kind`.
    pub fn new(out_kind: SnakeKind) -> Self {
        assert!(out_kind.is_dying(), "DyingPassage emits dying kinds");
        DyingPassage {
            state: DState::Idle,
            pred: None,
            succ: None,
            endpoint: false,
            q: DwellQueue::new(out_kind),
        }
    }

    /// Kind of the characters this passage emits.
    #[inline]
    pub fn out_kind(&self) -> SnakeKind {
        self.q.lane()
    }

    /// The caller has consumed a head that arrived through in-port `pred`
    /// and carried successor out-port `succ`. (Mark setting is the caller's
    /// job — which pair depends on the processor's role.)
    pub fn begin(&mut self, pred: Port, succ: Port) {
        assert_eq!(self.state, DState::Idle, "dying passage already active");
        self.state = DState::AwaitFirst;
        self.pred = Some(pred);
        self.succ = Some(succ);
    }

    /// Feed the next stream character (caller guarantees it arrived through
    /// the predecessor in-port — asserted). Returns `true` when this call
    /// identified the processor as the path endpoint.
    pub fn feed(&mut self, spill: &mut DwellSpill, port: Port, c: SnakeChar, now: u64) -> bool {
        assert_eq!(Some(port), self.pred, "dying character arrived off-path");
        match (self.state, c) {
            (DState::AwaitFirst, SnakeChar::Tail) => {
                // Head immediately followed by tail: we are the last
                // processor of the marked path. The tail is forwarded as-is
                // (§2.3.3: "if the next character happens to be a tail,
                // then it gets sent through the successor out-port as is").
                self.endpoint = true;
                self.state = DState::Done;
                self.q.push(spill, now + SPEED1_DWELL, SnakeChar::Tail);
                true
            }
            (DState::AwaitFirst, c) => {
                // First body character → promoted to the new head.
                self.state = DState::Passing;
                self.q.push(spill, now + SPEED1_DWELL, c.as_head());
                false
            }
            (DState::Passing, SnakeChar::Tail) => {
                self.state = DState::Done;
                self.q.push(spill, now + SPEED1_DWELL, SnakeChar::Tail);
                false
            }
            (DState::Passing, c) => {
                // Pass through exactly as received (as a body character).
                self.q.push(spill, now + SPEED1_DWELL, c.as_body());
                false
            }
            (s, c) => panic!("dying passage fed {c:?} in state {s:?}"),
        }
    }

    /// Pop the next emission due at `now`.
    #[inline]
    pub fn due(&mut self, spill: &mut DwellSpill, now: u64) -> Option<DyingEmit> {
        let port = self.succ?;
        self.q.pop_due(spill, now).map(|c| DyingEmit { c, port })
    }

    /// Earliest pending emission deadline.
    #[inline]
    pub fn next_deadline(&self, spill: &DwellSpill, now: u64) -> Option<u64> {
        self.q.next_deadline(spill, now)
    }

    /// Has the snake arrived (head consumed) on this lane?
    #[inline]
    pub fn is_active(&self) -> bool {
        self.state != DState::Idle
    }

    /// Has the whole snake passed (tail scheduled/sent)?
    #[inline]
    pub fn is_done(&self) -> bool {
        self.state == DState::Done
    }

    /// Was this processor the endpoint of the marked path?
    #[inline]
    pub fn is_endpoint(&self) -> bool {
        self.endpoint
    }

    /// The predecessor in-port recorded at head consumption.
    #[inline]
    pub fn pred(&self) -> Option<Port> {
        self.pred
    }

    /// The successor out-port recorded at head consumption.
    #[inline]
    pub fn succ(&self) -> Option<Port> {
        self.succ
    }

    /// Any scheduled emissions pending?
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.q.is_empty()
    }

    /// Number of characters dwelling here (E5 census).
    #[inline]
    pub fn pending_len(&self) -> usize {
        self.q.len()
    }

    /// Reset for the next RCA/BCA (performed alongside UNMARK).
    pub fn reset(&mut self) {
        self.state = DState::Idle;
        self.pred = None;
        self.succ = None;
        self.endpoint = false;
        self.q.clear();
    }

    /// True when indistinguishable from a factory-fresh passage.
    #[inline]
    pub fn is_pristine(&self) -> bool {
        self.state == DState::Idle
            && self.pred.is_none()
            && self.succ.is_none()
            && !self.endpoint
            && self.q.is_empty()
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
        let mut spill = DwellSpill::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(1), Port(2));
        assert!(!p.feed(&mut spill, Port(1), body(3, 0), 10));
        let e = p.due(&mut spill, 12).unwrap();
        assert_eq!(e.port, Port(2));
        assert_eq!(e.c, SnakeChar::Head(Hop::new(Port(3), Port(0))));
        assert!(!p.is_done());
    }

    #[test]
    fn later_chars_pass_unchanged_then_tail_finishes() {
        let mut spill = DwellSpill::default();
        let mut p = DyingPassage::new(SnakeKind::Od);
        p.begin(Port(0), Port(0));
        p.feed(&mut spill, Port(0), body(1, 1), 10);
        p.feed(&mut spill, Port(0), body(2, 2), 11);
        p.feed(&mut spill, Port(0), SnakeChar::Tail, 12);
        assert!(p.is_done());
        assert!(!p.is_endpoint());
        assert_eq!(
            p.due(&mut spill, 12).unwrap().c,
            SnakeChar::Head(Hop::new(Port(1), Port(1)))
        );
        assert_eq!(p.due(&mut spill, 13).unwrap().c, body(2, 2));
        assert_eq!(p.due(&mut spill, 14).unwrap().c, SnakeChar::Tail);
        assert!(!p.has_pending());
    }

    #[test]
    fn head_then_tail_is_endpoint() {
        let mut spill = DwellSpill::default();
        let mut p = DyingPassage::new(SnakeKind::Bd);
        p.begin(Port(3), Port(1));
        assert!(p.feed(&mut spill, Port(3), SnakeChar::Tail, 20));
        assert!(p.is_endpoint());
        assert!(p.is_done());
        let e = p.due(&mut spill, 22).unwrap();
        assert_eq!(e.c, SnakeChar::Tail);
        assert_eq!(e.port, Port(1));
    }

    #[test]
    fn speed_one_dwell_on_every_char() {
        let mut spill = DwellSpill::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(0), Port(0));
        p.feed(&mut spill, Port(0), body(0, 0), 7);
        assert_eq!(p.due(&mut spill, 8), None);
        assert!(p.due(&mut spill, 9).is_some());
    }

    #[test]
    #[should_panic(expected = "off-path")]
    fn wrong_port_panics() {
        let mut spill = DwellSpill::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(0), Port(0));
        p.feed(&mut spill, Port(1), body(0, 0), 0);
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
        let mut spill = DwellSpill::default();
        let mut p = DyingPassage::new(SnakeKind::Od);
        p.begin(Port(0), Port(1));
        p.feed(&mut spill, Port(0), SnakeChar::Tail, 5);
        assert!(!p.is_pristine());
        p.reset();
        assert!(p.is_pristine());
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
