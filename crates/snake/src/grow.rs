//! Growing snakes (paper §2.3.2).
//!
//! Growing snakes are information generators: released by an *initiator*,
//! they flood breadth-first, and the first one to reach a *terminator*
//! carries in its body the minimal-length port-path from initiator to
//! terminator. The local rules implemented here:
//!
//! * A processor receiving a character of this kind **for the first time**
//!   marks itself visited and the arrival in-port as its parent; only that
//!   stream is relayed from then on, all other characters of the kind are
//!   ignored. Simultaneous first arrivals resolve to the lowest-numbered
//!   in-port (callers must feed ports in ascending order — they do, and
//!   tests enforce the tie-break).
//! * Characters with a `∗` second parameter get the arrival in-port filled
//!   in at reception.
//! * Non-tail characters are re-broadcast through every out-port after the
//!   speed-1 dwell.
//! * When the tail passes, the processor first appends a fresh body
//!   character `X(o, ∗)` per out-port `o` — extending the encoded path by
//!   the hop just taken — and only then forwards the tail.
//!
//! [`GrowRelay`] is acceptance + scheduling; what to *do* with an accepted
//! character is the caller's choice: ordinary processors call
//! [`GrowRelay::relay`], while converting processors (the root for IG→OG,
//! processor A for OG→ID) intercept the returned character and feed their
//! own conversion pipelines (`gtd-core`).

use crate::chars::{SnakeChar, SnakeKind};
use crate::speed::{DwellQueue, DwellSpill, SPEED1_DWELL};
use gtd_netsim::Port;

/// A scheduled growing-snake emission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrowEmit {
    /// Emit `Head(o, ∗)` through each connected out-port `o` (birth).
    Heads,
    /// Re-emit this (already-filled) character through every out-port.
    Relay(SnakeChar),
    /// Emit a fresh `Body(o, ∗)` through each connected out-port `o`
    /// (tail-extension rule).
    Extend,
    /// Emit the tail through every out-port.
    Tail,
}

/// Per-processor, per-kind growing-snake state.
///
/// The relay's dwell queue spills into the processor's [`DwellSpill`], so
/// every call that schedules or emits characters takes it.
#[derive(Clone, Debug)]
pub struct GrowRelay {
    visited: bool,
    /// Parent in-port; `None` while unvisited *or* when this processor is
    /// the initiator (the initiator has no parent).
    parent: Option<Port>,
    initiator: bool,
    q: DwellQueue<GrowEmit>,
}

impl GrowRelay {
    /// Fresh, quiescent relay for one snake kind.
    pub fn new(kind: SnakeKind) -> Self {
        assert!(kind.is_growing(), "GrowRelay only handles growing kinds");
        GrowRelay {
            visited: false,
            parent: None,
            initiator: false,
            q: DwellQueue::new(kind),
        }
    }

    /// The snake kind this relay handles.
    #[inline]
    pub fn kind(&self) -> SnakeKind {
        self.q.lane()
    }

    /// Become the initiator: mark self visited (no parent) and schedule the
    /// baby snake — heads this tick, tail next tick (§2.3.2, first rule).
    pub fn start(&mut self, spill: &mut DwellSpill, now: u64) {
        assert!(!self.visited, "initiator must start on a clean relay");
        self.visited = true;
        self.initiator = true;
        self.q.push(spill, now, GrowEmit::Heads);
        self.q.push(spill, now + 1, GrowEmit::Tail);
    }

    /// Become the initiator **without** emitting a baby snake: used by the
    /// root when it converts an incoming IG stream into the OG snake it
    /// "broadcasts out all out-ports" (§4.2.1 step 2) — the root is the OG
    /// tree's origin and must ignore OG characters flowing back to it, but
    /// its emissions replay the converted stream rather than fresh heads
    /// (feed those through [`GrowRelay::relay`]).
    pub fn mark_initiator(&mut self) {
        assert!(!self.visited, "initiator must start on a clean relay");
        self.visited = true;
        self.initiator = true;
    }

    /// Reception rule. Returns the accepted, ∗-filled character if this
    /// processor should process it (first visit, or subsequent character of
    /// the adopted stream), `None` if the character must be ignored.
    ///
    /// Callers must invoke this in ascending in-port order within a tick so
    /// the paper's lowest-in-port tie-break falls out of "first wins".
    ///
    /// Only a **head** character can start an adoption. In an undisturbed
    /// run every stream reaches a fresh processor head-first (the initiator
    /// emits the head first and relays preserve order), so this matches the
    /// paper's "receives … for the first time" rule; the restriction only
    /// bites on post-KILL stragglers, preventing a headless orphan stream
    /// from re-marking erased processors and flooding forever (DESIGN.md §5).
    #[inline]
    pub fn accept(&mut self, port: Port, c: SnakeChar) -> Option<SnakeChar> {
        if !self.visited {
            if !c.is_head() {
                return None;
            }
            self.visited = true;
            self.parent = Some(port);
            return Some(c.filled(port));
        }
        if self.parent == Some(port) {
            return Some(c.filled(port));
        }
        None
    }

    /// Standard relay behaviour for an accepted character: schedule it for
    /// broadcast after the speed-1 dwell; tails trigger the extend-then-tail
    /// sequence.
    ///
    /// Lossy at capacity: a clean run keeps the queue a few characters
    /// deep, but a live topology mutation can orphan a growing stream
    /// into a cycle where it circulates — and grows — forever. The finite
    /// buffer drops such characters instead of growing without bound (see
    /// [`DwellQueue::push_bounded`]); the dropped stream is mutation-era
    /// junk by construction, and the session-level remap driver recovers
    /// the disturbed run.
    pub fn relay(&mut self, spill: &mut DwellSpill, c: SnakeChar, now: u64) {
        match c {
            SnakeChar::Tail => {
                // all-or-nothing: an extension without its tail (or vice
                // versa) would corrupt even streams we could still carry
                if self.q.len() + 2 <= DwellQueue::<GrowEmit>::HARD_CAP {
                    self.q.push(spill, now + SPEED1_DWELL, GrowEmit::Extend);
                    self.q.push(spill, now + SPEED1_DWELL + 1, GrowEmit::Tail);
                } else {
                    self.q.record_drops(spill, 2);
                }
            }
            other => {
                self.q
                    .push_bounded(spill, now + SPEED1_DWELL, GrowEmit::Relay(other));
            }
        }
    }

    /// Pop the next emission due at `now`, if any.
    #[inline]
    pub fn due(&mut self, spill: &mut DwellSpill, now: u64) -> Option<GrowEmit> {
        self.q.pop_due(spill, now)
    }

    /// Earliest pending emission deadline (restep scheduling).
    #[inline]
    pub fn next_deadline(&self, spill: &DwellSpill, now: u64) -> Option<u64> {
        self.q.next_deadline(spill, now)
    }

    /// Has this processor been visited by (or initiated) this snake kind?
    #[inline]
    pub fn is_marked(&self) -> bool {
        self.visited
    }

    /// The parent in-port mark, if any (breadth-first tokens follow these).
    #[inline]
    pub fn parent(&self) -> Option<Port> {
        self.parent
    }

    /// Did this relay initiate the current snake?
    #[inline]
    pub fn is_initiator(&self) -> bool {
        self.initiator
    }

    /// Any scheduled emissions pending?
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.q.is_empty()
    }

    /// Number of characters currently dwelling here (E5 census).
    #[inline]
    pub fn pending_len(&self) -> usize {
        self.q.len()
    }

    /// KILL-token erasure: "completely eradicate all traces of growing
    /// snake characters … both characters and markings" (§4.2.1 step 4).
    pub fn erase(&mut self) {
        self.visited = false;
        self.parent = None;
        self.initiator = false;
        self.q.clear();
    }

    /// True when indistinguishable from a factory-fresh relay — the state
    /// Lemma 4.2 promises after every RCA/BCA.
    #[inline]
    pub fn is_pristine(&self) -> bool {
        !self.visited && self.parent.is_none() && !self.initiator && self.q.is_empty()
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
    fn first_visit_adopts_parent_and_fills_star() {
        let mut r = GrowRelay::new(SnakeKind::Ig);
        assert!(!r.is_marked());
        let c = SnakeChar::Head(Hop::star(Port(2)));
        let got = r.accept(Port(1), c).expect("first arrival accepted");
        assert_eq!(got, SnakeChar::Head(Hop::new(Port(2), Port(1))));
        assert!(r.is_marked());
        assert_eq!(r.parent(), Some(Port(1)));
    }

    #[test]
    fn lowest_port_wins_simultaneous_arrival() {
        // Caller feeds ports in ascending order; the port-0 stream is
        // adopted, the port-1 stream ignored.
        let mut r = GrowRelay::new(SnakeKind::Ig);
        assert!(r
            .accept(Port(0), SnakeChar::Head(Hop::star(Port(5))))
            .is_some());
        assert!(r
            .accept(Port(1), SnakeChar::Head(Hop::star(Port(6))))
            .is_none());
        assert_eq!(r.parent(), Some(Port(0)));
    }

    #[test]
    fn only_parent_stream_accepted_afterwards() {
        let mut r = GrowRelay::new(SnakeKind::Og);
        r.accept(Port(2), SnakeChar::Head(Hop::star(Port(0))))
            .unwrap();
        assert!(r.accept(Port(0), body(1, 1)).is_none());
        assert!(r.accept(Port(2), body(1, 1)).is_some());
    }

    #[test]
    fn initiator_ignores_returning_snakes() {
        let mut spill = DwellSpill::default();
        let mut r = GrowRelay::new(SnakeKind::Ig);
        r.start(&mut spill, 10);
        assert!(r.is_initiator());
        assert!(r.parent().is_none());
        // A snake of our own kind looping back must be ignored.
        assert!(r
            .accept(Port(0), SnakeChar::Head(Hop::star(Port(0))))
            .is_none());
    }

    #[test]
    fn birth_schedule_heads_then_tail() {
        let mut spill = DwellSpill::default();
        let mut r = GrowRelay::new(SnakeKind::Bg);
        r.start(&mut spill, 10);
        assert_eq!(r.due(&mut spill, 9), None);
        assert_eq!(r.due(&mut spill, 10), Some(GrowEmit::Heads));
        assert_eq!(r.due(&mut spill, 10), None);
        assert_eq!(r.due(&mut spill, 11), Some(GrowEmit::Tail));
        assert!(!r.has_pending());
    }

    #[test]
    fn relay_dwells_speed_one() {
        let mut spill = DwellSpill::default();
        let mut r = GrowRelay::new(SnakeKind::Ig);
        // adopt via the stream's head, then relay a body character
        r.accept(Port(0), SnakeChar::Head(Hop::star(Port(1))))
            .unwrap();
        let c = r.accept(Port(0), body(1, 0)).unwrap();
        r.relay(&mut spill, c, 100);
        assert_eq!(r.due(&mut spill, 101), None);
        assert_eq!(r.due(&mut spill, 102), Some(GrowEmit::Relay(body(1, 0))));
    }

    #[test]
    fn tail_triggers_extend_then_tail() {
        let mut spill = DwellSpill::default();
        let mut r = GrowRelay::new(SnakeKind::Ig);
        r.accept(Port(0), SnakeChar::Head(Hop::star(Port(1))))
            .unwrap();
        let c = r.accept(Port(0), SnakeChar::Tail).unwrap();
        r.relay(&mut spill, c, 50);
        assert_eq!(r.due(&mut spill, 52), Some(GrowEmit::Extend));
        assert_eq!(r.due(&mut spill, 52), None);
        assert_eq!(r.due(&mut spill, 53), Some(GrowEmit::Tail));
    }

    #[test]
    fn stream_spacing_preserved_through_relay() {
        // chars arriving 1 tick apart leave 1 tick apart
        let mut spill = DwellSpill::default();
        let mut r = GrowRelay::new(SnakeKind::Ig);
        let h = r
            .accept(Port(0), SnakeChar::Head(Hop::star(Port(0))))
            .unwrap();
        r.relay(&mut spill, h, 10);
        let b = r.accept(Port(0), body(0, 0)).unwrap();
        r.relay(&mut spill, b, 11);
        assert!(matches!(
            r.due(&mut spill, 12),
            Some(GrowEmit::Relay(SnakeChar::Head(_)))
        ));
        assert!(matches!(
            r.due(&mut spill, 13),
            Some(GrowEmit::Relay(SnakeChar::Body(_)))
        ));
    }

    #[test]
    fn erase_restores_pristine() {
        let mut spill = DwellSpill::default();
        let mut r = GrowRelay::new(SnakeKind::Og);
        let c = r
            .accept(Port(1), SnakeChar::Head(Hop::star(Port(0))))
            .unwrap();
        r.relay(&mut spill, c, 5);
        assert!(!r.is_pristine());
        r.erase();
        assert!(r.is_pristine());
        // and the relay can be re-visited afresh (head-first, as always)
        assert!(r
            .accept(Port(3), SnakeChar::Head(Hop::star(Port(0))))
            .is_some());
        assert_eq!(r.parent(), Some(Port(3)));
    }

    #[test]
    fn headless_stragglers_do_not_mark_fresh_nodes() {
        // A body or tail character hitting an unvisited node is a post-KILL
        // straggler; adopting it would regenerate an orphan flood, so it is
        // dropped (DESIGN.md §5).
        let mut r = GrowRelay::new(SnakeKind::Ig);
        assert!(r.accept(Port(2), body(1, 1)).is_none());
        assert!(r.accept(Port(2), SnakeChar::Tail).is_none());
        assert!(!r.is_marked());
        // a head still adopts normally afterwards
        assert!(r
            .accept(Port(2), SnakeChar::Head(Hop::star(Port(0))))
            .is_some());
        assert!(r.is_marked());
    }

    #[test]
    #[should_panic(expected = "growing kinds")]
    fn dying_kind_rejected() {
        let _ = GrowRelay::new(SnakeKind::Id);
    }
}
