//! Marked loops (paper §2.4).
//!
//! A dying-snake pass leaves each processor on the loop with *predecessor
//! in-port* and *successor out-port* designations. A processor can sit on
//! the loop twice (once on the A→root half, once on root→A), so there are
//! two mark pairs; loop tokens alternate between them, starting with pair
//! #1. The root is special: the ID pass sets its predecessor #1 and the
//! conversion to OD sets its successor #2, so it routes #1 → #2 (footnote
//! 2). [`LoopMarks`] implements acceptance, routing, alternation, and
//! UNMARK-erasure for all these cases.

use gtd_netsim::Port;

/// Which predecessor/successor pair a dying snake sets (ID/BD → #1, OD → #2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MarkPair {
    /// Pair #1 — set by in-dying (and backwards-dying) snakes.
    First,
    /// Pair #2 — set by out-dying snakes.
    Second,
}

/// A resolved routing decision for one loop-token arrival.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    /// Successor out-port to forward through.
    pub succ: Port,
    /// The pair consumed by this traversal (what UNMARK erases).
    pub pair: MarkPair,
}

/// Predecessor/successor loop marks of one processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoopMarks {
    pred1: Option<Port>,
    succ1: Option<Port>,
    pred2: Option<Port>,
    succ2: Option<Port>,
    /// Dual-marked processors alternate: false ⇒ next traversal uses pair
    /// #1, true ⇒ pair #2 (§2.4).
    expect_second: bool,
}

impl LoopMarks {
    /// Fresh, unmarked state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the predecessor in-port of a pair. Panics if already set — a
    /// processor appears at most twice on the loop (§2.4, Definition 2.1),
    /// once per pair.
    pub fn set_pred(&mut self, pair: MarkPair, p: Port) {
        let slot = match pair {
            MarkPair::First => &mut self.pred1,
            MarkPair::Second => &mut self.pred2,
        };
        assert!(slot.is_none(), "predecessor {pair:?} set twice");
        *slot = Some(p);
    }

    /// Set the successor out-port of a pair. Panics if already set.
    pub fn set_succ(&mut self, pair: MarkPair, p: Port) {
        let slot = match pair {
            MarkPair::First => &mut self.succ1,
            MarkPair::Second => &mut self.succ2,
        };
        assert!(slot.is_none(), "successor {pair:?} set twice");
        *slot = Some(p);
    }

    /// Predecessor of a pair.
    #[inline]
    pub fn pred(&self, pair: MarkPair) -> Option<Port> {
        match pair {
            MarkPair::First => self.pred1,
            MarkPair::Second => self.pred2,
        }
    }

    /// Successor of a pair.
    #[inline]
    pub fn succ(&self, pair: MarkPair) -> Option<Port> {
        match pair {
            MarkPair::First => self.succ1,
            MarkPair::Second => self.succ2,
        }
    }

    /// Would a loop token arriving through `arrival` be accepted right now,
    /// and if so where does it go? Does **not** advance the alternation —
    /// call [`LoopMarks::advance`] (loop tokens) or [`LoopMarks::unmark`]
    /// (UNMARK token) after acting on the route.
    ///
    /// Routing cases:
    /// * both full pairs set → alternation decides which pair is "appropriate";
    /// * exactly one full pair set → that pair;
    /// * the root pattern (pred #1 + succ #2 only) → #1 in, #2 out.
    #[inline]
    pub fn route(&self, arrival: Port) -> Option<Route> {
        let full1 = self.pred1.zip(self.succ1);
        let full2 = self.pred2.zip(self.succ2);
        match (full1, full2) {
            (Some((p1, s1)), Some((p2, s2))) => {
                let (p, s, pair) = if self.expect_second {
                    (p2, s2, MarkPair::Second)
                } else {
                    (p1, s1, MarkPair::First)
                };
                (arrival == p).then_some(Route { succ: s, pair })
            }
            (Some((p1, s1)), None) => (arrival == p1).then_some(Route {
                succ: s1,
                pair: MarkPair::First,
            }),
            (None, Some((p2, s2))) => (arrival == p2).then_some(Route {
                succ: s2,
                pair: MarkPair::Second,
            }),
            (None, None) => {
                // Root pattern: predecessor #1 paired with successor #2.
                match (self.pred1, self.succ2, self.succ1, self.pred2) {
                    (Some(p1), Some(s2), None, None) if arrival == p1 => Some(Route {
                        succ: s2,
                        pair: MarkPair::First,
                    }),
                    _ => None,
                }
            }
        }
    }

    /// Advance the alternation after forwarding a loop token along `route`.
    pub fn advance(&mut self, _route: Route) {
        if self.pred1.zip(self.succ1).is_some() && self.pred2.zip(self.succ2).is_some() {
            self.expect_second = !self.expect_second;
        }
    }

    /// UNMARK pass: route the token, then "forget those predecessor and
    /// successor designations" (§4.2.1 step 5) for the pair used. The root
    /// pattern erases both its ports.
    pub fn unmark(&mut self, arrival: Port) -> Option<Route> {
        let route = self.route(arrival)?;
        let root_pattern = self.succ1.is_none()
            && self.pred2.is_none()
            && self.pred1.is_some()
            && self.succ2.is_some();
        if root_pattern {
            self.pred1 = None;
            self.succ2 = None;
        } else {
            match route.pair {
                MarkPair::First => {
                    self.pred1 = None;
                    self.succ1 = None;
                }
                MarkPair::Second => {
                    self.pred2 = None;
                    self.succ2 = None;
                }
            }
        }
        if self.is_clear() {
            self.expect_second = false;
        }
        Some(route)
    }

    /// Erase everything unconditionally (used by the loop *creator*, which
    /// absorbs the UNMARK rather than forwarding it).
    pub fn clear(&mut self) {
        *self = LoopMarks::default();
    }

    /// Are any marks set?
    #[inline]
    pub fn is_marked(&self) -> bool {
        self.pred1.is_some() || self.succ1.is_some() || self.pred2.is_some() || self.succ2.is_some()
    }

    /// True when fully unmarked with reset alternation (Lemma 4.2 state).
    #[inline]
    pub fn is_clear(&self) -> bool {
        !self.is_marked()
    }

    /// True when indistinguishable from factory-fresh.
    #[inline]
    pub fn is_pristine(&self) -> bool {
        *self == LoopMarks::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pair_routes_and_rejects() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(1));
        m.set_succ(MarkPair::First, Port(2));
        let r = m.route(Port(1)).unwrap();
        assert_eq!(r.succ, Port(2));
        assert_eq!(r.pair, MarkPair::First);
        assert!(m.route(Port(0)).is_none());
    }

    #[test]
    fn second_pair_only_routes() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::Second, Port(0));
        m.set_succ(MarkPair::Second, Port(3));
        let r = m.route(Port(0)).unwrap();
        assert_eq!(r.succ, Port(3));
        assert_eq!(r.pair, MarkPair::Second);
    }

    #[test]
    fn dual_marks_alternate_starting_with_first() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(0));
        m.set_succ(MarkPair::First, Port(0));
        m.set_pred(MarkPair::Second, Port(1));
        m.set_succ(MarkPair::Second, Port(1));
        // pass 1: only pred1 accepted
        assert!(m.route(Port(1)).is_none());
        let r1 = m.route(Port(0)).unwrap();
        assert_eq!(r1.pair, MarkPair::First);
        m.advance(r1);
        // pass 2: only pred2 accepted
        assert!(m.route(Port(0)).is_none());
        let r2 = m.route(Port(1)).unwrap();
        assert_eq!(r2.pair, MarkPair::Second);
        m.advance(r2);
        // next full circle starts at pair 1 again
        assert!(m.route(Port(0)).is_some());
    }

    #[test]
    fn root_pattern_routes_pred1_to_succ2() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(2));
        m.set_succ(MarkPair::Second, Port(0));
        let r = m.route(Port(2)).unwrap();
        assert_eq!(r.succ, Port(0));
        assert!(m.route(Port(0)).is_none());
    }

    #[test]
    fn unmark_single_pair_clears() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(1));
        m.set_succ(MarkPair::First, Port(2));
        let r = m.unmark(Port(1)).unwrap();
        assert_eq!(r.succ, Port(2));
        assert!(m.is_pristine());
        // a second unmark finds nothing
        assert!(m.unmark(Port(1)).is_none());
    }

    #[test]
    fn unmark_dual_clears_pairs_in_traversal_order() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(0));
        m.set_succ(MarkPair::First, Port(0));
        m.set_pred(MarkPair::Second, Port(1));
        m.set_succ(MarkPair::Second, Port(1));
        let r1 = m.unmark(Port(0)).unwrap();
        assert_eq!(r1.pair, MarkPair::First);
        assert!(m.is_marked());
        // after pair 1 is gone, pair 2 routes as a single pair
        let r2 = m.unmark(Port(1)).unwrap();
        assert_eq!(r2.pair, MarkPair::Second);
        assert!(m.is_pristine());
    }

    #[test]
    fn unmark_root_pattern_clears_both_ports() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(2));
        m.set_succ(MarkPair::Second, Port(1));
        let r = m.unmark(Port(2)).unwrap();
        assert_eq!(r.succ, Port(1));
        assert!(m.is_pristine());
    }

    #[test]
    fn full_token_circuit_then_unmark_circuit_resets_alternation() {
        // Simulates a dual processor during one FORWARD circle + one UNMARK
        // circle: alternation must end where it started.
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(0));
        m.set_succ(MarkPair::First, Port(0));
        m.set_pred(MarkPair::Second, Port(1));
        m.set_succ(MarkPair::Second, Port(1));
        let r = m.route(Port(0)).unwrap();
        m.advance(r);
        let r = m.route(Port(1)).unwrap();
        m.advance(r);
        assert!(m.unmark(Port(0)).is_some());
        assert!(m.unmark(Port(1)).is_some());
        assert!(m.is_pristine());
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn double_set_pred_panics() {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(0));
        m.set_pred(MarkPair::First, Port(1));
    }
}
