//! Property tests for the snake components: stream preservation through
//! relays, dying-snake shrink-by-one semantics, dwell-queue timing, and
//! loop-mark routing under arbitrary mark configurations.

use gtd_netsim::Port;
use gtd_snake::{
    DwellPool, DyingPassage, GrowEmit, GrowRelay, Hop, LoopMarks, MarkPair, SnakeChar, SnakeKind,
    SPEED1_DWELL,
};
use proptest::prelude::*;

fn arb_hop() -> impl Strategy<Value = Hop> {
    (0u8..6, proptest::option::of(0u8..6)).prop_map(|(o, i)| Hop {
        out_port: Port(o),
        in_port: i.map(Port),
    })
}

/// A well-formed snake stream: head, bodies, tail.
fn arb_stream() -> impl Strategy<Value = Vec<SnakeChar>> {
    (arb_hop(), proptest::collection::vec(arb_hop(), 0..12)).prop_map(|(h, bodies)| {
        let mut v = vec![SnakeChar::Head(h)];
        v.extend(bodies.into_iter().map(SnakeChar::Body));
        v.push(SnakeChar::Tail);
        v
    })
}

proptest! {
    /// A relay passes an arriving stream through unchanged (other than
    /// ∗-filling), in order, each character delayed exactly SPEED1_DWELL,
    /// with the extend-then-tail rule at the end.
    #[test]
    fn relay_preserves_stream_order_and_timing(stream in arb_stream(), port in 0u8..6) {
        let mut pool = DwellPool::default();
        let mut r = GrowRelay::new(SnakeKind::Ig);
        let mut t = 100u64;
        let mut accepted = Vec::new();
        for &c in &stream {
            if let Some(c) = r.accept(Port(port), c) {
                accepted.push((t, c));
                r.relay(&mut pool, c, t);
            }
            t += 1;
        }
        // whole stream accepted (head first, single port)
        prop_assert_eq!(accepted.len(), stream.len());
        // drain emissions
        let mut emitted = Vec::new();
        for tick in 100..t + SPEED1_DWELL + 2 {
            while let Some(e) = r.due(&mut pool, tick) {
                emitted.push((tick, e));
            }
        }
        prop_assert!(!r.has_pending(&pool));
        // non-tail chars come out as Relay(c) exactly dwell later;
        // the tail becomes Extend then Tail one tick apart.
        let n = stream.len();
        for (k, &(at, e)) in emitted.iter().enumerate() {
            if k < n - 1 {
                let (t_in, c_in) = accepted[k];
                prop_assert_eq!(e, GrowEmit::Relay(c_in));
                prop_assert_eq!(at, t_in + SPEED1_DWELL);
            }
        }
        prop_assert_eq!(emitted[n - 1].1, GrowEmit::Extend);
        prop_assert_eq!(emitted[n].1, GrowEmit::Tail);
        prop_assert_eq!(emitted[n].0, emitted[n - 1].0 + 1);
    }

    /// Stars are filled exactly once, with the arrival port.
    #[test]
    fn stars_filled_with_arrival_port(hop in arb_hop(), port in 0u8..6) {
        let mut r = GrowRelay::new(SnakeKind::Bg);
        let got = r.accept(Port(port), SnakeChar::Head(hop)).unwrap();
        let SnakeChar::Head(h) = got else { panic!("head stays head") };
        prop_assert_eq!(h.out_port, hop.out_port);
        match hop.in_port {
            Some(i) => prop_assert_eq!(h.in_port, Some(i)),
            None => prop_assert_eq!(h.in_port, Some(Port(port))),
        }
    }

    /// A dying passage consumes exactly one character (the promoted head)
    /// and forwards the rest verbatim: output stream = input minus one,
    /// head-promoted, same order.
    #[test]
    fn dying_passage_shrinks_stream_by_one(stream in arb_stream(), pred in 0u8..6) {
        // feed everything after the consumed head
        let body = &stream[1..];
        let mut pool = DwellPool::default();
        let mut p = DyingPassage::new(SnakeKind::Id);
        p.begin(Port(pred), Port(0));
        let mut t = 50u64;
        for &c in body {
            p.feed(&mut pool, Port(pred), c, t);
            t += 1;
        }
        prop_assert!(p.is_done());
        let mut outs = Vec::new();
        for tick in 50..t + SPEED1_DWELL + 1 {
            while let Some(e) = p.due(&mut pool, tick) {
                outs.push(e.c);
            }
        }
        prop_assert_eq!(outs.len(), body.len());
        // first out char is the promoted head
        if body.len() > 1 {
            prop_assert_eq!(outs[0], body[0].as_head());
            for k in 1..body.len() - 1 {
                prop_assert_eq!(outs[k], body[k].as_body());
            }
        }
        prop_assert_eq!(*outs.last().unwrap(), SnakeChar::Tail);
        // endpoint iff the head was immediately followed by the tail
        prop_assert_eq!(p.is_endpoint(), body.len() == 1);
    }

    /// A dwell lane is FIFO regardless of how late the consumer polls.
    #[test]
    fn dwell_queue_fifo(
        deadlines in proptest::collection::vec(0u64..20, 1..12),
        poll_gap in 1u64..5,
    ) {
        let mut sorted = deadlines.clone();
        sorted.sort_unstable();
        let mut pool = DwellPool::default();
        for (i, &d) in sorted.iter().enumerate() {
            pool.push(SnakeKind::Ig, d, i as u16);
        }
        let mut got = Vec::new();
        let mut t = 0;
        while !pool.is_empty() {
            while let Some(x) = pool.pop_due::<u16>(SnakeKind::Ig, t) {
                got.push(x);
            }
            t += poll_gap;
        }
        let want: Vec<u16> = (0..sorted.len() as u16).collect();
        prop_assert_eq!(got, want);
    }

    /// Loop marks: a full dual configuration routes pair 1 then pair 2
    /// alternately for any port assignment, and a double unmark circuit
    /// always restores pristine state.
    #[test]
    fn dual_marks_always_alternate_and_unmark(
        p1 in 0u8..6, s1 in 0u8..6, p2 in 0u8..6, s2 in 0u8..6,
        circuits in 1usize..4,
    ) {
        let mut m = LoopMarks::new();
        m.set_pred(MarkPair::First, Port(p1));
        m.set_succ(MarkPair::First, Port(s1));
        m.set_pred(MarkPair::Second, Port(p2));
        m.set_succ(MarkPair::Second, Port(s2));
        for _ in 0..circuits {
            // full circle = one pass per pair, in order
            let r1 = m.route(Port(p1)).expect("pair-1 pass accepted");
            prop_assert_eq!(r1.succ, Port(s1));
            m.advance(r1);
            let r2 = m.route(Port(p2)).expect("pair-2 pass accepted");
            prop_assert_eq!(r2.succ, Port(s2));
            m.advance(r2);
        }
        prop_assert!(m.unmark(Port(p1)).is_some());
        prop_assert!(m.unmark(Port(p2)).is_some());
        prop_assert!(m.is_pristine());
    }

    /// Erasure after an arbitrary prefix of activity always restores a
    /// pristine relay (KILL semantics are total).
    #[test]
    fn erase_is_total(stream in arb_stream(), port in 0u8..6, cut in 0usize..14) {
        let mut pool = DwellPool::default();
        let mut r = GrowRelay::new(SnakeKind::Og);
        for (t, &c) in (10u64..).zip(stream.iter().take(cut.min(stream.len()))) {
            if let Some(c) = r.accept(Port(port), c) {
                r.relay(&mut pool, c, t);
            }
        }
        r.erase(&mut pool);
        prop_assert!(r.is_pristine(&pool));
    }
}

#[test]
fn alphabet_count_matches_paper_for_all_small_deltas() {
    // redundant with unit tests but kept here as the crate-level contract
    for delta in 2..=16u8 {
        let d = delta as usize;
        assert_eq!(gtd_snake::chars::alphabet_size(delta), 2 * (d * d + d) + 1);
    }
}
