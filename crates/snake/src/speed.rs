//! Speeds (paper §2.1).
//!
//! "A speed-1 construct will enter a processor. It will then remain there
//! for 3 global clock ticks. At the third clock tick, it will proceed along
//! its designated path. Similarly, a speed-3 construct will wait only 1
//! global clock tick."
//!
//! Our tick convention: a character received as input at tick *t* is
//! re-emitted as output at tick *t + dwell* and therefore received by the
//! next processor at *t + dwell + 1*. With [`SPEED1_DWELL`] = 2 a speed-1
//! construct advances one hop every 3 ticks; with [`SPEED3_DWELL`] = 0 a
//! speed-3 construct advances one hop per tick — exactly the paper's 3:1
//! ratio that Lemma 4.2's catch-up argument needs.
//!
//! Because consecutive snake characters can be spaced as little as one tick
//! apart (a newborn snake is head-then-tail on consecutive ticks, §2.3.2),
//! several characters of the same snake may dwell in one processor at once.
//! [`DwellQueue`] holds them in FIFO order with per-item deadlines. The
//! queue's occupancy is bounded by a small constant (the emission rate
//! equals the arrival rate, at most one per tick), so the processor stays
//! finite-state; [`DwellQueue::HARD_CAP`] turns any violation of that
//! reasoning into a loud failure instead of silent unbounded memory.
//!
//! ## Storage
//!
//! A lane keeps up to four items inline, with no heap behind it. Each item
//! is held in its 16-bit wire form ([`DwellItem`]) and each deadline as a
//! *stamp*: the low 16 bits of its tick. Clean runs never queue more than
//! three characters per lane, so they never allocate a lane at all.
//!
//! A push that would make a fifth item *spills* the lane: its items move
//! into a 16-slot ring (a *slab*) in the processor's [`DwellSpill`]. That
//! one cold block holds a slab for each of the processor's six lanes. It
//! is allocated the first time any of them spills, and a slab once
//! claimed stays claimed. A pop that brings a spilled lane back to four
//! items moves them inline again. The slab also keeps the lane's lifetime
//! drop counter, because a drop needs a full ring.
//!
//! Stamps are read against the current tick: a stamp stands for the tick
//! nearest `now` with those low 16 bits. That is exact while every queued
//! deadline lies within 32,767 ticks of `now`. The protocol keeps it within
//! a few ticks: a character is pushed at most `SPEED1_DWELL + 1` ticks
//! ahead and leaves within [`DwellQueue::HARD_CAP`] ticks of its deadline.

use crate::chars::SnakeKind;
use std::marker::PhantomData;

/// Ticks a speed-1 construct dwells between reception and re-emission.
pub const SPEED1_DWELL: u64 = 2;

/// Ticks a speed-3 construct dwells between reception and re-emission.
pub const SPEED3_DWELL: u64 = 0;

const CAP: usize = 16;

/// Items a lane holds without its slab.
const INLINE: usize = 4;

/// Lanes per processor: one per snake kind.
const LANES: usize = SnakeKind::ALL.len();

/// A value a dwell lane can hold: one with an exact 16-bit form.
pub trait DwellItem: Copy {
    /// The 16-bit form.
    fn pack(self) -> u16;
    /// The value [`DwellItem::pack`] made `w` from.
    fn unpack(w: u16) -> Self;
}

impl DwellItem for u16 {
    #[inline]
    fn pack(self) -> u16 {
        self
    }

    #[inline]
    fn unpack(w: u16) -> Self {
        w
    }
}

/// The tick nearest `now` whose low 16 bits are `stamp`.
#[inline]
fn tick_of(stamp: u16, now: u64) -> u64 {
    now.wrapping_add_signed(i64::from(stamp.wrapping_sub(now as u16) as i16))
}

/// One spilled lane: a bounded ring of `CAP` slots.
#[derive(Clone, Debug)]
struct Slab {
    /// Scheduled emissions refused at [`DwellQueue::HARD_CAP`] (see
    /// [`DwellQueue::push_bounded`]); never reset.
    dropped: u64,
    head: u8,
    stamps: [u16; CAP],
    items: [u16; CAP],
}

impl Slab {
    const EMPTY: Slab = Slab {
        dropped: 0,
        head: 0,
        stamps: [0; CAP],
        items: [0; CAP],
    };

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head as usize + i) % CAP
    }
}

#[derive(Clone, Debug, Default)]
struct Spilled {
    /// Indexed by the lane's [`SnakeKind::idx`].
    slabs: [Option<Slab>; LANES],
    /// Drops counted outside the live lanes: those of retired lanes and
    /// characters lost before reaching any lane.
    lost: u64,
}

impl Spilled {
    fn lane_drops(&self) -> u64 {
        self.slabs.iter().flatten().map(|slab| slab.dropped).sum()
    }
}

/// A processor's cold dwell storage: the slabs of the lanes that outgrew
/// their inline slots, and the drop count of lanes that no longer exist.
///
/// One pointer per processor; it stays null on clean runs.
#[derive(Clone, Debug, Default)]
pub struct DwellSpill(Option<Box<Spilled>>);

impl DwellSpill {
    /// Number of lanes that have claimed a slab (by spilling past four
    /// items, or by recording a drop). 0 on clean runs.
    pub fn spilled_lanes(&self) -> usize {
        self.0
            .as_deref()
            .map_or(0, |s| s.slabs.iter().flatten().count())
    }

    /// Every drop counted here: the lifetime drop counters of the live
    /// lanes, of retired lanes, and [`DwellSpill::record_lost`] counts.
    pub fn dropped(&self) -> u64 {
        self.0.as_deref().map_or(0, |s| s.lost + s.lane_drops())
    }

    /// Count `k` characters lost before they reached any lane.
    pub fn record_lost(&mut self, k: u64) {
        if k > 0 {
            self.0.get_or_insert_default().lost += k;
        }
    }

    /// Free every lane's slab, keeping its drops in [`DwellSpill::dropped`]:
    /// the processor's lanes are being replaced by fresh ones.
    pub fn retire_lanes(&mut self) {
        if let Some(s) = self.0.as_deref_mut() {
            s.lost += s.lane_drops();
            s.slabs = Default::default();
        }
    }

    fn slab(&self, lane: SnakeKind) -> Option<&Slab> {
        self.0.as_deref()?.slabs[lane.idx()].as_ref()
    }

    /// The lane's slab, claimed (and the block allocated) on first use.
    fn slab_mut(&mut self, lane: SnakeKind) -> &mut Slab {
        self.0.get_or_insert_default().slabs[lane.idx()].get_or_insert(Slab::EMPTY)
    }
}

/// A FIFO of items with emission deadlines, preserving arrival order.
///
/// Deadlines must be pushed in non-decreasing order (streams cannot
/// overtake themselves); this is asserted.
///
/// The queue is one lane of a processor: it holds four items itself and
/// keeps any more in its slab of the processor's [`DwellSpill`], so every
/// call that may reach past four items takes that spill. The length lives
/// inline, so the per-tick questions an idle lane is asked (`len`,
/// `next_deadline`, `pop_due`, `clear`) never leave the queue.
#[derive(Clone, Debug)]
pub struct DwellQueue<T> {
    /// Deadline stamps of the inline items, front first.
    stamps: [u16; INLINE],
    /// Packed inline items, front first.
    items: [u16; INLINE],
    /// Number of queued items. Above [`INLINE`], all of them live in the
    /// slab and the inline slots are dead.
    len: u8,
    lane: SnakeKind,
    _item: PhantomData<T>,
}

impl<T: DwellItem> DwellQueue<T> {
    /// Finite-state guard: a correct protocol never holds more than a
    /// handful of characters per construct per processor (three, on every
    /// clean run). Exceeding this means the automaton is no longer
    /// finite-state — fail loudly.
    pub const HARD_CAP: usize = CAP;

    /// New empty queue for `lane`: it spills into that lane's slab.
    pub fn new(lane: SnakeKind) -> Self {
        DwellQueue {
            stamps: [0; INLINE],
            items: [0; INLINE],
            len: 0,
            lane,
            _item: PhantomData,
        }
    }

    /// The lane this queue spills into.
    #[inline]
    pub fn lane(&self) -> SnakeKind {
        self.lane
    }

    #[inline]
    fn spilled(&self) -> bool {
        self.len as usize > INLINE
    }

    /// Stamp and packed item of the `i`-th queued entry.
    #[inline]
    fn entry(&self, spill: &DwellSpill, i: usize) -> (u16, u16) {
        if !self.spilled() {
            return (self.stamps[i], self.items[i]);
        }
        let slab = spill
            .slab(self.lane)
            .expect("a spilled lane has claimed its slab");
        let s = slab.slot(i);
        (slab.stamps[s], slab.items[s])
    }

    /// Schedule `item` for emission at `deadline`.
    pub fn push(&mut self, spill: &mut DwellSpill, deadline: u64, item: T) {
        let len = self.len as usize;
        let stamp = deadline as u16;
        if len > 0 {
            let step = stamp.wrapping_sub(self.entry(spill, len - 1).0) as i16;
            assert!(
                step >= 0,
                "DwellQueue deadlines must be non-decreasing ({deadline} < {})",
                deadline.wrapping_add_signed(-i64::from(step))
            );
            // Stamps are read within half their range of the tick.
            let span = stamp.wrapping_sub(self.entry(spill, 0).0);
            assert!(span <= i16::MAX as u16, "DwellQueue deadline span overflow");
        }
        assert!(
            len < CAP,
            "DwellQueue overflow: the automaton is no longer finite-state"
        );
        if len < INLINE {
            self.stamps[len] = stamp;
            self.items[len] = item.pack();
        } else {
            let slab = spill.slab_mut(self.lane);
            if len == INLINE {
                slab.head = 0;
                slab.stamps[..INLINE].copy_from_slice(&self.stamps);
                slab.items[..INLINE].copy_from_slice(&self.items);
            }
            let s = slab.slot(len);
            slab.stamps[s] = stamp;
            slab.items[s] = item.pack();
        }
        self.len += 1;
    }

    /// Capacity-bounded [`DwellQueue::push`]: when the buffer is full,
    /// drop `item`, count the drop, and return `false` instead of
    /// panicking.
    ///
    /// A clean protocol run never holds more than a handful of characters
    /// per construct (see [`DwellQueue::HARD_CAP`]), so in undisturbed
    /// executions this behaves exactly like `push`. After a live topology
    /// mutation, though, an orphaned *growing* snake can circulate a
    /// cycle forever — and growing snakes grow, one extension character
    /// per tail pass, so the circulating junk stream's occupancy rises
    /// without bound. A physical processor's buffer is finite; dropping
    /// characters from a stream that only exists because the network
    /// changed under it loses nothing (the session-level remap driver
    /// recovers the disturbed epoch), while keeping the automaton honest
    /// about its constant size. Every refusal increments
    /// [`DwellQueue::dropped`] so lossy-cap behavior is observable.
    pub fn push_bounded(&mut self, spill: &mut DwellSpill, deadline: u64, item: T) -> bool {
        if self.len() >= Self::HARD_CAP {
            self.record_drops(spill, 1);
            return false;
        }
        self.push(spill, deadline, item);
        true
    }

    /// Record `k` scheduled emissions refused without entering the queue
    /// (the all-or-nothing tail-extension rule drops pairs up front).
    ///
    /// Refusals happen only at a full ring, so the slab is already
    /// claimed; claiming it here merely keeps the call total.
    pub fn record_drops(&mut self, spill: &mut DwellSpill, k: u64) {
        spill.slab_mut(self.lane).dropped += k;
    }

    /// Total scheduled emissions refused at capacity over this queue's
    /// lifetime. 0 on clean (mutation-free) runs.
    #[inline]
    pub fn dropped(&self, spill: &DwellSpill) -> u64 {
        spill.slab(self.lane).map_or(0, |s| s.dropped)
    }

    /// Pop the next item whose deadline is ≤ `now`, if any.
    #[inline]
    pub fn pop_due(&mut self, spill: &mut DwellSpill, now: u64) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        if !self.spilled() {
            if tick_of(self.stamps[0], now) > now {
                return None;
            }
            let item = self.items[0];
            self.stamps.copy_within(1.., 0);
            self.items.copy_within(1.., 0);
            self.len -= 1;
            return Some(T::unpack(item));
        }
        let slab = spill.slab_mut(self.lane);
        let head = slab.head as usize;
        if tick_of(slab.stamps[head], now) > now {
            return None;
        }
        let item = slab.items[head];
        slab.head = ((head + 1) % CAP) as u8;
        self.len -= 1;
        if !self.spilled() {
            // Back to four: the lane lives inline again.
            for i in 0..INLINE {
                let s = slab.slot(i);
                self.stamps[i] = slab.stamps[s];
                self.items[i] = slab.items[s];
            }
        }
        Some(T::unpack(item))
    }

    /// Earliest pending deadline, read against `now`.
    #[inline]
    pub fn next_deadline(&self, spill: &DwellSpill, now: u64) -> Option<u64> {
        (self.len > 0).then(|| tick_of(self.entry(spill, 0).0, now))
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop everything (KILL-token erasure). A claimed slab stays claimed
    /// and its drop counter, a lifetime statistic, survives too.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterate over pending `(deadline, item)` pairs, deadlines read
    /// against `now` (diagnostics).
    pub fn iter<'a>(
        &'a self,
        spill: &'a DwellSpill,
        now: u64,
    ) -> impl Iterator<Item = (u64, T)> + 'a {
        (0..self.len()).map(move |i| {
            let (stamp, item) = self.entry(spill, i);
            (tick_of(stamp, now), T::unpack(item))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LANE: SnakeKind = SnakeKind::Ig;

    #[test]
    fn speed_ratio_is_three() {
        // hop latency = dwell + 1 wire tick
        assert_eq!((SPEED1_DWELL + 1) / (SPEED3_DWELL + 1), 3);
    }

    #[test]
    fn pop_respects_deadlines_and_order() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        q.push(&mut spill, 5, 10u16);
        q.push(&mut spill, 5, 11);
        q.push(&mut spill, 7, 12);
        assert_eq!(q.pop_due(&mut spill, 4), None);
        assert_eq!(q.pop_due(&mut spill, 5), Some(10));
        assert_eq!(q.pop_due(&mut spill, 5), Some(11));
        assert_eq!(q.pop_due(&mut spill, 5), None); // 12 not due yet
        assert_eq!(q.pop_due(&mut spill, 8), Some(12));
        assert!(q.is_empty());
    }

    #[test]
    fn late_pop_still_fifo() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        q.push(&mut spill, 1, 1u16);
        q.push(&mut spill, 2, 2);
        assert_eq!(q.pop_due(&mut spill, 10), Some(1));
        assert_eq!(q.pop_due(&mut spill, 10), Some(2));
    }

    #[test]
    fn next_deadline_and_len() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        assert_eq!(q.next_deadline(&spill, 0), None);
        q.push(&mut spill, 3, 0u16);
        q.push(&mut spill, 4, 0);
        assert_eq!(q.next_deadline(&spill, 0), Some(3));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_ring_wraps_and_rebases() {
        // Drive far more traffic than CAP through a spilled lane; the
        // ring must wrap and the stamps must read back exact deadlines
        // across gaps far wider than their 16 bits.
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u16;
        for round in 0..10u64 {
            let t = round * 1_000_000; // huge gaps stress the u16 stamps
            for k in 0..7 {
                q.push(&mut spill, t + k, next);
                expect.push_back((t + k, next));
                next += 1;
            }
            assert!(q.iter(&spill, t).eq(expect.iter().copied()));
            for _ in 0..7 {
                let want = expect.pop_front().map(|(_, x)| x);
                assert_eq!(q.pop_due(&mut spill, t + 10), want);
            }
            assert!(q.is_empty());
        }
        assert_eq!(spill.spilled_lanes(), 1);
    }

    #[test]
    fn push_bounded_counts_drops() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        for i in 0..DwellQueue::<u16>::HARD_CAP as u64 {
            assert!(q.push_bounded(&mut spill, i, 0u16));
        }
        assert_eq!(q.dropped(&spill), 0);
        assert!(!q.push_bounded(&mut spill, 99, 0u16));
        assert!(!q.push_bounded(&mut spill, 99, 0u16));
        assert_eq!(q.dropped(&spill), 2);
        // the counter survives erasure — it is a lifetime statistic
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.dropped(&spill), 2);
        q.record_drops(&mut spill, 3);
        assert_eq!(q.dropped(&spill), 5);
        // ... and the lane's retirement
        spill.retire_lanes();
        assert_eq!((q.dropped(&spill), spill.dropped()), (0, 5));
        assert_eq!(spill.spilled_lanes(), 0);
    }

    #[test]
    fn inline_length_agrees_with_a_reference_model() {
        // Differential test: two lanes sharing one spill, each checked
        // after every operation against a naive `VecDeque` reference with
        // the same 16-cap semantics. Fill and drain phases alternate so
        // the lanes cross the four-item inline boundary both ways, and
        // the clock starts just below 2^32 so stamps wrap mid-run and
        // the ticks end above `u32::MAX`; an empty lane sometimes idles
        // for far longer than a stamp's range.
        use gtd_netsim::rng::DetRng;
        use std::collections::VecDeque;

        struct Model {
            items: VecDeque<(u64, u16)>,
            last: u64,
            dropped: u64,
            claimed: bool,
        }

        let lanes = [SnakeKind::Og, SnakeKind::Bd];
        let (mut spills, mut unspills) = (0u32, 0u32);
        for seed in 0..8 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut spill = DwellSpill::default();
            let mut qs = lanes.map(DwellQueue::<u16>::new);
            let mut models = lanes.map(|_| Model {
                items: VecDeque::new(),
                last: 0,
                dropped: 0,
                claimed: false,
            });
            let mut now = (1u64 << 32) - 3_000 + seed * 7_919;
            for op in 0..6_000u32 {
                if models.iter().all(|m| m.items.is_empty()) && rng.random_range(0..16) == 0 {
                    now += u64::from(rng.random_range(0..200_000));
                } else {
                    now += u64::from(rng.random_range(0..2));
                }
                let k = rng.random_range(0..2) as usize;
                let (q, m) = (&mut qs[k], &mut models[k]);
                let before = m.items.len();
                let deadline = m.last.max(now + u64::from(rng.random_range(0..4)));
                // Fill phases mostly push, drain phases mostly pop.
                let filling = (op / 40) % 2 == 0;
                match (filling, rng.random_range(0..32)) {
                    (true, 0..=13) | (false, 0..=1) if m.items.len() < CAP => {
                        q.push(&mut spill, deadline, op as u16);
                        m.items.push_back((deadline, op as u16));
                        m.last = deadline;
                    }
                    (true, 0..=19) | (false, 0..=2) => {
                        let took = q.push_bounded(&mut spill, deadline, op as u16);
                        assert_eq!(took, m.items.len() < CAP);
                        if took {
                            m.items.push_back((deadline, op as u16));
                            m.last = deadline;
                        } else {
                            m.dropped += 1;
                        }
                    }
                    (_, 0..=28) => {
                        let due = m.items.front().is_some_and(|&(d, _)| d <= now);
                        let want = if due { m.items.pop_front() } else { None };
                        assert_eq!(q.pop_due(&mut spill, now), want.map(|(_, x)| x));
                    }
                    (_, 29) => {
                        q.clear();
                        m.items.clear();
                    }
                    _ => {
                        let d = u64::from(rng.random_range(1..3));
                        q.record_drops(&mut spill, d);
                        m.dropped += d;
                    }
                }
                let after = m.items.len();
                spills += u32::from(before <= INLINE && after > INLINE);
                unspills += u32::from(before > INLINE && after <= INLINE);
                m.claimed |= after > INLINE || m.dropped > 0;
                for (q, m) in qs.iter().zip(&models) {
                    let at = format!("seed {seed} op {op} lane {:?}", q.lane());
                    assert_eq!(q.len(), m.items.len(), "{at}");
                    assert_eq!(q.is_empty(), m.items.is_empty(), "{at}");
                    assert!(q.iter(&spill, now).eq(m.items.iter().copied()), "{at}");
                    let front = m.items.front().map(|&(d, _)| d);
                    assert_eq!(q.next_deadline(&spill, now), front, "{at}");
                    assert_eq!(q.dropped(&spill), m.dropped, "{at}");
                }
                let claimed = models.iter().filter(|m| m.claimed).count();
                assert_eq!(spill.spilled_lanes(), claimed, "seed {seed} op {op}");
                assert_eq!(spill.dropped(), models.iter().map(|m| m.dropped).sum());
            }
            assert!(now > u64::from(u32::MAX), "the clock must pass 2^32");
        }
        assert!(spills >= 100 && unspills >= 100, "{spills} / {unspills}");
    }

    #[test]
    fn a_lane_of_four_never_spills() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        for round in 0..100u64 {
            for k in 0..INLINE as u64 {
                q.push(&mut spill, round * 10 + k, k as u16);
            }
            while q.pop_due(&mut spill, round * 10 + 9).is_some() {}
        }
        spill.record_lost(0);
        assert!(spill.0.is_none(), "no block behind a clean processor");
    }

    #[test]
    fn lanes_stay_compact() {
        // Six lanes sit in every processor, and a saturated tick streams
        // every processor's state once: at n = 1M a byte here is a
        // megabyte per tick. Four inline slots of 2 + 2 bytes, the length
        // and the lane fill the queue exactly; the relay and the passage
        // keep their lane bookkeeping beside it.
        use std::mem::size_of;
        assert_eq!(size_of::<DwellQueue<crate::GrowEmit>>(), 18);
        assert_eq!(size_of::<crate::GrowRelay>(), 22);
        assert_eq!(size_of::<crate::DyingPassage>(), 24);
        assert_eq!(size_of::<DwellSpill>(), 8);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_deadline_panics() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        q.push(&mut spill, 5, 0u16);
        q.push(&mut spill, 4, 0);
    }

    #[test]
    #[should_panic(expected = "finite-state")]
    fn overflow_panics() {
        let mut spill = DwellSpill::default();
        let mut q = DwellQueue::new(LANE);
        for i in 0..=DwellQueue::<u16>::HARD_CAP as u64 {
            q.push(&mut spill, i, 0u16);
        }
    }
}
