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
//! The queue is backed by a lazily-allocated **fixed-capacity slab**: one
//! heap block of exactly [`DwellQueue::HARD_CAP`] slots, allocated on the
//! first push, retained across [`DwellQueue::clear`], and never resized. An
//! idle lane costs one pointer and an inline length (16 bytes); an active
//! lane costs one allocation for the lifetime of the processor — there is
//! no growable `VecDeque` to reallocate mid-protocol, which is what keeps
//! the steady-state tick loop allocation-free at million-node scale.
//! Deadlines are stored as `u16` offsets from a slab-local base tick
//! (rebased on every pop, so the live span stays within a few dwell
//! windows) — 4 bytes per slot of bookkeeping instead of a 16-byte
//! `(u64, T)` tuple.

/// Ticks a speed-1 construct dwells between reception and re-emission.
pub const SPEED1_DWELL: u64 = 2;

/// Ticks a speed-3 construct dwells between reception and re-emission.
pub const SPEED3_DWELL: u64 = 0;

const CAP: usize = 16;

/// The lazily-allocated backing store: a bounded ring of `CAP` slots.
#[derive(Clone, Debug)]
struct Slab<T> {
    /// Absolute tick that offset 0 encodes; rebased so the front entry's
    /// offset is always 0 after a pop.
    base: u64,
    /// Scheduled emissions refused at [`DwellQueue::HARD_CAP`] (see
    /// [`DwellQueue::push_bounded`]); never reset, surfaced per-run as the
    /// `dropped` statistic. Lives here, not in the queue, because a drop
    /// needs a full ring — which needs the slab.
    dropped: u64,
    head: u8,
    /// Per-slot deadline as `base + offs[slot]`.
    offs: [u16; CAP],
    items: [T; CAP],
}

impl<T: Copy + Default> Slab<T> {
    fn new() -> Self {
        Slab {
            base: 0,
            dropped: 0,
            head: 0,
            offs: [0; CAP],
            items: [T::default(); CAP],
        }
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head as usize + i) % CAP
    }

    #[inline]
    fn deadline_at(&self, i: usize) -> u64 {
        self.base + self.offs[self.slot(i)] as u64
    }
}

/// A FIFO of items with emission deadlines, preserving arrival order.
///
/// Deadlines must be pushed in non-decreasing order (streams cannot
/// overtake themselves); this is asserted.
///
/// Equality compares the live `(deadline, item)` sequence plus the drop
/// counter; slab identity and dead slots are ignored.
///
/// The length lives inline so the per-tick questions an idle lane is
/// asked (`len`, `next_deadline`, `pop_due`, `clear`) never touch the
/// slab: a saturated tick asks them of every lane of every processor,
/// and a slab once allocated stays behind a pointer for the processor's
/// lifetime.
#[derive(Clone, Debug)]
pub struct DwellQueue<T> {
    slab: Option<Box<Slab<T>>>,
    /// Number of queued items (0 whenever `slab` is `None`).
    len: u8,
}

impl<T> Default for DwellQueue<T> {
    fn default() -> Self {
        DwellQueue { slab: None, len: 0 }
    }
}

impl<T: Copy + Default> DwellQueue<T> {
    /// Finite-state guard: a correct protocol never holds more than a
    /// handful of characters per construct per processor (analysis in the
    /// module docs says ≲ 4). Exceeding this means the automaton is no
    /// longer finite-state — fail loudly.
    pub const HARD_CAP: usize = CAP;

    /// New empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `item` for emission at `deadline`.
    pub fn push(&mut self, deadline: u64, item: T) {
        let len = self.len as usize;
        let slab = self.slab.get_or_insert_with(|| Box::new(Slab::new()));
        if len == 0 {
            slab.base = deadline;
            slab.head = 0;
        } else {
            let last = slab.deadline_at(len - 1);
            assert!(
                deadline >= last,
                "DwellQueue deadlines must be non-decreasing ({deadline} < {last})"
            );
        }
        assert!(
            len < CAP,
            "DwellQueue overflow: the automaton is no longer finite-state"
        );
        // The front offset is rebased to 0 on every pop, so the live span
        // is a few dwell windows at most — u16 is generous.
        let off = deadline - slab.base;
        assert!(off <= u16::MAX as u64, "DwellQueue deadline span overflow");
        let slot = slab.slot(len);
        slab.offs[slot] = off as u16;
        slab.items[slot] = item;
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
    pub fn push_bounded(&mut self, deadline: u64, item: T) -> bool {
        if self.len() >= Self::HARD_CAP {
            self.record_drops(1);
            return false;
        }
        self.push(deadline, item);
        true
    }

    /// Record `k` scheduled emissions refused without entering the queue
    /// (the all-or-nothing tail-extension rule drops pairs up front).
    ///
    /// Refusals happen only at a full ring, so the slab already exists;
    /// allocating one here merely keeps the call total.
    pub fn record_drops(&mut self, k: u64) {
        self.slab
            .get_or_insert_with(|| Box::new(Slab::new()))
            .dropped += k;
    }

    /// Total scheduled emissions refused at capacity over this queue's
    /// lifetime. 0 on clean (mutation-free) runs.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.slab.as_deref().map_or(0, |s| s.dropped)
    }

    /// Pop the next item whose deadline is ≤ `now`, if any.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let slab = self.slab.as_deref_mut()?;
        if slab.base + slab.offs[slab.head as usize] as u64 > now {
            return None;
        }
        let item = slab.items[slab.head as usize];
        slab.head = ((slab.head as usize + 1) % CAP) as u8;
        self.len -= 1;
        // Rebase so the new front sits at offset 0; keeps every live
        // offset within a dwell-window span of the base however long the
        // queue stays continuously occupied.
        if self.len > 0 {
            let d = slab.offs[slab.head as usize];
            if d > 0 {
                slab.base += d as u64;
                for i in 0..self.len as usize {
                    let s = (slab.head as usize + i) % CAP;
                    slab.offs[s] -= d;
                }
            }
        }
        Some(item)
    }

    /// Earliest pending deadline.
    #[inline]
    pub fn next_deadline(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.slab.as_deref().map(|s| s.deadline_at(0))
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

    /// Drop everything (KILL-token erasure). The slab is retained for
    /// reuse; the drop counter is a lifetime statistic and survives too.
    /// The next push onto the empty ring rewinds its head.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterate over pending `(deadline, item)` pairs (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.slab.as_deref().into_iter().flat_map(move |s| {
            (0..self.len as usize).map(move |i| (s.deadline_at(i), s.items[s.slot(i)]))
        })
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for DwellQueue<T> {
    fn eq(&self, other: &Self) -> bool {
        self.dropped() == other.dropped() && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Default + Eq> Eq for DwellQueue<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_ratio_is_three() {
        // hop latency = dwell + 1 wire tick
        assert_eq!((SPEED1_DWELL + 1) / (SPEED3_DWELL + 1), 3);
    }

    #[test]
    fn pop_respects_deadlines_and_order() {
        let mut q = DwellQueue::new();
        q.push(5, b'a');
        q.push(5, b'b');
        q.push(7, b'c');
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some(b'a'));
        assert_eq!(q.pop_due(5), Some(b'b'));
        assert_eq!(q.pop_due(5), None); // 'c' not due yet
        assert_eq!(q.pop_due(8), Some(b'c'));
        assert!(q.is_empty());
    }

    #[test]
    fn late_pop_still_fifo() {
        let mut q = DwellQueue::new();
        q.push(1, 1);
        q.push(2, 2);
        assert_eq!(q.pop_due(10), Some(1));
        assert_eq!(q.pop_due(10), Some(2));
    }

    #[test]
    fn next_deadline_and_len() {
        let mut q = DwellQueue::new();
        assert_eq!(q.next_deadline(), None);
        q.push(3, ());
        q.push(4, ());
        assert_eq!(q.next_deadline(), Some(3));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_ring_wraps_and_rebases() {
        // Drive far more traffic than CAP through the queue; the ring
        // must wrap and the offset rebasing must keep deadlines exact.
        let mut q = DwellQueue::new();
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u64;
        for round in 0..10u64 {
            let t = round * 1_000_000; // huge gaps stress the u16 offsets
            for k in 0..7 {
                q.push(t + k, next);
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..7 {
                assert_eq!(q.pop_due(t + 10), expect.pop_front());
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn push_bounded_counts_drops() {
        let mut q = DwellQueue::new();
        for i in 0..DwellQueue::<u32>::HARD_CAP as u64 {
            assert!(q.push_bounded(i, 0u32));
        }
        assert_eq!(q.dropped(), 0);
        assert!(!q.push_bounded(99, 0u32));
        assert!(!q.push_bounded(99, 0u32));
        assert_eq!(q.dropped(), 2);
        // the counter survives erasure — it is a lifetime statistic
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 2);
        q.record_drops(3);
        assert_eq!(q.dropped(), 5);
    }

    #[test]
    fn inline_length_agrees_with_a_reference_model() {
        use gtd_netsim::rng::DetRng;
        use std::collections::VecDeque;
        for seed in 0..8 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut q: DwellQueue<u32> = DwellQueue::new();
            let mut model: VecDeque<(u64, u32)> = VecDeque::new();
            let mut dropped = 0u64;
            let mut now = 0u64;
            let mut last = 0u64;
            for op in 0..4_000u32 {
                now += u64::from(rng.random_range(0..2));
                let deadline = last.max(now + u64::from(rng.random_range(0..4)));
                match rng.random_range(0..16) {
                    0..=4 if model.len() < CAP => {
                        q.push(deadline, op);
                        model.push_back((deadline, op));
                        last = deadline;
                    }
                    0..=7 => {
                        let took = q.push_bounded(deadline, op);
                        assert_eq!(took, model.len() < CAP);
                        if took {
                            model.push_back((deadline, op));
                            last = deadline;
                        } else {
                            dropped += 1;
                        }
                    }
                    8..=12 => {
                        let due = model.front().is_some_and(|&(d, _)| d <= now);
                        let want = if due { model.pop_front() } else { None };
                        assert_eq!(q.pop_due(now), want.map(|(_, x)| x));
                    }
                    13 => {
                        q.clear();
                        model.clear();
                    }
                    _ => {
                        let k = u64::from(rng.random_range(1..3));
                        q.record_drops(k);
                        dropped += k;
                    }
                }
                // Walk the slab itself under the inline length.
                assert_eq!(q.len(), model.len(), "seed {seed} op {op}");
                let walked: Vec<(u64, u32)> = match q.slab.as_deref() {
                    Some(s) => (0..q.len())
                        .map(|i| (s.deadline_at(i), s.items[s.slot(i)]))
                        .collect(),
                    None => Vec::new(),
                };
                assert!(walked.iter().eq(model.iter()), "seed {seed} op {op}");
                assert_eq!(q.next_deadline(), model.front().map(|&(d, _)| d));
                assert_eq!(q.is_empty(), model.is_empty());
                assert_eq!(q.dropped(), dropped);
            }
        }
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a = DwellQueue::new();
        let mut b = DwellQueue::new();
        // Different slab histories, same live contents.
        a.push(1, 7u32);
        a.pop_due(1);
        a.push(5, 9);
        b.push(5, 9);
        assert_eq!(a, b);
        b.pop_due(5);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_deadline_panics() {
        let mut q = DwellQueue::new();
        q.push(5, ());
        q.push(4, ());
    }

    #[test]
    #[should_panic(expected = "finite-state")]
    fn overflow_panics() {
        let mut q = DwellQueue::new();
        for i in 0..=DwellQueue::<u32>::HARD_CAP as u64 {
            q.push(i, 0u32);
        }
    }
}
