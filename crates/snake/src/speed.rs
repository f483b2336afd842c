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
//! A processor's [`DwellPool`] holds them, one FIFO *lane* per snake kind,
//! with per-item deadlines. A lane's occupancy is bounded by a small
//! constant (the emission rate equals the arrival rate, at most one per
//! tick), so the processor stays finite-state; [`DwellPool::HARD_CAP`]
//! turns any violation of that reasoning into a loud failure instead of
//! silent unbounded memory.
//!
//! ## Storage
//!
//! The pool keeps eight entries inline, with no heap behind them, shared
//! by the processor's six lanes. Each entry is an item in its 16-bit wire
//! form ([`DwellItem`]), its deadline as a *stamp* (the low 16 bits of its
//! tick) and its lane. Entries sit in push order, so a lane's entries, read
//! in pool order, are its FIFO. Clean runs never hold more than eight
//! characters at once, so they never allocate.
//!
//! A push that finds all eight entries taken *spills* its lane: the lane's
//! items move, with the new one, into a 16-slot ring (a *slab*) in the
//! processor's [`DwellSpill`]. That one cold block holds a slab for each of
//! the six lanes. It is allocated the first time any of them spills, and a
//! slab once claimed stays claimed. A pop that leaves a spilled lane short
//! enough for the pool's free entries moves it back. The slab also keeps
//! the lane's lifetime drop counter, because a drop needs a full ring.
//!
//! The same block is the processor's one cold pointer, so it also keeps
//! the end of a power-cycle downtime: a full tick, set only by a restart.
//! A deadline that a processor keeps outside its lanes, such as a
//! dwelling loop token's, is a [`TickStamp`]: the same 16 bits, read the
//! same way.
//!
//! Stamps are read against the current tick: a stamp stands for the tick
//! nearest `now` with those low 16 bits. That is exact while every queued
//! deadline lies within 32,767 ticks of `now`. The protocol keeps it within
//! a few ticks: a character is pushed at most `SPEED1_DWELL + 1` ticks
//! ahead and leaves within [`DwellPool::HARD_CAP`] ticks of its deadline.

use crate::chars::SnakeKind;

/// Ticks a speed-1 construct dwells between reception and re-emission.
pub const SPEED1_DWELL: u64 = 2;

/// Ticks a speed-3 construct dwells between reception and re-emission.
pub const SPEED3_DWELL: u64 = 0;

const CAP: usize = 16;

/// Entries a pool holds without a slab.
const POOL: usize = 8;

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

/// A tick kept in 16 bits, the way a lane keeps its deadlines: its low
/// half, read back as the tick nearest `now` with those bits. Exact while
/// the tick lies within 32,767 ticks of `now`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TickStamp(u16);

impl TickStamp {
    /// The stamp of `tick`.
    #[inline]
    pub fn new(tick: u64) -> Self {
        TickStamp(tick as u16)
    }

    /// The stamped tick, read against `now`.
    #[inline]
    pub fn tick(self, now: u64) -> u64 {
        tick_of(self.0, now)
    }
}

/// One spilled lane: a bounded ring of `CAP` slots.
#[derive(Clone, Debug)]
struct Slab {
    /// Scheduled emissions refused at [`DwellPool::HARD_CAP`] (see
    /// [`DwellPool::push_bounded`]); never reset.
    dropped: u64,
    head: u8,
    /// Items queued; meaningful only while the lane is spilled.
    len: u8,
    stamps: [u16; CAP],
    items: [u16; CAP],
}

impl Slab {
    const EMPTY: Slab = Slab {
        dropped: 0,
        head: 0,
        len: 0,
        stamps: [0; CAP],
        items: [0; CAP],
    };

    /// Stamp and item of the `i`-th queued entry.
    #[inline]
    fn entry(&self, i: usize) -> (u16, u16) {
        let s = (self.head as usize + i) % CAP;
        (self.stamps[s], self.items[s])
    }

    fn push_back(&mut self, stamp: u16, item: u16) {
        let s = (self.head as usize + self.len as usize) % CAP;
        self.stamps[s] = stamp;
        self.items[s] = item;
        self.len += 1;
    }

    fn pop_front(&mut self) {
        self.head = ((self.head as usize + 1) % CAP) as u8;
        self.len -= 1;
    }
}

#[derive(Clone, Debug, Default)]
struct Spilled {
    /// Indexed by the lane's [`SnakeKind::idx`].
    slabs: [Option<Slab>; LANES],
    /// Drops counted outside the live lanes: those of retired lanes and
    /// characters lost before reaching any lane.
    lost: u64,
    /// The tick the processor's power-cycle downtime ends; 0 if it never
    /// restarted.
    dark_until: u64,
}

impl Spilled {
    fn lane_drops(&self) -> u64 {
        self.slabs.iter().flatten().map(|slab| slab.dropped).sum()
    }
}

/// A processor's cold storage: the slabs of the lanes that outgrew its
/// [`DwellPool`], the drop count of lanes that no longer exist, and the
/// end of the processor's power-cycle downtime.
///
/// One pointer per processor. It stays null until a lane spills or
/// counts a drop, or the processor restarts, so on clean runs it stays
/// null.
#[derive(Clone, Debug, Default)]
pub struct DwellSpill(Option<Box<Spilled>>);

impl DwellSpill {
    /// Number of lanes that have claimed a slab (by spilling out of the
    /// pool, or by recording a drop). 0 on clean runs.
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
    fn retire_lanes(&mut self) {
        if let Some(s) = self.0.as_deref_mut() {
            s.lost += s.lane_drops();
            s.slabs = Default::default();
        }
    }

    /// The tick a power cycle's downtime ends: the processor is dark
    /// while `now` is below it. 0 if it never restarted.
    #[inline]
    pub fn dark_until(&self) -> u64 {
        self.0.as_deref().map_or(0, |s| s.dark_until)
    }

    /// Keep the processor dark until `tick`.
    pub fn go_dark(&mut self, tick: u64) {
        self.0.get_or_insert_default().dark_until = tick;
    }

    fn slab(&self, lane: SnakeKind) -> Option<&Slab> {
        self.0.as_deref()?.slabs[lane.idx()].as_ref()
    }

    /// The lane's slab, claimed (and the block allocated) on first use.
    fn slab_mut(&mut self, lane: SnakeKind) -> &mut Slab {
        self.0.get_or_insert_default().slabs[lane.idx()].get_or_insert(Slab::EMPTY)
    }
}

/// The lane of pool entry `i`, from [`DwellPool::lanes`].
#[inline]
fn lane_of(lanes: u32, i: usize) -> usize {
    (lanes >> (4 * i) & 0xF) as usize
}

/// A processor's dwelling characters: one FIFO lane per [`SnakeKind`],
/// each item with an emission deadline, all in one block of eight entries.
///
/// Within a lane, items leave in arrival order and deadlines must be
/// pushed in non-decreasing order (streams cannot overtake themselves;
/// this is asserted). A lane that does not fit in the pool lives in its
/// slab of the pool's [`DwellSpill`] until it fits again. Lanes are
/// independent: the order of entries of different lanes means nothing.
///
/// Of the questions a processor asks every step, "is anything dwelling"
/// and "how many" read two bytes, and "what is due" and "when is the next
/// deadline" are answered together in one pass over the entries. Only
/// spilled lanes take them out of the pool.
#[derive(Clone, Debug, Default)]
pub struct DwellPool {
    /// Deadline stamps of the pooled entries, in push order.
    stamps: [u16; POOL],
    /// Packed items of the pooled entries.
    items: [u16; POOL],
    /// The lane ([`SnakeKind::idx`]) of entry `i` in bits `4i..4i + 4`;
    /// the bits past the last entry are zero.
    lanes: u32,
    /// Pooled entries.
    len: u8,
    /// Bit `k` set: every item of lane `k` lives in its slab, and there
    /// is at least one.
    spilled: u8,
    spill: DwellSpill,
}

impl DwellPool {
    /// Finite-state guard, per lane: a correct protocol never holds more
    /// than a handful of characters per construct per processor (three,
    /// on every clean run). Exceeding this means the automaton is no
    /// longer finite-state — fail loudly.
    pub const HARD_CAP: usize = CAP;

    /// Characters the pool holds before a push spills a lane.
    pub const INLINE: usize = POOL;

    #[inline]
    fn is_spilled(&self, lane: SnakeKind) -> bool {
        self.spilled >> lane.idx() & 1 != 0
    }

    /// The spilled lanes.
    fn cold_lanes(&self) -> impl Iterator<Item = SnakeKind> + '_ {
        SnakeKind::ALL
            .into_iter()
            .filter(|&lane| self.is_spilled(lane))
    }

    /// Stamps and packed items of `lane`, front first.
    fn entries(&self, lane: SnakeKind) -> impl Iterator<Item = (u16, u16)> + '_ {
        let k = lane.idx();
        let pooled = (0..self.len as usize)
            .filter(move |&i| lane_of(self.lanes, i) == k)
            .map(move |i| (self.stamps[i], self.items[i]));
        let slab = self.is_spilled(lane).then(|| self.spill.slab(lane));
        let spilled = slab
            .flatten()
            .into_iter()
            .flat_map(|s| (0..s.len as usize).map(move |i| s.entry(i)));
        pooled.chain(spilled)
    }

    /// `lane`'s length, with its first and last stamps (0 if empty).
    #[inline]
    fn span(&self, lane: SnakeKind) -> (usize, u16, u16) {
        if self.is_spilled(lane) {
            return self.spill.slab(lane).map_or((0, 0, 0), |slab| {
                let n = slab.len as usize;
                (n, slab.entry(0).0, slab.entry(n - 1).0)
            });
        }
        let entries = self.pooled(lane.idx());
        if entries == 0 {
            return (0, 0, 0);
        }
        let first = entries.trailing_zeros() as usize / 4;
        let last = (31 - entries.leading_zeros()) as usize / 4;
        let len = entries.count_ones() as usize;
        (len, self.stamps[first], self.stamps[last])
    }

    /// The pooled entries of lane `k`: bit `4i` set for each entry `i`.
    #[inline]
    fn pooled(&self, k: usize) -> u32 {
        // Nibbles equal to `k` XOR to zero, and the complement of a zero
        // nibble has all four of its bits set.
        let x = !(self.lanes ^ (k as u32 * 0x1111_1111));
        let live = ((1u64 << (4 * self.len)) - 1) as u32;
        x & x >> 1 & x >> 2 & x >> 3 & 0x1111_1111 & live
    }

    /// Remove the pooled entries whose bits `gone` sets (bit `4i` for
    /// entry `i`), keeping the order of the rest.
    #[inline]
    fn remove(&mut self, gone: u32) {
        let (mut kept, mut lanes) = (0, 0u32);
        for i in 0..self.len as usize {
            if gone >> (4 * i) & 1 == 0 {
                self.stamps[kept] = self.stamps[i];
                self.items[kept] = self.items[i];
                lanes |= (lane_of(self.lanes, i) as u32) << (4 * kept);
                kept += 1;
            }
        }
        self.len = kept as u8;
        self.lanes = lanes;
    }

    /// Schedule `item` on `lane` for emission at `deadline`.
    pub fn push<T: DwellItem>(&mut self, lane: SnakeKind, deadline: u64, item: T) {
        self.push_spanned(lane, self.span(lane), deadline, item.pack());
    }

    /// [`DwellPool::push`] of a packed item, given the lane's span.
    #[inline]
    fn push_spanned(
        &mut self,
        lane: SnakeKind,
        (len, first, last): (usize, u16, u16),
        deadline: u64,
        item: u16,
    ) {
        let stamp = deadline as u16;
        if len > 0 {
            let step = stamp.wrapping_sub(last) as i16;
            assert!(
                step >= 0,
                "dwell deadlines must be non-decreasing ({deadline} < {})",
                deadline.wrapping_add_signed(-i64::from(step))
            );
            // Stamps are read within half their range of the tick.
            let span = stamp.wrapping_sub(first);
            assert!(span <= i16::MAX as u16, "dwell deadline span overflow");
        }
        assert!(
            len < CAP,
            "dwell lane overflow: the automaton is no longer finite-state"
        );
        let k = lane.idx();
        if !self.is_spilled(lane) {
            let n = self.len as usize;
            if n < POOL {
                self.stamps[n] = stamp;
                self.items[n] = item;
                self.lanes |= (k as u32) << (4 * n);
                self.len += 1;
                return;
            }
            // The pool is full: the lane moves wholly into its slab.
            let gone = self.pooled(k);
            let slab = self.spill.slab_mut(lane);
            (slab.head, slab.len) = (0, 0);
            for i in (0..n).filter(|&i| gone >> (4 * i) & 1 != 0) {
                slab.push_back(self.stamps[i], self.items[i]);
            }
            self.remove(gone);
            self.spilled |= 1 << k;
        }
        self.spill.slab_mut(lane).push_back(stamp, item);
    }

    /// Capacity-bounded [`DwellPool::push`]: when the lane is full, drop
    /// `item`, count the drop, and return `false` instead of panicking.
    ///
    /// A clean protocol run never holds more than a handful of characters
    /// per construct (see [`DwellPool::HARD_CAP`]), so in undisturbed
    /// executions this behaves exactly like `push`. After a live topology
    /// mutation, though, an orphaned *growing* snake can circulate a
    /// cycle forever — and growing snakes grow, one extension character
    /// per tail pass, so the circulating junk stream's occupancy rises
    /// without bound. A physical processor's buffer is finite; dropping
    /// characters from a stream that only exists because the network
    /// changed under it loses nothing (the session-level remap driver
    /// recovers the disturbed epoch), while keeping the automaton honest
    /// about its constant size. Every refusal increments
    /// [`DwellPool::dropped`] so lossy-cap behavior is observable.
    pub fn push_bounded<T: DwellItem>(&mut self, lane: SnakeKind, deadline: u64, item: T) -> bool {
        let span = self.span(lane);
        if span.0 >= Self::HARD_CAP {
            self.record_drops(lane, 1);
            return false;
        }
        self.push_spanned(lane, span, deadline, item.pack());
        true
    }

    /// Record `k` scheduled emissions refused on `lane` without entering
    /// it (the all-or-nothing tail-extension rule drops pairs up front).
    ///
    /// Refusals happen only at a full lane, which is spilled, so its slab
    /// is already claimed; claiming it here merely keeps the call total.
    pub fn record_drops(&mut self, lane: SnakeKind, k: u64) {
        self.spill.slab_mut(lane).dropped += k;
    }

    /// Total scheduled emissions `lane` refused at capacity over its
    /// lifetime. 0 on clean (mutation-free) runs.
    #[inline]
    pub fn dropped(&self, lane: SnakeKind) -> u64 {
        self.spill.slab(lane).map_or(0, |s| s.dropped)
    }

    /// Pop `lane`'s next item if its deadline is ≤ `now`.
    #[inline]
    pub fn pop_due<T: DwellItem>(&mut self, lane: SnakeKind, now: u64) -> Option<T> {
        let mut due = None;
        self.pop_fronts(1 << lane.idx(), now, |_, item| due = Some(item));
        due.map(T::unpack)
    }

    /// Pop the next item of every lane whose deadline is ≤ `now`: at most
    /// one per lane, in one pass, each handed to `emit` with its lane in
    /// its 16-bit form ([`DwellItem::unpack`] reads it back). Returns the
    /// earliest deadline left over all lanes, read against `now`.
    #[inline]
    pub fn pop_due_each(&mut self, now: u64, emit: impl FnMut(SnakeKind, u16)) -> Option<u64> {
        self.pop_fronts(u8::MAX, now, emit)
    }

    /// [`DwellPool::pop_due_each`] over the lanes whose bits `mask` sets.
    #[inline]
    fn pop_fronts(
        &mut self,
        mask: u8,
        now: u64,
        mut emit: impl FnMut(SnakeKind, u16),
    ) -> Option<u64> {
        // Lanes not asked for, or whose front has been passed.
        let mut passed = !mask;
        // How far the earliest entry kept lies ahead of `now`.
        let mut ahead = None::<i16>;
        let (mut kept, mut lanes) = (0, 0u32);
        for i in 0..self.len as usize {
            let (lane, stamp) = (lane_of(self.lanes, i), self.stamps[i]);
            let d = stamp.wrapping_sub(now as u16) as i16;
            let front = passed >> lane & 1 == 0;
            passed |= 1 << lane;
            if front && d <= 0 {
                emit(SnakeKind::ALL[lane], self.items[i]);
                continue;
            }
            ahead = Some(ahead.map_or(d, |a| a.min(d)));
            self.stamps[kept] = stamp;
            self.items[kept] = self.items[i];
            lanes |= (lane as u32) << (4 * kept);
            kept += 1;
        }
        self.len = kept as u8;
        self.lanes = lanes;
        if self.spilled == 0 {
            return ahead.map(|d| now.wrapping_add_signed(i64::from(d)));
        }
        for lane in SnakeKind::ALL {
            if mask >> lane.idx() & 1 != 0 && self.is_spilled(lane) {
                if let Some(item) = self.pop_spilled(lane, now) {
                    emit(lane, item);
                }
            }
        }
        self.next_deadline(now)
    }

    /// Pop a spilled lane's front if it is due, and move the lane back
    /// into the pool if what is left fits.
    fn pop_spilled(&mut self, lane: SnakeKind, now: u64) -> Option<u16> {
        let slab = self.spill.slab_mut(lane);
        let (stamp, item) = slab.entry(0);
        if tick_of(stamp, now) > now {
            return None;
        }
        slab.pop_front();
        let n = self.len as usize;
        if slab.len as usize <= POOL - n {
            for i in 0..slab.len as usize {
                (self.stamps[n + i], self.items[n + i]) = slab.entry(i);
                self.lanes |= (lane.idx() as u32) << (4 * (n + i));
            }
            self.len += slab.len;
            slab.len = 0;
            self.spilled &= !(1 << lane.idx());
        }
        Some(item)
    }

    /// `lane`'s earliest pending deadline, read against `now`.
    fn lane_deadline(&self, lane: SnakeKind, now: u64) -> Option<u64> {
        self.entries(lane)
            .next()
            .map(|(stamp, _)| tick_of(stamp, now))
    }

    /// Number of items queued on `lane`.
    #[inline]
    pub fn lane_len(&self, lane: SnakeKind) -> usize {
        self.span(lane).0
    }

    /// Drop everything queued on `lane` (KILL-token erasure, UNMARK
    /// reset). A claimed slab stays claimed and its drop counter, a
    /// lifetime statistic, survives too.
    #[inline]
    pub fn clear(&mut self, lane: SnakeKind) {
        let k = lane.idx();
        if self.is_spilled(lane) {
            self.spill.slab_mut(lane).len = 0;
            self.spilled &= !(1 << k);
        } else {
            self.remove(self.pooled(k));
        }
    }

    /// Characters dwelling in all lanes.
    #[inline]
    pub fn len(&self) -> usize {
        if self.spilled == 0 {
            return self.len as usize;
        }
        let cold: usize = self.cold_lanes().map(|lane| self.lane_len(lane)).sum();
        self.len as usize + cold
    }

    /// Is nothing dwelling?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.spilled == 0
    }

    /// Earliest pending deadline over all lanes, read against `now`.
    fn next_deadline(&self, now: u64) -> Option<u64> {
        // The earliest stamp is the one least ahead of `now`.
        let ahead = self.stamps[..self.len as usize]
            .iter()
            .map(|&stamp| stamp.wrapping_sub(now as u16) as i16)
            .min();
        let pooled = ahead.map(|d| now.wrapping_add_signed(i64::from(d)));
        if self.spilled == 0 {
            return pooled;
        }
        let cold = self
            .cold_lanes()
            .filter_map(|lane| self.lane_deadline(lane, now));
        pooled.into_iter().chain(cold).min()
    }

    /// Empty every lane, keeping their drops in [`DwellSpill::dropped`]:
    /// the processor's lanes are being replaced by fresh ones.
    pub fn retire(&mut self) {
        let spill = std::mem::take(&mut self.spill);
        *self = DwellPool {
            spill,
            ..DwellPool::default()
        };
        self.spill.retire_lanes();
    }

    /// The processor's cold storage.
    #[inline]
    pub fn spill(&self) -> &DwellSpill {
        &self.spill
    }

    /// The processor's cold storage, for the parts that are not lanes.
    #[inline]
    pub fn spill_mut(&mut self) -> &mut DwellSpill {
        &mut self.spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const LANE: SnakeKind = SnakeKind::Ig;

    /// `lane`'s pending `(deadline, item)` pairs, deadlines read against
    /// `now`.
    fn queued(
        pool: &DwellPool,
        lane: SnakeKind,
        now: u64,
    ) -> impl Iterator<Item = (u64, u16)> + '_ {
        pool.entries(lane)
            .map(move |(stamp, item)| (tick_of(stamp, now), item))
    }

    /// Six independent reference lanes with the pool's contract: FIFO
    /// order, a 16-item cap, lifetime drop counts that survive erasure,
    /// and retirement. Each method applies one operation to the pool and
    /// to the reference and compares what they return.
    #[derive(Default)]
    struct Model {
        lanes: [VecDeque<(u64, u16)>; LANES],
        /// Each lane's latest deadline: pushes never go below it.
        last: [u64; LANES],
        dropped: [u64; LANES],
        /// Drops of retired lanes.
        retired: u64,
    }

    impl Model {
        /// A deadline `ahead` ticks past `now`, and no earlier than the
        /// lane's last.
        fn deadline(&self, lane: SnakeKind, now: u64, ahead: u64) -> u64 {
            (now + ahead).max(self.last[lane.idx()])
        }

        fn push(&mut self, pool: &mut DwellPool, lane: SnakeKind, deadline: u64, item: u16) {
            pool.push(lane, deadline, item);
            self.lanes[lane.idx()].push_back((deadline, item));
            self.last[lane.idx()] = deadline;
        }

        fn push_bounded(
            &mut self,
            pool: &mut DwellPool,
            lane: SnakeKind,
            deadline: u64,
            item: u16,
        ) {
            let k = lane.idx();
            let fits = self.lanes[k].len() < CAP;
            assert_eq!(pool.push_bounded(lane, deadline, item), fits);
            if fits {
                self.lanes[k].push_back((deadline, item));
                self.last[k] = deadline;
            } else {
                self.dropped[k] += 1;
            }
        }

        /// The reference lane's front, popped if due.
        fn front_due(&mut self, lane: SnakeKind, now: u64) -> Option<u16> {
            let q = &mut self.lanes[lane.idx()];
            let due = q.front().is_some_and(|&(d, _)| d <= now);
            due.then(|| q.pop_front()).flatten().map(|(_, x)| x)
        }

        fn pop_due(&mut self, pool: &mut DwellPool, lane: SnakeKind, now: u64) {
            assert_eq!(pool.pop_due::<u16>(lane, now), self.front_due(lane, now));
        }

        fn pop_due_each(&mut self, pool: &mut DwellPool, now: u64) {
            let want = SnakeKind::ALL.map(|lane| self.front_due(lane, now));
            let next = self
                .lanes
                .iter()
                .filter_map(|q| q.front())
                .map(|&(d, _)| d)
                .min();
            let mut got = [None; LANES];
            let left = pool.pop_due_each(now, |lane, item| {
                assert!(
                    got[lane.idx()].replace(item).is_none(),
                    "{lane} popped twice"
                );
            });
            assert_eq!((got, left), (want, next));
        }

        fn clear(&mut self, pool: &mut DwellPool, lane: SnakeKind) {
            pool.clear(lane);
            self.lanes[lane.idx()].clear();
        }

        fn record_drops(&mut self, pool: &mut DwellPool, lane: SnakeKind, k: u64) {
            pool.record_drops(lane, k);
            self.dropped[lane.idx()] += k;
        }

        fn retire(&mut self, pool: &mut DwellPool) {
            pool.retire();
            self.retired += self.dropped.iter().sum::<u64>();
            self.dropped = [0; LANES];
            self.lanes.iter_mut().for_each(VecDeque::clear);
        }

        /// Every lane's order, deadlines, length and drops, the totals,
        /// and the pool's storage invariants.
        fn check(&self, pool: &DwellPool, now: u64, at: &str) {
            for lane in SnakeKind::ALL {
                let want = &self.lanes[lane.idx()];
                assert_eq!(pool.lane_len(lane), want.len(), "{at} {lane}");
                assert!(
                    queued(pool, lane, now).eq(want.iter().copied()),
                    "{at} {lane}"
                );
                let front = want.front().map(|&(d, _)| d);
                assert_eq!(pool.lane_deadline(lane, now), front, "{at} {lane}");
                assert_eq!(pool.dropped(lane), self.dropped[lane.idx()], "{at} {lane}");
                if pool.is_spilled(lane) {
                    assert!(!want.is_empty(), "{at} {lane}: empty and spilled");
                    let pooled =
                        (0..pool.len as usize).any(|i| lane_of(pool.lanes, i) == lane.idx());
                    assert!(!pooled, "{at} {lane}: spilled and pooled");
                }
            }
            let total: usize = self.lanes.iter().map(VecDeque::len).sum();
            assert_eq!((pool.len(), pool.is_empty()), (total, total == 0), "{at}");
            let next = self
                .lanes
                .iter()
                .filter_map(|q| q.front())
                .map(|&(d, _)| d)
                .min();
            assert_eq!(pool.next_deadline(now), next, "{at}");
            let dropped = self.dropped.iter().sum::<u64>() + self.retired;
            assert_eq!(pool.spill().dropped(), dropped, "{at}");
            let dead = pool.lanes.checked_shr(4 * u32::from(pool.len)).unwrap_or(0);
            assert_eq!(dead, 0, "{at}: lane bits past the last entry");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random interleavings of the operations a processor performs on
        /// its lanes — pushes, bounded pushes, single-lane pops, the
        /// step's all-lane pop, KILL erasure of the growing lanes and
        /// restart retirement — agree with six reference `VecDeque`s after
        /// every operation. The clock starts within a 16-bit wrap of
        /// 2^32, so stamps wrap mid-case for many starts.
        #[test]
        fn the_pool_agrees_with_six_reference_lanes(
            ops in proptest::collection::vec((0u8..64, 0u8..6, 0u8..3, 0u8..4), 1..300),
            start in 0u64..(1 << 17),
        ) {
            let mut pool = DwellPool::default();
            let mut model = Model::default();
            let mut now = (1u64 << 32) - (1 << 16) + start;
            for (step, &(op, lane, dt, ahead)) in ops.iter().enumerate() {
                now += u64::from(dt);
                let lane = SnakeKind::ALL[lane as usize];
                let deadline = model.deadline(lane, now, u64::from(ahead));
                match op {
                    0..=25 if model.lanes[lane.idx()].len() < CAP => {
                        model.push(&mut pool, lane, deadline, step as u16);
                    }
                    0..=33 => model.push_bounded(&mut pool, lane, deadline, step as u16),
                    34..=51 => model.pop_due(&mut pool, lane, now),
                    52..=58 => model.pop_due_each(&mut pool, now),
                    59..=62 => {
                        for growing in SnakeKind::GROWING {
                            model.clear(&mut pool, growing);
                        }
                    }
                    _ => model.retire(&mut pool),
                }
                model.check(&pool, now, &format!("op {step} at {now}"));
            }
        }
    }

    #[test]
    fn the_ninth_character_spills_its_lane_and_the_lane_comes_back() {
        use SnakeKind::{Id, Ig, Og};
        let mut pool = DwellPool::default();
        // Eight characters over three lanes fill the pool.
        for (i, lane) in [Ig, Og, Id, Ig, Og, Id, Ig, Og].into_iter().enumerate() {
            pool.push(lane, 10 + i as u64, i as u16);
        }
        assert_eq!((pool.len, pool.spilled), (8, 0));
        assert!(pool.spill().0.is_none(), "a full pool has no block");
        // The ninth moves the lane it joins wholly into its slab, and
        // the tenth follows it there.
        pool.push(Id, 20, 8u16);
        pool.push(Id, 21, 9u16);
        assert_eq!((pool.len, pool.spilled), (6, 1 << Id.idx()));
        assert_eq!(pool.spill().spilled_lanes(), 1);
        let id = [(12, 2), (15, 5), (20, 8), (21, 9)];
        assert!(queued(&pool, Id, 10).eq(id));
        // A pop that leaves more than the free entries stays in the slab.
        assert_eq!(pool.pop_due::<u16>(Id, 12), Some(2));
        assert_eq!((pool.len, pool.spilled), (6, 1 << Id.idx()));
        // Once what is left fits, the pop brings the lane back.
        assert_eq!(pool.pop_due::<u16>(Ig, 12), Some(0));
        assert_eq!(pool.pop_due::<u16>(Id, 15), Some(5));
        assert_eq!((pool.len, pool.spilled), (7, 0));
        assert!(queued(&pool, Id, 15).eq(id[2..].iter().copied()));
        assert_eq!(pool.len(), 7);
        // The slab stays claimed.
        assert_eq!(pool.spill().spilled_lanes(), 1);
    }

    #[test]
    fn speed_ratio_is_three() {
        // hop latency = dwell + 1 wire tick
        assert_eq!((SPEED1_DWELL + 1) / (SPEED3_DWELL + 1), 3);
    }

    #[test]
    fn pop_respects_deadlines_and_order() {
        let mut pool = DwellPool::default();
        pool.push(LANE, 5, 10u16);
        pool.push(LANE, 5, 11u16);
        pool.push(LANE, 7, 12u16);
        assert_eq!(pool.pop_due::<u16>(LANE, 4), None);
        assert_eq!(pool.pop_due::<u16>(LANE, 5), Some(10));
        assert_eq!(pool.pop_due::<u16>(LANE, 5), Some(11));
        assert_eq!(pool.pop_due::<u16>(LANE, 5), None); // 12 not due yet
        assert_eq!(pool.pop_due::<u16>(LANE, 8), Some(12));
        assert!(pool.is_empty());
    }

    #[test]
    fn late_pop_still_fifo() {
        let mut pool = DwellPool::default();
        pool.push(LANE, 1, 1u16);
        pool.push(LANE, 2, 2u16);
        assert_eq!(pool.pop_due::<u16>(LANE, 10), Some(1));
        assert_eq!(pool.pop_due::<u16>(LANE, 10), Some(2));
    }

    #[test]
    fn next_deadline_and_len() {
        let mut pool = DwellPool::default();
        assert_eq!(pool.lane_deadline(LANE, 0), None);
        pool.push(LANE, 3, 0u16);
        pool.push(LANE, 4, 0u16);
        assert_eq!(pool.lane_deadline(LANE, 0), Some(3));
        assert_eq!(pool.lane_len(LANE), 2);
        pool.clear(LANE);
        assert!(pool.is_empty());
    }

    #[test]
    fn slab_ring_wraps_and_rebases() {
        // Keep a spilled lane more than eight deep while twenty items
        // pass through it, so its 16-slot ring wraps; between rounds it
        // drains and idles. The stamps must read back exact deadlines
        // across gaps far wider than their 16 bits.
        let mut pool = DwellPool::default();
        let mut expect = VecDeque::new();
        let mut next = 0u16;
        for round in 0..10u64 {
            let t = round * 1_000_000; // huge gaps stress the u16 stamps
            for k in 0..32 {
                if k >= 12 {
                    let want = expect.pop_front().map(|(_, x)| x);
                    assert_eq!(pool.pop_due::<u16>(LANE, t + k), want);
                    assert!(pool.is_spilled(LANE));
                }
                pool.push(LANE, t + k, next);
                expect.push_back((t + k, next));
                next += 1;
            }
            assert!(queued(&pool, LANE, t).eq(expect.iter().copied()));
            while let Some((_, want)) = expect.pop_front() {
                assert_eq!(pool.pop_due::<u16>(LANE, t + 40), Some(want));
            }
            assert!(pool.is_empty());
        }
        assert_eq!(pool.spill().spilled_lanes(), 1);
    }

    #[test]
    fn push_bounded_counts_drops() {
        let mut pool = DwellPool::default();
        for i in 0..DwellPool::HARD_CAP as u64 {
            assert!(pool.push_bounded(LANE, i, 0u16));
        }
        assert_eq!(pool.dropped(LANE), 0);
        assert!(!pool.push_bounded(LANE, 99, 0u16));
        assert!(!pool.push_bounded(LANE, 99, 0u16));
        assert_eq!(pool.dropped(LANE), 2);
        // the counter survives erasure — it is a lifetime statistic
        pool.clear(LANE);
        assert!(pool.is_empty());
        assert_eq!(pool.dropped(LANE), 2);
        pool.record_drops(LANE, 3);
        assert_eq!(pool.dropped(LANE), 5);
        // ... and the lane's retirement
        pool.retire();
        assert_eq!((pool.dropped(LANE), pool.spill().dropped()), (0, 5));
        assert_eq!(pool.spill().spilled_lanes(), 0);
    }

    #[test]
    fn lanes_agree_with_a_reference_model() {
        // Differential test: the six lanes of one pool, checked after
        // every operation against the reference model. Fill and drain
        // phases alternate so lanes spill out of the pool and come back
        // many times, and the clock starts just below 2^32 so stamps
        // wrap mid-run and the ticks end above `u32::MAX`; an empty pool
        // sometimes idles for far longer than a stamp's range.
        use gtd_netsim::rng::DetRng;

        let (mut spills, mut unspills) = (0u32, 0u32);
        for seed in 0..8 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut pool = DwellPool::default();
            let mut model = Model::default();
            let mut now = (1u64 << 32) - 3_000 + seed * 7_919;
            for op in 0..6_000u32 {
                if pool.is_empty() && rng.random_range(0..16) == 0 {
                    now += u64::from(rng.random_range(0..200_000));
                } else {
                    now += u64::from(rng.random_range(0..2));
                }
                // Two busy lanes and four quiet ones.
                let lane =
                    SnakeKind::ALL[[0, 3, 0, 3, 1, 2, 4, 5][rng.random_range(0..8) as usize]];
                let deadline = model.deadline(lane, now, u64::from(rng.random_range(0..4)));
                let before = pool.spilled;
                // Fill phases mostly push, drain phases mostly pop.
                let filling = (op / 40) % 2 == 0;
                match (filling, rng.random_range(0..32)) {
                    (true, 0..=13) | (false, 0..=1) if model.lanes[lane.idx()].len() < CAP => {
                        model.push(&mut pool, lane, deadline, op as u16);
                    }
                    (true, 0..=19) | (false, 0..=2) => {
                        model.push_bounded(&mut pool, lane, deadline, op as u16);
                    }
                    (_, 0..=24) => model.pop_due(&mut pool, lane, now),
                    (_, 25..=28) => model.pop_due_each(&mut pool, now),
                    (_, 29) => model.clear(&mut pool, lane),
                    _ => {
                        let k = u64::from(rng.random_range(1..3));
                        model.record_drops(&mut pool, lane, k);
                    }
                }
                spills += (pool.spilled & !before).count_ones();
                unspills += (before & !pool.spilled).count_ones();
                model.check(&pool, now, &format!("seed {seed} op {op}"));
            }
            assert!(now > u64::from(u32::MAX), "the clock must pass 2^32");
        }
        assert!(spills >= 100 && unspills >= 100, "{spills} / {unspills}");
    }

    #[test]
    fn tick_stamps_read_back_exactly_within_half_their_range() {
        // Clocks on both sides of a 16-bit wrap, above `u32::MAX` too:
        // every tick within 32,767 of `now` reads back as itself.
        let wrap = 1u64 << 16;
        for now in [0, 5, wrap - 3, wrap + 2, 1 << 32, (1 << 32) + 7 * wrap - 1] {
            let lo = now.saturating_sub(i16::MAX as u64);
            for t in lo..=now + i16::MAX as u64 {
                assert_eq!(TickStamp::new(t).tick(now), t, "tick {t} at {now}");
            }
        }
    }

    #[test]
    fn the_downtime_boxes_on_first_write_and_survives_retirement() {
        let mut pool = DwellPool::default();
        assert_eq!(pool.spill().dark_until(), 0);
        assert!(pool.spill().0.is_none(), "reads do not box");
        let dark = (1u64 << 32) + 3;
        pool.spill_mut().go_dark(dark);
        pool.retire();
        assert_eq!(pool.spill().dark_until(), dark);
        assert_eq!(
            (pool.spill().spilled_lanes(), pool.spill().dropped()),
            (0, 0)
        );
    }

    #[test]
    fn a_full_pool_never_spills() {
        let mut pool = DwellPool::default();
        for round in 0..100u64 {
            for k in 0..POOL as u64 {
                pool.push(SnakeKind::ALL[k as usize % LANES], round * 10 + k, k as u16);
            }
            let mut popped = 1;
            while popped > 0 {
                popped = 0;
                pool.pop_due_each(round * 10 + 9, |_, _| popped += 1);
            }
            assert!(pool.is_empty());
        }
        pool.spill_mut().record_lost(0);
        assert!(
            pool.spill().0.is_none(),
            "no block behind a clean processor"
        );
    }

    #[test]
    fn lanes_stay_compact() {
        // A pool sits in every processor, and a saturated tick streams
        // every processor's state once: at n = 1M a byte here is a
        // megabyte per tick. Eight entries of 2 + 2 bytes and a 4-bit
        // lane, the length and the spilled-lane bits take 40 bytes, and
        // the spill pointer 8. The relay keeps its visited mark and its
        // lane; the passage its state, its ports as one-byte `OptPort`s
        // and its lane.
        use std::mem::size_of;
        assert_eq!(size_of::<DwellPool>(), 48);
        assert_eq!(size_of::<crate::GrowRelay>(), 2);
        assert_eq!(size_of::<crate::DyingPassage>(), 4);
        assert_eq!(size_of::<DwellSpill>(), 8);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_deadline_panics() {
        let mut pool = DwellPool::default();
        pool.push(LANE, 5, 0u16);
        pool.push(LANE, 4, 0u16);
    }

    #[test]
    #[should_panic(expected = "finite-state")]
    fn overflow_panics() {
        let mut pool = DwellPool::default();
        for i in 0..=DwellPool::HARD_CAP as u64 {
            pool.push(LANE, i, 0u16);
        }
    }
}
