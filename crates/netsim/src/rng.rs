//! A small deterministic PRNG for the workload generators.
//!
//! The generators only need reproducible pseudo-randomness — identical
//! arguments (including seeds) must produce identical port-level
//! topologies on every platform — not cryptographic or statistical
//! perfection. This splitmix64-based generator is self-contained, so the
//! workspace builds without the `rand` crate (offline environments; see
//! `third_party/README.md`).

use std::ops::Range;

/// splitmix64's per-draw state increment (the golden-ratio constant).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic splitmix64 generator.
///
/// splitmix64 is counter-based: the state advances by a fixed increment
/// per draw and the output is a pure function of the new state, so draws
/// can be [skipped](DetRng::skip) without computing them, or
/// [peeked at](DetRng::peek_range) without advancing.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Seed the generator. Identical seeds yield identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Advance the stream past `draws` draws without computing them:
    /// afterwards the generator is exactly where that many discarded
    /// [`DetRng::next_u64`] calls would leave it.
    #[inline]
    pub(crate) fn skip(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(draws));
    }

    /// Uniform value in `range` (modulo method: the tiny bias is
    /// irrelevant for topology generation).
    pub fn random_range(&mut self, range: Range<u32>) -> u32 {
        in_range(self.next_u64(), range)
    }

    /// What [`DetRng::random_range`] would return `ahead` draws from now
    /// (`0` is the next draw), without advancing the stream.
    #[inline]
    pub(crate) fn peek_range(&self, ahead: u64, range: Range<u32>) -> u32 {
        let state = self.state.wrapping_add(GAMMA.wrapping_mul(ahead + 1));
        in_range(mix(state), range)
    }

    /// `true` with probability `p`.
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p));
        // 53 random mantissa bits -> uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

/// splitmix64's output function of a state.
#[inline]
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A raw draw mapped into `range` by the modulo method.
#[inline]
fn in_range(x: u64, range: Range<u32>) -> u32 {
    assert!(range.start < range.end, "empty range");
    let span = (range.end - range.start) as u64;
    range.start + (x % span) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn skip_matches_a_discarded_draw() {
        for seed in [0, 1, 42, u64::MAX] {
            let mut drawn = DetRng::seed_from_u64(seed);
            let mut skipped = DetRng::seed_from_u64(seed);
            for i in 0..200 {
                // Interleave skips with real draws, including runs of skips.
                if i % 3 == 0 || i % 7 == 0 {
                    drawn.next_u64();
                    skipped.skip(1);
                } else {
                    assert_eq!(
                        drawn.next_u64(),
                        skipped.next_u64(),
                        "seed {seed}, draw {i}"
                    );
                }
            }
            assert_eq!(drawn.state, skipped.state);
            assert_eq!(
                drawn.random_range(0..1_000_000),
                skipped.random_range(0..1_000_000)
            );
        }
    }

    /// A peeked draw is the draw that many places ahead, and a multi-draw
    /// skip lands where that many single draws would.
    #[test]
    fn peek_and_skip_name_later_draws() {
        for seed in [0, 7, u64::MAX] {
            let mut rng = DetRng::seed_from_u64(seed);
            for step in 0..50u64 {
                let ahead: Vec<u32> = (0..9).map(|k| rng.peek_range(k, 0..1000)).collect();
                let mut drawn = rng.clone();
                let got: Vec<u32> = (0..9).map(|_| drawn.random_range(0..1000)).collect();
                assert_eq!(ahead, got, "seed {seed}, step {step}");
                let draws = step % 5;
                let mut single = rng.clone();
                (0..draws).for_each(|_| single.skip(1));
                rng.skip(draws);
                assert_eq!(rng.state, single.state);
            }
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.random_range(3..17);
            assert!((3..17).contains(&x));
        }
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut r = DetRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| r.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }
}
