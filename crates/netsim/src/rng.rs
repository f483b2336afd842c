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
/// per draw and the output is a pure function of the new state, so a draw
/// can be [skipped](DetRng::skip) without computing it.
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
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Advance the stream past one draw without computing it: afterwards
    /// the generator is exactly where a discarded [`DetRng::next_u64`]
    /// would leave it.
    #[inline]
    pub(crate) fn skip(&mut self) {
        self.state = self.state.wrapping_add(GAMMA);
    }

    /// Uniform value in `range` (modulo method: the tiny bias is
    /// irrelevant for topology generation).
    pub fn random_range(&mut self, range: Range<u32>) -> u32 {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as u32
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
                    skipped.skip();
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
