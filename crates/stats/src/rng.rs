//! Deterministic, splittable pseudo-random number generation.
//!
//! gMark's generation algorithms (Figs. 5 and 6 of the paper) are randomized
//! but must be reproducible: the same configuration and seed must yield the
//! same graph and the same workload, including when constraints are processed
//! in parallel. [`Prng`] is a xoshiro256** generator seeded through SplitMix64,
//! with a [`Prng::split`] operation that derives statistically independent
//! child streams — one per schema constraint / per query — so the processing
//! order never affects the output (the paper notes the draws are statistically
//! independent and order-free).
//!
//! The generator is self-contained: the `rand` ecosystem is not a
//! dependency, so the workspace builds with no external crates.

/// A deterministic xoshiro256** PRNG with SplitMix64 seeding.
///
/// Not cryptographically secure; used only for synthetic data generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro256** requires a non-zero state; SplitMix64 output of four
        // consecutive words is never all-zero in practice, but guard anyway.
        if s == [0, 0, 0, 0] {
            Prng { s: [1, 2, 3, 4] }
        } else {
            Prng { s }
        }
    }

    /// Derives an independent child generator keyed by `index`.
    ///
    /// Children with distinct indices have uncorrelated streams, which makes
    /// per-constraint / per-query generation order-independent and
    /// parallelizable without losing determinism.
    pub fn split(&self, index: u64) -> Prng {
        // Mix the current state with the index through SplitMix64 so that
        // splitting does not advance `self`.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        if s == [0, 0, 0, 0] {
            Prng { s: [1, 2, 3, 4] }
        } else {
            Prng { s }
        }
    }

    /// Derives an independent child generator keyed by `(domain, index)`.
    ///
    /// The two-level split gives each *subsystem* its own family of
    /// per-item streams: the graph generator splits the master seed by
    /// constraint index and the workload generator by query index, and
    /// without domain separation constraint `i` and query `i` would read
    /// the **same** stream whenever the CLI shares one `--seed` between
    /// them. `split2(domain, index)` is `split(domain).split(index)` —
    /// distinct domains yield uncorrelated families even at equal indices.
    pub fn split2(&self, domain: u64, index: u64) -> Prng {
        self.split(domain).split(index)
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Prng::below requires a positive bound");
        // Lemire's algorithm on 64x64 -> 128-bit multiply.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let threshold = bound.wrapping_neg() % bound;
            while l < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in `[lo, hi]` (inclusive).
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "Prng::range_inclusive requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// Fisher–Yates shuffle of a slice (the `shuffle` of Fig. 5, line 7).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Prng::choose requires a non-empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to `weights`. Returns `None` if all weights are zero / non-finite.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights
            .iter()
            .copied()
            .filter(|w| w.is_finite() && *w > 0.0)
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.f64_unit() * total;
        let mut last_positive = None;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                last_positive = Some(i);
                if target < w {
                    return Some(i);
                }
                target -= w;
            }
        }
        // Floating-point slack: fall back to the last positive-weight index.
        last_positive
    }
}

/// Fills a byte slice from the stream (the `rand`-style primitive; kept
/// crate-local so the workspace builds without the `rand` ecosystem).
impl Prng {
    /// Fills `dst` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut chunks = dst.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn split_does_not_advance_parent() {
        let a = Prng::seed_from_u64(7);
        let b = a.clone();
        let _child = a.split(3);
        assert_eq!(a, b);
    }

    #[test]
    fn split_children_are_independent() {
        let root = Prng::seed_from_u64(7);
        let mut c0 = root.split(0);
        let mut c1 = root.split(1);
        let same = (0..64).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert!(same < 4, "child streams should diverge");
    }

    #[test]
    fn split_is_deterministic() {
        let root = Prng::seed_from_u64(99);
        let mut a = root.split(5);
        let mut b = root.split(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split2_is_deterministic_and_domain_separated() {
        let root = Prng::seed_from_u64(2017);
        let mut a = root.split2(1, 5);
        let mut b = root.split2(1, 5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Same index under different domains must diverge...
        let mut c = root.split2(2, 5);
        let mut d = root.split2(1, 5);
        let same = (0..64).filter(|_| c.next_u64() == d.next_u64()).count();
        assert!(same < 4, "domains should separate streams");
        // ...and split2 must not collide with a single-level split.
        let mut e = root.split(5);
        let mut f = root.split2(1, 5);
        let same = (0..64).filter(|_| e.next_u64() == f.next_u64()).count();
        assert!(same < 4, "split2 should not alias split");
    }

    #[test]
    fn split2_does_not_advance_parent() {
        let a = Prng::seed_from_u64(7);
        let b = a.clone();
        let _child = a.split2(1, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Prng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_one_is_zero() {
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    fn range_inclusive_endpoints() {
        let mut rng = Prng::seed_from_u64(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.range_inclusive(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_is_in_unit_interval() {
        let mut rng = Prng::seed_from_u64(17);
        for _ in 0..10_000 {
            let x = rng.f64_unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::seed_from_u64(23);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "100 elements should move");
    }

    #[test]
    fn choose_weighted_respects_zero_weights() {
        let mut rng = Prng::seed_from_u64(31);
        let weights = [0.0, 1.0, 0.0, 2.0];
        for _ in 0..200 {
            let i = rng.choose_weighted(&weights).unwrap();
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn choose_weighted_all_zero_is_none() {
        let mut rng = Prng::seed_from_u64(31);
        assert_eq!(rng.choose_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.choose_weighted(&[]), None);
    }

    #[test]
    fn choose_weighted_roughly_proportional() {
        let mut rng = Prng::seed_from_u64(37);
        let weights = [1.0, 3.0];
        let mut counts = [0u32; 2];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio} should be ~3");
    }

    #[test]
    fn fill_bytes_works() {
        let mut rng = Prng::seed_from_u64(41);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
