//! Pins `iadm_rng::bernoulli_threshold`: the integer Bernoulli test the
//! simulator's arrival scan runs, `(x >> 11) < bernoulli_threshold(p)`,
//! must accept exactly the draws `gen_bool(p)` accepts — otherwise the
//! open-loop traffic trace (and every golden built on it) would shift.

use iadm_check::{check, check_assert_eq, Gen};
use iadm_rng::{bernoulli_threshold, Rng, RngCore};

/// A generator that yields one fixed word: feeds the same draw to
/// `gen_bool` that the integer test sees.
struct Draw(u64);

impl RngCore for Draw {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The largest 53-bit mantissa a draw can carry after `>> 11`.
const MAX_MANTISSA: u64 = (1 << 53) - 1;

fn agrees(x: u64, p: f64) -> Result<(), String> {
    check_assert_eq!(
        (x >> 11) < bernoulli_threshold(p),
        Draw(x).gen_bool(p),
        "draw {x:#x}, p = {p:e}"
    );
    Ok(())
}

/// Checks the draws whose 53-bit mantissa sits just below, at and just
/// above the threshold — the only place the two tests could disagree —
/// with random low bits, plus one arbitrary draw.
fn probe(g: &mut Gen, p: f64) -> Result<(), String> {
    let t = bernoulli_threshold(p);
    let low = g.u64_any() & 0x7FF;
    for k in [t.saturating_sub(1), t, t + 1] {
        agrees((k.min(MAX_MANTISSA) << 11) | low, p)?;
    }
    agrees(g.u64_any(), p)
}

check! {
    /// Any `p` in `[0, 1]`, drawn over its bit pattern so every exponent
    /// (subnormals included) is covered, not only the 2^-53 grid.
    fn threshold_matches_gen_bool_for_random_p(g; cases = 2048) {
        let p = f64::from_bits(g.u64_any() % (1.0f64.to_bits() + 1));
        probe(g, p)?;
    }

    /// `p = k·2^-53`, where `p·2^53` is already an integer and the
    /// ceiling must not round it up.
    fn threshold_matches_gen_bool_on_the_dyadic_grid(g; cases = 2048) {
        let k = g.u64_any() % ((1 << 53) + 1);
        probe(g, k as f64 / (1u64 << 53) as f64)?;
    }
}

#[test]
fn threshold_matches_gen_bool_at_the_extremes() {
    let ulp = 1.0 / (1u64 << 53) as f64;
    for p in [0.0, 1.0, ulp, 1.0 - ulp] {
        let t = bernoulli_threshold(p);
        let mut draws = vec![0, u64::MAX, 0x7FF, !0x7FF];
        for k in [t.saturating_sub(1), t, t + 1] {
            let k = k.min(MAX_MANTISSA) << 11;
            draws.extend([k, k | 0x7FF]);
        }
        for x in draws {
            agrees(x, p).unwrap();
        }
    }
    assert_eq!(bernoulli_threshold(0.0), 0, "p = 0 never fires");
    assert_eq!(bernoulli_threshold(1.0), 1 << 53, "p = 1 always fires");
}
