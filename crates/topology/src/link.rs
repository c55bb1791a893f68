//! Links: the edges joining switches of adjacent stages.

use crate::Size;
use core::fmt;

/// The kind of an output link of a switch at stage `i`.
///
/// In the IADM network every switch `j` at stage `i` has three output links,
/// reaching switches `(j - 2^i) mod N`, `j` and `(j + 2^i) mod N` of stage
/// `i + 1`. The paper calls the first and last *nonstraight* links (written
/// `-2^i` and `+2^i`) and the middle one the *straight* link.
///
/// `Ord` sorts `Minus < Straight < Plus`, which matches the paper's
/// top-to-bottom drawing order for a switch's output links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkKind {
    /// The `-2^i` link to switch `(j - 2^i) mod N`.
    Minus,
    /// The straight link to switch `j`.
    Straight,
    /// The `+2^i` link to switch `(j + 2^i) mod N`.
    Plus,
}

impl LinkKind {
    /// All three kinds in drawing order.
    pub const ALL: [LinkKind; 3] = [LinkKind::Minus, LinkKind::Straight, LinkKind::Plus];

    /// The two nonstraight kinds.
    pub const NONSTRAIGHT: [LinkKind; 2] = [LinkKind::Minus, LinkKind::Plus];

    /// Is this a nonstraight (`±2^i`) link?
    #[inline]
    pub fn is_nonstraight(self) -> bool {
        !matches!(self, LinkKind::Straight)
    }

    /// Dense 0/1/2 index in drawing order (`Minus`, `Straight`, `Plus`) —
    /// the canonical kind axis of every flat per-link array in the
    /// workspace ([`Link::flat_index`], the simulator's queue arena, the
    /// routing LUT).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            LinkKind::Minus => 0,
            LinkKind::Straight => 1,
            LinkKind::Plus => 2,
        }
    }

    /// Inverse of [`LinkKind::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn from_index(index: usize) -> LinkKind {
        LinkKind::ALL[index]
    }

    /// The oppositely signed nonstraight kind; `Straight` maps to itself.
    ///
    /// Theorem 3.2 of the paper: changing the state of a switch swaps a
    /// nonstraight link for its opposite, and leaves a straight link alone.
    #[inline]
    pub fn opposite(self) -> LinkKind {
        match self {
            LinkKind::Minus => LinkKind::Plus,
            LinkKind::Straight => LinkKind::Straight,
            LinkKind::Plus => LinkKind::Minus,
        }
    }

    /// The signed displacement `-2^stage`, `0` or `+2^stage` this link kind
    /// applies at `stage`, as an offset to add mod `N`.
    #[inline]
    pub fn delta(self, size: Size, stage: usize) -> usize {
        match self {
            LinkKind::Minus => size.wrap(size.n() - (1usize << stage)),
            LinkKind::Straight => 0,
            LinkKind::Plus => size.wrap(1usize << stage),
        }
    }

    /// Target switch of this link from switch `from` at `stage`.
    #[inline]
    pub fn target(self, size: Size, stage: usize, from: usize) -> usize {
        size.add(from, self.delta(size, stage))
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::Minus => write!(f, "-"),
            LinkKind::Straight => write!(f, "="),
            LinkKind::Plus => write!(f, "+"),
        }
    }
}

/// A specific link of a network: the `kind` output link of switch `from` at
/// stage `stage`, joining it to a switch of stage `stage + 1`.
///
/// Links are identified by their *source* switch and kind, not by the switch
/// pair they join: at stage `n-1` the `Plus` and `Minus` links of a switch
/// join the same pair of switches (`+2^{n-1} ≡ -2^{n-1} mod N`) but are
/// distinct physical links, and the paper's Section 6 counting depends on
/// that distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    /// Stage of the source switch.
    pub stage: usize,
    /// Label of the source switch.
    pub from: usize,
    /// Which of the source switch's output links this is.
    pub kind: LinkKind,
}

impl Link {
    /// Creates the `kind` output link of switch `from` at `stage`.
    pub fn new(stage: usize, from: usize, kind: LinkKind) -> Self {
        Link { stage, from, kind }
    }

    /// The straight output link of `from` at `stage`.
    pub fn straight(stage: usize, from: usize) -> Self {
        Link::new(stage, from, LinkKind::Straight)
    }

    /// The `+2^stage` output link of `from` at `stage`.
    pub fn plus(stage: usize, from: usize) -> Self {
        Link::new(stage, from, LinkKind::Plus)
    }

    /// The `-2^stage` output link of `from` at `stage`.
    pub fn minus(stage: usize, from: usize) -> Self {
        Link::new(stage, from, LinkKind::Minus)
    }

    /// The switch of stage `stage + 1` this link reaches.
    #[inline]
    pub fn target(self, size: Size) -> usize {
        self.kind.target(size, self.stage, self.from)
    }

    /// The link of the same switch with the oppositely signed nonstraight
    /// kind (straight maps to itself).
    #[inline]
    pub fn opposite(self) -> Link {
        Link {
            kind: self.kind.opposite(),
            ..self
        }
    }

    /// Dense index of this link into an array of `3 * N * n` link slots.
    #[inline]
    pub fn flat_index(self, size: Size) -> usize {
        (self.stage * size.n() + self.from) * 3 + self.kind.index()
    }

    /// Total number of link slots for `size`: `3 * N * n`.
    #[inline]
    pub fn slot_count(size: Size) -> usize {
        3 * size.n() * size.stages()
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LinkKind::Minus => write!(f, "S{}:{}-2^{}", self.stage, self.from, self.stage),
            LinkKind::Straight => write!(f, "S{}:{}=", self.stage, self.from),
            LinkKind::Plus => write!(f, "S{}:{}+2^{}", self.stage, self.from, self.stage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn delta_targets_match_paper_definition() {
        let s = size8();
        // Switch 3 at stage 1: outputs to 3-2=1, 3, 3+2=5.
        assert_eq!(LinkKind::Minus.target(s, 1, 3), 1);
        assert_eq!(LinkKind::Straight.target(s, 1, 3), 3);
        assert_eq!(LinkKind::Plus.target(s, 1, 3), 5);
    }

    #[test]
    fn targets_wrap_mod_n() {
        let s = size8();
        assert_eq!(LinkKind::Plus.target(s, 2, 6), 2); // 6 + 4 = 10 ≡ 2
        assert_eq!(LinkKind::Minus.target(s, 2, 1), 5); // 1 - 4 = -3 ≡ 5
    }

    #[test]
    fn last_stage_plus_minus_share_target() {
        let s = size8();
        let last = s.stages() - 1;
        for j in s.switches() {
            assert_eq!(
                LinkKind::Plus.target(s, last, j),
                LinkKind::Minus.target(s, last, j),
                "+2^(n-1) ≡ -2^(n-1) mod N must hold at switch {j}"
            );
        }
    }

    #[test]
    fn index_round_trips_in_drawing_order() {
        for (i, kind) in LinkKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(LinkKind::from_index(i), kind);
        }
    }

    #[test]
    fn opposite_swaps_nonstraight_only() {
        assert_eq!(LinkKind::Plus.opposite(), LinkKind::Minus);
        assert_eq!(LinkKind::Minus.opposite(), LinkKind::Plus);
        assert_eq!(LinkKind::Straight.opposite(), LinkKind::Straight);
    }

    #[test]
    fn flat_index_is_dense_and_unique() {
        let s = size8();
        let mut seen = vec![false; Link::slot_count(s)];
        for stage in s.stage_indices() {
            for from in s.switches() {
                for kind in LinkKind::ALL {
                    let idx = Link::new(stage, from, kind).flat_index(s);
                    assert!(!seen[idx], "duplicate index {idx}");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Link::plus(1, 3).to_string(), "S1:3+2^1");
        assert_eq!(Link::straight(0, 2).to_string(), "S0:2=");
        assert_eq!(Link::minus(2, 7).to_string(), "S2:7-2^2");
    }
}
