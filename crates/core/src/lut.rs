//! Precomputed routing decision tables for simulator hot paths.
//!
//! Theorem 3.1 makes the destination tag *state-invariant*: the tag that
//! routes a message to `d` is the binary representation of `d` no matter
//! which states the switches are in. Consequently the full switching
//! decision at a switch factors into a static part and a dynamic part:
//!
//! * **static** — given the switch parity (`even_i`/`odd_i`, i.e. bit `i`
//!   of the switch label) and the tag bit `t_i`, the message is either
//!   straight-bound (both states use the straight link, Theorem 3.2) or
//!   nonstraight-bound with the candidate pair `{ΔC_i, ΔC̄_i}` fixed;
//! * **dynamic** — for nonstraight-bound messages only, the sign choice
//!   (switch state, queue occupancy, fault evasion).
//!
//! The static part never changes during a simulation, and neither does
//! the blockage map, so both are precomputable. [`kind_for`] is the
//! paper's Figure 4 switching table as a constant array, and [`RouteLut`]
//! bakes the per-`(stage, switch, tag bit)` decision *and* the static
//! link-fault availability into one byte per entry, built once per
//! simulation instead of re-derived per packet per hop.

use crate::state::SwitchState;
use iadm_fault::BlockageMap;
use iadm_topology::{bit, LinkKind, Size};

/// The paper's Figure 4 switching table as a constant: the output link of
/// a switch as a function of its parity bit (`bit(j, i)`), the tag bit
/// `t_i`, and the state bit (0 = `C`, 1 = `C̄`). Equal to
/// [`route_kind`](crate::connect::route_kind)`(j, i, t, state)` for every switch — verified
/// exhaustively in the tests.
pub const KIND_BY_PARITY_TAG_STATE: [[[LinkKind; 2]; 2]; 2] = [
    // even_i switches (parity bit 0)
    [
        [LinkKind::Straight, LinkKind::Straight], // t = 0: straight in C and C̄
        [LinkKind::Plus, LinkKind::Minus],        // t = 1: +2^i in C, -2^i in C̄
    ],
    // odd_i switches (parity bit 1)
    [
        [LinkKind::Minus, LinkKind::Plus], // t = 0: -2^i in C, +2^i in C̄
        [LinkKind::Straight, LinkKind::Straight], // t = 1: straight in C and C̄
    ],
];

/// Constant-time [`route_kind`](crate::connect::route_kind) via [`KIND_BY_PARITY_TAG_STATE`]:
/// `parity` is bit `stage` of the switch label, `t` the tag bit.
///
/// # Panics
///
/// Panics if `parity > 1` or `t > 1`.
#[inline]
pub fn kind_for(parity: usize, t: usize, state: SwitchState) -> LinkKind {
    KIND_BY_PARITY_TAG_STATE[parity][t][state.to_bit()]
}

/// One precomputed switching decision: the `ΔC` candidate kind, whether
/// the message is straight-bound, and whether the (static) blockage map
/// leaves each candidate link usable. Packed into one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutEntry(u8);

impl LutEntry {
    const STRAIGHT: u8 = 1 << 2;
    const C_FREE: u8 = 1 << 3;
    const CBAR_FREE: u8 = 1 << 4;

    /// The state-`C` candidate: `ΔC_i(j, t)`.
    #[inline]
    pub fn c_kind(self) -> LinkKind {
        LinkKind::from_index((self.0 & 0b11) as usize)
    }

    /// The state-`C̄` candidate: `ΔC̄_i(j, t) = -ΔC_i(j, t)`.
    #[inline]
    pub fn cbar_kind(self) -> LinkKind {
        LinkKind::from_index(2 - (self.0 & 0b11) as usize)
    }

    /// Straight-bound (no nonstraight alternative exists, Theorem 3.2)?
    #[inline]
    pub fn is_straight(self) -> bool {
        self.0 & Self::STRAIGHT != 0
    }

    /// Is the `ΔC` candidate link fault-free?
    #[inline]
    pub fn c_free(self) -> bool {
        self.0 & Self::C_FREE != 0
    }

    /// Is the `ΔC̄` candidate link fault-free? (For straight-bound
    /// entries both candidates are the same straight link, so this
    /// equals [`LutEntry::c_free`].)
    #[inline]
    pub fn cbar_free(self) -> bool {
        self.0 & Self::CBAR_FREE != 0
    }
}

/// The precomputed routing table of a whole network under a fixed
/// blockage map: one [`LutEntry`] per `(stage, switch, tag bit)`,
/// indexed arithmetically. `2 N n` bytes — e.g. 20 KiB at `N = 1024`.
#[derive(Debug, Clone)]
pub struct RouteLut {
    size: Size,
    entries: Vec<LutEntry>,
}

impl RouteLut {
    /// Builds the table for `size` under `blockages`.
    ///
    /// # Panics
    ///
    /// Panics if `blockages` is for a different size.
    pub fn new(size: Size, blockages: &BlockageMap) -> Self {
        assert_eq!(blockages.size(), size, "blockage map size mismatch");
        let n = size.n();
        let mut entries = vec![LutEntry(0); 2 * n * size.stages()];
        let rows = entries.chunks_exact_mut(2 * n);
        for (stage, (pairs, links)) in rows.zip(blockages.slots().chunks_exact(3 * n)).enumerate() {
            for (sw, (pair, blocked)) in pairs
                .chunks_exact_mut(2)
                .zip(links.chunks_exact(3))
                .enumerate()
            {
                pair.copy_from_slice(&switch_entries(bit(sw, stage), blocked));
            }
        }
        RouteLut { size, entries }
    }

    /// Recomputes the two entries of switch `sw` at `stage` against the
    /// current `blockages` — the incremental repair used when a transient
    /// fault event flips one of the switch's output links mid-run. After
    /// calling this for every affected switch, the table is
    /// indistinguishable from a fresh [`RouteLut::new`] (pinned by a
    /// test below).
    ///
    /// # Panics
    ///
    /// Panics if `blockages` is for a different size; may panic (index
    /// out of bounds) if `stage` or `sw` is out of range.
    pub fn refresh_switch(&mut self, stage: usize, sw: usize, blockages: &BlockageMap) {
        assert_eq!(blockages.size(), self.size, "blockage map size mismatch");
        let i = stage * self.size.n() + sw;
        let pair = switch_entries(bit(sw, stage), &blockages.slots()[3 * i..3 * i + 3]);
        self.entries[2 * i..2 * i + 2].copy_from_slice(&pair);
    }

    /// The network size this table covers.
    pub fn size(&self) -> Size {
        self.size
    }

    /// Does every entry of this table agree with a fresh build against
    /// `blockages`? Campaign engines that share one prebuilt table across
    /// many runs use this (behind `debug_assert!`) to pin the sharing
    /// contract: a shared table must be indistinguishable from the one
    /// the run would have built itself. `O(N n)` with no allocation.
    pub fn matches(&self, blockages: &BlockageMap) -> bool {
        if blockages.size() != self.size {
            return false;
        }
        let n = self.size.n();
        let rows = self.entries.chunks_exact(2 * n);
        rows.zip(blockages.slots().chunks_exact(3 * n))
            .enumerate()
            .all(|(stage, (pairs, links))| {
                pairs
                    .chunks_exact(2)
                    .zip(links.chunks_exact(3))
                    .enumerate()
                    .all(|(sw, (pair, blocked))| *pair == switch_entries(bit(sw, stage), blocked))
            })
    }

    /// The entry for switch `sw` of `stage` under tag bit `t`.
    ///
    /// # Panics
    ///
    /// May panic (index out of bounds) if `stage`, `sw` or `t` is out of
    /// range.
    #[inline]
    pub fn entry(&self, stage: usize, sw: usize, t: usize) -> LutEntry {
        self.entries[(stage * self.size.n() + sw) * 2 + t]
    }
}

/// The entry pair (`t = 0`, `t = 1`) of a switch with parity bit
/// `parity` whose three output links have the blocked flags `blocked`
/// (in [`LinkKind::index`] order, as [`BlockageMap::slots`] stores
/// them) — the one derivation behind [`RouteLut::new`],
/// [`RouteLut::refresh_switch`] and [`RouteLut::matches`], so the three
/// can never drift.
#[inline]
fn switch_entries(parity: usize, blocked: &[bool]) -> [LutEntry; 2] {
    let free =
        usize::from(!blocked[0]) | usize::from(!blocked[1]) << 1 | usize::from(!blocked[2]) << 2;
    ENTRIES_BY_PARITY_FREE[parity][free]
}

/// Every entry pair a switch can hold, indexed by its parity bit and its
/// *free mask* (bit `k` set when the output link of kind index `k` is
/// free): [`KIND_BY_PARITY_TAG_STATE`] with each candidate's freedom
/// flag resolved ahead of time.
const ENTRIES_BY_PARITY_FREE: [[[LutEntry; 2]; 8]; 2] = {
    let mut table = [[[LutEntry(0); 2]; 8]; 2];
    let mut parity = 0;
    while parity < 2 {
        let mut free = 0;
        while free < 8 {
            let mut t = 0;
            while t < 2 {
                let c = KIND_BY_PARITY_TAG_STATE[parity][t][0].index();
                let cbar = KIND_BY_PARITY_TAG_STATE[parity][t][1].index();
                let mut packed = c as u8;
                if c == LinkKind::Straight.index() {
                    packed |= LutEntry::STRAIGHT;
                }
                if free >> c & 1 == 1 {
                    packed |= LutEntry::C_FREE;
                }
                if free >> cbar & 1 == 1 {
                    packed |= LutEntry::CBAR_FREE;
                }
                table[parity][free][t] = LutEntry(packed);
                t += 1;
            }
            free += 1;
        }
        parity += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::{delta_c_kind, delta_cbar_kind, route_kind};
    use iadm_fault::scenario::{self, KindFilter};
    use iadm_rng::{Rng, StdRng};
    use iadm_topology::Link;

    /// The per-entry oracle: the packed entry for `(stage, sw, t)`
    /// derived from the connection function and two map lookups.
    fn entry_for(stage: usize, sw: usize, t: usize, blockages: &BlockageMap) -> LutEntry {
        let c = delta_c_kind(sw, stage, t);
        let mut packed = c.index() as u8;
        if c == LinkKind::Straight {
            packed |= LutEntry::STRAIGHT;
        }
        if blockages.is_free(Link::new(stage, sw, c)) {
            packed |= LutEntry::C_FREE;
        }
        if blockages.is_free(Link::new(stage, sw, c.opposite())) {
            packed |= LutEntry::CBAR_FREE;
        }
        LutEntry(packed)
    }

    #[test]
    fn per_switch_build_equals_the_per_entry_oracle() {
        // Exhaustive over every (stage, switch, t) for every size up to
        // N = 1024, under random fault maps of increasing density.
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        for log in 1..=10 {
            let size = Size::new(1 << log).unwrap();
            for faults in [0usize, 1, 5, 40] {
                let faults = faults.min(Link::slot_count(size));
                let map = scenario::random_faults(&mut rng, size, faults, KindFilter::Any);
                let lut = RouteLut::new(size, &map);
                for stage in size.stage_indices() {
                    for sw in size.switches() {
                        for t in 0..2 {
                            assert_eq!(
                                lut.entry(stage, sw, t),
                                entry_for(stage, sw, t, &map),
                                "N={} faults={faults} stage={stage} sw={sw} t={t}",
                                size.n()
                            );
                        }
                    }
                }
                assert!(lut.matches(&map));
            }
        }
    }

    #[test]
    fn figure4_table_matches_route_kind_exhaustively() {
        for n in [2usize, 4, 8, 16, 32] {
            let size = Size::new(n).unwrap();
            for stage in size.stage_indices() {
                for j in size.switches() {
                    for t in 0..2 {
                        for state in [SwitchState::C, SwitchState::Cbar] {
                            assert_eq!(
                                kind_for(bit(j, stage), t, state),
                                route_kind(j, stage, t, state),
                                "n={n} stage={stage} j={j} t={t} {state:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn entries_match_connection_functions() {
        let size = Size::new(16).unwrap();
        let lut = RouteLut::new(size, &BlockageMap::new(size));
        for stage in size.stage_indices() {
            for sw in size.switches() {
                for t in 0..2 {
                    let e = lut.entry(stage, sw, t);
                    assert_eq!(e.c_kind(), delta_c_kind(sw, stage, t));
                    assert_eq!(e.cbar_kind(), delta_cbar_kind(sw, stage, t));
                    assert_eq!(e.is_straight(), e.c_kind() == LinkKind::Straight);
                    assert!(e.c_free() && e.cbar_free(), "fault-free map");
                }
            }
        }
    }

    #[test]
    fn blockage_flags_mirror_the_map() {
        let size = Size::new(32).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let blockages = scenario::random_faults(&mut rng, size, 40, KindFilter::Any);
        let lut = RouteLut::new(size, &blockages);
        for stage in size.stage_indices() {
            for sw in size.switches() {
                for t in 0..2 {
                    let e = lut.entry(stage, sw, t);
                    assert_eq!(
                        e.c_free(),
                        blockages.is_free(Link::new(stage, sw, e.c_kind()))
                    );
                    assert_eq!(
                        e.cbar_free(),
                        blockages.is_free(Link::new(stage, sw, e.cbar_kind()))
                    );
                }
            }
        }
    }

    #[test]
    fn straight_entries_tie_both_freedom_flags_together() {
        // A straight-bound entry's two "candidates" are the same physical
        // straight link, so the flags must always agree.
        let size = Size::new(8).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for faults in [0usize, 5, 20, 72] {
            let blockages = scenario::random_faults(&mut rng, size, faults, KindFilter::Any);
            let lut = RouteLut::new(size, &blockages);
            for stage in size.stage_indices() {
                for sw in size.switches() {
                    for t in 0..2 {
                        let e = lut.entry(stage, sw, t);
                        if e.is_straight() {
                            assert_eq!(e.c_free(), e.cbar_free());
                            assert_eq!(e.cbar_kind(), LinkKind::Straight);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_switch_matches_a_fresh_build() {
        // Walk a random block/unblock sequence, refreshing only the
        // touched switch each step; the incrementally-patched table must
        // stay identical to a from-scratch rebuild at every step.
        let size = Size::new(16).unwrap();
        let mut map = BlockageMap::new(size);
        let mut lut = RouteLut::new(size, &map);
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        for step in 0..200 {
            let stage = rng.gen_range(0..size.stages());
            let sw = rng.gen_range(0..size.n());
            let kind = LinkKind::from_index(rng.gen_range(0..3));
            let link = Link::new(stage, sw, kind);
            if rng.gen_bool(0.5) {
                map.block(link);
            } else {
                map.unblock(link);
            }
            lut.refresh_switch(stage, sw, &map);
            let fresh = RouteLut::new(size, &map);
            for s in size.stage_indices() {
                for j in size.switches() {
                    for t in 0..2 {
                        assert_eq!(
                            lut.entry(s, j, t),
                            fresh.entry(s, j, t),
                            "step {step}: stale entry at stage {s} switch {j} t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refresh_switch_survives_fail_repair_fail_cycles_on_one_link() {
        // The repair-aware sender path leans on this exactly: a link
        // that fails, is repaired, and fails again is patched through
        // three targeted refreshes of the same switch, and after every
        // transition the table must equal a from-scratch build — no
        // residue from the earlier states of that entry. Run the cycle
        // over every link of a switch, with a second unrelated fault
        // held blocked throughout so the refreshed entry is rebuilt
        // against a non-trivial map.
        let size = Size::new(16).unwrap();
        let mut map = BlockageMap::new(size);
        let bystander = Link::minus(2, 5);
        map.block(bystander);
        let mut lut = RouteLut::new(size, &map);
        lut.refresh_switch(2, 5, &map);
        let (stage, sw) = (1, 3);
        for kind_idx in 0..3 {
            let link = Link::new(stage, sw, LinkKind::from_index(kind_idx));
            for (phase, blocked) in [
                ("fail", true),
                ("repair", false),
                ("refail", true),
                ("final repair", false),
            ] {
                if blocked {
                    map.block(link);
                } else {
                    map.unblock(link);
                }
                lut.refresh_switch(stage, sw, &map);
                let fresh = RouteLut::new(size, &map);
                for s in size.stage_indices() {
                    for j in size.switches() {
                        for t in 0..2 {
                            assert_eq!(
                                lut.entry(s, j, t),
                                fresh.entry(s, j, t),
                                "{link}: stale entry after {phase} at stage {s} switch {j} t {t}"
                            );
                        }
                    }
                }
            }
        }
        // The bystander fault never moved, and the table still sees it.
        assert!(lut.matches(&map));
        assert!(map.is_blocked(bystander));
    }

    #[test]
    fn matches_tracks_the_blockage_map_exactly() {
        let size = Size::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(0xBA5E);
        let map = scenario::random_faults(&mut rng, size, 10, KindFilter::Any);
        let lut = RouteLut::new(size, &map);
        assert!(lut.matches(&map));
        // Any divergence — a different map or a different size — is seen.
        let mut other = map.clone();
        other.unblock(*map.blocked_links().first().unwrap());
        assert!(!lut.matches(&other));
        assert!(!lut.matches(&BlockageMap::new(Size::new(8).unwrap())));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn refresh_rejects_size_mismatch() {
        let size = Size::new(8).unwrap();
        let mut lut = RouteLut::new(size, &BlockageMap::new(size));
        lut.refresh_switch(0, 0, &BlockageMap::new(Size::new(16).unwrap()));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_is_rejected() {
        let _ = RouteLut::new(
            Size::new(8).unwrap(),
            &BlockageMap::new(Size::new(16).unwrap()),
        );
    }
}
