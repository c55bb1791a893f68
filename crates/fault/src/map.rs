//! The global blockage map.

use iadm_topology::{Link, LinkKind, Path, Size};

/// Classification of the output-link blockage situation of one switch,
/// as seen by a routing path arriving at that switch (paper, Section 3).
///
/// For a given source/destination pair, the participating output links of a
/// switch are either its straight link alone or both nonstraight links but
/// never all three (Theorem 3.2), so these are the only cases a router must
/// distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputBlockage {
    /// The link the path wants to use is free.
    Free,
    /// The wanted nonstraight link is blocked but its opposite is free
    /// (rerouted by Corollary 4.1 / an SSDT state flip).
    Nonstraight,
    /// Both nonstraight output links are blocked (Theorem 3.4 backtracking).
    DoubleNonstraight,
    /// The straight output link is blocked (Theorem 3.3 backtracking).
    Straight,
}

/// The network controller's global map of blocked links — the knowledge the
/// paper assumes "accessible to every sender of the messages in order to
/// compute a path to avoid the blockages" (Section 5).
///
/// Links are tracked individually, so the degenerate last stage (where the
/// `+2^{n-1}` and `-2^{n-1}` links join the same switch pair) keeps two
/// independently blockable links, exactly as in the paper.
///
/// A *switch blockage* is modeled per the paper by blocking all of the
/// switch's input links; see [`BlockageMap::block_switch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockageMap {
    size: Size,
    blocked: Vec<bool>,
    count: usize,
}

impl BlockageMap {
    /// Creates an empty (all links free) map for a network of `size`.
    pub fn new(size: Size) -> Self {
        BlockageMap {
            size,
            blocked: vec![false; Link::slot_count(size)],
            count: 0,
        }
    }

    /// Creates a map with the given links blocked.
    pub fn from_links<I: IntoIterator<Item = Link>>(size: Size, links: I) -> Self {
        let mut map = BlockageMap::new(size);
        for link in links {
            map.block(link);
        }
        map
    }

    /// The network size this map covers.
    pub fn size(&self) -> Size {
        self.size
    }

    /// Marks `link` blocked. Returns whether it was previously free.
    pub fn block(&mut self, link: Link) -> bool {
        let idx = link.flat_index(self.size);
        let was_free = !self.blocked[idx];
        if was_free {
            self.blocked[idx] = true;
            self.count += 1;
        }
        was_free
    }

    /// Marks `link` free. Returns whether it was previously blocked.
    pub fn unblock(&mut self, link: Link) -> bool {
        let idx = link.flat_index(self.size);
        let was_blocked = self.blocked[idx];
        if was_blocked {
            self.blocked[idx] = false;
            self.count -= 1;
        }
        was_blocked
    }

    /// Is `link` blocked?
    #[inline]
    pub fn is_blocked(&self, link: Link) -> bool {
        self.blocked[link.flat_index(self.size)]
    }

    /// Is `link` free?
    #[inline]
    pub fn is_free(&self, link: Link) -> bool {
        !self.is_blocked(link)
    }

    /// Blocks a switch of stage `stage` (`1..=n`) by blocking all three of
    /// its input links at stage `stage - 1`, per the paper's transformation
    /// of switch blockages into link blockages.
    ///
    /// # Panics
    ///
    /// Panics if `stage == 0` (a stage-0 switch is a network input; remove
    /// the source instead) or `stage > n`.
    pub fn block_switch(&mut self, stage: usize, switch: usize) {
        assert!(
            (1..=self.size.stages()).contains(&stage),
            "switch blockage stage must be in 1..={}, got {stage}",
            self.size.stages()
        );
        let in_stage = stage - 1;
        for kind in LinkKind::ALL {
            let from = self.size.sub(switch, kind.delta(self.size, in_stage));
            self.block(Link::new(in_stage, from, kind));
        }
    }

    /// The blocked flag of every link slot, indexed by
    /// [`Link::flat_index`]: a switch's three output links are adjacent,
    /// in [`LinkKind::index`] order, and switches follow in
    /// `(stage, switch)` order.
    pub fn slots(&self) -> &[bool] {
        &self.blocked
    }

    /// Number of blocked links.
    pub fn blocked_count(&self) -> usize {
        self.count
    }

    /// Are there no blockages at all?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterator over all blocked links.
    pub fn blocked_links(&self) -> Vec<Link> {
        let mut result = Vec::with_capacity(self.count);
        for stage in self.size.stage_indices() {
            for from in self.size.switches() {
                for kind in LinkKind::ALL {
                    let link = Link::new(stage, from, kind);
                    if self.is_blocked(link) {
                        result.push(link);
                    }
                }
            }
        }
        result
    }

    /// The first (lowest-stage) blocked link on `path`, if any.
    ///
    /// This is the scan in step 1 of the paper's Algorithm REROUTE: "let `i`
    /// be the smallest stage number such that there exists a blockage at
    /// stage `i` on path `P`".
    pub fn first_blockage_on(&self, path: &Path) -> Option<Link> {
        path.links(self.size)
            .into_iter()
            .find(|&l| self.is_blocked(l))
    }

    /// Does `path` avoid every blocked link?
    pub fn path_is_free(&self, path: &Path) -> bool {
        self.first_blockage_on(path).is_none()
    }

    /// Classifies the blockage situation for a path that wants to leave
    /// switch `link.from` at stage `link.stage` through `link`
    /// (paper Section 3 taxonomy; see [`OutputBlockage`]).
    pub fn classify(&self, link: Link) -> OutputBlockage {
        if self.is_free(link) {
            return OutputBlockage::Free;
        }
        match link.kind {
            LinkKind::Straight => OutputBlockage::Straight,
            _ => {
                if self.is_blocked(link.opposite()) {
                    OutputBlockage::DoubleNonstraight
                } else {
                    OutputBlockage::Nonstraight
                }
            }
        }
    }

    /// Removes all blockages.
    pub fn clear(&mut self) {
        self.blocked.fill(false);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_topology::Path;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn slots_are_the_blocked_flags_in_flat_index_order() {
        let size = size8();
        let mut m = BlockageMap::new(size);
        m.block(Link::plus(1, 2));
        m.block(Link::straight(2, 7));
        assert_eq!(m.slots().len(), Link::slot_count(size));
        for stage in size.stage_indices() {
            for from in size.switches() {
                for kind in LinkKind::ALL {
                    let link = Link::new(stage, from, kind);
                    assert_eq!(m.slots()[link.flat_index(size)], m.is_blocked(link));
                }
            }
        }
    }

    #[test]
    fn block_unblock_round_trip() {
        let mut m = BlockageMap::new(size8());
        let l = Link::plus(1, 2);
        assert!(m.is_free(l));
        assert!(m.block(l));
        assert!(!m.block(l), "double-block reports already blocked");
        assert!(m.is_blocked(l));
        assert_eq!(m.blocked_count(), 1);
        assert!(m.unblock(l));
        assert!(!m.unblock(l));
        assert!(m.is_empty());
    }

    #[test]
    fn last_stage_links_block_independently() {
        let mut m = BlockageMap::new(size8());
        m.block(Link::plus(2, 0));
        assert!(m.is_blocked(Link::plus(2, 0)));
        assert!(
            m.is_free(Link::minus(2, 0)),
            "±2^{{n-1}} links are distinct"
        );
    }

    #[test]
    fn switch_blockage_blocks_all_inputs() {
        let mut m = BlockageMap::new(size8());
        m.block_switch(1, 0);
        // Inputs of 0 ∈ S1: straight from 0, plus from 7 (7+1=0), minus from 1.
        assert!(m.is_blocked(Link::straight(0, 0)));
        assert!(m.is_blocked(Link::plus(0, 7)));
        assert!(m.is_blocked(Link::minus(0, 1)));
        assert_eq!(m.blocked_count(), 3);
    }

    #[test]
    #[should_panic]
    fn switch_blockage_rejects_stage_zero() {
        BlockageMap::new(size8()).block_switch(0, 0);
    }

    #[test]
    fn first_blockage_scans_in_stage_order() {
        let mut m = BlockageMap::new(size8());
        let path = Path::new(1, vec![LinkKind::Plus, LinkKind::Plus, LinkKind::Plus]);
        // Path links: (0,1,+), (1,2,+), (2,4,+)
        m.block(Link::plus(2, 4));
        m.block(Link::plus(1, 2));
        assert_eq!(m.first_blockage_on(&path), Some(Link::plus(1, 2)));
        assert!(!m.path_is_free(&path));
        m.unblock(Link::plus(1, 2));
        assert_eq!(m.first_blockage_on(&path), Some(Link::plus(2, 4)));
        m.unblock(Link::plus(2, 4));
        assert!(m.path_is_free(&path));
    }

    #[test]
    fn classify_matches_paper_taxonomy() {
        let mut m = BlockageMap::new(size8());
        let plus = Link::plus(1, 2);
        let minus = Link::minus(1, 2);
        let straight = Link::straight(1, 2);

        assert_eq!(m.classify(plus), OutputBlockage::Free);
        m.block(plus);
        assert_eq!(m.classify(plus), OutputBlockage::Nonstraight);
        m.block(minus);
        assert_eq!(m.classify(plus), OutputBlockage::DoubleNonstraight);
        assert_eq!(m.classify(minus), OutputBlockage::DoubleNonstraight);
        m.block(straight);
        assert_eq!(m.classify(straight), OutputBlockage::Straight);
    }

    #[test]
    fn blocked_links_reports_everything_once() {
        let mut m = BlockageMap::new(size8());
        let links = [Link::plus(0, 0), Link::minus(2, 5), Link::straight(1, 3)];
        for l in links {
            m.block(l);
        }
        let mut reported = m.blocked_links();
        reported.sort();
        let mut expected = links.to_vec();
        expected.sort();
        assert_eq!(reported, expected);
    }

    #[test]
    fn link_list_round_trip() {
        // A map is fully described by its size and blocked-link list, so
        // any serializer that records those round-trips exactly.
        let mut m = BlockageMap::new(size8());
        m.block(Link::plus(0, 3));
        m.block(Link::straight(2, 7));
        let back = BlockageMap::from_links(m.size(), m.blocked_links());
        assert_eq!(m, back);
    }
}
