//! Algorithm REROUTE: universal rerouting for multiple blockages
//! (paper, Section 5).
//!
//! REROUTE iterates over the blockages of the current routing path from the
//! lowest-order stage upward. A single nonstraight blockage is evaded in
//! O(1) by Corollary 4.1 (complement one state bit); straight and double
//! nonstraight blockages invoke [`crate::backtrack::backtrack`].
//! Each iteration yields a path that is blockage-free through a strictly
//! larger stage, so the loop terminates in at most `n` iterations with
//! either a blockage-free tag or a proof that none exists.

use crate::backtrack::{backtrack, backtrack_measured, BoundedFail, FailReason};
use crate::connect::route_kind;
use crate::route::trace_tsdt;
use crate::tsdt::TsdtTag;
use core::fmt;
use iadm_fault::BlockageMap;
use iadm_topology::{Link, Size};

/// Error returned by [`reroute`]: no blockage-free path exists between the
/// source and the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerouteError {
    /// The BACKTRACK FAIL condition that proved the absence of a path.
    pub reason: FailReason,
    /// Source switch of the failed routing attempt.
    pub source: usize,
    /// Destination switch of the failed routing attempt.
    pub dest: usize,
}

impl fmt::Display for RerouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no blockage-free path from {} to {}: {}",
            self.source, self.dest, self.reason
        )
    }
}

impl std::error::Error for RerouteError {}

/// **Algorithm REROUTE**: computes a TSDT tag whose routing path from
/// `source` to `dest` avoids every blockage in `blockages`, starting from
/// the initial all-`C` tag (the embedded-ICube path).
///
/// This is the paper's *universal rerouting algorithm*: it "finds a
/// blockage-free path for any combination of multiple blockages if there
/// exists such a path, and indicates absence of such a path if there exists
/// none".
///
/// # Errors
///
/// Returns [`RerouteError`] exactly when no blockage-free path exists.
///
/// # Panics
///
/// Panics if `source` or `dest` is `>= N`.
///
/// # Example
///
/// ```
/// use iadm_core::reroute::reroute;
/// use iadm_core::route::trace_tsdt;
/// use iadm_fault::BlockageMap;
/// use iadm_topology::{Link, Size};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let size = Size::new(8)?;
/// let mut blockages = BlockageMap::new(size);
/// blockages.block(Link::minus(0, 1));
/// blockages.block(Link::straight(1, 2)); // also block a straight link
/// let tag = reroute(size, &blockages, 1, 0)?;
/// assert!(blockages.path_is_free(&trace_tsdt(size, 1, &tag)));
/// # Ok(())
/// # }
/// ```
pub fn reroute(
    size: Size,
    blockages: &BlockageMap,
    source: usize,
    dest: usize,
) -> Result<TsdtTag, RerouteError> {
    reroute_from(blockages, source, TsdtTag::new(size, dest))
}

/// Why a budget-limited reroute gave up (see [`reroute_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedRerouteError {
    /// No blockage-free path exists at all.
    NoPath(RerouteError),
    /// A path may exist, but finding it requires deeper backtracking than
    /// the dynamic implementation's budget allows.
    BudgetExceeded {
        /// The backtrack distance that was needed.
        needed: usize,
    },
}

impl fmt::Display for BoundedRerouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundedRerouteError::NoPath(e) => write!(f, "{e}"),
            BoundedRerouteError::BudgetExceeded { needed } => {
                write!(f, "needs {needed}-stage backtracking, beyond the budget")
            }
        }
    }
}

impl std::error::Error for BoundedRerouteError {}

/// REROUTE under a *backtrack budget*, modeling the paper's dynamic
/// (in-network) implementation where "each switch can detect the
/// inaccessibility of any output port … and signal the presence of the
/// blockage back to the switches of previous stages" only so far.
///
/// * `max_backtrack = 0` — only Corollary 4.1 state flips: exactly the
///   SSDT scheme's power.
/// * `max_backtrack = 1` — single-stage backtracking: the dynamic O(1)
///   case the paper contrasts with \[10\]'s look-ahead.
/// * `max_backtrack >= n` — full sender-side REROUTE (universal).
///
/// On success returns the tag plus the deepest backtrack distance any
/// blockage required.
///
/// # Errors
///
/// [`BoundedRerouteError::NoPath`] when provably disconnected;
/// [`BoundedRerouteError::BudgetExceeded`] when the budget was the binding
/// constraint.
pub fn reroute_bounded(
    size: Size,
    blockages: &BlockageMap,
    source: usize,
    dest: usize,
    max_backtrack: usize,
) -> Result<(TsdtTag, usize), BoundedRerouteError> {
    assert!(source < size.n(), "source {source} out of range for {size}");
    let mut tag = TsdtTag::new(size, dest);
    let mut last_resolved: Option<usize> = None;
    let mut max_used = 0usize;
    loop {
        let Some(blocked) = first_blockage(blockages, source, &tag) else {
            return Ok((tag, max_used));
        };
        let i = blocked.stage;
        if let Some(prev) = last_resolved {
            assert!(i > prev, "bounded REROUTE failed to make progress");
        }
        last_resolved = Some(i);
        if blocked.kind.is_nonstraight() && blockages.is_free(blocked.opposite()) {
            tag = tag.corollary_4_1(i);
        } else {
            let path = trace_tsdt(size, source, &tag);
            match backtrack_measured(blockages, &path, i, tag, max_backtrack) {
                Ok((new_tag, used)) => {
                    tag = new_tag;
                    max_used = max_used.max(used);
                }
                Err(BoundedFail::NoPath(reason)) => {
                    return Err(BoundedRerouteError::NoPath(RerouteError {
                        reason,
                        source,
                        dest,
                    }))
                }
                Err(BoundedFail::BudgetExceeded { needed }) => {
                    return Err(BoundedRerouteError::BudgetExceeded { needed })
                }
            }
        }
    }
}

/// Like [`reroute`] but starting from an arbitrary initial tag (step 0 of
/// the paper's algorithm takes the original routing tag as input).
///
/// # Errors
///
/// Returns [`RerouteError`] exactly when no blockage-free path exists.
pub fn reroute_from(
    blockages: &BlockageMap,
    source: usize,
    tag: TsdtTag,
) -> Result<TsdtTag, RerouteError> {
    let size = tag.size();
    assert!(source < size.n(), "source {source} out of range for {size}");
    let mut tag = tag;
    // Each iteration pushes the first blocked stage strictly higher, so n
    // iterations suffice; the guard detects broken invariants.
    let mut last_resolved: Option<usize> = None;
    loop {
        // Steps 0/4 and 1: the smallest blocked stage on the path P the
        // current tag specifies; none means success.
        let Some(blocked) = first_blockage(blockages, source, &tag) else {
            return Ok(tag);
        };
        let i = blocked.stage;
        if let Some(prev) = last_resolved {
            assert!(
                i > prev,
                "REROUTE failed to make progress at stage {i} (previously {prev})"
            );
        }
        last_resolved = Some(i);

        if blocked.kind.is_nonstraight() && blockages.is_free(blocked.opposite()) {
            // Step 2: single nonstraight blockage -> Corollary 4.1.
            tag = tag.corollary_4_1(i);
        } else {
            // Step 3: straight or double nonstraight -> BACKTRACK, the
            // one step that needs P itself.
            let path = trace_tsdt(size, source, &tag);
            tag = backtrack(blockages, &path, i, tag).map_err(|reason| RerouteError {
                reason,
                source,
                dest: tag.dest(),
            })?;
        }
    }
}

/// The first blocked link on the path `tag` specifies from `source`:
/// `blockages.first_blockage_on(&trace_tsdt(size, source, tag))`, walked
/// stage by stage without building the path. The sender runs this once
/// per REROUTE iteration, for every packet it injects.
fn first_blockage(blockages: &BlockageMap, source: usize, tag: &TsdtTag) -> Option<Link> {
    if blockages.is_empty() {
        return None;
    }
    let size = tag.size();
    let mut sw = source;
    for stage in size.stage_indices() {
        let kind = route_kind(sw, stage, tag.dest_bit(stage), tag.switch_state(stage));
        let link = Link::new(stage, sw, kind);
        if blockages.is_blocked(link) {
            return Some(link);
        }
        sw = kind.target(size, stage, sw);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_fault::scenario::{self, KindFilter};
    use iadm_rng::StdRng;
    use iadm_topology::{Link, LinkKind};

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn no_blockages_returns_icube_tag() {
        let size = size8();
        let blockages = BlockageMap::new(size);
        for s in size.switches() {
            for d in size.switches() {
                let tag = reroute(size, &blockages, s, d).unwrap();
                assert_eq!(tag.state_bits(), 0, "unblocked network keeps state C");
                assert_eq!(trace_tsdt(size, s, &tag).destination(size), d);
            }
        }
    }

    #[test]
    fn figure7_sequential_blockages() {
        // The paper's running example: blocking (1∈S0,0∈S1) then
        // (2∈S1,0∈S2) yields tags 000100 then 000110.
        let size = size8();
        let mut blockages = BlockageMap::new(size);
        blockages.block(Link::minus(0, 1));
        let tag = reroute(size, &blockages, 1, 0).unwrap();
        assert_eq!(tag.to_string(), "000100");
        blockages.block(Link::minus(1, 2));
        let tag = reroute(size, &blockages, 1, 0).unwrap();
        assert_eq!(tag.to_string(), "000110");
        assert_eq!(trace_tsdt(size, 1, &tag).switches(size), vec![1, 2, 4, 0]);
    }

    #[test]
    fn every_single_link_blockage_is_handled() {
        // For every (s, d) pair and every single blocked link, REROUTE
        // either returns a valid free path or correctly proves none exists
        // (single-blockage ground truth: a free path exists unless the
        // blocked link is on the unique forced prefix, i.e. a straight
        // blockage with no preceding nonstraight participating link).
        let size = size8();
        for link in scenario::candidate_links(size, KindFilter::Any) {
            let blockages = iadm_fault::BlockageMap::from_links(size, [link]);
            for s in size.switches() {
                for d in size.switches() {
                    match reroute(size, &blockages, s, d) {
                        Ok(tag) => {
                            let path = trace_tsdt(size, s, &tag);
                            assert!(blockages.path_is_free(&path), "s={s} d={d} {link}");
                            assert_eq!(path.destination(size), d);
                        }
                        Err(_) => {
                            // With one blocked link, failure can only occur
                            // when the link is the forced straight prefix of
                            // the (s,d) pair: stages 0..k̂ are all straight.
                            let khat = crate::pivot::k_hat(size, s, d);
                            let forced = match khat {
                                None => size.stages(),
                                Some(k) => k,
                            };
                            assert_eq!(link.kind, LinkKind::Straight);
                            assert!(
                                link.stage < forced,
                                "s={s} d={d}: {link} is not on the forced prefix"
                            );
                            assert_eq!(link.from, s, "forced prefix stays on the source switch");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_random_blockages_never_return_invalid_paths() {
        let size = Size::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let count = (trial % 40) + 1;
            let blockages = scenario::random_faults(&mut rng, size, count, KindFilter::Any);
            for s in [0usize, 5, 11] {
                for d in [3usize, 8, 15] {
                    if let Ok(tag) = reroute(size, &blockages, s, d) {
                        let path = trace_tsdt(size, s, &tag);
                        assert!(blockages.path_is_free(&path));
                        assert_eq!(path.destination(size), d);
                    }
                }
            }
        }
    }

    #[test]
    fn totally_blocked_network_fails() {
        let size = size8();
        let mut rng = StdRng::seed_from_u64(1);
        let blockages = scenario::bernoulli_faults(&mut rng, size, 1.0, KindFilter::Any);
        for s in size.switches() {
            for d in size.switches() {
                assert!(reroute(size, &blockages, s, d).is_err());
            }
        }
    }

    #[test]
    fn error_reports_source_and_destination() {
        let size = size8();
        let mut blockages = BlockageMap::new(size);
        blockages.block(Link::straight(0, 5));
        let err = reroute(size, &blockages, 5, 5).unwrap_err();
        assert_eq!(err.source, 5);
        assert_eq!(err.dest, 5);
        assert!(err.to_string().contains("no blockage-free path"));
    }
}

#[cfg(test)]
mod walk_tests {
    use super::*;

    /// REROUTE as it was before the first blockage was found by walking
    /// the tag: every iteration traces the whole path and searches it.
    fn reroute_traced(
        size: Size,
        blockages: &BlockageMap,
        source: usize,
        dest: usize,
    ) -> Result<TsdtTag, RerouteError> {
        let mut tag = TsdtTag::new(size, dest);
        let mut path = trace_tsdt(size, source, &tag);
        let mut last_resolved: Option<usize> = None;
        loop {
            let Some(blocked) = blockages.first_blockage_on(&path) else {
                return Ok(tag);
            };
            let i = blocked.stage;
            if let Some(prev) = last_resolved {
                assert!(i > prev);
            }
            last_resolved = Some(i);
            let kind = path.kind_at(i);
            if kind.is_nonstraight() && blockages.is_free(blocked.opposite()) {
                tag = tag.corollary_4_1(i);
            } else {
                tag = backtrack(blockages, &path, i, tag).map_err(|reason| RerouteError {
                    reason,
                    source,
                    dest: tag.dest(),
                })?;
            }
            path = trace_tsdt(size, source, &tag);
        }
    }

    iadm_check::check! {
        /// The walking REROUTE returns exactly what the path-tracing one
        /// does, tag or error, for every (s, d) pair under random maps
        /// with 1-40% of the links blocked (many of them disconnecting
        /// some pairs).
        fn walking_reroute_equals_the_traced_loop(g; cases = 24) {
            let size = Size::new([8, 16, 64][g.usize_in(0..=2)]).expect("power of two");
            let share = g.usize_in(1..=40) as f64 / 100.0;
            let mut rng = g.rng();
            let blockages = iadm_fault::scenario::bernoulli_faults(
                &mut rng,
                size,
                share,
                iadm_fault::scenario::KindFilter::Any,
            );
            for s in size.switches() {
                for d in size.switches() {
                    iadm_check::check_assert_eq!(
                        reroute(size, &blockages, s, d),
                        reroute_traced(size, &blockages, s, d),
                        "s={s} d={d}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod bounded_tests {
    use super::*;
    use crate::ssdt;
    use crate::NetworkState;
    use iadm_fault::scenario::{self, KindFilter};
    use iadm_rng::StdRng;
    use iadm_topology::Link;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn unbounded_budget_matches_reroute_exactly() {
        let size = Size::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        for trial in 0..100 {
            let blockages =
                scenario::random_faults(&mut rng, size, 1 + trial % 25, KindFilter::Any);
            for s in size.switches() {
                for d in size.switches() {
                    let full = reroute(size, &blockages, s, d);
                    let bounded = reroute_bounded(size, &blockages, s, d, size.stages());
                    match (full, bounded) {
                        (Ok(a), Ok((b, _))) => assert_eq!(a, b),
                        (Err(_), Err(BoundedRerouteError::NoPath(_))) => {}
                        (a, b) => panic!("mismatch s={s} d={d}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn budget_zero_equals_ssdt_power() {
        // With no backtracking allowed, the bounded reroute succeeds
        // exactly when SSDT's state flips suffice.
        let size = size8();
        let mut rng = StdRng::seed_from_u64(62);
        for trial in 0..200 {
            let blockages =
                scenario::random_faults(&mut rng, size, 1 + trial % 15, KindFilter::Any);
            for s in size.switches() {
                for d in size.switches() {
                    let bounded = reroute_bounded(size, &blockages, s, d, 0).is_ok();
                    let mut state = NetworkState::all_c(size);
                    let ssdt_ok = ssdt::route(size, &blockages, &mut state, s, d).is_ok();
                    assert_eq!(bounded, ssdt_ok, "s={s} d={d} trial={trial}");
                }
            }
        }
    }

    #[test]
    fn success_is_monotone_in_budget() {
        let size = size8();
        let mut rng = StdRng::seed_from_u64(63);
        for trial in 0..100 {
            let blockages =
                scenario::random_faults(&mut rng, size, 1 + trial % 20, KindFilter::Any);
            for s in size.switches() {
                for d in size.switches() {
                    let mut prev_ok = false;
                    for budget in 0..=size.stages() {
                        let ok = reroute_bounded(size, &blockages, s, d, budget).is_ok();
                        assert!(
                            !prev_ok || ok,
                            "success must be monotone in budget (s={s} d={d})"
                        );
                        prev_ok = ok;
                    }
                }
            }
        }
    }

    #[test]
    fn reported_depth_is_tight() {
        // The reported max depth succeeds as a budget; one less fails.
        let size = size8();
        let mut blockages = BlockageMap::new(size);
        // Straight blockage two stages above the last nonstraight:
        // path 1 -> 0 via (1,0,0,0); block straight(2,0): k = 2.
        blockages.block(Link::straight(2, 0));
        let (_, depth) = reroute_bounded(size, &blockages, 1, 0, size.stages()).unwrap();
        assert_eq!(depth, 2);
        assert!(reroute_bounded(size, &blockages, 1, 0, 2).is_ok());
        assert_eq!(
            reroute_bounded(size, &blockages, 1, 0, 1),
            Err(BoundedRerouteError::BudgetExceeded { needed: 2 })
        );
    }

    #[test]
    fn fault_free_needs_no_budget() {
        let size = size8();
        let blockages = BlockageMap::new(size);
        for s in size.switches() {
            for d in size.switches() {
                let (_, depth) = reroute_bounded(size, &blockages, s, d, 0).unwrap();
                assert_eq!(depth, 0);
            }
        }
    }
}
