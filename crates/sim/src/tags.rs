//! The sender-side TSDT tag cache: memoized REROUTE outcomes, one
//! direct-mapped line per `(source, dest mod SLOTS)`.

use iadm_topology::Size;
use std::mem::size_of;

/// How the sender-side TSDT tag cache reacts to a link *repair* event
/// ([`Simulator::with_tag_repair`](crate::Simulator::with_tag_repair)).
/// Failures always invalidate the whole cache — a stale tag could steer
/// straight into the new fault — but a repair only ever *unblocks*
/// paths, so the two modes differ in how quickly senders rediscover
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TagRepair {
    /// Repairs lazily invalidate exactly the affected lines (refusals and
    /// bent tags, which a wider map could improve); clean all-C tags are
    /// repair-invariant and keep hitting. Byte-identical routing behavior
    /// to a full invalidation on repair — see DESIGN.md §13 — at O(1)
    /// per event and per lookup. The default.
    #[default]
    Aware,
    /// Repairs do not touch the cache: senders replay stale refusals and
    /// bent tags until the *next failure's* epoch turnover recomputes
    /// them. Still correct (a stale outcome never routes into a fault —
    /// the map only got wider) but slower to recover; the E20 baseline.
    Blind,
}

/// A direct-mapped cache of sender-computed TSDT tags, one way per
/// `(source, dest mod SLOTS)` line. REROUTE is a pure function of the
/// blockage map and the `(source, dest)` pair, so a hit replays the
/// stored outcome — including the "provably disconnected, refuse at the
/// source" case — without rerunning the algorithm. Every line is stamped
/// with the *map epoch* it was computed under; a transient link failure
/// bumps the epoch ([`TagCache::invalidate_all`], O(1)), so tags derived
/// from a superseded map can never be replayed (a stale tag could steer
/// straight into the new fault, which would be a misroute or a bogus
/// drop). Link *repairs* only widen the map, so they advance a separate
/// repair epoch instead ([`TagCache::note_repair`]): clean all-C tags —
/// REROUTE starts from the all-C default path and only bends it around
/// blockages, so a tag with zero state bits proves that path was already
/// free — stay valid forever, while refusals and bent tags from before
/// the repair miss lazily and recompute ([`Lookup::RepairStale`]).
///
/// Footprint: `N · min(N, 256)` lines of 16 bytes — 4 MiB at N = 1024,
/// 32 MiB at N = 8192. Both epochs are `u32`: they advance only on the
/// run's timeline fail/repair events, and [`TagCache::prepare`] rejects
/// a timeline of `u32::MAX` events or more, so neither can wrap.
///
/// The lines outlive a run when the simulator's buffers are reused
/// ([`SimScratch`](crate::SimScratch)): each run starts at a map epoch
/// above every epoch stamped before, so an earlier run's line can only
/// miss, exactly like a cold one.
#[derive(Debug, Default)]
pub(crate) struct TagCache {
    /// Cache lines per source (a power of two; 0 when the cache is off).
    slots: usize,
    /// The current blockage-map version; lines from older epochs miss.
    /// At least 1 during a run, so an all-zero (cold) line always misses.
    epoch: u32,
    /// The current repair version; lines from older repair epochs miss
    /// when their outcome could have improved. Frozen under
    /// [`TagRepair::Blind`].
    repair_epoch: u32,
    /// Whether repair events advance `repair_epoch`.
    pub(crate) repair: TagRepair,
    /// `sources * slots` lines.
    lines: Vec<TagLine>,
}

/// One [`TagCache`] line: the destination and both epochs it was
/// computed under, and the outcome — the REROUTE state bits, or
/// [`TagCache::REFUSED`] for a cached refusal (provably disconnected).
/// A state word has one bit per stage (≤ 31 bits), so the sentinel is
/// unreachable, as with [`Packet`](crate::Packet)'s `NO_TAG`.
#[derive(Debug, Clone, Copy, Default)]
struct TagLine {
    dest: u32,
    epoch: u32,
    repair: u32,
    state: u32,
}

const _: () = assert!(size_of::<TagLine>() == 16);

/// One [`TagCache::lookup`] result.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The line holds a valid outcome for this `(source, dest)` pair:
    /// the tag's state bits, or `None` for a refusal.
    Hit(Option<u32>),
    /// Cold line, conflicting destination, or a superseded map epoch.
    Miss,
    /// The line's refusal or bent tag predates a repair that could have
    /// improved it — the repair-aware re-tag trigger
    /// (`retags_on_repair`).
    RepairStale,
}

impl TagCache {
    /// Lines per source: the whole destination space for small networks,
    /// capped at 256 so the cache grows as `16 · 256 · N` bytes beyond.
    const MAX_SLOTS: usize = 256;

    /// The `state` of a line caching a refusal.
    const REFUSED: u32 = u32::MAX;

    /// Readies the cache for a run over `size` whose timeline holds
    /// `events` fail/repair events: cold for every lookup, with the
    /// default repair mode. `on` is whether the run's policy consults
    /// the cache; when it does not, the lines are released.
    ///
    /// The map epoch moves past every epoch an earlier run stamped, so
    /// lines left from it miss. They are zeroed only when this run's
    /// failures could carry the epoch past `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `on` and `events >= u32::MAX`: the epochs could then
    /// wrap.
    pub(crate) fn prepare(&mut self, size: Size, events: usize, on: bool) {
        assert!(
            !on || events < u32::MAX as usize,
            "{events} timeline events overflow the tag cache's 32-bit epochs"
        );
        if events >= (u32::MAX - self.epoch) as usize {
            self.lines.fill(TagLine::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.repair_epoch = 0;
        self.repair = TagRepair::default();
        if !on {
            // Not held through a run that never reads it.
            self.slots = 0;
            self.lines = Vec::new();
            return;
        }
        self.slots = size.n().min(Self::MAX_SLOTS);
        // Grow only: a line past this run's range is never indexed.
        let lines = size.n() * self.slots;
        if self.lines.len() < lines {
            self.lines.resize(lines, TagLine::default());
        }
    }

    #[inline]
    fn line(&self, source: usize, dest: usize) -> usize {
        source * self.slots + (dest & (self.slots - 1))
    }

    #[inline]
    pub(crate) fn lookup(&self, source: usize, dest: usize) -> Lookup {
        let line = self.lines[self.line(source, dest)];
        if line.dest as usize != dest || line.epoch != self.epoch {
            return Lookup::Miss;
        }
        // A clean tag (zero state bits) pins the blockage-free all-C path
        // REROUTE starts from; no amount of repair changes what it would
        // recompute. Anything else could improve under a wider map.
        if line.repair == self.repair_epoch || line.state == 0 {
            Lookup::Hit((line.state != Self::REFUSED).then_some(line.state))
        } else {
            Lookup::RepairStale
        }
    }

    /// Stores the outcome for `(source, dest)`: the tag's state bits, or
    /// `None` for a refusal.
    #[inline]
    pub(crate) fn put(&mut self, source: usize, dest: usize, outcome: Option<u32>) {
        debug_assert_ne!(outcome, Some(Self::REFUSED), "state word hit the sentinel");
        let line = self.line(source, dest);
        self.lines[line] = TagLine {
            dest: dest as u32,
            epoch: self.epoch,
            repair: self.repair_epoch,
            state: outcome.unwrap_or(Self::REFUSED),
        };
    }

    /// Invalidates every line by advancing the map epoch — called when a
    /// link *fails* mid-run (the map narrowed; every cached outcome is
    /// suspect).
    #[inline]
    pub(crate) fn invalidate_all(&mut self) {
        self.epoch += 1;
    }

    /// Notes a link *repair* (the map widened): advances the repair
    /// epoch, lazily invalidating exactly the lines whose outcome could
    /// have improved. A no-op under [`TagRepair::Blind`].
    #[inline]
    pub(crate) fn note_repair(&mut self) {
        if self.repair == TagRepair::Aware {
            self.repair_epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_check::Gen;
    use iadm_core::TsdtTag;

    /// A reference-model line: `(dest, epoch, repair_epoch, outcome)`,
    /// 56 bytes behind its `Option`.
    type WideLine = (u32, u64, u64, Option<TsdtTag>);

    /// The reference model: the cache as it was before its lines were
    /// packed, with `Option` lines holding the outcome as an
    /// `Option<TsdtTag>` and `u64` epochs starting at 0.
    struct WideCache {
        size: Size,
        slots: usize,
        epoch: u64,
        repair_epoch: u64,
        repair: TagRepair,
        lines: Vec<Option<WideLine>>,
    }

    impl WideCache {
        fn new(size: Size, repair: TagRepair) -> Self {
            let slots = size.n().min(256);
            WideCache {
                size,
                slots,
                epoch: 0,
                repair_epoch: 0,
                repair,
                lines: vec![None; size.n() * slots],
            }
        }

        fn line(&self, source: usize, dest: usize) -> usize {
            source * self.slots + (dest & (self.slots - 1))
        }

        fn lookup(&self, source: usize, dest: usize) -> Lookup {
            match self.lines[self.line(source, dest)] {
                Some((d, epoch, repaired, outcome))
                    if d as usize == dest && epoch == self.epoch =>
                {
                    if repaired == self.repair_epoch
                        || matches!(outcome, Some(tag) if tag.state_bits() == 0)
                    {
                        Lookup::Hit(outcome.map(|tag| tag.state_bits() as u32))
                    } else {
                        Lookup::RepairStale
                    }
                }
                _ => Lookup::Miss,
            }
        }

        fn put(&mut self, source: usize, dest: usize, outcome: Option<u32>) {
            let tag = outcome.map(|bits| TsdtTag::with_state(self.size, dest, bits as usize));
            let line = self.line(source, dest);
            self.lines[line] = Some((dest as u32, self.epoch, self.repair_epoch, tag));
        }
    }

    /// A hot index in `0..=3` most of the time (so lines collide and
    /// are re-read), otherwise anything below `n`.
    fn pick(g: &mut Gen, n: usize) -> usize {
        if g.bool_with(0.7) {
            g.usize_in(0..=3)
        } else {
            g.usize_in(0..=n - 1)
        }
    }

    /// A cold cache for `size` that the policy consults.
    fn cold(size: Size, events: usize) -> TagCache {
        let mut cache = TagCache::default();
        cache.prepare(size, events, true);
        cache
    }

    iadm_check::check! {
        /// The packed cache answers every lookup exactly as the wide
        /// reference does, after the same random sequence of puts
        /// (refusals, clean and bent tags), failures and repairs, under
        /// both repair modes, at N = 8 (a line per destination) and
        /// N = 512 (256 lines, so `d` and `d + 256` conflict). Cold
        /// lines are read from the first operation on: a packed cache
        /// whose map epoch started at 0 would hit them.
        fn packed_cache_equals_the_wide_reference(g; cases = 256) {
            let size = Size::new(if g.bool_with(0.5) { 8 } else { 512 }).expect("power of two");
            let n = size.n();
            let repair = if g.bool_with(0.5) { TagRepair::Aware } else { TagRepair::Blind };
            // A cache that served earlier runs, possibly at the other
            // size, answers like a new one.
            let mut packed = TagCache::default();
            for _ in 0..g.usize_in(0..=2) {
                let earlier = Size::new(if g.bool_with(0.5) { 8 } else { 512 }).expect("power of two");
                let m = earlier.n();
                packed.prepare(earlier, 0, true);
                for _ in 0..g.usize_in(0..=50) {
                    let (source, dest) = (g.usize_in(0..=m - 1), g.usize_in(0..=m - 1));
                    packed.put(source, dest, Some(g.u32_in(0..=m as u32 - 1)));
                    if g.bool_with(0.1) {
                        packed.invalidate_all();
                    }
                }
            }
            packed.prepare(size, 0, true);
            packed.repair = repair;
            let mut wide = WideCache::new(size, repair);
            for _ in 0..g.usize_in(1..=200) {
                let source = pick(g, n);
                // `dest mod 256` collides between the hot destinations.
                let dest = (pick(g, n) + 256 * g.usize_in(0..=1)) % n;
                match g.u32_in(0..=9) {
                    0..=3 => iadm_check::check_assert_eq!(
                        packed.lookup(source, dest),
                        wide.lookup(source, dest),
                        "lookup({source}, {dest})"
                    ),
                    4..=6 => {
                        let outcome = match g.u32_in(0..=2) {
                            0 => None,
                            1 => Some(0),
                            _ => Some(g.u32_in(1..=n as u32 - 1)),
                        };
                        packed.put(source, dest, outcome);
                        wide.put(source, dest, outcome);
                    }
                    7 => {
                        packed.invalidate_all();
                        wide.epoch += 1;
                    }
                    _ => {
                        packed.note_repair();
                        if wide.repair == TagRepair::Aware {
                            wide.repair_epoch += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lines_hold_16_bytes_per_slot() {
        let lines = |n| cold(Size::new(n).unwrap(), 0).lines.len() * size_of::<TagLine>();
        assert_eq!(lines(1024), 4 << 20);
        assert_eq!(lines(8192), 32 << 20);
    }

    #[test]
    #[should_panic(expected = "32-bit epochs")]
    fn a_timeline_that_could_wrap_an_epoch_is_rejected() {
        let _ = cold(Size::new(2).unwrap(), u32::MAX as usize);
    }

    #[test]
    fn lines_are_rezeroed_only_when_the_epoch_budget_runs_out() {
        let size = Size::new(8).unwrap();
        let mut cache = cold(size, 0);
        cache.put(1, 2, Some(3));
        // Enough budget: the epoch moves on and the line stays written.
        cache.epoch = u32::MAX - 11;
        cache.prepare(size, 10, true);
        assert_eq!(cache.epoch, u32::MAX - 10);
        assert_eq!(cache.lookup(1, 2), Lookup::Miss);
        assert_ne!(cache.lines[cache.line(1, 2)].epoch, 0);
        // One event more than the budget: every line back to zero.
        cache.put(1, 2, Some(3));
        cache.prepare(size, 10, true);
        assert_eq!(cache.epoch, 1);
        assert!(cache.lines.iter().all(|l| l.epoch == 0 && l.dest == 0));
        assert_eq!(cache.lookup(1, 2), Lookup::Miss);
    }

    #[test]
    fn a_cache_the_policy_does_not_consult_holds_no_lines() {
        let size = Size::new(1024).unwrap();
        let mut cache = cold(size, 0);
        cache.prepare(size, 5, false);
        assert_eq!(cache.lines.capacity(), 0);
        cache.prepare(size, u32::MAX as usize, false);
        assert_eq!(cache.epoch, 1);
    }
}
