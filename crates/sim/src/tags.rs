//! The sender-side TSDT tag cache: memoized REROUTE outcomes, one
//! direct-mapped line per `(source, dest mod SLOTS)`, held in pages
//! taken on first store.

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
/// Footprint: a run holds only the pages it stores to. The line space
/// (`N · min(N, 256)` lines of 16 bytes, 32 MiB at N = 8192) is split
/// into pages of [`PAGE_LINES`] lines (256 bytes), and a page is taken
/// from the store on the first [`TagCache::put`] into it; a `u32` page
/// table (64 KiB at N = 1024, 512 KiB at N = 8192, zero-allocated) maps
/// each page of the line space to its place in the store or to none. A
/// lookup in a page the run has not taken misses, like a cold line.
///
/// Both epochs are `u32` and start afresh each run: they advance only
/// on the run's timeline fail/repair events, and [`TagCache::prepare`]
/// rejects a timeline of `u32::MAX` events or more, so neither can
/// wrap.
///
/// The store outlives a run when the simulator's buffers are reused
/// ([`SimScratch`](crate::SimScratch)): `prepare` hands the previous
/// run's pages back by clearing the page-table entries it set, and
/// frees nothing. A worker therefore holds the pages of the largest run
/// it served, not the union over its runs, and never frees and
/// re-allocates megabytes between runs; under glibc that churn raised
/// the dynamic mmap threshold and fragmented the heap into a higher
/// peak than the held memory costs.
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
    /// Per page of the `sources * slots` line space: 0 when this run
    /// has stored nothing in it, otherwise 1 + its index in `pages`.
    table: Vec<u32>,
    /// The pages this run took, in the order taken. Reserved for the
    /// whole line space, so taking a page never copies the store.
    pages: Vec<Page>,
    /// Per taken page, its index in `table`.
    owners: Vec<u32>,
}

/// Lines per page.
const PAGE_LINES: usize = 16;

/// [`PAGE_LINES`] consecutive lines of one source.
type Page = [TagLine; PAGE_LINES];

const _: () = assert!(size_of::<Page>() == 256);

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
    /// default repair mode. `on` is whether the run's senders consult
    /// the cache; an off cache is sized for nothing.
    ///
    /// The previous run's pages return to the store, which keeps its
    /// room.
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
        for page in self.owners.drain(..) {
            self.table[page as usize] = 0;
        }
        self.pages.clear();
        self.epoch = 1;
        self.repair_epoch = 0;
        self.repair = TagRepair::default();
        if !on {
            self.slots = 0;
            return;
        }
        self.slots = size.n().min(Self::MAX_SLOTS);
        let pages = (size.n() * self.slots).div_ceil(PAGE_LINES);
        assert!(
            pages < u32::MAX as usize,
            "{pages} tag-cache pages overflow the 32-bit page table"
        );
        // Every entry is 0 here, so the table is fitted without a write.
        crate::scratch::fit(&mut self.table, pages, 0);
        crate::scratch::reserve_empty(&mut self.pages, pages);
        crate::scratch::reserve_empty(&mut self.owners, pages);
    }

    /// Whether the run's senders consult the cache.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.slots != 0
    }

    #[inline]
    fn line(&self, source: usize, dest: usize) -> usize {
        source * self.slots + (dest & (self.slots - 1))
    }

    #[inline]
    pub(crate) fn lookup(&self, source: usize, dest: usize) -> Lookup {
        let line = self.line(source, dest);
        let Some(page) = self.table[line / PAGE_LINES].checked_sub(1) else {
            return Lookup::Miss;
        };
        let line = self.pages[page as usize][line % PAGE_LINES];
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
    /// `None` for a refusal. The first store into a page takes it.
    #[inline]
    pub(crate) fn put(&mut self, source: usize, dest: usize, outcome: Option<u32>) {
        debug_assert_ne!(outcome, Some(Self::REFUSED), "state word hit the sentinel");
        let line = self.line(source, dest);
        let entry = &mut self.table[line / PAGE_LINES];
        if *entry == 0 {
            self.pages.push([TagLine::default(); PAGE_LINES]);
            self.owners.push((line / PAGE_LINES) as u32);
            *entry = self.pages.len() as u32;
        }
        self.pages[*entry as usize - 1][line % PAGE_LINES] = TagLine {
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
    use std::collections::{HashMap, HashSet};

    /// A reference-model line: `(dest, epoch, repair_epoch, outcome)`.
    type WideLine = (u32, u64, u64, Option<TsdtTag>);

    /// The reference model: the cache as it was before its lines were
    /// packed and paged, with lines holding the outcome as an
    /// `Option<TsdtTag>` and `u64` epochs starting at 0, kept in a map
    /// from line index to line.
    struct WideCache {
        size: Size,
        slots: usize,
        epoch: u64,
        repair_epoch: u64,
        repair: TagRepair,
        lines: HashMap<usize, WideLine>,
    }

    impl WideCache {
        fn new(size: Size, repair: TagRepair) -> Self {
            WideCache {
                size,
                slots: size.n().min(256),
                epoch: 0,
                repair_epoch: 0,
                repair,
                lines: HashMap::new(),
            }
        }

        fn line(&self, source: usize, dest: usize) -> usize {
            source * self.slots + (dest & (self.slots - 1))
        }

        fn lookup(&self, source: usize, dest: usize) -> Lookup {
            match self.lines.get(&self.line(source, dest)) {
                Some(&(d, epoch, repaired, outcome))
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
            self.lines
                .insert(line, (dest as u32, self.epoch, self.repair_epoch, tag));
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
        /// The paged cache answers every lookup exactly as the wide
        /// reference does, after the same random sequence of puts
        /// (refusals, clean and bent tags), failures and repairs, under
        /// both repair modes. One cache serves bursts of operations at
        /// N = 8 (a line per destination), 512 and 1024 (256 lines, so
        /// `d` and `d + 256` conflict), in growing, shrinking or mixed
        /// order, with a `prepare` before each burst; each burst is
        /// checked against a new reference, from its first operation on,
        /// so a line or page left by an earlier burst must read cold.
        /// After each burst the cache holds no page it did not store to
        /// in that burst: at most one per distinct line stored.
        fn packed_cache_equals_the_wide_reference(g; cases = 256) {
            let mut sizes: Vec<usize> = (0..g.usize_in(1..=4))
                .map(|_| [8, 512, 1024][g.usize_in(0..=2)])
                .collect();
            match g.usize_in(0..=2) {
                0 => sizes.sort_unstable(),
                1 => sizes.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            let mut packed = TagCache::default();
            for n in sizes {
                let size = Size::new(n).expect("power of two");
                let repair = if g.bool_with(0.5) { TagRepair::Aware } else { TagRepair::Blind };
                packed.prepare(size, 0, true);
                packed.repair = repair;
                let mut wide = WideCache::new(size, repair);
                let mut stored = HashSet::new();
                for _ in 0..g.usize_in(1..=200) {
                    let source = pick(g, n);
                    // `dest mod 256` collides between the hot destinations.
                    let dest = (pick(g, n) + 256 * g.usize_in(0..=1)) % n;
                    match g.u32_in(0..=9) {
                        0..=3 => iadm_check::check_assert_eq!(
                            packed.lookup(source, dest),
                            wide.lookup(source, dest),
                            "N={n} lookup({source}, {dest})"
                        ),
                        4..=6 => {
                            let outcome = match g.u32_in(0..=2) {
                                0 => None,
                                1 => Some(0),
                                _ => Some(g.u32_in(1..=n as u32 - 1)),
                            };
                            packed.put(source, dest, outcome);
                            wide.put(source, dest, outcome);
                            stored.insert(wide.line(source, dest));
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
                iadm_check::check_assert!(
                    packed.pages.len() <= stored.len(),
                    "N={n}: {} pages held for {} lines stored",
                    packed.pages.len(),
                    stored.len()
                );
            }
        }
    }

    #[test]
    fn a_run_holds_256_bytes_per_page_it_stores_to() {
        // Only the page table is written up front: 4 bytes per page of
        // the line space, 64 KiB at N = 1024 and 512 KiB at N = 8192.
        let table = |n| cold(Size::new(n).unwrap(), 0).table.len() * size_of::<u32>();
        assert_eq!(table(1024), 64 << 10);
        assert_eq!(table(8192), 512 << 10);
        let mut cache = cold(Size::new(8192).unwrap(), 0);
        assert!(cache.pages.is_empty());
        // Lines of one source share a page until its 16 lines run out.
        cache.put(5, 0, Some(1));
        cache.put(5, 15, None);
        assert_eq!(cache.pages.len(), 1);
        cache.put(5, 16, Some(0));
        cache.put(6, 0, Some(0));
        assert_eq!(cache.pages.len() * size_of::<Page>(), 3 * 256);
        assert_eq!(cache.lookup(5, 15), Lookup::Hit(None));
        assert_eq!(
            cache.lookup(5, 14),
            Lookup::Miss,
            "a cold line of a taken page"
        );
        assert_eq!(
            cache.lookup(7, 0),
            Lookup::Miss,
            "a line of an untaken page"
        );
    }

    #[test]
    #[should_panic(expected = "32-bit epochs")]
    fn a_timeline_that_could_wrap_an_epoch_is_rejected() {
        let _ = cold(Size::new(2).unwrap(), u32::MAX as usize);
    }

    #[test]
    fn the_epoch_budget_admits_u32_max_minus_one_events() {
        // Every run starts at epoch 1, so `u32::MAX - 1` failures take
        // the map epoch to `u32::MAX` and no further.
        let size = Size::new(8).unwrap();
        let mut cache = cold(size, u32::MAX as usize - 1);
        assert_eq!(cache.epoch, 1);
        // The state after all but the last of those failures.
        cache.epoch = u32::MAX - 1;
        cache.put(1, 2, Some(3));
        assert_eq!(cache.lookup(1, 2), Lookup::Hit(Some(3)));
        cache.invalidate_all();
        assert_eq!(cache.epoch, u32::MAX);
        assert_eq!(cache.lookup(1, 2), Lookup::Miss);
        cache.put(1, 2, None);
        assert_eq!(cache.lookup(1, 2), Lookup::Hit(None));
        // The next run starts over, with its pages cold.
        cache.prepare(size, u32::MAX as usize - 1, true);
        assert_eq!(cache.epoch, 1);
        assert_eq!(cache.lookup(1, 2), Lookup::Miss);
    }

    #[test]
    fn a_runs_pages_return_at_the_next_prepare_and_keep_their_room() {
        let size = Size::new(1024).unwrap();
        let mut cache = cold(size, 0);
        for source in 0..64 {
            cache.put(source, 2, Some(3));
        }
        let (room, store) = (cache.pages.capacity(), cache.pages.as_ptr());
        assert_eq!(room, 1024 * 256 / PAGE_LINES, "reserved for the line space");
        // A run that does not consult the cache takes the pages back,
        // clears the table entries they held and frees nothing...
        cache.prepare(size, 5, false);
        assert!(!cache.is_on());
        assert!(cache.pages.is_empty() && cache.owners.is_empty());
        assert!(cache.table.iter().all(|&entry| entry == 0));
        assert_eq!(cache.pages.capacity(), room);
        // ...and the next run that does finds them cold and refills the
        // same store from its start, as does a smaller run.
        cache.prepare(size, 5, true);
        assert_eq!(cache.lookup(1, 2), Lookup::Miss);
        cache.put(1, 2, Some(0));
        assert_eq!(cache.pages.len(), 1);
        assert_eq!(cache.pages.as_ptr(), store);
        cache.prepare(Size::new(8).unwrap(), 0, true);
        assert_eq!(cache.lookup(1, 2), Lookup::Miss);
        assert_eq!(cache.pages.as_ptr(), store);
        // An off cache accepts any timeline.
        cache.prepare(size, u32::MAX as usize, false);
        assert_eq!(cache.epoch, 1);
    }
}
