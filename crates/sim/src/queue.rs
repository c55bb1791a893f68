//! The link-buffer arena: every bounded FIFO of the network in one flat
//! allocation of fixed-capacity ring buffers.
//!
//! The simulator owns `3 N n` output-link buffers (one per link slot,
//! indexed exactly like [`iadm_topology::Link::flat_index`]). Keeping
//! them as one arena instead of nested `Vec`s of `VecDeque`s makes the
//! steady-state hot path allocation-free: pushes and pops move packets
//! inside a preallocated slab, and occupancy statistics are maintained
//! lazily in O(1) per operation instead of O(queues) per cycle. Each
//! queue's bookkeeping ([`QueueMeta`]) is one 32-byte record, so a
//! push/pop touches a single metadata cache line instead of five
//! parallel arrays. Slot validity is tracked by the ring `len`, not an
//! `Option` per slot, so packets stay at their bare 16 bytes and a pop
//! never writes a tombstone back to the slab.
//!
//! Occupancy accounting: the old per-cycle `sample()` walk added every
//! queue's length to its running sum once per cycle. The arena records
//! the same sums without the walk — a queue's length only changes on
//! push/pop, so each mutation first credits the *old* length for all
//! sample points since the queue last changed ([`QueueArena::tick`]
//! advances the shared sample counter once per cycle). The resulting
//! per-queue sums are identical u64s, so downstream floating-point
//! statistics are bit-identical to the eager walk.

use crate::packet::Packet;

/// Per-queue bookkeeping, packed into half a cache line.
#[derive(Debug, Clone, Copy, Default)]
struct QueueMeta {
    /// Ring-buffer head offset.
    head: u16,
    /// Current length.
    len: u16,
    /// Largest occupancy ever observed.
    high_water: u16,
    /// Cumulative occupancy over flushed sample points.
    occupancy_sum: u64,
    /// Shared-sample-counter value at the last flush.
    flushed_at: u64,
    /// Packets this queue's link has carried (the simulator's per-link
    /// utilization counter, folded into the metadata record the hot path
    /// already touches on every pop).
    carried: u64,
}

/// A flat arena of bounded FIFO ring buffers with per-queue occupancy
/// tracking (high-water mark and cumulative occupancy), replacing the
/// former `VecDeque`-backed per-link `LinkQueue`s.
///
/// The simulator reuses one arena across runs: it clears the queues a
/// run used and re-dimensions the arena for the next run, without
/// writing the rest of the slab again.
#[derive(Debug, Clone, Default)]
pub struct QueueArena {
    capacity: usize,
    /// `queues * capacity` packet slots; only the `len` slots starting at
    /// each queue's `head` (mod capacity) are live.
    slots: Vec<Packet>,
    /// One bookkeeping record per queue.
    meta: Vec<QueueMeta>,
    /// Shared sample counter (one tick per simulated cycle).
    samples: u64,
}

impl QueueArena {
    /// Creates `queues` empty ring buffers of `capacity` packets each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > u16::MAX` (the ring
    /// offsets are stored as `u16`).
    pub fn new(queues: usize, capacity: usize) -> Self {
        let mut arena = QueueArena::default();
        arena.prepare(queues, capacity);
        arena
    }

    /// Re-dimensions the arena to `queues` empty ring buffers of
    /// `capacity` packets each, reusing its allocation. Every queue must
    /// already be empty with zeroed counters: a new arena, or one whose
    /// used queues have each been [`clear`](QueueArena::clear)ed. Slots
    /// are not rewritten, since a ring's `len` says which of them are
    /// live.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > u16::MAX`.
    pub(crate) fn prepare(&mut self, queues: usize, capacity: usize) {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity <= u16::MAX as usize,
            "queue capacity {capacity} exceeds the arena's u16 ring offsets"
        );
        debug_assert!(
            self.meta
                .iter()
                .all(|m| m.len == 0 && m.carried == 0 && m.high_water == 0),
            "prepare on an arena with uncleared queues"
        );
        self.capacity = capacity;
        self.samples = 0;
        crate::scratch::fit(&mut self.slots, queues * capacity, Packet::new(0, 0));
        crate::scratch::fit(&mut self.meta, queues, QueueMeta::default());
    }

    /// Empties queue `q` and zeroes its counters (high-water mark,
    /// occupancy sum, carried count).
    pub(crate) fn clear(&mut self, q: usize) {
        self.meta[q] = QueueMeta::default();
    }

    /// Number of queues in the arena.
    pub fn queue_count(&self) -> usize {
        self.meta.len()
    }

    /// Capacity of each queue, in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of packets queued in queue `q`.
    #[inline]
    pub fn len(&self, q: usize) -> usize {
        self.meta[q].len as usize
    }

    /// Is queue `q` empty?
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.meta[q].len == 0
    }

    /// Is queue `q` at capacity?
    #[inline]
    pub fn is_full(&self, q: usize) -> bool {
        self.meta[q].len as usize >= self.capacity
    }

    /// Credits the queue's current length for all sample points since its
    /// last mutation, so the length change about to happen is not
    /// retroactively applied to past cycles.
    #[inline]
    fn flush_occupancy(meta: &mut QueueMeta, samples: u64) {
        let pending = samples - meta.flushed_at;
        if pending > 0 {
            meta.occupancy_sum += meta.len as u64 * pending;
            meta.flushed_at = samples;
        }
    }

    /// Enqueues `packet` on queue `q`; returns `false` (leaving the queue
    /// unchanged) when full.
    #[inline]
    pub fn push(&mut self, q: usize, packet: Packet) -> bool {
        let samples = self.samples;
        let meta = &mut self.meta[q];
        if meta.len as usize >= self.capacity {
            return false;
        }
        Self::flush_occupancy(meta, samples);
        // head + len < 2 * capacity, so one compare-subtract wraps the
        // ring without a hardware divide.
        let mut pos = meta.head as usize + meta.len as usize;
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        meta.len += 1;
        meta.high_water = meta.high_water.max(meta.len);
        self.slots[q * self.capacity + pos] = packet;
        true
    }

    /// Dequeues the head packet of queue `q`, if any.
    #[inline]
    pub fn pop(&mut self, q: usize) -> Option<Packet> {
        let samples = self.samples;
        let meta = &mut self.meta[q];
        if meta.len == 0 {
            return None;
        }
        Self::flush_occupancy(meta, samples);
        let pos = meta.head as usize;
        let next = pos + 1;
        meta.head = if next == self.capacity { 0 } else { next } as u16;
        meta.len -= 1;
        Some(self.slots[q * self.capacity + pos])
    }

    /// Dequeues the head packet of queue `q` and counts it as carried
    /// over the queue's link, in one touch of the metadata record. The
    /// queue must be non-empty.
    #[inline]
    pub fn pop_carried(&mut self, q: usize) -> Packet {
        let samples = self.samples;
        let meta = &mut self.meta[q];
        debug_assert!(meta.len > 0, "pop_carried on an empty queue");
        Self::flush_occupancy(meta, samples);
        let pos = meta.head as usize;
        let next = pos + 1;
        meta.head = if next == self.capacity { 0 } else { next } as u16;
        meta.len -= 1;
        meta.carried += 1;
        self.slots[q * self.capacity + pos]
    }

    /// Peeks at the head packet of queue `q`.
    #[inline]
    pub fn head(&self, q: usize) -> Option<&Packet> {
        let meta = &self.meta[q];
        if meta.len == 0 {
            return None;
        }
        Some(&self.slots[q * self.capacity + meta.head as usize])
    }

    /// Records one occupancy sample point for *every* queue (call once
    /// per cycle). O(1): the per-queue sums catch up lazily on the next
    /// mutation or statistics read.
    #[inline]
    pub fn tick(&mut self) {
        self.samples += 1;
    }

    /// Packets carried over queue `q`'s link so far.
    pub fn carried(&self, q: usize) -> u64 {
        self.meta[q].carried
    }

    /// Largest occupancy ever observed on queue `q`.
    pub fn high_water(&self, q: usize) -> usize {
        self.meta[q].high_water as usize
    }

    /// Mean occupancy of queue `q` over all sample points (0.0 when never
    /// sampled) — same value the eager per-cycle walk would have
    /// computed, including the pending unflushed span.
    pub fn mean_occupancy(&self, q: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let meta = &self.meta[q];
        let pending = self.samples - meta.flushed_at;
        let total = meta.occupancy_sum + meta.len as u64 * pending;
        total as f64 / self.samples as f64
    }
}

/// Per-link bookkeeping for the reservation table, mirroring
/// [`QueueMeta`]'s lazy-occupancy scheme so wormhole statistics come out
/// in the same units as store-and-forward queue statistics.
#[derive(Debug, Clone, Copy, Default)]
struct ResMeta {
    /// Lanes of this link currently held by worms.
    held: u16,
    /// Largest `held` ever observed.
    high_water: u16,
    /// Cumulative held-lane count over flushed sample points.
    occupancy_sum: u64,
    /// Shared-sample-counter value at the last flush.
    flushed_at: u64,
    /// Flits this link has carried.
    carried: u64,
}

/// How [`ReservationTable::reserve`] picks among a link's free lanes.
///
/// Lane choice is pure tie-breaking: every statistic the simulator
/// reports is link-granular (held counts, carried flits, occupancy sums
/// — see [`ResMeta`]), a grant happens iff `held < lanes` regardless of
/// *which* lane is granted, and a worm's teardown releases whatever
/// slots it holds. All three policies therefore produce byte-identical
/// simulation statistics; `tests/lanes.rs` pins that invariance, and
/// the conditional `"arbitration"` JSON field stays absent at the
/// default so pre-existing artifacts and goldens are untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneArbitration {
    /// Lowest-index free lane (the default; byte-exact to the engine
    /// before arbitration was configurable).
    #[default]
    FirstFree,
    /// Circular scan from a per-link cursor that advances past each
    /// granted lane, spreading consecutive grants across lanes.
    RoundRobin,
    /// Free lane with the fewest cumulative grants (ties to the lowest
    /// index) — wear-leveling across a link's lanes.
    LeastHeld,
}

/// A wormhole reservation table layered over the same flat link indexing
/// as [`QueueArena`]: each link owns `lanes` lane slots, and a worm's
/// head claims one lane per traversed link, holding it until the tail
/// passes (or the worm is killed). Where the arena buffers whole packets,
/// the table records only *who holds what* — a lane slot stores the
/// holding worm's id, and the per-link [`ResMeta`] keeps the same lazy
/// occupancy/high-water/carried statistics the store-and-forward path
/// reports, so both switching modes share one statistics vocabulary.
#[derive(Debug, Clone)]
pub struct ReservationTable {
    lanes: usize,
    /// `links * lanes` lane slots; [`ReservationTable::FREE`] marks a free
    /// lane, anything else is the holding worm's id.
    holder: Vec<u32>,
    /// One bookkeeping record per link.
    meta: Vec<ResMeta>,
    /// Shared sample counter (one tick per simulated cycle).
    samples: u64,
    /// Which free lane a grant picks.
    arb: LaneArbitration,
    /// Per-link round-robin cursor (next lane to try); allocated only
    /// under [`LaneArbitration::RoundRobin`].
    cursor: Vec<u16>,
    /// Per-lane-slot cumulative grant counts; allocated only under
    /// [`LaneArbitration::LeastHeld`].
    grants: Vec<u64>,
}

impl ReservationTable {
    /// The holder value marking a free lane (no worm ever gets this id).
    pub const FREE: u32 = u32::MAX;

    /// Creates a table of `links` links with `lanes` lanes each, all free.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `lanes > u16::MAX` (held-lane counts are
    /// stored as `u16`).
    pub fn new(links: usize, lanes: usize) -> Self {
        Self::with_arbitration(links, lanes, LaneArbitration::FirstFree)
    }

    /// Creates a table whose grants follow `arb` instead of the
    /// first-free default. Same panics as [`ReservationTable::new`].
    pub fn with_arbitration(links: usize, lanes: usize, arb: LaneArbitration) -> Self {
        assert!(lanes > 0, "a link needs at least one lane");
        assert!(
            lanes <= u16::MAX as usize,
            "lane count {lanes} exceeds the table's u16 held counters"
        );
        ReservationTable {
            lanes,
            holder: vec![Self::FREE; links * lanes],
            meta: vec![ResMeta::default(); links],
            samples: 0,
            arb,
            cursor: match arb {
                LaneArbitration::RoundRobin => vec![0; links],
                _ => Vec::new(),
            },
            grants: match arb {
                LaneArbitration::LeastHeld => vec![0; links * lanes],
                _ => Vec::new(),
            },
        }
    }

    /// Lanes per link.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane-arbitration policy grants follow.
    pub fn arbitration(&self) -> LaneArbitration {
        self.arb
    }

    /// Number of links in the table.
    pub fn link_count(&self) -> usize {
        self.meta.len()
    }

    /// Lanes of link `q` currently held.
    #[inline]
    pub fn held(&self, q: usize) -> usize {
        self.meta[q].held as usize
    }

    /// Are all of link `q`'s lanes held?
    #[inline]
    pub fn is_full(&self, q: usize) -> bool {
        self.meta[q].held as usize >= self.lanes
    }

    /// Credits the link's current held count for all sample points since
    /// its last mutation (same lazy scheme as [`QueueArena`]).
    #[inline]
    fn flush_occupancy(meta: &mut ResMeta, samples: u64) {
        let pending = samples - meta.flushed_at;
        if pending > 0 {
            meta.occupancy_sum += meta.held as u64 * pending;
            meta.flushed_at = samples;
        }
    }

    /// Claims a free lane of link `q` for `worm`; returns the global lane
    /// slot (`q * lanes + lane`), or `None` when every lane is held.
    #[inline]
    pub fn reserve(&mut self, q: usize, worm: u32) -> Option<usize> {
        debug_assert_ne!(worm, Self::FREE, "the FREE sentinel is not a worm id");
        let samples = self.samples;
        let meta = &mut self.meta[q];
        if meta.held as usize >= self.lanes {
            return None;
        }
        let base = q * self.lanes;
        let lane = match self.arb {
            LaneArbitration::FirstFree => self.holder[base..base + self.lanes]
                .iter()
                .position(|&h| h == Self::FREE)
                .expect("held < lanes implies a free lane"),
            LaneArbitration::RoundRobin => {
                let start = self.cursor[q] as usize;
                let lane = (0..self.lanes)
                    .map(|step| {
                        let l = start + step;
                        if l >= self.lanes {
                            l - self.lanes
                        } else {
                            l
                        }
                    })
                    .find(|&l| self.holder[base + l] == Self::FREE)
                    .expect("held < lanes implies a free lane");
                let next = lane + 1;
                self.cursor[q] = if next == self.lanes { 0 } else { next } as u16;
                lane
            }
            LaneArbitration::LeastHeld => {
                let lane = (0..self.lanes)
                    .filter(|&l| self.holder[base + l] == Self::FREE)
                    .min_by_key(|&l| self.grants[base + l])
                    .expect("held < lanes implies a free lane");
                self.grants[base + lane] += 1;
                lane
            }
        };
        Self::flush_occupancy(meta, samples);
        meta.held += 1;
        meta.high_water = meta.high_water.max(meta.held);
        self.holder[base + lane] = worm;
        Some(base + lane)
    }

    /// Releases the lane at global `slot` (claimed by [`reserve`]).
    ///
    /// [`reserve`]: ReservationTable::reserve
    #[inline]
    pub fn release(&mut self, slot: usize) {
        debug_assert_ne!(self.holder[slot], Self::FREE, "releasing a free lane");
        self.holder[slot] = Self::FREE;
        let samples = self.samples;
        let meta = &mut self.meta[slot / self.lanes];
        Self::flush_occupancy(meta, samples);
        meta.held -= 1;
    }

    /// The worm holding the lane at global `slot`, if any.
    #[inline]
    pub fn holder(&self, slot: usize) -> Option<u32> {
        let h = self.holder[slot];
        (h != Self::FREE).then_some(h)
    }

    /// Counts one flit carried over link `q` (a held lane advanced its
    /// worm by one flit this cycle).
    #[inline]
    pub fn carried_inc(&mut self, q: usize) {
        self.meta[q].carried += 1;
    }

    /// Records one occupancy sample point for every link (call once per
    /// cycle); O(1) like [`QueueArena::tick`].
    #[inline]
    pub fn tick(&mut self) {
        self.samples += 1;
    }

    /// Advances the sample counter by `span` cycles in one jump — the
    /// event-driven engine's idle-span skip. Exactly equivalent to `span`
    /// ticks: the lazy flush credits each lane's standing holder count
    /// for the whole span on its next mutation.
    #[inline]
    pub fn fast_forward(&mut self, span: u64) {
        self.samples += span;
    }

    /// Flits carried over link `q` so far.
    pub fn carried(&self, q: usize) -> u64 {
        self.meta[q].carried
    }

    /// Largest held-lane count ever observed on link `q`.
    pub fn high_water(&self, q: usize) -> usize {
        self.meta[q].high_water as usize
    }

    /// Mean held-lane count of link `q` over all sample points (0.0 when
    /// never sampled), including the pending unflushed span.
    pub fn mean_occupancy(&self, q: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let meta = &self.meta[q];
        let pending = self.samples - meta.flushed_at;
        let total = meta.occupancy_sum + meta.held as u64 * pending;
        total as f64 / self.samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test packets distinguished by destination.
    fn pkt(id: u64) -> Packet {
        Packet::new(id as usize, 0)
    }

    #[test]
    fn fifo_order_per_queue() {
        let mut a = QueueArena::new(2, 3);
        assert!(a.push(0, pkt(1)));
        assert!(a.push(0, pkt(2)));
        assert!(a.push(1, pkt(9)));
        assert_eq!(a.pop(0).unwrap().dest, 1);
        assert_eq!(a.pop(0).unwrap().dest, 2);
        assert_eq!(a.pop(0), None);
        assert_eq!(a.pop(1).unwrap().dest, 9, "queues are independent");
    }

    #[test]
    fn rejects_when_full() {
        let mut a = QueueArena::new(1, 2);
        assert!(a.push(0, pkt(1)));
        assert!(a.push(0, pkt(2)));
        assert!(a.is_full(0));
        assert!(!a.push(0, pkt(3)));
        assert_eq!(a.len(0), 2);
    }

    #[test]
    fn ring_wraps_across_capacity() {
        let mut a = QueueArena::new(1, 2);
        for round in 0..5u32 {
            assert!(a.push(0, pkt(round as u64)));
            assert_eq!(a.pop(0).unwrap().dest, round);
        }
        assert!(a.is_empty(0));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut a = QueueArena::new(1, 4);
        a.push(0, pkt(1));
        a.push(0, pkt(2));
        a.pop(0);
        a.push(0, pkt(3));
        assert_eq!(a.high_water(0), 2);
    }

    #[test]
    fn mean_occupancy_matches_eager_sampling() {
        let mut a = QueueArena::new(1, 4);
        a.tick(); // sample at length 0
        a.push(0, pkt(1));
        a.push(0, pkt(2));
        a.tick(); // sample at length 2
        assert!((a.mean_occupancy(0) - 1.0).abs() < 1e-9);
        // Idle cycles accumulate at the standing length.
        a.tick();
        a.tick(); // two more samples at length 2
        assert!((a.mean_occupancy(0) - 6.0 / 4.0).abs() < 1e-9);
        // A pop after idle samples must not rewrite their history.
        a.pop(0);
        a.tick(); // sample at length 1
        assert!((a.mean_occupancy(0) - 7.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn head_peeks_without_removing() {
        let mut a = QueueArena::new(1, 2);
        assert_eq!(a.head(0), None);
        a.push(0, pkt(5));
        assert_eq!(a.head(0).unwrap().dest, 5);
        assert_eq!(a.len(0), 1);
    }

    #[test]
    fn metadata_record_stays_compact() {
        // One queue's whole bookkeeping must fit in half a cache line,
        // which the arena's memory behavior depends on.
        assert!(std::mem::size_of::<QueueMeta>() <= 32);
    }

    #[test]
    fn carried_counts_accumulate_per_queue() {
        // `pop_carried` is the only carry path (the separate
        // `record_carry` was removed as dead); counts must stay
        // per-queue and survive interleaving.
        let mut a = QueueArena::new(2, 2);
        a.push(0, pkt(1));
        a.push(1, pkt(9));
        a.push(0, pkt(2));
        assert_eq!(a.pop_carried(0).dest, 1);
        assert_eq!(a.pop_carried(1).dest, 9);
        assert_eq!(a.pop_carried(0).dest, 2);
        assert_eq!(a.carried(0), 2);
        assert_eq!(a.carried(1), 1);
        // A plain pop does not count as carried.
        a.push(1, pkt(8));
        assert_eq!(a.pop(1).unwrap().dest, 8);
        assert_eq!(a.carried(1), 1);
    }

    #[test]
    fn pop_carried_moves_and_counts_in_one_step() {
        let mut a = QueueArena::new(1, 2);
        a.push(0, pkt(3));
        a.push(0, pkt(4));
        assert_eq!(a.pop_carried(0).dest, 3);
        assert_eq!(a.pop_carried(0).dest, 4);
        assert_eq!(a.carried(0), 2);
        assert!(a.is_empty(0));
    }

    #[test]
    fn occupancy_survives_a_long_idle_span_then_a_mutation() {
        // The fault-epoch scenario: a queue sits untouched behind a downed
        // link for many cycles (only `tick` advances), then the repair
        // lets it drain. The lazy flush must credit the standing length
        // for every idle sample before applying the mutation.
        let mut a = QueueArena::new(1, 4);
        a.push(0, pkt(1));
        a.push(0, pkt(2));
        for _ in 0..100 {
            a.tick(); // outage: 100 samples at length 2
        }
        assert!((a.mean_occupancy(0) - 2.0).abs() < 1e-9);
        assert_eq!(a.pop_carried(0).dest, 1); // repair: queue drains
        a.tick(); // one sample at length 1
        assert!((a.mean_occupancy(0) - 201.0 / 101.0).abs() < 1e-9);
        assert_eq!(a.high_water(0), 2, "the peak predates the outage");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = QueueArena::new(1, 0);
    }

    #[test]
    fn reservation_single_lane_excludes_a_second_worm() {
        let mut t = ReservationTable::new(2, 1);
        let slot = t.reserve(0, 7).expect("lane free");
        assert_eq!(t.holder(slot), Some(7));
        assert!(t.is_full(0));
        assert_eq!(t.reserve(0, 8), None, "one lane per link");
        assert_eq!(t.reserve(1, 8), Some(1), "links are independent");
        t.release(slot);
        assert_eq!(t.held(0), 0);
        assert_eq!(t.holder(slot), None);
        assert_eq!(t.reserve(0, 9), Some(slot), "released lane is reusable");
    }

    #[test]
    fn reservation_multi_lane_fills_and_frees_out_of_order() {
        let mut t = ReservationTable::new(1, 3);
        let a = t.reserve(0, 1).unwrap();
        let b = t.reserve(0, 2).unwrap();
        let c = t.reserve(0, 3).unwrap();
        assert!(t.is_full(0));
        assert_eq!(t.reserve(0, 4), None);
        t.release(b);
        assert_eq!(t.held(0), 2);
        // The freed middle lane is found again.
        assert_eq!(t.reserve(0, 5), Some(b));
        assert_eq!(t.holder(a), Some(1));
        assert_eq!(t.holder(c), Some(3));
        assert_eq!(t.high_water(0), 3);
    }

    #[test]
    fn reservation_occupancy_matches_eager_sampling() {
        // Same arithmetic contract as the arena: held-lane sums must be
        // identical to an eager per-cycle walk, including idle spans.
        let mut t = ReservationTable::new(1, 4);
        t.tick(); // sample at 0 held
        let a = t.reserve(0, 1).unwrap();
        let _b = t.reserve(0, 2).unwrap();
        t.tick(); // sample at 2 held
        assert!((t.mean_occupancy(0) - 1.0).abs() < 1e-9);
        t.tick();
        t.tick(); // two idle samples at 2 held
        assert!((t.mean_occupancy(0) - 6.0 / 4.0).abs() < 1e-9);
        t.release(a);
        t.tick(); // sample at 1 held
        assert!((t.mean_occupancy(0) - 7.0 / 5.0).abs() < 1e-9);
        assert_eq!(t.high_water(0), 2);
    }

    #[test]
    fn reservation_carried_counts_flits_not_lanes() {
        let mut t = ReservationTable::new(2, 1);
        t.reserve(0, 1).unwrap();
        // A held lane carries one flit per cycle it advances.
        t.carried_inc(0);
        t.carried_inc(0);
        t.carried_inc(1);
        assert_eq!(t.carried(0), 2);
        assert_eq!(t.carried(1), 1);
    }

    #[test]
    #[should_panic]
    fn reservation_zero_lanes_rejected() {
        let _ = ReservationTable::new(1, 0);
    }

    #[test]
    fn reservation_round_robin_rotates_across_free_lanes() {
        let mut t = ReservationTable::with_arbitration(1, 3, LaneArbitration::RoundRobin);
        // Reserve-then-release repeatedly: first-free would reuse lane 0
        // every time; the cursor walks 0, 1, 2, 0, ...
        for expect in [0usize, 1, 2, 0, 1] {
            let slot = t.reserve(0, 7).unwrap();
            assert_eq!(slot, expect);
            t.release(slot);
        }
    }

    #[test]
    fn reservation_round_robin_scans_past_held_lanes() {
        let mut t = ReservationTable::with_arbitration(1, 3, LaneArbitration::RoundRobin);
        let a = t.reserve(0, 1).unwrap(); // lane 0, cursor -> 1
        let b = t.reserve(0, 2).unwrap(); // lane 1, cursor -> 2
        assert_eq!((a, b), (0, 1));
        t.release(a);
        // Cursor points at lane 2 (free); lane 0 is also free but the
        // circular scan starts at the cursor.
        assert_eq!(t.reserve(0, 3), Some(2));
        // Cursor wrapped to 0; lane 1 is still held, so the scan grants
        // lane 0 and leaves the cursor on the held lane 1.
        assert_eq!(t.reserve(0, 4), Some(0));
        assert!(t.is_full(0));
        assert_eq!(t.reserve(0, 5), None, "denials do not move the cursor");
    }

    #[test]
    fn reservation_least_held_levels_grants_with_low_index_ties() {
        let mut t = ReservationTable::with_arbitration(1, 3, LaneArbitration::LeastHeld);
        let a = t.reserve(0, 1).unwrap(); // all at 0 grants: tie -> lane 0
        assert_eq!(a, 0);
        t.release(a);
        // Lane 0 now has 1 grant; lanes 1 and 2 tie at 0 -> lane 1.
        let b = t.reserve(0, 2).unwrap();
        assert_eq!(b, 1);
        // Lane 2 is the only lane at 0 grants, even though lane 0 is free.
        assert_eq!(t.reserve(0, 3), Some(2));
        // All lanes at 1 grant, only lane 0 free.
        assert_eq!(t.reserve(0, 4), Some(0));
        assert!(t.is_full(0));
    }

    /// The three arbitration policies under test.
    const ARBS: [LaneArbitration; 3] = [
        LaneArbitration::FirstFree,
        LaneArbitration::RoundRobin,
        LaneArbitration::LeastHeld,
    ];

    iadm_check::check! {
        /// A random reserve/release workload never double-grants a lane,
        /// never loses one, and keeps `held` equal to the occupied-slot
        /// count — under every arbitration policy.
        fn reservation_ledger_is_exact_under_any_arbitration(g; cases = 64) {
            let links = g.usize_in(1..=4);
            let lanes = g.usize_in(1..=5);
            let ops = g.usize_in(0..=120);
            for arb in ARBS {
                let mut t = ReservationTable::with_arbitration(links, lanes, arb);
                // Model: slot -> holding worm, mirrored from grant results.
                let mut model = vec![ReservationTable::FREE; links * lanes];
                for op in 0..ops {
                    let q = g.usize_in(0..=links - 1);
                    let held_slots: Vec<usize> = (0..links * lanes)
                        .filter(|&s| model[s] != ReservationTable::FREE)
                        .collect();
                    if !held_slots.is_empty() && g.bool_with(0.45) {
                        let slot = held_slots[g.usize_in(0..=held_slots.len() - 1)];
                        t.release(slot);
                        model[slot] = ReservationTable::FREE;
                    } else {
                        let worm = op as u32;
                        match t.reserve(q, worm) {
                            Some(slot) => {
                                iadm_check::check_assert_eq!(slot / lanes, q);
                                iadm_check::check_assert_eq!(
                                    model[slot],
                                    ReservationTable::FREE,
                                    "granted an occupied lane under {arb:?}"
                                );
                                model[slot] = worm;
                            }
                            None => iadm_check::check_assert_eq!(
                                (0..lanes).filter(|l| model[q * lanes + l] != ReservationTable::FREE).count(),
                                lanes,
                                "denied with a free lane under {arb:?}"
                            ),
                        }
                    }
                    for (slot, &want) in model.iter().enumerate() {
                        iadm_check::check_assert_eq!(
                            t.holder(slot),
                            (want != ReservationTable::FREE).then_some(want)
                        );
                    }
                    for q in 0..links {
                        iadm_check::check_assert_eq!(
                            t.held(q),
                            (0..lanes).filter(|l| model[q * lanes + l] != ReservationTable::FREE).count()
                        );
                    }
                }
            }
        }

        /// Lane choice is pure tie-breaking: the same op sequence produces
        /// the same grant/deny outcomes, held counts, and occupancy sums
        /// under every arbitration policy — the table-level form of the
        /// lane invariance the parity goldens rely on.
        fn reservation_arbitrations_agree_on_every_outcome(g; cases = 64) {
            let links = g.usize_in(1..=3);
            let lanes = g.usize_in(1..=4);
            let ops = g.usize_in(0..=100);
            let mut tables: Vec<ReservationTable> = ARBS
                .iter()
                .map(|&arb| ReservationTable::with_arbitration(links, lanes, arb))
                .collect();
            // Per-table map from a grant's op index to the granted slot, so
            // a release targets "the lane op K holds" in each table even
            // though the physical lanes differ.
            let mut grants: Vec<Vec<(usize, usize)>> = vec![Vec::new(); tables.len()];
            for op in 0..ops {
                if g.bool_with(0.2) {
                    for t in &mut tables {
                        t.tick();
                    }
                    continue;
                }
                let q = g.usize_in(0..=links - 1);
                if !grants[0].is_empty() && g.bool_with(0.45) {
                    let pick = g.usize_in(0..=grants[0].len() - 1);
                    for (t, granted) in tables.iter_mut().zip(&mut grants) {
                        let (_, slot) = granted.swap_remove(pick);
                        t.release(slot);
                    }
                } else {
                    let outcomes: Vec<Option<usize>> =
                        tables.iter_mut().map(|t| t.reserve(q, op as u32)).collect();
                    iadm_check::check_assert_eq!(
                        outcomes.iter().map(|o| o.is_some()).collect::<Vec<_>>(),
                        vec![outcomes[0].is_some(); outcomes.len()],
                        "grant/deny diverged across arbitrations"
                    );
                    for (granted, outcome) in grants.iter_mut().zip(&outcomes) {
                        if let Some(slot) = outcome {
                            granted.push((op, *slot));
                        }
                    }
                }
                for q in 0..links {
                    let want = tables[0].held(q);
                    let occ = tables[0].mean_occupancy(q);
                    let high = tables[0].high_water(q);
                    for t in &tables[1..] {
                        iadm_check::check_assert_eq!(t.held(q), want);
                        iadm_check::check_assert_eq!(t.high_water(q), high);
                        iadm_check::check_assert!((t.mean_occupancy(q) - occ).abs() == 0.0);
                    }
                }
            }
        }
    }
}
