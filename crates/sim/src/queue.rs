//! The link-buffer arena: every bounded FIFO of the network as a
//! fixed-capacity ring of 4-byte handles into one packet pool.
//!
//! The simulator owns `3 N n` output-link buffers (one per link slot,
//! indexed exactly like [`iadm_topology::Link::flat_index`]). Keeping
//! them as one arena instead of nested `Vec`s of `VecDeque`s makes the
//! steady-state hot path allocation-free, and occupancy statistics cost
//! O(1) per operation instead of O(queues) per cycle. The queue lengths
//! live in one dense `u16` array — all that the emptiness and fullness
//! tests and the policies' occupancy reads touch — and the rest of each
//! queue's bookkeeping ([`QueueMeta`]) in a 16-byte record that only a
//! push or pop touches. Slot validity is tracked by the ring length, so
//! a pop writes no tombstone.
//!
//! A ring slot holds a `u32` handle, not a packet: the packets sit in one
//! pool that holds only the live ones (plus freed entries, reused last
//! freed first), so a run that queues few packets touches few pool
//! entries and few ring pages. A packet is written once when it enters
//! the fabric and read once when it leaves; a hop between links
//! ([`QueueArena::forward_carried`]) moves its handle.
//!
//! Occupancy accounting: the eager per-cycle walk added every queue's
//! length to its sum once per cycle, so the sum counts the sample points
//! each packet sat through. [`QueueArena::tick`] advances one shared
//! sample counter; a push subtracts it from the queue's integral and a
//! pop adds it back, and a reader adds `len × counter` for the packets
//! still queued. In wrapping `u64` arithmetic that is the eager walk's
//! exact sum, so every derived statistic is bit-identical to it.

use crate::packet::Packet;

/// Per-queue bookkeeping besides the length, in a quarter cache line.
#[derive(Debug, Clone, Copy, Default)]
struct QueueMeta {
    /// Ring-buffer head offset.
    head: u16,
    /// Largest occupancy ever observed.
    high_water: u16,
    /// Packets this queue's link has carried: at most one per cycle, and
    /// a run has at most `u32::MAX` cycles.
    carried: u32,
    /// Pop-time minus push-time sample counters, wrapping.
    occ: u64,
}

const _: () = assert!(std::mem::size_of::<QueueMeta>() == 16);

/// A flat arena of bounded FIFO ring buffers with per-queue occupancy
/// tracking (high-water mark and cumulative occupancy), replacing the
/// former `VecDeque`-backed per-link `LinkQueue`s.
///
/// The simulator reuses one arena across runs: it clears the queues a
/// run used and re-dimensions the arena for the next run, without
/// writing the rest of the rings again.
#[derive(Debug, Clone, Default)]
pub struct QueueArena {
    capacity: usize,
    /// `queues * capacity` packet handles; only the `len` slots starting
    /// at each queue's `head` (mod capacity) are live.
    slots: Vec<u32>,
    /// Current length of each queue.
    len: Vec<u16>,
    /// One bookkeeping record per queue.
    meta: Vec<QueueMeta>,
    /// The packets the handles point at. Reserved for every slot at
    /// [`prepare`](QueueArena::prepare), so it grows without a copy; it
    /// only ever holds the most packets queued at once.
    pool: Vec<Packet>,
    /// Pool entries no live handle points at, the last freed on top.
    free: Vec<u32>,
    /// Shared sample counter (one tick per simulated cycle).
    samples: u64,
}

impl QueueArena {
    /// Creates `queues` empty ring buffers of `capacity` packets each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > u16::MAX` (the ring
    /// offsets are stored as `u16`), or if the `queues * capacity` slots
    /// overflow the arena's `u32` handles.
    pub fn new(queues: usize, capacity: usize) -> Self {
        let mut arena = QueueArena::default();
        arena.prepare(queues, capacity);
        arena
    }

    /// Re-dimensions the arena to `queues` empty ring buffers of
    /// `capacity` packets each, reusing its allocation. Every queue must
    /// already be empty with zeroed counters: a new arena, or one whose
    /// used queues have each been [`clear`](QueueArena::clear)ed. Slots
    /// are not rewritten, since a ring's length says which of them are
    /// live, and the pool starts empty.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `capacity > u16::MAX`, or
    /// `queues * capacity > u32::MAX`.
    pub(crate) fn prepare(&mut self, queues: usize, capacity: usize) {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity <= u16::MAX as usize,
            "queue capacity {capacity} exceeds the arena's u16 ring offsets"
        );
        let slots = queues * capacity;
        assert!(
            slots <= u32::MAX as usize,
            "{slots} queue slots exceed the arena's u32 handles"
        );
        debug_assert!(
            self.len.iter().all(|&l| l == 0)
                && self
                    .meta
                    .iter()
                    .all(|m| m.carried == 0 && m.high_water == 0),
            "prepare on an arena with uncleared queues"
        );
        self.capacity = capacity;
        self.samples = 0;
        crate::scratch::fit(&mut self.slots, slots, 0);
        crate::scratch::fit(&mut self.len, queues, 0);
        crate::scratch::fit(&mut self.meta, queues, QueueMeta::default());
        crate::scratch::reserve_empty(&mut self.pool, slots);
        crate::scratch::reserve_empty(&mut self.free, slots);
    }

    /// Empties queue `q` and zeroes its counters (high-water mark,
    /// occupancy integral, carried count). Its packets' pool entries
    /// return at the next [`prepare`](QueueArena::prepare).
    pub(crate) fn clear(&mut self, q: usize) {
        self.len[q] = 0;
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
        self.len[q] as usize
    }

    /// Is queue `q` empty?
    #[inline]
    pub fn is_empty(&self, q: usize) -> bool {
        self.len[q] == 0
    }

    /// Is queue `q` at capacity?
    #[inline]
    pub fn is_full(&self, q: usize) -> bool {
        self.len[q] as usize >= self.capacity
    }

    /// Enqueues `packet` on queue `q`; returns `false` (leaving the queue
    /// unchanged) when full.
    #[inline]
    pub fn push(&mut self, q: usize, packet: Packet) -> bool {
        if self.is_full(q) {
            return false;
        }
        let handle = match self.free.pop() {
            Some(handle) => {
                self.pool[handle as usize] = packet;
                handle
            }
            None => {
                // `prepare` reserved a pool entry per slot, so this never
                // reallocates, and the handle fits (`slots <= u32::MAX`).
                self.pool.push(packet);
                (self.pool.len() - 1) as u32
            }
        };
        self.put_tail(q, handle);
        true
    }

    /// Dequeues the head packet of queue `q`, if any.
    #[inline]
    pub fn pop(&mut self, q: usize) -> Option<Packet> {
        (self.len[q] > 0).then(|| self.take_packet(q))
    }

    /// Dequeues the head packet of queue `q` and counts it as carried
    /// over the queue's link, in one touch of the metadata record. The
    /// queue must be non-empty.
    #[inline]
    pub fn pop_carried(&mut self, q: usize) -> Packet {
        debug_assert!(self.len[q] > 0, "pop_carried on an empty queue");
        self.meta[q].carried += 1;
        self.take_packet(q)
    }

    /// Moves the head packet of queue `q` to the tail of queue `next_q`,
    /// counting it as carried over `q`'s link: [`pop_carried`] then
    /// [`push`] in effect, but the packet stays where it is and only its
    /// handle moves. `q` must be non-empty and `next_q` not full.
    ///
    /// [`pop_carried`]: QueueArena::pop_carried
    /// [`push`]: QueueArena::push
    #[inline]
    pub(crate) fn forward_carried(&mut self, q: usize, next_q: usize) {
        debug_assert!(self.len[q] > 0, "forward_carried from an empty queue");
        debug_assert!(!self.is_full(next_q), "forward_carried into a full queue");
        self.meta[q].carried += 1;
        let handle = self.take_head(q);
        self.put_tail(next_q, handle);
    }

    /// Appends `handle` to the non-full queue `q`.
    #[inline]
    fn put_tail(&mut self, q: usize, handle: u32) {
        let len = self.len[q];
        let meta = &mut self.meta[q];
        // head + len < 2 * capacity, so one compare-subtract wraps the
        // ring without a hardware divide.
        let mut pos = meta.head as usize + len as usize;
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        self.len[q] = len + 1;
        meta.high_water = meta.high_water.max(len + 1);
        meta.occ = meta.occ.wrapping_sub(self.samples);
        self.slots[q * self.capacity + pos] = handle;
    }

    /// Removes the head handle of the non-empty queue `q`.
    #[inline]
    fn take_head(&mut self, q: usize) -> u32 {
        let meta = &mut self.meta[q];
        let pos = meta.head as usize;
        let next = pos + 1;
        meta.head = if next == self.capacity { 0 } else { next } as u16;
        meta.occ = meta.occ.wrapping_add(self.samples);
        self.len[q] -= 1;
        self.slots[q * self.capacity + pos]
    }

    /// Removes the head packet of the non-empty queue `q`, freeing its
    /// pool entry.
    #[inline]
    fn take_packet(&mut self, q: usize) -> Packet {
        let handle = self.take_head(q);
        self.free.push(handle);
        self.pool[handle as usize]
    }

    /// Peeks at the head packet of queue `q`.
    #[inline]
    pub fn head(&self, q: usize) -> Option<&Packet> {
        (self.len[q] > 0).then(|| {
            let handle = self.slots[q * self.capacity + self.meta[q].head as usize];
            &self.pool[handle as usize]
        })
    }

    /// Records one occupancy sample point for *every* queue (call once
    /// per cycle). O(1): a queue's integral reads the counter only when
    /// a packet enters or leaves it.
    #[inline]
    pub fn tick(&mut self) {
        self.samples += 1;
    }

    /// Packets carried over queue `q`'s link so far.
    pub fn carried(&self, q: usize) -> u64 {
        u64::from(self.meta[q].carried)
    }

    /// Largest occupancy ever observed on queue `q`.
    pub fn high_water(&self, q: usize) -> usize {
        self.meta[q].high_water as usize
    }

    /// Mean occupancy of queue `q` over all sample points (0.0 when never
    /// sampled) — the same value the eager per-cycle walk would have
    /// computed.
    pub fn mean_occupancy(&self, q: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let open = self.len[q] as u64 * self.samples;
        self.meta[q].occ.wrapping_add(open) as f64 / self.samples as f64
    }
}

/// Per-link bookkeeping for the reservation table, mirroring
/// [`QueueMeta`]'s occupancy integral so wormhole statistics come out in
/// the same units as store-and-forward queue statistics.
#[derive(Debug, Clone, Copy, Default)]
struct ResMeta {
    /// Lanes of this link currently held by worms.
    held: u16,
    /// Largest `held` ever observed.
    high_water: u16,
    /// Release-time minus grant-time sample counters, wrapping.
    occ: u64,
    /// Flits this link has carried.
    carried: u64,
}

/// A wormhole reservation table layered over the same flat link indexing
/// as [`QueueArena`]: each link owns `lanes` lane slots, and a worm's
/// head claims one lane per traversed link, holding it until the tail
/// passes (or the worm is killed). Where the arena buffers whole packets,
/// the table records only *who holds what* — a lane slot stores the
/// holding worm's id, and a per-link record keeps the same
/// occupancy/high-water/carried statistics the store-and-forward path
/// reports, so both switching modes share one statistics vocabulary.
///
/// A grant takes the lowest-index free lane. Which lane it takes is
/// unobservable: every statistic is link-granular, a grant happens iff
/// `held < lanes`, and a teardown releases whatever slots the worm
/// holds.
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
        }
    }

    /// Lanes per link.
    pub fn lanes(&self) -> usize {
        self.lanes
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

    /// Claims a free lane of link `q` for `worm`; returns the global lane
    /// slot (`q * lanes + lane`), or `None` when every lane is held.
    #[inline]
    pub fn reserve(&mut self, q: usize, worm: u32) -> Option<usize> {
        debug_assert_ne!(worm, Self::FREE, "the FREE sentinel is not a worm id");
        let meta = &mut self.meta[q];
        if meta.held as usize >= self.lanes {
            return None;
        }
        let base = q * self.lanes;
        let lane = self.holder[base..base + self.lanes]
            .iter()
            .position(|&h| h == Self::FREE)
            .expect("held < lanes implies a free lane");
        meta.occ = meta.occ.wrapping_sub(self.samples);
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
        self.release_carrying(slot, 0);
    }

    /// Releases the lane at global `slot` and counts the `flits` it
    /// carried while held on its link's carried total.
    #[inline]
    pub(crate) fn release_carrying(&mut self, slot: usize, flits: u64) {
        debug_assert_ne!(self.holder[slot], Self::FREE, "releasing a free lane");
        self.holder[slot] = Self::FREE;
        let meta = &mut self.meta[slot / self.lanes];
        meta.occ = meta.occ.wrapping_add(self.samples);
        meta.held -= 1;
        meta.carried += flits;
    }

    /// The worm holding the lane at global `slot`, if any.
    #[inline]
    pub fn holder(&self, slot: usize) -> Option<u32> {
        let h = self.holder[slot];
        (h != Self::FREE).then_some(h)
    }

    /// Records one occupancy sample point for every link (call once per
    /// cycle); O(1) like [`QueueArena::tick`].
    #[inline]
    pub fn tick(&mut self) {
        self.samples += 1;
    }

    /// Flits credited to link `q` as its lanes were released.
    pub fn carried(&self, q: usize) -> u64 {
        self.meta[q].carried
    }

    /// Largest held-lane count ever observed on link `q`.
    pub fn high_water(&self, q: usize) -> usize {
        self.meta[q].high_water as usize
    }

    /// Mean held-lane count of link `q` over all sample points (0.0 when
    /// never sampled).
    pub fn mean_occupancy(&self, q: usize) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let meta = &self.meta[q];
        let open = meta.held as u64 * self.samples;
        meta.occ.wrapping_add(open) as f64 / self.samples as f64
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
        // lets it drain. Every idle sample must count the standing
        // length, and the mutation must not rewrite them.
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
        // A lane's flits are counted when it is released.
        let a = t.reserve(0, 1).unwrap();
        t.release_carrying(a, 2);
        let b = t.reserve(1, 1).unwrap();
        t.release_carrying(b, 1);
        let c = t.reserve(0, 2).unwrap();
        t.release(c);
        assert_eq!(t.carried(0), 2);
        assert_eq!(t.carried(1), 1);
    }

    #[test]
    #[should_panic]
    fn reservation_zero_lanes_rejected() {
        let _ = ReservationTable::new(1, 0);
    }

    /// The arena's model: one `VecDeque` per queue with eagerly kept
    /// counters and a per-tick occupancy sum.
    struct EagerQueues {
        capacity: usize,
        queues: Vec<std::collections::VecDeque<u32>>,
        high_water: Vec<usize>,
        carried: Vec<u64>,
        sums: Vec<u64>,
        samples: u64,
    }

    impl EagerQueues {
        fn new(queues: usize, capacity: usize) -> Self {
            EagerQueues {
                capacity,
                queues: vec![Default::default(); queues],
                high_water: vec![0; queues],
                carried: vec![0; queues],
                sums: vec![0; queues],
                samples: 0,
            }
        }

        fn tick(&mut self) {
            for (sum, queue) in self.sums.iter_mut().zip(&self.queues) {
                *sum += queue.len() as u64;
            }
            self.samples += 1;
        }

        fn mean_occupancy(&self, q: usize) -> f64 {
            if self.samples == 0 {
                0.0
            } else {
                self.sums[q] as f64 / self.samples as f64
            }
        }
    }

    iadm_check::check! {
        /// Random push/pop/pop_carried/forward_carried/tick sequences,
        /// with idle spans of 10^4 ticks and a clear-and-prepare reuse
        /// partway through, agree with the eager model after every
        /// operation: lengths, fullness, heads, high-water marks, carried
        /// counts and the bits of the mean occupancy. The pool holds
        /// exactly the queued packets: its live entries number `Σ len`,
        /// and no handle is queued twice or queued and free.
        fn arena_matches_an_eager_model(g; cases = 64) {
            let mut queues = g.usize_in(1..=3);
            let mut a = QueueArena::new(queues, g.usize_in(1..=6));
            let mut model = EagerQueues::new(queues, a.capacity());
            let ops = g.usize_in(0..=200);
            let reuse_at = g.usize_in(0..=ops);
            for op in 0..ops {
                if op == reuse_at {
                    for q in 0..queues {
                        a.clear(q);
                    }
                    queues = g.usize_in(1..=3);
                    a.prepare(queues, g.usize_in(1..=6));
                    model = EagerQueues::new(queues, a.capacity());
                }
                let q = g.usize_in(0..=queues - 1);
                match g.usize_in(0..=6) {
                    0 | 1 => {
                        let room = model.queues[q].len() < model.capacity;
                        iadm_check::check_assert_eq!(a.push(q, pkt(op as u64)), room);
                        if room {
                            model.queues[q].push_back(op as u32);
                            model.high_water[q] = model.high_water[q].max(model.queues[q].len());
                        }
                    }
                    2 => iadm_check::check_assert_eq!(
                        a.pop(q).map(|p| p.dest),
                        model.queues[q].pop_front()
                    ),
                    3 => {
                        if let Some(dest) = model.queues[q].pop_front() {
                            model.carried[q] += 1;
                            iadm_check::check_assert_eq!(a.pop_carried(q).dest, dest);
                        }
                    }
                    4 => {
                        a.tick();
                        model.tick();
                    }
                    5 => {
                        let next_q = g.usize_in(0..=queues - 1);
                        let room = model.queues[next_q].len() < model.capacity;
                        if room && !model.queues[q].is_empty() {
                            let dest = model.queues[q].pop_front().unwrap();
                            model.carried[q] += 1;
                            model.queues[next_q].push_back(dest);
                            model.high_water[next_q] =
                                model.high_water[next_q].max(model.queues[next_q].len());
                            a.forward_carried(q, next_q);
                        }
                    }
                    _ => {
                        let span = if g.bool_with(0.2) { 10_000 } else { g.usize_in(1..=8) };
                        for _ in 0..span {
                            a.tick();
                            model.tick();
                        }
                    }
                }
                let mut handles = std::collections::HashSet::new();
                for q in 0..queues {
                    for i in 0..a.len(q) {
                        let pos = (a.meta[q].head as usize + i) % a.capacity;
                        let handle = a.slots[q * a.capacity + pos];
                        iadm_check::check_assert!(handles.insert(handle), "handle {handle} queued twice");
                        iadm_check::check_assert!(!a.free.contains(&handle), "handle {handle} queued and free");
                    }
                }
                iadm_check::check_assert_eq!(a.pool.len() - a.free.len(), handles.len());
                for q in 0..queues {
                    let queue = &model.queues[q];
                    iadm_check::check_assert_eq!(a.len(q), queue.len());
                    iadm_check::check_assert_eq!(a.is_empty(q), queue.is_empty());
                    iadm_check::check_assert_eq!(a.is_full(q), queue.len() >= model.capacity);
                    iadm_check::check_assert_eq!(a.head(q).map(|p| p.dest), queue.front().copied());
                    iadm_check::check_assert_eq!(a.high_water(q), model.high_water[q]);
                    iadm_check::check_assert_eq!(a.carried(q), model.carried[q]);
                    iadm_check::check_assert_eq!(
                        a.mean_occupancy(q).to_bits(),
                        model.mean_occupancy(q).to_bits()
                    );
                }
            }
        }
    }

    iadm_check::check! {
        /// A random reserve/release workload never double-grants a lane,
        /// never loses one, grants the lowest free lane, and keeps `held`
        /// equal to the occupied-slot count.
        fn reservation_ledger_is_exact(g; cases = 64) {
            let links = g.usize_in(1..=4);
            let lanes = g.usize_in(1..=5);
            let ops = g.usize_in(0..=120);
            let mut t = ReservationTable::new(links, lanes);
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
                                Some(slot),
                                (q * lanes..(q + 1) * lanes)
                                    .find(|&s| model[s] == ReservationTable::FREE),
                                "granted other than the lowest free lane"
                            );
                            model[slot] = worm;
                        }
                        None => iadm_check::check_assert_eq!(
                            (0..lanes).filter(|l| model[q * lanes + l] != ReservationTable::FREE).count(),
                            lanes,
                            "denied with a free lane"
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
}
