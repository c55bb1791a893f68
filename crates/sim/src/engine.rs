//! The synchronous simulation engine.
//!
//! The per-cycle hot path is allocation-free in steady state: switching
//! decisions come from a precomputed [`RouteLut`] (one byte per
//! `(stage, switch, tag bit)`, blockage flags baked in), link buffers
//! live in a flat [`QueueArena`] of fixed-capacity ring buffers indexed
//! arithmetically by `(stage, switch, kind)` — the same layout as
//! [`Link::flat_index`] — and candidate links are fixed-size inline
//! arrays instead of heap-allocated lists. Per-switch occupancy bits
//! let the advance loop skip empty switches (and whole empty stages)
//! without changing the sequence of routing decisions or RNG draws, so
//! statistics are bit-identical to the original nested-`Vec` engine
//! (enforced by `tests/parity.rs`).

use crate::packet::Packet;
use crate::queue::{QueueArena, ReservationTable};
use crate::scratch::{touched_switches, Needs, SimScratch};
use crate::stats::{add_ones, SimStats};
use crate::tags::{Lookup, TagCache, TagRepair};
use iadm_core::lut::{kind_for, RouteLut};
use iadm_core::{NetworkState, SwitchState};
use iadm_fault::{BlockageMap, FaultTimeline};
use iadm_rng::{Rng, RngCore, StdRng};
use iadm_topology::{bit, Link, LinkKind, Size};
use iadm_workload::{Injection, TrafficPattern, WorkloadSource, WorkloadSpec, NO_OP};
use std::collections::VecDeque;
use std::sync::Arc;

/// Static configuration of a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Network size.
    pub size: Size,
    /// Capacity of each output-link buffer, in packets.
    pub queue_capacity: usize,
    /// Number of cycles to simulate.
    pub cycles: usize,
    /// First cycle whose injections count toward latency statistics:
    /// packets injected at cycles `< warmup` are excluded, a packet
    /// injected exactly at cycle `warmup` is counted (boundary pinned by
    /// a test).
    pub warmup: usize,
    /// Probability that each input injects a new packet each cycle.
    pub offered_load: f64,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// A label, accepted and ignored: every run takes the one engine
    /// (see [`EngineKind`]).
    pub engine: EngineKind,
}

impl SimConfig {
    /// Checks every invariant the simulator relies on, returning a
    /// human-readable message for the first violation: `offered_load`
    /// finite and in `[0, 1]`, `warmup <= cycles`, `cycles`
    /// representable in the 32 bits [`Packet`] stores `injected_at` in
    /// (a longer run would silently truncate injection timestamps and
    /// underflow the latency subtraction), `queue_capacity` in
    /// `1..=u16::MAX` (the arenas store ring offsets as `u16`), the
    /// `3·N·n` links of the network indexable in 32 bits (the outage
    /// clocks list failed links by `u32` flat index), and their
    /// `3·N·n·queue_capacity` queue slots too (the queue arena's packet
    /// handles are `u32`). It allocates nothing, so an oversized network
    /// is an `Err` here rather than an allocator abort later.
    pub fn validate(&self) -> Result<(), String> {
        if !self.offered_load.is_finite() {
            return Err(format!(
                "offered load must be finite, got {}",
                self.offered_load
            ));
        }
        if !(0.0..=1.0).contains(&self.offered_load) {
            return Err(format!("offered load {} out of range", self.offered_load));
        }
        if self.warmup > self.cycles {
            return Err(format!(
                "warmup ({}) exceeds the simulated cycles ({})",
                self.warmup, self.cycles
            ));
        }
        if self.cycles as u64 > u64::from(u32::MAX) {
            return Err(format!(
                "cycles ({}) exceeds {} — Packet stores injection timestamps in 32 bits",
                self.cycles,
                u32::MAX
            ));
        }
        if !(1..=usize::from(u16::MAX)).contains(&self.queue_capacity) {
            return Err(format!(
                "queue capacity {} out of range 1..={} (ring offsets are 16 bits)",
                self.queue_capacity,
                u16::MAX
            ));
        }
        index_fits_u32(Link::slot_count(self.size), 1, "links")?;
        index_fits_u32(
            Link::slot_count(self.size),
            self.queue_capacity,
            "queue slots",
        )
    }
}

/// `Ok` iff `links * per_link` flat indices fit the 32 bits the engine
/// stores them in; otherwise an error naming what overflowed.
fn index_fits_u32(links: usize, per_link: usize, what: &str) -> Result<(), String> {
    let count = links as u128 * per_link as u128;
    if count <= u128::from(u32::MAX) {
        return Ok(());
    }
    Err(format!(
        "{count} {what} exceed the {} that 32-bit flat indices can address",
        u32::MAX
    ))
}

/// A scheduling-engine label. There is one engine; the label survives
/// because campaign records and presets still carry it (E17's
/// `"engine":"event"` records), and [`SimConfig::engine`] accepts it
/// without reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The label of the default run (emitted nowhere).
    #[default]
    Synchronous,
    /// The label E17's engine axis records as `"event"`.
    EventDriven,
}

/// A wormhole lane-arbitration label. A grant always takes the
/// lowest-index free lane, and which lane it takes is unobservable in
/// any statistic; the label survives because E20's records and presets
/// carry it, and [`Simulator::with_lane_arbitration`] accepts it without
/// reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneArbitration {
    /// The label of the default run (emitted nowhere).
    #[default]
    FirstFree,
    /// The label E20 records as `"round-robin"`.
    RoundRobin,
    /// The label E20 records as `"least-held"`.
    LeastHeld,
}

/// How a switch assigns a nonstraight-bound packet to one of its two
/// nonstraight output buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Always the state-`C` link (the embedded-ICube behavior): no spare
    /// links are ever used. The paper's implicit baseline.
    FixedC,
    /// The paper's SSDT load balancing: choose the nonstraight buffer with
    /// fewer queued messages (ties go to the state-`C` link).
    SsdtBalance,
    /// Choose the sign uniformly at random (a policy-free control).
    RandomSign,
    /// Sender-computed TSDT tags: at injection the sender consults the
    /// global blockage map and attaches a REROUTE-derived 2n-bit tag;
    /// switches follow the tag's state bits verbatim (paper, Section 4:
    /// "the tag can be computed by the message sender which is assumed to
    /// know the location of faulty links and switches"). Unroutable pairs
    /// are dropped at the source.
    TsdtSender,
    /// Power-of-two-choices over the exact pivot-theory candidate set
    /// (Lemma A2.1: at most two routable switches per stage, so sampling
    /// `d = 2` candidates *is* exhaustive): compare the occupancy of the
    /// `{ΔC, ΔC̄}` buffers and take the least loaded, ties keeping the
    /// state-`C` link deterministically (no switch-state flip, no RNG —
    /// deliberately stateless, unlike [`RoutingPolicy::SsdtBalance`]).
    /// `d = 1` degenerates to ΔC-always with fault evasion. The `sticky`
    /// variant is Dynamic Alternative Routing's retention rule: keep the
    /// per-`(stage, switch)` previous choice until that buffer fills (or
    /// faults away), and only then re-balance — trading a little peak
    /// balance for route stability.
    DChoice {
        /// Candidates examined (1 or 2; 2 is the full pivot pair).
        d: u8,
        /// Keep the previous choice until its buffer is full.
        sticky: bool,
    },
}

/// How packets move through the network.
///
/// The engine defaults to store-and-forward (whole packets hop between
/// link buffers); [`Simulator::with_wormhole_switching`] turns a run into
/// wormhole mode, where this enum is the sweep/CLI-facing description of
/// the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchingMode {
    /// Whole packets buffered per link (the default; byte-identical to
    /// the engine before wormhole mode existed).
    #[default]
    StoreForward,
    /// Packets split into `flits` flits that pipeline over a chain of
    /// reserved link lanes (`lanes` lanes per link).
    Wormhole {
        /// Flits per packet (>= 1).
        flits: u32,
        /// Lanes per link (>= 1).
        lanes: u32,
    },
}

impl SwitchingMode {
    /// Checks the mode against a network of `size`, allocating nothing:
    /// a wormhole mode needs at least one flit and one lane, at most
    /// `u16::MAX` lanes (the reservation table's held counters), and its
    /// `3·N·n·lanes` lane slots indexable in 32 bits (worms list the
    /// slots they hold as `u32`).
    pub fn validate(&self, size: Size) -> Result<(), String> {
        let SwitchingMode::Wormhole { flits, lanes } = *self else {
            return Ok(());
        };
        if flits == 0 {
            return Err("wormhole mode needs at least one flit per packet".into());
        }
        if lanes == 0 {
            return Err("wormhole mode needs at least one lane per link".into());
        }
        if lanes > u32::from(u16::MAX) {
            return Err(format!(
                "wormhole mode: {lanes} lanes per link exceeds the reservation \
                 table's u16 lane counters (max {})",
                u16::MAX
            ));
        }
        index_fits_u32(Link::slot_count(size), lanes as usize, "lane slots")
    }
}

/// One wormhole-mode packet in flight: `flits` flits pipelined over a
/// chain of reserved link lanes, one per stage from the tail-most lane to
/// the head's. The routing-relevant fields mirror [`Packet`]'s exactly —
/// a worm *is* a packet whose body occupies links instead of a buffer
/// slot. Invariant while live: `flits == ejected + held + pending`.
#[derive(Debug)]
struct Worm {
    /// Destination output port.
    dest: u32,
    /// Cycle the packet was injected (head-injection end of the latency
    /// measurement; the other end is tail ejection).
    injected_at: u32,
    /// Sender-computed TSDT state word, if any (same semantics as
    /// [`Packet::tag_state`]).
    tag_state: Option<u32>,
    /// Flits still waiting at the source (not yet on any link).
    pending: u32,
    /// Flits already ejected at the output port.
    ejected: u32,
    /// Stage of the link the head flit currently occupies.
    head_stage: u32,
    /// Switch (or output port, at the last stage) the head's link leads
    /// to.
    head_to: u32,
    /// Head has claimed its output port and is draining one flit/cycle.
    ejecting: bool,
    /// Retired (delivered or killed); awaiting free-list recycling.
    dead: bool,
    /// Moves so far (launch, head advances, ejected flits), each one
    /// flit across every lane held after it: the lane on stage `k`,
    /// reserved by move `k + 1`, has carried `moves - k` flits.
    moves: u32,
    /// Lanes held, one per stage `head_stage + 1 - held ..= head_stage`
    /// (their slots are the worm's row of [`WormState::lanes`]).
    held: u32,
}

impl Worm {
    /// The stage of the tail-most lane held.
    fn rear(&self) -> u32 {
        self.head_stage + 1 - self.held
    }
}

/// All wormhole-mode state, boxed into an `Option` on the [`Simulator`]:
/// `None` means store-and-forward and costs the hot path exactly one
/// branch at the top of [`Simulator::step`], so the store-and-forward
/// instruction sequence — and therefore its statistics — stays
/// byte-identical to the pre-wormhole engine (enforced by
/// `tests/parity.rs`).
#[derive(Debug)]
struct WormState {
    /// Flits per packet.
    flits: u32,
    /// Lane reservations, indexed like the queue arena (`Link::flat_index
    /// * lanes + lane`).
    reservations: ReservationTable,
    /// Worm storage; indices are worm ids, recycled through `free`.
    worms: Vec<Worm>,
    /// Stages of the network: the length of a worm's row of `lanes`.
    stages: usize,
    /// Per worm id, a row of the lane slots it holds, indexed by stage.
    lanes: Vec<u32>,
    /// Retired worm ids available for reuse.
    free: Vec<u32>,
    /// Live worm ids in admission order (the advance loop rotates its
    /// starting point over this list for fairness, like the switch scan).
    order: Vec<u32>,
    /// Per output port: the worm currently ejecting there
    /// ([`ReservationTable::FREE`] when the port is idle). One flit
    /// drains per port per cycle — the wormhole analogue of the exit
    /// column's single-packet acceptance.
    eject_hold: Vec<u32>,
}

impl WormState {
    /// The lane slots worm `id` holds, rear first.
    fn held_slots(&self, id: u32) -> &[u32] {
        let (w, row) = (&self.worms[id as usize], id as usize * self.stages);
        &self.lanes[row + w.rear() as usize..=row + w.head_stage as usize]
    }

    /// Reserves a lane of link `q` for worm `id`, whose head moves onto
    /// it at `stage`.
    fn advance_head(&mut self, id: u32, q: usize, stage: usize) {
        let slot = self
            .reservations
            .reserve(q, id)
            .expect("the decision guaranteed a free lane");
        self.lanes[id as usize * self.stages + stage] = slot as u32;
        let w = &mut self.worms[id as usize];
        w.head_stage = stage as u32;
        w.held += 1;
    }

    /// Releases every lane worm `id` holds, crediting each link with the
    /// flits its lane carried.
    fn release_held(&mut self, id: u32) {
        let (w, row) = (&self.worms[id as usize], id as usize * self.stages);
        for stage in w.rear()..=w.head_stage {
            let slot = self.lanes[row + stage as usize] as usize;
            let flits = w.moves - stage;
            self.reservations.release_carrying(slot, u64::from(flits));
        }
        self.worms[id as usize].held = 0;
    }
}

/// Test-support snapshot of the wormhole lane ledger
/// ([`Simulator::lane_ledger`]): the reservation table's holders and
/// held counts plus every live worm's held lane slots, copied out so a
/// checker can cross-validate them cycle by cycle.
#[derive(Debug, Clone)]
pub struct LaneLedger {
    /// Lanes per link.
    pub lanes: usize,
    /// Per global lane slot (`link * lanes + lane`): the holding worm's
    /// id, or `None` for a free lane.
    pub holders: Vec<Option<u32>>,
    /// Per link: held-lane count from the table's metadata records.
    pub held: Vec<usize>,
    /// Per live worm, in admission order: `(worm id, held lane slots)`
    /// (rear first).
    pub live: Vec<(u32, Vec<u32>)>,
}

/// Steady-state convergence detector ([`Simulator::with_convergence`]):
/// the run is cut into consecutive `window`-cycle windows, each window's
/// mean latency is computed from the deltas of the cumulative latency
/// counters, and the run stops early once two consecutive *non-empty*
/// windows agree within a relative tolerance — the long-run regime the
/// paper's steady-state analysis assumes has been reached, and further
/// cycles only re-measure it.
#[derive(Debug)]
pub(crate) struct ConvergeState {
    /// Window length in cycles (> 0).
    window: u64,
    /// Relative tolerance: converged when
    /// `|mean - prev_mean| <= tol * prev_mean`.
    tol: f64,
    /// Next window boundary (the cycle the next poll fires at).
    next: u64,
    /// Cumulative `latency_sum` at the previous boundary.
    prev_sum: u64,
    /// Cumulative `latency_count` at the previous boundary.
    prev_count: u64,
    /// The previous non-empty window's mean latency, once one exists.
    prev_mean: Option<f64>,
}

impl ConvergeState {
    /// A detector with `window`-cycle windows and relative tolerance
    /// `tol`, before its first window.
    pub(crate) fn new(window: u64, tol: f64) -> ConvergeState {
        ConvergeState {
            window,
            tol,
            next: window,
            prev_sum: 0,
            prev_count: 0,
            prev_mean: None,
        }
    }

    /// Convergence poll, called after `cycle` cycles have completed:
    /// returns `true` when the run just crossed a window boundary *and*
    /// the last two non-empty windows' mean latencies agree within
    /// tolerance. Stamps [`SimStats::converged_at_cycle`] on the
    /// deciding boundary.
    #[inline]
    pub(crate) fn poll(&mut self, cycle: u64, stats: &mut SimStats) -> bool {
        if cycle < self.next {
            return false;
        }
        let count = stats.latency_count - self.prev_count;
        let mean = if count > 0 {
            Some((stats.latency_sum - self.prev_sum) as f64 / count as f64)
        } else {
            // An empty window (warmup, idle traffic) carries no evidence;
            // it neither converges nor becomes the comparison baseline.
            None
        };
        if let (Some(cur), Some(prev)) = (mean, self.prev_mean) {
            if (cur - prev).abs() <= self.tol * prev {
                stats.converged_at_cycle = self.next;
                return true;
            }
        }
        self.prev_sum = stats.latency_sum;
        self.prev_count = stats.latency_count;
        if mean.is_some() {
            self.prev_mean = mean;
        }
        self.next += self.window;
        false
    }
}

/// What the switching decision did with a packet this cycle.
pub(crate) enum Decision {
    /// Enqueue on this output link.
    Enqueue(LinkKind),
    /// All usable buffers are full; retry next cycle.
    Stall,
    /// Every link that could carry this packet is fault-blocked; the packet
    /// is undeliverable under this policy.
    Drop,
}

/// Uniform occupancy view over the buffer backends a switching decision
/// balances across: the flat FIFO [`QueueArena`] (store-and-forward,
/// occupancy = queued packets) and the [`ReservationTable`] (wormhole,
/// occupancy = held lanes). One [`PolicyCtx::decide`] body serves both
/// hot paths, and the test-only reference loop, through this trait;
/// monomorphization turns each instantiation back into direct calls.
pub(crate) trait BufferView {
    /// Current occupancy of buffer slot `q` (queue length, held lanes).
    fn occupancy(&self, q: usize) -> usize;
    /// Can slot `q` not accept another packet (or worm head)?
    fn is_full(&self, q: usize) -> bool;
}

impl BufferView for QueueArena {
    #[inline]
    fn occupancy(&self, q: usize) -> usize {
        self.len(q)
    }
    #[inline]
    fn is_full(&self, q: usize) -> bool {
        QueueArena::is_full(self, q)
    }
}

impl BufferView for ReservationTable {
    #[inline]
    fn occupancy(&self, q: usize) -> usize {
        self.held(q)
    }
    #[inline]
    fn is_full(&self, q: usize) -> bool {
        ReservationTable::is_full(self, q)
    }
}

/// The routing-relevant slice of a [`Simulator`], reborrowed field by
/// field so the decision logic can mutate policy state (SSDT switch
/// states, the RNG, reroute counters, sticky choices) while the caller
/// still holds a shared borrow of whichever buffer backend is in play.
/// Built by [`Simulator::policy_ctx`] for one decision; never stored.
pub(crate) struct PolicyCtx<'a> {
    pub(crate) policy: RoutingPolicy,
    pub(crate) n: usize,
    pub(crate) dynamic: bool,
    pub(crate) blockages: &'a BlockageMap,
    pub(crate) lut: &'a RouteLut,
    pub(crate) stats: &'a mut SimStats,
    pub(crate) states: &'a mut NetworkState,
    pub(crate) rng: &'a mut StdRng,
    /// Per-`(stage, switch)` sticky d-choice memory: 0 = no previous
    /// choice, else `LinkKind::index() + 1`. Empty unless the policy is
    /// `DChoice { sticky: true, .. }`.
    pub(crate) sticky: &'a mut [u8],
}

impl PolicyCtx<'_> {
    /// Decides which output buffer of switch `sw` at `stage` a packet
    /// bound for `dest` (carrying TSDT state word `tag_state`, if any)
    /// enters. This is the single body behind every switching decision
    /// of both switching modes and the reference loop — the policy match
    /// lives here once, parameterized over the occupancy backend. Takes
    /// the two routing-relevant fields instead of the whole packet, so
    /// callers can peek them through a borrow without copying it.
    #[inline(always)]
    pub(crate) fn decide<B: BufferView>(
        &mut self,
        buffers: &B,
        stage: usize,
        sw: usize,
        dest: u32,
        tag_state: Option<u32>,
    ) -> Decision {
        let qbase = (stage * self.n + sw) * 3;
        if let Some(tag_state) = tag_state {
            // TSDT: the tag dictates the link (destination bit from the
            // address, state bit from the sender-computed state word); the
            // sender avoided every fault *it knew about*, so only queue
            // pressure can delay the packet — unless a transient fault
            // arrived after the tag was computed, in which case the link
            // the tag insists on may now be down and the packet is
            // undeliverable under this policy (TSDT switches have no
            // rerouting discretion).
            let state = SwitchState::from_bit(bit(tag_state as usize, stage));
            let kind = kind_for(bit(sw, stage), bit(dest as usize, stage), state);
            if self.blockages.is_blocked(Link::new(stage, sw, kind)) {
                debug_assert!(
                    self.dynamic,
                    "sender-computed tag steered into a blocked link in a static run"
                );
                return Decision::Drop;
            }
            return if buffers.is_full(qbase + kind.index()) {
                Decision::Stall
            } else {
                Decision::Enqueue(kind)
            };
        }
        let t = bit(dest as usize, stage);
        let entry = self.lut.entry(stage, sw, t);
        if entry.is_straight() {
            // Straight-bound: no alternative exists (Theorem 3.2).
            if !entry.c_free() {
                return Decision::Drop;
            }
            return if buffers.is_full(qbase + LinkKind::Straight.index()) {
                Decision::Stall
            } else {
                Decision::Enqueue(LinkKind::Straight)
            };
        }
        // Nonstraight-bound: the two signed links both reach the
        // destination (Theorem 3.2); the policy picks. Candidates are a
        // fixed-size inline array in preference order.
        let c_kind = entry.c_kind();
        let cbar_kind = entry.cbar_kind();
        let mut candidates = [c_kind, cbar_kind];
        let count = match self.policy {
            RoutingPolicy::FixedC => {
                if !entry.c_free() {
                    return Decision::Drop;
                }
                1
            }
            RoutingPolicy::SsdtBalance => match (entry.c_free(), entry.cbar_free()) {
                (false, false) => return Decision::Drop,
                (true, false) => 1,
                (false, true) => {
                    // Forced off the preferred ΔC sign onto the spare —
                    // the paper's single-nonstraight-blockage reroute.
                    self.stats.reroutes += 1;
                    candidates[0] = cbar_kind;
                    1
                }
                (true, true) => {
                    let len0 = buffers.occupancy(qbase + c_kind.index());
                    let len1 = buffers.occupancy(qbase + cbar_kind.index());
                    // Shorter buffer wins; on ties the switch state decides
                    // and then flips, alternating the sign (the SSDT state
                    // flip reused as a balancing device).
                    let prefer_second = match len0.cmp(&len1) {
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => {
                            let state = self.states.get(stage, sw);
                            self.states.flip(stage, sw);
                            // State C keeps the ΔC (first) candidate.
                            state == SwitchState::Cbar
                        }
                    };
                    if prefer_second {
                        candidates.swap(0, 1);
                    }
                    2
                }
            },
            RoutingPolicy::RandomSign => match (entry.c_free(), entry.cbar_free()) {
                (false, false) => return Decision::Drop,
                (true, false) => 1,
                (false, true) => {
                    // Forced off the preferred ΔC sign onto the spare —
                    // the paper's single-nonstraight-blockage reroute.
                    self.stats.reroutes += 1;
                    candidates[0] = cbar_kind;
                    1
                }
                (true, true) => {
                    if self.rng.gen_bool(0.5) {
                        candidates.swap(0, 1);
                    }
                    2
                }
            },
            RoutingPolicy::DChoice { d, sticky } => {
                match (entry.c_free(), entry.cbar_free()) {
                    (false, false) => return Decision::Drop,
                    (true, false) => 1,
                    (false, true) => {
                        // Forced off the preferred ΔC sign onto the spare —
                        // the same single-nonstraight-blockage reroute SSDT
                        // counts.
                        self.stats.reroutes += 1;
                        candidates[0] = cbar_kind;
                        1
                    }
                    (true, true) if d >= 2 => {
                        let slot = stage * self.n + sw;
                        // Sticky (Dynamic Alternative Routing): keep the
                        // remembered sign while its buffer accepts; a full
                        // buffer is the congestion threshold that releases
                        // the route.
                        let prev = if sticky {
                            match self.sticky[slot] {
                                0 => None,
                                k => Some(LinkKind::from_index(k as usize - 1)),
                            }
                        } else {
                            None
                        };
                        let choice = match prev {
                            Some(kind) if !buffers.is_full(qbase + kind.index()) => kind,
                            _ => {
                                // Balanced allocation over the exact
                                // candidate pair: least loaded wins, ties
                                // keep ΔC (deterministic, stateless).
                                let len0 = buffers.occupancy(qbase + c_kind.index());
                                let len1 = buffers.occupancy(qbase + cbar_kind.index());
                                if len1 < len0 {
                                    cbar_kind
                                } else {
                                    c_kind
                                }
                            }
                        };
                        if sticky {
                            self.sticky[slot] = choice.index() as u8 + 1;
                        }
                        if choice != c_kind {
                            candidates.swap(0, 1);
                        }
                        2
                    }
                    // d = 1: sample only the preferred ΔC candidate.
                    (true, true) => 1,
                }
            }
            RoutingPolicy::TsdtSender => {
                // Unreachable: TsdtSender packets always carry a tag and
                // are handled above; a tagless packet under this policy is
                // a bug.
                unreachable!("TsdtSender packets must carry a tag")
            }
        };
        for &kind in &candidates[..count] {
            if !buffers.is_full(qbase + kind.index()) {
                return Decision::Enqueue(kind);
            }
        }
        Decision::Stall
    }
}

/// Closed-loop workload state, boxed into an `Option` on the
/// [`Simulator`] (the `WormState` pattern): `None` means
/// open-loop and costs the arrivals phase exactly one branch, so the
/// open-loop instruction sequence — and therefore every pre-workload
/// parity golden — stays byte-identical (enforced by `tests/parity.rs`).
#[derive(Debug)]
struct WlState {
    /// The pull-based injection source the engine drives.
    source: Box<dyn WorkloadSource>,
    /// Dedicated workload RNG stream: think times and server choices
    /// never perturb the engine RNG.
    rng: StdRng,
    /// Injection staging buffer, reused across cycles. Delivery hooks
    /// append response emissions here mid-cycle; the arrivals phase
    /// appends the poll's issues after them and drains the lot.
    buffer: Vec<Injection>,
}

/// The simulator: a store-and-forward IADM network with one bounded FIFO
/// per output link and one packet transfer per link per cycle. Each switch
/// honors the IADM's `SingleInput` capability: it accepts at most one
/// incoming packet per cycle (rotating priority among its input links).
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    policy: RoutingPolicy,
    pattern: TrafficPattern,
    blockages: Arc<BlockageMap>,
    /// Precomputed `(stage, switch, tag bit)` decision table with the
    /// blockage map baked in. Held behind an `Arc` so campaigns can share
    /// one table across every run over the same realized scenario
    /// ([`Simulator::with_shared_lut`]); a fault timeline patches it
    /// copy-on-write via `Arc::make_mut`, so a run that never churns
    /// never clones it — and a run built the ordinary way owns the sole
    /// reference, making `make_mut` free.
    lut: Arc<RouteLut>,
    /// All link buffers; queue index = `Link::flat_index`.
    queues: QueueArena,
    /// One bit per `(stage, switch)`: set iff one of the switch's three
    /// queues holds a packet (set on a push, cleared when the advance
    /// loop leaves the switch with all three empty). The
    /// advance loop walks set bits with `trailing_zeros` instead of
    /// testing all `N` switches per stage — the per-switch branch on a
    /// ~70%-idle load pattern mispredicts constantly and dominated the
    /// cycle cost at N = 1024.
    switch_bits: Vec<u64>,
    /// `switch_bits` accumulated over the run: every switch that ever
    /// held a packet. The statistics fold and the reset for the next run
    /// visit only these switches.
    touched: Vec<u64>,
    /// Reused scratch for the rotated live-switch order (no per-cycle
    /// allocation).
    live_scratch: Vec<u32>,
    /// Queued packets per stage, letting the advance loop skip stages.
    stage_load: Vec<u64>,
    /// Per-cycle accept counters, reused across cycles (no allocation).
    accepted: Vec<u8>,
    source_queues: Vec<VecDeque<Packet>>,
    /// One bit per source: set iff its source queue is non-empty, so the
    /// admission loop only visits waiting sources.
    source_bits: Vec<u64>,
    /// Sender-side TSDT tag cache (populated only under `TsdtSender`).
    tag_cache: TagCache,
    /// Scheduled mid-run link fail/repair events (sorted by cycle).
    timeline: FaultTimeline,
    /// Next unapplied event in `timeline`.
    timeline_cursor: usize,
    /// `true` iff the timeline is non-empty. Every transient-fault code
    /// path in the hot loop is gated on this (or on `links_down_now`), so
    /// a static run executes the exact pre-timeline instruction sequence
    /// (byte-identical statistics, enforced by `tests/parity.rs`).
    dynamic: bool,
    /// Links currently down *due to timeline events* (static blockages
    /// never count: no packet is ever queued behind one).
    links_down_now: usize,
    /// Per-link cycle the current outage began (`u64::MAX` = link up).
    /// Sized for the network only when `dynamic`, and read only then.
    down_since: Vec<u64>,
    /// Per-link total cycles spent down (closed outages; open ones are
    /// folded in by `finish`). Sized and read as `down_since` is.
    down_cycles: Vec<u64>,
    /// Per-link flag: did this link fail at least once? Sized and read
    /// as `down_since` is.
    ever_down: Vec<bool>,
    /// The links with `ever_down` set, in first-failure order.
    failed: Vec<u32>,
    rng: StdRng,
    stats: SimStats,
    cycle: u64,
    /// Wormhole-mode state; `None` = store-and-forward (the default).
    wormhole: Option<WormState>,
    /// Closed-loop workload state; `None` = open-loop Bernoulli arrivals
    /// (the default).
    workload: Option<Box<WlState>>,
    /// Links that transitioned *down* during this cycle's
    /// [`Simulator::apply_due_events`] (flat indices) — the wormhole
    /// teardown pass kills every worm holding a lane of one. Only
    /// populated in wormhole mode; always empty on the store-and-forward
    /// path.
    downed_scratch: Vec<usize>,
    /// Packets a switch may accept per cycle: 1 for IADM-style
    /// single-input switches, 3 for Gamma-style crossbars.
    accept_limit: u8,
    /// Per-switch SSDT states used by the balancing policy to alternate
    /// the nonstraight sign on queue-length ties — the paper's state
    /// concept applied to load balancing.
    states: NetworkState,
    /// Per-`(stage, switch)` sticky d-choice memory (0 = no previous
    /// choice, else `LinkKind::index() + 1`). Sized for the network only
    /// under `DChoice { sticky: true, .. }`, and read only then.
    sticky: Vec<u8>,
    /// Steady-state convergence detector; `None` = fixed-horizon run
    /// (the default), costing the run loop exactly one branch per cycle.
    converge: Option<ConvergeState>,
}

impl Simulator {
    /// Creates a simulator with no link faults.
    pub fn new(config: SimConfig, policy: RoutingPolicy, pattern: TrafficPattern) -> Self {
        Self::with_blockages(config, policy, pattern, BlockageMap::new(config.size))
    }

    /// Creates a simulator whose links in `blockages` are permanently
    /// faulty (packets never enter them).
    ///
    /// Accepts either an owned [`BlockageMap`] or an
    /// `Arc<BlockageMap>`, so campaigns running many simulations over the
    /// same fault scenario can share one map instead of cloning it per
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if [`SimConfig::validate`] fails or if the blockage map is
    /// for a different size.
    pub fn with_blockages(
        config: SimConfig,
        policy: RoutingPolicy,
        pattern: TrafficPattern,
        blockages: impl Into<Arc<BlockageMap>>,
    ) -> Self {
        Self::with_fault_timeline(
            config,
            policy,
            pattern,
            blockages,
            FaultTimeline::empty(config.size),
        )
    }

    /// Creates a simulator that additionally applies `timeline`'s link
    /// fail/repair events between cycles: before each cycle's routing
    /// decisions, every event scheduled at or before the current cycle is
    /// folded into the blockage map, the affected switch's [`RouteLut`]
    /// entries are re-derived in place, and the sender-side TSDT tag
    /// cache is invalidated (tags computed against the superseded map
    /// must not be replayed). An empty timeline reproduces
    /// [`Simulator::with_blockages`] byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if [`SimConfig::validate`] fails, or if the blockage map or
    /// timeline is for a different size.
    pub fn with_fault_timeline(
        config: SimConfig,
        policy: RoutingPolicy,
        pattern: TrafficPattern,
        blockages: impl Into<Arc<BlockageMap>>,
        timeline: FaultTimeline,
    ) -> Self {
        let blockages: Arc<BlockageMap> = blockages.into();
        let lut = Arc::new(RouteLut::new(config.size, &blockages));
        Self::with_shared_lut(config, policy, pattern, blockages, lut, timeline)
    }

    /// Creates a simulator over *shared immutable bases*: a blockage map
    /// and a [`RouteLut`] already built for it, both behind `Arc`s so a
    /// campaign can build them once per realized scenario and hand every
    /// run a pointer instead of paying `O(topology)` setup per run. The
    /// run is byte-identical to one built via
    /// [`Simulator::with_fault_timeline`] over the same map.
    ///
    /// The table is only ever touched copy-on-write: a static run reads
    /// the shared allocation for its whole lifetime, while a run whose
    /// `timeline` fires clones map and table on the first event and
    /// patches its private copies — the caller's bases are never
    /// modified.
    ///
    /// # Panics
    ///
    /// Panics if [`SimConfig::validate`] fails, or if the blockage map,
    /// table or timeline is for a different size. In debug builds,
    /// additionally panics unless `lut` matches a fresh build against
    /// `blockages` (the sharing contract).
    pub fn with_shared_lut(
        config: SimConfig,
        policy: RoutingPolicy,
        pattern: TrafficPattern,
        blockages: impl Into<Arc<BlockageMap>>,
        lut: Arc<RouteLut>,
        timeline: FaultTimeline,
    ) -> Self {
        Self::with_scratch(
            &mut SimScratch::default(),
            config,
            policy,
            pattern,
            blockages,
            lut,
            timeline,
        )
    }

    /// [`Simulator::with_shared_lut`] over the buffers in `scratch`,
    /// which it takes (leaving `scratch` empty) and sizes for this run;
    /// [`Simulator::run_into`] gives them back. This is the one
    /// constructor: the others pass a new, empty scratch. A run over
    /// reused buffers is byte-identical to one over new ones.
    ///
    /// # Panics
    ///
    /// As [`Simulator::with_shared_lut`].
    pub fn with_scratch(
        scratch: &mut SimScratch,
        config: SimConfig,
        policy: RoutingPolicy,
        pattern: TrafficPattern,
        blockages: impl Into<Arc<BlockageMap>>,
        lut: Arc<RouteLut>,
        timeline: FaultTimeline,
    ) -> Self {
        if let Err(msg) = config.validate() {
            panic!("{msg}");
        }
        let blockages: Arc<BlockageMap> = blockages.into();
        assert_eq!(lut.size(), config.size, "route table size mismatch");
        debug_assert!(
            lut.matches(&blockages),
            "shared RouteLut does not match the blockage map"
        );
        assert_eq!(blockages.size(), config.size, "blockage map size mismatch");
        assert_eq!(timeline.size(), config.size, "fault timeline size mismatch");
        let size = config.size;
        let dynamic = !timeline.is_empty();
        let mut buffers = std::mem::take(scratch);
        buffers.prepare(
            size,
            &Needs {
                capacity: config.queue_capacity,
                dynamic,
                events: timeline.len(),
                // On a clean map every sender tag is all-C (see
                // `sender_tag`), so a fault-free TSDT run needs no cache.
                tags: policy == RoutingPolicy::TsdtSender && (dynamic || !blockages.is_empty()),
                sticky: matches!(policy, RoutingPolicy::DChoice { sticky: true, .. }),
            },
        );
        let SimScratch {
            queues,
            switch_bits,
            touched,
            live_scratch,
            stage_load,
            accepted,
            source_queues,
            source_bits,
            tag_cache,
            down_since,
            down_cycles,
            ever_down,
            failed,
            states,
            sticky,
            downed_scratch,
        } = buffers;
        Simulator {
            rng: StdRng::seed_from_u64(config.seed),
            stats: SimStats {
                ports: size.n(),
                ..SimStats::default()
            },
            lut,
            queues,
            switch_bits,
            touched,
            live_scratch,
            stage_load,
            accepted,
            source_queues,
            source_bits,
            tag_cache,
            timeline,
            timeline_cursor: 0,
            dynamic,
            links_down_now: 0,
            down_since,
            down_cycles,
            ever_down,
            failed,
            config,
            policy,
            pattern,
            blockages,
            cycle: 0,
            wormhole: None,
            workload: None,
            downed_scratch,
            accept_limit: 1,
            states: states.expect("prepare sizes the switch states"),
            sticky,
            converge: None,
        }
    }

    /// Gives the run's buffers back to `scratch`, resetting what the run
    /// touched.
    fn into_scratch(self, scratch: &mut SimScratch) {
        let mut buffers = SimScratch {
            queues: self.queues,
            switch_bits: self.switch_bits,
            touched: self.touched,
            live_scratch: self.live_scratch,
            stage_load: self.stage_load,
            accepted: self.accepted,
            source_queues: self.source_queues,
            source_bits: self.source_bits,
            tag_cache: self.tag_cache,
            down_since: self.down_since,
            down_cycles: self.down_cycles,
            ever_down: self.ever_down,
            failed: self.failed,
            states: Some(self.states),
            sticky: self.sticky,
            downed_scratch: self.downed_scratch,
        };
        buffers.reset(self.config.size);
        *scratch = buffers;
    }

    /// Switches become `3x3` crossbars (the Gamma network's switch
    /// capability): each switch accepts up to three packets per cycle, one
    /// per input link. Topology and routing are unchanged — exactly the
    /// IADM/Gamma relationship of the paper's introduction.
    #[must_use]
    pub fn with_crossbar_switches(mut self) -> Self {
        self.accept_limit = 3;
        self
    }

    /// Switches the run to wormhole mode: every packet becomes a worm of
    /// `flits` flits whose head reserves one lane per traversed link
    /// (`lanes` lanes per link), body flits pipeline behind it, and the
    /// tail releases lanes as it passes. A blocked head stalls *in place*
    /// holding its reservations — the paper's busy-link blockage — and
    /// SSDT/TSDT rerouting applies at head-advance time. A timeline
    /// failure of a reserved link kills the whole worm (counted as an
    /// outage drop); flit conservation still balances, enforced by
    /// `tests/wormhole.rs`. Latency is head-injection to tail-ejection.
    ///
    /// `queue_capacity` is ignored in this mode (links hold lanes, not
    /// packet buffers), as is [`Simulator::with_crossbar_switches`].
    ///
    /// # Panics
    ///
    /// Panics if [`SwitchingMode::validate`] rejects the mode for this
    /// network (`flits == 0`, `lanes == 0`, or too many lane slots).
    #[must_use]
    pub fn with_wormhole_switching(mut self, flits: u32, lanes: u32) -> Self {
        let mode = SwitchingMode::Wormhole { flits, lanes };
        if let Err(msg) = mode.validate(self.config.size) {
            panic!("{msg}");
        }
        assert!(
            self.workload.is_none(),
            "closed-loop workloads drive store-and-forward runs only"
        );
        let size = self.config.size;
        self.stats.flits_per_packet = u64::from(flits);
        // Links hold lanes, not packet buffers: the flat arena is not
        // held through a wormhole run.
        self.queues = QueueArena::default();
        self.wormhole = Some(WormState {
            flits,
            reservations: ReservationTable::new(Link::slot_count(size), lanes as usize),
            worms: Vec::new(),
            stages: size.stages(),
            lanes: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            eject_hold: vec![ReservationTable::FREE; size.n()],
        });
        self
    }

    /// Accepts a [`LaneArbitration`] label and ignores it: a grant always
    /// takes the lowest-index free lane, and no statistic can tell which
    /// lane it took. Kept so callers that carry the label still build.
    #[must_use]
    pub fn with_lane_arbitration(self, _arb: LaneArbitration) -> Self {
        self
    }

    /// Sets how the sender-side TSDT tag cache reacts to link repair
    /// events (default: [`TagRepair::Aware`]). Inert for every policy but
    /// `TsdtSender`, and for runs whose timeline never repairs a link.
    #[must_use]
    pub fn with_tag_repair(mut self, repair: TagRepair) -> Self {
        self.tag_cache.repair = repair;
        self
    }

    /// Applies a [`SwitchingMode`] value (the sweep/CLI plumbing form of
    /// [`Simulator::with_wormhole_switching`]).
    #[must_use]
    pub fn with_switching_mode(self, mode: SwitchingMode) -> Self {
        match mode {
            SwitchingMode::StoreForward => self,
            SwitchingMode::Wormhole { flits, lanes } => self.with_wormhole_switching(flits, lanes),
        }
    }

    /// Attaches the workload a [`WorkloadSpec`] describes, seeded with
    /// `seed` (an independent stream — derive it from the run seed with
    /// [`iadm_rng::mix`] so it never collides with the engine stream).
    /// The [`WorkloadSpec::OpenLoop`] compatibility spec attaches
    /// nothing: the engine keeps its inline Bernoulli arrivals phase and
    /// the run is byte-identical to one that never heard of workloads.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`], or (for
    /// closed specs) on the conditions of
    /// [`Simulator::with_workload_source`].
    #[must_use]
    pub fn with_workload(self, spec: &WorkloadSpec, seed: u64) -> Self {
        if let Err(msg) = spec.validate(self.config.size) {
            panic!("{msg}");
        }
        match spec.build(self.config.size, self.config.warmup as u64) {
            None => self,
            Some(source) => self.with_workload_source(source, seed),
        }
    }

    /// Attaches a live closed-loop [`WorkloadSource`]: the source owns
    /// injection (polled once per cycle as the arrivals phase, fed
    /// delivery/loss feedback per tracked packet), drawing from its own
    /// `seed`ed RNG stream.
    ///
    /// # Panics
    ///
    /// Panics in wormhole mode (closed loops are store-and-forward only)
    /// or when the run offers open-loop load — a closed-loop run's
    /// traffic *is* the workload, so `offered_load` must be `0.0`.
    #[must_use]
    pub fn with_workload_source(mut self, source: Box<dyn WorkloadSource>, seed: u64) -> Self {
        assert!(
            self.wormhole.is_none(),
            "closed-loop workloads drive store-and-forward runs only"
        );
        assert!(
            self.config.offered_load == 0.0,
            "closed-loop workloads require offered_load = 0 (the workload owns injection)"
        );
        let wl = Box::new(WlState {
            source,
            rng: StdRng::seed_from_u64(seed),
            buffer: Vec::new(),
        });
        self.workload = Some(wl);
        self
    }

    /// Enables steady-state termination: every `window` cycles the run
    /// compares the window's mean latency against the previous non-empty
    /// window's and stops once they agree within relative tolerance
    /// `tol`, recording the stop cycle as
    /// [`SimStats::converged_at_cycle`]. A run that never converges (or
    /// whose windows never carry samples) executes the full fixed
    /// horizon, with `converged_at_cycle` left at its `0` sentinel.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `tol` is negative or non-finite.
    #[must_use]
    pub fn with_convergence(mut self, window: u64, tol: f64) -> Self {
        assert!(window > 0, "convergence window must be positive");
        assert!(
            tol.is_finite() && tol >= 0.0,
            "convergence tolerance must be finite and non-negative, got {tol}"
        );
        self.converge = Some(ConvergeState::new(window, tol));
        self
    }

    /// Queue-arena index of the `kind` output link of switch `sw` at
    /// `stage` (= `Link::flat_index`, computed without building a `Link`).
    #[inline]
    fn queue_index(&self, stage: usize, sw: usize, kind: LinkKind) -> usize {
        (stage * self.config.size.n() + sw) * 3 + kind.index()
    }

    /// Applies every timeline event scheduled at or before the current
    /// cycle: folds the transition into the blockage map, re-derives the
    /// affected switch's two [`RouteLut`] entries, invalidates the TSDT
    /// tag cache (fully on a failure, lazily for the affected lines on a
    /// repair — see [`TagRepair`]), and keeps the per-link outage clocks. Packets already
    /// buffered on a failed link stay put until the repair (the advance
    /// loop skips downed queues); only packets whose *every* usable
    /// candidate is down get dropped, by the ordinary `decide` path.
    fn apply_due_events(&mut self) {
        while let Some(&event) = self.timeline.events().get(self.timeline_cursor) {
            if event.cycle > self.cycle {
                break;
            }
            self.timeline_cursor += 1;
            self.stats.fault_events += 1;
            let idx = event.link.flat_index(self.config.size);
            // A link the static map blocked stays blocked all run: only a
            // link a timeline failure took down can be repaired.
            let changed = if event.up {
                self.down_since[idx] != u64::MAX
                    && Arc::make_mut(&mut self.blockages).unblock(event.link)
            } else {
                Arc::make_mut(&mut self.blockages).block(event.link)
            };
            if !changed {
                // Already in the target state: nothing to do.
                continue;
            }
            Arc::make_mut(&mut self.lut).refresh_switch(
                event.link.stage,
                event.link.from,
                &self.blockages,
            );
            if event.up {
                // The map only widened: repair-aware caches lazily re-tag
                // the affected lines, blind ones wait out epoch turnover.
                self.stats.repair_events += 1;
                self.tag_cache.note_repair();
                self.links_down_now -= 1;
                self.down_cycles[idx] += self.cycle - self.down_since[idx];
                self.down_since[idx] = u64::MAX;
            } else {
                // The map narrowed: every cached tag is suspect (a stale
                // one could steer into the new fault) — full epoch bump.
                self.tag_cache.invalidate_all();
                self.links_down_now += 1;
                self.down_since[idx] = self.cycle;
                if !self.ever_down[idx] {
                    self.ever_down[idx] = true;
                    self.failed.push(idx as u32);
                }
                if self.wormhole.is_some() {
                    // Wormhole teardown pass input: only links that
                    // actually transitioned down (re-failing an already-
                    // blocked link kills nothing).
                    self.downed_scratch.push(idx);
                }
            }
        }
    }

    /// Counts a packet drop, attributing it to the current outage when
    /// any timeline-failed link is still down.
    #[inline]
    fn note_drop(&mut self) {
        self.stats.dropped += 1;
        if self.links_down_now > 0 {
            self.stats.dropped_during_outage += 1;
        }
    }

    /// Routes a workload-tracked packet's delivery to its source's
    /// completion hook (response emissions land in the staging buffer
    /// for this cycle's arrivals phase). No-op for open-loop packets —
    /// one predictable branch on the delivery path.
    #[inline]
    fn note_workload_delivery(&mut self, op: u32) {
        if op == NO_OP {
            return;
        }
        let wl = self
            .workload
            .as_deref_mut()
            .expect("op-stamped packet without a workload");
        wl.source
            .on_delivered(op, self.cycle, &mut wl.rng, &mut wl.buffer);
    }

    /// Routes a workload-tracked packet's loss (drop, refusal, or
    /// misroute) to its source's abort hook. No-op for open-loop packets.
    #[inline]
    fn note_workload_loss(&mut self, op: u32) {
        if op == NO_OP {
            return;
        }
        let wl = self
            .workload
            .as_deref_mut()
            .expect("op-stamped packet without a workload");
        wl.source.on_lost(op, self.cycle, &mut wl.rng);
    }

    /// The closed-loop arrivals phase: polls the workload source (its
    /// issues land after any responses this cycle's delivery hooks
    /// staged) and admits every staged injection into its source queue,
    /// stamping each packet with its operation id. TSDT refusals feed
    /// straight back as losses.
    fn workload_arrivals(&mut self) {
        let mut wl = self
            .workload
            .take()
            .expect("workload_arrivals without a workload");
        wl.source.poll(self.cycle, &mut wl.rng, &mut wl.buffer);
        for i in 0..wl.buffer.len() {
            let inj = wl.buffer[i];
            if !self.inject(inj.source as usize, inj.dest as usize, inj.op, 0) && inj.op != NO_OP {
                wl.source.on_lost(inj.op, self.cycle, &mut wl.rng);
            }
        }
        wl.buffer.clear();
        self.workload = Some(wl);
    }

    /// The open-loop arrivals phase, shared by both switching modes: one Bernoulli(`offered_load`) trial per source in
    /// ascending order, each hit followed by its destination draw. Every
    /// source consumes its trial whether or not a packet arrives, so the
    /// scan costs `N` draws per cycle at any load. The trial is the
    /// integer form of `gen_bool` ([`iadm_rng::bernoulli_threshold`]):
    /// same RNG consumption, same accept set, no int-to-float conversion.
    /// It runs on a local copy of the generator, so the 256-bit state
    /// lives in registers across the (at low load overwhelmingly missed)
    /// loop instead of round-tripping through `self` on every draw; the
    /// state is written back after. `flits` is the packet length the flit
    /// counters charge (0 under store-and-forward).
    #[inline]
    fn open_loop_arrivals(&mut self, flits: u32) {
        let size = self.config.size;
        let threshold = iadm_rng::bernoulli_threshold(self.config.offered_load);
        let mut rng = self.rng.clone();
        for s in 0..size.n() {
            if (rng.next_u64() >> 11) < threshold {
                let dest = self.pattern.destination(size, s, &mut rng);
                self.inject(s, dest, NO_OP, flits);
            }
        }
        self.rng = rng;
    }

    /// Queues one arrival from source `s` to `dest`, stamped with
    /// workload operation `op` ([`NO_OP`] for open-loop traffic) and
    /// tagged by the sender under `TsdtSender`, which refuses a pair no
    /// blockage-free path connects. `flits` is charged to the flit
    /// counters. Returns whether the source queue gained the packet.
    /// Kept inline: outlining it as `#[cold]` measured slower on the
    /// N = 8192 low-load workload (DESIGN.md §9).
    #[inline]
    fn inject(&mut self, s: usize, dest: usize, op: u32, flits: u32) -> bool {
        self.stats.injected += 1;
        self.stats.flits_injected += u64::from(flits);
        let packet = if self.policy == RoutingPolicy::TsdtSender {
            // The sender consults the controller's blockage map (through
            // the per-source tag cache).
            match self.sender_tag(s, dest) {
                Some(state) => {
                    // A nonzero state word means REROUTE steered around
                    // at least one blockage.
                    if state != 0 {
                        self.stats.reroutes += 1;
                    }
                    Packet::with_tag_bits(dest, self.cycle, state)
                }
                None => {
                    self.stats.refused += 1;
                    self.stats.flits_refused += u64::from(flits);
                    return false;
                }
            }
        } else {
            Packet::new(dest, self.cycle)
        };
        self.source_queues[s].push_back(packet.with_op(op));
        self.source_bits[s >> 6] |= 1u64 << (s & 63);
        true
    }

    /// The routing-relevant fields reborrowed as a [`PolicyCtx`], and
    /// beside them the flat queue arena a store-and-forward decision
    /// balances across (a wormhole one passes its reservation table).
    /// Every caller decides once per visited queue head or waiting
    /// source, so the decision is inlined into its loop.
    #[inline(always)]
    fn policy_ctx(&mut self) -> (PolicyCtx<'_>, &QueueArena) {
        let ctx = PolicyCtx {
            policy: self.policy,
            n: self.config.size.n(),
            dynamic: self.dynamic,
            blockages: &self.blockages,
            lut: &self.lut,
            stats: &mut self.stats,
            states: &mut self.states,
            rng: &mut self.rng,
            sticky: &mut self.sticky,
        };
        (ctx, &self.queues)
    }

    /// The state bits of the sender-side TSDT tag for `(source, dest)`:
    /// the cached REROUTE outcome when the direct-mapped line holds it,
    /// otherwise a fresh REROUTE whose outcome (tag, or "provably
    /// disconnected") fills the line. A miss caused purely by an
    /// intervening link repair is the repair-aware re-tag path, counted
    /// in `retags_on_repair`.
    ///
    /// A run with no blockage and no timeline has no cache: REROUTE
    /// starts from the all-C tag and bends it only around a blockage,
    /// and by Theorem 3.1 the all-C path reaches `dest`, so every tag
    /// has zero state bits.
    fn sender_tag(&mut self, source: usize, dest: usize) -> Option<u32> {
        if !self.tag_cache.is_on() {
            return Some(0);
        }
        match self.tag_cache.lookup(source, dest) {
            Lookup::Hit(outcome) => return outcome,
            Lookup::Miss => {}
            Lookup::RepairStale => self.stats.retags_on_repair += 1,
        }
        let outcome = iadm_core::reroute::reroute(self.config.size, &self.blockages, source, dest)
            .ok()
            .map(|tag| tag.state_bits() as u32);
        self.tag_cache.put(source, dest, outcome);
        outcome
    }

    /// Sets the occupancy and touched bits of `(stage, sw)`.
    #[inline]
    fn mark_busy(&mut self, stage: usize, sw: usize) {
        let word = stage * self.config.size.n().div_ceil(64) + (sw >> 6);
        self.switch_bits[word] |= 1u64 << (sw & 63);
        self.touched[word] |= 1u64 << (sw & 63);
    }

    /// Runs one cycle: deliver/advance from the last stage backward, then
    /// inject, then sample occupancies.
    pub fn step(&mut self) {
        // The single wormhole branch on the store-and-forward path: the
        // entire instruction sequence below is untouched when `wormhole`
        // is `None`.
        if self.wormhole.is_some() {
            self.step_wormhole();
            return;
        }
        // Fault dynamics apply between cycles: every routing decision of
        // this cycle sees the post-event map.
        if self.dynamic {
            self.apply_due_events();
        }
        let size = self.config.size;
        let n = size.n();
        let stages = size.stages();
        // N is a power of two, so the rotating switch scan wraps with a
        // mask instead of a hardware divide (this runs N * n times per
        // cycle whether or not any packet moves). The kind rotation is
        // likewise hoisted out of the scan.
        let mask = n - 1;
        let sw_offset = self.cycle as usize & mask;
        let order_offset = (self.cycle % 3) as usize;
        let kind_order = [
            LinkKind::ALL[order_offset],
            LinkKind::ALL[(order_offset + 1) % 3],
            LinkKind::ALL[(order_offset + 2) % 3],
        ];
        // Advance queue heads, last stage first so a packet moves at most
        // one hop per cycle.
        for stage in (0..stages).rev() {
            if self.stage_load[stage] == 0 {
                // Nothing queued anywhere in this stage: no head could
                // exist, so the original scan would have decided nothing.
                continue;
            }
            // Rotating input priority per receiving switch: the accept
            // counters start every busy stage zeroed (restored at the end
            // of the previous one).
            debug_assert!(
                self.accepted[..n].iter().all(|&a| a == 0),
                "accept counters not reset before stage {stage}"
            );
            let row = stage * n;
            let exit = stage + 1 == stages;
            // Gather the busy switches in the same rotated order the
            // all-switch scan visited them: `sw_offset, .., n-1, 0, ..,
            // sw_offset-1`, skipping idle ones. Walking set bits with
            // `trailing_zeros` replaces `N` badly-predicted per-switch
            // branches with one iteration per busy switch. The set is
            // fixed for the whole stage scan — only the *current*
            // switch's load changes while it is being processed.
            let words = n.div_ceil(64);
            let wrow = stage * words;
            let mut live = std::mem::take(&mut self.live_scratch);
            live.clear();
            let start_word = sw_offset >> 6;
            let start_bit = sw_offset & 63;
            let mut wi = start_word;
            let mut w = self.switch_bits[wrow + wi] & (!0u64 << start_bit);
            loop {
                while w != 0 {
                    live.push(((wi << 6) + w.trailing_zeros() as usize) as u32);
                    w &= w - 1;
                }
                wi += 1;
                if wi == words {
                    break;
                }
                w = self.switch_bits[wrow + wi];
            }
            for wi in 0..=start_word {
                let mut w = self.switch_bits[wrow + wi];
                if wi == start_word {
                    w &= !(!0u64 << start_bit);
                }
                while w != 0 {
                    live.push(((wi << 6) + w.trailing_zeros() as usize) as u32);
                    w &= w - 1;
                }
            }
            for &sw_live in &live {
                let sw = sw_live as usize;
                let qbase = (row + sw) * 3;
                // Occupied-kind mask in this cycle's rotated kind order;
                // iterating its set bits visits exactly the queues the
                // rotated kind loop would have, without three
                // data-dependent empty-check branches per switch.
                let mut kmask = 0u32;
                for (i, kind) in kind_order.iter().enumerate() {
                    kmask |= u32::from(!self.queues.is_empty(qbase + kind.index())) << i;
                }
                while kmask != 0 {
                    let kind = kind_order[kmask.trailing_zeros() as usize];
                    kmask &= kmask - 1;
                    let q = qbase + kind.index();
                    // A transient failure can strand already-buffered
                    // packets behind a downed link; they wait out the
                    // outage (store-and-forward keeps them, it does not
                    // re-queue them). Static blockages never reach here:
                    // `decide` refuses to enqueue behind them, so
                    // `links_down_now` gates the check to zero cost on
                    // the static path.
                    if self.links_down_now > 0
                        && self.blockages.is_blocked(Link::new(stage, sw, kind))
                    {
                        continue;
                    }
                    let to = kind.target(size, stage, sw);
                    // Switches accept `accept_limit` packets per cycle
                    // (1 = IADM single-input, 3 = Gamma crossbar); output
                    // switches are switches too (the paper's "extra column
                    // appended at the end").
                    if self.accepted[to] >= self.accept_limit {
                        continue;
                    }
                    if exit {
                        // Exit at the output column.
                        self.accepted[to] += 1;
                        let packet = self.queues.pop_carried(q);
                        self.stage_load[stage] -= 1;
                        if to == packet.dest as usize {
                            self.stats.delivered += 1;
                            if packet.injected_at as u64 >= self.config.warmup as u64 {
                                let lat = self.cycle + 1 - packet.injected_at as u64;
                                self.stats.latency_sum += lat;
                                self.stats.latency_count += 1;
                                self.stats.latency_max = self.stats.latency_max.max(lat);
                                self.stats.latency_histogram.record(lat);
                            }
                            self.note_workload_delivery(packet.op);
                        } else {
                            self.stats.misrouted += 1;
                            self.note_workload_loss(packet.op);
                        }
                        continue;
                    }
                    // Peek only the routing fields through the borrow; the
                    // packet itself stays put and its handle moves.
                    let head = self.queues.head(q).expect("non-empty queue has a head");
                    let (dest, tag_state) = (head.dest, head.tag_state());
                    let (mut ctx, queues) = self.policy_ctx();
                    match ctx.decide(queues, stage + 1, to, dest, tag_state) {
                        Decision::Enqueue(next_kind) => {
                            // decide() guaranteed space.
                            let next_q = (row + n + to) * 3 + next_kind.index();
                            self.queues.forward_carried(q, next_q);
                            self.stage_load[stage] -= 1;
                            self.mark_busy(stage + 1, to);
                            self.stage_load[stage + 1] += 1;
                            self.accepted[to] += 1;
                        }
                        Decision::Stall => {}
                        Decision::Drop => {
                            let packet = self.queues.pop(q).expect("non-empty queue has a head");
                            self.stage_load[stage] -= 1;
                            self.note_drop();
                            self.note_workload_loss(packet.op);
                        }
                    }
                }
                // The switch leaves the occupancy bits once its queues are empty.
                let busy = self.queues.len(qbase)
                    | self.queues.len(qbase + 1)
                    | self.queues.len(qbase + 2);
                self.switch_bits[wrow + (sw >> 6)] &= !(u64::from(busy == 0) << (sw & 63));
            }
            // Reset the accept counters this stage touched. Only the
            // targets of the gathered switches can have been counted, so
            // a sparse stage zeroes those (three per switch) instead of
            // all `N`; a busy one, where that costs more than the fill,
            // clears the whole row.
            if live.len() <= words {
                for &sw in &live {
                    for kind in LinkKind::ALL {
                        self.accepted[kind.target(size, stage, sw as usize)] = 0;
                    }
                }
            } else {
                self.accepted[..n].fill(0);
            }
            self.live_scratch = live;
        }
        // Source admission: each stage-0 switch takes at most the head of
        // its source queue. Waiting sources are walked via the occupancy
        // bitset (ascending order, same as the old 0..n scan).
        for wi in 0..n.div_ceil(64) {
            let mut w = self.source_bits[wi];
            while w != 0 {
                let s = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                let head = self.source_queues[s]
                    .front()
                    .expect("source bit set for an empty queue");
                let (dest, tag_state) = (head.dest, head.tag_state());
                let (mut ctx, queues) = self.policy_ctx();
                match ctx.decide(queues, 0, s, dest, tag_state) {
                    Decision::Enqueue(kind) => {
                        let packet = self.source_queues[s].pop_front().unwrap();
                        if self.source_queues[s].is_empty() {
                            self.source_bits[wi] &= !(1u64 << (s & 63));
                        }
                        let q = self.queue_index(0, s, kind);
                        let ok = self.queues.push(q, packet);
                        debug_assert!(ok, "decide() guaranteed space");
                        self.mark_busy(0, s);
                        self.stage_load[0] += 1;
                    }
                    Decision::Stall => {}
                    Decision::Drop => {
                        let packet = self.source_queues[s].pop_front().unwrap();
                        if self.source_queues[s].is_empty() {
                            self.source_bits[wi] &= !(1u64 << (s & 63));
                        }
                        self.note_drop();
                        self.note_workload_loss(packet.op);
                    }
                }
            }
        }
        // New arrivals: the closed-loop source when one is attached,
        // otherwise the open-loop Bernoulli draw.
        if self.workload.is_some() {
            self.workload_arrivals();
        } else {
            self.open_loop_arrivals(0);
        }
        // Occupancy sampling: one shared tick; each queue's integral
        // reads the counter when a packet enters or leaves it.
        self.queues.tick();
        self.cycle += 1;
    }

    /// One wormhole-mode cycle: teardown (kill worms on freshly-downed
    /// reserved links), advance every live worm at most one hop (eject a
    /// flit, advance the head one link, or stall in place holding
    /// reservations), retire the dead, admit new worms from the source
    /// queues, then inject arrivals. The arrival phase draws the RNG in
    /// exactly the store-and-forward order, so a wormhole run's traffic
    /// trace is the same trace the store-and-forward run would have seen.
    fn step_wormhole(&mut self) {
        self.downed_scratch.clear();
        if self.dynamic {
            self.apply_due_events();
        }
        let mut ws = self
            .wormhole
            .take()
            .expect("step_wormhole without wormhole state");
        let size = self.config.size;
        let n = size.n();
        let stages = size.stages();
        // Teardown: a downed reserved link kills every worm holding one
        // of its lanes — the worm's flits can no longer pipeline across
        // the failure, so the whole packet is an outage drop.
        let downed = std::mem::take(&mut self.downed_scratch);
        for &q in &downed {
            let lanes = ws.reservations.lanes();
            for slot in q * lanes..(q + 1) * lanes {
                if let Some(id) = ws.reservations.holder(slot) {
                    self.kill_worm(&mut ws, id);
                }
            }
        }
        self.downed_scratch = downed;
        // Advance, rotating the starting worm like the switch scan
        // rotates its starting switch, so no worm is permanently favored
        // in lane contention. The per-cycle accept scratch guards each
        // output port's one-flit-per-cycle drain rate: a port freed by a
        // finishing worm mid-loop cannot eject a second flit this cycle.
        self.accepted[..n].fill(0);
        let live = ws.order.len();
        if live > 0 {
            let mut i = self.cycle as usize % live;
            for _ in 0..live {
                let id = ws.order[i];
                i += 1;
                if i == live {
                    i = 0;
                }
                let w = &ws.worms[id as usize];
                if w.dead {
                    continue;
                }
                if w.ejecting {
                    self.eject_worm_flit(&mut ws, id);
                    continue;
                }
                let (head_stage, head_to) = (w.head_stage as usize, w.head_to as usize);
                let (dest, tag_state) = (w.dest, w.tag_state);
                if head_stage + 1 == stages {
                    // Head on a final-stage link: claim the output port
                    // and start draining, or stall until it frees up (a
                    // port that already drained a flit this cycle is
                    // claimable only next cycle).
                    if ws.eject_hold[head_to] == ReservationTable::FREE
                        && self.accepted[head_to] == 0
                    {
                        ws.eject_hold[head_to] = id;
                        ws.worms[id as usize].ejecting = true;
                        self.eject_worm_flit(&mut ws, id);
                    }
                    continue;
                }
                let mut ctx = self.policy_ctx().0;
                match ctx.decide(&ws.reservations, head_stage + 1, head_to, dest, tag_state) {
                    Decision::Enqueue(kind) => {
                        let q = self.queue_index(head_stage + 1, head_to, kind);
                        ws.advance_head(id, q, head_stage + 1);
                        ws.worms[id as usize].head_to =
                            kind.target(size, head_stage + 1, head_to) as u32;
                        shift_rear(&mut ws, id);
                    }
                    Decision::Stall => {
                        // Blocked heads hold their reservations in place —
                        // the busy-link blockage the paper's REROUTE
                        // motivates.
                    }
                    Decision::Drop => self.kill_worm(&mut ws, id),
                }
            }
        }
        // Retire dead worms into the free list (ids recycle, and with
        // them their rows of `lanes`).
        ws.order.retain(|&id| {
            if ws.worms[id as usize].dead {
                ws.free.push(id);
                false
            } else {
                true
            }
        });
        // Source admission: each waiting source tries to launch its head
        // packet's head flit onto a stage-0 lane.
        for wi in 0..n.div_ceil(64) {
            let mut w = self.source_bits[wi];
            while w != 0 {
                let s = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                let head = self.source_queues[s]
                    .front()
                    .expect("source bit set for an empty queue");
                let (dest, tag_state) = (head.dest, head.tag_state());
                let mut ctx = self.policy_ctx().0;
                match ctx.decide(&ws.reservations, 0, s, dest, tag_state) {
                    Decision::Enqueue(kind) => {
                        let packet = self.source_queues[s].pop_front().unwrap();
                        if self.source_queues[s].is_empty() {
                            self.source_bits[wi] &= !(1u64 << (s & 63));
                        }
                        let id = alloc_worm(&mut ws, &packet);
                        ws.advance_head(id, self.queue_index(0, s, kind), 0);
                        ws.worms[id as usize].head_to = kind.target(size, 0, s) as u32;
                        shift_rear(&mut ws, id);
                        ws.order.push(id);
                    }
                    Decision::Stall => {}
                    Decision::Drop => {
                        self.source_queues[s].pop_front();
                        if self.source_queues[s].is_empty() {
                            self.source_bits[wi] &= !(1u64 << (s & 63));
                        }
                        self.note_drop();
                        self.stats.flits_dropped += u64::from(ws.flits);
                    }
                }
            }
        }
        // New arrivals: identical RNG draw sequence to store-and-forward.
        self.open_loop_arrivals(ws.flits);
        // Lane-occupancy sampling, mirroring the arena's shared tick.
        ws.reservations.tick();
        self.wormhole = Some(ws);
        self.cycle += 1;
    }

    /// Drains one flit of worm `id` into its output port, releasing the
    /// tail lane as the body shifts forward; on the last flit the worm
    /// retires and the delivery (and head-injection-to-tail-ejection
    /// latency) is recorded.
    fn eject_worm_flit(&mut self, ws: &mut WormState, id: u32) {
        let flits = ws.flits;
        ws.worms[id as usize].ejected += 1;
        self.accepted[ws.worms[id as usize].head_to as usize] += 1;
        self.stats.flits_delivered += 1;
        shift_rear(ws, id);
        let w = &mut ws.worms[id as usize];
        if w.ejected != flits {
            return;
        }
        debug_assert!(
            w.held == 0 && w.pending == 0,
            "fully-ejected worm still holds lanes"
        );
        w.dead = true;
        let (head_to, dest, injected_at) = (w.head_to as usize, w.dest as usize, w.injected_at);
        ws.eject_hold[head_to] = ReservationTable::FREE;
        if head_to == dest {
            self.stats.delivered += 1;
            if u64::from(injected_at) >= self.config.warmup as u64 {
                let lat = self.cycle + 1 - u64::from(injected_at);
                self.stats.latency_sum += lat;
                self.stats.latency_count += 1;
                self.stats.latency_max = self.stats.latency_max.max(lat);
                self.stats.latency_histogram.record(lat);
            }
        } else {
            self.stats.misrouted += 1;
        }
    }

    /// Kills worm `id`: releases every held lane, loses its remaining
    /// flits, and counts the packet as dropped (attributed to the outage
    /// when one is in progress, like any other drop).
    fn kill_worm(&mut self, ws: &mut WormState, id: u32) {
        if ws.worms[id as usize].dead {
            return;
        }
        let w = &ws.worms[id as usize];
        self.stats.flits_dropped += u64::from(w.pending + w.held);
        ws.release_held(id);
        let w = &mut ws.worms[id as usize];
        w.pending = 0;
        w.dead = true;
        if w.ejecting {
            ws.eject_hold[w.head_to as usize] = ReservationTable::FREE;
        }
        self.note_drop();
    }

    /// Flits currently inside the network or waiting in source queues
    /// (0 in store-and-forward mode). Live counterpart of the finalized
    /// `flits_in_flight` statistic, for per-cycle conservation checks.
    pub fn flits_in_flight(&self) -> u64 {
        let Some(ws) = &self.wormhole else {
            return 0;
        };
        let queued: u64 = self.source_queues.iter().map(|q| q.len() as u64).sum();
        let mut flits = queued * u64::from(ws.flits);
        for &id in &ws.order {
            let w = &ws.worms[id as usize];
            if !w.dead {
                flits += u64::from(w.pending + w.held);
            }
        }
        flits
    }

    /// Test-support snapshot of the wormhole lane ledger (`None` in
    /// store-and-forward mode), for per-cycle invariant checks: every
    /// lane is FREE or held by exactly one live worm, per-link held
    /// counts equal the occupied-lane sums, and teardown releases
    /// everything (`tests/util`'s lane-ledger checker).
    pub fn lane_ledger(&self) -> Option<LaneLedger> {
        let ws = self.wormhole.as_ref()?;
        let res = &ws.reservations;
        Some(LaneLedger {
            lanes: res.lanes(),
            holders: (0..res.link_count() * res.lanes())
                .map(|slot| res.holder(slot))
                .collect(),
            held: (0..res.link_count()).map(|q| res.held(q)).collect(),
            live: ws
                .order
                .iter()
                .filter(|&&id| !ws.worms[id as usize].dead)
                .map(|&id| (id, ws.held_slots(id).to_vec()))
                .collect(),
        })
    }

    /// Runs until the configured horizon — or until steady-state
    /// convergence, when [`Simulator::with_convergence`] armed it — and
    /// returns the statistics.
    pub fn run(mut self) -> SimStats {
        self.run_cycles();
        self.finish()
    }

    /// [`Simulator::run`], then gives the run's buffers back to
    /// `scratch` for the next [`Simulator::with_scratch`], with only what
    /// this run touched reset.
    pub fn run_into(mut self, scratch: &mut SimScratch) -> SimStats {
        self.run_cycles();
        let stats = self.fold();
        self.into_scratch(scratch);
        stats
    }

    fn run_cycles(&mut self) {
        for _ in 0..self.config.cycles {
            self.step();
            if let Some(cv) = self.converge.as_mut() {
                if cv.poll(self.cycle, &mut self.stats) {
                    break;
                }
            }
        }
    }

    /// Closes outages still open at the end of the run and folds the
    /// per-link outage clocks into the availability statistics (no-op for
    /// static runs). Only the links that ever failed are read: every
    /// other link was up all run, an availability of exactly `1.0`, and
    /// [`add_ones`] adds a run of those to the sum with the bits the
    /// link-by-link sum gives.
    fn fold_availability(&mut self) {
        if !self.dynamic {
            return;
        }
        self.failed.sort_unstable();
        for &idx in &self.failed {
            let idx = idx as usize;
            if self.down_since[idx] != u64::MAX {
                self.down_cycles[idx] += self.cycle - self.down_since[idx];
                self.down_since[idx] = u64::MAX;
            }
        }
        self.stats.links_failed = self.failed.len() as u64;
        self.stats.link_downtime_cycles = self
            .failed
            .iter()
            .map(|&idx| self.down_cycles[idx as usize])
            .sum();
        if self.cycle > 0 {
            let mut min_avail = 1.0f64;
            let mut sum_avail = 0.0f64;
            let mut next = 0;
            for &idx in &self.failed {
                let idx = idx as usize;
                sum_avail = add_ones(sum_avail, idx - next);
                let avail = 1.0 - self.down_cycles[idx] as f64 / self.cycle as f64;
                min_avail = min_avail.min(avail);
                sum_avail += avail;
                next = idx + 1;
            }
            sum_avail = add_ones(sum_avail, self.down_cycles.len() - next);
            self.stats.availability_min = min_avail;
            self.stats.availability_mean = sum_avail / self.down_cycles.len() as f64;
        }
    }

    /// Finalizes statistics without running further cycles. Both
    /// switching modes end in the one link fold: over every switch of the
    /// reservation table, and over the touched switches of the queue
    /// arena. Worms in flight are counted from the worm table, outside
    /// the fold.
    pub fn finish(mut self) -> SimStats {
        self.fold()
    }

    /// [`Simulator::finish`] without consuming the simulator, so its
    /// buffers can be handed on.
    fn fold(&mut self) -> SimStats {
        if let Some(wl) = self.workload.take() {
            wl.source.collect(&mut self.stats.workload);
        }
        let queued: u64 = self.source_queues.iter().map(|q| q.len() as u64).sum();
        self.stats.in_flight = queued;
        let size = self.config.size;
        if let Some(mut ws) = self.wormhole.take() {
            self.stats.flits_in_flight = queued * u64::from(ws.flits);
            for i in 0..ws.order.len() {
                let id = ws.order[i];
                let w = &ws.worms[id as usize];
                debug_assert!(!w.dead, "dead worms are retired every cycle");
                self.stats.in_flight += 1;
                self.stats.flits_in_flight += u64::from(w.pending + w.held);
                // Credits the lanes still held; no other statistic moves.
                ws.release_held(id);
            }
            let res = &ws.reservations;
            self.stats.fold_links(res, size, 0..res.link_count() / 3);
        } else {
            let touched = touched_switches(&self.touched, size.n());
            self.stats.fold_links(&self.queues, size, touched);
        }
        self.fold_availability();
        self.stats.cycles = self.cycle;
        std::mem::take(&mut self.stats)
    }

    /// The cycle counter (number of completed steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Immutable view of the accumulated statistics (finalized fields such
    /// as `in_flight` are only filled in by [`Simulator::finish`]).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

/// Slides worm `id` one link forward after its head moved (advance or
/// eject): a pending flit enters the rear lane if any remain at the
/// source, otherwise the tail releases the rear lane, crediting its
/// link with the flits it carried; every still-held lane then carried
/// one more flit, counted by the move. Free function (not a
/// `Simulator` method) because the worm state is detached from the
/// simulator for the duration of a wormhole step.
fn shift_rear(ws: &mut WormState, id: u32) {
    let w = &mut ws.worms[id as usize];
    if w.pending > 0 {
        w.pending -= 1;
    } else {
        debug_assert!(w.held > 0, "a live worm holds at least one lane");
        let rear = w.rear();
        w.held -= 1;
        let slot = ws.lanes[id as usize * ws.stages + rear as usize];
        ws.reservations
            .release_carrying(slot as usize, u64::from(w.moves - rear));
    }
    w.moves += 1;
}

/// Allocates a worm for `packet` (recycling a retired id when one is
/// free, or giving a new one its row of `lanes`), with all `flits` flits
/// pending; the caller reserves the first lane with
/// [`WormState::advance_head`] and calls [`shift_rear`] to launch the
/// head flit.
fn alloc_worm(ws: &mut WormState, packet: &Packet) -> u32 {
    let flits = ws.flits;
    if let Some(id) = ws.free.pop() {
        let w = &mut ws.worms[id as usize];
        w.dest = packet.dest;
        w.injected_at = packet.injected_at;
        w.tag_state = packet.tag_state();
        w.pending = flits;
        w.ejected = 0;
        w.head_stage = 0;
        w.head_to = 0;
        w.ejecting = false;
        w.dead = false;
        w.moves = 0;
        w.held = 0;
        return id;
    }
    let id = ws.worms.len();
    assert!(
        id < ReservationTable::FREE as usize,
        "worm id space exhausted"
    );
    ws.worms.push(Worm {
        dest: packet.dest,
        injected_at: packet.injected_at,
        tag_state: packet.tag_state(),
        pending: flits,
        ejected: 0,
        head_stage: 0,
        head_to: 0,
        ejecting: false,
        dead: false,
        moves: 0,
        held: 0,
    });
    ws.lanes.resize(ws.worms.len() * ws.stages, 0);
    id as u32
}

/// Convenience: run one configuration under a policy and pattern with no
/// faults.
pub fn run_once(config: SimConfig, policy: RoutingPolicy, pattern: TrafficPattern) -> SimStats {
    Simulator::new(config, policy, pattern).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_fault::scenario::{self, KindFilter};

    fn config(n: usize, load: f64, cycles: usize) -> SimConfig {
        SimConfig {
            size: Size::new(n).unwrap(),
            queue_capacity: 4,
            cycles,
            warmup: cycles / 4,
            offered_load: load,
            seed: 7,
            engine: EngineKind::Synchronous,
        }
    }

    #[test]
    fn packets_are_conserved_and_never_misrouted() {
        for policy in [
            RoutingPolicy::FixedC,
            RoutingPolicy::SsdtBalance,
            RoutingPolicy::RandomSign,
        ] {
            let stats = run_once(config(8, 0.4, 400), policy, TrafficPattern::Uniform);
            assert!(stats.is_conserved(), "{policy:?}: {stats:?}");
            assert_eq!(stats.misrouted, 0, "{policy:?}");
            assert_eq!(stats.dropped, 0, "no faults => no drops ({policy:?})");
            assert!(stats.delivered > 0, "{policy:?}");
        }
    }

    #[test]
    fn histogram_and_stage_counters_are_consistent() {
        let stats = run_once(
            config(8, 0.4, 400),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        assert_eq!(stats.latency_histogram.count(), stats.latency_count);
        assert!(stats.percentile(0.5) <= stats.percentile(0.95));
        assert!(stats.percentile(0.95) <= stats.percentile(0.99));
        assert!(stats.percentile(0.99) <= stats.latency_max);
        assert!(stats.percentile(1.0) == stats.latency_max);
        assert_eq!(stats.stage_link_use.len(), 3);
        // Every delivered packet crossed a final-stage link.
        assert!(stats.stage_link_use[2] >= stats.delivered);
        // A delivered packet crossed all 3 stages; an in-flight one some
        // prefix of them.
        let total: u64 = stats.stage_link_use.iter().sum();
        assert!(total >= stats.delivered * 3, "{stats:?}");
        assert!(
            total <= (stats.delivered + stats.in_flight) * 3,
            "{stats:?}"
        );
    }

    #[test]
    fn zero_load_injects_nothing() {
        let stats = run_once(
            config(8, 0.0, 100),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        );
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_once(
            config(16, 0.3, 200),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        let b = run_once(
            config(16, 0.3, 200),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latency_sum, b.latency_sum);
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn warmup_beyond_cycles_is_rejected() {
        let mut cfg = config(8, 0.4, 100);
        cfg.warmup = 101;
        let _ = Simulator::new(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_offered_load_is_rejected() {
        let mut cfg = config(8, 0.4, 100);
        cfg.offered_load = f64::NAN;
        let _ = Simulator::new(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_offered_load_is_rejected() {
        let mut cfg = config(8, 0.4, 100);
        cfg.offered_load = f64::INFINITY;
        let _ = Simulator::new(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_offered_load_is_rejected() {
        let mut cfg = config(8, 0.4, 100);
        cfg.offered_load = 1.5;
        let _ = Simulator::new(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform);
    }

    #[test]
    fn cycles_beyond_u32_are_rejected_with_a_clear_message() {
        let mut cfg = config(8, 0.4, 100);
        cfg.cycles = u32::MAX as usize + 1;
        cfg.warmup = 0;
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("32 bits") && err.contains("4294967296"),
            "unhelpful message: {err}"
        );
        // The largest representable run is still accepted.
        cfg.cycles = u32::MAX as usize;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn flat_link_indices_must_fit_32_bits() {
        // 3·N·n links: 2^25 switches per stage give 2.5e9 (fits), 2^26
        // give 5.2e9 (does not). Only `validate` runs: nothing is built.
        // One packet per link keeps the queue slots at the link count.
        let mut cfg = config(8, 0.4, 100);
        cfg.queue_capacity = 1;
        cfg.size = Size::new(1 << 25).unwrap();
        assert!(cfg.validate().is_ok());
        cfg.size = Size::new(1 << 26).unwrap();
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("32-bit flat indices"),
            "unhelpful message: {err}"
        );
    }

    #[test]
    fn validate_agrees_with_the_constructor_panics() {
        assert!(config(8, 0.4, 100).validate().is_ok());
        let mut bad = config(8, 0.4, 100);
        bad.offered_load = f64::NAN;
        assert!(bad.validate().unwrap_err().contains("finite"));
        bad.offered_load = 1.5;
        assert!(bad.validate().unwrap_err().contains("out of range"));
        bad = config(8, 0.4, 100);
        bad.warmup = 101;
        assert!(bad.validate().unwrap_err().contains("warmup"));
        // The arenas' u16 ring offsets bound the queue capacity.
        bad = config(8, 0.4, 100);
        for (capacity, ok) in [(0, false), (1, true), (65535, true), (65536, false)] {
            bad.queue_capacity = capacity;
            assert_eq!(bad.validate().is_ok(), ok, "capacity {capacity}");
        }
    }

    #[test]
    fn queue_slots_must_fit_the_arenas_u32_handles() {
        // (2^16 + 1)(2^16 - 1) = u32::MAX exactly; 2^16 · 2^16 is one past.
        assert!(index_fits_u32(65_537, 65_535, "queue slots").is_ok());
        let err = index_fits_u32(65_536, 65_536, "queue slots").unwrap_err();
        assert!(err.contains("4294967296 queue slots"), "{err}");
        // `3·N·n` is even, so no network has exactly u32::MAX slots. At
        // N = 2048 (67,584 links) capacity 63,550 is the last that fits
        // (4095 slots short) and 63,551 the first that does not.
        let mut config = config(8, 0.4, 100);
        config.size = Size::new(2048).unwrap();
        config.queue_capacity = 63_550;
        assert!(config.validate().is_ok());
        config.queue_capacity = 63_551;
        let err = config.validate().unwrap_err();
        assert!(err.contains("queue slots"), "{err}");
    }

    #[test]
    fn warmup_boundary_counts_packets_injected_exactly_at_warmup() {
        // Identity permutation at load 1.0: every cycle each source
        // injects one packet that rides straight links only, so each
        // injection cohort of n packets is delivered together and in
        // order. The latency population therefore shrinks by exactly one
        // cohort per unit of warmup — until the warmup passes the last
        // cohort that was still delivered by the end of the run.
        let perm: Vec<usize> = (0..8).collect();
        let mk = |warmup: usize| {
            let cfg = SimConfig {
                warmup,
                offered_load: 1.0,
                ..config(8, 1.0, 100)
            };
            run_once(
                cfg,
                RoutingPolicy::FixedC,
                TrafficPattern::Permutation(perm.clone()),
            )
            .latency_count
        };
        let all = mk(0);
        assert!(all > 0 && all % 8 == 0, "whole cohorts only, got {all}");
        let last = (all / 8 - 1) as usize; // last fully-delivered cohort
        assert_eq!(
            mk(last),
            8,
            "a packet injected exactly at the warm-up cycle is counted"
        );
        assert_eq!(mk(last + 1), 0, "later cohorts never finish by the end");
    }

    #[test]
    fn warmup_equal_to_cycles_is_allowed() {
        let mut cfg = config(8, 0.3, 100);
        cfg.warmup = 100;
        let stats = run_once(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform);
        // Everything delivered was injected pre-warm-up: no latency samples.
        assert_eq!(stats.latency_count, 0);
        assert!(stats.is_conserved());
    }

    #[test]
    fn permutation_traffic_delivers_everything_eventually() {
        let perm: Vec<usize> = (0..8).rev().collect();
        let mut config = config(8, 0.2, 2000);
        config.warmup = 0;
        let stats = run_once(
            config,
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Permutation(perm),
        );
        assert_eq!(stats.misrouted, 0);
        assert!(stats.is_conserved());
        // Low load must drain almost fully.
        assert!(
            stats.delivered as f64 >= 0.9 * stats.injected as f64,
            "delivered {} of {}",
            stats.delivered,
            stats.injected
        );
    }

    #[test]
    fn latency_at_low_load_is_near_pipeline_depth() {
        // At very low load a packet should cross the n-stage pipeline plus
        // the injection hop with little queueing: mean latency < 2 * (n+1).
        let stats = run_once(
            config(16, 0.02, 2000),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        );
        let n = 4.0;
        assert!(stats.mean_latency() >= n, "cannot beat the pipeline depth");
        assert!(
            stats.mean_latency() < 2.0 * (n + 1.0),
            "mean latency {} too high for load 0.02",
            stats.mean_latency()
        );
    }

    #[test]
    fn ssdt_balance_survives_nonstraight_faults_fixedc_drops() {
        // Fault one nonstraight ICube link: FixedC drops packets that need
        // it; SsdtBalance uses the spare and drops nothing. One shared map
        // serves both runs (no per-run clone).
        let size = Size::new(8).unwrap();
        let blockages = Arc::new(iadm_fault::BlockageMap::from_links(
            size,
            [iadm_topology::Link::plus(1, 1)],
        ));
        let mk = |policy| {
            Simulator::with_blockages(
                config(8, 0.3, 600),
                policy,
                TrafficPattern::Uniform,
                Arc::clone(&blockages),
            )
            .run()
        };
        let fixed = mk(RoutingPolicy::FixedC);
        let ssdt = mk(RoutingPolicy::SsdtBalance);
        assert!(fixed.dropped > 0, "FixedC must lose packets: {fixed:?}");
        assert_eq!(ssdt.dropped, 0, "SSDT must evade the fault: {ssdt:?}");
        assert_eq!(ssdt.misrouted, 0);
    }

    #[test]
    fn hotspot_saturates_but_conserves() {
        let stats = run_once(
            config(8, 0.8, 300),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::HotSpot(0),
        );
        assert!(stats.is_conserved());
        assert_eq!(stats.misrouted, 0);
        // The hot output can sink at most 1 packet/cycle.
        assert!(stats.delivered <= stats.cycles + 1);
    }

    #[test]
    fn all_links_faulty_drops_everything_it_admits() {
        let size = Size::new(8).unwrap();
        let mut rng = iadm_rng::StdRng::seed_from_u64(3);
        let blockages = scenario::bernoulli_faults(&mut rng, size, 1.0, KindFilter::Any);
        let stats = Simulator::with_blockages(
            config(8, 0.5, 100),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
            blockages,
        )
        .run();
        assert_eq!(stats.delivered, 0);
        assert!(stats.is_conserved());
    }
}

#[cfg(test)]
mod tsdt_sender_tests {
    use super::*;

    fn config(n: usize, load: f64, cycles: usize) -> SimConfig {
        SimConfig {
            size: Size::new(n).unwrap(),
            queue_capacity: 4,
            cycles,
            warmup: cycles / 4,
            offered_load: load,
            seed: 21,
            engine: EngineKind::Synchronous,
        }
    }

    #[test]
    fn tsdt_sender_survives_mixed_faults() {
        // Faults of every kind, placed so that the network stays fully
        // connected; SSDT drops (straight faults defeat it) while the
        // TSDT sender policy delivers everything. One shared map serves
        // both runs.
        let size = Size::new(8).unwrap();
        let blockages = Arc::new(iadm_fault::BlockageMap::from_links(
            size,
            [
                iadm_topology::Link::straight(1, 1),
                iadm_topology::Link::plus(0, 2),
                iadm_topology::Link::minus(2, 6),
            ],
        ));
        let mk = |policy| {
            Simulator::with_blockages(
                config(8, 0.3, 1200),
                policy,
                TrafficPattern::Uniform,
                Arc::clone(&blockages),
            )
            .run()
        };
        let ssdt = mk(RoutingPolicy::SsdtBalance);
        let tsdt = mk(RoutingPolicy::TsdtSender);
        assert!(ssdt.dropped > 0, "SSDT must lose straight-fault traffic");
        // The TSDT sender never drops in-network; its only losses are
        // source refusals of provably disconnected pairs (here: traffic
        // from source 1 to destinations 1 and 5, severed by the straight
        // fault on its forced prefix).
        assert_eq!(
            tsdt.dropped, 0,
            "TSDT sender never drops in-network: {tsdt:?}"
        );
        assert!(
            tsdt.refused > 0,
            "disconnected pairs are refused at the source"
        );
        assert_eq!(tsdt.misrouted, 0);
        assert!(tsdt.is_conserved());
        let served = |s: &SimStats| s.delivered + s.in_flight;
        assert!(served(&tsdt) + tsdt.refused >= served(&ssdt) + ssdt.dropped);
    }

    #[test]
    fn tsdt_sender_refuses_unroutable_pairs_at_source() {
        // Disconnect destination 3 completely (block all its input links
        // at the last stage); TSDT-sender traffic to 3 is refused at the
        // source, everything else still flows.
        let size = Size::new(8).unwrap();
        let mut blockages = iadm_fault::BlockageMap::new(size);
        blockages.block_switch(size.stages(), 3);
        let stats = Simulator::with_blockages(
            config(8, 0.4, 1500),
            RoutingPolicy::TsdtSender,
            TrafficPattern::Uniform,
            blockages,
        )
        .run();
        assert!(stats.refused > 0, "traffic to 3 must be refused");
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.misrouted, 0);
        assert!(stats.is_conserved());
        // Roughly 1/8 of uniform traffic targets the dead output.
        let ratio = stats.refused as f64 / stats.injected as f64;
        assert!(ratio > 0.05 && ratio < 0.25, "refusal ratio {ratio}");
    }

    #[test]
    fn tsdt_sender_without_faults_behaves_like_fixed_c() {
        // No faults: REROUTE returns the all-C tag, so TsdtSender and
        // FixedC deliver identical flows.
        let a = Simulator::new(
            config(16, 0.3, 800),
            RoutingPolicy::TsdtSender,
            TrafficPattern::Uniform,
        )
        .run();
        let b = Simulator::new(
            config(16, 0.3, 800),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        )
        .run();
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latency_sum, b.latency_sum);
        assert_eq!(a.dropped, 0);
    }

    #[test]
    fn tag_cache_replays_reroute_outcomes() {
        // Permutation traffic fixes dest per source, so after the first
        // injection every sender_tag call is a cache hit; the outcome must
        // still match a fresh REROUTE for both routable and refused pairs.
        let size = Size::new(8).unwrap();
        let mut blockages = iadm_fault::BlockageMap::new(size);
        blockages.block_switch(size.stages(), 3);
        let perm: Vec<usize> = (0..8).rev().collect(); // source 5 -> dead output 3
        let stats = Simulator::with_blockages(
            SimConfig {
                warmup: 0,
                ..config(8, 0.5, 800)
            },
            RoutingPolicy::TsdtSender,
            TrafficPattern::Permutation(perm),
            blockages,
        )
        .run();
        assert!(stats.refused > 0, "source 5's pair is disconnected");
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.misrouted, 0);
        assert!(stats.is_conserved());
        assert!(stats.delivered > 0, "the other seven pairs still flow");
    }
}

#[cfg(test)]
mod crossbar_tests {
    use super::*;

    fn config(load: f64) -> SimConfig {
        SimConfig {
            size: Size::new(16).unwrap(),
            queue_capacity: 4,
            cycles: 2000,
            warmup: 300,
            offered_load: load,
            seed: 5,
            engine: EngineKind::Synchronous,
        }
    }

    #[test]
    fn crossbar_switches_conserve_and_deliver() {
        let stats = Simulator::new(
            config(0.6),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        )
        .with_crossbar_switches()
        .run();
        assert!(stats.is_conserved());
        assert_eq!(stats.misrouted, 0);
        assert!(stats.delivered > 0);
    }

    #[test]
    fn gamma_crossbars_outperform_iadm_switches_under_contention() {
        // Under heavy hot-ish traffic the 3x3 crossbars resolve switch
        // contention that single-input switches cannot: lower latency.
        let mk = |crossbar: bool| {
            let sim = Simulator::new(
                config(0.85),
                RoutingPolicy::SsdtBalance,
                TrafficPattern::BitReversal,
            );
            let sim = if crossbar {
                sim.with_crossbar_switches()
            } else {
                sim
            };
            sim.run()
        };
        let iadm = mk(false);
        let gamma = mk(true);
        assert!(iadm.is_conserved() && gamma.is_conserved());
        assert!(
            gamma.mean_latency() < iadm.mean_latency(),
            "crossbars must cut latency: {} vs {}",
            gamma.mean_latency(),
            iadm.mean_latency()
        );
        assert!(gamma.delivered >= iadm.delivered);
    }
}

#[cfg(test)]
mod balance_tests {
    use super::*;

    fn config(load: f64) -> SimConfig {
        SimConfig {
            size: Size::new(16).unwrap(),
            queue_capacity: 4,
            cycles: 2000,
            warmup: 200,
            offered_load: load,
            seed: 9,
            engine: EngineKind::Synchronous,
        }
    }

    #[test]
    fn fixed_c_is_maximally_imbalanced() {
        // FixedC routes every nonstraight-bound message of a switch down
        // the same sign: imbalance exactly 1.
        let stats = run_once(config(0.5), RoutingPolicy::FixedC, TrafficPattern::Uniform);
        assert!(
            (stats.nonstraight_imbalance - 1.0).abs() < 1e-12,
            "imbalance {}",
            stats.nonstraight_imbalance
        );
    }

    #[test]
    fn ssdt_balance_spreads_the_load() {
        // The paper's claim, measured: shorter-queue assignment evens the
        // nonstraight load out.
        let fixed = run_once(config(0.5), RoutingPolicy::FixedC, TrafficPattern::Uniform);
        let ssdt = run_once(
            config(0.5),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        assert!(
            ssdt.nonstraight_imbalance < 0.5 * fixed.nonstraight_imbalance,
            "SSDT imbalance {} vs FixedC {}",
            ssdt.nonstraight_imbalance,
            fixed.nonstraight_imbalance
        );
    }

    #[test]
    fn max_link_load_drops_under_balancing() {
        let fixed = run_once(config(0.7), RoutingPolicy::FixedC, TrafficPattern::Uniform);
        let ssdt = run_once(
            config(0.7),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        assert!(
            ssdt.max_link_load <= fixed.max_link_load,
            "balancing must not increase the hottest link: {} vs {}",
            ssdt.max_link_load,
            fixed.max_link_load
        );
    }

    #[test]
    fn zero_traffic_reports_zero_imbalance() {
        let stats = run_once(
            config(0.0),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        assert_eq!(stats.nonstraight_imbalance, 0.0);
        assert_eq!(stats.max_link_load, 0);
    }
}

#[cfg(test)]
mod wormhole_tests {
    use super::*;

    fn config(n: usize, load: f64, cycles: usize) -> SimConfig {
        SimConfig {
            size: Size::new(n).unwrap(),
            queue_capacity: 4,
            cycles,
            warmup: cycles / 4,
            offered_load: load,
            seed: 7,
            engine: EngineKind::Synchronous,
        }
    }

    #[test]
    fn low_load_latency_is_stages_plus_flits_plus_one() {
        // An unobstructed worm: admission cycle puts the head on a
        // stage-0 lane, `stages - 1` advances reach the last stage, the
        // output is claimed the next cycle, and F flits drain at one per
        // cycle — tail ejection at injection + stages + F, latency
        // stages + F + 1. At near-zero load the minimum is realized.
        for flits in [1u32, 4] {
            let stats = Simulator::new(
                config(16, 0.01, 4000),
                RoutingPolicy::FixedC,
                TrafficPattern::Uniform,
            )
            .with_wormhole_switching(flits, 1)
            .run();
            let floor = 4 + u64::from(flits) + 1; // stages(16) = 4
            assert!(stats.latency_count > 0);
            assert!(
                stats.latency_sum >= floor * stats.latency_count,
                "latency cannot beat the pipeline floor {floor}: {stats:?}"
            );
            assert!(
                stats.mean_latency() < 2.0 * floor as f64,
                "near-idle worms should move almost freely: {stats:?}"
            );
        }
    }

    #[test]
    fn single_flit_wormhole_matches_packet_accounting() {
        // F = 1: every worm is one flit, so the flit ledger must equal
        // the packet ledger column for column.
        let stats = Simulator::new(
            config(8, 0.4, 600),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        )
        .with_wormhole_switching(1, 1)
        .run();
        assert!(stats.is_conserved() && stats.flits_conserved(), "{stats:?}");
        assert_eq!(stats.flits_injected, stats.injected);
        assert_eq!(stats.flits_delivered, stats.delivered);
        assert_eq!(stats.flits_dropped, stats.dropped);
        assert_eq!(stats.flits_in_flight, stats.in_flight);
        assert_eq!(stats.misrouted, 0);
        assert!(stats.delivered > 0);
    }

    #[test]
    fn wormhole_uses_the_same_traffic_trace_as_store_and_forward() {
        // Arrivals draw the RNG in store-and-forward order, so the
        // injected count (and refusal-free totals) match exactly.
        let cfg = config(16, 0.5, 400);
        let sf = run_once(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform);
        let wh = Simulator::new(cfg, RoutingPolicy::FixedC, TrafficPattern::Uniform)
            .with_wormhole_switching(4, 1)
            .run();
        assert_eq!(sf.injected, wh.injected);
        assert_eq!(wh.flits_injected, wh.injected * 4);
        assert!(wh.flits_conserved(), "{wh:?}");
    }

    #[test]
    fn hotspot_output_drains_one_flit_per_cycle() {
        // All traffic to one output: the port ejects at most one flit
        // per cycle, so delivered packets are bounded by cycles / F.
        let stats = Simulator::new(
            config(8, 0.8, 400),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::HotSpot(0),
        )
        .with_wormhole_switching(4, 1)
        .run();
        assert!(stats.is_conserved() && stats.flits_conserved(), "{stats:?}");
        assert_eq!(stats.misrouted, 0);
        assert!(stats.delivered <= stats.cycles / 4 + 1, "{stats:?}");
    }

    #[test]
    fn multi_lane_links_admit_more_worms_than_single_lane() {
        // Two lanes per link at high load: strictly more capacity in the
        // network, so delivery cannot get worse and congestion (stalled
        // admissions leaving packets at sources) relaxes.
        let mk = |lanes| {
            Simulator::new(
                config(16, 0.9, 600),
                RoutingPolicy::SsdtBalance,
                TrafficPattern::Uniform,
            )
            .with_wormhole_switching(4, lanes)
            .run()
        };
        let one = mk(1);
        let two = mk(2);
        assert!(one.flits_conserved() && two.flits_conserved());
        assert!(
            two.delivered >= one.delivered,
            "extra lanes must not hurt: {} vs {}",
            two.delivered,
            one.delivered
        );
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flits_is_rejected() {
        let _ = Simulator::new(
            config(8, 0.4, 100),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        )
        .with_wormhole_switching(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_is_rejected() {
        let _ = Simulator::new(
            config(8, 0.4, 100),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        )
        .with_wormhole_switching(4, 0);
    }

    #[test]
    fn switching_mode_plumbing_is_equivalent_to_the_builder() {
        let cfg = config(8, 0.4, 300);
        let a = Simulator::new(cfg, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
            .with_switching_mode(SwitchingMode::Wormhole { flits: 2, lanes: 1 })
            .run();
        let b = Simulator::new(cfg, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
            .with_wormhole_switching(2, 1)
            .run();
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latency_sum, b.latency_sum);
        assert_eq!(a.flits_delivered, b.flits_delivered);
        // StoreForward is the identity.
        let c = Simulator::new(cfg, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
            .with_switching_mode(SwitchingMode::StoreForward)
            .run();
        let d = run_once(cfg, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform);
        assert_eq!(c.delivered, d.delivered);
        assert_eq!(c.flits_per_packet, 0);
    }
}

#[cfg(test)]
mod permutation_throughput_tests {
    use super::*;

    fn run_perm(perm: Vec<usize>, policy: RoutingPolicy) -> SimStats {
        let size = Size::new(8).unwrap();
        let config = SimConfig {
            size,
            queue_capacity: 4,
            cycles: 2000,
            warmup: 200,
            offered_load: 1.0,
            seed: 13,
            engine: EngineKind::Synchronous,
        };
        run_once(config, policy, TrafficPattern::Permutation(perm))
    }

    #[test]
    fn admissible_permutation_streams_at_full_rate() {
        // XOR permutations route over switch-disjoint paths (cube
        // admissible), so at offered load 1.0 the pipeline sustains ~1
        // packet/port/cycle with no queueing growth.
        let perm: Vec<usize> = (0..8).map(|s| s ^ 0b101).collect();
        let stats = run_perm(perm, RoutingPolicy::FixedC);
        assert_eq!(stats.misrouted, 0);
        assert!(stats.is_conserved());
        assert!(
            stats.throughput() > 0.95,
            "admissible permutation must stream: {}",
            stats.throughput()
        );
        // Latency stays at the pipeline depth (n + injection hop).
        assert!(stats.mean_latency() < 8.0, "{}", stats.mean_latency());
    }

    #[test]
    fn conflicting_permutation_throttles() {
        // Bit reversal at N=8 is not one-pass admissible: switch conflicts
        // serialize some flows and the sustained rate drops below 1.
        let perm: Vec<usize> = (0..8usize)
            .map(|s| ((s & 1) << 2) | (s & 2) | ((s >> 2) & 1))
            .collect();
        let stats = run_perm(perm, RoutingPolicy::FixedC);
        assert_eq!(stats.misrouted, 0);
        assert!(stats.is_conserved());
        assert!(
            stats.throughput() < 0.95,
            "conflicting permutation cannot stream at full rate: {}",
            stats.throughput()
        );
        // The SSDT balancing policy exploits the spare links to do better.
        let perm: Vec<usize> = (0..8usize)
            .map(|s| ((s & 1) << 2) | (s & 2) | ((s >> 2) & 1))
            .collect();
        let balanced = run_perm(perm, RoutingPolicy::SsdtBalance);
        assert!(
            balanced.throughput() >= stats.throughput() - 1e-9,
            "balancing must not hurt: {} vs {}",
            balanced.throughput(),
            stats.throughput()
        );
    }

    #[test]
    fn crossbars_lift_conflicting_permutation_throughput() {
        let perm: Vec<usize> = (0..8usize)
            .map(|s| ((s & 1) << 2) | (s & 2) | ((s >> 2) & 1))
            .collect();
        let size = Size::new(8).unwrap();
        let config = SimConfig {
            size,
            queue_capacity: 4,
            cycles: 2000,
            warmup: 200,
            offered_load: 1.0,
            seed: 13,
            engine: EngineKind::Synchronous,
        };
        let single = Simulator::new(
            config,
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Permutation(perm.clone()),
        )
        .run();
        let crossbar = Simulator::new(
            config,
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Permutation(perm),
        )
        .with_crossbar_switches()
        .run();
        assert!(
            crossbar.throughput() >= single.throughput(),
            "gamma crossbars must not reduce throughput: {} vs {}",
            crossbar.throughput(),
            single.throughput()
        );
    }
}

#[cfg(test)]
mod dchoice_convergence_tests {
    use super::*;
    use iadm_fault::scenario::{self, KindFilter};

    fn config(n: usize, load: f64, cycles: usize) -> SimConfig {
        SimConfig {
            size: Size::new(n).unwrap(),
            queue_capacity: 4,
            cycles,
            warmup: cycles / 4,
            offered_load: load,
            seed: 7,
            engine: EngineKind::Synchronous,
        }
    }

    #[test]
    fn dchoice_conserves_and_delivers_in_every_flavor() {
        for (d, sticky) in [(1u8, false), (2, false), (2, true)] {
            let stats = run_once(
                config(8, 0.5, 400),
                RoutingPolicy::DChoice { d, sticky },
                TrafficPattern::Uniform,
            );
            assert!(stats.is_conserved(), "d={d} sticky={sticky}: {stats:?}");
            assert_eq!(stats.misrouted, 0, "d={d} sticky={sticky}");
            assert_eq!(stats.dropped, 0, "no faults => no drops");
            assert!(stats.delivered > 0, "d={d} sticky={sticky}");
        }
    }

    #[test]
    fn dchoice_one_matches_fixed_c_without_faults() {
        // d = 1 samples only the preferred ΔC candidate, which fault-free
        // is exactly the FixedC behavior: identical statistics, not just
        // similar ones (both policies are deterministic).
        let fixed = run_once(
            config(16, 0.45, 400),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        );
        let one = run_once(
            config(16, 0.45, 400),
            RoutingPolicy::DChoice {
                d: 1,
                sticky: false,
            },
            TrafficPattern::Uniform,
        );
        assert_eq!(fixed.delivered, one.delivered);
        assert_eq!(fixed.latency_sum, one.latency_sum);
        assert_eq!(fixed.nonstraight_imbalance, one.nonstraight_imbalance);
    }

    #[test]
    fn dchoice_one_survives_faults_fixed_c_drops_on() {
        // Under nonstraight faults, d = 1 still evades onto the spare
        // sign (the (false, true) reroute arm) where FixedC drops.
        let size = Size::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(0xFA);
        let map = scenario::random_faults(&mut rng, size, 6, KindFilter::NonstraightOnly);
        let cfg = config(16, 0.45, 400);
        let fixed = Simulator::with_blockages(
            cfg,
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
            map.clone(),
        )
        .run();
        let one = Simulator::with_blockages(
            cfg,
            RoutingPolicy::DChoice {
                d: 1,
                sticky: false,
            },
            TrafficPattern::Uniform,
            map,
        )
        .run();
        assert!(one.is_conserved() && fixed.is_conserved());
        assert!(one.reroutes > 0, "the spare sign was never used");
        assert!(
            one.dropped < fixed.dropped,
            "fault evasion must save packets: {} vs {}",
            one.dropped,
            fixed.dropped
        );
    }

    #[test]
    fn dchoice_balances_where_fixed_c_cannot() {
        // The balanced-allocation claim, measurably: at saturating load
        // the two-choice policy spreads nonstraight traffic across both
        // signs while FixedC puts every packet on ΔC by construction.
        let two = run_once(
            config(16, 0.9, 600),
            RoutingPolicy::DChoice {
                d: 2,
                sticky: false,
            },
            TrafficPattern::Uniform,
        );
        let fixed = run_once(
            config(16, 0.9, 600),
            RoutingPolicy::FixedC,
            TrafficPattern::Uniform,
        );
        assert_eq!(fixed.nonstraight_imbalance, 1.0);
        // Ties keep ΔC deterministically, so d-choice retains a mild ΔC
        // skew (unlike SSDT's alternating flip) — but occupancy
        // comparison still pulls it far off the all-one-sign extreme.
        assert!(
            two.nonstraight_imbalance < 0.75,
            "two choices left imbalance at {}",
            two.nonstraight_imbalance
        );
    }

    #[test]
    fn sticky_dchoice_diverges_from_plain_dchoice() {
        // Sticky retention must actually change routing under load (a
        // sticky flag that never changes a decision is dead code).
        let plain = run_once(
            config(16, 0.8, 600),
            RoutingPolicy::DChoice {
                d: 2,
                sticky: false,
            },
            TrafficPattern::Uniform,
        );
        let sticky = run_once(
            config(16, 0.8, 600),
            RoutingPolicy::DChoice { d: 2, sticky: true },
            TrafficPattern::Uniform,
        );
        assert!(plain.is_conserved() && sticky.is_conserved());
        assert_ne!(
            (plain.latency_sum, plain.delivered),
            (sticky.latency_sum, sticky.delivered),
            "sticky retention never altered a route"
        );
    }

    #[test]
    fn dchoice_runs_under_wormhole_switching() {
        let stats = Simulator::new(
            config(8, 0.3, 400),
            RoutingPolicy::DChoice { d: 2, sticky: true },
            TrafficPattern::Uniform,
        )
        .with_wormhole_switching(4, 1)
        .run();
        assert!(stats.flits_conserved(), "{stats:?}");
        assert!(stats.delivered > 0);
        assert_eq!(stats.misrouted, 0);
    }

    #[test]
    fn convergence_stops_early_and_stamps_the_boundary() {
        let cfg = config(16, 0.3, 20_000);
        let stats = Simulator::new(cfg, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
            .with_convergence(200, 0.05)
            .run();
        assert!(
            stats.converged_at_cycle > 0,
            "a 20k-cycle uniform run must reach steady state: {stats:?}"
        );
        assert_eq!(stats.cycles, stats.converged_at_cycle);
        assert!(stats.cycles < 20_000, "never stopped early");
        assert_eq!(stats.converged_at_cycle % 200, 0, "not a window boundary");
        assert!(stats.is_conserved());
    }

    #[test]
    fn convergence_off_leaves_the_sentinel_zero() {
        let stats = run_once(
            config(8, 0.4, 400),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        );
        assert_eq!(stats.converged_at_cycle, 0);
        assert_eq!(stats.cycles, 400);
    }

    #[test]
    fn zero_load_windows_never_converge() {
        // Empty windows carry no evidence: a run with no latency samples
        // must execute its full horizon, not "converge" on 0 == 0.
        let stats = Simulator::new(
            config(8, 0.0, 1000),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        )
        .with_convergence(50, 0.1)
        .run();
        assert_eq!(stats.converged_at_cycle, 0);
        assert_eq!(stats.cycles, 1000);
    }

    /// The engine's and the reference loop's statistics for a converging
    /// run of `policy` at `load`, asserted byte-identical field by field.
    fn converge_against_reference(policy: RoutingPolicy, load: f64, window: u64, tol: f64) {
        let run = crate::reference::Run {
            converge: Some((window, tol)),
            ..crate::reference::Run::new(config(16, load, 20_000), policy)
        };
        let engine = run.simulator(&mut SimScratch::default());
        assert!(
            engine.converged_at_cycle > 0,
            "{policy:?} at {load} never converged"
        );
        assert_eq!(format!("{engine:?}"), format!("{:?}", run.reference()));
    }

    #[test]
    fn converged_runs_match_across_engines_byte_for_byte() {
        // An early-stopped run stops at the same boundary, with the same
        // statistics, in the engine and in the dense reference loop.
        for load in [0.2, 0.6] {
            converge_against_reference(RoutingPolicy::SsdtBalance, load, 200, 0.05);
        }
    }

    #[test]
    fn dchoice_matches_across_engines_with_convergence() {
        let policy = RoutingPolicy::DChoice { d: 2, sticky: true };
        converge_against_reference(policy, 0.5, 100, 0.1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_convergence_window_is_rejected() {
        let _ = Simulator::new(
            config(8, 0.4, 100),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        )
        .with_convergence(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn negative_convergence_tolerance_is_rejected() {
        let _ = Simulator::new(
            config(8, 0.4, 100),
            RoutingPolicy::SsdtBalance,
            TrafficPattern::Uniform,
        )
        .with_convergence(10, -0.5);
    }
}
