//! Simulation statistics.

use crate::active::ActiveArena;
use crate::histogram::LatencyHistogram;
use crate::queue::{QueueArena, ReservationTable};
use iadm_topology::{LinkKind, Size};
use iadm_workload::WorkloadStats;

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Packets injected into source queues.
    pub injected: u64,
    /// Packets delivered to their destination output.
    pub delivered: u64,
    /// Packets delivered to the *wrong* output (must stay 0; a nonzero
    /// value indicates a routing bug).
    pub misrouted: u64,
    /// Packets dropped because every usable output link was blocked by
    /// faults (only possible in fault scenarios).
    pub dropped: u64,
    /// Packets refused at the source because the sender's REROUTE found no
    /// blockage-free path (TSDT sender policy only; these pairs are
    /// provably disconnected).
    pub refused: u64,
    /// Packets still inside the network or source queues when the run
    /// ended.
    pub in_flight: u64,
    /// Sum of delivery latencies (cycles from injection to delivery) over
    /// delivered packets injected at or after the warm-up cycle (a packet
    /// injected exactly at cycle `warmup` is counted).
    pub latency_sum: u64,
    /// Number of delivered packets counted in `latency_sum`.
    pub latency_count: u64,
    /// Maximum delivery latency observed after warm-up.
    pub latency_max: u64,
    /// Largest link-queue occupancy observed anywhere in the network.
    pub queue_high_water: usize,
    /// Mean link-queue occupancy, averaged over all queues and cycles.
    pub queue_mean_occupancy: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Network ports.
    pub ports: usize,
    /// Nonstraight-link load imbalance in `[0, 1]`: per switch,
    /// `|plus_traffic - minus_traffic| / (plus_traffic + minus_traffic)`,
    /// averaged over switches that carried any nonstraight traffic.
    /// `0.0` = the paper's "evenly distributed" ideal; `1.0` = every
    /// switch sent all its nonstraight traffic down one sign (what the
    /// fixed state-C policy does by construction).
    pub nonstraight_imbalance: f64,
    /// The largest number of packets any single link carried.
    pub max_link_load: u64,
    /// Power-of-two-bucketed histogram of delivery latencies (same
    /// population as `latency_sum` / `latency_count`: post-warm-up
    /// deliveries only).
    pub latency_histogram: LatencyHistogram,
    /// Packets carried per stage, summed over the stage's links
    /// (`stage_link_use[i]` = total transfers leaving stage `i`).
    pub stage_link_use: Vec<u64>,
    /// Transient-fault timeline events processed (0 for static runs; the
    /// degradation fields below are only meaningful when this is
    /// nonzero).
    pub fault_events: u64,
    /// Packets steered off their preferred route by fault evasion: SSDT
    /// packets forced onto the spare nonstraight sign because the `ΔC`
    /// candidate was blocked, and TSDT injections whose sender-computed
    /// state word is nonzero (REROUTE bent the path around a blockage).
    pub reroutes: u64,
    /// The subset of `dropped` that occurred while at least one
    /// timeline-failed link was still down — loss attributable to
    /// outages rather than to the steady-state fault pattern.
    pub dropped_during_outage: u64,
    /// Distinct links that failed at least once during the run.
    pub links_failed: u64,
    /// Total link-down cycles summed over all links (one link down for
    /// 200 cycles and two links down for 50 each = 300).
    pub link_downtime_cycles: u64,
    /// The worst per-link availability: `1 - downtime / cycles` of the
    /// most-degraded link (1.0 when nothing failed; 0.0 default for
    /// static runs, where it is meaningless).
    pub availability_min: f64,
    /// Mean per-link availability over all links of the network.
    pub availability_mean: f64,
    /// Timeline events that brought a blocked link back *up* (the repair
    /// subset of `fault_events`; 0 for static runs and failure-only
    /// timelines, which keeps the field out of their JSON artifacts).
    pub repair_events: u64,
    /// TSDT sender re-tags triggered by repair awareness: cache lookups
    /// that missed *only* because a repair had landed since the line was
    /// filled and the cached outcome (a refusal or a bent tag) could have
    /// improved. Always 0 under `TagRepair::Blind`, where senders wait
    /// out epoch turnover instead.
    pub retags_on_repair: u64,
    /// Flits per packet (0 for store-and-forward runs; the flit counters
    /// below are only meaningful when this is nonzero).
    pub flits_per_packet: u64,
    /// Flits injected (wormhole mode: `injected * flits_per_packet`).
    pub flits_injected: u64,
    /// Flits whose worm's tail ejected at an output port.
    pub flits_delivered: u64,
    /// Flits lost when their worm was killed (blocked with no usable
    /// output, or a reserved link went down mid-worm).
    pub flits_dropped: u64,
    /// Flits of packets refused at the source (TSDT sender policy).
    pub flits_refused: u64,
    /// Flits still pipelined through the network or waiting in source
    /// queues when the run ended.
    pub flits_in_flight: u64,
    /// Closed-loop workload accounting (request/flow/collective
    /// completions and end-to-end latency percentiles). All zeros —
    /// `workload.issued == 0` — for open-loop runs, which is what keeps
    /// the workload block out of their JSON artifacts.
    pub workload: WorkloadStats,
    /// The cycle at which steady-state convergence stopped the run
    /// (`Simulator::with_convergence`): the window boundary where two
    /// consecutive non-empty windows' mean latencies agreed within
    /// tolerance. `0` is the sentinel for "not applicable" — detection
    /// off, or the run reached its fixed horizon without converging —
    /// and is unambiguous because a poll can only fire at the end of the
    /// first window, which is at least cycle 1. Keeps the field (and its
    /// JSON emission) out of every pre-convergence artifact.
    pub converged_at_cycle: u64,
}

impl SimStats {
    /// Mean delivery latency in cycles (0.0 when nothing was delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.latency_count as f64
        }
    }

    /// Delivered throughput in packets per port per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 || self.ports == 0 {
            0.0
        } else {
            self.delivered as f64 / (self.cycles as f64 * self.ports as f64)
        }
    }

    /// Conservation check: every injected packet is delivered, dropped,
    /// refused at the source, or still in flight.
    pub fn is_conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped + self.refused + self.in_flight
    }

    /// Flit-level conservation check, the wormhole analogue of
    /// [`is_conserved`]: every injected flit is delivered, dropped with
    /// its killed worm, refused at the source, or still pipelined.
    /// Vacuously true for store-and-forward runs (`flits_per_packet == 0`).
    ///
    /// [`is_conserved`]: SimStats::is_conserved
    pub fn flits_conserved(&self) -> bool {
        self.flits_per_packet == 0
            || self.flits_injected
                == self.flits_delivered
                    + self.flits_dropped
                    + self.flits_refused
                    + self.flits_in_flight
    }

    /// The `p`-th latency percentile (`p` in `[0, 1]`) as an upper bound:
    /// the power-of-two bucket edge holding the sample of rank
    /// `ceil(p * count)`, tightened to the observed maximum.
    ///
    /// Edge cases are exact, not bucket artifacts: with **no** recorded
    /// samples every percentile is the documented sentinel `0`
    /// (unambiguous — a real delivery latency is always at least 1
    /// cycle), and with a **single** sample every percentile is that
    /// sample itself (the `latency_max` tightening collapses the bucket's
    /// upper edge onto the one observation).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        match self.latency_histogram.percentile_bound(p) {
            None => 0,
            Some(bound) => bound.min(self.latency_max),
        }
    }
}

/// The end-of-run counters of one link ledger, indexed by flat link
/// index ([`iadm_topology::Link::flat_index`]): the input of
/// [`SimStats::fold_links`]. The flat [`QueueArena`], the event engine's
/// dense [`ActiveArena`] and the wormhole [`ReservationTable`] all keep
/// them, in the same units per link.
pub(crate) trait LinkLedger {
    /// Number of links (the occupancy mean's denominator).
    fn link_count(&self) -> usize;
    /// Packets still buffered on link `q` (counted into `in_flight`).
    fn resident(&self, q: usize) -> u64;
    /// Largest occupancy ever observed on link `q`.
    fn high_water(&self, q: usize) -> usize;
    /// Mean occupancy of link `q` over all sample points.
    fn mean_occupancy(&self, q: usize) -> f64;
    /// Packets (or, for worms, flits) carried over link `q`.
    fn carried(&self, q: usize) -> u64;
}

impl LinkLedger for QueueArena {
    fn link_count(&self) -> usize {
        self.queue_count()
    }
    fn resident(&self, q: usize) -> u64 {
        self.len(q) as u64
    }
    fn high_water(&self, q: usize) -> usize {
        QueueArena::high_water(self, q)
    }
    fn mean_occupancy(&self, q: usize) -> f64 {
        QueueArena::mean_occupancy(self, q)
    }
    fn carried(&self, q: usize) -> u64 {
        QueueArena::carried(self, q)
    }
}

impl LinkLedger for ActiveArena {
    fn link_count(&self) -> usize {
        self.queue_count()
    }
    fn resident(&self, q: usize) -> u64 {
        self.len(q) as u64
    }
    fn high_water(&self, q: usize) -> usize {
        ActiveArena::high_water(self, q)
    }
    fn mean_occupancy(&self, q: usize) -> f64 {
        ActiveArena::mean_occupancy(self, q)
    }
    fn carried(&self, q: usize) -> u64 {
        ActiveArena::carried(self, q)
    }
}

/// Occupancy counts held lanes; the worms holding them are counted into
/// `in_flight` from the worm table, so no link holds resident packets.
impl LinkLedger for ReservationTable {
    fn link_count(&self) -> usize {
        ReservationTable::link_count(self)
    }
    fn resident(&self, _q: usize) -> u64 {
        0
    }
    fn high_water(&self, q: usize) -> usize {
        ReservationTable::high_water(self, q)
    }
    fn mean_occupancy(&self, q: usize) -> f64 {
        ReservationTable::mean_occupancy(self, q)
    }
    fn carried(&self, q: usize) -> u64 {
        ReservationTable::carried(self, q)
    }
}

impl SimStats {
    /// The one statistics fold: sets the queue-occupancy, link-use and
    /// nonstraight-imbalance statistics from `ledger` and adds the
    /// packets still buffered to `in_flight`, reading the three links
    /// `3s..3s + 3` of each switch `s` of `switches` (flat
    /// `(stage, switch)` indices).
    ///
    /// `switches` must be ascending and must include every switch with a
    /// link with a non-zero counter. A switch left out would contribute
    /// `0` to the integer folds and `+0.0` to the occupancy sum, an exact
    /// IEEE identity on these non-negative partial sums, so the full
    /// range and any superset of the touched switches give bit-identical
    /// results while the work stays proportional to the switches given.
    /// Links are read in ascending flat order, the `(stage, switch)`
    /// nesting of the paper's load-balancing argument.
    pub(crate) fn fold_links<L: LinkLedger>(
        &mut self,
        ledger: &L,
        size: Size,
        switches: impl IntoIterator<Item = usize>,
    ) {
        let mut high_water = 0usize;
        let mut occupancy_sum = 0.0f64;
        let mut imbalance_sum = 0.0f64;
        let mut switches_with_traffic = 0usize;
        let mut max_link_load = 0u64;
        let mut stage_link_use = vec![0u64; size.stages()];
        let mut last_switch = None;
        for switch in switches {
            debug_assert!(last_switch < Some(switch), "switches must ascend");
            last_switch = Some(switch);
            for q in 3 * switch..3 * switch + 3 {
                self.in_flight += ledger.resident(q);
                high_water = high_water.max(ledger.high_water(q));
                occupancy_sum += ledger.mean_occupancy(q);
            }
            let carried = |kind: LinkKind| ledger.carried(3 * switch + kind.index());
            let (plus, minus) = (carried(LinkKind::Plus), carried(LinkKind::Minus));
            let straight = carried(LinkKind::Straight);
            max_link_load = max_link_load.max(plus).max(minus).max(straight);
            stage_link_use[switch >> size.stages()] += plus + minus + straight;
            if plus + minus > 0 {
                imbalance_sum += (plus.abs_diff(minus)) as f64 / (plus + minus) as f64;
                switches_with_traffic += 1;
            }
        }
        self.stage_link_use = stage_link_use;
        self.nonstraight_imbalance = if switches_with_traffic == 0 {
            0.0
        } else {
            imbalance_sum / switches_with_traffic as f64
        };
        self.max_link_load = max_link_load;
        self.queue_high_water = high_water;
        let link_count = ledger.link_count();
        self.queue_mean_occupancy = if link_count == 0 {
            0.0
        } else {
            occupancy_sum / link_count as f64
        };
    }
}

/// `x` after `k` repetitions of `x += 1.0`, in a few additions instead
/// of `k`. While `x + 1.0` stays inside `x`'s binade `[2^e, 2^(e+1))`
/// with `0 <= e < 52`, every step is exact (the binade's spacing divides
/// 1), so the steps up to the binade's top collapse into one exact
/// addition; the step that crosses into the next binade may round, and
/// is taken as it is. Outside that range every step is taken as it is.
pub(crate) fn add_ones(mut x: f64, mut k: usize) -> f64 {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    while k > 0 {
        if (1.0..EXACT_BELOW).contains(&x) {
            // 2^(e+1): the exponent field plus one, mantissa cleared.
            let top = f64::from_bits(((x.to_bits() >> 52) + 1) << 52);
            // Exact (Sterbenz): top / 2 <= x < top.
            let room = top - x;
            let inside = (room.ceil() as usize - 1).min(k);
            x += inside as f64;
            k -= inside;
            if k == 0 {
                break;
            }
        }
        x += 1.0;
        k -= 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    iadm_check::check! {
        /// The collapsed additions land on the bits the one-by-one sum
        /// does, from sums of fractions (as the availability fold builds
        /// them) through binade crossings.
        fn add_ones_equals_repeated_addition(g; cases = 256) {
            let mut x = 0.0f64;
            for _ in 0..g.usize_in(0..=4) {
                x += g.f64_in(0.0..1.0);
                x = add_ones(x, g.usize_in(0..=3));
            }
            if g.bool_with(0.2) {
                x += (1u64 << g.usize_in(0..=53)) as f64;
            }
            let k = g.usize_in(0..=70_000);
            let mut slow = x;
            for _ in 0..k {
                slow += 1.0;
            }
            iadm_check::check_assert_eq!(add_ones(x, k).to_bits(), slow.to_bits(), "x {x}, k {k}");
        }
    }

    /// The fields [`SimStats::fold_links`] sets, floats as raw bits so
    /// equality is bit-identity.
    fn folded<L: LinkLedger>(
        ledger: &L,
        size: Size,
        switches: impl IntoIterator<Item = usize>,
    ) -> (u64, usize, u64, u64, u64, Vec<u64>) {
        let mut stats = SimStats::default();
        stats.fold_links(ledger, size, switches);
        (
            stats.in_flight,
            stats.queue_high_water,
            stats.queue_mean_occupancy.to_bits(),
            stats.nonstraight_imbalance.to_bits(),
            stats.max_link_load,
            stats.stage_link_use,
        )
    }

    iadm_check::check! {
        /// The sparse fold over the switches of the event arena's touched
        /// queues equals the full walk over the flat arena, bit for bit, after
        /// the same random push/pop/carry/tick sequence on both.
        fn touched_fold_equals_the_full_walk(g; cases = 256) {
            let size = Size::new(1 << g.usize_in(1..=4)).expect("power of two");
            let links = 3 * size.n() * size.stages();
            let capacity = g.usize_in(1..=4);
            let mut flat = QueueArena::new(links, capacity);
            let mut active = ActiveArena::new(links, capacity);
            // Traffic concentrates on a few links, as it does at low load.
            let hot: Vec<usize> = (0..4).map(|_| g.usize_in(0..=links - 1)).collect();
            for step in 0..g.usize_in(0..=300) {
                let q = if g.bool_with(0.8) {
                    hot[g.usize_in(0..=3)]
                } else {
                    g.usize_in(0..=links - 1)
                };
                match g.u32_in(0..=3) {
                    0 => {
                        let packet = Packet::new(step % size.n(), step as u64);
                        iadm_check::check_assert_eq!(flat.push(q, packet), active.push(q, packet));
                    }
                    1 => iadm_check::check_assert_eq!(flat.pop(q), active.pop(q)),
                    2 if !flat.is_empty(q) => {
                        iadm_check::check_assert_eq!(flat.pop_carried(q), active.pop_carried(q));
                    }
                    _ => {
                        flat.tick();
                        active.tick();
                    }
                }
            }
            let mut touched: Vec<usize> =
                active.touched_queues().iter().map(|&q| q as usize / 3).collect();
            touched.sort_unstable();
            touched.dedup();
            let full = folded(&flat, size, 0..links / 3);
            iadm_check::check_assert_eq!(folded(&active, size, touched), full);
            iadm_check::check_assert_eq!(folded(&active, size, 0..links / 3), full);
        }
    }

    #[test]
    fn mean_latency_handles_empty() {
        assert_eq!(SimStats::default().mean_latency(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let stats = SimStats {
            injected: 10,
            delivered: 8,
            dropped: 1,
            in_flight: 1,
            latency_sum: 40,
            latency_count: 8,
            latency_max: 9,
            cycles: 100,
            ports: 8,
            ..Default::default()
        };
        assert!((stats.mean_latency() - 5.0).abs() < 1e-9);
        assert!((stats.throughput() - 0.01).abs() < 1e-9);
        assert!(stats.is_conserved());
    }

    #[test]
    fn conservation_detects_loss() {
        let stats = SimStats {
            injected: 10,
            delivered: 8,
            ..Default::default()
        };
        assert!(!stats.is_conserved());
    }

    #[test]
    fn percentile_of_empty_stats_is_the_zero_sentinel() {
        // No samples: the histogram reports None and every percentile is
        // the documented sentinel 0 — impossible as a real latency, which
        // is always >= 1 cycle.
        let stats = SimStats::default();
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(stats.percentile(p), 0, "p={p}");
        }
        assert_eq!(stats.latency_histogram.percentile_bound(0.5), None);
    }

    #[test]
    fn percentile_of_single_sample_is_exact() {
        // One recorded latency: every percentile is that sample, because
        // the bucket upper bound (7 for the [4,7] bucket) is tightened to
        // the observed maximum — never the bucket-boundary artifact.
        let mut stats = SimStats::default();
        stats.latency_histogram.record(5);
        stats.latency_max = 5;
        stats.latency_sum = 5;
        stats.latency_count = 1;
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(stats.percentile(p), 5, "p={p}");
        }
        // The bucketed bound alone would have said 7.
        assert_eq!(stats.latency_histogram.percentile_bound(0.5), Some(7));
    }

    #[test]
    fn percentile_single_sample_on_a_bucket_boundary_is_exact() {
        // A sample sitting exactly on a bucket's lower edge (8 opens the
        // [8,15] bucket) must still come back as itself, not 15.
        let mut stats = SimStats::default();
        stats.latency_histogram.record(8);
        stats.latency_max = 8;
        stats.latency_count = 1;
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(stats.percentile(p), 8, "p={p}");
        }
    }

    #[test]
    fn percentile_is_the_documented_bound_convention() {
        // `SimStats::percentile` and the histogram's `percentile_bound`
        // must never drift apart: the former is definitionally the
        // latter tightened to the observed maximum, with `None` mapped
        // to the scalar sentinel 0 — the exact convention
        // `WorkloadStats::percentile` also follows (pinned in the
        // `percentile_bound` doc).
        let mut stats = SimStats::default();
        for v in [2u64, 5, 9, 33, 120, 121] {
            stats.latency_histogram.record(v);
            stats.latency_max = stats.latency_max.max(v);
        }
        for p in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let expect = stats
                .latency_histogram
                .percentile_bound(p)
                .map_or(0, |b| b.min(stats.latency_max));
            assert_eq!(stats.percentile(p), expect, "p={p}");
        }
        // p = 0 is the lowest sample's tightened bucket edge (3 for the
        // [2,3] bucket), never a fabricated zero.
        assert_eq!(stats.percentile(0.0), 3);
        // And absence agrees across the API boundary: None upstream is
        // exactly the 0 sentinel downstream.
        let empty = SimStats::default();
        assert_eq!(empty.latency_histogram.percentile_bound(0.5), None);
        assert_eq!(empty.percentile(0.5), 0);
    }

    #[test]
    fn percentile_with_saturated_bucket_collapses_to_max() {
        // All samples in one bucket: p50 == p99 == observed max.
        let mut stats = SimStats::default();
        for v in [8u64, 9, 10, 12, 15] {
            stats.latency_histogram.record(v);
            stats.latency_max = stats.latency_max.max(v);
            stats.latency_sum += v;
            stats.latency_count += 1;
        }
        assert_eq!(stats.percentile(0.50), 15);
        assert_eq!(stats.percentile(0.99), 15);
        // Mean/throughput behavior is unchanged by the histogram.
        assert!((stats.mean_latency() - 54.0 / 5.0).abs() < 1e-12);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn flit_conservation_is_vacuous_for_store_and_forward() {
        // flits_per_packet == 0 marks a store-and-forward run: the flit
        // ledger is all zeros and the check must not fire.
        let stats = SimStats::default();
        assert!(stats.flits_conserved());
    }

    #[test]
    fn flit_conservation_detects_loss() {
        let mut stats = SimStats {
            flits_per_packet: 4,
            flits_injected: 16,
            flits_delivered: 8,
            flits_dropped: 4,
            flits_refused: 0,
            flits_in_flight: 4,
            ..Default::default()
        };
        assert!(stats.flits_conserved());
        stats.flits_in_flight = 3;
        assert!(!stats.flits_conserved());
    }
}
