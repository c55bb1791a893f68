//! The `WorkloadSource` trait: the contract between a workload and the
//! simulator engine.
//!
//! The simulator used to *be* its own workload — a Bernoulli draw per
//! source per cycle, hard-coded into the arrivals phase. A workload
//! source inverts that: the engine asks the workload what to inject
//! (`poll`), and tells it what happened to every tracked packet
//! (`on_delivered` / `on_lost`), so the workload can close the loop —
//! issue a response when a request lands, start thinking when a response
//! lands, re-issue after a loss. The engine stays in charge of *when*
//! (cycle phases); the workload is in charge of
//! *what* (which packets, between which nodes, tagged with which
//! operation).
//!
//! # The determinism contract
//!
//! The engine polls a source **every cycle**, after the cycle's
//! delivery and loss hooks, and its statistics must be a pure function
//! of the run's seeds. Two rules keep it so:
//!
//! 1. `poll` on a cycle where nothing is due must be a **strict no-op**:
//!    no RNG draws, no injections.
//! 2. All randomness comes from the `rng` handed in — a dedicated
//!    workload stream, disjoint from the engine's traffic stream — and
//!    hooks fire in the engine's canonical phase order, so the draw
//!    sequence is fixed by the seeds.

use crate::histogram::LatencyHistogram;
use iadm_rng::StdRng;

/// The `op` value of a packet no workload is tracking (open-loop
/// traffic). Delivery and loss hooks are skipped for such packets.
pub const NO_OP: u32 = u32::MAX;

/// One packet the workload asks the engine to inject: `source` enqueues
/// a packet for `dest`, stamped with the workload's operation id `op`
/// (or [`NO_OP`] for fire-and-forget traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Injecting node (a source-queue index, `< N`).
    pub source: u32,
    /// Destination node (`< N`).
    pub dest: u32,
    /// Workload operation id carried by the packet, or [`NO_OP`].
    pub op: u32,
}

/// Aggregate closed-loop statistics, collected from a source when a run
/// finishes. All zeros for sources that track no operations (open-loop
/// and adversarial schedules), which is what keeps the workload block
/// out of open-loop JSON artifacts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Operations issued (requests, flows, or collective instances).
    pub issued: u64,
    /// Operations that ran to completion.
    pub completed: u64,
    /// Operations aborted because a constituent packet was lost.
    pub aborted: u64,
    /// Operations still in flight when the run ended.
    pub live: u64,
    /// Sum of end-to-end completion latencies (post-warmup issues only).
    pub latency_sum: u64,
    /// Number of recorded completion latencies.
    pub latency_count: u64,
    /// Largest recorded completion latency.
    pub latency_max: u64,
    /// Completion-latency histogram (power-of-two buckets).
    pub histogram: LatencyHistogram,
}

impl WorkloadStats {
    /// Mean end-to-end completion latency over recorded completions.
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.latency_count as f64
        }
    }

    /// Upper bound on the `p`-th completion-latency percentile,
    /// tightened to the observed maximum; `0` when nothing completed.
    pub fn percentile(&self, p: f64) -> u64 {
        match self.histogram.percentile_bound(p) {
            Some(bound) => bound.min(self.latency_max),
            None => 0,
        }
    }

    /// Every issued operation must be accounted for: completed, aborted
    /// after a loss, or still live at the end of the run.
    pub fn is_conserved(&self) -> bool {
        self.issued == self.completed + self.aborted + self.live
    }

    /// Records one completion latency for an operation issued at or
    /// after the warmup boundary.
    pub fn record_latency(&mut self, latency: u64) {
        self.latency_sum += latency;
        self.latency_count += 1;
        self.latency_max = self.latency_max.max(latency);
        self.histogram.record(latency);
    }
}

/// A traffic generator the simulator pulls injections from.
///
/// See the module docs for the determinism contract every
/// implementation must uphold.
pub trait WorkloadSource: std::fmt::Debug {
    /// Called on a due cycle (every cycle, for the synchronous engine):
    /// append this cycle's fresh injections to `out`. Must be a strict
    /// no-op — zero draws from `rng`, zero injections — when nothing is
    /// due at `cycle`.
    fn poll(&mut self, cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>);

    /// A tracked packet (`op != NO_OP`) reached its destination at
    /// `cycle`. Response or follow-on packets go into `out`; they are
    /// injected in this same cycle's arrivals phase.
    fn on_delivered(&mut self, op: u32, cycle: u64, rng: &mut StdRng, out: &mut Vec<Injection>);

    /// A tracked packet was lost at `cycle` (dropped at a full queue,
    /// dropped during an outage, misrouted, or refused at injection).
    /// Sources abort the operation and account it; they may arm a
    /// retry/think timer but must not inject from this hook.
    fn on_lost(&mut self, op: u32, cycle: u64, rng: &mut StdRng);

    /// Folds this source's final accounting into `out` at the end of a
    /// run.
    fn collect(&self, out: &mut WorkloadStats);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_conserved_and_report_zero_percentiles() {
        let stats = WorkloadStats::default();
        assert!(stats.is_conserved());
        assert_eq!(stats.percentile(0.99), 0);
        assert_eq!(stats.mean_latency(), 0.0);
    }

    #[test]
    fn recorded_latencies_tighten_percentiles_to_the_maximum() {
        let mut stats = WorkloadStats::default();
        stats.record_latency(5);
        stats.record_latency(9);
        assert_eq!(stats.latency_count, 2);
        assert_eq!(stats.latency_sum, 14);
        assert_eq!(stats.latency_max, 9);
        // Bucket [8, 15] would report 15; the observed max is tighter.
        assert_eq!(stats.percentile(1.0), 9);
        assert_eq!(stats.mean_latency(), 7.0);
    }

    #[test]
    fn conservation_detects_a_lost_operation() {
        let stats = WorkloadStats {
            issued: 3,
            completed: 1,
            aborted: 1,
            live: 0,
            ..WorkloadStats::default()
        };
        assert!(!stats.is_conserved());
    }
}
