//! Helpers shared across the simulator's integration suites (each test
//! binary compiles this module into itself via `mod util;` — not every
//! suite uses every helper, hence the dead-code allowance).

#![allow(dead_code)]

pub mod goldens;

use iadm_sim::{LaneLedger, RoutingPolicy, SimStats, Simulator};

/// Every routing policy, in the order the suites sweep them.
pub const ALL_POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::FixedC,
    RoutingPolicy::SsdtBalance,
    RoutingPolicy::RandomSign,
    RoutingPolicy::TsdtSender,
];

/// Steps the simulator to the end by hand, asserting the flit ledger
/// balances after **every** cycle, then returns the final stats. This is
/// the strong form of conservation: a lane released twice or a tail flit
/// forgotten in a teardown fails on the cycle it happens, not as a fuzzy
/// end-of-run imbalance.
/// Asserts the wormhole lane ledger is exact: every lane slot is free or
/// held by exactly one live worm that lists it, per-link held counts
/// match the occupied-lane sums, and no dead worm's reservation
/// survives its teardown. Arbitration-policy agnostic on purpose —
/// *which* lane a grant landed on is never checked, only that the
/// three views of the ledger (holder array, per-link counters, per-worm
/// held lists) agree.
pub fn check_lane_ledger(ledger: &LaneLedger, ctx: &str) {
    let links = ledger.held.len();
    assert_eq!(ledger.holders.len(), links * ledger.lanes, "{ctx}");
    // Per-link counters equal the occupied-lane sums.
    for q in 0..links {
        let occupied = ledger.holders[q * ledger.lanes..(q + 1) * ledger.lanes]
            .iter()
            .filter(|h| h.is_some())
            .count();
        assert_eq!(
            occupied, ledger.held[q],
            "{ctx}: link {q} held counter drifted from its lanes"
        );
    }
    // Every live worm's held slots are distinct and granted to it.
    let mut owned = std::collections::HashMap::new();
    for (id, held) in &ledger.live {
        for &slot in held {
            assert_eq!(
                ledger.holders[slot as usize],
                Some(*id),
                "{ctx}: worm {id} lists lane slot {slot} it does not hold"
            );
            assert!(
                owned.insert(slot, *id).is_none(),
                "{ctx}: lane slot {slot} double-granted"
            );
        }
    }
    // Every occupied lane is owned by some live worm — a dead worm's
    // leftover grant (teardown leak) fails here.
    for (slot, holder) in ledger.holders.iter().enumerate() {
        if let Some(id) = holder {
            assert_eq!(
                owned.get(&(slot as u32)),
                Some(id),
                "{ctx}: lane slot {slot} held by {id}, which is not a live worm"
            );
        }
    }
}

/// [`run_checking_every_cycle`] plus the lane-ledger cross-validation
/// after every cycle: the strong form for multi-lane wormhole runs,
/// where a grant charged to the wrong link or a lane surviving a
/// teardown stays invisible to the flit ledger.
pub fn run_checking_lanes_every_cycle(mut sim: Simulator, cycles: usize, label: &str) -> SimStats {
    for cycle in 0..cycles {
        sim.step();
        let s = sim.stats();
        let in_flight = sim.flits_in_flight();
        assert_eq!(
            s.flits_injected,
            s.flits_delivered + s.flits_dropped + s.flits_refused + in_flight,
            "{label}: flit ledger broke at cycle {cycle}"
        );
        assert_eq!(s.misrouted, 0, "{label}: misroute at cycle {cycle}");
        let ledger = sim.lane_ledger().expect("wormhole mode has a lane ledger");
        check_lane_ledger(&ledger, &format!("{label} cycle {cycle}"));
    }
    sim.finish()
}

pub fn run_checking_every_cycle(mut sim: Simulator, cycles: usize, label: &str) -> SimStats {
    for cycle in 0..cycles {
        sim.step();
        let s = sim.stats();
        let in_flight = sim.flits_in_flight();
        assert_eq!(
            s.flits_injected,
            s.flits_delivered + s.flits_dropped + s.flits_refused + in_flight,
            "{label}: ledger broke at cycle {cycle}: injected {} != \
             delivered {} + dropped {} + refused {} + in-flight {in_flight}",
            s.flits_injected,
            s.flits_delivered,
            s.flits_dropped,
            s.flits_refused,
        );
        assert_eq!(s.misrouted, 0, "{label}: misroute at cycle {cycle}");
    }
    sim.finish()
}
