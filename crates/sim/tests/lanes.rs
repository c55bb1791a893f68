//! The multi-lane ledger contract: with several lanes per link, the
//! reservation table keeps three views of the same state — the flat
//! holder array, the per-link held counters, and each worm's held-slot
//! list — and a grant charged to the wrong link or a teardown leaking a
//! lane keeps the *flit* ledger balanced while corrupting the *lane*
//! ledger. `tests/util`'s lane-ledger checker cross-validates all three
//! views after every cycle, for every routing policy, under MTBF churn
//! (teardowns) and fault-free (steady pipelining) alike.
//!
//! The companion check pins what the E20 records rest on: a
//! lane-arbitration label is accepted and never read, so every label
//! gives byte-identical statistics.

use iadm_bench::json::sim_stats_json;
use iadm_fault::{BlockageMap, FaultTimeline};
use iadm_sim::{EngineKind, LaneArbitration, RoutingPolicy, SimConfig, Simulator, TrafficPattern};
use iadm_topology::Size;

mod util;
use util::{run_checking_lanes_every_cycle, ALL_POLICIES};

const FLITS: u32 = 4;
const LANES: u32 = 2;

fn config(cycles: usize) -> SimConfig {
    SimConfig {
        size: Size::new(8).unwrap(),
        queue_capacity: 4,
        cycles,
        warmup: cycles / 4,
        offered_load: 0.5,
        seed: 0xBEEF,
        engine: EngineKind::Synchronous,
    }
}

fn lane_sim(
    cfg: SimConfig,
    policy: RoutingPolicy,
    arb: LaneArbitration,
    timeline: FaultTimeline,
) -> Simulator {
    Simulator::with_fault_timeline(
        cfg,
        policy,
        TrafficPattern::Uniform,
        BlockageMap::new(cfg.size),
        timeline,
    )
    .with_wormhole_switching(FLITS, LANES)
    .with_lane_arbitration(arb)
}

#[test]
fn lane_ledger_is_exact_every_cycle_under_churn_for_every_combination() {
    // Every policy over the same dense fail/repair schedule: every
    // teardown path crosses the checker.
    let timeline = FaultTimeline::mtbf(Size::new(8).unwrap(), 0xFA17, 120, 40, 500);
    assert!(!timeline.is_empty(), "the schedule must actually churn");
    for policy in ALL_POLICIES {
        let cfg = config(500);
        let label = format!("{policy:?}");
        let sim = lane_sim(cfg, policy, LaneArbitration::FirstFree, timeline.clone());
        let stats = run_checking_lanes_every_cycle(sim, cfg.cycles, &label);
        assert!(stats.flits_conserved(), "{label}: {stats:?}");
        assert!(stats.is_conserved(), "{label}: {stats:?}");
        assert!(stats.fault_events > 0, "{label} saw no events");
        assert!(stats.delivered > 0, "{label} delivered nothing");
    }
}

#[test]
fn lane_ledger_is_exact_every_cycle_fault_free() {
    // Steady two-lane pipelining with no teardowns: the pure
    // grant/release path.
    let cfg = config(400);
    let sim = lane_sim(
        cfg,
        RoutingPolicy::TsdtSender,
        LaneArbitration::FirstFree,
        FaultTimeline::empty(cfg.size),
    );
    let stats = run_checking_lanes_every_cycle(sim, cfg.cycles, "TsdtSender");
    assert!(stats.flits_conserved(), "{stats:?}");
    assert_eq!(
        stats.flits_dropped, 0,
        "a fault-free run never tears a worm down"
    );
}

#[test]
fn arbitration_choice_never_changes_any_statistic() {
    // The labels E20's records carry: the engine accepts each one and
    // never reads it, fault-free and under churn.
    let churn = FaultTimeline::mtbf(Size::new(8).unwrap(), 0xFA17, 120, 40, 500);
    for policy in ALL_POLICIES {
        for timeline in [FaultTimeline::empty(Size::new(8).unwrap()), churn.clone()] {
            let cfg = config(500);
            let first_free =
                lane_sim(cfg, policy, LaneArbitration::FirstFree, timeline.clone()).run();
            let first_free_json = sim_stats_json(&first_free).encode();
            for arb in [LaneArbitration::RoundRobin, LaneArbitration::LeastHeld] {
                let stats = lane_sim(cfg, policy, arb, timeline.clone()).run();
                assert_eq!(
                    sim_stats_json(&stats).encode(),
                    first_free_json,
                    "{policy:?}/{arb:?} diverged from first-free"
                );
            }
        }
    }
}
