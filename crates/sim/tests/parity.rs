//! Golden-stats parity: the arena/LUT hot path must reproduce the
//! original nested-`Vec` engine *byte for byte*.
//!
//! The store-and-forward strings (in `tests/util/goldens.rs`, which the
//! crate's test-only reference loop also reproduces) and the wormhole
//! strings below were captured from the pre-rewrite engine (one
//! `SimStats` rendered through `iadm_bench::json::sim_stats_json`, the
//! workspace's canonical byte-stable writer) for every routing policy,
//! with and without faults. Equality is string equality: any change to
//! the decision sequence, the RNG draw order, a counter, or even the
//! floating-point accumulation order of `queue_mean_occupancy` shows up
//! as a diff. If a future change *intends* to alter simulation results,
//! these constants must be regenerated deliberately — never adjusted to
//! make a refactor pass.
//!
//! The transient-fault subsystem (PR 4) is additionally pinned here: a
//! run constructed with an *empty* `FaultTimeline` must reproduce the
//! same goldens byte for byte — the dynamic machinery has to be
//! invisible when no event is scheduled.

use iadm_bench::json::sim_stats_json;
use iadm_fault::scenario::{self, KindFilter};
use iadm_fault::{BlockageMap, FaultTimeline};
use iadm_rng::StdRng;
use iadm_sim::{EngineKind, RoutingPolicy, SimConfig, Simulator, TrafficPattern};
use iadm_topology::Size;

mod util;
use util::goldens::*;

// Wormhole goldens (PR 5): the same config run under
// `with_wormhole_switching(4, 1)`. A 4-flit worm at offered load 0.45
// presents 1.8 flits/cycle/port against a 1-flit/cycle/port fabric, so
// these runs are deliberately saturated — backlogs and reservation
// stalls are exactly the regime where a switching-layer regression
// would hide in aggregate statistics.
const GOLDEN_WORMHOLE_FIXED_C_FAULT_FREE: &str = r#"{"injected":4298,"delivered":1386,"misrouted":0,"dropped":0,"refused":0,"in_flight":2912,"latency_sum":106086,"latency_count":309,"latency_max":434,"queue_high_water":1,"queue_mean_occupancy":0.3288107638888891,"cycles":600,"ports":16,"nonstraight_imbalance":1,"max_link_load":261,"mean_latency":343.3203883495146,"throughput":0.144375,"latency_p50":434,"latency_p95":434,"latency_p99":434,"latency_buckets":[0,0,0,0,0,0,0,23,286],"stage_link_use":[5604,5583,5568,5559],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":5553,"flits_dropped":0,"flits_refused":0,"flits_in_flight":11639}"#;
const GOLDEN_WORMHOLE_FIXED_C_FAULTED: &str = r#"{"injected":4298,"delivered":1237,"misrouted":0,"dropped":198,"refused":0,"in_flight":2863,"latency_sum":90786,"latency_count":284,"latency_max":433,"queue_high_water":1,"queue_mean_occupancy":0.2922222222222222,"cycles":600,"ports":16,"nonstraight_imbalance":1,"max_link_load":248,"mean_latency":319.66901408450707,"throughput":0.12885416666666666,"latency_p50":433,"latency_p95":433,"latency_p99":433,"latency_buckets":[0,0,0,0,0,0,0,63,221],"stage_link_use":[5147,5002,4985,4973],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":4963,"flits_dropped":792,"flits_refused":0,"flits_in_flight":11437}"#;
const GOLDEN_WORMHOLE_SSDT_FAULT_FREE: &str = r#"{"injected":4298,"delivered":1607,"misrouted":0,"dropped":0,"refused":0,"in_flight":2691,"latency_sum":156582,"latency_count":525,"latency_max":417,"queue_high_water":1,"queue_mean_occupancy":0.4494965277777778,"cycles":600,"ports":16,"nonstraight_imbalance":0.051792414567695906,"max_link_load":256,"mean_latency":298.25142857142856,"throughput":0.16739583333333333,"latency_p50":417,"latency_p95":417,"latency_p99":417,"latency_buckets":[0,0,0,0,0,0,5,90,430],"stage_link_use":[6527,6503,6485,6468],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":6451,"flits_dropped":0,"flits_refused":0,"flits_in_flight":10741}"#;
const GOLDEN_WORMHOLE_SSDT_FAULTED: &str = r#"{"injected":4298,"delivered":1504,"misrouted":0,"dropped":121,"refused":0,"in_flight":2673,"latency_sum":135878,"latency_count":485,"latency_max":441,"queue_high_water":1,"queue_mean_occupancy":0.42048611111111117,"cycles":600,"ports":16,"nonstraight_imbalance":0.11498759027393272,"max_link_load":272,"mean_latency":280.16082474226806,"throughput":0.15666666666666668,"latency_p50":441,"latency_p95":441,"latency_p99":441,"latency_buckets":[0,0,0,0,0,0,11,159,315],"stage_link_use":[6153,6079,6057,6041],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":6030,"flits_dropped":484,"flits_refused":0,"flits_in_flight":10678}"#;
const GOLDEN_WORMHOLE_RANDOM_SIGN_FAULT_FREE: &str = r#"{"injected":4343,"delivered":1600,"misrouted":0,"dropped":0,"refused":0,"in_flight":2743,"latency_sum":156065,"latency_count":529,"latency_max":448,"queue_high_water":1,"queue_mean_occupancy":0.45424479166666676,"cycles":600,"ports":16,"nonstraight_imbalance":0.08579976630841049,"max_link_load":256,"mean_latency":295.01890359168243,"throughput":0.16666666666666666,"latency_p50":448,"latency_p95":448,"latency_p99":448,"latency_buckets":[0,0,0,0,0,0,0,126,403],"stage_link_use":[6504,6473,6449,6428],"flits_per_packet":4,"flits_injected":17372,"flits_delivered":6411,"flits_dropped":0,"flits_refused":0,"flits_in_flight":10961}"#;
const GOLDEN_WORMHOLE_RANDOM_SIGN_FAULTED: &str = r#"{"injected":4287,"delivered":1476,"misrouted":0,"dropped":154,"refused":0,"in_flight":2657,"latency_sum":124385,"latency_count":491,"latency_max":436,"queue_high_water":1,"queue_mean_occupancy":0.42077256944444413,"cycles":600,"ports":16,"nonstraight_imbalance":0.1399300415730312,"max_link_load":279,"mean_latency":253.32993890020367,"throughput":0.15375,"latency_p50":436,"latency_p95":436,"latency_p99":436,"latency_buckets":[0,0,0,0,0,0,50,167,274],"stage_link_use":[6074,5979,5960,5943],"flits_per_packet":4,"flits_injected":17148,"flits_delivered":5928,"flits_dropped":616,"flits_refused":0,"flits_in_flight":10604}"#;
const GOLDEN_WORMHOLE_TSDT_FAULT_FREE: &str = r#"{"injected":4298,"delivered":1386,"misrouted":0,"dropped":0,"refused":0,"in_flight":2912,"latency_sum":106086,"latency_count":309,"latency_max":434,"queue_high_water":1,"queue_mean_occupancy":0.3288107638888891,"cycles":600,"ports":16,"nonstraight_imbalance":1,"max_link_load":261,"mean_latency":343.3203883495146,"throughput":0.144375,"latency_p50":434,"latency_p95":434,"latency_p99":434,"latency_buckets":[0,0,0,0,0,0,0,23,286],"stage_link_use":[5604,5583,5568,5559],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":5553,"flits_dropped":0,"flits_refused":0,"flits_in_flight":11639}"#;
const GOLDEN_WORMHOLE_TSDT_FAULTED: &str = r#"{"injected":4298,"delivered":1318,"misrouted":0,"dropped":0,"refused":210,"in_flight":2770,"latency_sum":98864,"latency_count":293,"latency_max":448,"queue_high_water":1,"queue_mean_occupancy":0.30949652777777775,"cycles":600,"ports":16,"nonstraight_imbalance":0.9886006289308176,"max_link_load":273,"mean_latency":337.419795221843,"throughput":0.13729166666666667,"latency_p50":448,"latency_p95":448,"latency_p99":448,"latency_buckets":[0,0,0,0,0,0,0,15,278],"stage_link_use":[5359,5335,5315,5301],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":5290,"flits_dropped":0,"flits_refused":840,"flits_in_flight":11062}"#;

// Two-lane wormhole goldens (PR 10): the same fault-free config run
// under `with_wormhole_switching(4, 2)`. The second lane roughly
// doubles the link bandwidth a saturated worm pipeline can reserve, so
// these pins sit in the multi-lane regime where the arbitration axis
// would choose between free lanes. Every statistic is lane-granular
// only in aggregate, so which free lane a grant takes is unobservable;
// the engine always takes the lowest one.
const GOLDEN_WORMHOLE_2LANE_FIXED_C: &str = r#"{"injected":4298,"delivered":1796,"misrouted":0,"dropped":0,"refused":0,"in_flight":2502,"latency_sum":192769,"latency_count":714,"latency_max":412,"queue_high_water":2,"queue_mean_occupancy":0.6667274305555554,"cycles":600,"ports":16,"nonstraight_imbalance":1,"max_link_load":299,"mean_latency":269.984593837535,"throughput":0.18708333333333332,"latency_p50":412,"latency_p95":412,"latency_p99":412,"latency_buckets":[0,0,0,0,0,0,0,308,406],"stage_link_use":[7342,7301,7270,7241],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":7212,"flits_dropped":0,"flits_refused":0,"flits_in_flight":9980}"#;
const GOLDEN_WORMHOLE_2LANE_SSDT: &str = r#"{"injected":4298,"delivered":2003,"misrouted":0,"dropped":0,"refused":0,"in_flight":2295,"latency_sum":207093,"latency_count":921,"latency_max":390,"queue_high_water":2,"queue_mean_occupancy":0.9624826388888894,"cycles":600,"ports":16,"nonstraight_imbalance":0.05173373904535934,"max_link_load":341,"mean_latency":224.85667752442995,"throughput":0.20864583333333334,"latency_p50":255,"latency_p95":390,"latency_p99":390,"latency_buckets":[0,0,0,0,0,15,42,568,296],"stage_link_use":[8204,8144,8101,8063],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":8032,"flits_dropped":0,"flits_refused":0,"flits_in_flight":9160}"#;
const GOLDEN_WORMHOLE_2LANE_RANDOM_SIGN: &str = r#"{"injected":4352,"delivered":2055,"misrouted":0,"dropped":0,"refused":0,"in_flight":2297,"latency_sum":204818,"latency_count":995,"latency_max":419,"queue_high_water":2,"queue_mean_occupancy":0.9634895833333329,"cycles":600,"ports":16,"nonstraight_imbalance":0.08421418116712258,"max_link_load":351,"mean_latency":205.84723618090453,"throughput":0.2140625,"latency_p50":255,"latency_p95":419,"latency_p99":419,"latency_buckets":[0,0,0,0,0,9,131,616,239],"stage_link_use":[8400,8343,8301,8265],"flits_per_packet":4,"flits_injected":17408,"flits_delivered":8236,"flits_dropped":0,"flits_refused":0,"flits_in_flight":9172}"#;
const GOLDEN_WORMHOLE_2LANE_TSDT: &str = r#"{"injected":4298,"delivered":1796,"misrouted":0,"dropped":0,"refused":0,"in_flight":2502,"latency_sum":192769,"latency_count":714,"latency_max":412,"queue_high_water":2,"queue_mean_occupancy":0.6667274305555554,"cycles":600,"ports":16,"nonstraight_imbalance":1,"max_link_load":299,"mean_latency":269.984593837535,"throughput":0.18708333333333332,"latency_p50":412,"latency_p95":412,"latency_p99":412,"latency_buckets":[0,0,0,0,0,0,0,308,406],"stage_link_use":[7342,7301,7270,7241],"flits_per_packet":4,"flits_injected":17192,"flits_delivered":7212,"flits_dropped":0,"flits_refused":0,"flits_in_flight":9980}"#;

/// All eight golden combinations: `(policy, faulted, expected JSON)`.
const GOLDENS: [(RoutingPolicy, bool, &str); 8] = [
    (RoutingPolicy::FixedC, false, GOLDEN_FIXED_C_FAULT_FREE),
    (RoutingPolicy::FixedC, true, GOLDEN_FIXED_C_FAULTED),
    (RoutingPolicy::SsdtBalance, false, GOLDEN_SSDT_FAULT_FREE),
    (RoutingPolicy::SsdtBalance, true, GOLDEN_SSDT_FAULTED),
    (
        RoutingPolicy::RandomSign,
        false,
        GOLDEN_RANDOM_SIGN_FAULT_FREE,
    ),
    (RoutingPolicy::RandomSign, true, GOLDEN_RANDOM_SIGN_FAULTED),
    (RoutingPolicy::TsdtSender, false, GOLDEN_TSDT_FAULT_FREE),
    (RoutingPolicy::TsdtSender, true, GOLDEN_TSDT_FAULTED),
];

/// The wormhole combinations, same axes, captured at 4 flits / 1 lane.
const WORMHOLE_GOLDENS: [(RoutingPolicy, bool, &str); 8] = [
    (
        RoutingPolicy::FixedC,
        false,
        GOLDEN_WORMHOLE_FIXED_C_FAULT_FREE,
    ),
    (RoutingPolicy::FixedC, true, GOLDEN_WORMHOLE_FIXED_C_FAULTED),
    (
        RoutingPolicy::SsdtBalance,
        false,
        GOLDEN_WORMHOLE_SSDT_FAULT_FREE,
    ),
    (
        RoutingPolicy::SsdtBalance,
        true,
        GOLDEN_WORMHOLE_SSDT_FAULTED,
    ),
    (
        RoutingPolicy::RandomSign,
        false,
        GOLDEN_WORMHOLE_RANDOM_SIGN_FAULT_FREE,
    ),
    (
        RoutingPolicy::RandomSign,
        true,
        GOLDEN_WORMHOLE_RANDOM_SIGN_FAULTED,
    ),
    (
        RoutingPolicy::TsdtSender,
        false,
        GOLDEN_WORMHOLE_TSDT_FAULT_FREE,
    ),
    (
        RoutingPolicy::TsdtSender,
        true,
        GOLDEN_WORMHOLE_TSDT_FAULTED,
    ),
];

/// The two-lane combinations, fault-free, captured at 4 flits / 2 lanes.
const WORMHOLE_2LANE_GOLDENS: [(RoutingPolicy, &str); 4] = [
    (RoutingPolicy::FixedC, GOLDEN_WORMHOLE_2LANE_FIXED_C),
    (RoutingPolicy::SsdtBalance, GOLDEN_WORMHOLE_2LANE_SSDT),
    (RoutingPolicy::RandomSign, GOLDEN_WORMHOLE_2LANE_RANDOM_SIGN),
    (RoutingPolicy::TsdtSender, GOLDEN_WORMHOLE_2LANE_TSDT),
];

fn config() -> SimConfig {
    SimConfig {
        size: Size::new(16).unwrap(),
        queue_capacity: 4,
        cycles: 600,
        warmup: 150,
        offered_load: 0.45,
        seed: 0xC0FFEE,
        engine: EngineKind::Synchronous,
    }
}

/// The 6-fault scenario the faulted goldens were captured under.
fn faulted_map() -> BlockageMap {
    let mut rng = StdRng::seed_from_u64(0xFA);
    scenario::random_faults(&mut rng, config().size, 6, KindFilter::Any)
}

fn blockages(faulted: bool) -> BlockageMap {
    if faulted {
        faulted_map()
    } else {
        BlockageMap::new(config().size)
    }
}

fn run(policy: RoutingPolicy, blockages: BlockageMap) -> String {
    let stats =
        Simulator::with_blockages(config(), policy, TrafficPattern::Uniform, blockages).run();
    sim_stats_json(&stats).encode()
}

fn assert_parity(policy: RoutingPolicy, faulted: bool, golden: &str) {
    let got = run(policy, blockages(faulted));
    assert_eq!(
        got, golden,
        "{policy:?} (faulted: {faulted}) diverged from the pre-rewrite engine"
    );
}

#[test]
fn fixed_c_fault_free_matches_golden() {
    assert_parity(RoutingPolicy::FixedC, false, GOLDEN_FIXED_C_FAULT_FREE);
}

#[test]
fn fixed_c_faulted_matches_golden() {
    assert_parity(RoutingPolicy::FixedC, true, GOLDEN_FIXED_C_FAULTED);
}

#[test]
fn ssdt_balance_fault_free_matches_golden() {
    assert_parity(RoutingPolicy::SsdtBalance, false, GOLDEN_SSDT_FAULT_FREE);
}

#[test]
fn ssdt_balance_faulted_matches_golden() {
    assert_parity(RoutingPolicy::SsdtBalance, true, GOLDEN_SSDT_FAULTED);
}

#[test]
fn random_sign_fault_free_matches_golden() {
    assert_parity(
        RoutingPolicy::RandomSign,
        false,
        GOLDEN_RANDOM_SIGN_FAULT_FREE,
    );
}

#[test]
fn random_sign_faulted_matches_golden() {
    assert_parity(RoutingPolicy::RandomSign, true, GOLDEN_RANDOM_SIGN_FAULTED);
}

#[test]
fn tsdt_sender_fault_free_matches_golden() {
    assert_parity(RoutingPolicy::TsdtSender, false, GOLDEN_TSDT_FAULT_FREE);
}

#[test]
fn tsdt_sender_faulted_matches_golden() {
    assert_parity(RoutingPolicy::TsdtSender, true, GOLDEN_TSDT_FAULTED);
}

#[test]
fn empty_timeline_reproduces_every_golden_byte_for_byte() {
    // The PR-4 contract: constructing through the transient-fault entry
    // point with a no-event timeline must leave no trace — not one RNG
    // draw, not one counter, not one emitted JSON byte.
    for (policy, faulted, golden) in GOLDENS {
        let stats = Simulator::with_fault_timeline(
            config(),
            policy,
            TrafficPattern::Uniform,
            blockages(faulted),
            FaultTimeline::empty(config().size),
        )
        .run();
        assert_eq!(
            sim_stats_json(&stats).encode(),
            golden,
            "{policy:?} (faulted: {faulted}) diverged under an empty timeline"
        );
    }
}

#[test]
fn wormhole_mode_matches_every_golden_byte_for_byte() {
    // The PR-5 contract, forward direction: wormhole results are pinned
    // so reservation-table or teardown changes cannot drift silently.
    for (policy, faulted, golden) in WORMHOLE_GOLDENS {
        let stats = Simulator::with_blockages(
            config(),
            policy,
            TrafficPattern::Uniform,
            blockages(faulted),
        )
        .with_wormhole_switching(4, 1)
        .run();
        assert_eq!(
            sim_stats_json(&stats).encode(),
            golden,
            "wormhole {policy:?} (faulted: {faulted}) diverged"
        );
    }
}

#[test]
fn two_lane_wormhole_matches_every_golden_for_every_arbitration_and_engine() {
    // The multi-lane pins hold under every lane-arbitration and engine
    // label: both are record labels the engine accepts and never reads,
    // so the E17 and E20 records that carry them describe the same
    // runs as their unlabelled twins.
    use iadm_sim::LaneArbitration;
    for (policy, golden) in WORMHOLE_2LANE_GOLDENS {
        for engine in [EngineKind::Synchronous, EngineKind::EventDriven] {
            for arb in [
                LaneArbitration::FirstFree,
                LaneArbitration::RoundRobin,
                LaneArbitration::LeastHeld,
            ] {
                let stats = Simulator::with_blockages(
                    SimConfig { engine, ..config() },
                    policy,
                    TrafficPattern::Uniform,
                    blockages(false),
                )
                .with_wormhole_switching(4, 2)
                .with_lane_arbitration(arb)
                .run();
                assert_eq!(
                    sim_stats_json(&stats).encode(),
                    golden,
                    "two-lane wormhole {policy:?} diverged under {engine:?}/{arb:?}"
                );
            }
        }
    }
}

#[test]
fn two_lane_goldens_differ_from_single_lane_goldens() {
    // Guards the new pins against a second lane that silently never
    // carries traffic: the extra bandwidth must show up in delivery.
    for ((policy, _, one_lane), (_, two_lane)) in WORMHOLE_GOLDENS
        .iter()
        .filter(|(_, faulted, _)| !faulted)
        .zip(WORMHOLE_2LANE_GOLDENS.iter())
    {
        assert_ne!(one_lane, two_lane, "{policy:?}");
        assert!(two_lane.contains("\"queue_high_water\":2"));
    }
}

#[test]
fn wormhole_goldens_differ_from_store_forward_goldens() {
    // Guards the pins against a degenerate wormhole mode that silently
    // falls through to the store-and-forward path.
    for ((_, _, sf), (_, _, wh)) in GOLDENS.iter().zip(WORMHOLE_GOLDENS.iter()) {
        assert_ne!(sf, wh);
        assert!(wh.contains("\"flits_per_packet\":4"));
        assert!(!sf.contains("flits_"));
    }
}
