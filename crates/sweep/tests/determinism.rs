//! The sweep engine's headline contract, enforced end-to-end: a campaign's
//! JSON artifact is byte-identical regardless of worker-thread count, and
//! every run of a campaign conserves packets.

use iadm_bench::json::assert_round_trip;
use iadm_fault::scenario::{KindFilter, ScenarioSpec};
use iadm_sim::{
    EngineKind, LaneArbitration, RoutingPolicy, SwitchingMode, TagRepair, TrafficPattern,
    WorkloadSpec,
};
use iadm_sweep::{campaign_json, run_campaign, SweepSpec};

/// A campaign just big and heterogeneous enough that worker scheduling
/// *would* scramble results if aggregation were unordered: three policies,
/// static *and* transient fault scenarios, two switching modes, both
/// engine labels, two loads, two sizes. The mtbf axis makes this the
/// contract for the whole timeline pipeline: per-run schedule realization,
/// online LUT repair, and the degradation counters all have to land
/// byte-identically at any thread count — the wormhole mode axis extends
/// the contract to reservation state and worm teardown under churn, and
/// the tag-repair axis to repair-triggered cache invalidation. The
/// arbitration and engine axes are labels the engine never reads; they
/// stay in the grid to pin that their runs are the same runs.
fn contract_spec() -> SweepSpec {
    SweepSpec {
        name: "determinism-contract".into(),
        sizes: vec![8, 16],
        loads: vec![0.3, 0.7],
        queue_capacities: vec![4],
        policies: vec![
            RoutingPolicy::FixedC,
            RoutingPolicy::SsdtBalance,
            RoutingPolicy::TsdtSender,
        ],
        patterns: vec![TrafficPattern::Uniform],
        modes: vec![
            SwitchingMode::StoreForward,
            SwitchingMode::Wormhole { flits: 4, lanes: 2 },
        ],
        workloads: vec![WorkloadSpec::OpenLoop],
        arbitrations: vec![LaneArbitration::FirstFree, LaneArbitration::LeastHeld],
        tag_repairs: vec![TagRepair::Aware, TagRepair::Blind],
        engines: vec![EngineKind::Synchronous, EngineKind::EventDriven],
        scenarios: vec![
            ScenarioSpec::None,
            ScenarioSpec::RandomLinks {
                count: 2,
                filter: KindFilter::Any,
            },
            ScenarioSpec::Mtbf { mtbf: 50, mttr: 15 },
        ],
        cycles: 150,
        warmup: 30,
        converge: None,
        campaign_seed: 0xC0FFEE,
    }
}

#[test]
fn campaign_json_is_byte_identical_across_1_2_and_8_threads() {
    let spec = contract_spec();
    let one = campaign_json(&run_campaign(&spec, 1).unwrap()).encode();
    let two = campaign_json(&run_campaign(&spec, 2).unwrap()).encode();
    let eight = campaign_json(&run_campaign(&spec, 8).unwrap()).encode();
    assert_eq!(one, two, "1-thread vs 2-thread artifacts diverged");
    assert_eq!(one, eight, "1-thread vs 8-thread artifacts diverged");
    // The artifact is substantive, valid JSON — not an empty accident.
    let value = assert_round_trip(&one).expect("artifact must round-trip");
    let encoded = value.encode();
    assert!(encoded.contains("\"run_count\":576"));
    assert!(encoded.contains("\"latency_buckets\":["));
    // The transient-fault runs are present and report degradation —
    // including the repair-event counter the mtbf churn must produce.
    assert!(encoded.contains("\"scenario\":\"mtbf:50:15\""));
    assert!(encoded.contains("\"fault_events\":"));
    assert!(encoded.contains("\"repair_events\":"));
    // The wormhole runs are present and report the flit ledger.
    assert!(encoded.contains("\"mode\":\"wormhole:4:2\""));
    assert!(encoded.contains("\"flits_in_flight\":"));
    // The non-default presentation-axis runs are present; default-axis
    // runs stay bare so pre-existing artifacts keep their encoding.
    assert!(encoded.contains("\"arbitration\":\"least-held\""));
    assert!(!encoded.contains("\"arbitration\":\"first-free\""));
    assert!(encoded.contains("\"tag_repair\":\"blind\""));
    assert!(!encoded.contains("\"tag_repair\":\"aware\""));
    // The event-engine runs are present; synchronous runs stay bare.
    assert!(encoded.contains("\"engine\":\"event\""));
    assert!(!encoded.contains("\"engine\":\"sync\""));
}

#[test]
fn every_run_of_a_campaign_conserves_packets() {
    let result = run_campaign(&contract_spec(), 4).unwrap();
    assert_eq!(result.runs.len(), 576);
    for record in &result.runs {
        assert!(
            record.stats.is_conserved(),
            "run {} ({:?}) lost packets: {:?}",
            record.spec.index,
            record.spec.scenario.label(),
            record.stats
        );
        assert!(
            record.stats.flits_conserved(),
            "run {} ({:?}) lost flits: {:?}",
            record.spec.index,
            record.spec.scenario.label(),
            record.stats
        );
        assert_eq!(record.stats.misrouted, 0, "run {}", record.spec.index);
    }
    // The sweep exercised both healthy and faulted networks.
    assert!(result.runs.iter().any(|r| r.faults == 0));
    assert!(result.runs.iter().any(|r| r.faults > 0));
}

#[test]
fn engine_pairs_report_byte_identical_statistics() {
    // Runs that differ only in the engine label share a derived seed and,
    // since nothing reads the label, are the same run: every sync/event
    // pair of records in the artifact (E17 has 16 such pairs) carries
    // byte-identical statistics. Engine varies before scenario,
    // so the grid lands in blocks of [sync × scenarios, event × scenarios].
    use iadm_bench::json::sim_stats_json;
    let spec = contract_spec();
    let scenarios = spec.scenarios.len();
    let result = run_campaign(&spec, 4).unwrap();
    for block in result.runs.chunks(2 * scenarios) {
        let (sync, event) = block.split_at(scenarios);
        for (a, b) in sync.iter().zip(event) {
            assert_eq!(a.spec.engine, EngineKind::Synchronous);
            assert_eq!(b.spec.engine, EngineKind::EventDriven);
            assert_eq!(a.spec.scenario, b.spec.scenario);
            assert_eq!(a.spec.seed, b.spec.seed);
            assert_eq!(
                sim_stats_json(&a.stats).encode(),
                sim_stats_json(&b.stats).encode(),
                "engine pair diverged at run {} / {}",
                a.spec.index,
                b.spec.index
            );
        }
    }
}

#[test]
fn arbitration_pairs_report_byte_identical_statistics() {
    // The arbitration label is never read, so first-free and least-held
    // runs of the same realization (E20 records both) must carry
    // byte-identical statistics even across multi-lane wormhole churn.
    // The arbitration
    // axis varies above tag-repair × engine × scenario, so the grid
    // lands in blocks of [first-free × inner, least-held × inner].
    use iadm_bench::json::sim_stats_json;
    let spec = contract_spec();
    let inner = spec.tag_repairs.len() * spec.engines.len() * spec.scenarios.len();
    let result = run_campaign(&spec, 4).unwrap();
    for block in result.runs.chunks(2 * inner) {
        let (first_free, least_held) = block.split_at(inner);
        for (a, b) in first_free.iter().zip(least_held) {
            assert_eq!(a.spec.arbitration, LaneArbitration::FirstFree);
            assert_eq!(b.spec.arbitration, LaneArbitration::LeastHeld);
            assert_eq!(a.spec.scenario, b.spec.scenario);
            assert_eq!(a.spec.seed, b.spec.seed);
            assert_eq!(
                sim_stats_json(&a.stats).encode(),
                sim_stats_json(&b.stats).encode(),
                "arbitration pair diverged at run {} / {}",
                a.spec.index,
                b.spec.index
            );
        }
    }
    // Blind senders never retag on repair — that counter is the aware
    // scheme's signature.
    assert!(result
        .runs
        .iter()
        .filter(|r| r.spec.tag_repair == TagRepair::Blind)
        .all(|r| r.stats.retags_on_repair == 0));
}

/// The closed-loop analogue of [`contract_spec`]: the workload axis
/// carries all four source kinds (request/response, multi-packet flows,
/// a ring allreduce, and the adversarial schedule) across both engines
/// and a churning fault scenario, with the loads axis pinned to `[0.0]`
/// because the workloads own injection.
fn closed_loop_spec() -> SweepSpec {
    SweepSpec {
        name: "closed-loop-contract".into(),
        sizes: vec![8, 16],
        loads: vec![0.0],
        queue_capacities: vec![4],
        policies: vec![RoutingPolicy::SsdtBalance, RoutingPolicy::TsdtSender],
        patterns: vec![TrafficPattern::Uniform],
        modes: vec![SwitchingMode::StoreForward],
        workloads: vec![
            WorkloadSpec::RequestResponse {
                clients: 0,
                think: 6,
                req: 1,
                resp: 1,
            },
            WorkloadSpec::Flow {
                clients: 4,
                think: 10,
                packets: 3,
            },
            WorkloadSpec::Collective {
                participants: 8,
                think: 12,
            },
            WorkloadSpec::Adversarial {
                load: 0.4,
                burst: 16,
            },
        ],
        arbitrations: vec![LaneArbitration::FirstFree],
        tag_repairs: vec![TagRepair::Aware],
        engines: vec![EngineKind::Synchronous, EngineKind::EventDriven],
        scenarios: vec![
            ScenarioSpec::None,
            ScenarioSpec::Mtbf { mtbf: 60, mttr: 20 },
        ],
        cycles: 200,
        warmup: 40,
        converge: None,
        campaign_seed: 0xC105ED,
    }
}

#[test]
fn closed_loop_artifacts_are_byte_identical_across_1_2_and_8_threads() {
    // Same-seed closed-loop campaigns must land byte-identically at any
    // thread count — including every request-latency histogram bucket,
    // which is the part scheduling jitter would scramble first.
    let spec = closed_loop_spec();
    let one = campaign_json(&run_campaign(&spec, 1).unwrap()).encode();
    let two = campaign_json(&run_campaign(&spec, 2).unwrap()).encode();
    let eight = campaign_json(&run_campaign(&spec, 8).unwrap()).encode();
    assert_eq!(one, two, "1-thread vs 2-thread artifacts diverged");
    assert_eq!(one, eight, "1-thread vs 8-thread artifacts diverged");
    let value = assert_round_trip(&one).expect("artifact must round-trip");
    let encoded = value.encode();
    assert!(encoded.contains("\"run_count\":64"));
    // All four workload kinds made it into the artifact with the
    // closed-loop stats block.
    for label in ["rr:all:6", "flow:4:10:3", "allreduce:8:12", "adv:0.4:16"] {
        assert!(
            encoded.contains(&format!("\"workload\":\"{label}\"")),
            "missing workload {label}"
        );
    }
    assert!(encoded.contains("\"requests_issued\":"));
    assert!(encoded.contains("\"request_latency_buckets\":["));
}

#[test]
fn closed_loop_engine_pairs_report_byte_identical_statistics() {
    // The engine label stays inert for every closed-loop workload too.
    use iadm_bench::json::sim_stats_json;
    let spec = closed_loop_spec();
    let scenarios = spec.scenarios.len();
    let result = run_campaign(&spec, 4).unwrap();
    for block in result.runs.chunks(2 * scenarios) {
        let (sync, event) = block.split_at(scenarios);
        for (a, b) in sync.iter().zip(event) {
            assert_eq!(a.spec.engine, EngineKind::Synchronous);
            assert_eq!(b.spec.engine, EngineKind::EventDriven);
            assert_eq!(a.spec.workload, b.spec.workload);
            assert_eq!(a.spec.seed, b.spec.seed);
            assert_eq!(
                sim_stats_json(&a.stats).encode(),
                sim_stats_json(&b.stats).encode(),
                "engine pair diverged at run {} / {} ({})",
                a.spec.index,
                b.spec.index,
                a.spec.workload.label()
            );
        }
        // The runs did real work (not a vacuous pass): request-tracking
        // workloads issued requests; the adversarial schedule (which has
        // no request ledger) at least injected packets.
        assert!(block.iter().all(
            |r| matches!(r.spec.workload, WorkloadSpec::Adversarial { .. })
                || r.stats.workload.issued > 0
        ));
        assert!(block.iter().all(|r| r.stats.injected > 0));
    }
}

/// The convergence analogue of [`contract_spec`]: d-choice (plain and
/// sticky) next to SSDT, with steady-state termination on every run, so
/// the early-stop cycle itself is under the byte-identity contract
/// across thread counts and engine labels.
fn convergence_spec() -> SweepSpec {
    SweepSpec {
        name: "convergence-contract".into(),
        sizes: vec![8, 16],
        loads: vec![0.4, 0.8],
        queue_capacities: vec![4],
        policies: vec![
            RoutingPolicy::SsdtBalance,
            RoutingPolicy::DChoice {
                d: 2,
                sticky: false,
            },
            RoutingPolicy::DChoice { d: 2, sticky: true },
        ],
        patterns: vec![TrafficPattern::Uniform],
        modes: vec![SwitchingMode::StoreForward],
        workloads: vec![WorkloadSpec::OpenLoop],
        arbitrations: vec![LaneArbitration::FirstFree],
        tag_repairs: vec![TagRepair::Aware],
        engines: vec![EngineKind::Synchronous, EngineKind::EventDriven],
        scenarios: vec![
            ScenarioSpec::None,
            ScenarioSpec::Mtbf { mtbf: 60, mttr: 20 },
        ],
        cycles: 300,
        warmup: 50,
        converge: Some((50, 0.1)),
        campaign_seed: 0xC0171,
    }
}

#[test]
fn converging_campaigns_are_byte_identical_across_1_2_and_8_threads() {
    let spec = convergence_spec();
    let one = campaign_json(&run_campaign(&spec, 1).unwrap()).encode();
    let two = campaign_json(&run_campaign(&spec, 2).unwrap()).encode();
    let eight = campaign_json(&run_campaign(&spec, 8).unwrap()).encode();
    assert_eq!(one, two, "1-thread vs 2-thread artifacts diverged");
    assert_eq!(one, eight, "1-thread vs 8-thread artifacts diverged");
    let value = assert_round_trip(&one).expect("artifact must round-trip");
    let encoded = value.encode();
    assert!(encoded.contains("\"run_count\":48"));
    // The recipe is recorded on every run; the outcome on those that
    // actually stopped early.
    assert!(encoded.contains("\"converge\":\"50:0.1\""));
    assert!(encoded.contains("\"converged_at_cycle\":"));
    assert!(encoded.contains("\"policy\":\"dchoice:2\""));
    assert!(encoded.contains("\"policy\":\"dchoice:2:sticky\""));
}

#[test]
fn converging_engine_pairs_stop_at_the_same_window_boundary() {
    // Engine-label pairs of converging runs stop at the same boundary
    // with identical statistics — converged_at_cycle included.
    use iadm_bench::json::sim_stats_json;
    let spec = convergence_spec();
    let scenarios = spec.scenarios.len();
    let result = run_campaign(&spec, 4).unwrap();
    let mut converged = 0usize;
    for block in result.runs.chunks(2 * scenarios) {
        let (sync, event) = block.split_at(scenarios);
        for (a, b) in sync.iter().zip(event) {
            assert_eq!(a.spec.engine, EngineKind::Synchronous);
            assert_eq!(b.spec.engine, EngineKind::EventDriven);
            assert_eq!(a.spec.seed, b.spec.seed);
            assert_eq!(
                sim_stats_json(&a.stats).encode(),
                sim_stats_json(&b.stats).encode(),
                "engine pair diverged at run {} / {}",
                a.spec.index,
                b.spec.index
            );
            if a.stats.converged_at_cycle > 0 {
                converged += 1;
                assert_eq!(a.stats.cycles, a.stats.converged_at_cycle);
                assert_eq!(a.stats.converged_at_cycle % 50, 0);
            }
            assert!(a.stats.is_conserved(), "run {}", a.spec.index);
        }
    }
    assert!(converged > 0, "no run ever reached steady state");
}

#[test]
fn different_campaign_seeds_produce_different_artifacts() {
    // Guards against the determinism tests passing vacuously (e.g. seeds
    // being ignored and every campaign degenerating to one trajectory).
    let mut a = contract_spec();
    let mut b = contract_spec();
    a.campaign_seed = 1;
    b.campaign_seed = 2;
    let ja = campaign_json(&run_campaign(&a, 2).unwrap()).encode();
    let jb = campaign_json(&run_campaign(&b, 2).unwrap()).encode();
    assert_ne!(ja, jb);
}
