//! A worker reuses one simulator's buffers ([`SimScratch`]) for every run
//! it executes. This pins the contract that makes that invisible: a
//! sequence of heterogeneous runs over one scratch gives each run the
//! statistics bytes it gets over new buffers.

use iadm_bench::json::sim_stats_json;
use iadm_check::Gen;
use iadm_fault::scenario::{KindFilter, ScenarioSpec};
use iadm_rng::mix;
use iadm_sim::{
    EngineKind, LaneArbitration, RoutingPolicy, SimScratch, SwitchingMode, TagRepair,
    TrafficPattern, WorkloadSpec,
};
use iadm_sweep::{RunBases, RunSpec};
use iadm_topology::Size;

/// One random grid point. Sizes, queue capacities and policies vary from
/// run to run, so consecutive runs disagree on every buffer dimension;
/// the scenarios cover static faults, `mtbf` churn and outages (the
/// outage clocks, the failed-link list and the tag-cache epochs), under
/// both repair modes. About one run in eight is a wormhole point and one
/// in eight a closed-loop point; a few run on the event engine.
fn run_spec(g: &mut Gen, index: usize) -> RunSpec {
    let size = Size::new([8, 16, 32, 64][g.usize_in(0..=3)]).expect("power of two");
    let n = size.n();
    let policy = match g.usize_in(0..=4) {
        0 => RoutingPolicy::FixedC,
        1 => RoutingPolicy::SsdtBalance,
        2 => RoutingPolicy::TsdtSender,
        3 => RoutingPolicy::RandomSign,
        _ => RoutingPolicy::DChoice { d: 2, sticky: true },
    };
    let scenario = match g.usize_in(0..=4) {
        0 => ScenarioSpec::None,
        1 => ScenarioSpec::RandomLinks {
            count: g.usize_in(1..=8),
            filter: KindFilter::Any,
        },
        2 => ScenarioSpec::DoubleNonstraight {
            stage: g.usize_in(0..=size.stages() - 1),
            switch: g.usize_in(0..=n - 1),
        },
        3 => ScenarioSpec::Mtbf {
            mtbf: g.usize_in(20..=400) as u64,
            mttr: g.usize_in(5..=60) as u64,
        },
        _ => {
            let down = g.usize_in(0..=40) as u64;
            ScenarioSpec::Outage {
                links: g.usize_in(1..=6),
                down,
                up: down + g.usize_in(1..=40) as u64,
            }
        }
    };
    let cycles = g.usize_in(1..=120);
    let mut spec = RunSpec {
        index,
        size,
        offered_load: g.usize_in(0..=10) as f64 / 10.0,
        queue_capacity: g.usize_in(1..=4),
        policy,
        pattern: match g.usize_in(0..=2) {
            0 => TrafficPattern::Uniform,
            1 => TrafficPattern::BitReversal,
            _ => TrafficPattern::HotSpot(g.usize_in(0..=n - 1)),
        },
        mode: SwitchingMode::StoreForward,
        workload: WorkloadSpec::OpenLoop,
        arbitration: LaneArbitration::FirstFree,
        tag_repair: if g.bool_with(0.5) {
            TagRepair::Aware
        } else {
            TagRepair::Blind
        },
        engine: if g.bool_with(0.15) {
            EngineKind::EventDriven
        } else {
            EngineKind::Synchronous
        },
        scenario,
        cycles,
        warmup: g.usize_in(0..=cycles),
        converge: g.bool_with(0.15).then(|| (g.usize_in(5..=30) as u64, 0.2)),
        seed: g.u64_any(),
    };
    match g.usize_in(0..=7) {
        0 => {
            spec.mode = SwitchingMode::Wormhole {
                flits: g.u32_in(1..=4),
                lanes: g.u32_in(1..=2),
            };
        }
        1 => {
            let label = [
                format!("rr:{}:{}", g.usize_in(1..=n), g.usize_in(0..=8)),
                format!(
                    "flow:{}:{}:{}",
                    g.usize_in(1..=n),
                    g.usize_in(0..=8),
                    g.usize_in(1..=4)
                ),
                format!("allreduce:{}:{}", g.usize_in(2..=n), g.usize_in(1..=8)),
            ][g.usize_in(0..=2)]
            .clone();
            spec.workload = WorkloadSpec::parse(&label).expect("valid workload label");
            spec.offered_load = 0.0;
        }
        _ => {}
    }
    spec
}

/// The run's statistics bytes, with its simulator built over `scratch`.
fn stats_bytes(run: &RunSpec, scratch: &mut SimScratch) -> String {
    let bases = RunBases::realize(run);
    sim_stats_json(&run.simulator(&bases, scratch).run_into(scratch)).encode()
}

iadm_check::check! {
    /// Runs through one reused scratch give each run exactly the bytes
    /// it gets from a new simulator.
    fn reused_buffers_reproduce_fresh_runs_byte_for_byte(g; cases = 128) {
        let runs: Vec<RunSpec> = (0..g.usize_in(2..=6)).map(|i| run_spec(g, i)).collect();
        let mut shared = SimScratch::default();
        for run in &runs {
            let fresh = sim_stats_json(&{
                let bases = RunBases::realize(run);
                run.simulator(&bases, &mut SimScratch::default()).run()
            })
            .encode();
            iadm_check::check_assert_eq!(
                stats_bytes(run, &mut shared),
                fresh,
                "run {} of {runs:?}",
                run.index
            );
        }
    }
}

#[test]
fn a_scratch_that_served_many_runs_still_reproduces_fresh_runs() {
    // A longer sequence at one size, so touched sets of consecutive runs
    // overlap heavily and epochs accumulate in the tag cache.
    let mut shared = SimScratch::default();
    let mut g_seed = 0x5C2A_7C11u64;
    for index in 0..40 {
        g_seed = mix(g_seed, index as u64);
        let run = RunSpec {
            index,
            size: Size::new(32).unwrap(),
            offered_load: 0.1 + (index % 9) as f64 / 10.0,
            queue_capacity: 1 + index % 4,
            policy: [RoutingPolicy::TsdtSender, RoutingPolicy::SsdtBalance][index % 2],
            pattern: TrafficPattern::Uniform,
            mode: SwitchingMode::StoreForward,
            workload: WorkloadSpec::OpenLoop,
            arbitration: LaneArbitration::FirstFree,
            tag_repair: TagRepair::Aware,
            engine: EngineKind::Synchronous,
            scenario: ScenarioSpec::Mtbf { mtbf: 60, mttr: 10 },
            cycles: 200,
            warmup: 40,
            converge: None,
            seed: g_seed,
        };
        let fresh = {
            let bases = RunBases::realize(&run);
            sim_stats_json(&run.simulator(&bases, &mut SimScratch::default()).run()).encode()
        };
        assert_eq!(stats_bytes(&run, &mut shared), fresh, "run {index}");
    }
}
