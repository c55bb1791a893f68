//! Golden-stats parity for the workload subsystem (PR 7).
//!
//! Two contracts are pinned here:
//!
//! 1. **Workload goldens** — one byte-exact `sim_stats_json` string per
//!    workload kind (request/response, multi-packet flows, ring
//!    allreduce, adversarial schedule), captured from the synchronous
//!    engine at introduction. Any change to a source's issue order, a
//!    think-time draw, the delivery-hook sequence, or a latency bucket
//!    shows up as a diff. If a future change *intends* to alter workload
//!    behavior these constants must be regenerated deliberately — never
//!    adjusted to make a refactor pass.
//!
//! 2. **Goldens in one place** — the strings live in
//!    `tests/util/goldens.rs`, which the crate's test-only reference loop
//!    reproduces too.
//!
//! A differential test additionally pins the *inline* open-loop
//! arrivals path (the one all 16 pre-workload parity goldens run
//! through) against `OpenLoopSource`, the pluggable form of the same
//! Bernoulli process: same seed, same draw order, same bytes.

use iadm_bench::json::sim_stats_json;
use iadm_sim::{
    EngineKind, OpenLoopSource, RoutingPolicy, SimConfig, Simulator, TrafficPattern, WorkloadSpec,
};
use iadm_topology::Size;

mod util;
use util::goldens::*;

/// The workload RNG stream the goldens were captured under (arbitrary,
/// fixed; the sweep layer derives its own stream per run).
const WORKLOAD_SEED: u64 = 0xBEEF;

/// The four pinned workloads: `(name, spec label, expected JSON)`.
fn goldens() -> [(&'static str, WorkloadSpec, &'static str); 4] {
    [
        (
            "request-response",
            WorkloadSpec::RequestResponse {
                clients: 0,
                think: 8,
                req: 1,
                resp: 1,
            },
            GOLDEN_REQUEST_RESPONSE,
        ),
        (
            "flow",
            WorkloadSpec::Flow {
                clients: 8,
                think: 10,
                packets: 3,
            },
            GOLDEN_FLOW,
        ),
        (
            "allreduce",
            WorkloadSpec::Collective {
                participants: 0,
                think: 16,
            },
            GOLDEN_ALLREDUCE,
        ),
        (
            "adversarial",
            WorkloadSpec::Adversarial {
                load: 0.4,
                burst: 16,
            },
            GOLDEN_ADVERSARIAL,
        ),
    ]
}

fn config() -> SimConfig {
    SimConfig {
        size: Size::new(16).unwrap(),
        queue_capacity: 4,
        cycles: 600,
        warmup: 150,
        offered_load: 0.0,
        seed: 0xC10C,
        engine: EngineKind::Synchronous,
    }
}

fn run(spec: &WorkloadSpec) -> String {
    let stats = Simulator::new(
        config(),
        RoutingPolicy::SsdtBalance,
        TrafficPattern::Uniform,
    )
    .with_workload(spec, WORKLOAD_SEED)
    .run();
    sim_stats_json(&stats).encode()
}

#[test]
fn request_response_matches_golden() {
    let (name, spec, golden) = &goldens()[0];
    assert_eq!(run(spec), *golden, "{name}");
}

#[test]
fn flow_matches_golden() {
    let (name, spec, golden) = &goldens()[1];
    assert_eq!(run(spec), *golden, "{name}");
}

#[test]
fn allreduce_matches_golden() {
    let (name, spec, golden) = &goldens()[2];
    assert_eq!(run(spec), *golden, "{name}");
}

#[test]
fn adversarial_matches_golden() {
    let (name, spec, golden) = &goldens()[3];
    assert_eq!(run(spec), *golden, "{name}");
}

#[test]
fn goldens_carry_the_closed_loop_ledger_where_expected() {
    // Guard against vacuous pins: the three request-tracking workloads
    // must report the closed-loop stats block, and the adversarial
    // schedule (fire-and-forget, no ledger) must not.
    for (name, _, golden) in &goldens()[..3] {
        assert!(
            golden.contains("\"requests_issued\":"),
            "{name} golden lost its workload block"
        );
    }
    assert!(!GOLDEN_ADVERSARIAL.contains("\"requests_issued\":"));
}

#[test]
fn open_loop_source_is_byte_identical_to_the_inline_arrivals_path() {
    // The pre-workload parity goldens all run through the engine's
    // *inline* Bernoulli arrivals. `OpenLoopSource` is the pluggable
    // spelling of the same process: seeded with the engine's own seed it
    // performs the identical draw sequence (per-source `gen_bool`, then
    // a destination draw), so under a policy that consumes no RNG of its
    // own the two paths must agree byte for byte.
    for load in [0.2, 0.45] {
        let mut config = config();
        config.offered_load = load;
        let inline = Simulator::new(config, RoutingPolicy::FixedC, TrafficPattern::Uniform).run();

        let mut closed = config;
        closed.offered_load = 0.0;
        let source = Box::new(OpenLoopSource::new(
            config.size,
            load,
            TrafficPattern::Uniform,
        ));
        let trait_path = Simulator::new(closed, RoutingPolicy::FixedC, TrafficPattern::Uniform)
            .with_workload_source(source, config.seed)
            .run();
        assert_eq!(
            sim_stats_json(&inline).encode(),
            sim_stats_json(&trait_path).encode(),
            "inline vs OpenLoopSource diverged at load {load}"
        );
    }
}

#[test]
fn open_loop_spec_builds_to_the_inline_path() {
    // `WorkloadSpec::OpenLoop` must be compiled away entirely — the
    // builder returns the simulator untouched, so the run is the inline
    // path (not a trait-object detour), which is what keeps all 16
    // pre-workload parity goldens byte-identical by construction.
    let mut config = config();
    config.offered_load = 0.45;
    let plain = Simulator::new(config, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform).run();
    let via_spec = Simulator::new(config, RoutingPolicy::SsdtBalance, TrafficPattern::Uniform)
        .with_workload(&WorkloadSpec::OpenLoop, 0xDEAD)
        .run();
    assert_eq!(
        sim_stats_json(&plain).encode(),
        sim_stats_json(&via_spec).encode()
    );
}
