//! Closed-loop workload conservation properties.
//!
//! Two ledgers must balance on every run, no matter how hostile the
//! fault climate:
//!
//! * the **packet** ledger — `injected == delivered + dropped + refused
//!   + in_flight` ([`SimStats::is_conserved`]);
//! * the **request** ledger — `issued == completed + aborted + live`
//!   ([`WorkloadStats::is_conserved`]): a request whose packet is
//!   dropped mid-outage must be aborted (its client returned to the
//!   think pool), never silently stranded.
//!
//! MTBF churn is the adversarial regime here: links fail and repair
//! mid-operation, so request packets die inside the network, responses
//! die on the return leg, and TSDT senders refuse some injections
//! outright — every abort path gets exercised.

use iadm_sim::{EngineKind, RoutingPolicy, SimConfig, Simulator, TrafficPattern, WorkloadSpec};
use iadm_topology::Size;

const ALL_POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::FixedC,
    RoutingPolicy::SsdtBalance,
    RoutingPolicy::RandomSign,
    RoutingPolicy::TsdtSender,
];

fn run_closed_loop(
    size: Size,
    policy: RoutingPolicy,
    spec: &WorkloadSpec,
    cycles: usize,
    (mtbf, mttr): (u64, u64),
    seed: u64,
) -> iadm_sim::SimStats {
    let config = SimConfig {
        size,
        queue_capacity: 2,
        cycles,
        warmup: cycles / 5,
        offered_load: 0.0,
        seed,
        engine: EngineKind::Synchronous,
    };
    let timeline = iadm_fault::FaultTimeline::mtbf(size, seed ^ 0x71ED, mtbf, mttr, cycles as u64);
    Simulator::with_fault_timeline(
        config,
        policy,
        TrafficPattern::Uniform,
        iadm_fault::BlockageMap::new(size),
        timeline,
    )
    .with_workload(spec, seed ^ 0x3C10)
    .run()
}

#[test]
fn request_response_conserves_under_churn_for_every_policy() {
    // The deterministic grid: all four policies, harsh
    // churn (MTBF 80 / MTTR 30 on a 400-cycle horizon ⇒ many outages).
    let size = Size::new(16).unwrap();
    let spec = WorkloadSpec::RequestResponse {
        clients: 0,
        think: 4,
        req: 1,
        resp: 1,
    };
    for policy in ALL_POLICIES {
        let stats = run_closed_loop(size, policy, &spec, 400, (80, 30), 0xAB0);
        assert!(stats.fault_events > 0, "{policy:?}: churn never fired");
        assert!(stats.workload.issued > 0, "{policy:?}: no requests issued");
        assert!(stats.is_conserved(), "{policy:?} lost packets: {stats:?}");
        assert!(
            stats.workload.is_conserved(),
            "{policy:?} stranded requests: {:?}",
            stats.workload
        );
        assert_eq!(stats.misrouted, 0, "{policy:?}");
        if policy != RoutingPolicy::TsdtSender {
            // Packets died mid-network under this churn level, so the
            // abort path demonstrably ran (TSDT refuses at the source
            // instead, which never creates an op to abort).
            assert!(
                stats.dropped > 0,
                "{policy:?}: churn regime too gentle to test aborts"
            );
        }
    }
}

iadm_check::check! {
    /// Randomized sweep of the same contract: any client population,
    /// think time, request/response shape, churn rate and policy — both ledgers must still balance and no client may be
    /// stranded. Failures shrink toward a minimal configuration.
    fn closed_loop_ledgers_balance_for_random_configs(g; cases = 48) {
        let size = Size::from_stages(g.u32_in(2..=4));
        let cycles = g.usize_in(50..=300);
        let spec = WorkloadSpec::RequestResponse {
            clients: g.usize_in(0..=size.n()),
            think: g.usize_in(0..=12) as u64,
            req: g.u32_in(1..=3),
            resp: g.u32_in(1..=3),
        };
        let policy = ALL_POLICIES[g.usize_in(0..=3)];
        let mtbf = g.usize_in(30..=200) as u64;
        let mttr = g.usize_in(10..=60) as u64;
        let seed = g.u64_any();
        let stats = run_closed_loop(size, policy, &spec, cycles, (mtbf, mttr), seed);
        iadm_check::check_assert!(
            stats.is_conserved(),
            "packet ledger broke: {policy:?} {spec:?} {stats:?}"
        );
        iadm_check::check_assert!(
            stats.workload.is_conserved(),
            "request ledger broke: {policy:?} {spec:?} {:?}",
            stats.workload
        );
        iadm_check::check_assert_eq!(stats.misrouted, 0);
    }
}
