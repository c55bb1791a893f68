//! Cross-engine differential equivalence: the event-driven scheduling
//! core must be *observably indistinguishable* from the synchronous
//! cycle loop. Equality here is byte equality of the full `SimStats`
//! JSON rendering (the workspace's canonical byte-stable writer) — the
//! same bar the parity goldens set. Any divergence in decision order,
//! RNG draw order, or floating-point accumulation order fails loudly.
//!
//! The grid covers every routing policy, both switching modes, three
//! fault regimes (fault-free, an explicit outage window, MTBF churn),
//! and three network sizes. A property test then walks randomly drawn
//! `SimConfig`s through both engines with shrinking on failure, so the
//! contract is not limited to the hand-picked grid.

use iadm_bench::json::sim_stats_json;
use iadm_fault::scenario::ScenarioSpec;
use iadm_fault::{BlockageMap, FaultEvent, FaultTimeline};
use iadm_sim::{EngineKind, RoutingPolicy, SimConfig, Simulator, SwitchingMode, TrafficPattern};
use iadm_topology::{Link, Size};

const ALL_POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::FixedC,
    RoutingPolicy::SsdtBalance,
    RoutingPolicy::RandomSign,
    RoutingPolicy::TsdtSender,
];

const MODES: [SwitchingMode; 2] = [
    SwitchingMode::StoreForward,
    SwitchingMode::Wormhole { flits: 4, lanes: 1 },
];

const SIZES: [usize; 3] = [8, 64, 256];

/// The fault regimes of the equivalence grid.
#[derive(Debug, Clone, Copy)]
enum Regime {
    FaultFree,
    /// One link down for the middle half of the run.
    Outage,
    /// `links` random links down together for the middle half of the run
    /// (the sweep's `outage:` scenario) — enough of them that a sparse
    /// run's few packets actually meet blockages.
    Burst {
        links: usize,
    },
    Churn {
        mtbf: u64,
        mttr: u64,
    },
}

fn timeline(regime: Regime, size: Size, cycles: usize, seed: u64) -> FaultTimeline {
    match regime {
        Regime::FaultFree => FaultTimeline::empty(size),
        Regime::Outage => {
            let link = Link::plus(1, 1);
            let down = cycles as u64 / 4;
            let up = 3 * cycles as u64 / 4;
            FaultTimeline::from_events(
                size,
                [
                    FaultEvent {
                        cycle: down,
                        link,
                        up: false,
                    },
                    FaultEvent {
                        cycle: up,
                        link,
                        up: true,
                    },
                ],
            )
        }
        Regime::Burst { links } => ScenarioSpec::Outage {
            links,
            down: cycles as u64 / 4,
            up: 3 * cycles as u64 / 4,
        }
        .timeline(size, seed ^ 0x71ED, cycles as u64),
        Regime::Churn { mtbf, mttr } => {
            FaultTimeline::mtbf(size, seed ^ 0x71ED, mtbf, mttr, cycles as u64)
        }
    }
}

/// Runs one grid point on `engine` and renders the full statistics.
/// `crossbar` lifts the per-switch accept limit from 1 to 3.
fn stats_json(
    mut config: SimConfig,
    engine: EngineKind,
    policy: RoutingPolicy,
    mode: SwitchingMode,
    regime: Regime,
    crossbar: bool,
) -> String {
    config.engine = engine;
    let mut sim = Simulator::with_fault_timeline(
        config,
        policy,
        TrafficPattern::Uniform,
        BlockageMap::new(config.size),
        timeline(regime, config.size, config.cycles, config.seed),
    )
    .with_switching_mode(mode);
    if crossbar {
        sim = sim.with_crossbar_switches();
    }
    sim_stats_json(&sim.run()).encode()
}

fn assert_agree(
    config: SimConfig,
    policy: RoutingPolicy,
    mode: SwitchingMode,
    regime: Regime,
    crossbar: bool,
) {
    let sync = stats_json(
        config,
        EngineKind::Synchronous,
        policy,
        mode,
        regime,
        crossbar,
    );
    let event = stats_json(
        config,
        EngineKind::EventDriven,
        policy,
        mode,
        regime,
        crossbar,
    );
    assert_eq!(
        sync,
        event,
        "engines diverged: N={} {policy:?} {mode:?} {regime:?} crossbar={crossbar}",
        config.size.n()
    );
}

fn assert_engines_agree(
    config: SimConfig,
    policy: RoutingPolicy,
    mode: SwitchingMode,
    regime: Regime,
) {
    assert_agree(config, policy, mode, regime, false);
}

fn grid_config(n: usize) -> SimConfig {
    SimConfig {
        size: Size::new(n).unwrap(),
        queue_capacity: 4,
        cycles: 400,
        warmup: 100,
        offered_load: 0.35,
        seed: 0xEC0_u64 ^ n as u64,
        engine: EngineKind::Synchronous,
    }
}

fn sweep_regime(regime: Regime) {
    for n in SIZES {
        for mode in MODES {
            for policy in ALL_POLICIES {
                assert_engines_agree(grid_config(n), policy, mode, regime);
            }
        }
    }
}

#[test]
fn engines_agree_fault_free_across_the_grid() {
    sweep_regime(Regime::FaultFree);
}

#[test]
fn engines_agree_under_an_explicit_outage_across_the_grid() {
    sweep_regime(Regime::Outage);
}

#[test]
fn engines_agree_under_mtbf_churn_across_the_grid() {
    sweep_regime(Regime::Churn {
        mtbf: 1000,
        mttr: 200,
    });
}

#[test]
fn engines_agree_at_low_load_on_large_networks() {
    // The event engine's design regime — a handful of packets on a big
    // fabric — and the regime where its advance phase gathers busy
    // switches from the dense arena instead of the stage bitmaps. The
    // grid above runs hot enough to stay on the bitmap path, so this is
    // the coverage that pins the sparse gather's rotated visit order.
    for n in [256, 1024] {
        let config = SimConfig {
            size: Size::new(n).unwrap(),
            queue_capacity: 4,
            cycles: 600,
            warmup: 150,
            offered_load: 2.0 / n as f64,
            seed: 0x10AD ^ n as u64,
            engine: EngineKind::Synchronous,
        };
        for policy in ALL_POLICIES {
            assert_engines_agree(
                config,
                policy,
                SwitchingMode::StoreForward,
                Regime::FaultFree,
            );
        }
        assert_engines_agree(
            config,
            RoutingPolicy::SsdtBalance,
            SwitchingMode::StoreForward,
            Regime::Churn {
                mtbf: 200,
                mttr: 60,
            },
        );
        // Crossbar switches accept up to three packets per cycle, so the
        // synchronous engine's per-stage accept reset must clear counts
        // above one, not just flags.
        assert_agree(
            config,
            RoutingPolicy::SsdtBalance,
            SwitchingMode::StoreForward,
            Regime::FaultFree,
            true,
        );
        // The shared arrival scan also feeds wormhole mode, which keeps
        // its own flit counters.
        for policy in [RoutingPolicy::SsdtBalance, RoutingPolicy::TsdtSender] {
            assert_engines_agree(
                config,
                policy,
                SwitchingMode::Wormhole { flits: 4, lanes: 4 },
                Regime::FaultFree,
            );
        }
    }
    // The shape of the benchmark's low-load workload: N = 8192, under one
    // packet per cycle fabric-wide, healthy or under a link burst.
    let config = SimConfig {
        size: Size::new(8192).unwrap(),
        queue_capacity: 4,
        cycles: 200,
        warmup: 40,
        offered_load: 2.0 / 8192.0,
        seed: 0x10AD_8192,
        engine: EngineKind::Synchronous,
    };
    for policy in [
        RoutingPolicy::FixedC,
        RoutingPolicy::SsdtBalance,
        RoutingPolicy::TsdtSender,
    ] {
        for regime in [Regime::FaultFree, Regime::Burst { links: 4096 }] {
            assert_engines_agree(config, policy, SwitchingMode::StoreForward, regime);
        }
    }
}

#[test]
fn engines_agree_on_degenerate_configs() {
    // The boundary cases an event queue is most likely to fumble: zero
    // load (the heap drains instantly), zero cycles, and a warmup that
    // covers the whole run.
    for (load, cycles, warmup) in [(0.0, 200, 50), (0.4, 0, 0), (0.4, 120, 120)] {
        let config = SimConfig {
            size: Size::new(8).unwrap(),
            queue_capacity: 2,
            cycles,
            warmup,
            offered_load: load,
            seed: 3,
            engine: EngineKind::Synchronous,
        };
        for mode in MODES {
            assert_engines_agree(config, RoutingPolicy::SsdtBalance, mode, Regime::FaultFree);
        }
    }
}

iadm_check::check! {
    /// Random `SimConfig`s through both engines: equality must hold for
    /// any load, queue depth, horizon, policy, mode, and fault regime —
    /// not just the grid above. Failures shrink toward a minimal config.
    fn random_configs_are_engine_invariant(g; cases = 48) {
        let size = Size::from_stages(g.u32_in(2..=5));
        let cycles = g.usize_in(10..=300);
        let config = SimConfig {
            size,
            queue_capacity: g.usize_in(1..=6),
            cycles,
            warmup: g.usize_in(0..=cycles / 2),
            offered_load: g.f64_in(0.0..0.8),
            seed: g.u64_any(),
            engine: EngineKind::Synchronous,
        };
        let policy = ALL_POLICIES[g.usize_in(0..=3)];
        let mode = if g.bool_with(0.5) {
            SwitchingMode::StoreForward
        } else {
            SwitchingMode::Wormhole { flits: g.u32_in(2..=4), lanes: g.u32_in(1..=2) }
        };
        let regime = if g.bool_with(0.5) {
            Regime::FaultFree
        } else {
            Regime::Churn { mtbf: g.usize_in(40..=400) as u64, mttr: g.usize_in(10..=100) as u64 }
        };
        let sync = stats_json(config, EngineKind::Synchronous, policy, mode, regime, false);
        let event = stats_json(config, EngineKind::EventDriven, policy, mode, regime, false);
        iadm_check::check_assert_eq!(
            sync, event,
            "engines diverged: N={} {policy:?} {mode:?} {regime:?}", size.n()
        );
    }
}
